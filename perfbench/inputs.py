"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical output, and nothing here imports `biokgr`, so the fixture
process can build the research world without loading the program under test.

- `kgml_corpus`    KGML documents for `curate-kgml`
- `merge_stream`   plain-data merge batches and queries for `evidence-churn`
- `ResearchWorld`  the gene/paper graph behind the fixture servers, plus the
                   research query pool for `research-fixture`
"""
from __future__ import annotations

import hashlib
import random
from math import gcd
from xml.sax.saxutils import quoteattr


def rng_for(*parts) -> random.Random:
    """A `random.Random` seeded from a stable digest of `parts`."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- curate-kgml ----------------------------------------------------------------

# Symbol stems per functional class; each stem is a prefix or symbol that
# biokgr's shipped gene-family dictionary recognises.
_GENE_STEMS = {
    "kinase": ["MAPK", "MAP2K", "JAK", "CDK", "AKT", "PIK3C", "SRC", "IRAK", "RIPK"],
    "receptor": ["CXCR", "CCR", "FGFR", "IL6R", "TNFRSF", "GPR", "ADRB"],
    "cytokine": ["CXCL", "CCL", "IL1", "IL17", "IFNA"],
    "transcription factor": ["STAT", "FOXO", "SMAD", "KLF", "IRF", "SOX"],
    "phosphatase": ["PTPN", "DUSP", "PPP1R"],
    "transporter": ["SLC", "ABCB", "KCNJ"],
    "growth factor": ["VEGF", "FGF", "WNT"],
    "other": ["ZNF", "CCDC", "TMEM", "FAM", "ANKRD"],
}
_ENZYME_STEMS = ["CYP", "ALDH", "GST", "HDAC", "PDE", "ACSL", "UGT", "SULT"]
_BLACKLISTED_STEMS = ["RPL", "KRT", "TUBB"]
_ENDPOINT_LABELS = [
    "Apoptosis", "Cell proliferation", "Inflammation", "Angiogenesis",
    "Metastasis", "Fibrosis", "Cell survival", "Tissue damage",
]
_POSITIVE = ["activation", "activation", "expression"]
_NEGATIVE = ["inhibition", "repression"]
_UNSIGNED = ["binding/association", "phosphorylation", "indirect effect"]

# Share of pathways per shape. The counts are fixed per corpus and the sizes
# and densities are stratified over the corpus, so corpora from different
# seeds differ in their graphs but not in their mix.
SHAPE_SHARES = (
    ("few_genes", 0.05),    # target-id skip: fewer genes than the option count
    ("no_correct", 0.06),   # target-id skip: every route to an endpoint inhibits
    ("dense", 0.05),        # a dense core where path enumeration hits its cap
)
DENSE_CORE = 14


def _kgml_document(pathway_id: str, title: str, entries: list[str],
                   relations: list[tuple[int, int, str]],
                   reactions: list[tuple[str, list[int], list[int]]]) -> str:
    lines = [
        '<?xml version="1.0"?>',
        f"<pathway name={quoteattr('path:' + pathway_id)} org=\"hsa\" "
        f"number={quoteattr(pathway_id[3:])} title={quoteattr(title)}>",
    ]
    lines.extend(entries)
    for entry1, entry2, subtype in relations:
        lines.append(f'  <relation entry1="{entry1}" entry2="{entry2}" type="PPrel">')
        lines.append(f'    <subtype name={quoteattr(subtype)} value="--&gt;"/>')
        lines.append("  </relation>")
    for i, (name, substrates, products) in enumerate(reactions):
        lines.append(f'  <reaction id="{i + 1}" name={quoteattr("rn:" + name)} type="irreversible">')
        for cid in substrates:
            lines.append(f'    <substrate id="{cid}" name="cpd:C{cid:05d}"/>')
        for cid in products:
            lines.append(f'    <product id="{cid}" name="cpd:C{cid:05d}"/>')
        lines.append("  </reaction>")
    lines.append("</pathway>")
    return "\n".join(lines) + "\n"


def _entry(entry_id: int, name: str, entry_type: str, label: str, reaction: str = "") -> str:
    attrs = f'id="{entry_id}" name={quoteattr(name)} type="{entry_type}"'
    if reaction:
        attrs += f" reaction={quoteattr(reaction)}"
    return (f"  <entry {attrs}>\n"
            f"    <graphics name={quoteattr(label)} type=\"rectangle\"/>\n"
            f"  </entry>")


def kgml_pathway(seed: int, index: int, shape: str = "normal", size_q: float = 0.5,
                 density_q: float = 0.5, n_endpoints: int = 1) -> tuple[str, str]:
    """One generated pathway: (file name, KGML text).

    `size_q` and `density_q` in [0, 1) place the pathway within the corpus
    ranges: about 30 to 120 gene nodes and 1.5 to 3 signed edges per node.
    Each pathway has `n_endpoints` (1 to 3) endpoint map nodes, a few unsigned relations
    (recorded as skipped by the parser) and a reaction graph with a feedback
    cycle and terminal compounds. `shape` is one of "normal" or the names in
    `SHAPE_SHARES`.
    """
    rng = rng_for("kgml", seed, index)
    pathway_id = f"hsa{10000 + index:05d}"
    no_correct = shape == "no_correct"
    if shape == "few_genes":
        n_genes = rng.randint(6, 9)
    elif shape == "dense":
        n_genes = 40 + int(40 * size_q)
    else:
        n_genes = 30 + int(90 * size_q ** 1.6)
    density = 3.0 if shape == "dense" else 1.5 + 1.5 * density_q

    entries: list[str] = []
    genes: list[int] = []          # entry ids of gene nodes
    enzyme_ids: list[int] = []
    used: set[str] = set()
    next_id = 1
    for g in range(n_genes):
        roll = rng.random()
        if roll < 0.22:
            stem, ftype = rng.choice(_ENZYME_STEMS), "enzyme"
        elif roll < 0.25:
            stem, ftype = rng.choice(_BLACKLISTED_STEMS), "blacklisted"
        else:
            ftype = rng.choice(sorted(_GENE_STEMS))
            stem = rng.choice(_GENE_STEMS[ftype])
        symbol = f"{stem}{rng.randint(1, 40)}"
        while symbol in used:
            symbol = f"{stem}{rng.randint(1, 400)}"
        used.add(symbol)
        label = f"{symbol}, {symbol}L"
        if ftype == "enzyme":
            label += f", EC:{rng.randint(1, 6)}.{rng.randint(1, 14)}.{rng.randint(1, 9)}.{rng.randint(1, 200)}"
            enzyme_ids.append(next_id)
        elif ftype == "blacklisted":
            label += ", ribosomal protein"
        entries.append(_entry(next_id, f"hsa:{100000 + index * 1000 + g}", "gene", label))
        genes.append(next_id)
        next_id += 1

    if shape == "dense":
        n_endpoints = 1
    endpoints = []
    for label in rng.sample(_ENDPOINT_LABELS, n_endpoints):
        entries.append(_entry(next_id, f"path:hsa{rng.randint(1000, 9999):05d}", "map", label))
        endpoints.append(next_id)
        next_id += 1

    # Signed edges form a layered cascade, as in signalling pathways: each
    # gene sends `density` edges on average to the next layer, some skip a
    # layer and some feed back to the previous one; the last layers feed the
    # endpoints. Fixed layer structure keeps the number of paths, and so the
    # cost of path enumeration, close to a function of size and density.
    order = genes[:]
    rng.shuffle(order)
    # A dense core is reachable only from itself and two feeder genes, so the
    # number of (gene, endpoint) pairs that hit the path cap stays bounded.
    core = order[-DENSE_CORE:] if shape == "dense" else []
    cascade = order[:len(order) - len(core)]
    n_layers = max(3, min(7, len(cascade) // 12))
    layers = [cascade[i * len(cascade) // n_layers:(i + 1) * len(cascade) // n_layers]
              for i in range(n_layers)]
    relations: list[tuple[int, int, str]] = []
    seen: set[tuple[int, int]] = set()

    def signed(positive_share: float) -> str:
        return rng.choice(_POSITIVE if no_correct or rng.random() < positive_share else _NEGATIVE)

    def link(src: int, dst: int, subtype: str) -> None:
        if src != dst and (src, dst) not in seen:
            seen.add((src, dst))
            relations.append((src, dst, subtype))

    # Out-degrees follow `density` exactly (error diffusion over the genes)
    # and each layer's in-edges are dealt round-robin over a shuffled layer,
    # so in-degrees are balanced too.
    decks: dict[int, list[int]] = {}

    def deal(li: int) -> int:
        deck = decks.setdefault(li, [])
        if not deck:
            deck.extend(layers[li])
            rng.shuffle(deck)
        return deck.pop()

    owed = 0.0
    slot = 0
    for li, layer in enumerate(layers[:-1]):   # the last layer feeds the endpoints
        for src in layer:
            owed += density
            while owed >= 1.0:
                owed -= 1.0
                slot += 1
                if slot % 12 == 0 and li > 0:
                    target = li - 1                              # feedback
                elif slot % 4 == 1 and li < n_layers - 2:
                    target = li + 2                              # skip a layer
                else:
                    target = li + 1
                link(src, deal(target), signed(0.7))
    for k, src in enumerate(core):   # a regular core: each member links to the next half
        for step in range(1, DENSE_CORE // 2 + 1):
            link(src, core[(k + step) % DENSE_CORE], signed(0.8))
    for feeder in layers[0][:2] if core else ():
        link(feeder, rng.choice(core), signed(1.0))

    feeding = layers[-1] + rng.sample(layers[-2], len(layers[-2]) // 5)
    for endpoint in endpoints:
        for src in rng.sample(feeding, max(1, len(feeding) * 2 // 5)):
            sign = _NEGATIVE if no_correct else (_POSITIVE if rng.random() < 0.75 else _NEGATIVE)
            relations.append((src, endpoint, rng.choice(sign)))
        for src in core[::2]:
            relations.append((src, endpoint, rng.choice(_POSITIVE)))
    for _ in range(max(1, n_genes // 15)):
        src, dst = rng.sample(genes, 2)
        relations.append((src, dst, rng.choice(_UNSIGNED)))

    # Reaction graph: a compound chain per enzyme, branching, one two-compound
    # feedback cycle and terminal compounds (no outgoing reaction).
    n_compounds = max(6, len(enzyme_ids) + 4)
    compounds = list(range(next_id, next_id + n_compounds))
    for cid in compounds:
        entries.append(_entry(cid, f"cpd:C{cid:05d}", "compound", f"Metabolite {pathway_id[3:]}-{cid}"))
    reactions: list[tuple[str, list[int], list[int]]] = []
    for k, eid in enumerate(enzyme_ids):
        if rng.random() < 0.2:
            continue  # an EC-annotated gene with no reaction link
        s = rng.randrange(len(compounds) - 2)
        p = min(len(compounds) - 1, s + rng.randint(1, 3))
        products = [compounds[p]]
        if rng.random() < 0.3:
            products.append(compounds[min(len(compounds) - 1, p + 1)])
        name = f"R{index % 100:02d}{k:03d}"
        reactions.append((name, [compounds[s]], products))
        entries[eid - 1] = entries[eid - 1].replace(
            'type="gene">', f'type="gene" reaction="rn:{name}">', 1)
    cycle_a, cycle_b = compounds[1], compounds[2]
    reactions.append((f"R9{index % 100:02d}01", [cycle_a], [cycle_b]))
    reactions.append((f"R9{index % 100:02d}02", [cycle_b], [cycle_a]))

    title = f"Generated pathway {index} ({shape.replace('_', ' ')})"
    return f"{pathway_id}.xml", _kgml_document(pathway_id, title, entries, relations, reactions)


def kgml_corpus(seed: int, count: int) -> list[tuple[str, str]]:
    """`count` generated pathways, in file-name order.

    Shapes come in fixed counts. Sizes, densities and endpoint counts are
    stratified: pathway slot k draws its size from the k-th of `count`
    equal slices of the size range, and its density and endpoint count
    from slices fixed by k. Seeds permute the slots and draw within them,
    so corpora differ in their graphs but not in their mix.
    """
    rng = rng_for("corpus", seed)
    shapes = []
    for name, share in SHAPE_SHARES:
        shapes += [name] * max(1, round(share * count))
    shapes += ["normal"] * (count - len(shapes))
    rng.shuffle(shapes)
    slots = list(range(count))
    rng.shuffle(slots)
    stride = _coprime_stride(count)
    return [
        kgml_pathway(seed, i, shapes[i], (k + rng.random()) / count,
                     ((k * stride) % count + rng.random()) / count, 1 + k % 3)
        for i, k in enumerate(slots)
    ]


def _coprime_stride(count: int) -> int:
    """A stride near 0.38 * count that is coprime to it, so slot k's density
    slice (k * stride mod count) is spread evenly against its size slice."""
    stride = max(1, int(count * 0.382))
    while gcd(stride, count) != 1:
        stride += 1
    return stride


# -- evidence-churn -------------------------------------------------------------

ENTITY_KINDS = ("GENE_PROTEIN", "DISEASE_PHENOTYPE", "CHEMICAL_DRUG", "CELL_TISSUE",
                "PATHWAY_GENESET", "PAPER", "FINDING")
_CURIE_NS = {"GENE_PROTEIN": "HGNC", "DISEASE_PHENOTYPE": "MONDO", "CHEMICAL_DRUG": "CHEBI",
             "CELL_TISSUE": "UBERON", "PATHWAY_GENESET": "REACT", "PAPER": "PMID",
             "FINDING": "FIND"}
_MECHANISTIC = ("ACTIVATES", "INHIBITS", "BINDS", "PHOSPHORYLATES", "REGULATES_EXPRESSION",
                "MEMBER_OF_PATHWAY", "HAS_GENESET_MEMBER", "SUPPORTS", "REFUTES",
                "INCONCLUSIVE_FOR", "CITES", "DERIVED_FROM_KG")
_CONTEXT = ("ASSOCIATED_WITH", "CO_OCCURS", "EXPRESSED_IN")
_WORDS = ("alpha", "beta", "gamma", "delta", "kappa", "sigma", "omega", "zeta",
          "theta", "lambda")

MENTION_SHARE = 0.3       # entities that re-mention a stored one, as a variant
REFUSED_SHARE = 0.03      # batches that exceed a merge cap
QUERY_EVERY = 4           # one subgraph query after every fourth batch
# Contextual relations go to one of the most recent findings; a few findings
# collect more than the linted maximum of two.
CONTEXT_SHARE = 0.07
CONTEXT_WINDOW = 20


def _entity_name(kind: str, n: int) -> str:
    if kind == "PAPER":
        return f"PMID:{30000000 + n}"
    word = _WORDS[n % len(_WORDS)]
    stems = {"GENE_PROTEIN": "GP", "DISEASE_PHENOTYPE": "syndrome", "CHEMICAL_DRUG": "compound",
             "CELL_TISSUE": "tissue", "PATHWAY_GENESET": "pathway", "FINDING": "finding"}
    return f"{stems[kind]} {word} {n}"


def _variant(rng: random.Random, name: str) -> str:
    """A case or punctuation variant that normalises to the same label."""
    choice = rng.randrange(4)
    if choice == 0:
        return name.upper()
    if choice == 1:
        return name.lower() + "."
    if choice == 2:
        return f"({name})"
    return "  " + name.replace(" ", "  ") + ","


def merge_stream(seed: int, batches: int) -> list[tuple[str, object]]:
    """A seeded stream of ("batch", payload) and ("query", payload) steps.

    Batch payloads are plain dicts shaped like agent output (at most 10
    entities and 16 relations); a small share exceeds a cap on purpose. About
    30% of entity mentions re-mention stored entities through case or
    punctuation variants or through their CURIE. Findings collect contextual
    predicates across batches, so the context-edge lint fires.
    """
    rng = rng_for("evidence", seed)
    stored: list[dict] = []          # entities created so far (plain dicts)
    findings: list[dict] = []
    counter = 0
    steps: list[tuple[str, object]] = []
    for b in range(batches):
        refused = rng.random() < REFUSED_SHARE
        cap = rng.choice(("entities", "relations")) if refused else ""
        n_new = rng.randint(11, 13) if cap == "entities" else rng.randint(4, 9)
        fresh: list[dict] = []
        for _ in range(n_new):
            counter += 1
            kind = ENTITY_KINDS[rng.randrange(len(ENTITY_KINDS))]
            curie = f"{_CURIE_NS[kind]}:{counter}" if (kind == "PAPER" or rng.random() < 0.5) else None
            fresh.append({"name": _entity_name(kind, counter), "kind": kind,
                          "curie": curie, "source": f"kb{counter % 5}@r{b % 7}"})
        mentions: list[dict] = []
        n_mentions = max(0, min(10 - n_new, round(n_new * MENTION_SHARE / (1 - MENTION_SHARE))))
        for _ in range(n_mentions if stored else 0):
            old = stored[rng.randrange(len(stored))]
            mention = dict(old, source=f"kb{rng.randrange(5)}@r{b % 7}")
            if old["curie"] and rng.random() < 0.5:
                mention["curie"] = old["curie"].lower() if rng.random() < 0.5 else old["curie"]
                mention["name"] = _variant(rng, old["name"]) if old["kind"] != "PAPER" else old["name"]
            elif old["kind"] != "PAPER":
                mention["name"] = _variant(rng, old["name"])
                mention["curie"] = None
            mentions.append(mention)
        entities = fresh + mentions
        rng.shuffle(entities)

        pool = fresh + mentions + [stored[rng.randrange(len(stored))] for _ in range(6) if stored]
        relations: list[dict] = []
        n_rel = 18 if cap == "relations" else rng.randint(8, 16)
        batch_findings = [e for e in fresh if e["kind"] == "FINDING"]
        recent = (findings + batch_findings)[-CONTEXT_WINDOW:]
        for r in range(3 * n_rel):
            if len(relations) == n_rel:
                break
            if recent and rng.random() < CONTEXT_SHARE:
                finding = recent[rng.randrange(len(recent))]
                subject, predicate = finding["name"], rng.choice(_CONTEXT)
            else:
                subject, predicate = pool[rng.randrange(len(pool))]["name"], rng.choice(_MECHANISTIC)
            obj = pool[rng.randrange(len(pool))]
            obj_ref = obj["curie"] if obj["curie"] and rng.random() < 0.5 else obj["name"]
            if subject == obj["name"]:
                continue
            if rng.random() < 0.02:
                obj_ref = f"unmentioned entity {b}-{r}"   # rejected: endpoint unknown
            relations.append({"subject": subject, "predicate": predicate, "object": obj_ref,
                              "evidence": [f"PMID:{30000000 + rng.randrange(max(1, counter))}"]})
        observations = [
            {"entity": e["name"], "text": f"Observed in cohort {b} with {rng.choice(_WORDS)} signal"}
            for e in entities[:2]
        ]
        steps.append(("batch", {"entities": entities, "relations": relations,
                                "observations": observations, "cycle_id": f"cycle-{b}"}))
        if not refused:
            stored.extend(fresh)
            findings.extend(batch_findings)
        if (b + 1) % QUERY_EVERY == 0 and stored:
            seeds = [_variant(rng, e["name"]) if e["kind"] != "PAPER" else e["name"]
                     for e in (stored[rng.randrange(len(stored))] for _ in range(rng.randint(1, 3)))]
            steps.append(("query", {"seeds": seeds, "depth": 1 if rng.random() < 0.6 else 2}))
    return steps


# -- research-fixture -------------------------------------------------------------

_DISEASES = ("intestinal inflammation", "liver fibrosis", "tumor angiogenesis",
             "insulin resistance", "neurodegeneration", "bone resorption",
             "airway remodeling", "cardiac hypertrophy")
WORLD_GENES = 240
WORLD_PAPERS = 1200


class ResearchWorld:
    """The generated knowledge behind the fixture servers.

    Genes relate to other genes, diseases and papers; papers cite papers.
    Every response the fixture serves is derived from this graph, so a
    depth-first walk over relations and citations finds real links.
    """

    def __init__(self, seed: int):
        rng = rng_for("world", seed)
        stems = [s for group in _GENE_STEMS.values() for s in group] + _ENZYME_STEMS
        symbols: list[str] = []
        while len(symbols) < WORLD_GENES:
            symbol = f"{rng.choice(stems)}{rng.randint(1, 60)}"
            if symbol not in symbols:
                symbols.append(symbol)
        self.genes = symbols
        self.entrez = {s: str(1000 + i * 7) for i, s in enumerate(symbols)}
        self.papers = [str(31000000 + i * 13) for i in range(WORLD_PAPERS)]
        self.related: dict[str, list[str]] = {}
        self.gene_papers: dict[str, list[str]] = {}
        for s in symbols:
            partners = rng.sample(symbols, 6)
            self.related[s] = [p for p in partners if p != s][:5] + rng.sample(_DISEASES, 2)
            self.gene_papers[s] = rng.sample(self.papers, 4)
        self.citations = {p: rng.sample(self.papers, rng.randint(2, 6)) for p in self.papers}

    def queries(self, seed: int, count: int) -> list[str]:
        """A pool of research questions whose entities overlap."""
        rng = rng_for("queries", seed)
        hubs = rng.sample(self.genes, max(4, count // 3))
        pool = []
        for i in range(count):
            gene = rng.choice(hubs)
            partner = self.related[gene][rng.randrange(3)]
            disease = self.related[gene][-1]
            if i % 5 == 4:
                paper = self.gene_papers[gene][0]
                pool.append(f"citation chain from PMID:{paper} on {gene} in {disease}")
            else:
                pool.append(f"{gene} and {partner} in {disease}")
        return pool
