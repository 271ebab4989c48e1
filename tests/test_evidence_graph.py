"""Evidence-graph store: normalization, merge cycles, dedup, conflicts, export."""
import collections
import copy
import gc
import hashlib
import io
import json
import logging
import os
import random
import subprocess
import sys
import textwrap
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import biokgr
from biokgr import evidence
from biokgr.evidence import (
    CONTEXT_PREDICATES,
    MAX_CONTEXT_EDGES_PER_FINDING,
    BatchLimitExceeded,
    EmptyLabel,
    EntityRef,
    EvidenceGraphStore,
    InvalidName,
    InvalidObservation,
    MalformedSnapshot,
    MergeBatch,
    MismatchedEndpoints,
    MissingEvidence,
    Observation,
    RelationEdge,
    RelationNotFound,
    UnknownPredicate,
    WorkspaceUnavailable,
    export_graph,
    import_graph,
    normalize_label,
)

from oracles import findings_over_context_cap_oracle, subgraph_oracle


def gene(name, curie=None, source="kegg@r109"):
    return EntityRef(name=name, kind="GENE_PROTEIN", curie=curie, source=source)


def rel(subject, predicate, object_, evidence=("PMID:1",)):
    return RelationEdge(subject=subject, predicate=predicate, object=object_, evidence=tuple(evidence))


# -- normalize_label ---------------------------------------------------------

def test_normalize_collapses_whitespace():
    assert normalize_label("  TNF  alpha") == "tnf alpha"


def test_normalize_is_case_insensitive():
    assert normalize_label("TNF") == normalize_label("tnf")


def test_normalize_keeps_internal_punctuation():
    assert normalize_label("PMID:30994898") == "pmid:30994898"


def test_normalize_strips_outer_punctuation():
    assert normalize_label('"TNF-alpha,"') == "tnf-alpha"


def test_normalize_blank_raises():
    with pytest.raises(EmptyLabel):
        normalize_label("   ")


@given(st.text(min_size=1, max_size=60))
def test_normalize_idempotent(raw):
    try:
        once = normalize_label(raw)
    except EmptyLabel:
        return
    assert normalize_label(once) == once


# -- upsert ------------------------------------------------------------------

def test_upsert_creates_and_reports():
    store = EvidenceGraphStore()
    report = store.upsert_batch(MergeBatch(entities=(gene("TNF", curie="HGNC:11892"),)))
    assert report.created == 1 and report.merged == 0
    assert len(store) == 1


def test_duplicate_paper_names_merge_within_batch():
    store = EvidenceGraphStore()
    paper = lambda src: EntityRef(name="PMID:12345", kind="PAPER", source=src)
    report = store.upsert_batch(MergeBatch(entities=(paper("pubmed"), paper("pubtator"))))
    assert report.created == 1
    assert report.merged == 1
    assert len(store) == 1


def test_match_by_curie_then_label():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("TNF", curie="HGNC:11892"),)))
    # same CURIE, different label: merges
    report = store.upsert_batch(MergeBatch(entities=(gene("TNF alpha", curie="hgnc:11892"),)))
    assert report.merged == 1 and report.created == 0
    # same normalized label, no CURIE: merges
    report = store.upsert_batch(MergeBatch(entities=(gene("tnf"),)))
    assert report.merged == 1 and report.created == 0
    assert len(store) == 1


def test_reupsert_appends_observation_once():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("TNF"),)))
    batch = MergeBatch(
        entities=(gene("TNF"),),
        observations=(Observation(entity="TNF", text="Elevated in colonic mucosa."),),
    )
    report = store.upsert_batch(batch)
    assert report.created == 0 and report.merged == 1
    assert store.get("TNF").observations == ["Elevated in colonic mucosa."]
    store.upsert_batch(batch)
    assert store.get("TNF").observations == ["Elevated in colonic mucosa."]


def test_batch_limit_entities_atomic():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("SEED"),)))
    before = store.to_document()
    too_many = tuple(gene(f"G{i}") for i in range(11))
    with pytest.raises(BatchLimitExceeded):
        store.upsert_batch(MergeBatch(entities=too_many))
    assert store.to_document() == before


def test_batch_limit_relations():
    store = EvidenceGraphStore()
    entities = tuple(gene(f"G{i}") for i in range(10))
    store.upsert_batch(MergeBatch(entities=entities))
    relations = tuple(
        rel(f"G{i}", "ACTIVATES", f"G{(i + j) % 10}")
        for j in (1, 2) for i in range(10)
    )[:17]
    before = store.to_document()
    with pytest.raises(BatchLimitExceeded):
        store.upsert_batch(MergeBatch(relations=relations))
    assert store.to_document() == before


def test_existing_entities_do_not_count_against_cap():
    store = EvidenceGraphStore()
    entities = tuple(gene(f"G{i}") for i in range(10))
    store.upsert_batch(MergeBatch(entities=entities))
    # 10 existing + 10 new = fine
    again = entities + tuple(gene(f"H{i}") for i in range(10))
    report = store.upsert_batch(MergeBatch(entities=again))
    assert report.created == 10 and report.merged == 10


def test_invalid_name_rejected():
    store = EvidenceGraphStore()
    long_name = "a very long name with far too many words to satisfy the label rule"
    with pytest.raises(InvalidName):
        store.upsert_batch(MergeBatch(entities=(gene(long_name),)))
    with pytest.raises(InvalidName):
        store.upsert_batch(
            MergeBatch(entities=(EntityRef(name="Some study", kind="PAPER", source="x"),))
        )


def test_name_rule_is_disjunction():
    # 6 words but under 40 characters: allowed
    store = EvidenceGraphStore()
    report = store.upsert_batch(MergeBatch(entities=(gene("a b c d e f"),)))
    assert report.created == 1
    # 4 words but 44 characters: allowed
    report = store.upsert_batch(MergeBatch(entities=(gene("abcdefghijk lmnopqrstu vwxyzabcdefg hijklmno"),)))
    assert report.created == 1


def test_relation_validation():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("A"), gene("B"))))
    with pytest.raises(UnknownPredicate):
        store.upsert_batch(MergeBatch(relations=(rel("A", "BLOCKS", "B"),)))
    with pytest.raises(MissingEvidence):
        store.upsert_batch(MergeBatch(relations=(rel("A", "ACTIVATES", "B", evidence=()),)))


def test_observation_word_cap():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("A"),)))
    text = " ".join(["word"] * 31)
    with pytest.raises(InvalidObservation):
        store.upsert_batch(MergeBatch(observations=(Observation(entity="A", text=text),)))


def test_upsert_idempotent():
    store = EvidenceGraphStore()
    batch = MergeBatch(
        entities=(gene("TNF"), gene("NFKB1")),
        relations=(rel("TNF", "ACTIVATES", "NFKB1"),),
    )
    first = store.upsert_batch(batch)
    second = store.upsert_batch(batch)
    assert first.created == 2 and first.relations_added == 1
    assert second.created == 0 and second.relations_added == 0


def test_unresolvable_relation_endpoint_is_rejected_not_fatal():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("A"),)))
    report = store.upsert_batch(MergeBatch(relations=(rel("A", "BINDS", "GHOST"),)))
    assert report.rejected == 1
    assert report.relations_added == 0


# -- merge semantics pinned over a seeded stream ------------------------------------

_PIN_KINDS = ("GENE_PROTEIN", "DISEASE_PHENOTYPE", "CHEMICAL_DRUG", "FINDING", "PAPER")
_PIN_SHARED = ("TNF", "IL6", "Insulin", "p53")       # the same label under several kinds
_PIN_PREDICATES = ("ACTIVATES", "INHIBITS", "BINDS", "ASSOCIATED_WITH", "CO_OCCURS",
                   "EXPRESSED_IN")
_PIN_VARIANTS = (str.upper, str.lower, lambda s: s + ".", lambda s: f'"{s},"',
                 lambda s: "  " + s.replace(" ", "   ") + " ")


def pinned_merge_stream(seed, batches=200):
    """Agent-shaped batches that exercise every merge rule.

    Mentions repeat stored entities through case and punctuation variants and
    through their CURIE in either namespace case; endpoints and observations
    also name unknown and punctuation-only strings; a few batches exceed a cap
    or carry a punctuation-only entity name.
    """
    rng = random.Random(seed)
    stored = []  # (name, kind, curie) of every entity offered so far
    for b in range(batches):
        fresh = []
        n_new = 11 if rng.random() < 0.04 else rng.randint(2, 7)
        for i in range(n_new):
            kind = rng.choice(_PIN_KINDS)
            if kind == "PAPER":
                name = f"PMID:{1000 + 13 * b + i}"
            elif rng.random() < 0.1:
                name = rng.choice(_PIN_SHARED)
            else:
                name = f"{kind.split('_')[0].title()} {b}-{i}"
            curie = f"{kind[:3]}:{b}.{i}" if kind == "PAPER" or rng.random() < 0.5 else None
            fresh.append((name, kind, curie))
        mentions = []
        for _ in range(rng.randint(0, 4) if stored else 0):
            name, kind, curie = rng.choice(stored)
            if kind != "PAPER":
                name = rng.choice(_PIN_VARIANTS)(name)
            if curie and rng.random() < 0.5:
                ns, rest = curie.split(":", 1)
                curie = f"{rng.choice((ns.lower(), ns))}:{rest}"
            elif rng.random() < 0.5:
                curie = None
            mentions.append((name, kind, curie))
        if rng.random() < 0.03:
            mentions.append(("?!", "GENE_PROTEIN", None))
        offered = fresh + mentions
        rng.shuffle(offered)
        entities = tuple(EntityRef(name=n, kind=k, curie=c, source=f"kb{rng.randrange(4)}@r{b % 5}")
                         for n, k, c in offered)

        pool = offered + [rng.choice(stored) for _ in range(5) if stored]

        def endpoint():
            roll = rng.random()
            if roll < 0.03:
                return f"ghost {rng.randrange(50)}"
            if roll < 0.05:
                return rng.choice(("--", "...", "?"))
            name, kind, curie = rng.choice(pool)
            if curie and roll < 0.35:
                return curie.lower() if roll < 0.2 else curie
            return rng.choice(_PIN_VARIANTS)(name) if roll < 0.6 and kind != "PAPER" else name

        n_rel = 18 if rng.random() < 0.04 else rng.randint(0, 12)
        relations = tuple(
            RelationEdge(subject=endpoint(), predicate=rng.choice(_PIN_PREDICATES),
                         object=endpoint(), evidence=(f"PMID:{rng.randrange(40)}",))
            for _ in range(n_rel)
        )
        observations = tuple(
            Observation(entity=endpoint(), text=f"Noted in cycle {b} as {rng.choice('abc')}")
            for _ in range(rng.randint(0, 3))
        )
        yield MergeBatch(entities=entities, relations=relations, observations=observations,
                         cycle_id=f"cycle-{b}")
        stored += fresh


def test_merge_stream_keeps_its_pinned_outcome(tmp_path):
    """Reports, refusals and the final snapshot of one seeded stream are fixed.

    The figures were recorded before merges began to share normalized keys
    within a batch; a change to how a batch is normalized or applied must
    leave every one of them as it is.
    """
    store = EvidenceGraphStore()
    totals = dict.fromkeys(("created", "merged", "relations_added", "rejected"), 0)
    refusals, warnings = {}, []
    for batch in pinned_merge_stream(seed=14):
        try:
            report = store.upsert_batch(batch)
        except (BatchLimitExceeded, EmptyLabel) as exc:
            refusals[type(exc).__name__] = refusals.get(type(exc).__name__, 0) + 1
            continue
        for name in totals:
            totals[name] += getattr(report, name)
        warnings += report.warnings
    path = tmp_path / "graph.json"
    export_graph(store, path)
    assert (totals, refusals, len(warnings)) == PINNED_TOTALS
    assert hashlib.sha256("\n".join(warnings).encode()).hexdigest() == PINNED_WARNINGS_SHA256
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SNAPSHOT_SHA256


PINNED_TOTALS = (
    {"created": 814, "merged": 359, "relations_added": 837, "rejected": 216},
    {"BatchLimitExceeded": 14, "EmptyLabel": 8},
    227,
)
PINNED_WARNINGS_SHA256 = "567667009549a7ea067d4e34c86cebebea42ccfb19f44215730bd639db1ec6f6"
PINNED_SNAPSHOT_SHA256 = "43f448bad42003876ff7bfc1dee2e67abe5f93980cf9dc0d32d680dae9250f8a"


def test_a_batch_normalizes_each_string_once_and_keeps_nothing(monkeypatch):
    calls = collections.Counter()
    for name in ("normalize_label", "normalize_curie"):
        original = getattr(evidence, name)

        def counted(raw, _name=name, _original=original):
            calls[_name, raw] += 1
            return _original(raw)

        monkeypatch.setattr(evidence, name, counted)
    memos = []

    class Recorded(evidence._Normalized):
        def __init__(self):
            super().__init__()
            memos.append(weakref.ref(self))

    monkeypatch.setattr(evidence, "_Normalized", Recorded)

    store = EvidenceGraphStore()
    attributes = set(vars(store))
    store.upsert_batch(MergeBatch(entities=(gene("TNF", curie="HGNC:11892"), gene("IL6"))))
    calls.clear()
    report = store.upsert_batch(MergeBatch(
        entities=(gene("tnf", curie="hgnc:11892"), gene("TNF."), gene("IL6"), gene("IL6"),
                  gene("STAT3", curie="HGNC:11364"), gene("stat3")),
        relations=(rel("TNF", "ACTIVATES", "IL6"), rel("tnf", "ACTIVATES", "il6"),
                   rel("HGNC:11892", "BINDS", "STAT3"), rel("TNF", "INHIBITS", "hgnc:11364"),
                   rel("IL6", "BINDS", "GHOST"), rel("GHOST", "BINDS", "--"),
                   rel("--", "BINDS", "TNF")),
        observations=(Observation(entity="TNF", text="Raised in mucosa."),
                      Observation(entity="STAT3", text="Phosphorylated."),
                      Observation(entity="--", text="Nothing.")),
    ))
    assert (report.created, report.merged, report.relations_added, report.rejected) == (1, 5, 3, 4)
    assert calls and max(calls.values()) == 1, [c for c, n in calls.items() if n > 1]

    too_many = MergeBatch(entities=tuple(gene(f"G{i}") for i in range(11)) + (gene("TNF"),) * 3)
    calls.clear()
    with pytest.raises(BatchLimitExceeded):
        store.upsert_batch(too_many)
    assert calls and max(calls.values()) == 1

    gc.collect()
    assert set(vars(store)) == attributes
    assert memos and all(memo() is None for memo in memos)


# -- subgraph ----------------------------------------------------------------

def make_small_store():
    store = EvidenceGraphStore()
    store.upsert_batch(
        MergeBatch(
            entities=(gene("TNF"), gene("NFKB1"), gene("IL6")),
            relations=(
                rel("TNF", "INHIBITS", "NFKB1"),
                rel("NFKB1", "REGULATES_EXPRESSION", "IL6"),
            ),
        )
    )
    return store


def test_subgraph_depth_zero():
    store = make_small_store()
    sub = store.query_subgraph(["TNF"], depth=0)
    assert len(sub["entities"]) == 1
    assert sub["relations"] == []


def test_subgraph_one_hop():
    store = make_small_store()
    sub = store.query_subgraph(["TNF"], depth=1)
    assert len(sub["entities"]) == 2
    assert len(sub["relations"]) == 1


def test_subgraph_absent_seed_empty():
    store = make_small_store()
    sub = store.query_subgraph(["MISSING"], depth=2)
    assert sub["entities"] == {} and sub["relations"] == []


def test_subgraph_undirected_hops():
    store = make_small_store()
    sub = store.query_subgraph(["IL6"], depth=1)
    assert set(sub["entities"]) == {store.resolve_key("IL6"), store.resolve_key("NFKB1")}


# -- conflicts ----------------------------------------------------------------

def test_tag_conflict_assigns_shared_group():
    store = EvidenceGraphStore()
    store.upsert_batch(
        MergeBatch(
            entities=(gene("A"), gene("B")),
            relations=(
                rel("A", "ACTIVATES", "B", evidence=("PMID:1",)),
                rel("A", "INHIBITS", "B", evidence=("PMID:2",)),
            ),
        )
    )
    group = store.tag_conflict(("A", "ACTIVATES", "B"), ("A", "INHIBITS", "B"))
    assert group == "cg-1"
    assert store.relation_count == 2  # both retained
    again = store.tag_conflict(("A", "ACTIVATES", "B"), ("A", "INHIBITS", "B"))
    assert again == group
    assert store.stats()["conflict_groups"] == 1


def test_tag_conflict_requires_same_endpoints():
    store = EvidenceGraphStore()
    store.upsert_batch(
        MergeBatch(
            entities=(gene("A"), gene("B"), gene("C")),
            relations=(rel("A", "ACTIVATES", "B"), rel("A", "INHIBITS", "C")),
        )
    )
    with pytest.raises(MismatchedEndpoints):
        store.tag_conflict(("A", "ACTIVATES", "B"), ("A", "INHIBITS", "C"))
    with pytest.raises(RelationNotFound):
        store.tag_conflict(("A", "ACTIVATES", "B"), ("A", "BINDS", "B"))


# -- export / import ----------------------------------------------------------

def test_export_empty_store(tmp_path):
    store = EvidenceGraphStore()
    doc = export_graph(store, tmp_path / "graph.json")
    assert doc["entities"] == [] and doc["relations"] == []


def test_export_includes_provenance(tmp_path):
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("TNF", source="kegg@r109"),)))
    doc = export_graph(store, tmp_path / "graph.json")
    assert doc["entities"][0]["sources"] == ["kegg@r109"]


def test_export_unwritable_destination(tmp_path):
    store = EvidenceGraphStore()
    with pytest.raises(WorkspaceUnavailable):
        export_graph(store, tmp_path / "nodir" / "graph.json")


def test_roundtrip_structural_equality(tmp_path):
    store = make_small_store()
    store.upsert_batch(
        MergeBatch(observations=(Observation(entity="TNF", text="Pro-inflammatory cytokine."),))
    )
    path = tmp_path / "snapshot.json"
    export_graph(store, path)
    loaded = import_graph(path)
    assert loaded.to_document() == store.to_document()


def test_export_stable_ordering(tmp_path):
    store = make_small_store()
    buf1, buf2 = io.StringIO(), io.StringIO()
    doc = export_graph(store, buf1)
    export_graph(store, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    path = tmp_path / "graph.json"
    export_graph(store, path)
    assert path.read_text(encoding="utf-8") == buf1.getvalue() == json.dumps(doc, indent=2, sort_keys=True)


def test_failed_export_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "evidence_graph.json"
    export_graph(make_small_store(), path)
    before = path.read_bytes()

    def dump_until_disk_full(doc, fh, **kwargs):
        fh.write('{"entities": [')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", dump_until_disk_full)
    with pytest.raises(WorkspaceUnavailable):
        export_graph(EvidenceGraphStore(), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# -- malformed snapshots ---------------------------------------------------------

def snapshot_doc():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(
        entities=(gene("TNF", curie="HGNC:11892"), gene("IL6")),
        relations=(rel("TNF", "ACTIVATES", "IL6"), rel("TNF", "INHIBITS", "IL6")),
        observations=(Observation(entity="IL6", text="Secreted by macrophages."),),
    ))
    store.tag_conflict(("TNF", "ACTIVATES", "IL6"), ("TNF", "INHIBITS", "IL6"))
    return store.to_document()


_DROP = object()


def _edit(path, value=_DROP):
    """A mutation that sets the item at `path`, or deletes it when no value is given."""
    def mutate(doc):
        *parents, last = path
        target = doc
        for step in parents:
            target = target[step]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
        return doc
    return mutate


MALFORMED = {
    "not an object": lambda doc: [doc],
    "missing section": _edit(["relations"]),
    "section not a list": _edit(["entities"], {"TNF": {}}),
    "record not an object": _edit(["entities", 0], "TNF"),
    "missing field": _edit(["entities", 0, "kind"]),
    "ill-typed field": _edit(["entities", 0, "sources"], "kegg@r109"),
    "non-string list item": _edit(["relations", 0, "evidence"], [1]),
    "null name": _edit(["entities", 0, "name"], None),
    "blank name": _edit(["entities", 0, "name"], "  "),
    "unknown kind": _edit(["entities", 0, "kind"], "ORGANISM"),
    "duplicate entity": lambda doc: {**doc, "entities": doc["entities"] * 2},
    "unknown predicate": _edit(["relations", 0, "predicate"], "BLOCKS"),
    "relation to unknown entity": _edit(["relations", 0, "object"], "gene_protein/ghost"),
    "duplicate relation": lambda doc: {**doc, "relations": doc["relations"] * 2},
    "observation of unknown entity": _edit(["observations", 0, "entity"], "gene_protein/ghost"),
    "conflict member not a triple": _edit(["conflict_groups", 0, "relations", 0], ["a", "b"]),
    "conflict member unknown": _edit(["conflict_groups", 0, "relations", 0], ["a", "BINDS", "b"]),
}


def test_snapshot_doc_is_valid():
    doc = snapshot_doc()
    assert EvidenceGraphStore.from_document(doc).to_document() == doc


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_snapshot_is_rejected(mutate, tmp_path):
    doc = mutate(snapshot_doc())
    with pytest.raises(MalformedSnapshot):
        EvidenceGraphStore.from_document(doc)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedSnapshot):
        import_graph(path)


@pytest.mark.parametrize("payload", [b"", b'{"entities": [', b"\xff\xfe{}"],
                         ids=["empty", "truncated", "not utf-8"])
def test_snapshot_that_is_not_json_is_rejected(payload, tmp_path):
    path = tmp_path / "graph.json"
    path.write_bytes(payload)
    with pytest.raises(MalformedSnapshot):
        import_graph(path)


# -- label resolution ----------------------------------------------------------

def test_label_under_two_kinds_resolves_by_kind_order_whatever_the_hash_seed():
    program = textwrap.dedent("""
        import sys
        from biokgr.evidence import EntityRef, EvidenceGraphStore, MergeBatch, RelationEdge, export_graph
        store = EvidenceGraphStore()
        store.upsert_batch(MergeBatch(
            entities=(EntityRef(name="TNF", kind="DISEASE_PHENOTYPE"),
                      EntityRef(name="TNF", kind="GENE_PROTEIN"),
                      EntityRef(name="IL6", kind="GENE_PROTEIN")),
            relations=(RelationEdge(subject="TNF", predicate="ACTIVATES", object="IL6",
                                    evidence=("PMID:1",)),),
        ))
        assert store.resolve_key("TNF") == "gene_protein/tnf"
        assert store.resolve_key("TNF", kind="DISEASE_PHENOTYPE") == "disease_phenotype/tnf"
        export_graph(store, sys.stdout)
    """)
    src = str(Path(biokgr.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    snapshots = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=pythonpath)
        run = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        snapshots.add(run.stdout)
    assert len(snapshots) == 1


# -- property tests ------------------------------------------------------------

_names = st.sampled_from(
    ["TNF", "tnf", "TNF ", "IL6", "il6", "NFKB1", "STAT3", "PMID:1", "PMID:2"]
)
_kinds = st.sampled_from(["GENE_PROTEIN", "DISEASE_PHENOTYPE", "PAPER"])


@st.composite
def entity_strategy(draw):
    name = draw(_names)
    kind = draw(_kinds)
    if name.startswith("PMID"):
        kind = "PAPER"
    elif kind == "PAPER":
        kind = "GENE_PROTEIN"
    curie = draw(st.sampled_from([None, f"X:{name.strip().lower()}"]))
    return EntityRef(name=name, kind=kind, curie=curie, source="src@1")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(entity_strategy(), min_size=1, max_size=8), min_size=1, max_size=6))
def test_dedup_invariants_hold_over_upsert_sequences(batches):
    store = EvidenceGraphStore()
    for entities in batches:
        try:
            store.upsert_batch(MergeBatch(entities=tuple(entities)))
        except BatchLimitExceeded:
            continue
    seen_curies = {}
    seen_labels = {}
    seen_pmids = {}
    for entity in store.entities():
        if entity.curie:
            key = entity.curie.split(":")[0].lower() + ":" + entity.curie.split(":", 1)[1]
            assert key not in seen_curies
            seen_curies[key] = entity.key
        label = normalize_label(entity.name)
        assert (entity.kind, label) not in seen_labels
        seen_labels[(entity.kind, label)] = entity.key
        if entity.kind == "PAPER":
            pmid = entity.name.split(":", 1)[1]
            assert pmid not in seen_pmids
            seen_pmids[pmid] = entity.key


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rejected_batch_leaves_store_untouched(seed):
    import random as _random

    rng = _random.Random(seed)
    store = EvidenceGraphStore()
    store.upsert_batch(
        MergeBatch(entities=tuple(gene(f"G{i}") for i in range(rng.randint(1, 5))))
    )
    before = copy.deepcopy(store.to_document())
    overflow = tuple(gene(f"Z{i}") for i in range(11))
    with pytest.raises(BatchLimitExceeded):
        store.upsert_batch(MergeBatch(entities=overflow))
    assert store.to_document() == before


def test_stats_counts():
    store = make_small_store()
    stats = store.stats()
    assert stats["entities"] == 3
    assert stats["relations"] == 2
    assert stats["entities_by_kind"]["GENE_PROTEIN"] == 3


def test_concurrent_merges_are_serialized():
    store = EvidenceGraphStore()
    errors = []

    def writer(tag):
        try:
            for i in range(30):
                store.upsert_batch(MergeBatch(
                    entities=(gene(f"{tag}{i % 7}"),),
                    observations=(Observation(entity=f"{tag}{i % 7}",
                                              text=f"note {i} from {tag}"),),
                ))
        except Exception as exc:  # pragma: no cover - failure capture
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in "WXYZ"]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # 4 writers x 7 distinct labels, deduplicated
    assert len(store) == 28
    doc = store.to_document()
    assert EvidenceGraphStore.from_document(doc).to_document() == doc


# -- indexes kept current on each write ---------------------------------------------

_sub_names = ["TNF", "tnf.", "IL6", "NFKB1", "STAT3", "F1", "F2", "PMID:7"]
_sub_refs = st.sampled_from(_sub_names + ["GHOST"])
_sub_predicates = st.sampled_from(["ACTIVATES", "INHIBITS", "ASSOCIATED_WITH", "CO_OCCURS",
                                   "EXPRESSED_IN"])


@st.composite
def merge_step(draw):
    fixed_kinds = {"F1": "FINDING", "F2": "FINDING", "PMID:7": "PAPER"}
    entities = tuple(
        EntityRef(name=name, source="s@1", kind=fixed_kinds.get(name) or draw(
            st.sampled_from(["GENE_PROTEIN", "DISEASE_PHENOTYPE", "FINDING"])))
        for name in draw(st.lists(st.sampled_from(_sub_names), max_size=5))
    )
    relations = tuple(
        rel(draw(_sub_refs), draw(_sub_predicates), draw(_sub_refs), evidence=(f"PMID:{i}",))
        for i in range(draw(st.integers(0, 6)))
    )
    return ("merge", MergeBatch(entities=entities, relations=relations))


@st.composite
def query_step(draw):
    return ("query", draw(st.lists(_sub_refs, min_size=1, max_size=3)), draw(st.integers(0, 2)))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(merge_step(), query_step()), min_size=1, max_size=25))
def test_reads_between_merges_match_the_full_scan_oracle(steps):
    store = EvidenceGraphStore()
    warned = []
    for step in steps:
        if step[0] == "merge":
            report = store.upsert_batch(step[1])
            warned += [w.split("'")[1] for w in report.warnings if w.startswith("finding ")]
            continue
        _, seeds, depth = step
        got = store.query_subgraph(seeds, depth)
        want = subgraph_oracle(store, seeds, depth)
        assert list(got["entities"].items()) == list(want["entities"].items())
        assert [r.key for r in got["relations"]] == [r.key for r in want["relations"]]
    # each finding past the cap was warned about exactly once
    assert len(warned) == len(set(warned))
    assert set(warned) == findings_over_context_cap_oracle(
        store, CONTEXT_PREDICATES, MAX_CONTEXT_EDGES_PER_FINDING)


class NoScanDict(dict):
    """A table that may be probed by key but never iterated."""

    def _scan(self, *args, **kwargs):
        raise AssertionError("the store scanned a whole table")

    __iter__ = keys = items = values = _scan


def test_merges_and_reads_never_scan_the_tables():
    store = EvidenceGraphStore()
    names = [f"G{i}" for i in range(40)]
    for start in range(0, 40, 10):
        chunk = names[start:start + 10]
        store.upsert_batch(MergeBatch(
            entities=tuple(gene(n) for n in chunk),
            relations=tuple(rel(a, "BINDS", b) for a, b in zip(chunk, chunk[1:])),
        ))
    store._relations = NoScanDict(store._relations)
    store._entities = NoScanDict(store._entities)
    for i in range(10):
        finding = EntityRef(name=f"finding {i}", kind="FINDING", source="s@1")
        store.upsert_batch(MergeBatch(
            entities=(finding, gene(names[i])),
            relations=tuple(rel(finding.name, "CO_OCCURS", names[i + j]) for j in range(4))
            + (rel(names[i], "ACTIVATES", names[i + 20]),),
        ))
        for depth in (1, 2):
            sub = store.query_subgraph([names[i], "GHOST"], depth)
            assert sub["relations"]


def test_context_lint_warns_once_in_the_batch_that_crosses_the_cap(caplog, tmp_path):
    finding = EntityRef(name="F1", kind="FINDING", source="s@1")
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(finding,) + tuple(gene(f"G{i}") for i in range(6))))
    caplog.set_level(logging.WARNING, logger="biokgr.evidence")
    per_batch = []
    for i in range(5):
        caplog.clear()
        report = store.upsert_batch(MergeBatch(relations=(rel("F1", "ASSOCIATED_WITH", f"G{i}"),)))
        per_batch.append(([r.getMessage() for r in caplog.records], report.warnings))
    expected = "finding 'finding/f1' carries 3 contextual edges (recommended max 2)"
    assert per_batch == [([], []), ([], []), ([expected], [expected]), ([], []), ([], [])]

    path = tmp_path / "graph.json"
    export_graph(store, path)
    caplog.clear()
    restored = import_graph(path)
    report = restored.upsert_batch(MergeBatch(relations=(rel("F1", "CO_OCCURS", "G5"),)))
    assert caplog.records == [] and report.warnings == []

    # several edges in one batch: one warning, with the count at the end of the batch
    caplog.clear()
    store.upsert_batch(MergeBatch(entities=(EntityRef(name="F2", kind="FINDING", source="s@1"),)))
    report = store.upsert_batch(MergeBatch(
        relations=tuple(rel("F2", "EXPRESSED_IN", f"G{i}") for i in range(4)),
    ))
    assert report.warnings == ["finding 'finding/f2' carries 4 contextual edges (recommended max 2)"]
    assert len(caplog.records) == 1


def test_reads_interleave_with_merges_from_another_thread():
    # Every batch links the hub to four new genes, so readers walk an incident
    # set that the writer keeps growing.
    store = EvidenceGraphStore()
    errors, torn = [], []
    writer_done = threading.Event()

    def writer():
        try:
            for b in range(200):
                names = [f"N{4 * b + j}" for j in range(4)]
                store.upsert_batch(MergeBatch(
                    entities=(gene("HUB"),) + tuple(gene(n) for n in names),
                    relations=tuple(rel("HUB", "ACTIVATES", n) for n in names)
                    + tuple(rel(a, "BINDS", c) for a, c in zip(names, names[1:])),
                ))
        except Exception as exc:  # pragma: no cover - failure capture
            errors.append(exc)
        finally:
            writer_done.set()

    def reader(offset):
        try:
            i = 0
            while not writer_done.is_set():
                seed = "HUB" if i % 2 else f"N{(offset + 7 * i) % 800}"
                sub = store.query_subgraph([seed], depth=1 + i % 3 // 2)
                keys = set(sub["entities"])
                torn.extend(r.key for r in sub["relations"]
                            if r.subject not in keys or r.object not in keys)
                i += 1
        except Exception as exc:  # pragma: no cover - failure capture
            errors.append(exc)

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader, args=(k * 50,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not torn
    assert (len(store), store.relation_count) == (801, 1400)
