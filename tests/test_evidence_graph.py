"""Evidence-graph store: normalization, merge cycles, dedup, conflicts, export."""
import collections
import dataclasses
import gc
import hashlib
import json
import logging
import operator
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import biokgr
from biokgr import evidence
from biokgr.evidence import (
    CONTEXT_PREDICATES,
    MAX_CONTEXT_EDGES_PER_FINDING,
    MAX_NEW_ENTITIES_PER_BATCH,
    MAX_NEW_RELATIONS_PER_BATCH,
    BatchLimitExceeded,
    EmptyLabel,
    EntityRef,
    EvidenceGraphStore,
    InvalidName,
    InvalidObservation,
    MalformedSnapshot,
    MergeBatch,
    MissingEvidence,
    Observation,
    RelationEdge,
    StoredEntity,
    StoredRelation,
    UnknownPredicate,
    WorkspaceUnavailable,
    export_graph,
    import_graph,
    normalize_curie,
    normalize_label,
)

from oracles import (
    counted_upsert,
    findings_over_context_cap_oracle,
    grouping_oracle,
    resolve_oracle,
    subgraph_oracle,
)


def gene(name, curie=None, source="kegg@r109"):
    return EntityRef(name=name, kind="GENE_PROTEIN", curie=curie, source=source)


def rel(subject, predicate, object_, evidence=("PMID:1",), group=None):
    return RelationEdge(subject=subject, predicate=predicate, object=object_,
                        evidence=tuple(evidence), conflict_group=group)


def exported(store) -> bytes:
    """The bytes `export_graph` writes for `store`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        export_graph(store, path)
        return path.read_bytes()


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
    before = exported(store)
    too_many = tuple(gene(f"G{i}") for i in range(11))
    with pytest.raises(BatchLimitExceeded):
        store.upsert_batch(MergeBatch(entities=too_many))
    assert exported(store) == before


def test_batch_limit_relations():
    store = EvidenceGraphStore()
    entities = tuple(gene(f"G{i}") for i in range(10))
    store.upsert_batch(MergeBatch(entities=entities))
    relations = tuple(
        rel(f"G{i}", "ACTIVATES", f"G{(i + j) % 10}")
        for j in (1, 2) for i in range(10)
    )[:17]
    before = exported(store)
    with pytest.raises(BatchLimitExceeded):
        store.upsert_batch(MergeBatch(relations=relations))
    assert exported(store) == before


def test_existing_entities_do_not_count_against_cap():
    store = EvidenceGraphStore()
    entities = tuple(gene(f"G{i}") for i in range(10))
    store.upsert_batch(MergeBatch(entities=entities))
    # 10 existing + 10 new = fine
    again = entities + tuple(gene(f"H{i}") for i in range(10))
    report = store.upsert_batch(MergeBatch(entities=again))
    assert report.created == 10 and report.merged == 10


def capped_batch(entities, relations):
    """`entities` new genes N0, N1, … and `relations` new relations among them."""
    names = [f"N{i}" for i in range(entities)]
    pairs = [(a, b) for a in names for b in names if a != b][:relations]
    return MergeBatch(entities=tuple(map(gene, names)),
                      relations=tuple(rel(a, "ACTIVATES", b) for a, b in pairs))


def test_a_batch_at_both_caps_is_accepted():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("SEED"),)))
    report = store.upsert_batch(capped_batch(10, 16))
    assert (report.created, report.relations_added, report.rejected) == (10, 16, 0)


@pytest.mark.parametrize("entities, relations, message", [
    (11, 16, "batch introduces 11 new entities (limit 10)"),
    (10, 17, "batch introduces 17 new relations (limit 16)"),
], ids=["one entity more", "one relation more"])
def test_one_more_than_a_cap_refuses_the_batch(entities, relations, message):
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("SEED"),)))
    before = exported(store)
    with pytest.raises(BatchLimitExceeded) as refused:
        store.upsert_batch(capped_batch(entities, relations))
    assert str(refused.value) == message
    assert exported(store) == before


def test_a_batch_longer_than_a_cap_is_counted_not_refused():
    """Stored matches and repeats within the batch are not new, so the count decides."""
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("S0"), gene("S1")),
                                  relations=(rel("S0", "BINDS", "S1"),)))
    at_caps = capped_batch(10, 16)
    batch = MergeBatch(
        entities=at_caps.entities + (gene("s0"), gene("S1."), gene("n0")),
        relations=at_caps.relations + (rel("S0", "BINDS", "S1"), rel("s0", "BINDS", "s1."),
                                       rel("n0", "ACTIVATES", "N1")),
    )
    assert len(batch.entities) > MAX_NEW_ENTITIES_PER_BATCH
    assert len(batch.relations) > MAX_NEW_RELATIONS_PER_BATCH
    report = store.upsert_batch(batch)
    assert (report.created, report.merged, report.relations_added, report.rejected) == (10, 3, 16, 0)


def test_a_punctuation_only_name_refuses_a_batch_within_the_caps():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("TNF"),)))
    before = exported(store)
    with pytest.raises(EmptyLabel):
        store.upsert_batch(MergeBatch(entities=(gene("STAT3"), gene("?!")),
                                      relations=(rel("STAT3", "BINDS", "TNF"),)))
    assert exported(store) == before


def test_a_punctuation_only_name_merges_through_a_stored_curie():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("TNF", curie="HGNC:11892"),)))
    report = store.upsert_batch(MergeBatch(entities=(gene("?!", curie="hgnc:11892"),)))
    assert (report.created, report.merged) == (0, 1)
    # a CURIE first named in the same batch is not stored yet, so the name is read
    before = exported(store)
    with pytest.raises(EmptyLabel):
        store.upsert_batch(MergeBatch(entities=(gene("STAT3", curie="HGNC:11364"),
                                                gene("?!", curie="HGNC:11364"))))
    assert exported(store) == before


@pytest.mark.parametrize("batch, error", [
    (MergeBatch(entities=(gene("?!"), EntityRef(name="Some study", kind="PAPER"))), InvalidName),
    (MergeBatch(entities=(gene("?!"),), relations=(rel("TNF", "BLOCKS", "IL6"),)), UnknownPredicate),
], ids=["InvalidName", "UnknownPredicate"])
def test_a_record_rule_wins_over_an_empty_label(batch, error):
    with pytest.raises(error):
        EvidenceGraphStore().upsert_batch(batch)


def test_invalid_name_rejected():
    store = EvidenceGraphStore()
    long_name = "a very long name with far too many words to satisfy the label rule"
    with pytest.raises(InvalidName):
        store.upsert_batch(MergeBatch(entities=(gene(long_name),)))
    with pytest.raises(InvalidName):
        store.upsert_batch(
            MergeBatch(entities=(EntityRef(name="Some study", kind="PAPER", source="x"),))
        )


@pytest.mark.parametrize("stored, batch", [
    ((gene("TNF"), gene("IL6")),
     (gene("STAT3", curie="gene_protein/tnf"),)),
    ((),
     (gene("TNF"), gene("IL6"), gene("STAT3", curie="gene_protein/tnf"))),
    ((EntityRef("PMID:1", "PAPER", curie="PMID:1"),),
     (gene("STAT3", curie="paper/PMID:1"),)),
], ids=["across batches", "within one batch", "with a colon"])
def test_a_curie_that_could_equal_an_entity_key_refuses_its_batch(stored, batch):
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=stored))
    before = exported(store)
    with pytest.raises(InvalidName, match="is not prefix:reference"):
        store.upsert_batch(MergeBatch(entities=batch))
    assert exported(store) == before


@pytest.mark.parametrize("curie", ["HGNC", ":1", " :1", "HGNC:", "HGNC: ", "a/b:1"])
def test_a_curie_must_be_prefix_colon_reference(curie):
    with pytest.raises(InvalidName, match=f"CURIE {curie!r} of 'TNF' is not prefix:reference"):
        gene("TNF", curie=curie).validate()
    gene("TNF", curie="hgnc:11892/x").validate()  # a `/` after the colon is allowed


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


def _outcome(merge, store, batch):
    """What `merge(store, batch)` gives: its report, or its refusal's type and message."""
    try:
        return merge(store, batch)
    except (BatchLimitExceeded, EmptyLabel) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", [0, 3, 14, 27])
def test_a_merge_that_counts_past_a_cap_only_matches_one_that_always_counts(seed):
    """The store counts a batch's new records only when the batch is longer than
    a cap; that is exact because neither count exceeds its batch's length."""
    store, reference = EvidenceGraphStore(), EvidenceGraphStore()
    sides = collections.Counter()
    for batch in pinned_merge_stream(seed):
        try:
            assert store._count_new_entities(batch.entities) <= len(batch.entities)
        except EmptyLabel:
            pass
        assert store._count_new_relations(batch) <= len(batch.relations)
        outcome = _outcome(EvidenceGraphStore.upsert_batch, store, batch)
        assert outcome == _outcome(counted_upsert, reference, batch)
        accepted = not isinstance(outcome, tuple)
        sides["entities", len(batch.entities) > MAX_NEW_ENTITIES_PER_BATCH, accepted] += 1
        sides["relations", len(batch.relations) > MAX_NEW_RELATIONS_PER_BATCH, accepted] += 1
    assert exported(store) == exported(reference)
    # batches on both sides of both caps, and some longer than the entity cap accepted
    assert {key[:2] for key in sides} == {
        (cap, longer) for cap in ("entities", "relations") for longer in (False, True)}, sides
    assert sides["entities", True, True], sides


def test_a_batch_normalizes_each_string_once_and_keeps_nothing(monkeypatch):
    """Names go through the module's two bounded caches: within them each string is
    normalized once, the store keeps nothing of it, and neither cache grows past
    _KEYS_CACHED."""
    counts = collections.Counter()
    for name in ("_count_new_entities", "_count_new_relations"):
        original = getattr(EvidenceGraphStore, name)

        def spied(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(EvidenceGraphStore, name, spied)
    caches = (evidence._label, evidence._curie)

    store = EvidenceGraphStore()
    attributes = set(vars(store))
    store.upsert_batch(MergeBatch(entities=(gene("TNF", curie="HGNC:11892"), gene("IL6"))))
    for cache in caches:
        cache.cache_clear()
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
    # The strings that normalize: a name whose CURIE is stored is not read as a label,
    # and a storage key ("hgnc:11364", STAT3's once it is stored) is not normalized.
    labels = {"TNF.", "IL6", "STAT3", "stat3", "TNF", "tnf", "il6", "GHOST"}
    curies = {"hgnc:11892", "HGNC:11364", "TNF", "IL6", "tnf", "il6", "HGNC:11892", "STAT3",
              "GHOST", "--"}
    label_info, curie_info = (cache.cache_info() for cache in caches)
    assert (label_info.currsize, curie_info.currsize) == (len(labels), len(curies))
    # "--" normalizes to nothing and is read as a label each of the 3 times it is named
    assert (label_info.misses, curie_info.misses) == (len(labels) + 3, len(curies))
    assert not counts  # a batch within both caps is not counted

    too_many = MergeBatch(entities=tuple(gene(f"G{i}") for i in range(11)) + (gene("TNF"),) * 3)
    for cache in caches:
        cache.cache_clear()
    with pytest.raises(BatchLimitExceeded):
        store.upsert_batch(too_many)
    assert evidence._label.cache_info().misses == 12  # G0…G10 and TNF, each once
    assert counts == {"_count_new_entities": 1}

    counts.clear()
    for cache in caches:
        cache.cache_clear()
    report = store.upsert_batch(MergeBatch(relations=(rel("TNF", "ACTIVATES", "il6"),) * 17))
    assert report.relations_added == 0
    assert [cache.cache_info().misses for cache in caches] == [2, 2]  # "TNF" and "il6"
    assert counts == {"_count_new_relations": 1}

    named = 0
    while named <= evidence._KEYS_CACHED:
        store.upsert_batch(MergeBatch(entities=tuple(
            gene(f"N{named + i}", curie=f"NS:{named + i}") for i in range(10))))
        named += 10
    for cache in caches:
        assert cache.cache_info().misses > evidence._KEYS_CACHED >= cache.cache_info().currsize
    assert set(vars(store)) == attributes


def test_merges_reads_and_snapshots_leave_no_garbage_cycle(tmp_path):
    store = EvidenceGraphStore()
    path = tmp_path / "graph.json"

    def merge(batch):
        try:
            store.upsert_batch(batch)
        except (BatchLimitExceeded, EmptyLabel):
            pass

    operations = {
        "accepted merge": lambda: merge(MergeBatch(
            entities=(gene("TNF"), gene("IL6"), gene("STAT3")),
            relations=(rel("TNF", "ACTIVATES", "IL6"), rel("il6", "BINDS", "STAT3")),
            observations=(Observation(entity="TNF", text="Raised in mucosa."),))),
        "merge giving a label a second kind": lambda: merge(MergeBatch(
            entities=(EntityRef(name="stat3.", kind="DISEASE_PHENOTYPE", source="s@1"),
                      EntityRef(name="IL6", kind="FINDING", source="s@1")),
            relations=(rel("STAT3", "ASSOCIATED_WITH", "disease_phenotype/stat3"),))),
        "merge stating conflict groups": lambda: merge(MergeBatch(
            relations=(rel("TNF", "ACTIVATES", "IL6", group="tnf-il6"),
                       rel("TNF", "INHIBITS", "IL6", group="tnf-il6")))),
        "relation rejected by the group rule": lambda: merge(MergeBatch(
            relations=(rel("IL6", "BINDS", "STAT3", group="tnf-il6"),))),
        "refused for a blank label": lambda: merge(MergeBatch(entities=(gene("..."), gene("...")))),
        "refused over the cap": lambda: merge(
            MergeBatch(entities=tuple(gene(f"G{i}") for i in range(11)))),
        "query_subgraph": lambda: [store.query_subgraph(["TNF", "GHOST"], depth)
                                   for depth in (0, 1, 2)],
        "resolve_key": lambda: [store.resolve_key(ref) for ref in ("tnf", "IL6", "GHOST", "--")],
        "export_graph": lambda: export_graph(store, path),
        "import_graph": lambda: import_graph(path),
    }
    gc.collect()
    gc.disable()
    try:
        for name, operation in operations.items():
            for _ in range(3):
                operation()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


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

A, B, C = (f"gene_protein/{name}" for name in "abc")


def test_restating_stored_relations_with_a_group_groups_them():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(
        entities=(gene("A"), gene("B")),
        relations=(rel("A", "ACTIVATES", "B", evidence=("PMID:1",)),
                   rel("A", "INHIBITS", "B", evidence=("PMID:2",))),
    ))
    restated = MergeBatch(relations=(rel("A", "ACTIVATES", "B", group="ab"),
                                     rel("a", "INHIBITS", "b.", group="ab")))
    for _ in range(2):
        report = store.upsert_batch(restated)
        assert (report.relations_added, report.rejected, report.warnings) == (0, 0, [])
        assert [r.conflict_group for r in store.relations()] == ["ab", "ab"]
        assert store.relation_count == 2  # both retained
        assert store.stats()["conflict_groups"] == 1


def test_restating_a_relation_into_a_group_of_another_pair_is_rejected():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(
        entities=(gene("A"), gene("B"), gene("C")),
        relations=(rel("A", "ACTIVATES", "B"), rel("A", "INHIBITS", "C")),
    ))
    report = store.upsert_batch(MergeBatch(relations=(
        rel("A", "ACTIVATES", "B", group="g"), rel("A", "INHIBITS", "C", group="g"))))
    assert (report.rejected, report.warnings) == (
        1, ["relation 'A' INHIBITS 'C' rejected: conflict group 'g' joins another entity pair"])
    assert {r.key: r.conflict_group for r in store.relations()} == {
        (A, "ACTIVATES", B): "g", (A, "INHIBITS", C): None}


def test_a_batch_cannot_put_two_entity_pairs_in_one_group():
    store = EvidenceGraphStore()
    report = store.upsert_batch(MergeBatch(
        entities=(gene("A"), gene("B"), gene("C")),
        relations=(rel("A", "ACTIVATES", "B", group="g"), rel("A", "INHIBITS", "C", group="g")),
    ))
    assert (report.relations_added, report.rejected) == (1, 1)
    assert report.warnings == [
        "relation 'A' INHIBITS 'C' rejected: conflict group 'g' joins another entity pair"]
    assert [r.key for r in store.relations()] == [(A, "ACTIVATES", B)]
    assert json.loads(exported(store))["conflict_groups"] == [
        {"id": "g", "relations": [[A, "ACTIVATES", B]]}]


def test_restating_a_stored_relation_with_a_group_joins_it():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("A"), gene("B")),
                                  relations=(rel("A", "ACTIVATES", "B"),)))
    report = store.upsert_batch(MergeBatch(
        relations=(rel("A", "ACTIVATES", "B", evidence=("PMID:2",), group="h"),)))
    assert (report.relations_added, report.rejected, report.warnings) == (0, 0, [])
    [stored] = store.relations()
    assert (stored.conflict_group, stored.evidence) == ("h", ["PMID:1", "PMID:2"])
    assert store.stats()["conflict_groups"] == 1
    assert json.loads(exported(store))["conflict_groups"] == [
        {"id": "h", "relations": [[A, "ACTIVATES", B]]}]


def test_a_grouped_relation_keeps_its_group(tmp_path):
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(
        entities=(gene("A"), gene("B")),
        relations=(rel("A", "ACTIVATES", "B", group="cg-1"), rel("A", "BINDS", "B", group="cg-2")),
    ))
    report = store.upsert_batch(MergeBatch(relations=(
        rel("A", "BINDS", "B", evidence=("PMID:2",), group="cg-1"),
        rel("A", "ACTIVATES", "B", evidence=("PMID:3",), group="cg-1"))))
    assert (report.rejected, report.warnings) == (
        1, ["relation 'A' BINDS 'B' rejected: it is in conflict group 'cg-2', not 'cg-1'"])
    # no part of the rejected relation is applied
    assert [(r.predicate, r.conflict_group, r.evidence) for r in store.relations()] == [
        ("ACTIVATES", "cg-1", ["PMID:1", "PMID:3"]), ("BINDS", "cg-2", ["PMID:1"])]
    path = tmp_path / "graph.json"
    export_graph(store, path)
    assert json.loads(path.read_text(encoding="utf-8"))["conflict_groups"] == [
        {"id": "cg-1", "relations": [[A, "ACTIVATES", B]]},
        {"id": "cg-2", "relations": [[A, "BINDS", B]]},
    ]
    assert exported(import_graph(path)) == path.read_bytes()


def test_a_snapshot_group_that_lists_a_relation_of_another_group_is_malformed():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(
        entities=(gene("A"), gene("B")),
        relations=(rel("A", "ACTIVATES", "B", group="x"), rel("A", "INHIBITS", "B", group="y")),
    ))
    doc = json.loads(exported(store))
    assert doc["conflict_groups"][1] == {"id": "y", "relations": [[A, "INHIBITS", B]]}
    doc["conflict_groups"][1]["relations"].append([A, "ACTIVATES", B])
    with pytest.raises(MalformedSnapshot, match="^conflict group 'y' is not listed with exactly"):
        EvidenceGraphStore.from_document(doc)


_group_genes = ("A", "B", "C")


@st.composite
def grouping_batch(draw):
    """Up to six relations over three genes, restating triples with groups from a small pool."""
    pick = lambda values: draw(st.sampled_from(values))
    relations = tuple(
        rel(pick(_group_genes), pick(["ACTIVATES", "INHIBITS"]), pick(_group_genes),
            evidence=(pick(["PMID:1", "PMID:2"]),), group=pick([None, "g1", "g2", "g3"]))
        for _ in range(draw(st.integers(1, 6))))
    return MergeBatch(entities=tuple(map(gene, _group_genes)), relations=relations)


def assert_grouping(store, expected):
    """The store lists the expected groups, each over one pair, each relation in at most one."""
    listed = {group["id"]: list(map(tuple, group["relations"]))
              for group in json.loads(exported(store))["conflict_groups"]}
    assert list(listed.items()) == list(grouping_oracle(store).items()) == list(expected.items())
    assert store.stats()["conflict_groups"] == len(listed)
    assert all(len({(s, o) for s, _p, o in members}) == 1 for members in listed.values())
    every = [triple for members in listed.values() for triple in members]
    assert len(every) == len(set(every))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(grouping_batch(), min_size=1, max_size=8))
def test_conflict_groups_are_those_the_grouping_oracle_finds(batches):
    store = EvidenceGraphStore()
    group_of, pair_of = {}, {}  # the grouping rule, applied to each stated group in order
    for batch in batches:
        rejected = 0
        for r in batch.relations:
            s, o = (f"gene_protein/{name.lower()}" for name in (r.subject, r.object))
            gid = r.conflict_group
            if gid is None:
                continue
            triple = (s, r.predicate, o)
            if group_of.get(triple, gid) != gid or pair_of.setdefault(gid, (s, o)) != (s, o):
                rejected += 1
            else:
                group_of[triple] = gid
        assert store.upsert_batch(batch).rejected == rejected
        expected = {}
        for triple, gid in sorted(group_of.items()):
            expected.setdefault(gid, []).append(triple)
        expected = dict(sorted(expected.items()))
        assert_grouping(store, expected)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        export_graph(store, path)
        assert_grouping(import_graph(path), expected)


# -- export / import ----------------------------------------------------------

def test_export_empty_store(tmp_path):
    path = tmp_path / "graph.json"
    assert export_graph(EvidenceGraphStore(), path) is None
    assert json.loads(path.read_text(encoding="utf-8")) == {
        "entities": [], "relations": [], "observations": [], "conflict_groups": []}


def test_export_includes_provenance():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(entities=(gene("TNF", source="kegg@r109"),)))
    assert json.loads(exported(store))["entities"][0]["sources"] == ["kegg@r109"]


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
    assert exported(import_graph(path)) == path.read_bytes()


def test_export_stable_ordering():
    store = make_small_store()
    written = exported(store)
    assert exported(store) == written
    assert written.decode("ascii") == json.dumps(json.loads(written), indent=2, sort_keys=True)


class DiskFullAfterFirstWrite:
    """A file that takes one write and then fails every later one."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError("no space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


def test_failed_export_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "evidence_graph.json"
    export_graph(make_small_store(), path)
    before = path.read_bytes()
    files = []

    def open_until_disk_full(*args, **kwargs):
        files.append(DiskFullAfterFirstWrite(open(*args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(biokgr, "open", open_until_disk_full, raising=False)
    with pytest.raises(WorkspaceUnavailable):
        export_graph(make_small_store(), path)
    assert [f.writes for f in files] == [2]  # the first chunk reached the disk
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# Strings that take every escape the encoder makes: quote, backslash, control
# characters, non-ASCII inside and outside the BMP, and lone surrogates.
_snapshot_text = st.text(st.sampled_from('"\\\x00\x1f\n\t\x7f\ud800\udfffé漢\U0001f600aZ :/'),
                         max_size=6)


# A CURIE as a merge accepts it: a prefix without `/`, a colon, and a reference, neither blank.
_snapshot_curie = st.builds(
    "{}:{}".format,
    st.text(st.sampled_from('"\\\x00\x1f\n\t\x7f\ud800\udfffé漢\U0001f600aZ '), min_size=1,
            max_size=4).filter(str.strip),
    _snapshot_text.filter(str.strip))


@st.composite
def snapshot_documents(draw):
    """A valid snapshot, in about half the draws with every section longer than one write chunk.

    Every record keeps the rules a merge applies: a relation has evidence, a
    paper's name is a PMID, and an observation is not blank.
    """
    keys = draw(st.lists(_snapshot_text, max_size=8, unique=True))
    # no two CURIEs normalize alike; `None` and "" mean none
    curies = draw(st.lists(st.none() | st.just("") | _snapshot_curie, min_size=len(keys),
                           max_size=len(keys),
                           unique_by=lambda c: normalize_curie(c) if c else object()))
    entities = [{"key": key, "name": "n" + draw(_snapshot_text), "kind": "GENE_PROTEIN",
                 "curie": curie, "sources": draw(st.lists(_snapshot_text, max_size=3))}
                for key, curie in zip(keys, curies)]
    triples = draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(["BINDS", "INHIBITS"]),
                                      st.sampled_from(keys)), max_size=8, unique=True)) if keys else []
    gids = draw(st.lists(_snapshot_text, max_size=3, unique=True))
    group_of = st.none() | st.sampled_from(gids) if gids else st.none()
    pairs, members = {}, {}  # each group joins the pair of its first relation
    relations = []
    for s, p, o in triples:
        gid = draw(group_of)
        if gid is not None and pairs.setdefault(gid, (s, o)) == (s, o):
            members.setdefault(gid, []).append([s, p, o])
        else:
            gid = None
        relations.append({"subject": s, "predicate": p, "object": o,
                          "evidence": draw(st.lists(_snapshot_text, min_size=1, max_size=3)),
                          "conflict_group": gid})
    observations = [{"entity": draw(st.sampled_from(keys)), "text": "o" + draw(_snapshot_text)}
                    for _ in range(draw(st.integers(0, 5)) if keys else 0)]
    # a group's members in any order
    groups = [{"id": gid, "relations": draw(st.permutations(listed))}
              for gid, listed in members.items()]
    if draw(st.booleans()):
        filler = [f"filler/{i}" for i in range(evidence._CHUNK + 2)]
        entities += [{"key": k, "name": f"PMID:{i}", "kind": "PAPER", "curie": None,
                      "sources": []} for i, k in enumerate(filler)]
        relations += [{"subject": s, "predicate": "CITES", "object": o, "evidence": [s],
                       "conflict_group": s} for s, o in zip(filler, filler[1:])]
        observations += [{"entity": k, "text": k} for k in filler]
        groups += [{"id": s, "relations": [[s, "CITES", o]]} for s, o in zip(filler, filler[1:])]
    return {"entities": entities, "relations": relations, "observations": observations,
            "conflict_groups": groups}


def as_exported(doc):
    """`doc` as the store rebuilt from it exports it: records in key order, a
    conflict group's members in triple order, and an entity's observations
    grouped, each text once."""
    texts = {}
    for observation in doc["observations"]:
        seen = texts.setdefault(observation["entity"], [])
        if observation["text"] not in seen:
            seen.append(observation["text"])
    return {
        "entities": sorted(doc["entities"], key=operator.itemgetter("key")),
        "relations": sorted(doc["relations"],
                            key=operator.itemgetter("subject", "predicate", "object")),
        "observations": [{"entity": key, "text": text} for key in sorted(texts)
                         for text in texts[key]],
        "conflict_groups": [
            {"id": group["id"], "relations": sorted(group["relations"])}
            for group in sorted(doc["conflict_groups"], key=operator.itemgetter("id"))],
    }


@settings(max_examples=40, deadline=None)
@given(snapshot_documents())
def test_export_writes_the_bytes_of_indented_sorted_json(doc):
    written = exported(EvidenceGraphStore.from_document(doc))
    parsed = json.loads(written)
    assert written == json.dumps(parsed, indent=2, sort_keys=True).encode("ascii")
    # through JSON, as a pair of lone surrogates reads back as one character
    assert parsed == json.loads(json.dumps(as_exported(doc)))


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_import_leaves_the_collector_as_it_found_it(enabled, tmp_path, monkeypatch):
    path = tmp_path / "graph.json"
    export_graph(make_small_store(), path)
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps(MALFORMED["unknown kind"](snapshot_doc())), encoding="utf-8")
    collector_during_rebuild = []
    rebuild = EvidenceGraphStore.from_document

    def recording_rebuild(doc):
        collector_during_rebuild.append(gc.isenabled())
        return rebuild(doc)

    monkeypatch.setattr(EvidenceGraphStore, "from_document", recording_rebuild)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        import_graph(path)
        assert gc.isenabled() is enabled
        with pytest.raises(MalformedSnapshot):
            import_graph(malformed)
        assert gc.isenabled() is enabled
        with pytest.raises(WorkspaceUnavailable):
            import_graph(tmp_path / "absent.json")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert collector_during_rebuild == [False, False]


# -- malformed snapshots ---------------------------------------------------------

def snapshot_doc():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(
        entities=(gene("TNF", curie="HGNC:11892"), gene("IL6")),
        relations=(rel("TNF", "ACTIVATES", "IL6", group="cg-1"),
                   rel("TNF", "INHIBITS", "IL6", group="cg-1"), rel("IL6", "BINDS", "TNF")),
        observations=(Observation(entity="IL6", text="Secreted by macrophages."),),
    ))
    return json.loads(exported(store))


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


def _group_relation(doc, relation, gid):
    """Put `relation` of `doc` in group `gid`, listed with it."""
    relation["conflict_group"] = gid
    listed = {group["id"]: group for group in doc["conflict_groups"]}
    triple = [relation["subject"], relation["predicate"], relation["object"]]
    if gid in listed:
        listed[gid]["relations"].append(triple)
    else:
        doc["conflict_groups"].append({"id": gid, "relations": [triple]})
    return doc


def _relation(doc, predicate):
    return next(r for r in doc["relations"] if r["predicate"] == predicate)


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
    "duplicate CURIE": _edit(["entities", 0, "curie"], "hgnc:11892"),
    "unknown predicate": _edit(["relations", 0, "predicate"], "BLOCKS"),
    "relation to unknown entity": _edit(["relations", 0, "object"], "gene_protein/ghost"),
    "duplicate relation": lambda doc: {**doc, "relations": doc["relations"] * 2},
    "observation of unknown entity": _edit(["observations", 0, "entity"], "gene_protein/ghost"),
    "conflict member not a triple": _edit(["conflict_groups", 0, "relations", 0], ["a", "b"]),
    "conflict member unknown": _edit(["conflict_groups", 0, "relations", 0], ["a", "BINDS", "b"]),
    "duplicate conflict group": lambda doc: {**doc, "conflict_groups": doc["conflict_groups"] * 2},
    "relation in an unlisted conflict group": _edit(["relations", 0, "conflict_group"], "cg-7"),
    "conflict group over two pairs":
        lambda doc: _group_relation(doc, _relation(doc, "BINDS"), "cg-1"),
    "conflict group no relation names": lambda doc: {
        **doc, "conflict_groups": doc["conflict_groups"] + [{"id": "cg-9", "relations": []}]},
    "conflict group listing another group's relation":
        lambda doc: _group_relation(doc, _relation(doc, "INHIBITS"), "cg-2"),
}

# Records that a merge refuses, each with what the refusal of its import names: the
# record, then the rule. A snapshot that holds one was never written by `export_graph`.
_TITLE = ("Sustained mucosal healing after tumour-necrosis-factor blockade in multicentre "
          "cohorts of adults with colitis.")  # 13 words, 110 characters
MERGE_REFUSALS = {
    "paper named by a long title": (
        lambda doc: _edit(["entities", 0, "name"], _TITLE)(
            _edit(["entities", 0, "kind"], "PAPER")(doc)),
        r"^entity 'gene_protein/il6': name 'Sustained .*' violates the 5-word/40-char rule$"),
    "CURIE without a colon": (
        _edit(["entities", 0, "curie"], "nocolon"),
        r"^entity 'gene_protein/il6': CURIE 'nocolon' of 'IL6' is not prefix:reference$"),
    "relation without evidence": (
        _edit(["relations", 0, "evidence"], []),
        r"^relation \('gene_protein/il6', 'BINDS', 'hgnc:11892'\): .* has no evidence$"),
    "blank observation": (
        _edit(["observations", 0, "text"], "  "),
        r"^observation record: empty observation for 'gene_protein/il6'$"),
    "observation of 80 words": (
        _edit(["observations", 0, "text"], " ".join(["word"] * 80)),
        r"^observation record: observation for 'gene_protein/il6' has 80 words \(limit 30\)"),
}
MALFORMED.update({name: mutate for name, (mutate, _match) in MERGE_REFUSALS.items()})


@pytest.mark.parametrize("mutate, match", MERGE_REFUSALS.values(), ids=MERGE_REFUSALS.keys())
def test_import_refuses_a_record_a_merge_refuses_naming_the_record_and_the_rule(mutate, match):
    with pytest.raises(MalformedSnapshot, match=match):
        EvidenceGraphStore.from_document(mutate(snapshot_doc()))


def test_snapshot_doc_is_valid():
    doc = snapshot_doc()
    store = EvidenceGraphStore.from_document(doc)
    assert json.loads(exported(store)) == doc
    # The rebuilt store shares no list with the document it read.
    doc["entities"][0]["sources"].append("edited")
    doc["relations"][0]["evidence"].append("edited")
    assert json.loads(exported(store)) == snapshot_doc()
    # A field added to a stored record and not to the snapshot would be lost on export.
    stored = lambda cls: [f.name for f in dataclasses.fields(cls) if f.name != "observations"]
    assert list(evidence._ENTITIES.shape.fields) == stored(StoredEntity)
    assert list(evidence._RELATIONS.shape.fields) == stored(StoredRelation)


# Each snapshot field's `types` and item type `of`, as `from_document` read them
# with one `biokgr.field` call per field.
FIELD_TYPES = {
    ("entities", "entity record"): {
        "key": (str, None), "name": (str, None), "kind": (str, None),
        "curie": ((str, type(None)), None), "sources": (list, str)},
    ("relations", "relation record"): {
        "subject": (str, None), "predicate": (str, None), "object": (str, None),
        "evidence": (list, str), "conflict_group": ((str, type(None)), None)},
    ("observations", "observation record"): {"entity": (str, None), "text": (str, None)},
    ("conflict_groups", "conflict group record"): {"id": (str, None), "relations": (list, list)},
}
JSON_VALUES = [None, True, 0, 1.5, "s", [], ["s"], [None], [1], [True], {}, [["a", "b", "c"]]]


@pytest.mark.parametrize("section,kind,name", [
    (section, kind, name) for (section, kind), fields in FIELD_TYPES.items() for name in fields])
def test_a_field_that_field_rejects_is_a_malformed_snapshot(section, kind, name):
    declared = {s.name: s for s in evidence._SECTIONS}[section]
    assert (declared.kind, list(declared.shape.fields)) == (kind, list(FIELD_TYPES[section, kind]))
    types, of = FIELD_TYPES[section, kind][name]
    for value in JSON_VALUES:
        doc = snapshot_doc()
        doc[section][0][name] = value
        try:
            biokgr.field(doc[section][0], name, types, of=of)
        except ValueError:
            with pytest.raises(MalformedSnapshot, match=f"^{kind} field '{name}' is not "):
                EvidenceGraphStore.from_document(doc)


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

def test_label_under_two_kinds_resolves_by_kind_order_whatever_the_hash_seed(tmp_path):
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
        export_graph(store, sys.argv[1])
    """)
    src = str(Path(biokgr.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    path = tmp_path / "graph.json"
    snapshots = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=pythonpath)
        run = subprocess.run([sys.executable, "-c", program, str(path)], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        snapshots.add(path.read_bytes())
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
    before = exported(store)
    overflow = tuple(gene(f"Z{i}") for i in range(11))
    with pytest.raises(BatchLimitExceeded):
        store.upsert_batch(MergeBatch(entities=overflow))
    assert exported(store) == before


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
    snapshot = exported(store)
    assert exported(EvidenceGraphStore.from_document(json.loads(snapshot))) == snapshot


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


def test_a_label_that_gains_a_kind_resolves_to_it_in_the_same_batch():
    store = EvidenceGraphStore()
    store.upsert_batch(MergeBatch(
        entities=(EntityRef(name="TNF", kind="DISEASE_PHENOTYPE", source="s@1"), gene("IL6"))))
    report = store.upsert_batch(MergeBatch(
        entities=(gene("TNF"),), relations=(rel("TNF", "ACTIVATES", "IL6"),)))
    assert (report.created, report.relations_added) == (1, 1)
    assert [r.key for r in store.relations()] == [("gene_protein/tnf", "ACTIVATES", "gene_protein/il6")]
    assert store.resolve_key("tnf") == resolve_oracle(store, "tnf") == "gene_protein/tnf"


_res_names = ["TNF", "tnf.", "IL6", "STAT3"]
_res_curies = ["HGNC:1", "hgnc:1", "MESH:D2"]
_res_refs = _res_names + _res_curies + ["gene_protein/tnf", "finding/tnf", "GHOST", "--"]


@st.composite
def resolution_batch(draw):
    """Up to four entities whose labels collide across every kind but PAPER, and relations."""
    kinds = st.sampled_from([kind for kind in evidence.ENTITY_KIND_ORDER if kind != "PAPER"])
    entities = tuple(
        EntityRef(name=draw(st.sampled_from(_res_names)), kind=draw(kinds), source="s@1",
                  curie=draw(st.sampled_from([None, None, *_res_curies])))
        for _ in range(draw(st.integers(1, 4)))
    )
    relations = tuple(
        rel(draw(st.sampled_from(_res_refs)), "ACTIVATES", draw(st.sampled_from(_res_refs)))
        for _ in range(draw(st.integers(0, 3)))
    )
    return MergeBatch(entities=entities, relations=relations)


def assert_resolves_as_the_oracle(store):
    for ref in _res_refs + [e.key for e in store.entities()]:
        assert store.resolve_key(ref) == resolve_oracle(store, ref), ref


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(resolution_batch(), min_size=1, max_size=8))
def test_a_name_resolves_as_the_full_scan_oracle_says(batches):
    store = EvidenceGraphStore()
    for batch in batches:
        store.upsert_batch(batch)
        stored = {r.key for r in store.relations()}
        for relation in batch.relations:
            subject = resolve_oracle(store, relation.subject)
            object_ = resolve_oracle(store, relation.object)
            if subject and object_:
                assert (subject, relation.predicate, object_) in stored
        assert_resolves_as_the_oracle(store)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        export_graph(store, path)
        restored = import_graph(path)
    assert_resolves_as_the_oracle(restored)
    assert list(map(restored.resolve_key, _res_refs)) == list(map(store.resolve_key, _res_refs))


class NoScanDict(dict):
    """A table that may be probed by key but never iterated."""

    def _scan(self, *args, **kwargs):
        raise AssertionError("the store scanned a whole table")

    __iter__ = keys = items = values = _scan


class NoWalkOrder(tuple):
    """A kind order that may not be walked."""

    def __iter__(self):
        raise AssertionError("the store walked the kind order")


def test_merges_and_reads_never_scan_the_tables(monkeypatch):
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
    monkeypatch.setattr(evidence, "ENTITY_KIND_ORDER", NoWalkOrder(evidence.ENTITY_KIND_ORDER))
    for i in range(10):
        finding = EntityRef(name=f"finding {i}", kind="FINDING", source="s@1")
        store.upsert_batch(MergeBatch(
            entities=(finding, gene(names[i])),
            relations=tuple(rel(finding.name, "CO_OCCURS", names[i + j]) for j in range(4))
            + (rel(names[i], "ACTIVATES", names[i + 20]),),
        ))
        assert store.resolve_key(finding.name.upper()) == f"finding/finding {i}"
        for depth in (1, 2):
            sub = store.query_subgraph([names[i], "GHOST"], depth)
            assert sub["relations"]
    # only a label that gains a second kind puts its kinds back in order
    with pytest.raises(AssertionError, match="kind order"):
        store.upsert_batch(MergeBatch(
            entities=(EntityRef(name=names[0], kind="DISEASE_PHENOTYPE", source="s@1"),)))


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


def test_export_while_another_thread_merges_writes_whole_snapshots(tmp_path):
    # Every batch links the hub to four new genes and gives the hub one more
    # source, so a snapshot that listed the entities before a batch and the
    # relations after it would name entities it does not list, and one that
    # read the hub during a batch would count its sources wrong.
    store = EvidenceGraphStore()
    errors, snapshots = [], []
    writer_done = threading.Event()

    def writer():
        try:
            for b in range(200):
                names = [f"N{4 * b + j}" for j in range(4)]
                store.upsert_batch(MergeBatch(
                    entities=(gene("HUB", source=f"batch {b}"),) + tuple(gene(n) for n in names),
                    relations=tuple(rel("HUB", "ACTIVATES", n) for n in names)
                    + tuple(rel(a, "BINDS", c) for a, c in zip(names, names[1:])),
                    observations=(Observation(entity=names[0], text=f"batch {b}"),),
                ))
        except Exception as exc:  # pragma: no cover - failure capture
            errors.append(exc)
        finally:
            writer_done.set()

    def exporter(k):
        path = tmp_path / f"graph-{k}.json"
        try:
            while not writer_done.is_set():
                export_graph(store, path)
                snapshots.append(path.read_bytes())
        except Exception as exc:  # pragma: no cover - failure capture
            errors.append(exc)

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=exporter, args=(k,)) for k in range(2)]
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
    assert not errors and snapshots
    path = tmp_path / "check.json"
    for snapshot in set(snapshots):
        doc = json.loads(snapshot)
        listed = {entity["key"] for entity in doc["entities"]}
        assert all({r["subject"], r["object"]} <= listed for r in doc["relations"])
        # the snapshot holds the first `batches` batches whole
        batches = len(doc["observations"])
        hub = [e["sources"] for e in doc["entities"] if e["name"] == "HUB"]
        assert hub == ([[f"batch {b}" for b in range(batches)]] if batches else [])
        assert (len(listed), len(doc["relations"])) == (4 * batches + 1 if batches else 0, 7 * batches)
        path.write_bytes(snapshot)
        import_graph(path)
