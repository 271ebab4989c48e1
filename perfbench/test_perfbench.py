"""Tests for the benchmark's own code: `python -m pytest perfbench`."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import fixture  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
from spans import Span, SpanView, TooFewSamples, Tracer, percentile, self_times  # noqa: E402


# -- generators ---------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda seed: inputs.kgml_corpus(seed, 12),
    lambda seed: inputs.merge_stream(seed, 60),
    lambda seed: inputs.ResearchWorld(seed).queries(seed, 20),
    lambda seed: inputs.ResearchWorld(seed).citations,
], ids=["kgml", "merge-stream", "queries", "world"])
def test_generators_repeat_for_a_seed_and_differ_across_seeds(make):
    def encoded(seed):
        return json.dumps(make(seed), sort_keys=True).encode("utf-8")

    assert encoded(3) == encoded(3)
    assert encoded(3) != encoded(4)


def test_kgml_corpus_keeps_its_mix_across_seeds():
    for seed in (0, 1):
        titles = [text.split('title="', 1)[1].split('"', 1)[0]
                  for _name, text in inputs.kgml_corpus(seed, 40)]
        assert sum("dense" in t for t in titles) == 2
        assert sum("few genes" in t for t in titles) == 2
        assert sum("no correct" in t for t in titles) == 2


# -- fixture --------------------------------------------------------------------------


def test_fixture_returns_identical_bytes_for_identical_requests():
    a, b = fixture.Responder(5), fixture.Responder(5)
    request = ("pubtator", "/relations", {"e1": a.world.genes[0], "type": "ASSOCIATE"}, "")
    assert a.respond(*request) == b.respond(*request) == a.respond(*request)
    status, _ctype, body = a.respond("mygene", "/query", {"q": a.world.genes[1], "size": "10"}, "")
    assert status == 200 and json.loads(body)["hits"][0]["symbol"] == a.world.genes[1]


def test_fixture_503_injection_is_deterministic():
    def first_attempts(state, n=200):
        return [state.handle("pubmed", "/elink.fcgi", {"id": str(i)}, "")[0] for i in range(n)]

    state = fixture.FixtureState(fixture.Responder(5))
    statuses = first_attempts(state)
    assert 0 < statuses.count(503) < 30
    # A retry of a request that failed succeeds; the pattern repeats per epoch
    # and for a fresh fixture with the same seed.
    assert set(first_attempts(state)) == {200}
    stats = state.take_stats()
    assert stats["errors"] == statuses.count(503)
    assert stats["duplicates"] == 200 - statuses.count(503)
    assert first_attempts(state) == statuses
    assert first_attempts(fixture.FixtureState(fixture.Responder(5))) == statuses


# -- spans and percentiles ----------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "op", 0.0, 10.0, None, 1),
        Span(1, "child", 1.0, 4.0, 0, 1),
        Span(2, "child", 3.0, 6.0, 0, 1),       # overlaps the first child
        Span(3, "grandchild", 3.5, 5.0, 2, 1),
        Span(4, "child", 9.0, 12.0, 0, 1),      # runs past its parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[3] == pytest.approx(1.5)
    view = SpanView(spans)
    assert view.busy_s("child") == pytest.approx(3.0 + 1.5 + 3.0)
    assert view.count("child") == 3
    assert SpanView(spans, scale=0.5).busy_s("child") == pytest.approx((3.0 + 1.5 + 3.0) / 2)


def test_tracer_nests_spans_and_inherits_the_op_id():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("op", op_id=7):
        with tracer.span("inner"):
            pass
    op, inner = tracer.spans
    assert (inner.parent, inner.op_id) == (op.span_id, 7)
    assert SpanView(tracer.spans).busy_s("op") == pytest.approx(3.0 - 1.0)


def test_percentile_refuses_too_few_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90          # 10 samples beyond
    with pytest.raises(TooFewSamples):
        percentile(values[:99], 90)              # 9 beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(1000)), 99.5)
    assert percentile(list(range(1010)), 99) == 999


def test_times_are_scaled_by_the_references_around_them():
    ref = harness.REFERENCE_MS / 1000.0
    p = harness.Pass(references=[ref])
    p.sample("op", 10.0)
    p.references.append(3 * ref)        # twice as slow on average around the first op
    p.sample("op", 10.0)
    p.references.append(3 * ref)
    assert p.scaled_ms("op") == pytest.approx([5.0, 10.0 / 3])
    assert harness.at_reference_speed(2.0, ref, ref) == pytest.approx(2.0)


def test_metrics_take_each_operations_median_over_passes():
    ref = harness.REFERENCE_MS / 1000.0
    passes = [harness.Pass(work=30, references=[ref]) for _ in range(3)]
    for k, p in enumerate(passes):
        for i in range(30):
            p.sample("op", 1.0 + i + (50.0 if (i + k) % 3 == 0 else 0.0))  # one slow repeat per op
        p.sample("write", 6.0)
        p.references.append(ref)
    assert harness.per_op(passes, "op") == pytest.approx([1.0 + i for i in range(30)])
    metrics = harness.timed_metrics(passes, "op", 50, overhead=("write",))
    assert metrics["op_ms_p50"] == pytest.approx(15.0)
    assert metrics["throughput_per_s"] == pytest.approx(30 * 1000.0 / (sum(range(1, 31)) + 6.0))
    passes[0].sample("op", 1.0)
    passes[0].references.append(ref)
    with pytest.raises(ValueError):
        harness.per_op(passes, "op")


# -- output checks -----------------------------------------------------------------------


def test_corrupted_item_fails_the_output_check():
    from biokgr.curation.items import McqItem, McqOption
    from curate_kgml import check_item

    options = [McqOption("A", "x", 2), McqOption("B", "y", 0), McqOption("C", "z", 1)]
    good = McqItem("i", "target_id", "q?", options, ["A"])
    assert check_item(good) == []
    for answers in (["B"], ["A", "C"], []):
        bad = McqItem("i", "target_id", "q?", options, answers)
        assert check_item(bad)


def test_repeat_and_digest_checks_catch_changes():
    one = harness.Pass(counts={"n": 3}, digests={"items": "aa"})
    assert harness.check_repeats([one, harness.Pass(counts={"n": 3}, digests={"items": "aa"})]) == []
    assert harness.check_repeats([one, harness.Pass(counts={"n": 4}, digests={"items": "aa"})])
    assert harness.check_repeats([one, harness.Pass(counts={"n": 3}, digests={"items": "bb"})])
    baseline = {"workloads": {"w": {"digests": {"items": "aa"}}}}
    assert harness.check_recorded_digests("w", harness.DEFAULT_SEED, {"items": "aa"}, baseline) == []
    assert harness.check_recorded_digests("w", harness.DEFAULT_SEED, {"items": "bb"}, baseline)
    assert harness.check_recorded_digests("w", harness.DEFAULT_SEED + 1, {"items": "bb"}, baseline) == []

