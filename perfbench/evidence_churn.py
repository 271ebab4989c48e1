"""Workload `evidence-churn`: merge batches and subgraph queries on one store.

A pass starts from an empty `EvidenceGraphStore`, applies a seeded stream of
merge batches shaped like agent output, runs a depth-1 or depth-2
`query_subgraph` after every fourth batch, and ends with an `export_graph`
→ `import_graph` round trip. `BatchLimitExceeded` is the documented refusal
of an over-cap batch; anything else raised is a failure.
"""
from __future__ import annotations

from pathlib import Path
from statistics import median

from biokgr.evidence import (
    BatchLimitExceeded,
    EntityRef,
    EvidenceGraphStore,
    MergeBatch,
    Observation,
    RelationEdge,
    export_graph,
    import_graph,
)

import inputs
from harness import Pass, per_op, per_pass, pooled, sha256_hex, timed_metrics
from spans import percentile

BATCHES = 1040        # with 260 queries, 1,300 store calls a pass: 13 beyond p99
LINT_PREFIX = "finding "


def to_batch(payload: dict) -> MergeBatch:
    return MergeBatch(
        entities=tuple(EntityRef(**e) for e in payload["entities"]),
        relations=tuple(RelationEdge(r["subject"], r["predicate"], r["object"],
                                     tuple(r["evidence"])) for r in payload["relations"]),
        observations=tuple(Observation(**o) for o in payload["observations"]),
        cycle_id=payload["cycle_id"],
    )


class EvidenceChurn:
    name = "evidence-churn"

    def __init__(self, log_counter) -> None:
        self.log_counter = log_counter

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.steps = [("batch", to_batch(p)) if kind == "batch" else ("query", p)
                      for kind, p in inputs.merge_stream(seed, BATCHES)]
        # Warm-up on a scratch store.
        store = EvidenceGraphStore()
        for kind, step in self.steps[:8]:
            if kind == "batch":
                try:
                    store.upsert_batch(step)
                except BatchLimitExceeded:
                    pass
        store.query_subgraph([e.key for e in store.entities()[:2]], 1)

    def close(self) -> None:
        pass

    def run_pass(self, tracer) -> Pass:
        result = Pass()
        store = EvidenceGraphStore()
        counts = dict.fromkeys(("created", "merged", "relations_added", "rejected", "refused",
                                "lint_warnings", "relations_returned"), 0)
        logs_before = self.log_counter.total("biokgr.evidence")
        n_batches = sum(1 for kind, _ in self.steps if kind == "batch")
        b = 0
        for kind, step in self.steps:
            result.attempted += 1
            if kind == "batch":
                third = min(3, 1 + 3 * b // n_batches)
                b += 1
            else:
                third = min(3, 1 + 3 * (b - 1) // n_batches)
            series = "upsert" if kind == "batch" else "query"
            try:
                with result.timed("op", series, f"{series}.third{third}"):
                    if kind == "batch":
                        try:
                            with tracer.span("evidence.upsert", op_id=b):
                                report = store.upsert_batch(step)
                        except BatchLimitExceeded:
                            report = None
                    else:
                        with tracer.span("evidence.query", op_id=b):
                            sub = store.query_subgraph(step["seeds"], step["depth"])
            except Exception as exc:  # anything but a documented refusal is a failure
                result.failed += 1
                result.problems.append(f"{kind} {b} raised {type(exc).__name__}: {exc}")
                continue
            if kind == "query":
                counts["relations_returned"] += len(sub["relations"])
            elif report is None:
                counts["refused"] += 1
            else:
                counts["created"] += report.created
                counts["merged"] += report.merged
                counts["relations_added"] += report.relations_added
                counts["rejected"] += report.rejected
                counts["lint_warnings"] += sum(
                    1 for w in report.warnings if w.startswith(LINT_PREFIX))

        snapshot = self.workdir / "snapshot.json"
        with result.timed("snapshot"):
            with tracer.span("evidence.export"):
                export_graph(store, snapshot)
            with tracer.span("evidence.import"):
                restored = import_graph(snapshot)

        first = snapshot.read_bytes()
        again = self.workdir / "snapshot-again.json"
        export_graph(restored, again)
        if again.read_bytes() != first:
            result.problems.append("export -> import -> export is not byte-identical")
        counts["log_records"] = self.log_counter.total("biokgr.evidence") - logs_before
        counts["snapshot_bytes"] = len(first)
        result.counts = counts
        result.digests = {"snapshot": sha256_hex(first)}
        result.work = len(self.steps)
        return result

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self, passes: list[Pass]) -> dict[str, float]:
        return timed_metrics(passes, "op", 99, overhead=("snapshot",))

    def report(self, passes: list[Pass]) -> list[tuple[str, float, str]]:
        e2e = self.end_to_end(passes)
        upserts, queries = per_op(passes, "upsert"), per_op(passes, "query")
        return [
            ("evidence.store_call_ms_p50", e2e["op_ms_p50"], "ms"),
            ("evidence.store_call_ms_p99", e2e["op_ms_tail"], "ms"),
            ("evidence.upsert_ms_p50", percentile(upserts, 50), "ms"),
            ("evidence.upsert_ms_p99", percentile(upserts, 99), "ms"),
            ("evidence.query_ms_p50", percentile(queries, 50), "ms"),
            ("evidence.query_ms_p95", percentile(queries, 95), "ms"),
            ("evidence.snapshot_ms", per_op(passes, "snapshot")[0], "ms"),
            ("evidence.upserts", len(pooled(passes, "upsert")), "count"),
            ("evidence.queries", len(pooled(passes, "query")), "count"),
        ]

    def per_layer(self, view, traced: list[Pass]) -> dict[str, float]:
        n = len(traced)
        created, merged = per_pass(traced, "created"), per_pass(traced, "merged")
        returned = per_pass(traced, "relations_returned")
        query_busy = view.busy_s("evidence.query") / n
        out = {
            "evidence.upsert.busy_s": view.busy_s("evidence.upsert") / n,
            "evidence.query.busy_s": query_busy,
            "evidence.entities_created": created,
            "evidence.entities_merged": merged,
            "evidence.dedup_hit_ratio": merged / (created + merged),
            "evidence.relations_added": per_pass(traced, "relations_added"),
            "evidence.rejected": per_pass(traced, "rejected"),
            "evidence.batches_refused": per_pass(traced, "refused"),
            "evidence.lint_warnings": per_pass(traced, "lint_warnings"),
            "evidence.log_records": per_pass(traced, "log_records"),
            "evidence.query.relations_returned": returned,
            "evidence.query.us_per_returned_relation": query_busy * 1e6 / max(1, returned),
            "evidence.export.ms": median(view.durations_ms("evidence.export")),
            "evidence.import.ms": median(view.durations_ms("evidence.import")),
            "evidence.snapshot_bytes": per_pass(traced, "snapshot_bytes"),
        }
        for third in (1, 2, 3):
            out[f"evidence.upsert.ms_p50.third{third}"] = median(pooled(traced, f"upsert.third{third}"))
            out[f"evidence.query.ms_p50.third{third}"] = median(pooled(traced, f"query.third{third}"))
        return out
