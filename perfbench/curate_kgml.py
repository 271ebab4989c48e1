"""Workload `curate-kgml`: target-id and flux items from a generated KGML corpus.

Mirrors `biokgr curate target-id` / `curate flux`: per pathway, read the
file, parse and annotate it, build a target-id item and a flux item for up
to three enzyme genes; after the corpus, write every item as JSONL. Only the
documented skips (`InsufficientCandidates`, `NoCorrectOption`,
`TargetNotInPathway`) are expected; anything else raised is a failure.
"""
from __future__ import annotations

from collections import Counter
from pathlib import Path
from statistics import median

from biokgr.curation import flux as flux_mod
from biokgr.curation import target_id as target_mod
from biokgr.curation.items import write_items_jsonl
from biokgr.pathways import analytics, parse_kgml
from biokgr.pathways.families import annotate_functional_types

import inputs
from harness import Pass, per_pass, pooled, sha256_hex, timed_metrics
from spans import percentile

CORPUS_SIZE = 120
PROFILE = "cancer"
FLUX_TARGETS = 3
SKIPS = (target_mod.InsufficientCandidates, target_mod.NoCorrectOption,
         flux_mod.NoCorrectOption, flux_mod.TargetNotInPathway)
SKIP_NAMES = ("InsufficientCandidates", "NoCorrectOption", "TargetNotInPathway")


def flux_targets(graph) -> list[str]:
    """Up to three enzyme genes (EC-annotated), in symbol order."""
    return sorted(s for s, node in graph.nodes.items() if node.ec_numbers)[:FLUX_TARGETS]


def check_item(item) -> list[str]:
    """An item's answers must be exactly its gain-2 labels."""
    gain2 = sorted(o.label for o in item.options if o.gain == 2)
    if sorted(item.answers) != gain2 or not gain2:
        return [f"item {item.item_id}: answers {item.answers} != gain-2 labels {gain2}"]
    return []


class CurateKgml:
    name = "curate-kgml"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        corpus_dir = workdir / "kgml"
        corpus_dir.mkdir(parents=True)
        for name, text in inputs.kgml_corpus(seed, CORPUS_SIZE):
            (corpus_dir / name).write_text(text, encoding="utf-8")
        self.files = sorted(corpus_dir.glob("*.xml"))
        self.out_path = workdir / "items.jsonl"
        # Warm-up: the shipped dictionaries load lazily on first use.
        graph, _rg = parse_kgml(self.files[0].read_text(encoding="utf-8"))
        annotate_functional_types(graph)
        target_mod.is_blacklisted(graph, next(iter(graph.nodes)))

    def close(self) -> None:
        pass

    def run_pass(self, tracer) -> Pass:
        result = Pass()
        items = []
        skipped: Counter[str] = Counter()
        profile = target_mod.PROFILES[PROFILE]
        paths = truncated = 0
        for i, path in enumerate(self.files):
            result.attempted += 1
            try:
                with result.timed("pathway"), tracer.span("curate.pathway", op_id=i):
                    text = path.read_text(encoding="utf-8")
                    with tracer.span("pathways.parse_kgml"):
                        graph, rg = parse_kgml(text)
                    with tracer.span("pathways.annotate"):
                        annotate_functional_types(graph)
                    try:
                        with tracer.span("curation.target_id"):
                            items.append(target_mod.build_target_item(graph, profile, seed=self.seed))
                    except SKIPS as exc:
                        skipped[type(exc).__name__] += 1
                    for target in flux_targets(graph):
                        try:
                            with tracer.span("curation.flux"):
                                items.append(flux_mod.build_flux_item(graph, rg, target, seed=self.seed))
                        except SKIPS as exc:
                            skipped[type(exc).__name__] += 1
            except Exception as exc:  # anything but a documented skip fails the pathway
                result.failed += 1
                result.problems.append(f"{path.name} raised {type(exc).__name__}: {exc}")
                continue
            if tracer.enabled:
                p, t = self._probe_analytics(tracer, graph, rg)
                paths += p
                truncated += t
        with result.timed("write"), tracer.span("curation.write_items"):
            write_items_jsonl(items, self.out_path)

        for item in items:
            result.problems += check_item(item)
        result.work = len(items)
        result.counts = {"items_written": len(items),
                         **{f"skipped.{name}": skipped[name] for name in SKIP_NAMES}}
        if tracer.enabled:
            result.counts.update({"polarity_paths": paths, "polarity_truncated": truncated})
        result.digests = {"items": sha256_hex(self.out_path.read_bytes())}
        return result

    @staticmethod
    def _probe_analytics(tracer, graph, rg) -> tuple[int, int]:
        """Direct calls to the analytics the curators use, on the same graphs.

        They run outside the pathway's span, so they add nothing to the
        curation timings; they only attribute time to each analytic.
        """
        paths = truncated = 0
        with tracer.span("pathways.betweenness"):
            analytics.betweenness(graph)
        if graph.endpoints:
            for gene in graph.gene_symbols():
                with tracer.span("pathways.path_polarity"):
                    polarity = analytics.path_polarity(graph, gene, graph.endpoints)
                paths += polarity.path_count
                truncated += polarity.truncated
        for target in flux_targets(graph):
            for product in rg.gene_products(target):
                with tracer.span("pathways.k_step"):
                    analytics.k_step_neighborhood(rg, product, flux_mod.FLUX_STEP_LIMIT - 1)
                    analytics.k_step_neighborhood(rg, product, flux_mod.REACHABILITY_LIMIT)
            for substrate in rg.gene_substrates(target):
                with tracer.span("pathways.k_step"):
                    analytics.k_step_neighborhood(rg, substrate, flux_mod.FLUX_STEP_LIMIT - 1,
                                                  "upstream")
        with tracer.span("pathways.cyclic_nodes"):
            analytics.cyclic_nodes(rg)
        return paths, truncated

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self, passes: list[Pass]) -> dict[str, float]:
        return timed_metrics(passes, "pathway", 90, overhead=("write",))  # 120 pathways: 12 beyond p90

    def report(self, passes: list[Pass]) -> list[tuple[str, float, str]]:
        e2e = self.end_to_end(passes)
        return [
            ("curate.items_per_s", e2e["throughput_per_s"], "1/s"),
            ("curate.pathway_ms_p50", e2e["op_ms_p50"], "ms"),
            ("curate.pathway_ms_p90", e2e["op_ms_tail"], "ms"),
            ("curate.pathways", len(pooled(passes, "pathway")), "count"),
        ]

    def per_layer(self, view, traced: list[Pass]) -> dict[str, float]:
        n = len(traced)
        out = {
            "pathways.parse_kgml.busy_s": view.busy_s("pathways.parse_kgml") / n,
            "pathways.parse_kgml.ms_p50": median(view.durations_ms("pathways.parse_kgml")),
            "pathways.annotate.busy_s": view.busy_s("pathways.annotate") / n,
            "pathways.betweenness.busy_s": view.busy_s("pathways.betweenness") / n,
            "pathways.path_polarity.busy_s": view.busy_s("pathways.path_polarity") / n,
            "pathways.path_polarity.paths": per_pass(traced, "polarity_paths"),
            "pathways.path_polarity.truncated": per_pass(traced, "polarity_truncated"),
            "pathways.k_step.busy_s": view.busy_s("pathways.k_step") / n,
            "pathways.cyclic_nodes.busy_s": view.busy_s("pathways.cyclic_nodes") / n,
            "curation.target_id.busy_s": view.busy_s("curation.target_id") / n,
            "curation.target_id.ms_p90": percentile(view.durations_ms("curation.target_id"), 90),
            "curation.flux.busy_s": view.busy_s("curation.flux") / n,
            "curation.flux.ms_p50": median(view.durations_ms("curation.flux")),
            "curation.write_items.busy_s": view.busy_s("curation.write_items") / n,
            "curation.items_written": per_pass(traced, "items_written"),
        }
        for name in SKIP_NAMES:
            out[f"curation.items_skipped.{name}"] = per_pass(traced, f"skipped.{name}")
        return out
