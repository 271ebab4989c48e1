"""Command-line interface.

Command groups: graph (evidence-graph snapshots), fetch (unified search),
pathway (KGML parsing), curate (benchmark generation), score (EBM gap
scoring), research (orchestrator runs), bench (open-benchmark prepare/score).

The library's documented failures (malformed input files and replies, failed
sources, oracles and workspaces) end a command with one `Error:` line and
exit code 1; any other exception is a bug and keeps its traceback.
"""
from __future__ import annotations

import json
import logging
from pathlib import Path

import click

from biokgr import bench as bench_mod
from biokgr import evidence
from biokgr import field, read_jsonl
from biokgr.agents import DefaultOracle, HttpOracle, OracleUnavailable, OrchestratorRunner
from biokgr.bench.scoring import load_predictions, parse_pmids, run_suite, write_report
from biokgr.curation import ebm
from biokgr.curation.items import write_items_jsonl
from biokgr.curation.regimen import (
    classify_design,
    compute_monotherapy_baselines,
    derive_regimen_features,
    build_regimen_item,
    load_corpus,
    InsufficientEvidence,
    NotACombination,
)
from biokgr.curation.sample_size import gen_sample_size_item
from biokgr.curation.surrogate import (
    build_surrogate_item,
    categorize_context,
    gain2_strategies,
    infer_downstream_processes,
    NoMappedTarget,
    InsufficientOptions,
    PoolEmpty,
)
from biokgr.curation.target_id import PROFILES, build_target_item
from biokgr.curation.flux import build_flux_item, TargetNotInPathway
from biokgr.federation import Federation, FederationError, QuerySpec, persist_results
from biokgr.pathways import parse_kgml, parse_flat_record
from biokgr.pathways.families import annotate_functional_types
from biokgr.pathways.flat import split_flat_records

logger = logging.getLogger(__name__)

_FAILURES = (ValueError, FederationError, evidence.EvidenceGraphError, OracleUnavailable,
             bench_mod.UnknownBenchmark, bench_mod.MissingField, bench_mod.PredictionsNotFound,
             bench_mod.UnmatchedItemId, bench_mod.MalformedPrediction)


class _Main(click.Group):
    """The `biokgr` group: the one place a documented failure becomes an `Error:` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _FAILURES as exc:
            click.echo(f"Error: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Main)
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose):
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


# -- graph ----------------------------------------------------------------------


@main.group()
def graph():
    """Evidence-graph snapshot operations."""


@graph.command("export")
@click.option("--store", "store_path", default="evidence_graph.json",
              show_default=True, help="Snapshot to load.")
@click.option("--out", "out_path", required=True, help="Destination file.")
def graph_export(store_path, out_path):
    store = _load_store(store_path)
    evidence.export_graph(store, out_path)
    click.echo(f"exported {len(store)} entities to {out_path}")


@graph.command("stats")
@click.option("--store", "store_path", default="evidence_graph.json", show_default=True)
def graph_stats(store_path):
    store = _load_store(store_path)
    click.echo(json.dumps(store.stats(), indent=2, sort_keys=True))


def _load_store(path):
    if not Path(path).exists():
        return evidence.EvidenceGraphStore()
    return evidence.import_graph(path)


# -- fetch -----------------------------------------------------------------------


@main.command("fetch")
@click.option("--kind", default="gene", show_default=True)
@click.option("--query", required=True)
@click.option("--sources", default="mygene,kegg", show_default=True,
              help="Comma-separated source ids.")
@click.option("--limit", default=10, show_default=True)
@click.option("--out", "out_dir", default=None, help="Directory for result files.")
def fetch(kind, query, sources, limit, out_dir):
    """Unified entity search across knowledge-base sources."""
    federation = Federation()
    spec = QuerySpec(
        kind=kind, text=query, sources=tuple(s.strip() for s in sources.split(",") if s.strip()),
        limit=limit,
    )
    result = federation.search_entities_unified(spec)
    saved = persist_results(result.records, out_dir) if out_dir else {}
    click.echo(result.summary)
    if saved:
        click.echo("Saved: " + ", ".join(saved.values()))


# -- pathway -----------------------------------------------------------------------


@main.group()
def pathway():
    """KGML parsing."""


@pathway.command("parse")
@click.option("--kgml", "kgml_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True)
def pathway_parse(kgml_path, out_path):
    """Parse one KGML file into a JSON graph snapshot."""
    text = Path(kgml_path).read_text(encoding="utf-8")
    graph_obj, rg = _parse_and_annotate(text)
    snapshot = {
        "pathway_id": graph_obj.pathway_id,
        "title": graph_obj.title,
        "nodes": [
            {"symbol": n.symbol, "entry_type": n.entry_type,
             "functional_type": n.functional_type, "ec_numbers": list(n.ec_numbers),
             "aliases": list(n.aliases)}
            for n in graph_obj.nodes.values()
        ],
        "signed_edges": [
            {"source": e.source, "target": e.target, "weight": e.weight,
             "subtype": e.subtype}
            for e in graph_obj.edges
        ],
        "endpoints": sorted(graph_obj.endpoints),
        "skipped_relations": [list(s) for s in graph_obj.skipped_relations],
        "reactions": [
            {"substrate": s, "product": p, "reaction": r} for s, p, r in rg.edges
        ],
        "enzymes": {k: list(v) for k, v in rg.enzymes.items()},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
    click.echo(
        f"{graph_obj.pathway_id}: {len(graph_obj.nodes)} nodes, "
        f"{len(graph_obj.edges)} signed edges, {len(rg.edges)} reaction edges"
    )


def _parse_and_annotate(text):
    graph_obj, rg = parse_kgml(text)
    annotate_functional_types(graph_obj)
    return graph_obj, rg


def _kgml_files(directory):
    files = sorted(Path(directory).glob("*.xml")) + sorted(Path(directory).glob("*.kgml"))
    if not files:
        raise click.ClickException(f"no .xml/.kgml files under {directory}")
    return files


# -- curate -------------------------------------------------------------------------


@main.group()
def curate():
    """Benchmark task generation."""


@curate.command("target-id")
@click.option("--kgml-dir", required=True, type=click.Path(exists=True))
@click.option("--profile", default="other", show_default=True,
              type=click.Choice(sorted(PROFILES)))
@click.option("--seed", default=0, show_default=True)
@click.option("--option-count", default=10, show_default=True)
@click.option("--out", "out_path", required=True)
def curate_target_id(kgml_dir, profile, seed, option_count, out_path):
    items = []
    for path in _kgml_files(kgml_dir):
        graph_obj, _rg = _parse_and_annotate(path.read_text(encoding="utf-8"))
        try:
            items.append(
                build_target_item(graph_obj, PROFILES[profile], option_count=option_count,
                                  seed=seed)
            )
        except Exception as exc:
            logger.warning("skipping %s: %s", path.name, exc)
    write_items_jsonl(items, out_path)
    click.echo(f"wrote {len(items)} target-id items to {out_path}")


@curate.command("flux")
@click.option("--kgml-dir", required=True, type=click.Path(exists=True))
@click.option("--target", required=True, help="Target gene symbol.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", required=True)
def curate_flux(kgml_dir, target, seed, out_path):
    items = []
    for path in _kgml_files(kgml_dir):
        graph_obj, rg = _parse_and_annotate(path.read_text(encoding="utf-8"))
        try:
            items.append(build_flux_item(graph_obj, rg, target, seed=seed))
        except TargetNotInPathway:
            continue
        except Exception as exc:
            logger.warning("skipping %s: %s", path.name, exc)
    write_items_jsonl(items, out_path)
    click.echo(f"wrote {len(items)} flux items to {out_path}")


@curate.command("sample-size")
@click.option("--truths", "truths_path", required=True, type=click.Path(exists=True),
              help="JSONL rows: {id?, truth, condition?, arms?, primary_outcome?, assumption?}")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", required=True)
def curate_sample_size(truths_path, seed, out_path):
    items = []
    for i, row in enumerate(read_jsonl(truths_path)):
        try:
            items.append(
                gen_sample_size_item(
                    field(row, "truth", int), seed=seed + i,
                    item_id=field(row, "id", (str, type(None)), None),
                    condition=field(row, "condition", str, ""),
                    arms=field(row, "arms", list, None, of=str),
                    primary_outcome=field(row, "primary_outcome", str, ""),
                    assumption=field(row, "assumption", str, ""),
                )
            )
        except Exception as exc:
            logger.warning("skipping row %d: %s", i, exc)
    write_items_jsonl(items, out_path)
    click.echo(f"wrote {len(items)} sample-size items to {out_path}")


@curate.command("regimen")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", required=True)
def curate_regimen(corpus_path, seed, out_path):
    regimens = load_corpus(corpus_path)
    baselines = compute_monotherapy_baselines(regimens)
    items = []
    for i, regimen in enumerate(r for r in regimens if r.is_combination()):
        try:
            features = derive_regimen_features(regimen, baselines)
            design_class = classify_design(features)
        except (NotACombination, InsufficientEvidence) as exc:
            logger.warning("excluding %s: %s", regimen.trial_id, exc)
            continue
        items.append(build_regimen_item(regimen, design_class, seed=seed + i))
    write_items_jsonl(items, out_path)
    click.echo(f"wrote {len(items)} regimen items to {out_path}")


@curate.command("surrogate")
@click.option("--drugs", "drugs_path", required=True, type=click.Path(exists=True),
              help="Flat-record file; records separated by ///")
@click.option("--kgml-dir", required=True, type=click.Path(exists=True))
@click.option("--seed", default=0, show_default=True)
@click.option("--max-pathways", default=5, show_default=True)
@click.option("--out", "out_path", required=True)
def curate_surrogate(drugs_path, kgml_dir, seed, max_pathways, out_path):
    """Two-pass construction: per-drug correct strategies first, then items
    whose distractors sample from the other drugs' correct strategies."""
    chunks = split_flat_records(Path(drugs_path).read_text(encoding="utf-8"))
    kgml_by_id = {path.stem: path for path in _kgml_files(kgml_dir)}

    prepared = []
    for chunk in chunks:
        try:
            record = parse_flat_record(chunk)
        except Exception as exc:
            logger.warning("skipping malformed record: %s", exc)
            continue
        merged = None
        for pathway_id in record.pathways[:max_pathways]:
            path = kgml_by_id.get(pathway_id)
            if path is None:
                continue
            graph_obj, _rg = _parse_and_annotate(path.read_text(encoding="utf-8"))
            merged = graph_obj if merged is None else merged.merged_with(graph_obj)
        if merged is None:
            logger.warning("skipping %s: no pathway KGML available", record.accession)
            continue
        try:
            processes = infer_downstream_processes(record, merged)
        except NoMappedTarget as exc:
            logger.warning("skipping %s: %s", record.accession, exc)
            continue
        context = categorize_context(record)
        prepared.append((record, processes, context, gain2_strategies(processes, context)))

    items = []
    for i, (record, processes, context, own) in enumerate(prepared):
        pool = [s for _r, _p, _c, strategies in prepared for s in strategies
                if s not in set(own)]
        try:
            items.append(
                build_surrogate_item(record, processes, context, pool, seed=seed + i)
            )
        except (InsufficientOptions, PoolEmpty) as exc:
            logger.warning("skipping %s: %s", record.accession, exc)
    write_items_jsonl(items, out_path)
    click.echo(f"wrote {len(items)} surrogate items to {out_path}")


@curate.command("ebm")
@click.option("--reviews", "reviews_dir", required=True, type=click.Path(exists=True),
              help="Directory of review-version XML files.")
@click.option("--out", "out_path", required=True)
def curate_ebm(reviews_dir, out_path):
    versions = []
    for path in sorted(Path(reviews_dir).glob("*.xml")):
        try:
            versions.append(ebm.parse_review_version(path.read_text(encoding="utf-8")))
        except ebm.MalformedDocument as exc:
            logger.warning("skipping %s: %s", path.name, exc)
    tasks, unpaired = ebm.pair_versions(versions)
    ebm.write_gap_tasks(tasks, out_path)
    if unpaired:
        click.echo(f"unpaired base DOIs: {', '.join(unpaired)}", err=True)
    click.echo(f"wrote {len(tasks)} gap tasks to {out_path}")


# -- score ---------------------------------------------------------------------------


@main.group()
def score():
    """Prediction scoring."""


@score.command("ebm")
@click.option("--tasks", "tasks_path", required=True, type=click.Path(exists=True))
@click.option("--predictions", "preds_path", required=True, type=click.Path(exists=True),
              help="JSONL rows: {base_doi, ranked: [PMIDs...]}")
@click.option("--k", default=30, show_default=True)
def score_ebm(tasks_path, preds_path, k):
    tasks = read_jsonl(tasks_path, lambda row: (field(row, "base_doi", str),
                                                field(row, "truth", list, of=int)))
    predictions = dict(read_jsonl(preds_path, lambda row: (
        field(row, "base_doi", str), field(row, "ranked", (list, str), []))))
    results = []
    for base_doi, truth in tasks:
        ranked = parse_pmids(predictions.get(base_doi, []))
        if not ranked:
            results.append({"base_doi": base_doi, "gap_detected": False, "recall_at_k": 0.0})
            continue
        outcome = ebm.score_predictions(ranked, frozenset(truth), k=k)
        results.append({"base_doi": base_doi, **outcome})
    if not results:
        raise click.ClickException("no tasks to score")
    gap_rate = sum(r["gap_detected"] for r in results) / len(results)
    mean_recall = sum(r["recall_at_k"] for r in results) / len(results)
    click.echo(json.dumps({
        "tasks": len(results),
        "gap_detection_rate": gap_rate,
        f"mean_recall_at_{k}": mean_recall,
        "per_task": results,
    }, indent=2, sort_keys=True))


# -- research ---------------------------------------------------------------------------


@main.group()
def research():
    """Orchestrated research runs."""


@research.command("run")
@click.option("--query", required=True)
@click.option("--bfrs-budget", default=2, show_default=True)
@click.option("--dfrs-budget", default=2, show_default=True)
@click.option("--oracle", "oracle_spec", default="default", show_default=True,
              help="'default' or an HTTP oracle endpoint URL.")
@click.option("--kbs", default="mygene,kegg,pubmed", show_default=True,
              help="Knowledge bases for the default oracle's tasks.")
@click.option("--workspace", "workspace_dir", required=True)
def research_run(query, bfrs_budget, dfrs_budget, oracle_spec, kbs, workspace_dir):
    if oracle_spec == "default":
        oracle = DefaultOracle(
            knowledge_bases=tuple(k.strip() for k in kbs.split(",") if k.strip())
        )
    else:
        oracle = HttpOracle(oracle_spec)
    runner = OrchestratorRunner(
        Federation(), oracle, bfrs_budget=bfrs_budget, dfrs_budget=dfrs_budget
    )
    result = runner.run(query, workspace_dir)
    click.echo(result.state.plan.render())
    click.echo("")
    click.echo(result.answer)
    click.echo(f"transcript: {result.transcript_path}", err=True)


# -- bench -------------------------------------------------------------------------------


@main.group("bench")
def bench_group():
    """Open-benchmark preparation and scoring."""


@bench_group.command("prepare")
@click.option("--benchmark", required=True,
              type=click.Choice(sorted(bench_mod.EXPECTED_SNAPSHOT_COUNTS)))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True),
              help="Raw export: JSON array or JSONL.")
@click.option("--out", "out_path", required=True)
@click.option("--seed", default=0, show_default=True)
def bench_prepare(benchmark, in_path, out_path, seed):
    text = Path(in_path).read_text(encoding="utf-8")
    records = json.loads(text) if text.lstrip().startswith("[") else read_jsonl(in_path)
    items = bench_mod.prepare_dataset(records, benchmark, seed=seed)
    bench_mod.write_bench_items(items, out_path)
    expected = bench_mod.EXPECTED_SNAPSHOT_COUNTS.get(benchmark)
    note = "" if expected is None else f" (snapshot expectation: {expected})"
    click.echo(f"wrote {len(items)} {benchmark} items to {out_path}{note}")


@bench_group.command("score")
@click.option("--items", "items_path", required=True, type=click.Path(exists=True))
@click.option("--predictions", "preds_path", required=True, type=click.Path(exists=True))
@click.option("--report", "report_dir", required=True)
def bench_score(items_path, preds_path, report_dir):
    items = bench_mod.read_bench_items(items_path)
    report = run_suite(items, load_predictions(preds_path))
    paths = write_report(report, report_dir)
    click.echo(json.dumps(report.aggregates, indent=2, sort_keys=True))
    click.echo(f"report: {paths['jsonl']}, {paths['md']}", err=True)


if __name__ == "__main__":
    main()
