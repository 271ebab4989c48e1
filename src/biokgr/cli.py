"""Command-line interface.

Command groups: graph (evidence-graph snapshots), fetch (unified search),
pathway (KGML parsing), curate (benchmark generation), research (orchestrator
runs), bench (open-benchmark prepare and scoring). Every `curate` command and
`bench prepare` write item rows of one layout, which `bench score` reads.

A documented failure is a `biokgr.Error` or a `ValueError` (malformed input
files and replies, failed sources, oracles and workspaces). A documented
failure of the command ends it with one `Error:` line and exit code 1; a
documented failure of one input of a `curate` command (a file, row, record or
regimen) skips that input with one warning naming it; any other exception is a
bug and keeps its traceback.
"""
from __future__ import annotations

import logging
from contextlib import contextmanager
from pathlib import Path

import click

from biokgr import bench as bench_mod
from biokgr import evidence
from biokgr import (Error, field, indented_json, parse_json, parse_jsonl, read_jsonl, read_text,
                    write_jsonl, writing)
from biokgr.agents import DefaultOracle, HttpOracle, OrchestratorRunner
from biokgr.bench.scoring import load_predictions, read_items, run_suite, write_report
from biokgr.curation import ebm
from biokgr.curation.items import InsufficientEvidence, TargetNotInPathway, write_items_jsonl
from biokgr.curation.regimen import (
    classify_design,
    compute_monotherapy_baselines,
    derive_regimen_features,
    build_regimen_item,
    load_corpus,
)
from biokgr.curation.sample_size import gen_sample_size_item
from biokgr.curation.surrogate import (
    build_surrogate_item,
    categorize_context,
    gain2_strategies,
    infer_downstream_processes,
)
from biokgr.curation.target_id import PROFILES, build_target_item
from biokgr.curation.flux import build_flux_item
from biokgr.federation import Federation, QuerySpec, persist_results
from biokgr.pathways import parse_kgml, parse_flat_record
from biokgr.pathways.flat import split_flat_records

logger = logging.getLogger(__name__)

_FAILURES = (ValueError, Error)


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
    click.echo(indented_json(store.stats()))


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
    graph_obj, rg = parse_kgml(read_text(kgml_path))
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
    with writing(out_path) as fh:
        fh.write(indented_json(snapshot))
    click.echo(
        f"{graph_obj.pathway_id}: {len(graph_obj.nodes)} nodes, "
        f"{len(graph_obj.edges)} signed edges, {len(rg.edges)} reaction edges"
    )


def _kgml_files(directory):
    files = sorted(Path(directory).glob("*.xml")) + sorted(Path(directory).glob("*.kgml"))
    if not files:
        raise click.ClickException(f"no .xml/.kgml files under {directory}")
    return files


# -- curate -------------------------------------------------------------------------


@contextmanager
def _skipping(name):
    """Skip the input `name` with one warning when its block raises a documented failure."""
    try:
        yield
    except _FAILURES as exc:
        logger.warning("skipping %s: %s", name, exc)


def _add_item(items: dict, item) -> None:
    """Keep `item` under its id; an id that an earlier input gave raises `ValueError`.

    `bench score` refuses a file that repeats an id (two KGML files of one
    pathway, two truth rows of one id), so every `curate` command skips the
    later input.
    """
    if item.item_id in items:
        raise ValueError(f"item id {item.item_id!r} repeats an earlier input's")
    items[item.item_id] = item


@main.group()
def curate():
    """Benchmark task generation."""


@curate.command("target-id")
@click.option("--kgml-dir", required=True, type=click.Path(exists=True))
@click.option("--profile", default="other", show_default=True,
              type=click.Choice(sorted(PROFILES)))
@click.option("--seed", default=0, show_default=True)
@click.option("--option-count", default=10, show_default=True, type=click.IntRange(2, 26))
@click.option("--out", "out_path", required=True)
def curate_target_id(kgml_dir, profile, seed, option_count, out_path):
    items = {}
    for path in _kgml_files(kgml_dir):
        with _skipping(path):
            graph_obj, _rg = parse_kgml(read_text(path))
            _add_item(items, build_target_item(graph_obj, PROFILES[profile],
                                               option_count=option_count, seed=seed))
    write_items_jsonl(items.values(), out_path)
    click.echo(f"wrote {len(items)} target-id items to {out_path}")


@curate.command("flux")
@click.option("--kgml-dir", required=True, type=click.Path(exists=True))
@click.option("--target", required=True, help="Target gene symbol.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", required=True)
def curate_flux(kgml_dir, target, seed, out_path):
    items = {}
    for path in _kgml_files(kgml_dir):
        with _skipping(path):
            graph_obj, rg = parse_kgml(read_text(path))
            try:
                item = build_flux_item(graph_obj, rg, target, seed=seed)
            except TargetNotInPathway:
                continue  # most pathways lack any one target, so this is no warning
            _add_item(items, item)
    write_items_jsonl(items.values(), out_path)
    click.echo(f"wrote {len(items)} flux items to {out_path}")


@curate.command("sample-size")
@click.option("--truths", "truths_path", required=True, type=click.Path(exists=True),
              help="JSONL rows: {id?, truth, condition?, arms?, primary_outcome?, assumption?}")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", required=True)
def curate_sample_size(truths_path, seed, out_path):
    items = {}
    for i, row in enumerate(read_jsonl(truths_path)):
        with _skipping(f"row {i}"):
            _add_item(items, gen_sample_size_item(
                field(row, "truth", int), seed=seed + i,
                item_id=field(row, "id", (str, type(None)), None),
                condition=field(row, "condition", str, ""),
                arms=field(row, "arms", list, None, of=str),
                primary_outcome=field(row, "primary_outcome", str, ""),
                assumption=field(row, "assumption", str, ""),
            ))
    write_items_jsonl(items.values(), out_path)
    click.echo(f"wrote {len(items)} sample-size items to {out_path}")


@curate.command("regimen")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", required=True)
def curate_regimen(corpus_path, seed, out_path):
    regimens = load_corpus(corpus_path)
    baselines = compute_monotherapy_baselines(regimens)
    items = {}
    for i, regimen in enumerate(r for r in regimens if r.is_combination()):
        with _skipping(regimen.trial_id):
            design_class = classify_design(derive_regimen_features(regimen, baselines))
            _add_item(items, build_regimen_item(regimen, design_class, seed=seed + i))
    write_items_jsonl(items.values(), out_path)
    click.echo(f"wrote {len(items)} regimen items to {out_path}")


@curate.command("surrogate")
@click.option("--drugs", "drugs_path", required=True, type=click.Path(exists=True),
              help="Flat-record file; records separated by ///")
@click.option("--kgml-dir", required=True, type=click.Path(exists=True))
@click.option("--seed", default=0, show_default=True)
@click.option("--max-pathways", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--out", "out_path", required=True)
def curate_surrogate(drugs_path, kgml_dir, seed, max_pathways, out_path):
    """Two-pass construction: per-drug correct strategies first, then items
    whose distractors sample from the other drugs' correct strategies."""
    chunks = split_flat_records(read_text(drugs_path))
    kgml_by_id = {path.stem: path for path in _kgml_files(kgml_dir)}

    prepared = []
    for n, chunk in enumerate(chunks, start=1):
        with _skipping(f"drug record {n}"):
            record = parse_flat_record(chunk)
            merged = None
            for pathway_id in record.pathways[:max_pathways]:
                path = kgml_by_id.get(pathway_id)
                if path is None:
                    continue
                graph_obj, _rg = parse_kgml(read_text(path))
                merged = graph_obj if merged is None else merged.merged_with(graph_obj)
            if merged is None:
                raise InsufficientEvidence(f"{record.accession} has no pathway KGML available")
            processes = infer_downstream_processes(record, merged)
            context = categorize_context(record)
            prepared.append((record, processes, context, gain2_strategies(processes, context)))

    items = {}
    for i, (record, processes, context, own) in enumerate(prepared):
        pool = [s for _r, _p, _c, strategies in prepared for s in strategies
                if s not in set(own)]
        with _skipping(record.accession):
            _add_item(items, build_surrogate_item(record, processes, context, pool,
                                                  seed=seed + i))
    write_items_jsonl(items.values(), out_path)
    click.echo(f"wrote {len(items)} surrogate items to {out_path}")


@curate.command("ebm")
@click.option("--reviews", "reviews_dir", required=True, type=click.Path(exists=True),
              help="Directory of review-version XML files.")
@click.option("--out", "out_path", required=True)
def curate_ebm(reviews_dir, out_path):
    versions = []
    for path in sorted(Path(reviews_dir).glob("*.xml")):
        with _skipping(path):
            versions.append(ebm.parse_review_version(read_text(path)))
    tasks, unpaired = ebm.pair_versions(versions)
    items = {}
    for task in tasks:
        with _skipping(f"review {task.item_id}"):
            _add_item(items, task)
    write_items_jsonl(items.values(), out_path)
    if unpaired:
        click.echo(f"unpaired base DOIs: {', '.join(unpaired)}", err=True)
    click.echo(f"wrote {len(items)} gap tasks to {out_path}")


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
    text = read_text(in_path)
    records = parse_json(text) if text.lstrip().startswith("[") else parse_jsonl(text, in_path)
    items = bench_mod.prepare_dataset(records, benchmark, seed=seed)
    write_jsonl(out_path, items)
    expected = bench_mod.EXPECTED_SNAPSHOT_COUNTS.get(benchmark)
    note = "" if expected is None else f" (snapshot expectation: {expected})"
    click.echo(f"wrote {len(items)} {benchmark} items to {out_path}{note}")


@bench_group.command("score")
@click.option("--items", "items_path", required=True, type=click.Path(exists=True))
@click.option("--predictions", "preds_path", required=True, type=click.Path(exists=True))
@click.option("--report", "report_dir", required=True)
def bench_score(items_path, preds_path, report_dir):
    report = run_suite(read_items(items_path), load_predictions(preds_path))
    paths = write_report(report, report_dir)
    click.echo(indented_json(report.aggregates))
    click.echo(f"report: {paths['jsonl']}, {paths['md']}", err=True)


if __name__ == "__main__":
    main()
