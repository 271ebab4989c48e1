"""Run one benchmark workload against the biokgr sources in this checkout.

    python3 perfbench/run.py --workload curate-kgml --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The workload's inputs are generated from
`--seed`. The run repeats whole passes over the inputs until `--seconds`
have passed, sets up afresh before each of the first passes (the median of
the set-ups is `setup_s`), checks every output, and prints one line per
metric followed by one JSON object. The metric names and units are those of
`BENCHMARK.json`.
With `--trace 0` the JSON holds the end-to-end metrics; with `--trace 1` it
holds the per-layer metrics from a traced run, and the spans are written to
`.perfbench_out/`. The exit code is non-zero if an output check fails.
"""
from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SPEC_PATH = HERE.parent / "BENCHMARK.json"   # workload and metric names and units
SETUP_REPEATS = 7
MIN_PASSES = 3           # each operation's median time is taken over at least this many passes
MIN_TRACED_PASSES = 1


def import_program(root: Path):
    """Put the checkout's `src/` first on the path and import biokgr from it."""
    src = root / "src"
    if not (src / "biokgr" / "__init__.py").is_file():
        raise SystemExit(f"error: no biokgr sources under {src}; run from a checkout's root")
    sys.path.insert(0, str(src))
    import biokgr

    if Path(biokgr.__file__).resolve().parent != (src / "biokgr").resolve():
        raise SystemExit(f"error: imported biokgr from {biokgr.__file__}, not from {src}")


def pin_to_one_cpu() -> None:
    """Keep this process, and the fixture process it starts, on one CPU.

    A reference time then measures the CPU that the operations around it ran
    on, and a research run's client and fixture servers share that CPU's
    speed. The client is one closed loop, so it and the servers seldom run
    at the same time.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass


def make_workload(name: str, log_counter):
    if name == "curate-kgml":
        from curate_kgml import CurateKgml
        return CurateKgml()
    if name == "evidence-churn":
        from evidence_churn import EvidenceChurn
        return EvidenceChurn(log_counter)
    from research_fixture import ResearchFixture
    return ResearchFixture()


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
        root: Path) -> tuple[dict, int]:
    import harness
    from spans import NullTracer, SpanView, Tracer

    log_counter = harness.LogCounter()
    logging.getLogger("biokgr").addHandler(log_counter)
    wl = make_workload(workload, log_counter)
    scratch = root / ".perfbench_tmp" / f"{workload}-{seed}-{time.time_ns()}"
    setup_s = []
    log_records = 0

    def set_up():
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        gc.collect()
        before = harness.reference_s()
        t0 = time.perf_counter()
        wl.setup(seed, scratch)
        elapsed = time.perf_counter() - t0
        setup_s.append(harness.at_reference_speed(elapsed, before, harness.reference_s()))

    def run_pass(tracer):
        nonlocal log_records
        # The set-ups are spread over the run, so their median does not hang
        # on the machine's speed during one short stretch; a set-up makes
        # the same inputs every time. Collecting first starts every pass
        # from the same heap, so the collector pauses fall on the same
        # operations in every pass.
        if len(setup_s) < SETUP_REPEATS:
            set_up()
        gc.collect()
        logs_before = log_counter.total()
        result = wl.run_pass(tracer)
        log_records += log_counter.total() - logs_before
        result.measure_reference()   # brackets the pass's last operations
        return result

    try:
        null = NullTracer()
        tracer = Tracer() if trace else None
        start = time.perf_counter()
        untraced = [run_pass(null)]
        traced = []
        while True:
            done = time.perf_counter() - start >= seconds
            if not trace:
                if done and len(untraced) >= MIN_PASSES:
                    break
                untraced.append(run_pass(null))
            else:
                if done and len(traced) >= MIN_TRACED_PASSES:
                    break
                # Alternate, so the overhead ratio compares passes run at
                # about the same time.
                if len(traced) < len(untraced):
                    traced.append(run_pass(tracer))
                else:
                    untraced.append(run_pass(null))
        while len(setup_s) < SETUP_REPEATS:
            set_up()
    finally:
        wl.close()
        logging.getLogger("biokgr").removeHandler(log_counter)
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()

    passes = untraced + traced
    problems = [p for ps in passes for p in ps.problems]
    problems += harness.check_repeats(untraced) + harness.check_repeats(traced)
    if traced and traced[0].digests != untraced[0].digests:
        problems.append(f"traced outputs differ: {traced[0].digests} != {untraced[0].digests}")
    problems += harness.check_recorded_digests(workload, seed, passes[0].digests)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if not trace:
        for name, value, unit in wl.report(untraced):
            print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} failed_ratio = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    walls = ", ".join(f"{p.wall_s:.2f}" for p in passes)
    refs = ", ".join(f"{median(p.references) * 1000:.2f}" for p in passes)
    print(f"{workload} passes = {len(untraced)} untraced, {len(traced)} traced; wall s: {walls}")
    print(f"{workload} reference ms = {refs} (median a pass; {passes[0].reference_ms} ms at full speed)")
    print(f"{workload} digests = {json.dumps(passes[0].digests, sort_keys=True)}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if not trace:
        values = {"setup_s": median(setup_s), **wl.end_to_end(untraced),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        kind = "end_to_end"
    else:
        # Span times at the traced passes' median reference speed.
        refs = [r for p in traced for r in p.references]
        view = SpanView(tracer.spans, scale=harness.at_reference_speed(1.0, median(refs), median(refs)))
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"trace-{workload}-seed{seed}.jsonl")
        values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
        values.update(wl.per_layer(view, traced))
        values["log_records"] = log_records / (len(untraced) + len(traced))
        values["trace.overhead_ratio"] = (sum(p.scaled_wall_s() for p in traced) / len(traced)) / (
            sum(p.scaled_wall_s() for p in untraced) / len(untraced))
        kind = "per_layer"
    metrics = {}
    for m in spec[kind]:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{workload} {name} = {values[name]:.6g} {unit}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    import_program(root)
    pin_to_one_cpu()
    result, code = run(spec, args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
