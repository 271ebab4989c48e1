"""Workload `research-fixture`: budgeted research runs against fixture servers.

Each run builds a `Federation` with the default registry and transport, as
`biokgr research run` does, pointed at per-source fixture servers through
`BIOKGR_<SOURCE>_URL`, with a virtual clock; then `OrchestratorRunner` with
the default oracle runs one query into a fresh workspace. A pass is one run
per query of a seeded pool whose entities overlap.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from statistics import median

from biokgr.agents import DefaultOracle, OrchestratorRunner
from biokgr.federation import Federation

import harness
import inputs
from harness import HERE, Pass, per_pass, pooled, sha256_hex, timed_metrics
from spans import NullTracer

KNOWLEDGE_BASES = ("mygene", "kegg", "pubmed", "pubtator")
POOL_SIZE = 120          # runs a pass: 12 beyond p90
WORKSPACE_FILES = ("transcript.jsonl", "manifest.json", "evidence_graph.json")
ROUND_TRIP_MS = 0.5      # a /ping round trip to the fixture in the machine's fast mode


class VirtualClock:
    """Time advances only when `sleep` is called; `slept` is the modelled wait."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._now = 0.0
        self.slept = 0.0

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            with self._lock:
                self._now += seconds
                self.slept += seconds


class FederationProxy:
    """Spans around the public `Federation` methods the agents call."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def search_entities_unified(self, spec):
        with self._tracer.span("federation.search"):
            return self._inner.search_entities_unified(spec)

    def find_related_entities(self, *args, **kwargs):
        with self._tracer.span("federation.relations"):
            return self._inner.find_related_entities(*args, **kwargs)

    def fetch_citations(self, *args, **kwargs):
        with self._tracer.span("federation.citations"):
            return self._inner.fetch_citations(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class OracleProxy:
    """Spans around the oracle's three decision methods."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def plan(self, query):
        with self._tracer.span("agents.oracle.plan"):
            return self._inner.plan(query)

    def choose_action(self, state, observation):
        with self._tracer.span("agents.oracle.choose"):
            return self._inner.choose_action(state, observation)

    def score_relevance(self, candidate, target):
        with self._tracer.span("agents.oracle.score"):
            return self._inner.score_relevance(candidate, target)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FixtureProcess:
    """The fixture servers, all in one child process."""

    def __init__(self, seed: int):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "fixture.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(HERE), text=True)
        line = self._proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("fixture process exited before reporting its ports")
        self.ports = json.loads(line)
        self._ping_url = f"http://127.0.0.1:{self.ports['control']}/ping"

    def env(self) -> dict[str, str]:
        return {f"BIOKGR_{source.upper()}_URL": f"http://127.0.0.1:{self.ports[source]}"
                for source in KNOWLEDGE_BASES}

    def ping_s(self) -> float:
        """Seconds for one round trip to the control server."""
        t0 = time.perf_counter()
        with urllib.request.urlopen(self._ping_url, timeout=30) as response:
            response.read()
        return time.perf_counter() - t0

    def take_stats(self) -> dict:
        url = f"http://127.0.0.1:{self.ports['control']}/stats"
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.loads(response.read())

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


class ResearchFixture:
    name = "research-fixture"

    def __init__(self) -> None:
        self.fixture: FixtureProcess | None = None

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        world = inputs.ResearchWorld(seed)
        self.queries = world.queries(seed, POOL_SIZE)
        self.fixture = FixtureProcess(seed)
        self.env = self.fixture.env()
        # Warm-up: one run, so imports and lazy loads are done before timing.
        self._run_one(self.queries[0], workdir / "warmup", VirtualClock(), NullTracer())
        shutil.rmtree(workdir / "warmup")
        self.fixture.take_stats()

    def close(self) -> None:
        if self.fixture is not None:
            self.fixture.close()
            self.fixture = None

    def _run_one(self, query: str, workspace: Path, clock: VirtualClock, tracer):
        """One research run as `biokgr research run` makes it."""
        with tracer.span("federation.construct"):
            federation = Federation(clock=clock, env=self.env)
        oracle = DefaultOracle(knowledge_bases=KNOWLEDGE_BASES)
        if tracer.enabled:
            federation, oracle = FederationProxy(federation, tracer), OracleProxy(oracle, tracer)
        with tracer.span("agents.run"):
            return OrchestratorRunner(federation, oracle).run(query, workspace)

    def reference_s(self) -> float:
        """The pure-Python reference plus one localhost round trip to the
        fixture process: a research run's time also goes to the kernel's
        network path and to switching between the two processes, which slow
        down differently from interpreter work when the machine is busy."""
        return harness.reference_s() + self.fixture.ping_s()

    def run_pass(self, tracer) -> Pass:
        result = Pass(reference=self.reference_s, reference_ms=harness.REFERENCE_MS + ROUND_TRIP_MS)
        transcripts = []
        totals = {"wait_s": 0.0, "requests": 0, "duplicates": 0, "errors": 0, "bytes": 0,
                  "files": 0, "workspace_bytes": 0}
        for i, query in enumerate(self.queries):
            workspace = self.workdir / f"ws{i}"
            clock = VirtualClock()
            result.attempted += 1
            try:
                with result.timed("run"), tracer.span("research.run", op_id=i):
                    run = self._run_one(query, workspace, clock, tracer)
            except Exception as exc:  # any raise is a failed research run
                result.failed += 1
                result.problems.append(f"run {i} raised {type(exc).__name__}: {exc}")
                run = None
            if run is not None and (run.halted or run.state.answer is None):
                result.failed += 1
                result.problems.append(f"run {i} ({query!r}) "
                                       + ("halted" if run.halted else "ended without an answer"))

            stats = self.fixture.take_stats()
            for key in ("requests", "duplicates", "errors", "bytes"):
                totals[key] += stats[key]
            totals["wait_s"] += clock.slept
            missing = [f for f in WORKSPACE_FILES if not (workspace / f).is_file()]
            if missing:
                result.problems.append(f"run {i} ({query!r}) wrote no {', '.join(missing)}")
            else:
                transcripts.append((workspace / "transcript.jsonl").read_bytes())
            files = [p for p in workspace.rglob("*") if p.is_file()]
            totals["files"] += len(files)
            totals["workspace_bytes"] += sum(p.stat().st_size for p in files)
            shutil.rmtree(workspace, ignore_errors=True)
        result.work = len(self.queries)
        result.counts = totals
        result.digests = {"transcripts": sha256_hex(b"".join(transcripts))}
        return result

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self, passes: list[Pass]) -> dict[str, float]:
        return timed_metrics(passes, "run", 90)  # 120 runs: 12 beyond p90

    def report(self, passes: list[Pass]) -> list[tuple[str, float, str]]:
        e2e = self.end_to_end(passes)
        return [
            ("research.run_ms_p50", e2e["op_ms_p50"], "ms"),
            ("research.run_ms_p90", e2e["op_ms_tail"], "ms"),
            ("research.wait_s_per_run", per_pass(passes, "wait_s") / len(self.queries), "s"),
            ("research.runs", len(pooled(passes, "run")), "count"),
        ]

    def per_layer(self, view, traced: list[Pass]) -> dict[str, float]:
        n = len(traced)
        runs = len(self.queries)
        return {
            "federation.construct.ms": median(view.durations_ms("federation.construct")),
            "federation.search.busy_s": view.busy_s("federation.search") / n,
            "federation.search.calls": view.count("federation.search") / n,
            "federation.relations.busy_s": view.busy_s("federation.relations") / n,
            "federation.relations.calls": view.count("federation.relations") / n,
            "federation.citations.busy_s": view.busy_s("federation.citations") / n,
            "federation.citations.calls": view.count("federation.citations") / n,
            "federation.wait_s": per_pass(traced, "wait_s"),
            "fixture.requests_per_run": per_pass(traced, "requests") / runs,
            "fixture.duplicate_requests_per_run": per_pass(traced, "duplicates") / runs,
            "fixture.errors_served": per_pass(traced, "errors"),
            "fixture.bytes_served": per_pass(traced, "bytes"),
            "agents.run.busy_s": view.busy_s("agents.run") / n,
            "agents.oracle.busy_s": sum(view.busy_s(f"agents.oracle.{op}")
                                        for op in ("plan", "choose", "score")) / n,
            "agents.oracle.score_calls": view.count("agents.oracle.score") / n,
            "agents.oracle.choose_calls": view.count("agents.oracle.choose") / n,
            "agents.workspace.files_per_run": per_pass(traced, "files") / runs,
            "agents.workspace.bytes_per_run": per_pass(traced, "workspace_bytes") / runs,
            "research.wait_s_per_run": per_pass(traced, "wait_s") / runs,
        }
