"""Shared pieces of the three workloads: pass results, timing, log counting, checks."""
from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

from spans import percentile

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 0

# Timings are reported at reference speed. The machine the baseline comes
# from switches, many times a second and in proportions that drift for
# minutes, between a fast mode and a mode about half as fast (another
# tenant on the same cores). So the benchmark times a fixed piece of
# pure-Python work, the reference, at least every REFERENCE_EVERY_S between
# operations, and scales each operation by REFERENCE_MS over the mean of the
# reference times just before and just after it. REFERENCE_MS is the
# reference's time in that machine's fast mode.
REFERENCE_MS = 1.4
REFERENCE_EVERY_S = 0.02


def reference_s() -> float:
    """Seconds taken by the reference: fixed dict updates and a sort."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(10000):
        key = i % 500
        table[key] = table.get(key, 0) + i * i
    sorted(table.values())
    return time.perf_counter() - t0


def at_reference_speed(value: float, before_s: float, after_s: float,
                       reference_ms: float = REFERENCE_MS) -> float:
    """`value`, a time measured between two references that took `before_s`
    and `after_s`, scaled to a reference time of `reference_ms` (same unit)."""
    return value * (reference_ms / 1000.0) / ((before_s + after_s) / 2.0)


@dataclass
class Pass:
    """One pass over a workload's generated input.

    A pass does the same work every time it runs, so `counts` and `digests`
    must repeat exactly from pass to pass and from run to run.
    """

    wall_s: float = 0.0                 # wall time of the pass's timed operations
    work: int = 0                       # units of work done, for throughput
    # per series, one (ms, index of the reference before it) per operation
    samples: dict[str, list[tuple[float, int]]] = field(default_factory=dict)
    references: list[float] = field(default_factory=list)   # seconds
    # the reference a workload times, and its time in the fast mode
    reference: Callable[[], float] = reference_s
    reference_ms: float = REFERENCE_MS
    attempted: int = 0
    failed: int = 0
    counts: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    _last_reference: float = field(default=0.0, repr=False)

    def measure_reference(self) -> None:
        self.references.append(self.reference())
        self._last_reference = time.perf_counter()

    def sample(self, series: str, ms: float) -> None:
        self.samples.setdefault(series, []).append((ms, len(self.references) - 1))

    @contextlib.contextmanager
    def timed(self, *series: str):
        """Times the block as one operation of each of `series`, also when it raises."""
        if not self.references or time.perf_counter() - self._last_reference >= REFERENCE_EVERY_S:
            self.measure_reference()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.wall_s += elapsed
            for name in series:
                self.sample(name, elapsed * 1000.0)

    def scaled_wall_s(self) -> float:
        """`wall_s` at the pass's median reference speed."""
        ref = median(self.references)
        return at_reference_speed(self.wall_s, ref, ref, self.reference_ms)

    def scaled_ms(self, series: str) -> list[float]:
        """The series' times at reference speed. The pass must have measured
        the reference once more after its last operation."""
        refs = self.references
        return [at_reference_speed(ms, refs[i], refs[i + 1], self.reference_ms)
                for ms, i in self.samples[series]]


def pooled(passes: list[Pass], series: str) -> list[float]:
    """The series' times at reference speed, of all passes together."""
    return [ms for p in passes for ms in p.scaled_ms(series)]


def per_op(passes: list[Pass], series: str) -> list[float]:
    """Each operation's median time at reference speed over the passes, in
    operation order. A pass repeats the same operations in the same order,
    so the i-th sample of every pass times the same operation."""
    runs = [p.scaled_ms(series) for p in passes]
    if len({len(r) for r in runs}) != 1:
        raise ValueError(f"passes timed different numbers of {series!r} operations")
    return [median(times) for times in zip(*runs)]


def timed_metrics(passes: list[Pass], series: str, tail_pct: float,
                  overhead: tuple[str, ...] = ()) -> dict[str, float]:
    """The timed end-to-end metrics of a workload whose operations are `series`.

    Latencies are nearest-rank percentiles over the operations' median
    times; throughput is a pass's work over the sum of those times and of the
    once-a-pass `overhead` steps.
    """
    ops = per_op(passes, series)
    busy_ms = sum(ops) + sum(sum(per_op(passes, s)) for s in overhead)
    return {
        "op_ms_p50": percentile(ops, 50),
        "op_ms_tail": percentile(ops, tail_pct),
        "throughput_per_s": passes[0].work * 1000.0 / busy_ms,
    }


def per_pass(passes: list[Pass], key: str) -> float:
    """A count from the first pass; counts repeat, which `check_repeats` enforces."""
    return passes[0].counts.get(key, 0)


class LogCounter(logging.Handler):
    """Counts the records biokgr emits and discards them.

    Logging stays enabled, so the cost of emitting records is measured.
    """

    def __init__(self) -> None:
        super().__init__(level=logging.NOTSET)
        self.by_logger: Counter[str] = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.by_logger[record.name] += 1

    def total(self, prefix: str = "biokgr") -> int:
        return sum(n for name, n in self.by_logger.items()
                   if name == prefix or name.startswith(prefix + "."))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_baseline() -> dict:
    with open(BASELINE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_repeats(passes: list[Pass]) -> list[str]:
    """Every pass must reproduce the first pass's counts and digests exactly."""
    if not passes:
        return []
    problems = []
    first = passes[0]
    for i, p in enumerate(passes[1:], start=2):
        for key in sorted(set(first.counts) | set(p.counts)):
            if first.counts.get(key) != p.counts.get(key):
                problems.append(f"count {key} of pass {i} is {p.counts.get(key)!r}, "
                                f"pass 1 gave {first.counts.get(key)!r}")
        if p.digests != first.digests:
            problems.append(f"outputs of pass {i} differ from pass 1: {p.digests} != {first.digests}")
    return problems


def check_recorded_digests(workload: str, seed: int, digests: dict[str, str],
                           baseline: dict | None = None) -> list[str]:
    """For the default seed, outputs must match the digests recorded in baseline.json."""
    if seed != DEFAULT_SEED:
        return []
    baseline = baseline if baseline is not None else load_baseline()
    recorded = baseline["workloads"][workload]["digests"]
    return [f"{name} digest {digests.get(name)} != recorded {want}"
            for name, want in sorted(recorded.items()) if digests.get(name) != want]
