"""Shared per-host rate limiting with an injectable clock.

The limiter serializes timestamp grants under one lock: a caller only
receives a dispatch slot once `now` is at least the larger of its own and the
previous caller's minimum interval past the host's previous grant. Grants to
one host are therefore spaced by at least each interval involved, however
many threads contend and whichever sources (each with its own interval)
resolve to that host.
"""
from __future__ import annotations

import threading
import time


class SystemClock:
    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class RateLimiter:
    def __init__(self, clock):
        self._clock = clock
        self._lock = threading.Lock()
        self._last_grant: dict[str, tuple[float, float]] = {}  # host -> (time, its interval)

    def acquire(self, host: str, min_interval: float) -> float:
        """Block until the host's slot opens; returns the granted timestamp."""
        if min_interval < 0:
            raise ValueError("min_interval must be >= 0")
        while True:
            with self._lock:
                now = self._clock.now()
                granted, interval = self._last_grant.get(host, (float("-inf"), 0.0))
                ready = granted + max(interval, min_interval)
                if now >= ready:
                    self._last_grant[host] = (now, min_interval)
                    return now
                wait = ready - now
            self._clock.sleep(wait)
