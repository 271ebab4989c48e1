"""Source descriptors and the default source registry.

Every knowledge-base service is described uniformly: endpoint, protocol,
auth mode, rate limit, retry policy, merge priority. The shipped registry
covers the live-capable core subset plus descriptor stubs for the remaining
services; endpoints are overridable per source via environment variables
(``BIOKGR_<SOURCE>_URL``), which is also how tests point clients at the
fixture server.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

from biokgr import load_data

PROTOCOLS = ("rest", "graphql")
AUTH_MODES = ("none", "api-key")


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff_seconds: float = 0.5  # exponential: backoff * 2**(attempt-1)

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")


@dataclass(frozen=True)
class SourceDescriptor:
    source_id: str
    base_url: str
    protocol: str = "rest"
    auth: str = "none"
    rate_limit_per_sec: float = 3.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    priority: int = 100          # lower merges first
    api_key_env: str | None = None
    search_path: str = "/search"

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.auth not in AUTH_MODES:
            raise ValueError(f"unknown auth mode {self.auth!r}")
        if self.rate_limit_per_sec <= 0:
            raise ValueError("rate limit must be > 0 requests/second")
        self.retry.validate()

    def resolved_base_url(self, env=None) -> str:
        env = env if env is not None else os.environ
        override = env.get(f"BIOKGR_{self.source_id.upper()}_URL")
        return (override or self.base_url).rstrip("/")


@dataclass(frozen=True)
class QuerySpec:
    kind: str
    text: str
    sources: tuple[str, ...]
    limit: int = 10


def load_registry(payload: dict) -> dict[str, SourceDescriptor]:
    registry: dict[str, SourceDescriptor] = {}
    for entry in payload["sources"]:
        retry = RetryPolicy(**entry.get("retry", {}))
        descriptor = SourceDescriptor(
            source_id=entry["source_id"],
            base_url=entry["base_url"],
            protocol=entry.get("protocol", "rest"),
            auth=entry.get("auth", "none"),
            rate_limit_per_sec=entry.get("rate_limit_per_sec", 3.0),
            retry=retry,
            priority=entry.get("priority", 100),
            api_key_env=entry.get("api_key_env"),
            search_path=entry.get("search_path", "/search"),
        )
        descriptor.validate()
        registry[descriptor.source_id] = descriptor
    return registry


def default_registry() -> dict[str, SourceDescriptor]:
    return load_registry(load_data("sources.json"))
