"""Source descriptors and the default source registry.

Every knowledge-base service is one registry entry: endpoint, auth mode,
rate limit, retry policy, merge priority, and the wire format of each
operation it serves (``search``, ``relations``, ``citations``). An operation
is a request template and a reply shape:

- ``method`` (``GET`` or ``POST``), ``path``, ``params`` and a JSON ``body``,
  whose strings may hold the ``{text}``, ``{limit}`` and ``{kind}`` slots;
  ``kinds`` maps a query kind to the source's own word for it (``*`` for any
  other kind), and ``{"file": name}`` in a body is a bundled data file;
- ``reply``: ``records``, the dotted path to the record list; ``names``,
  ``[path, type]`` leaves tried in order, with an optional ``name_prefix``;
  ``xrefs``, namespace -> ``[path, type]``; and ``form``, ``json`` (the
  default) or ``tsv`` for ``id<TAB>synonyms; description`` lines. A leaf type
  is ``str``, ``id`` (a string or an integer, read as a string) or ``ids`` (a
  list of ids). An operation without a reply shape gets the generic reading.

Endpoints are overridable per source via environment variables
(``BIOKGR_<SOURCE>_URL``), which is also how tests point clients at the
fixture server.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from functools import cache

from biokgr import load_data

AUTH_MODES = ("none", "api-key")
OPERATIONS = ("search", "relations", "citations")
SLOT = re.compile(r"\{(\w+)\}")
SLOTS = ("text", "limit", "kind")
REPLY_FORMS = ("json", "tsv")
LEAF_TYPES = ("str", "id", "ids")
_TEMPLATE_KEYS = {"method", "path", "params", "body", "kinds", "reply"}
_REPLY_KEYS = {"form", "records", "names", "name_prefix", "xrefs"}


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
    auth: str = "none"
    rate_limit_per_sec: float = 3.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    priority: int = 100          # lower merges first
    operations: dict = field(default_factory=dict)   # operation -> template and reply shape

    def __post_init__(self) -> None:
        self.validate()  # so every descriptor in use is valid

    def validate(self) -> None:
        if self.auth not in AUTH_MODES:
            raise ValueError(f"unknown auth mode {self.auth!r}")
        if self.rate_limit_per_sec <= 0:
            raise ValueError("rate limit must be > 0 requests/second")
        self.retry.validate()
        for name, template in self.operations.items():
            if name not in OPERATIONS:
                raise ValueError(f"unknown operation {name!r}")
            _validate_template(f"{self.source_id} {name}", template)

    def resolved_base_url(self, env=None) -> str:
        env = env if env is not None else os.environ
        override = env.get(f"BIOKGR_{self.source_id.upper()}_URL")
        return (override or self.base_url).rstrip("/")


def _validate_template(where: str, template: dict) -> None:
    reply = template.get("reply", {})
    unknown = sorted(set(template) - _TEMPLATE_KEYS) + sorted(set(reply) - _REPLY_KEYS)
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    if reply.get("form", "json") not in REPLY_FORMS:
        raise ValueError(f"{where}: unknown reply form {reply['form']!r}")
    # in JSON text a slot is the only "{word}": object keys are quoted
    request = json.dumps([template.get("path"), template.get("params"), template.get("body")])
    for slot in SLOT.findall(request):
        if slot not in SLOTS:
            raise ValueError(f"{where}: unknown template slot {{{slot}}}")
    leaves = [*reply.get("names", ()), *reply.get("xrefs", {}).values()]
    for leaf in leaves:
        if not (isinstance(leaf, list) and len(leaf) == 2 and leaf[1] in LEAF_TYPES):
            raise ValueError(f"{where}: a leaf is [path, one of {LEAF_TYPES}], got {leaf!r}")
    for path in [template.get("path"), reply.get("records", ""), *(leaf[0] for leaf in leaves)]:
        if not isinstance(path, str):
            raise ValueError(f"{where}: path {path!r} is not a string")


@dataclass(frozen=True)
class QuerySpec:
    kind: str
    text: str
    sources: tuple[str, ...]
    limit: int = 10


def load_registry(payload: dict) -> dict[str, SourceDescriptor]:
    registry: dict[str, SourceDescriptor] = {}
    for entry in payload["sources"]:
        try:
            descriptor = SourceDescriptor(
                **{**entry, "retry": RetryPolicy(**entry.get("retry", {}))})
        except TypeError as exc:  # an unknown or missing entry field
            raise ValueError(f"registry entry {entry.get('source_id')!r}: {exc}") from exc
        registry[descriptor.source_id] = descriptor
    return registry


@cache
def _shipped_registry() -> dict[str, SourceDescriptor]:
    return load_registry(load_data("sources.json"))


def default_registry() -> dict[str, SourceDescriptor]:
    """The shipped registry; the descriptors are shared and frozen, the dict is the caller's."""
    return dict(_shipped_registry())
