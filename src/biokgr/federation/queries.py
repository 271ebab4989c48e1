"""The relation-search type vocabulary and its check."""
from __future__ import annotations

from biokgr.federation.client import InvalidQuery

RELATION_SEARCH_TYPES = ("TREAT", "CAUSE", "INTERACT", "INHIBIT", "ASSOCIATE")


def validate_predicate(predicate: str) -> str:
    upper = predicate.upper()
    if upper not in RELATION_SEARCH_TYPES:
        raise InvalidQuery(f"{predicate!r} not in {RELATION_SEARCH_TYPES}")
    return upper
