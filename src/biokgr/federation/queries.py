"""Entity-typed boolean query construction and the relation-search type vocabulary."""
from __future__ import annotations

from biokgr.federation.client import InvalidQuery

SUPPORTED_ENTITY_TYPES = ("GENE", "DISEASE", "CHEMICAL", "VARIANT", "SPECIES", "CELLLINE")

RELATION_SEARCH_TYPES = ("TREAT", "CAUSE", "INTERACT", "INHIBIT", "ASSOCIATE")


class UnsupportedEntityType(Exception):
    pass


def build_boolean_query(
    terms: list[tuple[str, str]],
    connectives: list[str] | None = None,
) -> str:
    """Render entity-typed terms as `@TYPE_text` joined by uppercased connectives.

    Internal spaces and hyphens in term text map to underscores, e.g.
    ``[(CHEMICAL, "remdesivir"), (DISEASE, "COVID 19")]`` with ``["and"]``
    renders ``@CHEMICAL_remdesivir AND @DISEASE_COVID_19``.
    """
    if not terms:
        raise ValueError("at least one term required")
    if connectives is None:
        connectives = ["AND"] * (len(terms) - 1)
    if len(connectives) != len(terms) - 1:
        raise ValueError(
            f"{len(terms)} terms need {len(terms) - 1} connectives, got {len(connectives)}"
        )
    rendered = []
    for entity_type, text in terms:
        etype = entity_type.upper()
        if etype not in SUPPORTED_ENTITY_TYPES:
            raise UnsupportedEntityType(
                f"{entity_type!r} not in {SUPPORTED_ENTITY_TYPES}"
            )
        body = text.strip().replace(" ", "_").replace("-", "_")
        rendered.append(f"@{etype}_{body}")
    parts = [rendered[0]]
    for connective, term in zip(connectives, rendered[1:]):
        parts.append(connective.upper())
        parts.append(term)
    return " ".join(parts)


def validate_predicate(predicate: str) -> str:
    upper = predicate.upper()
    if upper not in RELATION_SEARCH_TYPES:
        raise InvalidQuery(f"{predicate!r} not in {RELATION_SEARCH_TYPES}")
    return upper
