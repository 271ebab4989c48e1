"""Parser for KEGG-style flat records.

Field keys occupy the first 12 columns; continuation lines are indented past
them and fold into the open field. Sub-fields (e.g. PATHWAY nested under
TARGET) are promoted to top-level fields, matching how the records are
queried downstream. Fields the record type does not model are preserved
verbatim in `residual`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from biokgr import Error

_FIELD_WIDTH = 12
_HSA_REF = re.compile(r"\[HSA:([^\]]+)\]")
_PATHWAY_ID = re.compile(r"\b((?:hsa|ko|map)\d{5})\b")
_PAREN_SUFFIX = re.compile(r"\s*\([^)]*\)\s*$")


class MalformedRecord(Error):
    pass


@dataclass
class KeggFlatRecord:
    accession: str
    name: str
    names: tuple[str, ...] = ()
    comment: str = ""
    efficacy: str = ""
    diseases: tuple[str, ...] = ()
    class_labels: tuple[str, ...] = ()
    targets: tuple[str, ...] = ()
    target_symbols: tuple[str, ...] = ()
    target_hsa_ids: tuple[str, ...] = ()
    pathways: tuple[str, ...] = ()
    residual: dict = field(default_factory=dict)


def _collect_fields(text: str) -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    current: str | None = None
    for line in text.splitlines():
        if line.strip() == "///" or not line.strip():
            continue
        head = line[:_FIELD_WIDTH]
        if head.strip():
            current = head.strip()
            fields.setdefault(current, []).append(line[_FIELD_WIDTH:].rstrip())
        elif current is not None:
            fields[current].append(line[_FIELD_WIDTH:].rstrip())
    return fields


def parse_flat_record(text: str) -> KeggFlatRecord:
    """Parse a single flat record; raises MalformedRecord when NAME is absent."""
    if not text or not text.strip():
        raise MalformedRecord("empty record text")
    fields = _collect_fields(text)
    if "NAME" not in fields or not any(v.strip() for v in fields["NAME"]):
        raise MalformedRecord("record has no NAME field")

    entry = fields.get("ENTRY", [""])[0].split()
    accession = entry[0] if entry else ""
    if not accession:
        raise MalformedRecord("record has no ENTRY accession")

    names = tuple(
        part.strip().rstrip(";")
        for line in fields["NAME"]
        for part in line.split(";")
        if part.strip()
    )
    primary = _PAREN_SUFFIX.sub("", names[0]).strip() if names else ""

    targets = tuple(t.strip() for t in fields.get("TARGET", []) if t.strip())
    target_symbols = tuple(t.split("[")[0].strip() for t in targets if t.split("[")[0].strip())
    hsa_ids: list[str] = []
    for t in targets:
        for ref in _HSA_REF.findall(t):
            hsa_ids.extend(ref.split())

    pathway_ids: list[str] = []
    for line in fields.get("PATHWAY", []):
        pathway_ids.extend(_PATHWAY_ID.findall(line))

    known = {"ENTRY", "NAME", "COMMENT", "EFFICACY", "DISEASE", "CLASS", "TARGET", "PATHWAY"}
    residual = {
        key: "\n".join(lines) for key, lines in fields.items() if key not in known
    }

    return KeggFlatRecord(
        accession=accession,
        name=primary,
        names=names,
        comment=" ".join(l.strip() for l in fields.get("COMMENT", []) if l.strip()),
        efficacy=" ".join(l.strip() for l in fields.get("EFFICACY", []) if l.strip()),
        diseases=tuple(l.strip() for l in fields.get("DISEASE", []) if l.strip()),
        class_labels=tuple(l.strip() for l in fields.get("CLASS", []) if l.strip()),
        targets=targets,
        target_symbols=tuple(dict.fromkeys(target_symbols)),
        target_hsa_ids=tuple(dict.fromkeys(hsa_ids)),
        pathways=tuple(dict.fromkeys(pathway_ids)),
        residual=residual,
    )


def split_flat_records(text: str) -> list[str]:
    """Split a multi-record flat file on '///' separators."""
    chunks = [chunk.strip("\n") for chunk in text.split("///")]
    return [c for c in chunks if c.strip()]
