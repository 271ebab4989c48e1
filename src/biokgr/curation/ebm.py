"""Evidence-gap tasks from versioned systematic reviews.

Review versions sharing a base DOI are paired (each with its immediately
preceding version); the ground truth for a pair is the set of study PMIDs
included in the newer version but not the older one. A task is written as an
`ebm_gap` item row keyed by the newer version's DOI, and predictions are
scored by gap detection (any truth PMID in the top k) and recall@k.
"""
from __future__ import annotations

import logging
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from biokgr import Error

logger = logging.getLogger(__name__)

DEFAULT_K = 30

_VERSION_SUFFIX = re.compile(r"\.pub(\d+)$", re.IGNORECASE)


class MalformedDocument(Error):
    pass


class DegenerateTruth(Error):
    pass


@dataclass
class ReviewVersion:
    base_doi: str
    version_doi: str
    version: int
    pmid: int | None
    title: str
    objectives: str = ""
    selection_criteria: str = ""
    outcomes: str = ""
    included: frozenset = frozenset()
    excluded: frozenset = frozenset()
    parse_warnings: int = 0


@dataclass
class GapTask:
    base_doi: str
    older: ReviewVersion
    newer: ReviewVersion
    truth: frozenset = field(default_factory=frozenset)

    @property
    def item_id(self) -> str:
        return self.newer.version_doi

    def to_dict(self) -> dict:
        """The task as an item row: the newer version's framing and the prior inclusions."""
        return {
            "id": self.item_id,
            "task_type": "ebm_gap",
            "question": self.newer.title,
            "options": [],
            "answers": sorted(self.truth),
            "metadata": {
                "base_doi": self.base_doi,
                "objectives": self.newer.objectives,
                "selection_criteria": self.newer.selection_criteria,
                "outcomes": self.newer.outcomes,
                "prior_included": sorted(self.older.included),
            },
        }


def split_base_doi(doi: str) -> tuple[str, int]:
    """('10.1002/x.CD000259.pub3') -> ('10.1002/x.CD000259', 3); no suffix -> version 1."""
    match = _VERSION_SUFFIX.search(doi)
    if match:
        return doi[: match.start()], int(match.group(1))
    return doi, 1


def parse_included_refs(document: str) -> tuple[frozenset, frozenset, int]:
    """(included PMIDs, excluded PMIDs, malformed-id warning count) from review XML.

    Only reference lists titled as included/excluded studies are harvested;
    classification is inherited by nested lists.
    """
    return _included_refs(_parse(document))


def _parse(document: str) -> ET.Element:
    try:
        return ET.fromstring(document)
    except ET.ParseError as exc:
        raise MalformedDocument(f"review XML does not parse: {exc}") from exc


def _included_refs(root: ET.Element) -> tuple[frozenset, frozenset, int]:
    included: set[int] = set()
    excluded: set[int] = set()
    warnings = 0

    # an explicit stack of (element, the bucket its pubmed ids go to), so any depth is read
    stack: list[tuple[ET.Element, set[int] | None]] = [(root, None)]
    while stack:
        element, bucket = stack.pop()
        for child in element:
            child_bucket = bucket
            if child.tag == "ReferenceList":
                label = (child.findtext("Title") or "").casefold()
                if "included in this review" in label:
                    child_bucket = included
                elif "excluded from this review" in label:
                    child_bucket = excluded
                # untitled nested lists inherit the enclosing classification
            if child.tag == "ArticleId" and child.get("IdType") == "pubmed":
                if child_bucket is not None:
                    text = (child.text or "").strip()
                    if text.isdigit():
                        child_bucket.add(int(text))
                    else:
                        warnings += 1
                continue
            stack.append((child, child_bucket))

    if warnings:
        logger.warning("skipped %d malformed PMIDs while parsing references", warnings)
    if not included:
        logger.warning("document has no included-studies reference list")
    return frozenset(included), frozenset(excluded - included), warnings


def _abstract_sections(root: ET.Element) -> dict[str, str]:
    sections: dict[str, str] = {}
    for node in root.iter("AbstractText"):
        label = (node.get("Label") or "").casefold()
        text = "".join(node.itertext()).strip()
        if not text:
            continue
        if "objective" in label:
            sections["objectives"] = text
        elif "selection criteria" in label:
            sections["selection_criteria"] = text
        elif "outcome" in label or "main results" in label:
            sections.setdefault("outcomes", text)
    return sections


def parse_review_version(document: str) -> ReviewVersion:
    """Full parse of one review-version XML record."""
    root = _parse(document)
    doi = ""
    for node in root.iter("ELocationID"):
        if node.get("EIdType") == "doi" and node.text:
            doi = node.text.strip()
            break
    if not doi:
        for node in root.iter("ArticleId"):
            if node.get("IdType") == "doi" and node.text:
                doi = node.text.strip()
                break
    if not doi:
        raise MalformedDocument("review record carries no DOI")

    pmid_text = root.findtext(".//PMID")
    included, excluded, warnings = _included_refs(root)
    sections = _abstract_sections(root)
    base, version = split_base_doi(doi)
    return ReviewVersion(
        base_doi=base,
        version_doi=doi,
        version=version,
        pmid=int(pmid_text) if pmid_text and pmid_text.strip().isdigit() else None,
        title=root.findtext(".//ArticleTitle") or "",
        objectives=sections.get("objectives", ""),
        selection_criteria=sections.get("selection_criteria", ""),
        outcomes=sections.get("outcomes", ""),
        included=included,
        excluded=excluded,
        parse_warnings=warnings,
    )


def pair_versions(
    records: list[ReviewVersion],
) -> tuple[list[GapTask], list[str]]:
    """Pair each review version with its immediately preceding version.

    Returns (tasks, unpaired base DOIs). Only the first record of a version
    is read; each later one is skipped with a warning. Pairs whose newer
    version adds no studies are dropped since they cannot test gap detection.
    """
    by_base: dict[str, dict[int, ReviewVersion]] = {}
    for record in records:
        versions = by_base.setdefault(record.base_doi, {})
        if versions.setdefault(record.version, record) is not record:
            logger.warning("skipping review %s: an earlier record is version %d of %s",
                           record.version_doi, record.version, record.base_doi)

    tasks: list[GapTask] = []
    unpaired: list[str] = []
    for base in sorted(by_base):
        versions = [by_base[base][v] for v in sorted(by_base[base])]
        if len(versions) < 2:
            unpaired.append(base)
            continue
        for older, newer in zip(versions, versions[1:]):
            truth = frozenset(newer.included - older.included)
            if not truth:
                continue
            tasks.append(GapTask(base_doi=base, older=older, newer=newer, truth=truth))
    return tasks, unpaired


def score_predictions(
    ranked: list[int],
    truth: frozenset | set,
    k: int = DEFAULT_K,
) -> dict:
    """Gap detection and recall@k for one ranked prediction list."""
    if not truth:
        raise DegenerateTruth("truth set is empty; the task should have been dropped")
    deduped: list[int] = list(dict.fromkeys(ranked))
    top = set(deduped[:k])
    hits = len(top & set(truth))
    return {
        "gap_detected": hits > 0,
        "recall_at_k": hits / len(truth),
        "hits": hits,
        "k": k,
    }
