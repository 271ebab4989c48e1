"""Deduplicated evidence-graph memory.

The store is the agent's persistent record of what it has learned: biomedical
entities keyed by canonical identifier, typed relations between them, short
factual observations, and provenance for every node and edge. Writes happen in
merge cycles (batches) that are validated up front and applied atomically;
reads may run concurrently between merges.

A conflict group keeps contradicting relations side by side. Its only record
is each member's `conflict_group`, and one rule governs merges and snapshot
import alike: a relation joins a group only when the group is new or already
joins the same (subject, object) pair, and a relation in a group keeps it.

Each record rule (an entity's kind, name and CURIE, a relation's predicate and
evidence, an observation's length) is stated once, in the `validate` of a
merged record, over fields its stored form shares; merges and snapshot import
both apply it, so a snapshot holds no record that a merge would refuse.

A merge or a lookup normalizes names through two bounded caches that every
store shares; a snapshot import calls the normalizers once per record.

A snapshot is one JSON file: `export_graph` writes it straight from the
stored records under the store's lock, and `import_graph` reads it back
through `EvidenceGraphStore.from_document`, the one checked reader of a
snapshot.
"""
from __future__ import annotations

import dataclasses
import gc
import json
import logging
import re
import threading
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

from biokgr import Error, Shape, WorkspaceUnavailable, field, parse_json, read_text, writing

logger = logging.getLogger(__name__)

# Declaration order doubles as the precedence that resolves a display label
# stored under several kinds, so the answer never depends on set iteration.
ENTITY_KIND_ORDER = (
    "GENE_PROTEIN",
    "DISEASE_PHENOTYPE",
    "CHEMICAL_DRUG",
    "CELL_TISSUE",
    "PATHWAY_GENESET",
    "PAPER",
    "FINDING",
)
ENTITY_KINDS = frozenset(ENTITY_KIND_ORDER)

RELATION_PREDICATES = frozenset({
    # mechanistic
    "ACTIVATES", "INHIBITS", "BINDS", "PHOSPHORYLATES", "REGULATES_EXPRESSION",
    # membership / annotation
    "MEMBER_OF_PATHWAY", "HAS_GENESET_MEMBER", "EXPRESSED_IN",
    # association
    "ASSOCIATED_WITH", "CO_OCCURS",
    # evidence level / provenance
    "SUPPORTS", "REFUTES", "INCONCLUSIVE_FOR", "CITES", "DERIVED_FROM_KG",
})

# Predicates that attach context (assay, tissue, co-mention) to a finding
# rather than stating a mechanism. A finding that gains more than
# MAX_CONTEXT_EDGES_PER_FINDING of these only produces a lint warning, because
# recognising "contextual" is heuristic.
CONTEXT_PREDICATES = frozenset({"ASSOCIATED_WITH", "CO_OCCURS", "EXPRESSED_IN"})
MAX_CONTEXT_EDGES_PER_FINDING = 2

MAX_NEW_ENTITIES_PER_BATCH = 10
MAX_NEW_RELATIONS_PER_BATCH = 16
MAX_OBSERVATION_WORDS = 30
MAX_NAME_WORDS = 5
MAX_NAME_CHARS = 40

_OUTER_PUNCT = re.compile(r"^[\W_]+|[\W_]+$", re.UNICODE)


class EvidenceGraphError(Error):
    """Base class for evidence-graph failures."""


class EmptyLabel(EvidenceGraphError):
    pass


class InvalidName(EvidenceGraphError):
    pass


class InvalidObservation(EvidenceGraphError):
    pass


class MissingEvidence(EvidenceGraphError):
    pass


class UnknownPredicate(EvidenceGraphError):
    pass


class BatchLimitExceeded(EvidenceGraphError):
    pass


class MalformedSnapshot(EvidenceGraphError):
    """A snapshot that is not JSON, or not a document `export_graph` writes."""


def normalize_label(raw: str) -> str:
    """Collapse a display label to its deduplication key.

    Case-folds, collapses internal whitespace to single spaces, and strips
    leading/trailing punctuation. Idempotent on every value it returns.
    """
    if raw is None or not raw.strip():
        raise EmptyLabel("label is blank after trimming")
    key = " ".join(raw.split()).casefold()
    key = _OUTER_PUNCT.sub("", key)
    if not key:
        raise EmptyLabel(f"label {raw!r} is only punctuation")
    return key


def normalize_curie(curie: str) -> str:
    """Canonical form of a CURIE: namespace compared case-insensitively."""
    curie = curie.strip()
    if ":" in curie:
        ns, rest = curie.split(":", 1)
        return f"{ns.strip().lower()}:{rest.strip()}"
    return curie.lower()


# A string is normalized once while among the last _KEYS_CACHED named (a count of
# strings, not bytes, kept for the process's life). `lru_cache` keeps no exception:
# a label that normalizes to nothing raises a fresh EmptyLabel each time it is named.
_KEYS_CACHED = 4096
_label = lru_cache(maxsize=_KEYS_CACHED)(normalize_label)
_curie = lru_cache(maxsize=_KEYS_CACHED)(normalize_curie)


def name_is_valid(name: str) -> bool:
    """Short-label rule: at most 5 words or at most 40 characters."""
    return bool(name.strip()) and (len(name.split()) <= MAX_NAME_WORDS or len(name) <= MAX_NAME_CHARS)


@dataclass(frozen=True)
class EntityRef:
    """A biomedical entity reference.

    `source` is a knowledge-base tag with version (e.g. ``kegg@r109`` or a
    PMID) and doubles as the node's provenance note.
    """

    name: str
    kind: str
    curie: str | None = None
    source: str = "unattributed"

    def validate(self) -> None:
        """The entity record rules; reads only fields a `StoredEntity` shares. Raises InvalidName."""
        if self.kind not in ENTITY_KINDS:
            raise InvalidName(f"unknown entity kind {self.kind!r} for {self.name!r}")
        if not name_is_valid(self.name):
            raise InvalidName(
                f"name {self.name!r} violates the {MAX_NAME_WORDS}-word/"
                f"{MAX_NAME_CHARS}-char rule"
            )
        if self.kind == "PAPER" and not self.name.startswith("PMID:"):
            raise InvalidName(f"PAPER entity name must begin with 'PMID:', got {self.name!r}")
        if self.curie:
            # a prefix without `/` keeps a CURIE key apart from every `kind/label` key
            prefix, colon, reference = self.curie.partition(":")
            if not (colon and prefix.strip() and "/" not in prefix and reference.strip()):
                raise InvalidName(f"CURIE {self.curie!r} of {self.name!r} is not prefix:reference")


@dataclass(frozen=True)
class RelationEdge:
    """A directed subject→object relation with provenance.

    In a :class:`MergeBatch`, `subject` and `object` may be CURIEs or display
    names; they are resolved against the batch and the store at merge time.
    """

    subject: str
    predicate: str
    object: str
    evidence: tuple[str, ...]
    conflict_group: str | None = None

    def validate(self) -> None:
        """The relation record rules; reads only fields a `StoredRelation` shares."""
        if self.predicate not in RELATION_PREDICATES:
            raise UnknownPredicate(
                f"predicate {self.predicate!r} on {self.subject!r}->{self.object!r} "
                "is not in the relation vocabulary"
            )
        if not self.evidence:
            raise MissingEvidence(
                f"relation {self.subject!r} {self.predicate} {self.object!r} has no evidence"
            )


@dataclass(frozen=True)
class Observation:
    """A short factual sentence attached to an entity."""

    entity: str
    text: str

    def validate(self) -> None:
        """The observation record rules; reads only fields a snapshot's observation shares."""
        words = len(self.text.split())
        if not words:
            raise InvalidObservation(f"empty observation for {self.entity!r}")
        if words > MAX_OBSERVATION_WORDS:
            raise InvalidObservation(
                f"observation for {self.entity!r} has {words} words "
                f"(limit {MAX_OBSERVATION_WORDS}): {self.text[:60]!r}..."
            )


@dataclass(frozen=True)
class MergeBatch:
    """One merge cycle's worth of additions."""

    entities: tuple[EntityRef, ...] = ()
    relations: tuple[RelationEdge, ...] = ()
    observations: tuple[Observation, ...] = ()
    cycle_id: str = ""


@dataclass
class MergeReport:
    created: int = 0
    merged: int = 0
    relations_added: int = 0
    rejected: int = 0
    warnings: list[str] = dataclasses.field(default_factory=list)


@dataclass(slots=True)
class StoredEntity:
    key: str
    name: str
    kind: str
    curie: str | None
    sources: list[str]
    observations: list[str] = dataclasses.field(default_factory=list)


RelationKey = tuple[str, str, str]  # (subject key, predicate, object key)


@dataclass(slots=True)
class StoredRelation:
    subject: str
    predicate: str
    object: str
    evidence: list[str]
    conflict_group: str | None = None

    @property
    def key(self) -> RelationKey:
        return (self.subject, self.predicate, self.object)


# The JSON types of snapshot fields, as the `types` and item type `of` that
# `biokgr.field` takes.
_STR = (str, None)
_STR_OR_NULL = ((str, type(None)), None)
_LIST_OF_STR = (list, str)
_LIST_OF_LISTS = (list, list)


class _Section(NamedTuple):
    """A snapshot section: its key, the kind of record it holds, and that record's shape."""

    name: str
    kind: str
    shape: Shape

    def records(self, doc):
        """The field values of each record in this section of `doc`, in the shape's order.

        Raises MalformedSnapshot naming the section or the record kind, and the field.
        """
        try:
            rows = field(doc, self.name, list)
        except ValueError as exc:
            raise MalformedSnapshot(f"snapshot {exc}") from exc
        for row in rows:
            try:
                yield self.shape.read(row)
            except ValueError as exc:
                raise MalformedSnapshot(f"{self.kind} {exc}") from exc


# The snapshot's one declaration of its record shapes, in the order
# `from_document` reads the sections and their fields. The entity and relation
# fields are the `StoredEntity` and `StoredRelation` attributes, in their order.
# `export_graph` and `from_document` both follow these.
_ENTITIES = _Section("entities", "entity record", Shape(
    key=_STR, name=_STR, kind=_STR, curie=_STR_OR_NULL, sources=_LIST_OF_STR))
_RELATIONS = _Section("relations", "relation record", Shape(
    subject=_STR, predicate=_STR, object=_STR, evidence=_LIST_OF_STR, conflict_group=_STR_OR_NULL))
_OBSERVATIONS = _Section("observations", "observation record", Shape(entity=_STR, text=_STR))
_CONFLICT_GROUPS = _Section("conflict_groups", "conflict group record", Shape(
    id=_STR, relations=_LIST_OF_LISTS))
_SECTIONS = (_ENTITIES, _RELATIONS, _OBSERVATIONS, _CONFLICT_GROUPS)

# The observation and conflict-group records a snapshot lists, their attributes
# named as their sections' fields. Entities and relations are written from the
# stored records themselves.
_ObservationRecord = namedtuple("_ObservationRecord", _OBSERVATIONS.shape.fields)
_ConflictGroupRecord = namedtuple("_ConflictGroupRecord", _CONFLICT_GROUPS.shape.fields)


class EvidenceGraphStore:
    """In-memory deduplicated entity/relation store with snapshot export.

    Every write keeps the indexes current: the CURIE and label lookups, the
    relations incident to each node, and each finding's count of contextual
    edges. A merge therefore costs O(batch) and never rescans the store. Each
    label's kinds are kept in ENTITY_KIND_ORDER, so a name resolves with one
    lookup.
    Labels and CURIEs are normalized through two caches that every store
    shares, each holding the last _KEYS_CACHED strings named (a count, not a
    byte bound: a name's length is not capped, and the strings outlive the
    store). A batch's new entities (or new relations) are counted against
    their cap only when the batch holds more entities (or relations) than
    the cap, since a count never exceeds the batch's length. A subgraph read
    costs the sum of the degrees of the nodes it reaches, plus sorting what
    it returns; it does not depend on the size of the store.

    Merges and every read that iterates the store (subgraph queries,
    listings, stats and snapshots) hold one re-entrant lock, so a
    read never sees a half-applied batch or an index set that a merge is
    changing. Single-key lookups (`get`, `resolve_key`) take no lock.

    A finding is warned about once in the store's lifetime: in the merge whose
    new relations take its contextual edges past
    MAX_CONTEXT_EDGES_PER_FINDING. A store rebuilt from a snapshot does not
    warn again for findings that were already past the cap.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entities: dict[str, StoredEntity] = {}
        self._curie_index: dict[str, str] = {}
        self._label_index: dict[str, dict[str, str]] = {}  # label -> {kind: key} in kind order
        self._relations: dict[RelationKey, StoredRelation] = {}
        self._incident: dict[str, set[RelationKey]] = {}
        self._context_edges: dict[str, int] = {}
        self._group_pairs: dict[str, tuple[str, str]] = {}  # group -> its pair; only grows

    # -- lookups ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entities)

    @property
    def relation_count(self) -> int:
        return len(self._relations)

    def get(self, ref: str) -> StoredEntity | None:
        key = self.resolve_key(ref)
        return self._entities.get(key) if key else None

    def resolve_key(self, ref: str) -> str | None:
        """Resolve a CURIE, display name, or storage key to a storage key.

        A label stored under several kinds resolves to the first of them in
        ENTITY_KIND_ORDER. The label index keeps each label's kinds in that
        order, so a name resolves with one lookup and no walk of the order.
        """
        if ref in self._entities:
            return ref
        hit = self._curie_index.get(_curie(ref))
        if hit:
            return hit
        try:
            by_kind = self._label_index.get(_label(ref))
        except EmptyLabel:
            return None
        return next(iter(by_kind.values())) if by_kind else None

    def _match(self, entity: EntityRef) -> str | None:
        """Dedup match: CURIE first, then normalized label within kind."""
        if entity.curie:
            hit = self._curie_index.get(_curie(entity.curie))
            if hit:
                return hit
        by_kind = self._label_index.get(_label(entity.name))
        return by_kind.get(entity.kind) if by_kind else None

    # -- merge cycle ---------------------------------------------------------

    def upsert_batch(self, batch: MergeBatch) -> MergeReport:
        """Apply one merge cycle atomically.

        The whole batch is validated first, then every entity name is read
        unless its CURIE is already stored; a name that normalizes to nothing
        raises EmptyLabel. A batch longer than the new-entity or new-relation
        cap then has its new records counted, and one that trips a cap is
        rejected; no refusal touches the store. Entities that match an
        existing node (by CURIE, then by normalized label within kind) update
        that node in place instead of creating a duplicate.
        """
        with self._lock:
            for entity in batch.entities:
                entity.validate()
            for relation in batch.relations:
                relation.validate()
            for obs in batch.observations:
                obs.validate()

            for entity in batch.entities:
                # `_match`'s CURIE-first rule: a name is read unless its CURIE is stored
                if not (entity.curie and self._curie_index.get(_curie(entity.curie))):
                    _label(entity.name)  # raises EmptyLabel before anything changes
            # a count never exceeds its batch's length, so a batch within a cap skips it
            if len(batch.entities) > MAX_NEW_ENTITIES_PER_BATCH:
                new_entities = self._count_new_entities(batch.entities)
                if new_entities > MAX_NEW_ENTITIES_PER_BATCH:
                    raise BatchLimitExceeded(
                        f"batch introduces {new_entities} new entities "
                        f"(limit {MAX_NEW_ENTITIES_PER_BATCH})"
                    )
            if len(batch.relations) > MAX_NEW_RELATIONS_PER_BATCH:
                new_relations = self._count_new_relations(batch)
                if new_relations > MAX_NEW_RELATIONS_PER_BATCH:
                    raise BatchLimitExceeded(
                        f"batch introduces {new_relations} new relations "
                        f"(limit {MAX_NEW_RELATIONS_PER_BATCH})"
                    )

            report = MergeReport()
            crossed: set[str] = set()
            for entity in batch.entities:
                self._apply_entity(entity, report)
            for relation in batch.relations:
                self._apply_relation(relation, report, crossed)
            for obs in batch.observations:
                self._apply_observation(obs, report)
            for key in sorted(crossed):
                msg = (
                    f"finding {key!r} carries {self._context_edges[key]} contextual edges "
                    f"(recommended max {MAX_CONTEXT_EDGES_PER_FINDING})"
                )
                report.warnings.append(msg)
                logger.warning(msg)
            return report

    def _count_new_entities(self, entities: tuple[EntityRef, ...]) -> int:
        seen: set[tuple[str, str]] = set()
        curies: set[str] = set()
        count = 0
        for entity in entities:
            if self._match(entity) is not None:
                continue
            label_key = (entity.kind, _label(entity.name))
            curie_key = _curie(entity.curie) if entity.curie else None
            # duplicates inside the batch collapse onto the first occurrence
            if label_key in seen or (curie_key and curie_key in curies):
                continue
            seen.add(label_key)
            if curie_key:
                curies.add(curie_key)
            count += 1
        return count

    def _count_new_relations(self, batch: MergeBatch) -> int:
        """The batch's distinct triples that are not stored, read before the merge.

        An endpoint the store does not know stands for itself (its normalized
        label, or the raw string), so a relation to an entity new in the batch
        counts, and so does one that the merge will reject for an unknown
        endpoint. The count is never more than the batch's relations. It is
        not exact: it over-counts those rejections and two spellings of one
        new entity, and under-counts when a new entity takes over a stored
        label's name, so that two relations read as one triple here.
        """
        count = 0
        seen: set[tuple[str, str, str]] = set()
        for relation in batch.relations:
            skey = self._resolve_or_raw(relation.subject)
            okey = self._resolve_or_raw(relation.object)
            triple = (skey, relation.predicate, okey)
            if triple in self._relations or triple in seen:
                continue
            seen.add(triple)
            count += 1
        return count

    def _resolve_or_raw(self, ref: str) -> str:
        key = self.resolve_key(ref)
        if key:
            return key
        try:
            return _label(ref)
        except EmptyLabel:
            return ref

    def _apply_entity(self, entity: EntityRef, report: MergeReport) -> None:
        existing_key = self._match(entity)
        if existing_key is not None:
            stored = self._entities[existing_key]
            if entity.curie and not stored.curie:
                stored.curie = entity.curie
                self._curie_index[_curie(entity.curie)] = existing_key
            if entity.source not in stored.sources:
                stored.sources.append(entity.source)
            report.merged += 1
            return
        label = _label(entity.name)
        curie_key = _curie(entity.curie) if entity.curie else None
        self._add_entity(StoredEntity(
            key=f"{entity.kind.lower()}/{label}" if curie_key is None else curie_key,
            name=entity.name,
            kind=entity.kind,
            curie=entity.curie,
            sources=[entity.source],
        ), label, curie_key)
        report.created += 1

    def _add_entity(self, stored: StoredEntity, label: str, curie_key: str | None) -> None:
        """Store and index an entity under its normalized label and CURIE.

        A label that gains a kind has its kinds put back in ENTITY_KIND_ORDER.
        """
        self._entities[stored.key] = stored
        by_kind = self._label_index.setdefault(label, {})
        gains_a_kind = bool(by_kind) and stored.kind not in by_kind
        by_kind[stored.kind] = stored.key
        if gains_a_kind:
            self._label_index[label] = {k: by_kind[k] for k in ENTITY_KIND_ORDER if k in by_kind}
        if curie_key is not None:
            self._curie_index[curie_key] = stored.key

    def _apply_relation(self, relation: RelationEdge, report: MergeReport,
                        crossed: set[str]) -> None:
        skey = self.resolve_key(relation.subject)
        okey = self.resolve_key(relation.object)
        stored = None
        if skey is None or okey is None:
            missing = relation.subject if skey is None else relation.object
            refusal = f"endpoint {missing!r} unknown"
        else:
            stored = self._relations.get((skey, relation.predicate, okey))
            refusal = self._group_refusal(relation.conflict_group, stored, skey, okey)
        if refusal:
            report.rejected += 1
            report.warnings.append(
                f"relation {relation.subject!r} {relation.predicate} "
                f"{relation.object!r} rejected: {refusal}"
            )
            return
        if stored is not None:
            for ev in relation.evidence:
                if ev not in stored.evidence:
                    stored.evidence.append(ev)
            if relation.conflict_group is not None:
                stored.conflict_group = relation.conflict_group
            return
        if self._add_relation(StoredRelation(
            subject=skey,
            predicate=relation.predicate,
            object=okey,
            evidence=list(relation.evidence),
            conflict_group=relation.conflict_group,
        )):
            crossed.add(skey)
        report.relations_added += 1

    def _group_refusal(self, group: str | None, stored: StoredRelation | None,
                       subject: str, object_: str) -> str | None:
        """Why a relation over (subject, object_) may not join `group`, or None.

        `stored` is the relation's stored record, if any. The rule is the
        module's grouping rule; a group that is new is recorded here.
        """
        if group is None:
            return None
        if stored is not None and stored.conflict_group not in (None, group):
            return f"it is in conflict group {stored.conflict_group!r}, not {group!r}"
        if self._group_pairs.setdefault(group, (subject, object_)) != (subject, object_):
            return f"conflict group {group!r} joins another entity pair"
        return None

    def _add_relation(self, rel: StoredRelation) -> bool:
        """Store and index a new relation.

        Returns True when it is the contextual edge that takes its subject
        finding past MAX_CONTEXT_EDGES_PER_FINDING. Counts only grow, so that
        happens at most once per finding.
        """
        key = rel.key
        self._relations[key] = rel
        self._incident.setdefault(rel.subject, set()).add(key)
        self._incident.setdefault(rel.object, set()).add(key)
        if rel.predicate not in CONTEXT_PREDICATES or self._entities[rel.subject].kind != "FINDING":
            return False
        n = self._context_edges[rel.subject] = self._context_edges.get(rel.subject, 0) + 1
        return n == MAX_CONTEXT_EDGES_PER_FINDING + 1

    def _apply_observation(self, obs: Observation, report: MergeReport) -> None:
        key = self.resolve_key(obs.entity)
        if key is None:
            report.rejected += 1
            report.warnings.append(
                f"observation for unknown entity {obs.entity!r} rejected"
            )
            return
        stored = self._entities[key]
        if obs.text not in stored.observations:
            stored.observations.append(obs.text)

    # -- reads ----------------------------------------------------------------

    def query_subgraph(self, seeds: list[str], depth: int) -> dict:
        """Entities within `depth` undirected hops of any seed, plus induced relations.

        Entities come in sorted key order and relations in sorted triple order.
        """
        if depth < 0:
            raise ValueError("depth must be >= 0")
        with self._lock:
            frontier = {k for k in (self.resolve_key(s) for s in seeds) if k is not None}
            reached = set(frontier)
            for _ in range(depth):
                nxt = set()
                for key in frontier:
                    for subject, _p, object_ in self._incident.get(key, ()):
                        nxt.add(subject)
                        nxt.add(object_)
                frontier = nxt - reached
                if not frontier:
                    break
                reached |= frontier
            # An induced relation is listed once, from its subject's incident set.
            induced = [
                triple for key in reached for triple in self._incident.get(key, ())
                if triple[0] == key and triple[2] in reached
            ]
            return {
                "entities": {k: self._entities[k] for k in sorted(reached)},
                "relations": [self._relations[t] for t in sorted(induced)],
            }

    def relations(self) -> list[StoredRelation]:
        with self._lock:
            return [self._relations[k] for k in sorted(self._relations)]

    def entities(self) -> list[StoredEntity]:
        with self._lock:
            return [self._entities[k] for k in sorted(self._entities)]

    def stats(self) -> dict:
        with self._lock:
            kind_counts: dict[str, int] = {}
            for entity in self._entities.values():
                kind_counts[entity.kind] = kind_counts.get(entity.kind, 0) + 1
            return {
                "entities": len(self._entities),
                "relations": len(self._relations),
                "observations": sum(len(e.observations) for e in self._entities.values()),
                "conflict_groups": len(self._group_pairs),
                "entities_by_kind": dict(sorted(kind_counts.items())),
            }

    # -- snapshot -------------------------------------------------------------

    def _snapshot_sections(self) -> dict:
        """Each snapshot section's records, in the order the snapshot lists them.

        The records share the store's live data, so the caller holds the
        lock for as long as it reads them.
        """
        entities = self.entities()
        return {
            _ENTITIES.name: entities,
            _RELATIONS.name: self.relations(),
            _OBSERVATIONS.name: [
                _ObservationRecord(e.key, text) for e in entities for text in e.observations],
            _CONFLICT_GROUPS.name: [
                _ConflictGroupRecord(gid, self._members(gid)) for gid in sorted(self._group_pairs)],
        }

    def _members(self, group: str) -> list[RelationKey]:
        """The relations in `group`, in triple order, read off its subject's incident set."""
        subject, object_ = self._group_pairs[group]
        return sorted(key for key in self._incident[subject]
                      if key[2] == object_ and self._relations[key].conflict_group == group)

    @classmethod
    def from_document(cls, doc: dict) -> "EvidenceGraphStore":
        """Rebuild a store from a parsed snapshot, without lint warnings.

        This is the one checked reader of a snapshot, the document
        `export_graph` writes; a store rebuilt from an exported snapshot
        exports the same bytes.
        Raises MalformedSnapshot, naming the record, when a section or field is
        missing or ill-typed, a record breaks a record rule that merges apply
        (each record is checked in the pass that reads it), a relation or
        observation names an entity not stored, a relation breaks the grouping
        rule, an entity, relation or conflict group appears twice, two
        entities' CURIEs normalize alike, or the conflict-group section does
        not list each group named by a relation, with exactly the relations
        that name it (in any order), and nothing else.
        """
        store = cls()
        for values in _ENTITIES.records(doc):
            stored = StoredEntity(*values)
            try:
                EntityRef.validate(stored)
            except InvalidName as exc:
                raise MalformedSnapshot(f"entity {stored.key!r}: {exc}") from exc
            if stored.key in store._entities:
                raise MalformedSnapshot(f"entity {stored.key!r} appears twice")
            curie_key = normalize_curie(stored.curie) if stored.curie else None
            if curie_key in store._curie_index:
                raise MalformedSnapshot(f"entity {stored.key!r} repeats the CURIE of entity "
                                        f"{store._curie_index[curie_key]!r}")
            try:
                store._add_entity(stored, normalize_label(stored.name), curie_key)
            except EmptyLabel as exc:
                raise MalformedSnapshot(f"entity {stored.key!r}: {exc}") from exc
        for values in _RELATIONS.records(doc):
            rel = StoredRelation(*values)
            try:
                RelationEdge.validate(rel)
            except (UnknownPredicate, MissingEvidence) as exc:
                raise MalformedSnapshot(f"relation {rel.key}: {exc}") from exc
            for endpoint in (rel.subject, rel.object):
                if endpoint not in store._entities:
                    raise MalformedSnapshot(
                        f"relation {rel.key} names unknown entity {endpoint!r}")
            if rel.key in store._relations:
                raise MalformedSnapshot(f"relation {rel.key} appears twice")
            refusal = store._group_refusal(rel.conflict_group, None, rel.subject, rel.object)
            if refusal:
                raise MalformedSnapshot(f"relation {rel.key}: {refusal}")
            store._add_relation(rel)
        for key, text in _OBSERVATIONS.records(doc):
            try:
                Observation.validate(_ObservationRecord(key, text))
            except InvalidObservation as exc:
                raise MalformedSnapshot(f"observation record: {exc}") from exc
            entity = store._entities.get(key)
            if entity is None:
                raise MalformedSnapshot(f"observation names unknown entity {key!r}")
            if text not in entity.observations:
                entity.observations.append(text)
        listed: dict[str, set[RelationKey]] = {}
        for gid, relations in _CONFLICT_GROUPS.records(doc):
            if gid in listed:
                raise MalformedSnapshot(f"conflict group {gid!r} appears twice")
            for member in relations:
                if not (len(member) == 3 and all(isinstance(part, str) for part in member)):
                    raise MalformedSnapshot(f"conflict group {gid!r} member {member!r:.80} "
                                            "is not a [subject, predicate, object] triple")
            listed[gid] = set(map(tuple, relations))
        for gid in sorted(listed.keys() | store._group_pairs.keys()):
            if gid not in store._group_pairs or listed.get(gid) != set(store._members(gid)):
                raise MalformedSnapshot(
                    f"conflict group {gid!r} is not listed with exactly the relations that name it")
        return store


# Records per `fh.write` when a snapshot is written.
_CHUNK = 512

_quote = json.encoder.encode_basestring_ascii


def _array(items: list[str], indent: str) -> str:
    """A JSON array of already-encoded `items`, laid out as `indent=2` lays it out at `indent`."""
    if not items:
        return "[]"
    pad = f"\n{indent}  "
    return f"[{pad}{(',' + pad).join(items)}\n{indent}]"


# Each field type encoded as `indent=2` lays it out as the value of a record field.
_ENCODERS = {
    _STR: _quote,
    _STR_OR_NULL: lambda value: "null" if value is None else _quote(value),
    _LIST_OF_STR: lambda value: _array(list(map(_quote, value)), "      "),
    _LIST_OF_LISTS: lambda value: _array(
        [_array(list(map(_quote, item)), "        ") for item in value], "      "),
}


def _record_writer(shape: Shape):
    """The formatter of a list of records of `shape`, their fields in sorted key order.

    A record's attributes are named as the shape's fields. The formatter
    encodes a field's values a column at a time and joins each record from
    its keys and values, so per record only the null and list encoders run in
    Python.
    """
    columns, lead = [], "    {\n"
    for name in sorted(shape.fields):
        key = f"{lead}      {_quote(name)}: "
        columns.append((key, attrgetter(name), _ENCODERS[shape.fields[name]]))
        lead = ",\n"

    def write(records: list) -> str:
        parts = []
        for key, get, encode in columns:
            parts += (repeat(key), map(encode, map(get, records)))
        return ",\n".join(map("".join, zip(*parts, repeat("\n    }"))))
    return write


# The snapshot's sections in sorted key order, each with its records' formatter.
_WRITERS = tuple((section.name, _record_writer(section.shape))
                 for section in sorted(_SECTIONS, key=lambda section: section.name))


def export_graph(store: EvidenceGraphStore, path) -> None:
    """Write the store's snapshot to `path` as one JSON document.

    The records are formatted straight from the store while its lock is held,
    so a snapshot never shows a half-applied batch. The bytes are those of
    `json.dumps(<snapshot>, indent=2, sort_keys=True)`, which for indented
    output runs the pure-Python encoder; here each section's records are
    formatted by its declared shape, strings go through the C string encoder,
    and _CHUNK records go to each `fh.write`. The file is written through
    `biokgr.writing`, so a failed write never leaves a truncated snapshot
    behind.
    """
    with store._lock, writing(path) as fh:
        sections = store._snapshot_sections()
        lead = "{\n"
        for name, format_records in _WRITERS:
            records = sections[name]
            if not records:
                fh.write(f'{lead}  "{name}": []')
            else:
                for start in range(0, len(records), _CHUNK):
                    head = f'{lead}  "{name}": [\n' if start == 0 else ",\n"
                    fh.write(head + format_records(records[start:start + _CHUNK]))
                fh.write("\n  ]")
            lead = ",\n"
        fh.write("\n}")


def import_graph(path) -> EvidenceGraphStore:
    """Load the snapshot that :func:`export_graph` wrote to `path`.

    The JSON load and the rebuild run with the cyclic garbage collector held
    off. Together they allocate a few containers per record (the parsed
    document's and the rebuilt store's) and free none of them while they run,
    so every collection those allocations would trigger finds no garbage: on a
    store of 6.6k entities and 11.8k relations that was about 185 collections
    per import. The collector's state is restored on return and on every
    exception.

    Raises WorkspaceUnavailable when the file cannot be read and
    MalformedSnapshot when it is not a valid snapshot.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = parse_json(read_text(path))
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
            raise MalformedSnapshot(f"snapshot {path} is not valid JSON: {exc}") from exc
        return EvidenceGraphStore.from_document(doc)
    finally:
        if collecting:
            gc.enable()
