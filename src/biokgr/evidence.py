"""Deduplicated evidence-graph memory.

The store is the agent's persistent record of what it has learned: biomedical
entities keyed by canonical identifier, typed relations between them, short
factual observations, and provenance for every node and edge. Writes happen in
merge cycles (batches) that are validated up front and applied atomically;
reads may run concurrently between merges.

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


class RelationNotFound(EvidenceGraphError):
    pass


class MismatchedEndpoints(EvidenceGraphError):
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


class _Refused(NamedTuple):
    """A memoized `EmptyLabel`: only its message, so no traceback is kept."""

    message: str


class _Normalized:
    """Memo of `normalize_label` and `normalize_curie` for one store call.

    Both are pure functions of the string, so a string is normalized once
    however often the call names it. A refused label raises a fresh
    EmptyLabel each time it is named. Instances are local to one call and are
    never kept by the store.
    """

    __slots__ = ("_labels", "_curies")

    def __init__(self) -> None:
        self._labels: dict[str, str | _Refused] = {}
        self._curies: dict[str, str] = {}

    def label(self, raw: str) -> str:
        key = self._labels.get(raw)
        if key is None:
            try:
                key = normalize_label(raw)
            except EmptyLabel as exc:
                key = _Refused(str(exc))
            self._labels[raw] = key
        if isinstance(key, _Refused):
            raise EmptyLabel(key.message)
        return key

    def curie(self, raw: str) -> str:
        key = self._curies.get(raw)
        if key is None:
            key = self._curies[raw] = normalize_curie(raw)
        return key


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
        if self.kind not in ENTITY_KINDS:
            raise InvalidName(f"unknown entity kind {self.kind!r} for {self.name!r}")
        if not name_is_valid(self.name):
            raise InvalidName(
                f"name {self.name!r} violates the {MAX_NAME_WORDS}-word/"
                f"{MAX_NAME_CHARS}-char rule"
            )
        if self.kind == "PAPER" and not self.name.startswith("PMID:"):
            raise InvalidName(f"PAPER entity name must begin with 'PMID:', got {self.name!r}")


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

    @property
    def word_count(self) -> int:
        return len(self.text.split())

    def validate(self) -> None:
        if not self.text.strip():
            raise InvalidObservation(f"empty observation for {self.entity!r}")
        if self.word_count > MAX_OBSERVATION_WORDS:
            raise InvalidObservation(
                f"observation for {self.entity!r} has {self.word_count} words "
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
    edges. A merge therefore costs O(batch) and never rescans the store.
    Within a merge each distinct label or CURIE string is normalized once,
    however often the batch names it, and nothing of that is kept between
    batches. A subgraph read costs the sum of the degrees of the nodes it
    reaches, plus sorting what it returns; it does not depend on the size of
    the store.

    Merges, conflict tagging and every read that iterates the store (subgraph
    queries, listings, stats and snapshots) hold one re-entrant lock, so a
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
        self._label_index: dict[str, dict[str, str]] = {}  # label -> {kind: key}
        self._relations: dict[RelationKey, StoredRelation] = {}
        self._incident: dict[str, set[RelationKey]] = {}
        self._context_edges: dict[str, int] = {}
        self._conflict_groups: dict[str, list[RelationKey]] = {}
        self._conflict_seq = 0

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
        ENTITY_KIND_ORDER.
        """
        return self._resolve(ref, _Normalized())

    def _resolve(self, ref: str, norm: _Normalized) -> str | None:
        if ref in self._entities:
            return ref
        hit = self._curie_index.get(norm.curie(ref))
        if hit:
            return hit
        try:
            by_kind = self._label_index.get(norm.label(ref))
        except EmptyLabel:
            return None
        if not by_kind:
            return None
        return next(by_kind[k] for k in ENTITY_KIND_ORDER if k in by_kind)

    def _match(self, entity: EntityRef, norm: _Normalized) -> str | None:
        """Dedup match: CURIE first, then normalized label within kind."""
        if entity.curie:
            hit = self._curie_index.get(norm.curie(entity.curie))
            if hit:
                return hit
        by_kind = self._label_index.get(norm.label(entity.name))
        return by_kind.get(entity.kind) if by_kind else None

    # -- merge cycle ---------------------------------------------------------

    def upsert_batch(self, batch: MergeBatch) -> MergeReport:
        """Apply one merge cycle atomically.

        The whole batch is validated first; a batch that trips the new-entity
        or new-relation cap is rejected without touching the store. Entities
        that match an existing node (by CURIE, then by normalized label within
        kind) update that node in place instead of creating a duplicate.
        """
        with self._lock:
            for entity in batch.entities:
                entity.validate()
            for relation in batch.relations:
                relation.validate()
            for obs in batch.observations:
                obs.validate()

            norm = _Normalized()
            new_entities = self._count_new_entities(batch.entities, norm)
            if new_entities > MAX_NEW_ENTITIES_PER_BATCH:
                raise BatchLimitExceeded(
                    f"batch introduces {new_entities} new entities "
                    f"(limit {MAX_NEW_ENTITIES_PER_BATCH})"
                )
            new_relations = self._count_new_relations(batch, norm)
            if new_relations > MAX_NEW_RELATIONS_PER_BATCH:
                raise BatchLimitExceeded(
                    f"batch introduces {new_relations} new relations "
                    f"(limit {MAX_NEW_RELATIONS_PER_BATCH})"
                )

            report = MergeReport()
            crossed: set[str] = set()
            for entity in batch.entities:
                self._apply_entity(entity, report, norm)
            for relation in batch.relations:
                self._apply_relation(relation, report, crossed, norm)
            for obs in batch.observations:
                self._apply_observation(obs, report, norm)
            for key in sorted(crossed):
                msg = (
                    f"finding {key!r} carries {self._context_edges[key]} contextual edges "
                    f"(recommended max {MAX_CONTEXT_EDGES_PER_FINDING})"
                )
                report.warnings.append(msg)
                logger.warning(msg)
            return report

    def _count_new_entities(self, entities: tuple[EntityRef, ...], norm: _Normalized) -> int:
        seen: set[tuple[str, str]] = set()
        curies: set[str] = set()
        count = 0
        for entity in entities:
            if self._match(entity, norm) is not None:
                continue
            label_key = (entity.kind, norm.label(entity.name))
            curie_key = norm.curie(entity.curie) if entity.curie else None
            # duplicates inside the batch collapse onto the first occurrence
            if label_key in seen or (curie_key and curie_key in curies):
                continue
            seen.add(label_key)
            if curie_key:
                curies.add(curie_key)
            count += 1
        return count

    def _count_new_relations(self, batch: MergeBatch, norm: _Normalized) -> int:
        # Endpoint resolution can only be approximated before entities are
        # applied; count relations whose triple is not already stored.
        count = 0
        seen: set[tuple[str, str, str]] = set()
        for relation in batch.relations:
            skey = self._resolve_or_raw(relation.subject, norm)
            okey = self._resolve_or_raw(relation.object, norm)
            triple = (skey, relation.predicate, okey)
            if triple in self._relations or triple in seen:
                continue
            seen.add(triple)
            count += 1
        return count

    def _resolve_or_raw(self, ref: str, norm: _Normalized) -> str:
        key = self._resolve(ref, norm)
        if key:
            return key
        try:
            return norm.label(ref)
        except EmptyLabel:
            return ref

    def _apply_entity(self, entity: EntityRef, report: MergeReport, norm: _Normalized) -> None:
        existing_key = self._match(entity, norm)
        if existing_key is not None:
            stored = self._entities[existing_key]
            if entity.curie and not stored.curie:
                stored.curie = entity.curie
                self._curie_index[norm.curie(entity.curie)] = existing_key
            if entity.source not in stored.sources:
                stored.sources.append(entity.source)
            report.merged += 1
            return
        label = norm.label(entity.name)
        curie_key = norm.curie(entity.curie) if entity.curie else None
        self._add_entity(StoredEntity(
            key=f"{entity.kind.lower()}/{label}" if curie_key is None else curie_key,
            name=entity.name,
            kind=entity.kind,
            curie=entity.curie,
            sources=[entity.source],
        ), label, curie_key)
        report.created += 1

    def _add_entity(self, stored: StoredEntity, label: str, curie_key: str | None) -> None:
        """Store and index an entity under its normalized label and CURIE."""
        self._entities[stored.key] = stored
        self._label_index.setdefault(label, {})[stored.kind] = stored.key
        if curie_key is not None:
            self._curie_index[curie_key] = stored.key

    def _apply_relation(self, relation: RelationEdge, report: MergeReport,
                        crossed: set[str], norm: _Normalized) -> None:
        skey = self._resolve(relation.subject, norm)
        okey = self._resolve(relation.object, norm)
        if skey is None or okey is None:
            missing = relation.subject if skey is None else relation.object
            report.rejected += 1
            report.warnings.append(
                f"relation {relation.subject!r} {relation.predicate} "
                f"{relation.object!r} rejected: endpoint {missing!r} unknown"
            )
            return
        triple = (skey, relation.predicate, okey)
        stored = self._relations.get(triple)
        if stored is not None:
            for ev in relation.evidence:
                if ev not in stored.evidence:
                    stored.evidence.append(ev)
            return
        if self._add_relation(StoredRelation(
            subject=skey,
            predicate=relation.predicate,
            object=okey,
            evidence=list(relation.evidence),
            conflict_group=relation.conflict_group,
        )):
            crossed.add(skey)
        if relation.conflict_group is not None:
            self._conflict_groups.setdefault(relation.conflict_group, []).append(triple)
            self._claim_group_id(relation.conflict_group)
        report.relations_added += 1

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

    def _apply_observation(self, obs: Observation, report: MergeReport,
                           norm: _Normalized) -> None:
        key = self._resolve(obs.entity, norm)
        if key is None:
            report.rejected += 1
            report.warnings.append(
                f"observation for unknown entity {obs.entity!r} rejected"
            )
            return
        stored = self._entities[key]
        if obs.text not in stored.observations:
            stored.observations.append(obs.text)

    # -- conflicts ------------------------------------------------------------

    def tag_conflict(self, relation_a: RelationKey, relation_b: RelationKey) -> str:
        """Mark two relations over the same entity pair as conflicting.

        Both relations are retained; they receive a shared group id which is
        reused when either relation is already grouped.
        """
        with self._lock:
            rel_a = self._lookup_relation(relation_a)
            rel_b = self._lookup_relation(relation_b)
            if (rel_a.subject, rel_a.object) != (rel_b.subject, rel_b.object):
                raise MismatchedEndpoints(
                    f"{rel_a.key} and {rel_b.key} do not share endpoints"
                )
            group = rel_a.conflict_group or rel_b.conflict_group
            if group is None:
                self._conflict_seq += 1
                group = f"cg-{self._conflict_seq}"
                self._conflict_groups[group] = []
            members = self._conflict_groups.setdefault(group, [])
            for rel in (rel_a, rel_b):
                rel.conflict_group = group
                if rel.key not in members:
                    members.append(rel.key)
            return group

    def _claim_group_id(self, group: str) -> None:
        """Number the groups `tag_conflict` opens past `group`, when it is a `cg-N` id."""
        m = re.match(r"cg-(\d+)$", group)
        if m:
            self._conflict_seq = max(self._conflict_seq, int(m.group(1)))

    def _lookup_relation(self, ref: RelationKey) -> StoredRelation:
        subject, predicate, object_ = ref
        skey = self.resolve_key(subject) or subject
        okey = self.resolve_key(object_) or object_
        stored = self._relations.get((skey, predicate, okey))
        if stored is None:
            raise RelationNotFound(f"no stored relation {ref!r}")
        return stored

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
                "conflict_groups": len(self._conflict_groups),
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
                _ConflictGroupRecord(gid, members)
                for gid, members in sorted(self._conflict_groups.items())],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "EvidenceGraphStore":
        """Rebuild a store from a parsed snapshot, without lint warnings.

        This is the one checked reader of a snapshot, the document
        `export_graph` writes; a store rebuilt from an exported snapshot
        exports the same bytes.
        Raises MalformedSnapshot when a section or field is missing or
        ill-typed, an entity kind or predicate is outside the vocabulary, a
        relation, observation or conflict group names something not stored, a
        relation's conflict group is not listed, or an entity, relation or
        conflict group appears twice.
        """
        store = cls()
        for values in _ENTITIES.records(doc):
            stored = StoredEntity(*values)
            if stored.kind not in ENTITY_KINDS:
                raise MalformedSnapshot(
                    f"entity {stored.key!r} has unknown kind {stored.kind!r}")
            if stored.key in store._entities:
                raise MalformedSnapshot(f"entity {stored.key!r} appears twice")
            try:
                store._add_entity(stored, normalize_label(stored.name),
                                  normalize_curie(stored.curie) if stored.curie else None)
            except EmptyLabel as exc:
                raise MalformedSnapshot(f"entity {stored.key!r}: {exc}") from exc
        for values in _RELATIONS.records(doc):
            rel = StoredRelation(*values)
            if rel.predicate not in RELATION_PREDICATES:
                raise MalformedSnapshot(f"relation {rel.key} has unknown predicate")
            for endpoint in (rel.subject, rel.object):
                if endpoint not in store._entities:
                    raise MalformedSnapshot(
                        f"relation {rel.key} names unknown entity {endpoint!r}")
            if rel.key in store._relations:
                raise MalformedSnapshot(f"relation {rel.key} appears twice")
            store._add_relation(rel)
        for key, text in _OBSERVATIONS.records(doc):
            entity = store._entities.get(key)
            if entity is None:
                raise MalformedSnapshot(f"observation names unknown entity {key!r}")
            if text not in entity.observations:
                entity.observations.append(text)
        for gid, relations in _CONFLICT_GROUPS.records(doc):
            if gid in store._conflict_groups:
                raise MalformedSnapshot(f"conflict group {gid!r} appears twice")
            members = []
            for member in relations:
                if not (len(member) == 3 and all(isinstance(part, str) for part in member)):
                    raise MalformedSnapshot(f"conflict group {gid!r} member {member!r:.80} "
                                            "is not a [subject, predicate, object] triple")
                if tuple(member) not in store._relations:
                    raise MalformedSnapshot(
                        f"conflict group {gid!r} names unknown relation {member}")
                members.append(tuple(member))
            store._conflict_groups[gid] = members
            store._claim_group_id(gid)
        for rel in store._relations.values():
            if rel.conflict_group is not None and rel.conflict_group not in store._conflict_groups:
                raise MalformedSnapshot(
                    f"relation {rel.key} names unknown conflict group {rel.conflict_group!r}")
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
