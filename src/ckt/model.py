"""Domain types shared between extraction, history mining, and graph building."""

from __future__ import annotations

from dataclasses import dataclass, field

from ckt.errors import ConflictError
from ckt.ids import ENTITY_KINDS, comment_id

KNOWLEDGE_SOURCES = frozenset(
    ["source-code", "comment", "version-tracker", "bug-tracker", "trace"]
)

TRACE_EVENT_KINDS = frozenset(
    ["enter", "exit", "read", "write", "acquire", "release", "thread_create"]
)


@dataclass(frozen=True)
class Span:
    """1-based inclusive line range within a file."""

    path: str
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"span start {self.start} > end {self.end}")


@dataclass
class Entity:
    """An addressable subject: code element, bug, commit, developer, concept."""

    id: str
    kind: str
    label: str
    span: Span | None = None
    attrs: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ENTITY_KINDS:
            raise ValueError(f"unknown entity kind: {self.kind!r}")


@dataclass
class Relation:
    """A candidate edge emitted by an extractor, prior to graph insertion.

    `origin` is the 1-based line of the emitting record (source line for
    parsed code, document line for loaded facts); relations are multiset
    valued so repeated call sites stay distinct.
    """

    subj: str
    pred: str
    obj: str
    origin: int = 0
    attrs: dict[str, str] = field(default_factory=dict)

    def key(self) -> tuple[str, str, str]:
        return (self.subj, self.pred, self.obj)


@dataclass
class KnowledgePrimitive:
    """One atomic unit of extracted knowledge with source provenance."""

    payload: Entity | Relation
    source: str
    origin: str

    def __post_init__(self):
        if self.source not in KNOWLEDGE_SOURCES:
            raise ValueError(f"unknown knowledge source: {self.source!r}")


class FactSet:
    """Entities plus relation primitives extracted from one or more inputs.

    Equality compares the entity table and the relation multiset on
    (subj, pred, obj, attrs); origins are bookkeeping and excluded so a
    serialize/load round trip through the neutral facts format is identity.

    `relations` may only grow through add_relation and merge, which keep
    the subject index behind relations_from in step with it.
    """

    def __init__(self):
        self.entities: dict[str, Entity] = {}
        self.relations: list[Relation] = []
        self._by_subj: dict[str, list[Relation]] = {}

    def add_entity(self, entity: Entity, *, merge: bool = False) -> Entity:
        """Register an entity; re-adding an identical one is a no-op.

        With merge=False a differing duplicate raises ConflictError; with
        merge=True missing attrs are filled in from the newcomer instead.
        """
        existing = self.entities.get(entity.id)
        if existing is None:
            self.entities[entity.id] = entity
            return entity
        if existing.kind == entity.kind and existing.span == entity.span and existing.attrs == entity.attrs:
            return existing
        if merge:
            for k, v in entity.attrs.items():
                existing.attrs.setdefault(k, v)
            if existing.span is None:
                existing.span = entity.span
            return existing
        raise ConflictError(
            f"entity {entity.id} re-declared with conflicting content: "
            f"{existing.kind}/{existing.span}/{existing.attrs} vs "
            f"{entity.kind}/{entity.span}/{entity.attrs}"
        )

    def add_relation(self, relation: Relation) -> None:
        self.relations.append(relation)
        self._by_subj.setdefault(relation.subj, []).append(relation)

    def merge(self, other: FactSet) -> None:
        """Union in another fact set; conflicting entity declarations raise."""
        for eid in sorted(other.entities):
            self.add_entity(other.entities[eid])
        for rel in other.relations:
            self.add_relation(rel)

    def relations_from(self, subj: str) -> list[Relation]:
        """Relations whose subject is `subj`, in insertion order."""
        return self._by_subj.get(subj, [])

    def sorted_entities(self) -> list[Entity]:
        return [self.entities[eid] for eid in sorted(self.entities)]

    def sorted_relations(self) -> list[Relation]:
        return sorted(
            self.relations,
            key=lambda r: (r.subj, r.pred, r.obj, sorted(r.attrs.items()), r.origin),
        )

    def primitives(self, source: str, origin_name: str):
        """Iterate the fact set as provenance-tagged knowledge primitives."""
        for entity in self.sorted_entities():
            line = entity.span.start if entity.span else 0
            yield KnowledgePrimitive(entity, source, f"{origin_name}:{line}")
        for rel in self.sorted_relations():
            yield KnowledgePrimitive(rel, source, f"{origin_name}:{rel.origin}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactSet):
            return NotImplemented
        if self.entities != other.entities:
            return False
        mine = sorted((r.subj, r.pred, r.obj, tuple(sorted(r.attrs.items()))) for r in self.relations)
        theirs = sorted((r.subj, r.pred, r.obj, tuple(sorted(r.attrs.items()))) for r in other.relations)
        return mine == theirs

    def __repr__(self) -> str:
        return f"FactSet(entities={len(self.entities)}, relations={len(self.relations)})"


@dataclass
class Comment:
    """One extracted comment with normalized tokens."""

    text: str
    span: Span
    style: str  # "line" | "block"
    tokens: list[str] = field(default_factory=list)
    attrs: dict[str, str] = field(default_factory=dict)

    @property
    def id(self) -> str:
        return comment_id(self.span.path, self.span.start)


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    tid: int
    kind: str
    target: str

    def __post_init__(self):
        if self.kind not in TRACE_EVENT_KINDS:
            raise ValueError(f"unknown trace event kind: {self.kind!r}")


@dataclass
class TraceLog:
    """Ordered runtime events plus the set of thread ids seen."""

    events: list[TraceEvent] = field(default_factory=list)
    threads: set[int] = field(default_factory=set)
    warnings: list[str] = field(default_factory=list)
    name: str = "trace"

    def locks(self) -> set[str]:
        return {e.target for e in self.events if e.kind == "acquire"}
