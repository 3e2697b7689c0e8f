"""Domain types shared between extraction, history mining, and graph building."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ckt.errors import ConflictError
from ckt.ids import ENTITY_KINDS, comment_id

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
class Lockset:
    """Eraser's record of one variable: the candidate lockset (the locks
    held at every access so far), the access seqs, the accessing threads
    and whether any access wrote."""

    candidate: set[str]
    accesses: list[int] = field(default_factory=list)
    tids: set[int] = field(default_factory=set)
    wrote: bool = False


@dataclass
class TraceReplay:
    """What one pass over a trace's events yields."""

    dangling: list[int] = field(default_factory=list)  # positions of releases without acquire
    guards: dict[tuple[str, str], set[str]] = field(default_factory=dict)  # (func, var) -> locks
    depths: dict[str, int] = field(default_factory=dict)  # deepest enter nesting per function
    locksets: dict[str, Lockset] = field(default_factory=dict)  # per read/written variable
    thread_roots: set[str] = field(default_factory=set)  # thread_create targets


@dataclass
class TraceLog:
    """Ordered runtime events; `replay` walks them once, on first use."""

    events: list[TraceEvent] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    name: str = "trace"

    @cached_property
    def replay(self) -> TraceReplay:
        """One Eraser-style lockset pass (Savage et al., TOCS 1997).

        Per thread it keeps a count of each held lock and a call stack; per
        (function, thread) an enter/exit depth.  A release on a count of 0
        is dangling and ignored, an exit pops the stack top whatever its
        target, and a depth never goes below 0.  An access inside a
        function with locks held guards the variable there.
        """
        out = TraceReplay()
        held: dict[int, dict[str, int]] = {}  # tid -> lock -> count, counts > 0
        stacks: dict[int, list[str]] = {}
        depth: dict[tuple[str, int], int] = {}
        for pos, ev in enumerate(self.events):
            kind, tid, target = ev.kind, ev.tid, ev.target
            if kind == "enter":
                stacks.setdefault(tid, []).append(target)
                n = depth[target, tid] = depth.get((target, tid), 0) + 1
                if n > out.depths.get(target, 0):
                    out.depths[target] = n
            elif kind == "exit":
                stack = stacks.get(tid)
                if stack:
                    stack.pop()
                n = depth.get((target, tid), 0)
                if n:
                    depth[target, tid] = n - 1
            elif kind == "acquire":
                counts = held.setdefault(tid, {})
                counts[target] = counts.get(target, 0) + 1
            elif kind == "release":
                counts = held.get(tid, {})
                n = counts.get(target, 0)
                if n == 0:
                    out.dangling.append(pos)
                elif n == 1:
                    del counts[target]
                else:
                    counts[target] = n - 1
            elif kind == "thread_create":
                out.thread_roots.add(target)
            else:  # read or write
                locks = set(held.get(tid, ()))
                rec = out.locksets.get(target)
                if rec is None:
                    rec = out.locksets[target] = Lockset(locks)
                else:
                    rec.candidate &= locks
                rec.accesses.append(ev.seq)
                rec.tids.add(tid)
                rec.wrote = rec.wrote or kind == "write"
                if locks and stacks.get(tid):
                    out.guards.setdefault((stacks[tid][-1], target), set()).update(locks)
        return out
