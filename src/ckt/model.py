"""Domain types shared between extraction, history mining, and graph building.

The records are named tuples or classes with `__slots__`, not dataclasses:
a query imports this module, and `dataclasses` would bring `inspect` along
with it into every cold query."""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from ckt.errors import ConflictError
from ckt.ids import ENTITY_KINDS, comment_id

TRACE_EVENT_KINDS = frozenset(
    ["enter", "exit", "read", "write", "acquire", "release", "thread_create"]
)


class Record:
    """Equality and repr over the fields a subclass names in `_fields`, as
    a dataclass would give them; like a dataclass with eq, a record is not
    hashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _SpanFields(NamedTuple):
    path: str
    start: int
    end: int


class Span(_SpanFields):
    """1-based inclusive line range within a file."""

    __slots__ = ()

    def __new__(cls, path: str, start: int, end: int):
        if start > end:
            raise ValueError(f"span start {start} > end {end}")
        return tuple.__new__(cls, (path, start, end))


class Entity(Record):
    """An addressable subject: code element, bug, commit, developer, concept."""

    __slots__ = _fields = ("id", "kind", "label", "span", "attrs")

    def __init__(self, id: str, kind: str, label: str, span: Span | None = None,
                 attrs: dict[str, str] | None = None):
        if kind not in ENTITY_KINDS:
            raise ValueError(f"unknown entity kind: {kind!r}")
        self.id = id
        self.kind = kind
        self.label = label
        self.span = span
        self.attrs = {} if attrs is None else attrs


class Relation(Record):
    """A candidate edge emitted by an extractor, prior to graph insertion.

    `origin` is the 1-based line of the emitting record (source line for
    parsed code, document line for loaded facts); relations are multiset
    valued so repeated call sites stay distinct.
    """

    __slots__ = _fields = ("subj", "pred", "obj", "origin", "attrs")

    def __init__(self, subj: str, pred: str, obj: str, origin: int = 0,
                 attrs: dict[str, str] | None = None):
        self.subj = subj
        self.pred = pred
        self.obj = obj
        self.origin = origin
        self.attrs = {} if attrs is None else attrs


class FactSet:
    """Entities plus relation primitives extracted from one or more inputs.

    Equality compares the entity table and the relation multiset on
    (subj, pred, obj, attrs); origins are bookkeeping and excluded so a
    serialize/load round trip through the neutral facts format is identity.

    `relations` may only grow through add_relation and merge, which keep
    the subject index behind relations_from in step with it; `entities`
    only through add_entity and merge, which keep the span path index
    behind entities_in in step with it.
    """

    def __init__(self):
        self.entities: dict[str, Entity] = {}
        self.relations: list[Relation] = []
        self._by_subj: dict[str, list[Relation]] = {}
        self._by_path: dict[str, list[Entity]] = {}

    def add_entity(self, entity: Entity, *, merge: bool = False) -> Entity:
        """Register an entity; re-adding an identical one is a no-op.

        With merge=False a differing duplicate raises ConflictError; with
        merge=True a missing span and missing attrs are filled in from the
        newcomer instead.
        """
        existing = self.entities.get(entity.id)
        if existing is None:
            self.entities[entity.id] = entity
            if entity.span is not None:
                self._by_path.setdefault(entity.span.path, []).append(entity)
            return entity
        if existing.kind == entity.kind and existing.span == entity.span and existing.attrs == entity.attrs:
            return existing
        if merge:
            for k, v in entity.attrs.items():
                existing.attrs.setdefault(k, v)
            if existing.span is None and entity.span is not None:
                existing.span = entity.span
                self._by_path.setdefault(entity.span.path, []).append(existing)
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
        self.relations += other.relations
        for subj, rels in other._by_subj.items():
            self._by_subj.setdefault(subj, []).extend(rels)

    def relations_from(self, subj: str) -> list[Relation]:
        """Relations whose subject is `subj`, in insertion order."""
        return self._by_subj.get(subj, [])

    def entities_in(self, path: str) -> list[Entity]:
        """Entities whose span lies in `path`, in the order they got it."""
        return self._by_path.get(path, [])

    def sorted_entities(self) -> list[Entity]:
        return [self.entities[eid] for eid in sorted(self.entities)]

    def sorted_relations(self) -> list[Relation]:
        return sorted(
            self.relations,
            key=lambda r: (r.subj, r.pred, r.obj, sorted(r.attrs.items()) if r.attrs else [],
                           r.origin),
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


class Comment(Record):
    """One extracted comment with normalized tokens; `id`, which names its
    file and start line, is made once, as a build reads it many times."""

    _fields = ("text", "span", "style", "tokens", "attrs")
    __slots__ = (*_fields, "id")

    def __init__(self, text: str, span: Span, style: str, tokens: list[str] | None = None,
                 attrs: dict[str, str] | None = None):
        self.text = text
        self.span = span
        self.style = style  # "line" | "block"
        self.tokens = [] if tokens is None else tokens
        self.attrs = {} if attrs is None else attrs
        self.id = comment_id(span.path, span.start)


class TraceEvent(NamedTuple):
    """One runtime event; `kind` is one of TRACE_EVENT_KINDS, which
    `load_trace`, the one reader of traces, checks.

    A named tuple rather than a frozen dataclass: a load builds one per
    trace line, and a frozen dataclass sets each field through
    object.__setattr__."""

    seq: int
    tid: int
    kind: str
    target: str


class Lockset(Record):
    """Eraser's record of one variable: the candidate lockset (the locks
    held at every access so far), the access seqs, the accessing threads
    and whether any access wrote."""

    __slots__ = _fields = ("candidate", "accesses", "tids", "wrote")

    def __init__(self, candidate: set[str], accesses: list[int] | None = None,
                 tids: set[int] | None = None, wrote: bool = False):
        self.candidate = candidate
        self.accesses = [] if accesses is None else accesses
        self.tids = set() if tids is None else tids
        self.wrote = wrote


class TraceReplay(Record):
    """What one pass over a trace's events yields."""

    __slots__ = _fields = ("dangling", "guards", "depths", "locksets", "thread_roots")

    def __init__(self):
        self.dangling: list[int] = []  # positions of releases without acquire
        self.guards: dict[tuple[str, str], set[str]] = {}  # (func, var) -> locks
        self.depths: dict[str, int] = {}  # deepest enter nesting per function
        self.locksets: dict[str, Lockset] = {}  # per read/written variable
        self.thread_roots: set[str] = set()  # thread_create targets


class TraceLog(Record):
    """Ordered runtime events; `replay` walks them once, on first use."""

    _fields = ("events", "warnings", "name")  # no __slots__: replay is cached in __dict__

    def __init__(self, events: list[TraceEvent] | None = None,
                 warnings: list[str] | None = None, name: str = "trace"):
        self.events = [] if events is None else events
        self.warnings = [] if warnings is None else warnings
        self.name = name

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
