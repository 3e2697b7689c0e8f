"""The knowledge graph: indexed triple storage with provenance, analytics,
and flat-file persistence.

A triple is its key, the tuple (subject, predicate, object).  The graph
holds the keys once, in one provenance table (key -> the sources that
asserted it), and sorts them into SPO, POS and OSP indexes; a lookup
yields keys straight from an index.  Triples are set-valued: re-inserting
an existing triple appends provenance.  After ``finalize()`` the graph is
immutable and safe for concurrent readers; analytics (PageRank, triangle
counts) operate on the frozen triple set.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
from collections.abc import Iterable
from contextlib import contextmanager
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import NamedTuple

from ckt import ids
from ckt.errors import CktError, FormatError, NotFoundError
from ckt.model import Entity, Span
from ckt.textio import json_records, json_value, utf8_lines

PREDICATES = frozenset(
    [
        "declares", "calls", "reads", "writes", "has-type", "member-of",
        "documented-by", "mentions", "fixes", "touches", "authored-by",
        "assigned-to", "classified-as", "starts-thread", "guards", "precedes",
    ]
)

# Predicates whose object is a literal string rather than an entity id.
LITERAL_PREDICATES = frozenset(["has-type"])


def call_graph(calls: Iterable[tuple[str, str]]) -> dict[str, list[str]]:
    """Caller -> callees, sorted and without duplicates, from (caller,
    callee) pairs; callers keep the order of their first pair."""
    graph: dict[str, set[str]] = {}
    for caller, callee in calls:
        graph.setdefault(caller, set()).add(callee)
    return {caller: sorted(callees) for caller, callees in graph.items()}


class Provenance(NamedTuple):
    """Which knowledge source asserted a triple, and where.

    A named tuple rather than a frozen dataclass: a load builds thousands,
    and a frozen dataclass sets each field through object.__setattr__."""

    source: str
    origin: str
    detail: str = ""

    @classmethod
    def from_json(cls, doc: dict) -> Provenance:
        return cls(str(doc["source"]), str(doc["origin"]), str(doc.get("detail", "")))


Key = tuple[str, str, str]  # (subject, predicate, object)


def _register(entities: dict[str, Entity], entity_id: str) -> None:
    """Register an unknown id under the kind its prefix names."""
    if entity_id in entities:
        return
    kind = ids.kind_of(entity_id)
    if kind is None:
        raise CktError(f"cannot infer kind for id {entity_id!r}; register it first")
    _, _, rest = entity_id.partition(":")
    entities[entity_id] = Entity(entity_id, kind, rest.rpartition("#")[2] or rest)


def _insert(
    entities: dict[str, Entity],
    provenance: dict[Key, list[Provenance]],
    s: str, p: str, o: str,
    provs: Iterable[Provenance],
) -> None:
    """The insertion rule of the builder and the loader: a known predicate,
    both ends registered (a literal object must not look like an entity
    id), and set semantics, where a repeated triple adds its provenance."""
    if p not in PREDICATES:
        raise CktError(f"unknown predicate {p!r}")
    # with both ends known and an entity object there is nothing to register
    if p in LITERAL_PREDICATES or s not in entities or o not in entities:
        _register(entities, s)
        if p not in LITERAL_PREDICATES:
            _register(entities, o)
        elif ids.kind_of(o) is not None:
            raise CktError(f"literal expected for predicate {p!r}, got entity id {o!r}")
    known = provenance.get((s, p, o))
    if known is None:
        provenance[s, p, o] = list(provs)
    else:
        known.extend(provs)


class GraphBuilder:
    """Single-writer accumulation phase; finalize() yields the immutable graph."""

    def __init__(self):
        self._entities: dict[str, Entity] = {}
        self._provenance: dict[Key, list[Provenance]] = {}
        self._finalized = False

    def add_entity(self, entity: Entity) -> None:
        """Register an entity; the first record for an id is kept, since
        FactSet.add_entity has already merged the extracted ones."""
        self._check_open()
        self._entities.setdefault(entity.id, entity)

    def insert_triple(
        self,
        subject: str,
        predicate: str,
        object_: str,
        provenance: Provenance,
    ) -> None:
        """Insert with set semantics; duplicates accumulate provenance.
        The ends may hold no tab or newline, which would break a line of
        triples.tsv; a known predicate holds neither."""
        self._check_open()
        for part, name in ((subject, "subject"), (object_, "object")):
            if "\t" in part or "\n" in part:
                raise CktError(f"{name} may not contain tabs or newlines: {part!r}")
        _insert(self._entities, self._provenance, subject, predicate, object_, (provenance,))

    def finalize(self) -> KnowledgeGraph:
        self._check_open()
        self._finalized = True
        return KnowledgeGraph(self._entities, self._provenance)

    def _check_open(self) -> None:
        if self._finalized:
            raise CktError("graph builder already finalized")


class KnowledgeGraph:
    """Immutable triple collection with SPO/POS/OSP indexes."""

    def __init__(
        self,
        entities: dict[str, Entity],
        provenance: dict[Key, list[Provenance]],
        ranks: dict[str, float] | None = None,
    ):
        """The graph owns `entities` and `provenance` (the table of every
        triple's key and its sources), which no one may change after.
        `ranks`, when given, are the default-parameter PageRank scores of
        this graph, as `save_graph` persisted them."""
        self.entities = entities
        self.provenance = provenance
        self._spo = sorted(provenance)
        self._rank_cache = ranks

    # The POS and OSP indexes are sorted on first use, so a graph that is
    # only looked up by subject never pays for them.

    @cached_property
    def _pos(self) -> list[Key]:
        return sorted((p, o, s) for (s, p, o) in self._spo)

    @cached_property
    def _osp(self) -> list[Key]:
        return sorted((o, s, p) for (s, p, o) in self._spo)

    # -- accessors -----------------------------------------------------

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise NotFoundError(f"unknown node {entity_id!r}") from None

    def __len__(self) -> int:
        return len(self._spo)

    def __contains__(self, key: Key) -> bool:
        return key in self.provenance

    def triples(self):
        """Every key in (subject, predicate, object) order."""
        return iter(self._spo)

    # -- pattern matching ----------------------------------------------

    def match(self, subject: str | None, predicate: str | None, object_: str | None):
        """Iterate the keys of the triples matching the bound positions;
        None is a wildcard.

        The index whose prefix the bound positions form is scanned, so the
        order is deterministic: (o, s, p) when the object is bound and the
        predicate is not, (p, o, s) when the predicate is bound and the
        subject is not, and (s, p, o) otherwise.
        """
        s, p, o = subject, predicate, object_
        if s is not None and p is not None and o is not None:
            if (s, p, o) in self.provenance:
                yield (s, p, o)
        elif s is not None and o is not None:
            for k in self._scan(self._osp, (o, s)):
                yield (k[1], k[2], k[0])
        elif s is not None:
            yield from self._scan(self._spo, (s,) if p is None else (s, p))
        elif p is not None:
            for k in self._scan(self._pos, (p,) if o is None else (p, o)):
                yield (k[2], k[0], k[1])
        elif o is not None:
            for k in self._scan(self._osp, (o,)):
                yield (k[1], k[2], k[0])
        else:
            yield from self._spo

    @staticmethod
    def _scan(index: list[Key], prefix: tuple):
        lo = bisect.bisect_left(index, prefix)
        for i in range(lo, len(index)):
            key = index[i]
            if key[: len(prefix)] != prefix:
                break
            yield key

    # -- edge projections ----------------------------------------------

    def directed_edges(self) -> list[tuple[str, str]]:
        """Deduplicated subject->object pairs over entity-valued triples."""
        seen = set()
        out = []
        for s, p, o in self._spo:
            if p in LITERAL_PREDICATES:
                continue
            if (s, o) not in seen:
                seen.add((s, o))
                out.append((s, o))
        return out

    def undirected_adjacency(self) -> dict[str, set[str]]:
        """Simple undirected projection: direction and parallels collapsed,
        self-loops dropped."""
        adj: dict[str, set[str]] = {eid: set() for eid in self.entities}
        for s, o in self.directed_edges():
            if s != o:
                adj[s].add(o)
                adj[o].add(s)
        return adj

    # -- analytics -------------------------------------------------------

    def pagerank(self, on_iteration=None) -> dict[str, float]:
        """Damped power iteration over the triple direction (subject->object):
        damping 0.85, at most 100 iterations, stopping once the L1 change
        falls under 1e-9.

        Dangling mass is redistributed uniformly every step, so the scores
        sum to 1 at each iteration.  The result is cached unless
        `on_iteration` observes each iteration's scores.
        """
        if on_iteration is None and self._rank_cache is not None:
            return dict(self._rank_cache)
        damping = 0.85
        nodes = sorted(self.entities)
        n = len(nodes)
        if n == 0:
            return {}
        out_edges: dict[str, list[str]] = {u: [] for u in nodes}
        for s, o in self.directed_edges():
            out_edges[s].append(o)
        rank = {u: 1.0 / n for u in nodes}
        if on_iteration is not None:
            on_iteration(dict(rank))
        for _ in range(100):
            # left-to-right sums: from Python 3.12 on, sum() of floats is
            # compensated, and the ranks would change with the interpreter
            dangling = 0.0
            for u in nodes:
                if not out_edges[u]:
                    dangling += rank[u]
            base = (1.0 - damping) / n + damping * dangling / n
            nxt = {u: base for u in nodes}
            for u in nodes:
                targets = out_edges[u]
                if targets:
                    share = damping * rank[u] / len(targets)
                    for v in targets:
                        nxt[v] += share
            delta = 0.0
            for u in nodes:
                delta += abs(nxt[u] - rank[u])
            rank = nxt
            if on_iteration is not None:
                on_iteration(dict(rank))
            if delta < 1e-9:
                break
        total = 0.0
        for r in rank.values():
            total += r
        rank = {u: r / total for u, r in rank.items()}
        if on_iteration is None:
            self._rank_cache = dict(rank)
        return rank

    def count_triangles(self) -> tuple[dict[str, int], int]:
        """Triangles on the undirected simple projection.

        Returns (per-node counts, total); the total is one third of the
        per-node sum.
        """
        adj = self.undirected_adjacency()
        counts = {u: 0 for u in adj}
        total = 0
        for u in sorted(adj):
            for v in sorted(adj[u]):
                if v <= u:
                    continue
                for w in sorted(adj[u] & adj[v]):
                    if w > v:
                        counts[u] += 1
                        counts[v] += 1
                        counts[w] += 1
                        total += 1
        return counts, total

    def neighborhood(self, node: str, radius: int) -> KnowledgeGraph:
        """Induced subgraph of nodes within undirected distance <= radius."""
        self.entity(node)
        if radius < 0:
            raise CktError(f"radius must be >= 0, got {radius}")
        adj = self.undirected_adjacency()
        reached = {node}
        frontier = [node]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for v in sorted(adj[u]):
                    if v not in reached:
                        reached.add(v)
                        nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        entities = {eid: self.entities[eid] for eid in reached}
        provenance = {
            key: self.provenance[key]
            for key in self._spo
            if key[0] in reached
            and key[1] not in LITERAL_PREDICATES
            and key[2] in reached
        }
        return KnowledgeGraph(entities, provenance)


# -- persistence ---------------------------------------------------------

NODES_FILE = "nodes.jsonl"
TRIPLES_FILE = "triples.tsv"
RANKS_FILE = "ranks.tsv"
# what `ckt build` writes beside the graph in the same directory
STATS_FILE = "stats.json"
REPORT_FILE = "report.json"
TRACE_COPY = "trace.jsonl"
TEMPLATES_COPY = "templates.jsonl"


@contextmanager
def collector_paused():
    """Disable the cyclic garbage collector for the block and then restore
    its state.  A build or a graph load allocates objects by the thousand
    that live to the end of the process and make almost no cyclic garbage,
    so every collection they would trigger walks them for nothing."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _entity_to_json(entity: Entity) -> dict:
    span = entity.span
    return {
        "id": entity.id,
        "kind": entity.kind,
        "label": entity.label,
        "path": span.path if span else None,
        "start": span.start if span else None,
        "end": span.end if span else None,
        "attrs": dict(sorted(entity.attrs.items())),
    }


def _entity_record(doc: dict, name: str, lineno: int) -> Entity:
    """The inverse of _entity_to_json, for nodes.jsonl and neutral facts
    alike; a bad field raises FormatError naming `name` and the line."""
    for field_name in ("id", "kind", "label"):
        value = doc.get(field_name)
        # a label may be empty: a commit with no author names an anonymous developer
        if not isinstance(value, str) or not (value or field_name == "label"):
            raise FormatError(f"{name}: entity record needs string {field_name!r}", lineno)
    kind = doc["kind"]
    if kind not in ids.ENTITY_KINDS:
        raise FormatError(f"{name}: unknown entity kind {kind!r}", lineno)
    span = None
    path, start, end = doc.get("path"), doc.get("start"), doc.get("end")
    if path is not None or start is not None or end is not None:
        if not isinstance(path, str) or start is None or end is None:
            raise FormatError(f"{name}: span needs a string path, a start and an end", lineno)
        try:
            span = Span(path, int(start), int(end))
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{name}: bad span: {exc}", lineno) from exc
    attrs = doc.get("attrs") or {}
    if not isinstance(attrs, dict):
        raise FormatError(f"{name}: attrs must be an object", lineno)
    return Entity(doc["id"], kind, doc["label"], span,
                  {str(k): str(v) for k, v in attrs.items()})


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="\n")


def _provenance_json(provenance: tuple[Provenance, ...]) -> str:
    """The provenance list as JSON with sorted keys and ASCII escapes, and
    `detail` only when set: json.dumps's text, less its encoder per call."""
    docs = []
    for p in provenance:
        detail = f'"detail": {_json_str(p.detail)}, ' if p.detail else ""
        docs.append(f'{{{detail}"origin": {_json_str(p.origin)}, "source": {_json_str(p.source)}}}')
    return f"[{', '.join(docs)}]"


def save_graph(graph: KnowledgeGraph, directory) -> None:
    """Write the nodes, triples and PageRank files, sorted, LF-terminated,
    UTF-8.  Ranks are written with repr, which round-trips every float."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_lines(directory / NODES_FILE, (
        json.dumps(_entity_to_json(graph.entities[eid]), sort_keys=True, ensure_ascii=True)
        for eid in sorted(graph.entities)
    ))
    _write_lines(directory / TRIPLES_FILE, (
        f"{s}\t{p}\t{o}\t{_provenance_json(graph.provenance[s, p, o])}"
        for s, p, o in graph.triples()
    ))
    rank = graph.pagerank()
    _write_lines(directory / RANKS_FILE, (f"{eid}\t{rank[eid]!r}" for eid in sorted(rank)))


def load_graph(directory) -> KnowledgeGraph:
    """Read a graph that save_graph wrote, PageRank scores included.

    Every record is checked as GraphBuilder would check it, and each
    triple goes in through the builder's insertion rule; a bad record
    raises FormatError with its file and line.  Ids that triples.tsv uses
    but nodes.jsonl lacks are registered under their inferred kind, a
    repeated node keeps its first record, and a repeated triple adds its
    provenance.
    """
    directory = Path(directory)
    paths = [directory / name for name in (NODES_FILE, TRIPLES_FILE, RANKS_FILE)]
    missing = [path.name for path in paths if not path.exists()]
    if missing:
        raise NotFoundError(f"no graph found in {directory}: missing {', '.join(missing)}")
    entities = _load_nodes(paths[0])
    provenance = _load_triples(paths[1], entities)
    return KnowledgeGraph(entities, provenance, _load_ranks(paths[2], entities))


def _load_nodes(path: Path) -> dict[str, Entity]:
    entities: dict[str, Entity] = {}
    for lineno, doc in json_records(utf8_lines(path), NODES_FILE):
        entity = _entity_record(doc, NODES_FILE, lineno)
        entities.setdefault(entity.id, entity)
    return entities


def _load_triples(path: Path, entities: dict[str, Entity]) -> dict[Key, list[Provenance]]:
    provenance: dict[Key, list[Provenance]] = {}
    # triples often repeat a provenance list: decode each distinct one once
    # and share its immutable records
    decoded: dict[str, tuple[Provenance, ...]] = {}
    for lineno, raw in enumerate(utf8_lines(path), start=1):
        raw = raw.rstrip("\n")
        if not raw:
            continue
        parts = raw.split("\t")
        if len(parts) != 4:
            raise FormatError(
                f"expected 4 tab-separated fields in {TRIPLES_FILE}, got {len(parts)}", lineno
            )
        s, p, o, prov_json = parts
        provs = decoded.get(prov_json)
        if provs is None:
            provs = decoded[prov_json] = _provenance_list(prov_json, lineno)
        try:
            _insert(entities, provenance, s, p, o, provs)
        except CktError as exc:
            raise FormatError(f"{exc} in {TRIPLES_FILE}", lineno) from exc
    return provenance


def _provenance_list(text: str, lineno: int) -> tuple[Provenance, ...]:
    try:
        docs = json_value(text)
        if not isinstance(docs, list):
            raise TypeError(f"expected a list, got {type(docs).__name__}")
        provs = tuple(Provenance.from_json(doc) for doc in docs)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"bad provenance in {TRIPLES_FILE}: {exc}", lineno) from exc
    if not provs:
        raise FormatError(f"empty provenance in {TRIPLES_FILE}", lineno)
    return provs


def _load_ranks(path: Path, entities: dict[str, Entity]) -> dict[str, float]:
    ranks: dict[str, float] = {}
    lineno = 0
    for lineno, raw in enumerate(utf8_lines(path), start=1):
        raw = raw.rstrip("\n")
        if not raw:
            continue
        eid, sep, value = raw.partition("\t")
        try:
            rank = float(value)
        except ValueError:
            rank = math.nan
        if not sep or not math.isfinite(rank):
            raise FormatError(f"expected <id><TAB><rank> in {RANKS_FILE}, got {raw!r}", lineno)
        if eid not in entities:
            raise FormatError(f"rank for unknown node {eid!r} in {RANKS_FILE}", lineno)
        if eid in ranks:
            raise FormatError(f"second rank for {eid!r} in {RANKS_FILE}", lineno)
        ranks[eid] = rank
    if len(ranks) < len(entities):
        absent = sorted(set(entities) - set(ranks))
        raise FormatError(
            f"{RANKS_FILE} ends without a rank for {len(absent)} node(s), first {absent[0]!r}",
            lineno + 1,
        )
    return ranks

