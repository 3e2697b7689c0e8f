"""The knowledge graph: indexed triple storage with provenance, analytics,
and flat-file persistence.

Triples are set-valued on (subject, predicate, object); re-inserting an
existing triple appends provenance.  After ``finalize()`` the graph is
immutable and safe for concurrent readers; analytics (PageRank, triangle
counts) operate on the frozen triple set.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from ckt import ids
from ckt.errors import CktError, FormatError, NotFoundError
from ckt.model import Entity, Span
from ckt.textio import utf8_lines

PREDICATES = frozenset(
    [
        "declares", "calls", "reads", "writes", "has-type", "member-of",
        "documented-by", "mentions", "fixes", "touches", "authored-by",
        "assigned-to", "classified-as", "starts-thread", "guards", "precedes",
    ]
)

# Predicates whose object is a literal string rather than an entity id.
LITERAL_PREDICATES = frozenset(["has-type"])


def is_literal_object(predicate: str) -> bool:
    return predicate in LITERAL_PREDICATES


@dataclass(frozen=True)
class Provenance:
    """Which knowledge source asserted a triple, and where."""

    source: str
    origin: str
    detail: str = ""

    def to_json(self) -> dict:
        doc = {"source": self.source, "origin": self.origin}
        if self.detail:
            doc["detail"] = self.detail
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> Provenance:
        return cls(str(doc["source"]), str(doc["origin"]), str(doc.get("detail", "")))


@dataclass
class Triple:
    subject: str
    predicate: str
    object: str
    provenance: list[Provenance] = field(default_factory=list)

    def key(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)


def _register(entities: dict[str, Entity], entity_id: str) -> None:
    """Register an unknown id under the kind its prefix names."""
    if entity_id in entities:
        return
    kind = ids.kind_of(entity_id)
    if kind is None:
        raise CktError(f"cannot infer kind for id {entity_id!r}; register it first")
    _, _, rest = entity_id.partition(":")
    entities[entity_id] = Entity(entity_id, kind, rest.rpartition("#")[2] or rest)


def _register_ends(entities: dict[str, Entity], subject: str, predicate: str, object_: str) -> None:
    """Register a triple's subject, and its object unless the predicate
    takes a literal, which must then not look like an entity id."""
    _register(entities, subject)
    if not is_literal_object(predicate):
        _register(entities, object_)
    elif ids.kind_of(object_) is not None:
        raise CktError(f"literal expected for predicate {predicate!r}, got entity id {object_!r}")


class GraphBuilder:
    """Single-writer accumulation phase; finalize() yields the immutable graph."""

    def __init__(self):
        self._entities: dict[str, Entity] = {}
        self._triples: dict[tuple[str, str, str], Triple] = {}
        self._finalized = False

    def add_entity(self, entity: Entity, *, merge: bool = True) -> None:
        self._check_open()
        existing = self._entities.get(entity.id)
        if existing is None:
            self._entities[entity.id] = entity
            return
        if merge:
            for k, v in entity.attrs.items():
                existing.attrs.setdefault(k, v)
            if existing.span is None:
                existing.span = entity.span
            if existing.attrs.get("missing") == "true" and entity.attrs.get("missing") != "true":
                del existing.attrs["missing"]

    def insert_triple(
        self,
        subject: str,
        predicate: str,
        object_: str,
        provenance: Provenance,
    ) -> Triple:
        """Insert with set semantics; duplicates accumulate provenance."""
        self._check_open()
        if predicate not in PREDICATES:
            raise CktError(f"unknown predicate {predicate!r}")
        for part, name in ((subject, "subject"), (predicate, "predicate"), (object_, "object")):
            if "\t" in part or "\n" in part:
                raise CktError(f"{name} may not contain tabs or newlines: {part!r}")
        _register_ends(self._entities, subject, predicate, object_)
        key = (subject, predicate, object_)
        triple = self._triples.get(key)
        if triple is None:
            triple = Triple(subject, predicate, object_, [provenance])
            self._triples[key] = triple
        else:
            triple.provenance.append(provenance)
        return triple

    def finalize(self) -> KnowledgeGraph:
        self._check_open()
        self._finalized = True
        return KnowledgeGraph(self._entities, self._triples)

    def _check_open(self) -> None:
        if self._finalized:
            raise CktError("graph builder already finalized")


class KnowledgeGraph:
    """Immutable triple collection with SPO/POS/OSP indexes."""

    def __init__(
        self,
        entities: dict[str, Entity],
        triples: dict[tuple[str, str, str], Triple],
        ranks: dict[str, float] | None = None,
    ):
        """`ranks`, when given, are the default-parameter PageRank scores
        of this graph, as `save_graph` persisted them."""
        self._entities = dict(entities)
        self._triples = dict(triples)
        self._spo = sorted(self._triples)
        self._rank_cache = ranks

    # The POS and OSP indexes are sorted on first use, so a graph that is
    # only looked up by subject never pays for them.

    @cached_property
    def _pos(self) -> list[tuple[str, str, str]]:
        return sorted((p, o, s) for (s, p, o) in self._spo)

    @cached_property
    def _osp(self) -> list[tuple[str, str, str]]:
        return sorted((o, s, p) for (s, p, o) in self._spo)

    # -- accessors -----------------------------------------------------

    @property
    def entities(self) -> dict[str, Entity]:
        return self._entities

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise NotFoundError(f"unknown node {entity_id!r}") from None

    def __len__(self) -> int:
        return len(self._triples)

    def triples(self):
        for key in self._spo:
            yield self._triples[key]

    def get(self, subject: str, predicate: str, object_: str) -> Triple | None:
        return self._triples.get((subject, predicate, object_))

    # -- pattern matching ----------------------------------------------

    def match(self, subject: str | None, predicate: str | None, object_: str | None):
        """Iterate triples matching the bound positions; None is a wildcard.

        The most selective index for the wildcard shape is scanned, so
        iteration order is deterministic.
        """
        s, p, o = subject, predicate, object_
        if s is not None and p is not None and o is not None:
            t = self._triples.get((s, p, o))
            if t is not None:
                yield t
            return
        if s is not None and p is not None:
            yield from self._scan(self._spo, (s, p), lambda k: k)
        elif s is not None and o is not None:
            yield from self._scan(self._osp, (o, s), lambda k: (k[1], k[2], k[0]))
        elif s is not None:
            yield from self._scan(self._spo, (s,), lambda k: k)
        elif p is not None and o is not None:
            yield from self._scan(self._pos, (p, o), lambda k: (k[2], k[0], k[1]))
        elif p is not None:
            yield from self._scan(self._pos, (p,), lambda k: (k[2], k[0], k[1]))
        elif o is not None:
            yield from self._scan(self._osp, (o,), lambda k: (k[1], k[2], k[0]))
        else:
            for key in self._spo:
                yield self._triples[key]

    def _scan(self, index: list[tuple[str, str, str]], prefix: tuple, to_spo):
        lo = bisect.bisect_left(index, prefix)
        for i in range(lo, len(index)):
            key = index[i]
            if key[: len(prefix)] != prefix:
                break
            yield self._triples[to_spo(key)]

    # -- edge projections ----------------------------------------------

    def directed_edges(self) -> list[tuple[str, str]]:
        """Deduplicated subject->object pairs over entity-valued triples."""
        seen = set()
        out = []
        for s, p, o in self._spo:
            if is_literal_object(p):
                continue
            if (s, o) not in seen:
                seen.add((s, o))
                out.append((s, o))
        return out

    def undirected_adjacency(self) -> dict[str, set[str]]:
        """Simple undirected projection: direction and parallels collapsed,
        self-loops dropped."""
        adj: dict[str, set[str]] = {eid: set() for eid in self._entities}
        for s, o in self.directed_edges():
            if s != o:
                adj[s].add(o)
                adj[o].add(s)
        return adj

    # -- analytics -------------------------------------------------------

    def pagerank(
        self,
        damping: float = 0.85,
        tol: float = 1e-9,
        max_iter: int = 100,
        on_iteration=None,
    ) -> dict[str, float]:
        """Damped power iteration over the triple direction (subject->object).

        Dangling mass is redistributed uniformly every step, so the scores
        sum to 1 at each iteration.  Results are cached for the default
        parameters.
        """
        default_call = damping == 0.85 and tol == 1e-9 and max_iter == 100 and on_iteration is None
        if default_call and self._rank_cache is not None:
            return dict(self._rank_cache)
        if not 0 < damping < 1:
            raise CktError(f"damping must be in (0,1), got {damping}")
        nodes = sorted(self._entities)
        n = len(nodes)
        if n == 0:
            return {}
        out_edges: dict[str, list[str]] = {u: [] for u in nodes}
        for s, o in self.directed_edges():
            out_edges[s].append(o)
        rank = {u: 1.0 / n for u in nodes}
        if on_iteration is not None:
            on_iteration(dict(rank))
        for _ in range(max_iter):
            dangling = sum(rank[u] for u in nodes if not out_edges[u])
            base = (1.0 - damping) / n + damping * dangling / n
            nxt = {u: base for u in nodes}
            for u in nodes:
                targets = out_edges[u]
                if targets:
                    share = damping * rank[u] / len(targets)
                    for v in targets:
                        nxt[v] += share
            delta = sum(abs(nxt[u] - rank[u]) for u in nodes)
            rank = nxt
            if on_iteration is not None:
                on_iteration(dict(rank))
            if delta < tol:
                break
        total = sum(rank.values())
        rank = {u: r / total for u, r in rank.items()}
        if default_call:
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
        entities = {eid: self._entities[eid] for eid in reached}
        triples = {
            key: self._triples[key]
            for key in self._spo
            if key[0] in reached
            and not is_literal_object(key[1])
            and key[2] in reached
        }
        return KnowledgeGraph(entities, triples)


# -- persistence ---------------------------------------------------------

NODES_FILE = "nodes.jsonl"
TRIPLES_FILE = "triples.tsv"
RANKS_FILE = "ranks.tsv"


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


def _entity_from_json(doc: dict) -> Entity:
    span = None
    if doc.get("path") is not None:
        span = Span(doc["path"], int(doc["start"]), int(doc["end"]))
    return Entity(
        id=str(doc["id"]),
        kind=str(doc["kind"]),
        label=str(doc["label"]),
        span=span,
        attrs={str(k): str(v) for k, v in (doc.get("attrs") or {}).items()},
    )


_DECODER = json.JSONDecoder()


def _json_value(text: str):
    """json.loads(text), minus its per-call overhead when the value spans
    the whole text, as it does in every line save_graph writes."""
    try:
        value, end = _DECODER.raw_decode(text)
    except ValueError:
        end = -1
    return value if end == len(text) else json.loads(text)


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="\n")


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
        f"{t.subject}\t{t.predicate}\t{t.object}\t"
        + json.dumps([p.to_json() for p in t.provenance], sort_keys=True, ensure_ascii=True)
        for t in graph.triples()
    ))
    rank = graph.pagerank()
    _write_lines(directory / RANKS_FILE, (f"{eid}\t{rank[eid]!r}" for eid in sorted(rank)))


def load_graph(directory) -> KnowledgeGraph:
    """Read a graph that save_graph wrote, PageRank scores included.

    Every record is checked as GraphBuilder would check it; a bad one
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
    triples = _load_triples(paths[1], entities)
    return KnowledgeGraph(entities, triples, _load_ranks(paths[2], entities))


def _load_nodes(path: Path) -> dict[str, Entity]:
    entities: dict[str, Entity] = {}
    for lineno, raw in enumerate(utf8_lines(path), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = _json_value(raw)
            if not isinstance(doc, dict):
                raise TypeError(f"expected an object, got {type(doc).__name__}")
            entity = _entity_from_json(doc)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad node record in {NODES_FILE}: {exc}", lineno) from exc
        entities.setdefault(entity.id, entity)
    return entities


def _load_triples(path: Path, entities: dict[str, Entity]) -> dict[tuple[str, str, str], Triple]:
    triples: dict[tuple[str, str, str], Triple] = {}
    # triples often repeat a provenance list: decode each distinct one once
    # and share its frozen records
    provenance: dict[str, tuple[Provenance, ...]] = {}
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
        provs = provenance.get(prov_json)
        if provs is None:
            provs = provenance[prov_json] = _provenance_list(prov_json, lineno)
        if p not in PREDICATES:
            raise FormatError(f"unknown predicate {p!r} in {TRIPLES_FILE}", lineno)
        try:
            _register_ends(entities, s, p, o)
        except CktError as exc:
            raise FormatError(f"{exc} in {TRIPLES_FILE}", lineno) from exc
        triple = triples.get((s, p, o))
        if triple is None:
            triples[(s, p, o)] = Triple(s, p, o, list(provs))
        else:
            triple.provenance.extend(provs)
    return triples


def _provenance_list(text: str, lineno: int) -> tuple[Provenance, ...]:
    try:
        docs = _json_value(text)
        if not isinstance(docs, list):
            raise TypeError(f"expected a list, got {type(docs).__name__}")
        provs = tuple(Provenance.from_json(doc) for doc in docs)
    except (KeyError, TypeError, ValueError) as exc:
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


def graphs_equal(a: KnowledgeGraph, b: KnowledgeGraph) -> bool:
    """Deep equality: entity table, triple set, and provenance lists."""
    if sorted(a.entities) != sorted(b.entities):
        return False
    for eid in a.entities:
        ea, eb = a.entities[eid], b.entities[eid]
        if (ea.kind, ea.label, ea.span, ea.attrs) != (eb.kind, eb.label, eb.span, eb.attrs):
            return False
    keys_a = [t.key() for t in a.triples()]
    keys_b = [t.key() for t in b.triples()]
    if keys_a != keys_b:
        return False
    for key in keys_a:
        if a.get(*key).provenance != b.get(*key).provenance:
            return False
    return True
