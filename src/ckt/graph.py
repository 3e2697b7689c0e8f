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
from dataclasses import dataclass, field
from pathlib import Path

from ckt import ids
from ckt.errors import CktError, FormatError, NotFoundError
from ckt.model import Entity, Span

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

    def _auto_register(self, entity_id: str) -> None:
        if entity_id in self._entities:
            return
        kind = ids.kind_of(entity_id)
        if kind is None:
            raise CktError(f"cannot infer kind for id {entity_id!r}; register it first")
        _, _, rest = entity_id.partition(":")
        label = rest.rpartition("#")[2] or rest
        self._entities[entity_id] = Entity(entity_id, kind, label)

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
        self._auto_register(subject)
        if not is_literal_object(predicate):
            self._auto_register(object_)
        elif ids.kind_of(object_) is not None:
            raise CktError(
                f"literal expected for predicate {predicate!r}, got entity id {object_!r}"
            )
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

    def __init__(self, entities: dict[str, Entity], triples: dict[tuple[str, str, str], Triple]):
        self._entities = dict(entities)
        self._triples = dict(triples)
        keys = sorted(self._triples)
        self._spo = keys
        self._pos = sorted((p, o, s) for (s, p, o) in keys)
        self._osp = sorted((o, s, p) for (s, p, o) in keys)
        self._rank_cache: dict[str, float] | None = None

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


def save_graph(graph: KnowledgeGraph, directory) -> None:
    """Write the nodes and triples files, sorted, LF-terminated, UTF-8."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    node_lines = [
        json.dumps(_entity_to_json(graph.entities[eid]), sort_keys=True, ensure_ascii=True)
        for eid in sorted(graph.entities)
    ]
    (directory / NODES_FILE).write_text(
        "".join(line + "\n" for line in node_lines), encoding="utf-8", newline="\n"
    )
    triple_lines = []
    for triple in graph.triples():
        prov = json.dumps([p.to_json() for p in triple.provenance],
                          sort_keys=True, ensure_ascii=True)
        triple_lines.append(f"{triple.subject}\t{triple.predicate}\t{triple.object}\t{prov}")
    (directory / TRIPLES_FILE).write_text(
        "".join(line + "\n" for line in triple_lines), encoding="utf-8", newline="\n"
    )


def load_graph(directory) -> KnowledgeGraph:
    """Rebuild a persisted graph; corrupt lines raise with their line number."""
    directory = Path(directory)
    nodes_path = directory / NODES_FILE
    triples_path = directory / TRIPLES_FILE
    if not nodes_path.exists() or not triples_path.exists():
        raise NotFoundError(f"no graph found in {directory}")
    builder = GraphBuilder()
    with open(nodes_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                builder.add_entity(_entity_from_json(json.loads(raw)), merge=False)
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise FormatError(f"bad node record in {NODES_FILE}: {exc}", lineno) from exc
    with open(triples_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            parts = raw.split("\t")
            if len(parts) != 4:
                raise FormatError(
                    f"expected 4 tab-separated fields in {TRIPLES_FILE}, got {len(parts)}",
                    lineno,
                )
            s, p, o, prov_json = parts
            try:
                prov_list = [Provenance.from_json(d) for d in json.loads(prov_json)]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FormatError(f"bad provenance in {TRIPLES_FILE}: {exc}", lineno) from exc
            if not prov_list:
                raise FormatError(f"empty provenance in {TRIPLES_FILE}", lineno)
            triple = builder.insert_triple(s, p, o, prov_list[0])
            triple.provenance.extend(prov_list[1:])
    return builder.finalize()


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
