"""The knowledge graph: indexed triple storage with provenance, analytics,
and flat-file persistence.

A triple is its key, the tuple (subject, predicate, object).  The graph
holds the keys once, in one provenance table (key -> the sources that
asserted it), and sorts them into SPO, POS and OSP indexes; a lookup
yields keys straight from an index.  Triples are set-valued: re-inserting
an existing triple appends provenance.  After ``finalize()`` the graph is
immutable and safe for concurrent readers; analytics (PageRank, triangle
counts) operate on the frozen triple set.

A graph directory ends with graph.json, the SHA-256 of each of its other
files: save_graph writes it last, and load_graph trusts files that match
it and checks every record of any other.
"""

from __future__ import annotations

import bisect
import gc
import io
import json
import math
import os
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from ckt import ids
from ckt.errors import CktError, FormatError, NotFoundError
from ckt.model import Entity, Span
from ckt.textio import json_records, json_value, utf8_lines

# The interpreter's own SHA-256, in _sha2 from Python 3.12 and in _sha256
# before: hashlib's, from OpenSSL, hashes faster but adds about 4 MB of
# resident memory to each process that imports it.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # an interpreter built without it
        from hashlib import sha256 as _sha256

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
        sources: dict[Key, list[Provenance] | str],
        ranks: dict[str, float] | None = None,
        spo: list[Key] | None = None,
    ):
        """The graph owns `entities` and `sources` (the table of every
        triple's key and the sources that asserted it), which no one may
        change after.  A loaded graph may hold a key's sources as the JSON
        text of its triples.tsv line, decoded by `sources()` on first use.
        `ranks`, when given, are the default-parameter PageRank scores of
        this graph, as `save_graph` persisted them; `spo`, when given, is
        every key of `sources` in ascending order."""
        self.entities = entities
        self._sources = sources
        self._spo = sorted(sources) if spo is None else spo
        self._rank_cache = ranks
        self._folded: dict[str, tuple[str, tuple[str, ...]]] = {}

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
        return key in self._sources

    def triples(self):
        """Every key in (subject, predicate, object) order."""
        return iter(self._spo)

    def sources(self, key: Key) -> list[Provenance]:
        """The sources that asserted the triple `key`, in the order they
        did; KeyError when the graph lacks it.  A trusted load keeps each
        list as its line's JSON text, decoded here once: a bad list raises
        FormatError with that line, the key's place in SPO order."""
        provs = self._sources[key]
        if isinstance(provs, str):
            lineno = bisect.bisect_left(self._spo, key) + 1
            provs = self._sources[key] = list(_provenance_list(provs, lineno))
        return provs

    def folded(self, entity_id: str) -> tuple[str, tuple[str, ...]] | None:
        """The entity's label and each `key=value` of its attributes, lower
        cased, for case-blind matching; None for an unknown id.  Each
        entity's pair is made on first use and kept."""
        folded = self._folded.get(entity_id)
        if folded is None:
            entity = self.entities.get(entity_id)
            if entity is None:
                return None
            folded = self._folded[entity_id] = (
                entity.label.lower(), tuple(f"{k}={v}".lower() for k, v in entity.attrs.items()))
        return folded

    def rank_table(self) -> Mapping[str, float]:
        """The default-parameter PageRank scores, computed on first use,
        as a read-only view rather than the copy `pagerank()` returns."""
        if self._rank_cache is None:
            self._rank_cache = self.pagerank()
        return MappingProxyType(self._rank_cache)

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
            if (s, p, o) in self._sources:
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
        sources = {
            key: self.sources(key)
            for key in self._spo
            if key[0] in reached
            and key[1] not in LITERAL_PREDICATES
            and key[2] in reached
        }
        return KnowledgeGraph(entities, sources)


# -- persistence ---------------------------------------------------------

NODES_FILE = "nodes.jsonl"
TRIPLES_FILE = "triples.tsv"
RANKS_FILE = "ranks.tsv"
# what `ckt build` writes beside the graph in the same directory
STATS_FILE = "stats.json"
REPORT_FILE = "report.json"
TRACE_COPY = "trace.jsonl"
TEMPLATES_COPY = "templates.jsonl"
# written last: the format version and the SHA-256 of each file above
GRAPH_MANIFEST = "graph.json"
FORMAT_VERSION = 1


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


def _entity_record(doc: dict, name: str, lineno: int) -> Entity:
    """An entity from its nodes.jsonl or neutral facts record; a bad field
    raises FormatError naming `name` and the line."""
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


def _node_line(entity: Entity) -> str:
    """The entity's nodes.jsonl line: json.dumps's text with sorted keys
    and ASCII escapes, less its encoder per call."""
    attrs = ", ".join(f"{_json_str(k)}: {_json_str(v)}" for k, v in sorted(entity.attrs.items()))
    span = entity.span
    if span is None:
        path = start = end = "null"
    else:
        path, start, end = _json_str(span.path), span.start, span.end
    return (f'{{"attrs": {{{attrs}}}, "end": {end}, "id": {_json_str(entity.id)}, '
            f'"kind": {_json_str(entity.kind)}, "label": {_json_str(entity.label)}, '
            f'"path": {path}, "start": {start}}}')


def _provenance_json(provenance: tuple[Provenance, ...]) -> str:
    """The provenance list as JSON with sorted keys and ASCII escapes, and
    `detail` only when set: json.dumps's text, less its encoder per call."""
    docs = []
    for p in provenance:
        detail = f'"detail": {_json_str(p.detail)}, ' if p.detail else ""
        docs.append(f'{{{detail}"origin": {_json_str(p.origin)}, "source": {_json_str(p.source)}}}')
    return f"[{', '.join(docs)}]"


def _text(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _replace(path: Path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path` and rename it over
    `path`, so that no reader finds the file half written."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_graph(graph: KnowledgeGraph, directory, extra: dict[str, bytes] | None = None) -> None:
    """Write the graph directory: the nodes, triples and PageRank files,
    sorted, LF-terminated, UTF-8, then the `extra` files (name -> bytes)
    that `ckt build` puts beside them, then graph.json.  Ranks are written
    with repr, which round-trips every float.

    Each file is written under a temporary name and renamed into place.
    graph.json, which gives the format version and each file's SHA-256,
    comes last and replaces the old one without removing it first, so a
    reader never finds a directory without one; a reader that runs during
    the rewrite finds bytes that its graph.json does not describe, and
    load_graph says so.  A trace or template copy that this save does not
    write is removed before graph.json is replaced."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digests: dict[str, str] = {}

    def put(name: str, data: bytes) -> None:
        _replace(directory / name, data)
        digests[name] = _sha256(data).hexdigest()

    put(NODES_FILE, _text(_node_line(graph.entities[eid]) for eid in sorted(graph.entities)))
    put(TRIPLES_FILE, _text(f"{s}\t{p}\t{o}\t{_provenance_json(graph.sources((s, p, o)))}"
                            for s, p, o in graph.triples()))
    rank = graph.pagerank()
    put(RANKS_FILE, _text(f"{eid}\t{rank[eid]!r}" for eid in sorted(rank)))
    for name, data in sorted((extra or {}).items()):
        put(name, data)
    for name in (TRACE_COPY, TEMPLATES_COPY):
        if name not in digests:
            (directory / name).unlink(missing_ok=True)
    manifest = {"format": FORMAT_VERSION, "sha256": dict(sorted(digests.items()))}
    _replace(directory / GRAPH_MANIFEST, (json.dumps(manifest, indent=2) + "\n").encode("ascii"))


def load_graph(directory, copies: dict[str, bytes | None] | None = None) -> KnowledgeGraph:
    """Read a graph that save_graph wrote, PageRank scores included.

    Each file is read once; the bytes read are hashed and parsed.  The
    load takes one of three paths:
    - every digest in graph.json matches: the bytes are what save_graph
      wrote, so the load checks only that kinds and predicates are known,
      that both ends of each triple are nodes and that each node has one
      finite rank, and keeps each triple's sources as JSON text for
      KnowledgeGraph.sources.  Should any of that fail, or the node ids,
      the keys or the rank ids not ascend, the validating load reads the
      same bytes instead and gives its verdict;
    - no graph.json (a directory written before there was one, or by
      hand): the validating load;
    - a digest differs: the validating load raises FormatError for a bad
      line it finds; else FormatError names the file at its line in
      graph.json, which the directory's other files no longer match.
      That is a hand edit, or a read while a build rewrote the directory.

    `copies` maps the names of other files of the directory that the
    caller has read to their bytes, or to None for one it found absent;
    each is checked against the same graph.json.
    """
    directory = Path(directory)
    data: dict[str, bytes] = {}
    for name in (NODES_FILE, TRIPLES_FILE, RANKS_FILE):
        try:
            data[name] = (directory / name).read_bytes()
        except FileNotFoundError:
            pass
    missing = [name for name in (NODES_FILE, TRIPLES_FILE, RANKS_FILE) if name not in data]
    if missing:
        raise NotFoundError(f"no graph found in {directory}: missing {', '.join(missing)}")
    try:
        manifest = (directory / GRAPH_MANIFEST).read_bytes()
    except FileNotFoundError:
        return _validated_graph(data)
    changed = _changed_file(manifest, {**data, **(copies or {})})
    if changed is None:
        try:
            return _trusted_graph(data)
        except Exception:  # what a forged graph.json let through: the validating load decides
            pass
    graph = _validated_graph(data)
    if changed is not None:
        raise _changed_error(manifest, changed)
    return graph


def check_files(directory, files: dict[str, bytes | None]) -> None:
    """Raise FormatError, as load_graph does, naming the first of `files`
    (name -> the bytes read, or None for a file found absent) that the
    directory's graph.json does not vouch for; a directory without
    graph.json passes."""
    try:
        manifest = (Path(directory) / GRAPH_MANIFEST).read_bytes()
    except FileNotFoundError:
        return
    changed = _changed_file(manifest, files)
    if changed is not None:
        raise _changed_error(manifest, changed)


def _changed_file(manifest: bytes, files: dict[str, bytes | None]) -> str | None:
    """The first of `files` whose digest differs from graph.json's, or that
    graph.json lists and the directory lacks, or the other way round."""
    digests = _manifest_digests(manifest)
    for name, blob in files.items():
        if blob is None:
            changed = name in digests
        else:
            changed = digests.get(name) != _sha256(blob).hexdigest()
        if changed:
            return name
    return None


def _changed_error(manifest: bytes, name: str) -> FormatError:
    text = manifest.decode("utf-8", "replace").split("\n")
    line = next((i for i, x in enumerate(text, start=1) if f'"{name}"' in x), 1)
    return FormatError(f"{GRAPH_MANIFEST}: {name} does not match its SHA-256 here; "
                       "it changed after the build, or a build rewrote it while it was read", line)


def _manifest_digests(manifest: bytes) -> dict:
    """The file -> SHA-256 table of a graph.json."""
    try:
        doc = json.loads(manifest)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise FormatError(f"{GRAPH_MANIFEST}: invalid JSON: {exc}",
                          getattr(exc, "lineno", 1)) from exc
    version = doc.get("format") if isinstance(doc, dict) else None
    if type(version) is not int or version != FORMAT_VERSION \
            or not isinstance(doc.get("sha256"), dict):
        raise FormatError(f"{GRAPH_MANIFEST}: expected format {FORMAT_VERSION} with a "
                          '"sha256" table of files', 1)
    return doc["sha256"]


def _lf_lines(data: bytes) -> io.TextIOWrapper:
    """The lines of a file that save_graph wrote, each with its LF, decoded
    as they are read; a CR, which a text-mode read takes for a line break,
    or a last line without its LF raises ValueError."""
    if b"\r" in data or not data.endswith(b"\n") and data:
        raise ValueError("not a graph file that save_graph wrote")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")


_RAW_DECODE = json.JSONDecoder().raw_decode
_PREDICATE = {p: p for p in PREDICATES}


def _trusted_graph(data: dict[str, bytes]) -> KnowledgeGraph:
    """The graph from bytes that graph.json vouches for, with the cheap
    checks only.  Every other departure from what save_graph writes
    raises, so what this returns equals the validating load of the same
    bytes, once each key's sources are decoded.  The keys reuse each
    node's id string rather than keep the copies split off their lines."""
    entities: dict[str, Entity] = {}
    last = ""
    with _lf_lines(data[NODES_FILE]) as lines:
        for line in lines:
            doc, stop = _RAW_DECODE(line)
            eid, label, attrs, path = doc["id"], doc["label"], doc["attrs"], doc["path"]
            if stop != len(line) - 1 or not eid > last or type(label) is not str \
                    or type(attrs) is not dict:
                raise ValueError(line)
            for value in attrs.values():
                if type(value) is not str:
                    raise ValueError(line)
            start, end = doc["start"], doc["end"]
            if path is None:
                if start is not None or end is not None:
                    raise ValueError(line)
                span = None
            elif type(path) is str and type(start) is int and type(end) is int:
                span = Span(path, start, end)
            else:
                raise ValueError(line)
            entities[eid] = Entity(eid, doc["kind"], label, span, attrs)
            last = eid
    canonical = {eid: eid for eid in entities}
    sources: dict[Key, str] = {}
    n = 0
    with _lf_lines(data[TRIPLES_FILE]) as lines:
        for n, line in enumerate(lines, start=1):
            s, p, o, provs = line.split("\t")
            if p not in LITERAL_PREDICATES:
                o = canonical[o]
            elif ids.kind_of(o) is not None:
                raise ValueError(line)
            sources[canonical[s], _PREDICATE[p], o] = provs[:-1]
    spo = list(sources)
    if len(spo) != n or spo != sorted(spo):  # the keys must ascend strictly
        raise ValueError("triples out of order")
    ranks: dict[str, float] = {}
    with _lf_lines(data[RANKS_FILE]) as lines:
        for line, eid in zip(lines, entities, strict=True):
            rank_id, _, value = line.partition("\t")
            rank = float(value)
            if rank_id != eid or not math.isfinite(rank):
                raise ValueError(line)
            ranks[eid] = rank
    return KnowledgeGraph(entities, sources, ranks, spo)


def _validated_graph(data: dict[str, bytes]) -> KnowledgeGraph:
    """The graph from the three files' bytes, every record checked as
    GraphBuilder would check it, each triple put in through the builder's
    insertion rule; a bad record raises FormatError with its file and
    line.  Ids that triples.tsv uses but nodes.jsonl lacks are registered
    under their inferred kind, a repeated node keeps its first record, and
    a repeated triple adds its provenance."""
    entities: dict[str, Entity] = {}
    for lineno, doc in json_records(utf8_lines(NODES_FILE, data[NODES_FILE]), NODES_FILE):
        entity = _entity_record(doc, NODES_FILE, lineno)
        entities.setdefault(entity.id, entity)
    sources = _load_triples(utf8_lines(TRIPLES_FILE, data[TRIPLES_FILE]), entities)
    ranks = _load_ranks(utf8_lines(RANKS_FILE, data[RANKS_FILE]), entities)
    return KnowledgeGraph(entities, sources, ranks)


def _load_triples(lines, entities: dict[str, Entity]) -> dict[Key, list[Provenance]]:
    sources: dict[Key, list[Provenance]] = {}
    # triples often repeat a provenance list: decode each distinct one once
    # and share its immutable records
    decoded: dict[str, tuple[Provenance, ...]] = {}
    for lineno, raw in enumerate(lines, start=1):
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
            _insert(entities, sources, s, p, o, provs)
        except CktError as exc:
            raise FormatError(f"{exc} in {TRIPLES_FILE}", lineno) from exc
    return sources


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


def _load_ranks(lines, entities: dict[str, Entity]) -> dict[str, float]:
    ranks: dict[str, float] = {}
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
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

