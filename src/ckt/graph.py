"""The knowledge graph: indexed triple storage, analytics, and flat-file
persistence with provenance.

A triple is its key, the tuple (subject, predicate, object).  The graph
holds columns over numbered terms (see KnowledgeGraph): each key once in
each of three sorted arrays of packed numbers, SPO, POS and OSP, the
nodes' kinds, labels and ranks, and their spans and attributes encoded
until an Entity is read.  A lookup bisects one array and makes key
tuples of only the keys it yields.  The builder keeps the table of the
sources that asserted each key: triples are set-valued, and
re-inserting an existing one appends its provenance.  After
``finalize()`` the graph and the table are immutable, and the graph is
safe for concurrent readers.

PageRank, triangle counts and neighbourhoods run on the dense-id core
that README.md describes under "Graph storage", numbered by the terms.

A graph directory ends with graph.json: format 3, the BLAKE2b digest of
each of its other files.  save_graph streams each file, in chunks of
lines, into a temporary file and its digest at once, writes every one
before it renames any, and renames graph.json last; nodes.jsonl carries
each node's PageRank score.  load_graph reads a directory only with it:
it streams nodes.jsonl and triples.tsv in blocks into their digests and
into the nodes, ranks and keys, parsing each line as save_graph writes
it, and then checks each file against its digest.  A graph whose bytes
it has parsed before, or that `ckt build` saved, it decodes from their
entry in the user's graph cache instead (see ckt.graphcache), one
column at a time, and of one whose stat data its stamp there vouches
for it reads no byte but the templates copy's.
"""

from __future__ import annotations

import bisect
import gc
import json
import marshal
import math
import os
import re
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping
from contextlib import ExitStack, contextmanager
from functools import cached_property, partial
from itertools import accumulate, compress, count, islice, repeat
from json.encoder import encode_basestring_ascii as _json_str
from json.scanner import make_scanner
from operator import and_, eq, ge, itemgetter, lshift, or_, rshift
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, NamedTuple, NoReturn

from ckt import graphcache, ids
from ckt.errors import CktError, FormatError, NotFoundError
from ckt.model import Entity, Lockset, Span
from ckt.textio import not_utf8, utf8_lines

# The interpreter's own BLAKE2b, the same module on Python 3.10 to 3.13; it
# hashes two to three times as fast as its SHA-256, and unlike hashlib's
# OpenSSL hashes it adds no 4 MB of resident memory to each process.
from _blake2 import blake2b as _blake2b

PREDICATES = frozenset(
    [
        "declares", "calls", "reads", "writes", "has-type", "member-of",
        "documented-by", "mentions", "fixes", "touches", "authored-by",
        "assigned-to", "classified-as", "starts-thread", "guards", "precedes",
    ]
)

# Predicates whose object is a literal string rather than an entity id.
LITERAL_PREDICATES = frozenset(["has-type"])

# What joins the search fields of a value into its search text
SEARCH_SEPARATOR = "\0"


class Provenance(NamedTuple):
    """Which knowledge source asserted a triple, and where.

    A named tuple rather than a frozen dataclass: a build makes thousands,
    and a frozen dataclass sets each field through object.__setattr__."""

    source: str
    origin: str
    detail: str = ""


Key = tuple[str, str, str]  # (subject, predicate, object)

class GraphBuilder:
    """Single-writer accumulation phase; finalize() yields the immutable
    graph.  `sources` is a read-only view of the table of the sources that
    asserted each key, in the order the keys were first inserted; it is
    what save_graph writes beside the graph."""

    def __init__(self):
        self._entities: dict[str, Entity] = {}
        self._provenance: dict[Key, list[Provenance]] = {}
        self.sources: Mapping[Key, list[Provenance]] = MappingProxyType(self._provenance)
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
        The ends may hold no tab, LF or CR, which would break a line of
        triples.tsv, nor a lone surrogate, which UTF-8 cannot encode; a
        known predicate holds none."""
        self._check_open()
        if ("\t" in subject or "\n" in subject or "\r" in subject or not subject.isascii()
                or "\t" in object_ or "\n" in object_ or "\r" in object_
                or not object_.isascii()):
            _check_ends(subject, object_)
        if predicate not in PREDICATES:
            raise CktError(f"unknown predicate {predicate!r}")
        self._register(subject)
        if predicate not in LITERAL_PREDICATES:
            self._register(object_)
        elif ids.kind_of(object_) is not None:
            raise CktError(
                f"literal expected for predicate {predicate!r}, got entity id {object_!r}")
        known = self._provenance.get((subject, predicate, object_))
        if known is None:
            self._provenance[subject, predicate, object_] = [provenance]
        else:
            known.append(provenance)

    def _register(self, entity_id: str) -> None:
        """Register an unknown id under the kind its prefix names."""
        if entity_id in self._entities:
            return
        kind = ids.kind_of(entity_id)
        if kind is None:
            raise CktError(f"cannot infer kind for id {entity_id!r}; register it first")
        _, _, rest = entity_id.partition(":")
        self._entities[entity_id] = Entity(entity_id, kind, rest.rpartition("#")[2] or rest)

    def finalize(self) -> KnowledgeGraph:
        self._check_open()
        self._finalized = True
        return KnowledgeGraph(dict(sorted(self._entities.items())), sorted(self._provenance))

    def _check_open(self) -> None:
        if self._finalized:
            raise CktError("graph builder already finalized")


def _check_ends(subject: str, object_: str) -> None:
    """Raise CktError naming the first end that a triples.tsv line cannot
    hold, and what in it.  The pattern is compiled on the first call, in
    re's own cache, not at import: no query calls this."""
    for name, end in (("subject", subject), ("object", object_)):
        found = re.search("[\t\n\r\ud800-\udfff]", end)
        if found:
            what = "tabs or newlines" if found[0] in "\t\n\r" else "lone surrogates"
            raise CktError(f"{name} may not contain {what}: {end!r}")


# Term, predicate and kind numbers (see KnowledgeGraph): predicates and
# kinds are numbered in ascending order, so packed keys sort as their strings
_PREDICATES = tuple(sorted(PREDICATES))
_PREDICATE_NUMBER = {p: i for i, p in enumerate(_PREDICATES)}
_PREDICATE_BITS = (len(_PREDICATES) - 1).bit_length()
_PREDICATE_MASK = (1 << _PREDICATE_BITS) - 1
_LITERAL_NUMBERS = frozenset(map(_PREDICATE_NUMBER.get, LITERAL_PREDICATES))
_KINDS = tuple(sorted(ids.ENTITY_KINDS))
_KIND_NUMBER = {k: i for i, k in enumerate(_KINDS)}


def _term_bits(terms: int) -> int:
    """The bits that number each of `terms` terms."""
    return max(terms - 1, 1).bit_length()


def _typecode(bits: int) -> str | None:
    """The typecode of the smallest array of unsigned items of at least
    `bits` bits, or None when there is none."""
    return next((code for code in "IQ" if bits <= 8 * array(code).itemsize), None)


def _pairs(high: Iterable[int], low: Iterable[int], low_bits: int) -> Iterator[int]:
    """Each pair of numbers packed into one, `low` in the low `low_bits` bits."""
    return map(or_, map(lshift, high, repeat(low_bits)), low)


def _find(terms: list[str], term: str, lo: int, hi: int) -> int | None:
    """The place of `term` in terms[lo:hi], which ascends, or None."""
    i = bisect.bisect_left(terms, term, lo, hi)
    return i if i < hi and terms[i] == term else None


class _Entities(Mapping):
    """A graph's entities by id, in ascending id order, read-only.  Each
    Entity is made from the graph's node columns on its first read and
    kept, so every read of an id gives the same object.  It holds the
    columns, not the graph, so the two make no reference cycle, and a
    graph is freed as soon as its last reader lets go of it."""

    def __init__(self, columns: list, made: dict[str, Entity]):
        self._terms, self._kinds, self._labels, self._details, self._offsets = columns
        self._made = made

    def get(self, eid: str, default=None):
        entity = self._made.get(eid)
        if entity is None:
            node = _find(self._terms, eid, 0, len(self._kinds))
            if node is None:
                return default
            entity = self._made.setdefault(eid, self._entity(node))
        return entity

    def _entity(self, node: int) -> Entity:
        """The Entity of node `node`, made from the columns; each span path
        and attribute key interned, as the parse interns them."""
        offsets = self._offsets
        span, attrs = marshal.loads(self._details[offsets[node]:offsets[node + 1]])
        return Entity(self._terms[node], _KINDS[self._kinds[node]], self._labels[node],
                      span and Span(sys.intern(span[0]), span[1], span[2]),
                      {sys.intern(k): v for k, v in attrs.items()})

    def __getitem__(self, eid: str) -> Entity:
        entity = self._made.get(eid) or self.get(eid)
        if entity is None:
            raise KeyError(eid)
        return entity

    def __contains__(self, eid) -> bool:
        return eid in self._made or _find(self._terms, eid, 0, len(self._kinds)) is not None

    def __iter__(self) -> Iterator[str]:
        return islice(self._terms, len(self._kinds))

    def __len__(self) -> int:
        return len(self._kinds)


class KnowledgeGraph:
    """Immutable triple collection over sorted arrays of numbered terms.

    The terms are the entity ids in ascending order, then the literal
    objects in ascending order; node i is the entity whose id is term i.
    A predicate's objects are all ids or all literals, so each run of an
    index below ascends as its string keys do, and an entity's term
    number is its node number, which the dense-id core uses as it is.
    SPO, POS and OSP each hold every key once, as one number in an
    unsigned array, of 32-bit items when they hold it: the term and
    predicate numbers packed in that index's order, so a lookup bisects
    an array in C.  A graph made from its keys makes SPO at once and POS
    and OSP when a lookup or entry() first reads them; one decoded from
    its entry keeps the three it decoded.  The nodes' kinds, labels and
    ranks are columns too, and each node's span and attributes stay
    marshal-encoded in one bytes column until its Entity is read.
    `match` makes key tuples of only the keys it yields, and keeps each
    list it made, so a run is made once per graph.
    """

    def __init__(self, entities: Mapping[str, Entity], spo: list[Key],
                 ranks: dict[str, float] | None = None):
        """The graph of `entities`, in ascending id order, and `spo`, every
        key in ascending order, which the graph owns and no one may change
        after, with its columns made from them.  `ranks`, when given, are
        the default-parameter PageRank scores of this graph, in ascending
        id order, as the nodes.jsonl of a graph directory carries them."""
        nodes = list(entities.values())
        literal = map(LITERAL_PREDICATES.__contains__, map(itemgetter(1), spo))
        terms = [*entities, *sorted(set(compress(map(itemgetter(2), spo), literal)))]
        bits = _term_bits(len(terms))
        code = _typecode(2 * bits + _PREDICATE_BITS)
        if code is None:
            raise CktError(f"a graph of {len(terms)} terms has too many to number")
        number = {term: i for i, term in enumerate(terms)}
        s, p, o = (list(map(table.__getitem__, map(itemgetter(i), spo)))
                   for i, table in enumerate((number, _PREDICATE_NUMBER, number)))
        # the keys ascend, and so do their SPO numbers; POS and OSP are made on first use
        self._load([terms, bytes([_KIND_NUMBER[e.kind] for e in nodes]),
                    [e.label for e in nodes], None, None, None,
                    array(code, _pairs(_pairs(s, p, _PREDICATE_BITS), o, bits)), None, None],
                   entities if type(entities) is dict else dict(zip(entities, nodes)), ranks)
        self._runs[None, None, None] = spo  # the keys in SPO order, as match would make them

    @classmethod
    def from_entry(cls, columns: list) -> KnowledgeGraph:
        """The graph whose `entry()` is `columns`."""
        graph = cls.__new__(cls)
        graph._load(columns, {}, None)
        return graph

    def entry(self) -> list:
        """The graph's columns, as its graph-cache entry holds them: the
        terms, kinds, labels, encoded details and their offsets, ranks,
        SPO, POS and OSP."""
        return [self._terms, self._kinds, self._labels, *self._encoded(),
                array("d", self.rank_table().values()), *map(self._index, range(3))]

    def _load(self, columns: list, made: dict[str, Entity],
              ranks: dict[str, float] | None) -> None:
        (self._terms, self._kinds, self._labels, details, offsets,
         self._rank_column, *self._arrays) = columns
        self._encoding = None if details is None else (details, offsets)
        self._n = len(self._kinds)
        self._bits = bits = _term_bits(len(self._terms))
        # the shifts that bring the subject, predicate and object numbers of
        # a key of SPO, POS and OSP to the low bits
        pb = _PREDICATE_BITS
        self._shifts = ((pb + bits, bits, 0), (0, 2 * bits, bits), (pb, 0, bits + pb))
        self.entities: Mapping[str, Entity] = _Entities(columns[:5], made)
        self._rank_cache = ranks
        self._search_texts: dict[str, str] = {}
        self._runs: dict[tuple, list[Key]] = {}

    # -- accessors -----------------------------------------------------

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise NotFoundError(f"unknown node {entity_id!r}") from None

    def __len__(self) -> int:
        return len(self._arrays[0])

    def __contains__(self, key: Key) -> bool:
        """One bisection of SPO."""
        return bool(self._lookup(*key))

    def triples(self):
        """Every key in (subject, predicate, object) order."""
        return self.match(None, None, None)

    @property
    def labels(self) -> list[str]:
        """Each entity's label, in ascending id order; no one may change it."""
        return self._labels

    def ids_of(self, kind: str, label: str | None = None) -> list[str]:
        """The ids of the entities of `kind`, and of `label` when given, in
        ascending order, read from the columns."""
        hits = map(eq, self._kinds, repeat(_KIND_NUMBER[kind]))
        if label is not None:
            hits = map(and_, hits, map(eq, self._labels, repeat(label)))
        return list(compress(self._terms, hits))

    def _encoded(self) -> tuple[bytes, array]:
        """The details column and its offsets: each node's span and
        attributes, the attributes sorted by key as nodes.jsonl has them,
        in marshal format 2, which records no sharing or interning, so the
        bytes are a function of the values.  A graph made from its entities
        encodes them on first use, since a build whose entry is already
        cached needs none."""
        if self._encoding is None:
            details = [marshal.dumps((e.span and tuple(e.span), e.attrs if len(e.attrs) < 2
                                      else dict(sorted(e.attrs.items()))), 2)
                       for e in self.entities.values()]
            blob = b"".join(details)
            self._encoding = (blob, array(_typecode(len(blob).bit_length()),
                                          accumulate(map(len, details), initial=0)))
        return self._encoding

    def search_fields(self, value: str) -> list[str]:
        """What FILTER ... CONTAINS looks in for `value`, each lower-cased
        on its own: the value, and for an entity also its label and each
        `key=value` of its attributes."""
        entity = self.entities.get(value)
        if entity is None:
            return [value.lower()]
        return [value.lower(), entity.label.lower(),
                *(f"{k}={v}".lower() for k, v in entity.attrs.items())]

    def search_text(self, value: str) -> str:
        """The search fields of `value` joined by SEARCH_SEPARATOR, so a
        needle without that character is in the text exactly when it is in
        some field.  Each entity's text is made on first use and kept."""
        text = self._search_texts.get(value)
        if text is None:
            text = SEARCH_SEPARATOR.join(self.search_fields(value))
            if value in self.entities:
                self._search_texts[value] = text
        return text

    def rank_table(self) -> Mapping[str, float]:
        """The default-parameter PageRank scores in ascending id order,
        computed on first use, as a read-only view rather than the copy
        `pagerank()` returns."""
        if self._rank_cache is None:
            self._rank_cache = (self.pagerank() if self._rank_column is None
                                else dict(zip(self._terms, self._rank_column)))
        return MappingProxyType(self._rank_cache)

    # -- pattern matching ----------------------------------------------

    def match(self, subject: str | None, predicate: str | None, object_: str | None):
        """An iterator over the stored keys of the triples matching the
        bound positions; None is a wildcard.

        The index whose prefix the bound positions form is read, so the
        order is deterministic: (o, s, p) when the object is bound and the
        predicate is not, (p, o, s) when the predicate is bound and the
        subject is not, and (s, p, o) otherwise.  Each lookup's list is
        kept, whole before it is stored, so readers that race on a first
        lookup make equal lists and any one may be kept.
        """
        query = (subject, predicate, object_)
        keys = self._runs.get(query)
        if keys is None:
            keys = self._runs.setdefault(query, self._lookup(*query))
        return iter(keys)

    def _lookup(self, s: str | None, p: str | None, o: str | None) -> list[Key]:
        """The keys that match(s, p, o) yields, made from one run of an index."""
        terms, n = self._terms, self._n
        if p is not None and (p := _PREDICATE_NUMBER.get(p)) is None:
            return []
        if s is not None and (s := _find(terms, s, 0, n)) is None:
            return []
        if o is not None:  # an id, or else a literal
            found = _find(terms, o, 0, n)
            if (o := _find(terms, o, n, len(terms)) if found is None else found) is None:
                return []
        bits, pb = self._bits, _PREDICATE_BITS
        if s is not None and o is not None and p is None:
            which, prefix, width = 2, o << bits | s, pb  # OSP
        elif s is not None:
            which, prefix, width = 0, s, pb + bits  # SPO
            if p is not None:
                prefix, width = prefix << pb | p, bits
                if o is not None:
                    prefix, width = prefix << bits | o, 0
        elif p is not None:
            which, prefix, width = 1, p, 2 * bits  # POS
            if o is not None:
                prefix, width = prefix << bits | o, bits
        elif o is not None:
            which, prefix, width = 2, o, bits + pb
        else:
            which, prefix, width = 0, 0, 2 * bits + pb
        index = self._index(which)
        lo = bisect.bisect_left(index, prefix << width)
        run = index[lo:bisect.bisect_left(index, (prefix + 1) << width, lo)]
        names, mask, (s, p, o) = _PREDICATES, (1 << bits) - 1, self._shifts[which]
        return [(terms[key >> s & mask], names[key >> p & _PREDICATE_MASK], terms[key >> o & mask])
                for key in run]

    def _index(self, which: int) -> array:
        """SPO, POS or OSP, for `which` 0, 1 or 2.  A graph made from its
        keys makes POS and OSP from SPO on the first lookup that reads
        them, or its first entry(), since a build whose entry is already
        cached reads neither; readers that race on it make equal arrays,
        and any one may be kept."""
        index = self._arrays[which]
        if index is None:
            # each SPO key rotated: its low `cut` bits, the predicate and
            # object numbers for POS or the object number for OSP, go on top
            spo, width = self._arrays[0], 2 * self._bits + _PREDICATE_BITS
            cut = width - self._bits if which == 1 else self._bits
            keys = _pairs(map(and_, spo, repeat((1 << cut) - 1)), map(rshift, spo, repeat(cut)),
                          width - cut)
            index = self._arrays[which] = array(spo.typecode, sorted(keys))
        return index

    # -- analytics -------------------------------------------------------

    @cached_property
    def _core(self) -> tuple[list[str], list[tuple[int, ...]]]:
        """(nodes, out): node i is the entity id nodes[i], in ascending
        order, its term number, and out[i] holds the node numbers of its
        entity-valued triples' objects, each once, in SPO order."""
        bits = self._bits
        shift, mask = _PREDICATE_BITS + bits, (1 << bits) - 1
        out: list = [()] * self._n
        subject = None
        # SPO groups the keys by subject, so one dict per subject keeps its
        # objects once each, in the order they first appear
        for key in self._arrays[0]:
            if key >> bits & _PREDICATE_MASK not in _LITERAL_NUMBERS:
                if key >> shift != subject:
                    subject, objects = key >> shift, {}
                    out[subject] = objects
                objects[key & mask] = None
        return self._terms[:self._n], [tuple(objects) for objects in out]

    def _undirected(self) -> list[set[int]]:
        """Each node's neighbours in the undirected simple projection:
        direction and parallels collapsed, self-loops dropped."""
        nodes, out = self._core
        adj: list[set[int]] = [set() for _ in nodes]
        for u, targets in enumerate(out):
            for v in targets:
                if u != v:
                    adj[u].add(v)
                    adj[v].add(u)
        return adj

    def pagerank(self, on_iteration=None) -> dict[str, float]:
        """Damped power iteration over the triple direction (subject->object):
        damping 0.85, at most 100 iterations, stopping once the L1 change
        falls under 1e-9.

        Dangling mass is redistributed uniformly every step, so the scores
        sum to 1 at each iteration.  The result, keyed in ascending id
        order, is cached unless `on_iteration` observes each iteration's
        scores.
        """
        if on_iteration is None and (self._rank_cache is not None
                                     or self._rank_column is not None):
            return dict(self.rank_table())
        damping = 0.85
        nodes, out = self._core
        n = len(nodes)
        if n == 0:
            return {}
        pushing = [(u, targets) for u, targets in enumerate(out) if targets]
        dangling = [u for u, targets in enumerate(out) if not targets]
        rank = [1.0 / n] * n
        if on_iteration is not None:
            on_iteration(dict(zip(nodes, rank)))
        for _ in range(100):
            # left-to-right sums: from Python 3.12 on, sum() of floats is
            # compensated, and the ranks would change with the interpreter
            mass = 0.0
            for u in dangling:
                mass += rank[u]
            base = (1.0 - damping) / n + damping * mass / n
            nxt = [base] * n
            for u, targets in pushing:
                share = damping * rank[u] / len(targets)
                for v in targets:
                    nxt[v] += share
            delta = 0.0
            for new, old in zip(nxt, rank):
                delta += abs(new - old)
            rank = nxt
            if on_iteration is not None:
                on_iteration(dict(zip(nodes, rank)))
            if delta < 1e-9:
                break
        total = 0.0
        for r in rank:
            total += r
        scores = {u: r / total for u, r in zip(nodes, rank)}
        if on_iteration is None:
            self._rank_cache = dict(scores)
        return scores

    def count_triangles(self) -> tuple[dict[str, int], int]:
        """Triangles on the undirected simple projection, by the forward
        algorithm (Schank and Wagner, WEA 2005): with the nodes in order of
        degree, each triangle is found once, as a common later neighbour of
        its two earlier nodes.

        Returns (per-node counts, total); the total is one third of the
        per-node sum.
        """
        nodes, adj = self._core[0], self._undirected()
        later: dict[int, set[int]] = {}
        for u in sorted(range(len(nodes)), key=[len(vs) for vs in adj].__getitem__):
            later[u] = adj[u].difference(later)
        counts = [0] * len(nodes)
        total = 0
        for u, vs in later.items():
            for v in vs:
                common = vs & later[v]
                if common:
                    counts[u] += len(common)
                    counts[v] += len(common)
                    for w in common:
                        counts[w] += 1
                    total += len(common)
        return dict(zip(nodes, counts)), total

    def neighborhood(self, node: str, radius: int) -> KnowledgeGraph:
        """Induced subgraph of nodes within undirected distance <= radius."""
        self.entity(node)
        if radius < 0:
            raise CktError(f"radius must be >= 0, got {radius}")
        nodes, adj = self._core[0], self._undirected()
        start = bisect.bisect_left(nodes, node)
        reached, frontier = {start}, {start}
        for _ in range(radius):
            frontier = {v for u in frontier for v in adj[u]} - reached
            if not frontier:
                break
            reached |= frontier
        entities = {nodes[u]: self.entities[nodes[u]] for u in sorted(reached)}
        spo = [key for s in entities for key in self.match(s, None, None)
               if key[1] not in LITERAL_PREDICATES and key[2] in entities]
        return KnowledgeGraph(entities, spo)



# -- persistence ---------------------------------------------------------

NODES_FILE = "nodes.jsonl"
TRIPLES_FILE = "triples.tsv"
GRAPH_FILES = (NODES_FILE, TRIPLES_FILE)
# what `ckt build` writes beside the graph in the same directory
STATS_FILE = "stats.json"
REPORT_FILE = "report.json"
TRACE_COPY = "trace.jsonl"
TEMPLATES_COPY = "templates.jsonl"
COPIES = (TRACE_COPY, TEMPLATES_COPY)  # what a load reads beside the graph files
# written last: the format version and the BLAKE2b digest of each file above
GRAPH_MANIFEST = "graph.json"
FORMAT_VERSION = 3
DIGEST_SIZE = 32  # bytes of each BLAKE2b digest
CHUNK_LINES = 1024  # lines that save_graph encodes, writes and hashes at a time
READ_BLOCK = 1 << 14  # bytes of a graph file that a load reads, hashes and parses at a time


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


def _node_line(entity: Entity, rank: float) -> str:
    """The entity's nodes.jsonl line, with its PageRank score `rank`:
    json.dumps's text with sorted keys and ASCII escapes, less its encoder
    per call.  The rank is written with repr, which is the text json.dumps
    gives for a float and round-trips it."""
    attrs = ", ".join([f"{_json_str(k)}: {_json_str(v)}"
                       for k, v in sorted(entity.attrs.items())])  # a list joins faster
    span = entity.span
    if span is None:
        path = start = end = "null"
    else:
        path, start, end = _json_str(span.path), span.start, span.end
    return (f'{{"attrs": {{{attrs}}}, "end": {end}, "id": {_json_str(entity.id)}, '
            f'"kind": {_json_str(entity.kind)}, "label": {_json_str(entity.label)}, '
            f'"path": {path}, "rank": {rank!r}, "start": {start}}}')


def _triple_lines(graph: KnowledgeGraph, sources: Mapping[Key, list[Provenance]]
                  ) -> Iterator[str]:
    """Each triples.tsv line in SPO order: the key, and its list in
    `sources` as JSON with sorted keys and ASCII escapes, `detail` only
    when set.  That is json.dumps's text, less its encoder per call and
    with each distinct source's `"source": ...}` tail encoded once per
    call."""
    tails: dict[str, str] = {}
    for key in graph.triples():
        docs = []
        for source, origin, detail in sources[key]:
            tail = tails.get(source) or tails.setdefault(
                source, f', "source": {_json_str(source)}}}')
            detail = f'"detail": {_json_str(detail)}, ' if detail else ""
            docs.append(f'{{{detail}"origin": {_json_str(origin)}{tail}')
        yield f"{key[0]}\t{key[1]}\t{key[2]}\t[{', '.join(docs)}]"


def _chunks(lines: Iterable[str]) -> Iterator[bytes]:
    """`lines`, each ended by LF, as UTF-8, CHUNK_LINES lines at a time."""
    lines = iter(lines)
    while batch := list(islice(lines, CHUNK_LINES)):
        yield ("\n".join(batch) + "\n").encode("utf-8")


def _write(path: Path, chunks: Iterable[bytes]) -> str:
    """Write the chunks to `path`, feeding each to a digest as well; the
    hex digest of its bytes."""
    digest = _blake2b(digest_size=DIGEST_SIZE)
    with open(path, "wb") as out:
        for chunk in chunks:
            out.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def save_graph(graph: KnowledgeGraph, sources: Mapping[Key, list[Provenance]], directory,
               extra: dict[str, bytes] | None = None) -> dict[str, str]:
    """Write the directory of a graph: nodes.jsonl, each node with its
    PageRank score, and triples.tsv, each key with its list in `sources`,
    the table of its builder, sorted, LF-terminated, UTF-8, then the
    `extra` files (name -> bytes) that `ckt build` puts beside them, then
    graph.json.  Returns the digest of each file but graph.json, as
    graph.json gives them.

    Each file is streamed, CHUNK_LINES lines at a time, into a temporary
    file and its digest, so no file is held whole in memory, and each is
    written, graph.json's too, before any is renamed into place: a save
    that fails part way changes nothing.  graph.json, which gives the
    format version and each file's BLAKE2b digest, is renamed last, over
    the old one, so a reader never finds a directory without one; a
    reader during the renames finds bytes that its graph.json does not
    describe, and load_graph says so.  A trace or template copy that this
    save does not write, and the ranks.tsv of a format-2 build, are
    removed before graph.json is replaced."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        # rank_table() holds every node, in ascending id order
        NODES_FILE: _chunks(_node_line(graph.entities[eid], rank)
                            for eid, rank in graph.rank_table().items()),
        TRIPLES_FILE: _chunks(_triple_lines(graph, sources)),
        **{name: [data] for name, data in sorted((extra or {}).items())},
    }
    temps = {name: directory / f".{name}.{os.getpid()}.tmp" for name in (*files, GRAPH_MANIFEST)}
    try:
        digests = {name: _write(temps[name], chunks) for name, chunks in files.items()}
        manifest = {"format": FORMAT_VERSION, "blake2b": dict(sorted(digests.items()))}
        _write(temps[GRAPH_MANIFEST], [(json.dumps(manifest, indent=2) + "\n").encode("ascii")])
        for name in files:
            os.replace(temps[name], directory / name)
        for name in (TRACE_COPY, TEMPLATES_COPY, "ranks.tsv"):
            if name not in files:
                (directory / name).unlink(missing_ok=True)
        os.replace(temps[GRAPH_MANIFEST], directory / GRAPH_MANIFEST)
    except BaseException:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
        raise
    return digests


def write_cache_entry(graph: KnowledgeGraph, digests: dict[str, str],
                      locksets: dict[str, Lockset] | None) -> None:
    """Write the graph-cache entry that a load of the directory that
    save_graph wrote with `digests` looks up, unless a file by its name is
    there: the graph's columns, with the ranks that nodes.jsonl carries,
    and `locksets`, the replay's of the trace copy, or None without one.
    The entry's bytes are those a strict parse of the directory writes."""
    key = _cache_key(digests)
    if not graphcache.has(key):
        graphcache.write(key, graph.entry(), locksets)


def load_graph(directory) -> KnowledgeGraph:
    """Read a graph that save_graph wrote, PageRank scores included: from
    the user's graph cache when cached_graph finds it there, under the key
    that the build and a query load use, else by parse_graph, which writes
    that entry with the replay of the trace copy."""
    hit, copies = cached_graph(directory)
    return (hit or parse_graph(directory, copies))[0]


def _trace_locksets(trace: bytes | None) -> dict[str, Lockset] | None:
    """The locksets of the replay of a trace copy's bytes, or None for none."""
    if trace is None:
        return None
    from ckt.extraction.traces import load_trace  # here, so that a cache hit loads no parser

    return load_trace(utf8_lines(TRACE_COPY, trace), name=TRACE_COPY).replay.locksets


def parse_graph(directory, copies: dict[str, bytes | None]
                ) -> tuple[KnowledgeGraph, dict[str, Lockset] | None]:
    """(graph, locksets): parse a graph that save_graph wrote, PageRank
    scores included, and replay the trace copy in `copies`, as a hit gives
    them, and write their entry in the user's graph cache.

    The trace copy is replayed first, so a line of it that does not load
    raises before any graph file is opened.  Then nodes.jsonl and
    triples.tsv are opened in the order save_graph writes them, and
    graph.json last; a missing one raises NotFoundError naming it.  A
    graph.json that is not format 3 with a table of digests raises
    FormatError at its line in place of any other error, and one of
    another format, such as format 2 with its ranks.tsv, asks for `ckt
    build` again.  Each graph file is read READ_BLOCK bytes at a time,
    each read fed to its digest and each block of whole lines to the
    parse, so no file is held whole, and of triples.tsv only each line's
    key is kept.  The lines are parsed as save_graph writes them: bytes
    that are not UTF-8, a CR, a last line without its LF, node ids or
    triple keys that do not strictly ascend, a rank that is missing or no
    finite float, an unknown kind or predicate, or a triple end that is no
    node raises FormatError with the file and the line, once both files
    are read and hashed.  Only after the parse is each file checked
    against its digest in graph.json: one that differs raises FormatError
    naming the file at its line in graph.json.  That is a hand edit, or a
    read while a build rewrote the directory.  In the second case a line
    of a file that its digest vouches for can fail to fit a file of the
    other build read before it; that failure, too, names the changed file
    in graph.json.  A line that fails in a file whose own digest differs
    is named at its line, also when the reads interleaved with the
    renames: the new nodes.jsonl, then the old triples.tsv just before its
    rename, then the new graph.json.  Of each triples.tsv line only the
    key is parsed: the digest vouches for the provenance column.

    `copies` maps the names of the other files of the directory that
    cached_graph read to their bytes, or to None for one it found absent;
    each is checked against the same graph.json.  Once the graph loads,
    its entry is written under the digests the parse computed, with the
    Eraser replay's per-variable locksets of the trace copy, or None when
    there is none.  So every copy of a directory shares one entry, and
    one whose files graph.json does not vouch for raises what the parse
    raises.
    """
    locksets = _trace_locksets(copies[TRACE_COPY])
    with _opened(Path(directory), (*GRAPH_FILES, GRAPH_MANIFEST)) as files:
        manifest = files.pop(GRAPH_MANIFEST).read()
        _manifest_digests(manifest)  # its format, before any error of the parse
        entities, spo, ranks, digests = _parse_graph(files, manifest, copies)
    _check_digests(manifest, digests)
    graph = KnowledgeGraph(entities, spo, ranks)
    graphcache.write(_cache_key(digests), graph.entry(), locksets)
    return graph, locksets


def cached_graph(directory) -> tuple[tuple[KnowledgeGraph, dict[str, Lockset] | None] | None,
                                     dict[str, bytes | None]]:
    """((graph, locksets) or None, copies): the graph of the directory
    from the entry in the user's graph cache (ckt.graphcache) named by the
    format and graph.json's digests of the graph files and of the trace
    copy, whose replay's locksets the entry holds (None when there is no
    trace copy); and `copies`, the bytes of each of COPIES read, or None
    for one found absent.

    A load whose stamp vouches for the directory (_stamped) reads none of
    graph.json, the graph files and the trace copy.  Else every file of
    COPIES is read first, each absent one None, and an OSError of any
    other kind raises CktError naming it; then the entry is used only when
    the open graph files hash to graph.json's digests and the copies match
    graph.json too, and the stat data of the files hashed is stamped.  Any
    other outcome, an error among them, is None, a miss, with every copy
    read: the caller parses the files then, and meets the error there.  So
    a hit parses no line of any file."""
    directory = Path(directory)
    place = os.path.realpath(directory)
    stamped = _stamped(directory, place)
    if stamped is not None:
        return stamped
    with graphcache.stamping(place) as stamp:
        copies, stats = {}, {}
        for name in COPIES:
            copies[name], stats[name] = _read_copy(directory / name)
        try:
            with _opened(directory, (*GRAPH_FILES, GRAPH_MANIFEST)) as files:
                vouched = _manifest_digests(files[GRAPH_MANIFEST].read())
                key = _cache_key(vouched)
                cached = graphcache.read(key)
                if cached is not None and _fresh(files, vouched, copies):
                    for name, file in files.items():
                        stats[name] = _stat_data(os.fstat(file.fileno()))
                    stamp(stats, key)
                    columns, locksets = cached
                    return (KnowledgeGraph.from_entry(columns), locksets), copies
        except (CktError, OSError):
            pass
    return None, copies


def _stamped(directory: Path, place: str):
    """What cached_graph returns for a hit, when the graph cache holds a
    stamp of `place`, the directory's resolved path, and its entry: the
    stat data of graph.json, the graph files and each copy must be the
    stamp's, and each file's mtime and ctime older than the stamp's mtime
    (git's racy rule: a file changed in the clock tick of the stamp may
    look unchanged).  The trace copy is only stat'd, since the entry holds
    its replay, and the templates copy is read and its open file stat'd,
    so its bytes are the ones its stat data describe.  Else None: the
    caller hashes the files as with no stamp."""
    stamp = graphcache.read_stamp(place)
    if stamp is None:
        return None
    stats, key, made = stamp
    copies = {}
    for name in (GRAPH_MANIFEST, *GRAPH_FILES, *COPIES):
        try:
            if name == TEMPLATES_COPY:
                copies[name], found = _read_copy(directory / name)
            else:
                found = _stat_data(os.stat(directory / name))
        except FileNotFoundError:
            found = None
        except (CktError, OSError):
            return None
        # found[3:] is the mtime and the ctime
        if found != stats.get(name, False) or found is not None and max(found[3:]) >= made:
            return None
    cached = graphcache.read(key)
    if cached is None:
        return None
    columns, locksets = cached
    return (KnowledgeGraph.from_entry(columns), locksets), copies


def _stat_data(found: os.stat_result) -> tuple[int, int, int, int, int]:
    """What a stamp keeps of a file's stat: device, inode, size, mtime and
    ctime; a write, a rename over it or a restored mtime changes one."""
    return found.st_dev, found.st_ino, found.st_size, found.st_mtime_ns, found.st_ctime_ns


def _cache_key(digests: dict) -> tuple:
    """The graph-cache key of the files with `digests`: the graph format,
    the digests of the graph files and of the trace copy (None without
    one)."""
    return FORMAT_VERSION, *map(digests.get, GRAPH_FILES), digests.get(TRACE_COPY)


def _fresh(files: dict[str, BinaryIO], vouched: dict, copies: dict[str, bytes | None]) -> bool:
    """Whether the open graph `files` and `copies` have the digests of
    graph.json's table `vouched`."""
    digests = {name: _stream_digest(files[name]) for name in GRAPH_FILES}
    return _changed(vouched, {**digests, **_digests(copies)}) is None


def _stream_digest(file: BinaryIO) -> str:
    """The hex digest of the bytes of `file`, read READ_BLOCK at a time."""
    digest = _blake2b(digest_size=DIGEST_SIZE)
    while chunk := file.read(READ_BLOCK):
        digest.update(chunk)
    return digest.hexdigest()


def check_files(directory, files: dict[str, bytes | None]) -> None:
    """Raise FormatError, as load_graph does, naming the first of `files`
    (name -> the bytes read, or None for a file found absent) that the
    directory's graph.json does not vouch for; NotFoundError when the
    directory has no graph.json."""
    with _opened(Path(directory), (GRAPH_MANIFEST,)) as opened:
        manifest = opened[GRAPH_MANIFEST].read()
    _check_digests(manifest, _digests(files))


def _open_if_present(path: Path) -> BinaryIO | None:
    """The graph-directory file `path` opened for binary reads, or None
    when it is absent; any other OSError, such as a directory in its place
    or a graph path that is no directory, raises CktError naming it."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CktError(f"cannot read {path}: {exc.strerror or exc}") from None


def read_if_present(path: Path) -> bytes | None:
    """The bytes of the graph-directory file `path`, or None when it is
    absent, as _open_if_present opens it."""
    return _read_copy(path)[0]


def _read_copy(path: Path) -> tuple[bytes | None, tuple | None]:
    """(bytes, stat data) of the graph-directory file `path`, the stat
    taken of the open file once read; (None, None) when it is absent."""
    file = _open_if_present(path)
    if file is None:
        return None, None
    with file:
        return file.read(), _stat_data(os.fstat(file.fileno()))


@contextmanager
def _opened(directory: Path, names: tuple[str, ...]) -> Iterator[dict[str, BinaryIO]]:
    """Each named file of the directory, opened for binary reads in the
    order of `names` and closed after the block; NotFoundError names the
    files it lacks."""
    with ExitStack() as stack:
        files = {}
        for name in names:
            file = _open_if_present(directory / name)
            if file is not None:
                files[name] = stack.enter_context(file)
        missing = [name for name in names if name not in files]
        if missing:
            raise NotFoundError(f"no graph found in {directory}: missing {', '.join(missing)}")
        yield files


def _digests(files: dict[str, bytes | None]) -> dict[str, str | None]:
    """The hex digest of each file's bytes; None for a file found absent."""
    return {name: None if blob is None else _blake2b(blob, digest_size=DIGEST_SIZE).hexdigest()
            for name, blob in files.items()}


def _check_digests(manifest: bytes, digests: dict[str, str | None]) -> None:
    """Raise FormatError at graph.json's line for the first file of
    `digests` (name -> the digest of the bytes read, or None for a file
    found absent) whose digest differs from graph.json's, or that
    graph.json lists and the directory lacks, or the other way round."""
    name = _changed(_manifest_digests(manifest), digests)
    if name is not None:
        text = manifest.decode("utf-8", "replace").split("\n")
        line = next((i for i, x in enumerate(text, start=1) if f'"{name}"' in x), 1)
        raise FormatError(
            f"{GRAPH_MANIFEST}: {name} does not match its BLAKE2b digest here; it changed "
            "after the build, or a build rewrote it while it was read", line)


def _changed(vouched: dict, digests: dict[str, str | None]) -> str | None:
    """The first file of `digests` whose digest is not the one in the
    graph.json table `vouched`, or that only one of them lists; None when
    there is none."""
    for name, digest in digests.items():
        if (name in vouched) if digest is None else vouched.get(name) != digest:
            return name
    return None


def _manifest_digests(manifest: bytes) -> dict:
    """The file -> BLAKE2b digest table of a graph.json."""
    try:
        doc = json.loads(manifest)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise FormatError(f"{GRAPH_MANIFEST}: invalid JSON: {exc}",
                          getattr(exc, "lineno", 1)) from exc
    version = doc.get("format") if isinstance(doc, dict) else None
    if type(version) is int and version != FORMAT_VERSION:
        raise FormatError(f"{GRAPH_MANIFEST}: the graph is in format {version}, and this ckt "
                          f"reads format {FORMAT_VERSION}; run ckt build again", 1)
    if version != FORMAT_VERSION or not isinstance(doc.get("blake2b"), dict):
        raise FormatError(f"{GRAPH_MANIFEST}: expected format {FORMAT_VERSION} with a "
                          '"blake2b" table of files', 1)
    return doc["blake2b"]


def _byte_error(name: str, data: bytes, lines_before: int = 0) -> FormatError | None:
    """The error, at its line, for a CR in `data`, the bytes of file `name`
    after its first `lines_before` lines, which a text-mode read would take
    for a line break, or else for a last line without its LF; None when
    `data` has neither."""
    cr = data.find(b"\r")
    if cr >= 0:
        return FormatError(f"carriage return in {name}",
                           lines_before + data.count(b"\n", 0, cr) + 1)
    if data and not data.endswith(b"\n"):
        return FormatError(f"no line feed at the end of {name}",
                           lines_before + data.count(b"\n") + 1)
    return None


# the JSON decoder's scanner, C when the interpreter has it: scan(line, 0)
# gives the value at the start of the line and where it stops, less
# JSONDecoder.raw_decode's wrapper per call
_SCAN = make_scanner(json.JSONDecoder())
_PREDICATE = {p: sys.intern(p) for p in PREDICATES}
_KIND = {k: sys.intern(k) for k in ids.ENTITY_KINDS}  # Entity rejects any other


def _parse_graph(files: dict[str, BinaryIO], manifest: bytes,
                 copies: dict[str, bytes | None]) -> tuple:
    """(entities, SPO keys, ranks, digests): the graph from the open graph
    files, each line read as save_graph writes it, and the digest of each
    graph file and of each of `copies`, in the order they are checked.
    Both files are read to their end and hashed; then the first line that
    save_graph would not write raises FormatError with the file and the
    line, unless `_blame_changed_file` names a file that changed instead."""
    entities: dict[str, Entity] = {}
    ranks: dict[str, float] = {}
    spo: list[Key] = []
    digests: dict[str, str | None] = {}
    failed = None  # the name and the error of the first file that did not parse
    for name, parse in ((NODES_FILE, partial(_node_block, entities, ranks)),
                        (TRIPLES_FILE, partial(_triple_block, entities, spo))):
        digest = _blake2b(digest_size=DIGEST_SIZE)
        error = _read_lines(files[name], name, digest, parse)
        digests[name] = digest.hexdigest()
        if failed is None and error is not None:
            failed = name, error
    if failed is None:
        # the keys must ascend strictly: the first line whose key does not
        # follow the one before, line i + 2 when key i + 1 is not above key i
        unordered = next(compress(count(2), map(ge, spo, islice(spo, 1, None))), None)
        if unordered is not None:
            failed = TRIPLES_FILE, FormatError(
                f"triple does not follow the line before in {TRIPLES_FILE}", unordered)
    digests.update(_digests(copies))
    if failed is not None:
        _blame_changed_file(manifest, digests, failed[0])
        raise failed[1]
    return entities, spo, ranks, digests


def _blocks(file: BinaryIO, digest) -> Iterator[bytes]:
    """The bytes of `file`, each read fed to `digest`, in blocks that end
    at a LF, but for the rest after the last LF, if any, which comes last."""
    rest = b""
    while chunk := file.read(READ_BLOCK):
        digest.update(chunk)
        end = chunk.rfind(b"\n") + 1
        if end:
            yield rest + chunk[:end]
            rest = chunk[end:]
        else:
            rest += chunk
    if rest:
        yield rest


def _read_lines(file: BinaryIO, name: str, digest, parse) -> FormatError | None:
    """Read the graph file `name` from `file` block by block, each read fed
    to `digest`, and hand each block of whole lines, decoded and split at
    each LF, to parse(lines, n), n the lines before the block; `parse`
    raises FormatError for a line that save_graph would not write.

    The error is returned once the whole file is read, so that the digest
    is whole: a CR, or a last line without its LF, wherever it is, as when
    the whole file was checked for them before the parse; else the first
    line that is not UTF-8 or that `parse` failed on, after which no block
    is parsed.  None when every line parsed."""
    n = 0  # the lines before the block
    bad_bytes = bad_line = None
    for block in _blocks(file, digest):
        if bad_bytes is None:
            bad_bytes = _byte_error(name, block, n)
        if bad_bytes is None and bad_line is None:
            try:
                lines = block.decode("utf-8").split("\n")
                lines.pop()  # the block ends with a LF
                parse(lines, n)
            except FormatError as exc:
                bad_line = exc
            except UnicodeDecodeError as exc:
                bad_line = not_utf8(name, block, exc, n + 1)
        n += block.count(b"\n")
    return bad_bytes or bad_line


def _node_block(entities: dict[str, Entity], ranks: dict[str, float], lines: list[str],
                n: int) -> None:
    """Add the node and the rank of each line of nodes.jsonl in `lines`,
    the lines after its first n, to `entities` and `ranks`; FormatError
    names the first line that save_graph would not write.  Each kind,
    span path and attribute key is interned: the graph holds one string
    for each, and ckt.graphcache writes and decodes it once per record."""
    name = NODES_FILE
    intern = sys.intern
    last = next(reversed(entities), "")  # the id on the line before the block
    lineno = n
    try:
        for lineno, line in enumerate(lines, start=n + 1):
            try:
                doc, stop = _SCAN(line, 0)
            except StopIteration:  # no JSON value starts the line
                raise FormatError(f"not a node record that ckt build writes in {name}",
                                  lineno) from None
            eid, label, attrs, path = doc["id"], doc["label"], doc["attrs"], doc["path"]
            if stop != len(line) or type(label) is not str or type(attrs) is not dict:
                raise FormatError(f"not a node record that ckt build writes in {name}", lineno)
            for value in attrs.values():
                if type(value) is not str:
                    raise FormatError(f"attribute value {value!r} is no string in {name}", lineno)
            if attrs:
                attrs = {intern(key): value for key, value in attrs.items()}
            if not eid > last:
                raise FormatError(f"node {eid!r} does not follow {last!r} in {name}", lineno)
            start, end, rank = doc["start"], doc["end"], doc["rank"]
            if path is None and start is None and end is None:
                span = None
            elif type(path) is str and type(start) is int and type(end) is int:
                span = Span(intern(path), start, end)
            else:
                raise FormatError(f"span needs a string path and integer lines in {name}", lineno)
            if type(rank) is not float or not math.isfinite(rank):
                raise FormatError(f"expected a finite rank for {eid!r} in {name}", lineno)
            kind = doc["kind"]
            entities[eid] = Entity(eid, _KIND.get(kind, kind), label, span, attrs)
            ranks[eid] = rank
            last = eid
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"not a line that ckt build writes in {name}: {exc!r}", lineno) from exc


def _triple_block(entities: dict[str, Entity], spo: list[Key], lines: list[str],
                  n: int) -> None:
    """Add the key of each line of triples.tsv in `lines`, the lines after
    its first n, to `spo`; both ends of a key are the id strings of
    `entities`, and the rest of each line is dropped.  FormatError names
    the first line that save_graph would not write."""
    name = TRIPLES_FILE
    lineno = n
    try:
        for lineno, line in enumerate(lines, start=n + 1):
            s, p, o, _ = line.split("\t")
            pred = _PREDICATE.get(p)
            if pred is None:
                raise FormatError(f"unknown predicate {p!r} in {name}", lineno)
            s = (entities.get(s) or _no_node(s, lineno)).id
            if pred not in LITERAL_PREDICATES:
                o = (entities.get(o) or _no_node(o, lineno)).id
            elif ids.kind_of(o) is not None:
                raise FormatError(f"literal expected for predicate {pred!r}, "
                                  f"got entity id {o!r} in {name}", lineno)
            spo.append((s, pred, o))
    except ValueError as exc:  # not four fields
        raise FormatError(f"not a line that ckt build writes in {name}: {exc!r}",
                          lineno) from exc


def _blame_changed_file(manifest: bytes, digests: dict[str, str | None], name: str) -> None:
    """When graph.json vouches for the file `name` that failed to parse,
    raise the digest error of the first graph file it does not vouch for,
    if any: a read during a rebuild found files of two builds.  A line
    error in a file that changed itself stands: a hand edit, or a read
    interleaved with the renames.  A graph.json that is not format 3
    raises its own FormatError."""
    if _manifest_digests(manifest).get(name) == digests[name]:
        _check_digests(manifest, {graph_file: digests[graph_file] for graph_file in GRAPH_FILES})


def _no_node(end: str, lineno: int) -> NoReturn:
    """Raise FormatError for a triple end that nodes.jsonl lacks."""
    if ids.kind_of(end) is None:
        raise FormatError(f"cannot infer kind for id {end!r}; register it first in {TRIPLES_FILE}",
                          lineno)
    raise FormatError(f"unknown node {end!r} in {TRIPLES_FILE}", lineno)
