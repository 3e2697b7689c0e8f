"""Triple store, indexes, analytics, persistence."""

import itertools
import json
import os
import random
import re
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckt.graph
from ckt.errors import CktError, FormatError, NotFoundError
from ckt.graph import (
    GRAPH_MANIFEST,
    NODES_FILE,
    PREDICATES,
    GraphBuilder,
    KnowledgeGraph,
    TRIPLES_FILE,
    Provenance,
    _node_line,
    load_graph,
    save_graph,
)
from ckt.ids import ENTITY_KINDS
from ckt.model import Entity, Span
from conftest import settle
from oracles import (
    bfs_within,
    blake2b_hex,
    brute_triangles,
    builder_load_graph,
    dense_pagerank,
    dict_pagerank,
    graphs_equal,
    node_line,
    provenance_json,
    round_trips,
    undirected_adjacency,
)

PROV = Provenance("source-code", "test:1")

# quotes, backslashes, control characters, DEL and non-ASCII text, including
# characters outside the basic plane
_PROV_TEXT = st.text(st.sampled_from('a"\\/\x00\n\t\x1f\x7f\u00e9\u2028\U0001f600')
                     | st.characters(), max_size=12)


def built(triples, entities=()):
    """The graph of `triples` and `entities`, each triple asserted by PROV,
    and its builder's sources table."""
    builder = GraphBuilder()
    for entity in entities:
        builder.add_entity(entity)
    for s, p, o in triples:
        builder.insert_triple(s, p, o, PROV)
    return builder.finalize(), builder.sources


def build(triples, entities=()):
    return built(triples, entities)[0]


def test_duplicate_insert_accumulates_provenance():
    builder = GraphBuilder()
    builder.insert_triple("commit:c1", "fixes", "bug:CQ/22", PROV)
    builder.insert_triple("commit:c1", "fixes", "bug:CQ/22", Provenance("bug-tracker", "x"))
    graph = builder.finalize()
    assert len(graph) == 1
    assert len(builder.sources[("commit:c1", "fixes", "bug:CQ/22")]) == 2


def test_auto_registration_infers_kind():
    graph = build([("func:a#f", "calls", "func:a#g")])
    assert graph.entities["func:a#f"].kind == "function"
    assert graph.entities["func:a#g"].kind == "function"


def test_unknown_predicate_rejected():
    builder = GraphBuilder()
    with pytest.raises(CktError, match="foobar"):
        builder.insert_triple("func:a#f", "foobar", "func:a#g", PROV)


def test_literal_only_for_literal_predicates():
    builder = GraphBuilder()
    builder.insert_triple("var:a#x", "has-type", "unsigned int", PROV)
    with pytest.raises(CktError, match="literal"):
        builder.insert_triple("var:a#x", "has-type", "type:a#T", PROV)
    with pytest.raises(CktError, match="kind"):
        builder.insert_triple("func:a#f", "calls", "not an id", PROV)


@pytest.mark.parametrize("triple, message", [
    (("func:a#f", "frobs", "func:a#g"), "unknown predicate 'frobs'"),
    (("func:a#\tf", "calls", "func:a#g"),
     "subject may not contain tabs or newlines: 'func:a#\\tf'"),
    (("func:a#f", "calls", "func:a#\ng"),
     "object may not contain tabs or newlines: 'func:a#\\ng'"),
    (("var:a#x", "has-type", "type:a#T"),
     "literal expected for predicate 'has-type', got entity id 'type:a#T'"),
    (("not an id", "calls", "func:a#g"), "cannot infer kind for id 'not an id'; register it first"),
    (("var:a#x", "has-type", "int\rx"), "object may not contain tabs or newlines: 'int\\rx'"),
    (("func:a#\rf", "calls", "func:a#g"),
     "subject may not contain tabs or newlines: 'func:a#\\rf'"),
    (("var:a#\ud800", "has-type", "int"),
     "subject may not contain lone surrogates: 'var:a#\\ud800'"),
])
def test_each_insertion_error_pins_its_message(triple, message):
    builder = GraphBuilder()
    with pytest.raises(CktError) as exc:
        builder.insert_triple(*triple, PROV)
    assert str(exc.value) == message
    assert len(builder.finalize()) == 0


def test_mutation_after_finalize_rejected():
    builder = GraphBuilder()
    builder.insert_triple("func:a#f", "calls", "func:a#g", PROV)
    builder.finalize()
    with pytest.raises(CktError, match="finalized"):
        builder.insert_triple("func:a#f", "calls", "func:a#h", PROV)


FIXTURE = [
    ("func:a#f", "calls", "func:a#g"),
    ("func:a#f", "calls", "func:a#h"),
    ("func:a#g", "calls", "func:a#h"),
    ("func:a#f", "writes", "var:a#x"),
    ("file:a", "declares", "func:a#f"),
]


def test_match_agrees_with_full_scan():
    graph = build(FIXTURE)
    all_triples = list(graph.triples())
    shapes = [
        (None, None, None), ("func:a#f", None, None), (None, "calls", None),
        (None, None, "func:a#h"), ("func:a#f", "calls", None),
        ("func:a#f", None, "var:a#x"), (None, "calls", "func:a#h"),
        ("func:a#f", "calls", "func:a#g"), ("missing:x", None, None),
    ]
    for s, p, o in shapes:
        got = list(graph.match(s, p, o))
        want = [
            t for t in all_triples
            if (s is None or t[0] == s) and (p is None or t[1] == p) and (o is None or t[2] == o)
        ]
        assert sorted(got) == sorted(want), (s, p, o)
        again = list(graph.match(s, p, o))
        assert got == again, f"iteration order not deterministic for {(s, p, o)}"


_MATCH_IDS = ["func:g#a", "func:g#b", "var:g#x"]
_MATCH_PREDS = ["calls", "reads"]
# has-type objects that sort among the ids: before, between and after them
_MATCH_LITERALS = ["func:", "int", "var", "zz"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_MATCH_IDS), st.sampled_from(_MATCH_PREDS),
                          st.sampled_from(_MATCH_IDS)), max_size=25),
       st.lists(st.tuples(st.sampled_from(_MATCH_IDS), st.just("has-type"),
                          st.sampled_from(_MATCH_LITERALS)), max_size=6),
       st.data())
def test_match_order_on_random_graphs(edges, typed, data):
    """Every bound shape, with ids and literals that are in the graph and
    ones that are not, yields the full scan's keys in the order of the
    index it reads, on the built graph and on its save/load round trip."""
    triples = edges + typed
    graph, sources = built(triples)
    with tempfile.TemporaryDirectory() as tmp:
        save_graph(graph, sources, tmp)
        loaded = load_graph(tmp)
    for shape in itertools.product((False, True), repeat=3):
        s, p, o = (
            data.draw(st.sampled_from(pool + [absent])) if bound else None
            for bound, pool, absent in zip(
                shape, (_MATCH_IDS, _MATCH_PREDS + ["has-type"], _MATCH_IDS + _MATCH_LITERALS),
                ("func:g#zz", "writes", "var:g#zz"))
        )
        if o is not None and p is None:
            order = lambda k: (k[2], k[0], k[1])  # noqa: E731
        elif p is not None and s is None:
            order = lambda k: (k[1], k[2], k[0])  # noqa: E731
        else:
            order = None
        want = sorted((k for k in set(triples)
                       if s in (None, k[0]) and p in (None, k[1]) and o in (None, k[2])), key=order)
        assert list(graph.match(s, p, o)) == want, (s, p, o)
        assert list(loaded.match(s, p, o)) == want, (s, p, o)


def test_index_coherence():
    graph = build(FIXTURE)
    spo = set(graph.match(None, None, None))
    by_pred = set()
    for p in {"calls", "writes", "declares"}:
        by_pred |= set(graph.match(None, p, None))
    by_obj = set()
    for o in {"func:a#g", "func:a#h", "var:a#x", "func:a#f"}:
        by_obj |= set(graph.match(None, None, o))
    assert spo == by_pred == by_obj


_INDEX_IDS = ["func:g#a", "func:g#b", "var:g#x", "var:g#\u00e9"]
_INDEX_PREDS = ["calls", "reads", "writes", "guards"]


_INDEX_KEYS = st.lists(st.tuples(st.sampled_from(_INDEX_IDS), st.sampled_from(_INDEX_PREDS),
                                 st.sampled_from(_INDEX_IDS))
                       | st.tuples(st.sampled_from(_INDEX_IDS), st.just("has-type"),
                                   st.sampled_from(["int", "func:", "var", "zz"])),
                       max_size=30)


@st.composite
def index_graphs(draw):
    """A built graph, or its save/load round trip, with the keys it holds."""
    keys = draw(_INDEX_KEYS)
    graph, sources = built(keys)
    if draw(st.booleans()):
        with tempfile.TemporaryDirectory() as tmp:
            save_graph(graph, sources, tmp)
            graph = load_graph(tmp)
    return graph, set(keys)


@settings(max_examples=150, deadline=None)
@given(index_graphs())
def test_each_predicate_list_is_a_filter_of_the_keys_in_object_subject_order(graph_and_keys):
    """match(None, p, None) and match(None, p, o) read the predicate's own
    list, sorted on first use: for every predicate and every object, in the
    graph or not, they equal a plain filter of the keys sorted by (o, s)."""
    graph, keys = graph_and_keys
    by_object = sorted(keys, key=lambda k: (k[2], k[0]))
    objects = {k[2] for k in keys} | {"var:g#zz", "a"}
    for p in sorted(PREDICATES):
        want = [k for k in by_object if k[1] == p]
        assert list(graph.match(None, p, None)) == want
        for o in sorted(objects):
            assert list(graph.match(None, p, o)) == [k for k in want if k[2] == o]
        assert list(graph.match(None, p, None)) == want  # once sorted, kept


def test_readers_racing_on_first_lookups_each_get_the_whole_list():
    preds = ["calls", "reads", "writes"]
    keys = [(f"func:a#f{i % 7}", p, f"func:a#g{i % 5}") for i, p in enumerate(preds * 40)]
    want = {p: sorted((k for k in set(keys) if k[1] == p), key=lambda k: (k[2], k[0]))
            for p in preds}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            graph = build(keys)
            results = []

            def read():
                for p in preds:
                    results.append((p, list(graph.match(None, p, None))))

            readers = [threading.Thread(target=read) for _ in range(4)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=10)
            assert not any(reader.is_alive() for reader in readers)
            assert len(results) == 12 and all(rows == want[p] for p, rows in results)
    finally:
        sys.setswitchinterval(switch)


@settings(max_examples=50, deadline=None)
@given(index_graphs())
def test_lookups_by_subject_make_no_predicate_or_object_run(graph_and_keys):
    """Each lookup keeps the list it made: lookups by subject keep only
    runs of their subject beside the whole SPO run, which a graph made
    from its keys starts with, and a predicate's lookup adds its own run."""
    graph, keys = graph_and_keys
    for s in _INDEX_IDS + ["func:g#zz"]:
        assert list(graph.match(s, None, None)) == sorted(k for k in keys if k[0] == s)
        for p in _INDEX_PREDS:
            assert list(graph.match(s, p, None)) == sorted(k for k in keys if k[:2] == (s, p))
    whole = (None, None, None)
    assert all(query == whole or query[0] is not None and query[2] is None
               for query in graph._runs)
    list(graph.match(None, "calls", None))
    assert [query for query in graph._runs if query[0] is None and query != whole] \
        == [(None, "calls", None)]


@settings(max_examples=50, deadline=None)
@given(_INDEX_KEYS)
def test_a_built_graph_makes_pos_and_osp_when_first_read(keys):
    """A build whose entry is already cached reads neither: lookups by
    subject make no POS or OSP, a predicate's lookup makes POS, an
    object's OSP, and entry() gives the arrays that a graph decoded from
    it keeps and that a graph made again and asked for its entry makes."""
    graph, _ = built(keys)
    for s in _INDEX_IDS:
        list(graph.match(s, None, None))
        list(graph.match(s, "calls", None))
    assert graph._arrays[1:] == [None, None]
    list(graph.match(None, "calls", None))
    assert graph._arrays[1] is not None and graph._arrays[2] is None
    for _, _, o in sorted(keys)[:1]:
        list(graph.match(None, None, o))
        assert graph._arrays[2] is not None
    columns = graph.entry()
    assert columns[-3:] == graph._arrays == built(keys)[0].entry()[-3:]
    decoded = KnowledgeGraph.from_entry(columns)
    assert all(a is b for a, b in zip(decoded._arrays, columns[-3:]))
    for p in _INDEX_PREDS:
        assert list(decoded.match(None, p, None)) == list(graph.match(None, p, None))


# -- pagerank ---------------------------------------------------------------


def test_pagerank_two_node_symmetry():
    graph = build([("func:a#f", "calls", "func:a#g"), ("func:a#g", "calls", "func:a#f")])
    rank = graph.pagerank()
    assert rank["func:a#f"] == pytest.approx(0.5, abs=1e-9)
    assert rank["func:a#g"] == pytest.approx(0.5, abs=1e-9)


def test_pagerank_single_node():
    builder = GraphBuilder()
    builder.add_entity(Entity("func:a#f", "function", "f"))
    graph = builder.finalize()
    assert graph.pagerank() == {"func:a#f": 1.0}


def test_pagerank_empty_graph():
    assert GraphBuilder().finalize().pagerank() == {}


def test_pagerank_chain_matches_dense_oracle():
    graph = build([("func:a#a", "calls", "func:a#b"), ("func:a#b", "calls", "func:a#c")])
    rank = graph.pagerank()
    keys = list(graph.triples())
    oracle = dense_pagerank(list(graph.entities), keys)
    for node in rank:
        assert rank[node] == pytest.approx(oracle[node], abs=1e-8)


def test_pagerank_conservation_every_iteration():
    graph = build(FIXTURE)
    sums = []
    graph.pagerank(on_iteration=lambda r: sums.append(sum(r.values())))
    assert len(sums) >= 2
    for total in sums:
        assert total == pytest.approx(1.0, abs=1e-9)


def random_graph(rng, max_nodes=12, max_triples=30, preds=("calls", "reads", "declares")):
    n = rng.randint(2, max_nodes)
    nodes = [f"func:g#n{i}" for i in range(n)]
    triples = []
    for _ in range(rng.randint(1, max_triples)):
        triples.append((rng.choice(nodes), rng.choice(preds), rng.choice(nodes)))
    return build(triples)


def test_pagerank_random_graphs_match_oracle():
    rng = random.Random(1234)
    for _ in range(20):
        graph = random_graph(rng, max_nodes=30)
        keys = list(graph.triples())
        rank = graph.pagerank()
        oracle = dense_pagerank(list(graph.entities), keys)
        for node in graph.entities:
            assert rank[node] == pytest.approx(oracle[node], abs=1e-8)
        # ordering agrees once ties below the tolerance are collapsed
        mine = sorted(rank, key=lambda u: (-round(rank[u], 8), u))
        theirs = sorted(oracle, key=lambda u: (-round(oracle[u], 8), u))
        assert mine == theirs


_NODE_PREDS = ["calls", "reads", "writes", "declares"]


@st.composite
def analytics_graphs(draw):
    """Graphs with a self-loop, one pair linked under several predicates, a
    has-type literal, isolated nodes and, among the drawn triples, dangling
    nodes."""
    nodes = [f"func:g#n{i}" for i in range(draw(st.integers(1, 10)))]
    node = st.sampled_from(nodes)
    triples = draw(st.lists(st.tuples(node, st.sampled_from(_NODE_PREDS), node), max_size=30))
    pair = draw(st.tuples(node, node))
    triples += [(pair[0], pred, pair[1]) for pred in ("calls", "reads", "precedes")]
    loop = draw(node)
    triples += [(loop, "calls", loop), (draw(node), "has-type", "int")]
    isolated = [Entity(f"var:g#iso{i}", "variable", f"iso{i}")
                for i in range(draw(st.integers(0, 2)))]
    return build(draw(st.permutations(triples)), isolated)


@settings(max_examples=200, deadline=None)
@given(analytics_graphs())
def test_pagerank_is_bit_identical_to_the_dict_power_iteration(graph):
    """The dense-id core adds the same floats in the same order as the
    dict-keyed iteration: equal scores in equal key order, and an equal
    score sequence for each iteration."""
    keys = list(graph.triples())
    seen, want = [], []
    oracle = dict_pagerank(graph.entities, keys, on_iteration=want.append)
    assert list(graph.pagerank(on_iteration=seen.append).items()) == list(oracle.items())
    assert [list(r.items()) for r in seen] == [list(r.items()) for r in want]
    assert list(graph.pagerank().items()) == list(oracle.items())
    assert graph.count_triangles() == brute_triangles(graph.entities, keys)


@settings(max_examples=100, deadline=None)
@given(analytics_graphs(), st.data())
def test_neighborhood_is_the_subgraph_induced_by_the_bfs_ball(graph, data):
    keys = list(graph.triples())
    adj = undirected_adjacency(graph.entities, keys)
    node = data.draw(st.sampled_from(sorted(graph.entities)))
    assert list(graph.entities) == sorted(graph.entities)
    for radius in range(4):
        sub = graph.neighborhood(node, radius)
        ball = bfs_within(adj, node, radius)
        assert list(sub.entities) == sorted(ball)
        assert all(sub.entities[eid] is graph.entities[eid] for eid in ball)
        induced = [k for k in keys if k[0] in ball and k[1] != "has-type" and k[2] in ball]
        assert list(sub.triples()) == induced
        for k in set(keys).difference(induced):
            assert k not in sub


# -- triangles ----------------------------------------------------------------


def test_triangle_k3():
    graph = build([
        ("func:a#a", "calls", "func:a#b"),
        ("func:a#b", "calls", "func:a#c"),
        ("func:a#c", "calls", "func:a#a"),
    ])
    counts, total = graph.count_triangles()
    assert total == 1
    assert set(counts.values()) == {1}


def test_triangle_k4():
    nodes = [f"func:a#{x}" for x in "abcd"]
    triples = [
        (u, "calls", v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]
    ]
    _, total = build(triples).count_triangles()
    assert total == 4


def test_triangle_per_node_identity_and_oracle():
    rng = random.Random(99)
    for _ in range(10):
        graph = random_graph(rng, max_nodes=12)
        counts, total = graph.count_triangles()
        assert sum(counts.values()) == 3 * total
        keys = list(graph.triples())
        oracle_counts, oracle_total = brute_triangles(list(graph.entities), keys)
        assert counts == oracle_counts and total == oracle_total


# -- neighborhood -------------------------------------------------------------


def test_neighborhood_radius_zero():
    graph = build(FIXTURE)
    sub = graph.neighborhood("func:a#f", 0)
    assert set(sub.entities) == {"func:a#f"}
    assert len(sub) == 0


def test_neighborhood_radius_one_matches_bfs():
    graph = build(FIXTURE)
    sub = graph.neighborhood("func:a#f", 1)
    adj = undirected_adjacency(graph.entities, FIXTURE)
    assert set(sub.entities) == bfs_within(adj, "func:a#f", 1)
    for s, _, o in sub.triples():
        assert s in sub.entities and o in sub.entities


def test_neighborhood_large_radius_is_component():
    graph = build(FIXTURE)
    sub = graph.neighborhood("func:a#f", 99)
    assert set(sub.entities) == set(graph.entities)


def test_neighborhood_unknown_node():
    graph = build(FIXTURE)
    with pytest.raises(NotFoundError):
        graph.neighborhood("func:a#nope", 1)


# -- persistence ---------------------------------------------------------------


def test_empty_graph_round_trip(tmp_path):
    builder = GraphBuilder()
    graph = builder.finalize()
    save_graph(graph, builder.sources, tmp_path)
    assert round_trips(tmp_path, graph, builder.sources)


def test_fixture_round_trip_with_spans_and_literals(tmp_path):
    builder = GraphBuilder()
    builder.add_entity(Entity("file:a.c", "file", "a.c", Span("a.c", 1, 9), {"x": "1"}))
    builder.insert_triple("file:a.c", "declares", "var:a.c#v", PROV)
    builder.insert_triple("var:a.c#v", "has-type", "unsigned long", PROV)
    builder.insert_triple(
        "func:a.c#f", "guards", "var:a.c#v", Provenance("trace", "t", "locks=L1,L2")
    )
    graph = builder.finalize()
    save_graph(graph, builder.sources, tmp_path)
    assert round_trips(tmp_path, graph, builder.sources)
    _, again = builder_load_graph(tmp_path)
    assert again[("func:a.c#f", "guards", "var:a.c#v")][0].detail == "locks=L1,L2"


def test_corrupt_triple_line_names_line(tmp_path):
    save_graph(*built(FIXTURE), tmp_path)
    triples = tmp_path / "triples.tsv"
    lines = triples.read_text().splitlines()
    lines[2] = "only\tthree\tfields"
    triples.write_text("\n".join(lines) + "\n")
    with pytest.raises(Exception) as exc:
        load_graph(tmp_path)
    assert "line 3" in str(exc.value)


@st.composite
def builders(draw):
    n = draw(st.integers(1, 10))
    nodes = [f"func:h#n{i}" for i in range(n)]
    builder = GraphBuilder()
    for i, node in enumerate(nodes):
        span = Span("h.c", i + 1, i + 1) if draw(st.booleans()) else None
        builder.add_entity(Entity(node, "function", f"n{i}", span))
    for _ in range(draw(st.integers(0, 25))):
        s = draw(st.sampled_from(nodes))
        o = draw(st.sampled_from(nodes))
        p = draw(st.sampled_from(["calls", "reads", "precedes"]))
        prov = Provenance(
            draw(st.sampled_from(["source-code", "trace", "derived"])),
            f"gen:{draw(st.integers(0, 99))}",
            draw(st.sampled_from(["", "locks=a"])),
        )
        builder.insert_triple(s, p, o, prov)
    return builder.finalize(), builder.sources


@settings(max_examples=50, deadline=None)
@given(builders())
def test_save_load_round_trip_property(tmp_path_factory, graph_and_sources):
    directory = tmp_path_factory.mktemp("rt")
    save_graph(*graph_and_sources, directory)
    assert round_trips(directory, *graph_and_sources)


# sources and origins that repeat across lists and within one, beside any text
_PROV_PART = (st.sampled_from(["source-code", "comment", "r\u00e9sum\u00e9", "\U0001f600"])
              | _PROV_TEXT)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.lists(st.builds(Provenance, _PROV_PART, _PROV_PART, st.just("") | _PROV_PART),
                         min_size=1, max_size=4), min_size=1, max_size=6))
def test_triples_file_lines_equal_json_dumps(tmp_path_factory, lists):
    """Each triples.tsv line ends in its provenance list as json.dumps
    writes it."""
    builder = GraphBuilder()
    expected = []
    for i, provenance in enumerate(lists):
        for prov in provenance:
            builder.insert_triple(f"func:h#f{i}", "calls", "func:h#g", prov)
        expected.append(f"func:h#f{i}\tcalls\tfunc:h#g\t{provenance_json(provenance)}\n")
    directory = tmp_path_factory.mktemp("prov")
    save_graph(builder.finalize(), builder.sources, directory)
    assert (directory / TRIPLES_FILE).read_bytes() == "".join(expected).encode()


@settings(deadline=None, max_examples=200)
@given(_PROV_TEXT.filter(bool), st.sampled_from(sorted(ENTITY_KINDS)), _PROV_TEXT,
       st.none() | st.tuples(_PROV_TEXT, st.integers(-5, 10**12), st.integers(0, 5)),
       st.dictionaries(_PROV_TEXT, _PROV_TEXT, max_size=4),
       st.floats(allow_nan=False, allow_infinity=False))
def test_node_writer_equals_json_dumps(eid, kind, label, span, attrs, rank):
    span = span and Span(span[0], span[1], span[1] + span[2])
    entity = Entity(eid, kind, label, span, attrs)
    assert _node_line(entity, rank) == node_line(entity, rank)


# ids and labels with non-ASCII text: triples.tsv holds ids as they are, so a
# chunk boundary can fall between two lines of multi-byte characters
_STREAM_IDS = st.text(st.sampled_from("ab\u00e9\u4e2d\U0001f600"), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_STREAM_IDS, st.sampled_from(["calls", "reads"]), _STREAM_IDS),
                max_size=12),
       _STREAM_IDS, st.integers(1, 5))
def test_streamed_files_equal_the_joined_lines(edges, label, chunk_lines):
    """save_graph writes each file CHUNK_LINES lines at a time: the bytes
    equal its lines joined whole, and graph.json gives their BLAKE2b."""
    builder = GraphBuilder()
    builder.add_entity(Entity("func:h#" + label, "function", label))
    for s, p, o in edges:
        builder.insert_triple("func:h#" + s, p, "func:h#" + o, Provenance("source-code", s))
    graph = builder.finalize()
    lines = {
        NODES_FILE: [node_line(graph.entities[eid], rank)
                     for eid, rank in sorted(graph.pagerank().items())],
        TRIPLES_FILE: [f"{s}\t{p}\t{o}\t{provenance_json(builder.sources[s, p, o])}"
                       for s, p, o in graph.triples()],
    }
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ckt.graph, "CHUNK_LINES", chunk_lines):
        save_graph(graph, builder.sources, tmp, {"stats.json": "{\u00e9}\n".encode()})
        files = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
    for name, text in lines.items():
        assert files[name] == "".join(line + "\n" for line in text).encode()
    assert files["stats.json"] == "{\u00e9}\n".encode()
    manifest = json.loads(files.pop(GRAPH_MANIFEST))
    assert manifest == {"format": 3,
                        "blake2b": {n: blake2b_hex(d) for n, d in sorted(files.items())}}


def test_rank_table_is_a_read_only_view_of_the_ranks():
    graph = build(FIXTURE)
    table = graph.rank_table()
    assert dict(table) == graph.pagerank()
    with pytest.raises(TypeError):
        table["func:a#f"] = 1.0
    assert GraphBuilder().finalize().rank_table() == {}


def spy_on_replace(monkeypatch, fail_on=None):
    """Record the name each os.replace puts in place; raise OSError
    instead for the name `fail_on`."""
    names = []
    replace = os.replace

    def spy(src, dst):
        if Path(dst).name == fail_on:
            raise OSError("disk full")
        names.append(Path(dst).name)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    return names


def test_save_renames_each_file_into_place_and_graph_json_last(tmp_path, monkeypatch):
    names = spy_on_replace(monkeypatch)
    save_graph(*built(FIXTURE), tmp_path, {"stats.json": b"{}\n"})
    assert names == ["nodes.jsonl", "triples.tsv", "stats.json", GRAPH_MANIFEST]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    manifest = json.loads((tmp_path / GRAPH_MANIFEST).read_text(encoding="utf-8"))
    assert manifest == {"format": 3, "blake2b": {
        name: blake2b_hex((tmp_path / name).read_bytes()) for name in names[:-1]}}


def test_save_removes_the_files_of_an_older_build_that_it_does_not_write(tmp_path):
    """A trace or template copy, and the ranks.tsv of a format-2 build:
    after the save, graph.json vouches for every file of the directory."""
    for name in ("trace.jsonl", "templates.jsonl", "ranks.tsv"):
        (tmp_path / name).write_bytes(b"old\n")
    save_graph(*built(FIXTURE), tmp_path)
    manifest = json.loads((tmp_path / GRAPH_MANIFEST).read_text(encoding="utf-8"))
    names = sorted(p.name for p in tmp_path.iterdir() if p.name != GRAPH_MANIFEST)
    assert sorted(manifest["blake2b"]) == names == [NODES_FILE, TRIPLES_FILE]


def test_failed_save_keeps_the_old_graph_json_which_names_the_changed_file(tmp_path, monkeypatch):
    save_graph(*built(FIXTURE), tmp_path)
    old = (tmp_path / GRAPH_MANIFEST).read_bytes()
    spy_on_replace(monkeypatch, fail_on=GRAPH_MANIFEST)
    with pytest.raises(OSError):  # the same nodes with other ranks, one more triple
        save_graph(*built([*FIXTURE, ("func:a#g", "reads", "var:a#x")]), tmp_path)
    assert (tmp_path / GRAPH_MANIFEST).read_bytes() == old
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]
    # the new files under the old graph.json: a torn directory
    with pytest.raises(FormatError) as exc:
        load_graph(tmp_path)
    assert str(exc.value).startswith("line 4: graph.json: nodes.jsonl does not match")


@pytest.mark.parametrize("failure", ["encode", "disk-full"])
def test_a_save_that_fails_before_its_renames_changes_nothing(tmp_path, monkeypatch, failure):
    """Every temporary file, graph.json's too, is written before any is
    renamed, so a save that fails on a key that UTF-8 cannot encode, or on
    a full disk at graph.json, renames nothing and leaves no temporary
    file behind."""
    save_graph(*built(FIXTURE), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    new, table = built([*FIXTURE, ("func:a#g", "reads", "var:a#x")])  # other ranks in nodes.jsonl
    if failure == "encode":
        key = ("var:a#x", "has-type", "int\ud800")  # which insert_triple refuses
        table = {**table, key: [PROV]}
        new = KnowledgeGraph(new.entities, sorted(table))
    else:
        write = ckt.graph._write

        def full(path, chunks):
            if path.name.startswith(f".{GRAPH_MANIFEST}."):
                raise OSError("disk full")
            return write(path, chunks)

        monkeypatch.setattr(ckt.graph, "_write", full)
    names = spy_on_replace(monkeypatch)
    with pytest.raises(UnicodeEncodeError if failure == "encode" else OSError):
        save_graph(new, table, tmp_path)
    assert names == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def stamp_old_build(directory: Path) -> None:
    """Load the directory twice, once it settled: the first load parses and
    writes the entry, and the second hashes and writes the stamp, which
    each load during the rebuild then reads first."""
    load_graph(directory)
    settle(directory)
    load_graph(directory)


@pytest.mark.parametrize("stamped", [False, True], ids=["no-stamp", "stamped"])
def test_a_load_after_each_rename_of_a_rebuild_is_one_build_or_torn(tmp_path, monkeypatch,
                                                                      stamped):
    (old, old_sources), (new, new_sources) = (
        built(FIXTURE), built([*FIXTURE, ("func:a#g", "reads", "var:a#x")]))
    save_graph(old, old_sources, tmp_path)
    if stamped:
        stamp_old_build(tmp_path)
    outcomes = []
    replace = os.replace

    def load_after(src, dst):
        replace(src, dst)
        if Path(dst).parent != tmp_path:  # the graph cache's rename of its entry
            return
        try:
            graph = load_graph(tmp_path)
        except FormatError:
            outcomes.append("torn")
        else:
            outcomes.append("old" if graphs_equal(graph, old)
                            else "new" if graphs_equal(graph, new) else "mixed")

    monkeypatch.setattr(os, "replace", load_after)
    save_graph(new, new_sources, tmp_path)
    # the new triple changes the ranks, so each rename but the last tears
    assert outcomes == ["torn", "torn", "new"]


@pytest.mark.parametrize("old_triples, new_triples", [
    ([*FIXTURE, ("func:a#g", "calls", "func:a#old")], FIXTURE),
    (FIXTURE, [*FIXTURE, ("func:a#h", "calls", "func:a#new")]),
], ids=["node-removed", "node-added"])
@pytest.mark.parametrize("stamped", [False, True], ids=["no-stamp", "stamped"])
def test_a_load_during_a_rebuild_names_a_changed_file_not_a_line(tmp_path, monkeypatch,
                                                                 old_triples, new_triples,
                                                                 stamped):
    """Whichever renames of a rebuild a load follows, it returns one whole
    graph or names, in graph.json, a file whose bytes graph.json does not
    vouch for; never a line of a file whose digest matches."""
    (old, old_sources), (new, new_sources) = built(old_triples), built(new_triples)
    save_graph(old, old_sources, tmp_path)
    if stamped:
        stamp_old_build(tmp_path)
    outcomes = []
    replace = os.replace

    def load_after(src, dst):
        replace(src, dst)
        if Path(dst).parent != tmp_path:  # the graph cache's rename of its entry
            return
        try:
            graph = load_graph(tmp_path)
        except FormatError as exc:
            named = re.fullmatch(
                r"line \d+: graph\.json: (\S+) does not match its BLAKE2b digest .*", str(exc))
            assert named, exc
            digests = json.loads((tmp_path / GRAPH_MANIFEST).read_bytes())["blake2b"]
            data = (tmp_path / named[1]).read_bytes()
            assert blake2b_hex(data) != digests[named[1]]
            outcomes.append(named[1])
        else:
            outcomes.append("old" if graphs_equal(graph, old)
                            else "new" if graphs_equal(graph, new) else "mixed")

    monkeypatch.setattr(os, "replace", load_after)
    save_graph(new, new_sources, tmp_path)
    assert outcomes == ["nodes.jsonl", "nodes.jsonl", "new"]


def test_a_read_interleaved_with_the_renames_names_the_old_line(tmp_path):
    """The new nodes.jsonl, the old triples.tsv read just before its
    rename, then the new graph.json: the old triples.tsv differs from its
    digest, so its line error stands, as for a hand edit."""
    save_graph(*built([*FIXTURE, ("func:a#g", "calls", "func:a#old")]), tmp_path / "old")
    save_graph(*built(FIXTURE), tmp_path / "new")
    (tmp_path / "new" / TRIPLES_FILE).write_bytes((tmp_path / "old" / TRIPLES_FILE).read_bytes())
    with pytest.raises(FormatError) as exc:
        load_graph(tmp_path / "new")
    assert re.fullmatch(r"line \d+: unknown node 'func:a#old' in triples\.tsv", str(exc.value))
