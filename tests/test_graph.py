"""Triple store, indexes, analytics, persistence."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckt.errors import CktError, NotFoundError
from ckt.graph import (
    GraphBuilder,
    Provenance,
    _provenance_json,
    load_graph,
    save_graph,
)
from ckt.model import Entity, Span
from oracles import bfs_within, brute_triangles, dense_pagerank, graphs_equal, provenance_json

PROV = Provenance("source-code", "test:1")

# quotes, backslashes, control characters, DEL and non-ASCII text, including
# characters outside the basic plane
_PROV_TEXT = st.text(st.sampled_from('a"\\/\x00\n\t\x1f\x7f\u00e9\u2028\U0001f600')
                     | st.characters(), max_size=12)


def build(triples, entities=()):
    builder = GraphBuilder()
    for entity in entities:
        builder.add_entity(entity)
    for s, p, o in triples:
        builder.insert_triple(s, p, o, PROV)
    return builder.finalize()


def test_duplicate_insert_accumulates_provenance():
    builder = GraphBuilder()
    builder.insert_triple("commit:c1", "fixes", "bug:CQ/22", PROV)
    builder.insert_triple("commit:c1", "fixes", "bug:CQ/22", Provenance("bug-tracker", "x"))
    graph = builder.finalize()
    assert len(graph) == 1
    assert len(graph.provenance["commit:c1", "fixes", "bug:CQ/22"]) == 2


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_MATCH_IDS), st.sampled_from(_MATCH_PREDS),
                          st.sampled_from(_MATCH_IDS)), max_size=25),
       st.data())
def test_match_order_on_random_graphs(triples, data):
    """Every bound shape, with ids that are in the graph and ids that are
    not, yields the full scan's keys in the order of the index it reads."""
    graph = build(triples)
    for shape in itertools.product((False, True), repeat=3):
        s, p, o = (
            data.draw(st.sampled_from(pool + [absent])) if bound else None
            for bound, pool, absent in zip(
                shape, (_MATCH_IDS, _MATCH_PREDS, _MATCH_IDS), ("func:g#zz", "writes", "var:g#zz"))
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
    adj = {u: sorted(vs) for u, vs in graph.undirected_adjacency().items()}
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
    graph = GraphBuilder().finalize()
    save_graph(graph, tmp_path)
    assert graphs_equal(load_graph(tmp_path), graph)


def test_fixture_round_trip_with_spans_and_literals(tmp_path):
    builder = GraphBuilder()
    builder.add_entity(Entity("file:a.c", "file", "a.c", Span("a.c", 1, 9), {"x": "1"}))
    builder.insert_triple("file:a.c", "declares", "var:a.c#v", PROV)
    builder.insert_triple("var:a.c#v", "has-type", "unsigned long", PROV)
    builder.insert_triple(
        "func:a.c#f", "guards", "var:a.c#v", Provenance("trace", "t", "locks=L1,L2")
    )
    graph = builder.finalize()
    save_graph(graph, tmp_path)
    again = load_graph(tmp_path)
    assert graphs_equal(again, graph)
    assert again.provenance["func:a.c#f", "guards", "var:a.c#v"][0].detail == "locks=L1,L2"


def test_corrupt_triple_line_names_line(tmp_path):
    graph = build(FIXTURE)
    save_graph(graph, tmp_path)
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
    return builder.finalize()


@settings(max_examples=50, deadline=None)
@given(builders())
def test_save_load_round_trip_property(tmp_path_factory, graph):
    directory = tmp_path_factory.mktemp("rt")
    save_graph(graph, directory)
    assert graphs_equal(load_graph(directory), graph)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.builds(Provenance, _PROV_TEXT, _PROV_TEXT, st.just("") | _PROV_TEXT),
                min_size=1, max_size=4))
def test_provenance_writer_equals_json_dumps(provenance):
    assert _provenance_json(tuple(provenance)) == provenance_json(provenance)
