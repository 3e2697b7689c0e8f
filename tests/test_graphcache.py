"""The per-user graph cache: a load through it equals the strict load, cold
and warm, and the graph decoded from an entry looks up every shape of
pattern as oracles.TupleIndexes does; an entry is named by the graph
format, the digests of the graph files and of the trace copy, the entry
layout, the marshal format, the interpreter, the byte order and the
array item sizes, so an entry of another byte order or of layout 4 is
never opened, two interpreters taking turns each parse once, a copy of
a graph directory and a rebuild back to earlier bytes load from the entry
already written, and files that graph.json does not vouch for raise what
the strict load raises; a truncated entry, or one with a flipped byte or
a missing record, is a miss that parses the files and writes the entry
anew; a cache that cannot be written changes no answer and raises
nothing; a query after a rebuild answers from the new graph; a cache
directory that another user could write is not used; the temporary files
of a killed writer are swept; a warm load holds no whole entry; and a
query load decodes the replay's locksets of the trace copy that the entry
names, so a hit parses and imports no trace parser, while a damaged or
missing locksets record is a miss.  A load whose stamp's stat data
match hashes nothing, and every other stamp case hashes and then hits or
raises as a load with no stamp does; the entry that `ckt build` writes
is the one a parse writes, byte for byte, and load_graph keys it as the
build does, so it adds no second entry.  Each test keeps its cache in
a temporary XDG_CACHE_HOME of its own, and compares with
oracles.strict_load_graph."""

import gc
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from array import array
from contextlib import contextmanager
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckt.graph
from ckt import build, graphcache
from ckt.cli import _load_query_context
from ckt.extraction import traces
from ckt.extraction.traces import load_trace
from ckt.graph import (
    FORMAT_VERSION,
    GRAPH_MANIFEST,
    NODES_FILE,
    TRACE_COPY,
    TRIPLES_FILE,
    GraphBuilder,
    KnowledgeGraph,
    Provenance,
    load_graph,
    save_graph,
)
from ckt.model import Entity, Span
from ckt.query.evaluate import ResultSet
from ckt.smart import AugmentContext, augment
from conftest import settle
from oracles import TupleIndexes, graphs_equal, strict_load_graph

SRC = Path(__file__).resolve().parents[1] / "src"
DECLARES = "SELECT ?f WHERE { file:src/ftpety.c declares ?f }"


@contextmanager
def cache_home(xdg: Path):
    """XDG_CACHE_HOME is `xdg` in the block, which gets its graph cache."""
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(xdg)}):
        yield xdg / "ckt"


@pytest.fixture
def cache(tmp_path, monkeypatch) -> Path:
    """The graph cache of the test: the ckt directory of an XDG_CACHE_HOME
    of its own, which no load has made yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "ckt"


def key_of(out: Path) -> tuple:
    """The cache key of the graph that the graph.json of `out` vouches for,
    and of its trace copy, if any, as every load and the build key it."""
    digests = json.loads((out / GRAPH_MANIFEST).read_bytes())["blake2b"]
    return (FORMAT_VERSION, digests[NODES_FILE], digests[TRIPLES_FILE], digests.get(TRACE_COPY))


def entry_path(cache: Path, out: Path) -> Path:
    """Where `cache` keeps the entry of the graph directory `out`."""
    return cache / graphcache._name(key_of(out))


@contextmanager
def counted_parses():
    """A spy on the strict parse: its call_count is the parses in the block."""
    with mock.patch.object(ckt.graph, "_parse_graph", wraps=ckt.graph._parse_graph) as spy:
        yield spy


def identical(loaded: KnowledgeGraph, strict: KnowledgeGraph) -> bool:
    """graphs_equal, each span a Span, and each rank the same float bit for bit."""
    return (graphs_equal(loaded, strict)
            and all(e.span is None or type(e.span) is Span for e in loaded.entities.values())
            and [r.hex() for r in loaded.rank_table().values()]
            == [r.hex() for r in strict.rank_table().values()])


def run_ckt(*args, env=None) -> subprocess.CompletedProcess:
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ckt", *args], capture_output=True, text=True,
                          env=env, timeout=120)


# -- cold and warm loads equal the strict load ---------------------------------

_KINDS = {"func": "function", "var": "variable", "bug": "bug", "concept": "concept"}
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_RANKS = (st.sampled_from([5e-324, 0.0, -0.0, 1.0, 0.1 + 0.2])
          | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def graphs(draw):
    """A graph and its builder's table: nodes with labels, span paths and
    attributes of any text, keys with entity and literal objects, and
    drawn ranks, which save_graph writes as they are."""
    builder = GraphBuilder()
    names = draw(st.lists(st.tuples(st.sampled_from(sorted(_KINDS)), st.integers(0, 40)),
                          unique=True, min_size=1, max_size=12))
    ids = [f"{prefix}:a.c#n{i}" for prefix, i in names]
    for eid, (prefix, _) in zip(ids, names):
        span = draw(st.none() | st.builds(lambda path, start, more: Span(path, start, start + more),
                                           _TEXT, st.integers(0, 10**12), st.integers(0, 5)))
        builder.add_entity(Entity(eid, _KINDS[prefix], draw(_TEXT), span,
                                  draw(st.dictionaries(_TEXT, _TEXT, max_size=3))))
    for _ in range(draw(st.integers(0, 20))):
        subject = draw(st.sampled_from(ids))
        if draw(st.booleans()):
            predicate, object_ = "has-type", draw(st.sampled_from(["int", "char *", "n0", "é"]))
        else:
            predicate = draw(st.sampled_from(["calls", "reads", "writes", "guards", "precedes"]))
            object_ = draw(st.sampled_from(ids))
        builder.insert_triple(subject, predicate, object_, Provenance("source-code", "a.c:1"))
    graph = builder.finalize()
    ranks = {eid: draw(_RANKS) for eid in graph.entities}
    return KnowledgeGraph(graph.entities, list(graph.triples()), ranks), builder.sources


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_a_cold_and_a_warm_load_each_equal_the_strict_load(graph_and_sources):
    """The first load through the cache parses and writes the entry, the
    second decodes it, and both give what the strict load gives."""
    with tempfile.TemporaryDirectory() as tmp, cache_home(Path(tmp, "xdg")):
        out = Path(tmp, "out")
        save_graph(*graph_and_sources, out)
        strict = strict_load_graph(out)
        with counted_parses() as spy:
            cold = load_graph(out)
            warm = load_graph(out)
        assert spy.call_count == 1
        assert identical(cold, strict) and identical(warm, strict)
        assert identical(warm, graph_and_sources[0])


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_match_gives_the_tuple_indexes_keys_built_and_decoded(graph_and_sources, data):
    """For every shape of bound and unbound positions, with ids, literals
    and predicates of the graph and ones it lacks, match gives the keys of
    oracles.TupleIndexes, in its order: on the built graph, and on the
    same graph decoded from its entry, with arrays of 32-bit items, which
    hold the numbers of a graph this small, or of 64-bit items, which
    larger graphs need.  The decoded graph's entities come in the built
    one's order, equal to its, and a read of an id gives the same object
    each time."""
    graph = graph_and_sources[0]
    keys = list(graph.triples())
    if data.draw(st.booleans(), label="64-bit items"):
        with mock.patch.object(ckt.graph, "_typecode", return_value="Q"):
            graph = KnowledgeGraph(dict(graph.entities), keys, dict(graph.rank_table()))
        assert graph.entry()[-1].typecode == "Q"
    oracle = TupleIndexes(keys)
    with tempfile.TemporaryDirectory() as tmp, cache_home(Path(tmp)):
        graphcache.write(("drawn",), graph.entry(), None)
        columns, _ = graphcache.read(("drawn",))
    decoded = KnowledgeGraph.from_entry(columns)
    terms = sorted({k[0] for k in keys} | {k[2] for k in keys} | set(graph.entities)
                   | {"func:a.c#absent", "int", "zz"})
    probe = st.lists(st.sampled_from(terms), max_size=3, unique=True)
    predicates = [None, *sorted({k[1] for k in keys}), "calls", "unknown"]
    for s, p, o in product([None, *data.draw(probe)], predicates, [None, *data.draw(probe)]):
        for g in (graph, decoded):
            assert list(g.match(s, p, o)) == oracle.match(s, p, o)
    assert list(decoded.entities) == list(graph.entities) == sorted(graph.entities)
    for eid in graph.entities:
        assert decoded.entities[eid] == graph.entities[eid]
        assert decoded.entities[eid] is decoded.entities.get(eid) is decoded.entity(eid)
    assert decoded.entities.get("func:a.c#absent") is None
    assert "func:a.c#absent" not in decoded.entities and "int" not in decoded.entities


def test_each_load_shares_one_string_per_kind_path_and_attribute_key(scenario_dir, cache):
    """The parse interns them, so the strict load, the cold load and the
    warm load, which decodes the entry that the cold one wrote, each hold
    one string for each."""
    loads = [strict_load_graph(scenario_dir / "out")]
    with counted_parses() as spy:
        loads += [load_graph(scenario_dir / "out"), load_graph(scenario_dir / "out")]
    assert spy.call_count == 1
    for graph in loads:
        entities = list(graph.entities.values())
        for strings in ([e.kind for e in entities], [e.span.path for e in entities if e.span],
                        [k for e in entities for k in e.attrs], [p for _, p, _ in graph.triples()]):
            assert len({id(s) for s in strings}) == len(set(strings)) > 1


# -- damaged entries ---------------------------------------------------------------


@pytest.fixture
def warm_scenario(scenario_dir, tmp_path, cache):
    """(graph directory, cache, entry, strict graph): a copy of the
    scenario's graph, and its entry, one record per column."""
    out = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", out)
    strict = strict_load_graph(out)
    load_graph(out)
    entry = entry_path(cache, out)
    assert len(record_spans(entry.read_bytes())) > 4
    return out, cache, entry, strict


def record_spans(data: bytes) -> list[tuple[int, int]]:
    """The (start, end) of each record of an entry's bytes."""
    spans, at = [], 0
    while at < len(data):
        end = at + 20 + int.from_bytes(data[at:at + 4], "little")
        spans.append((at, end))
        at = end
    return spans


def flip(data: bytes, i: int) -> bytes:
    return data[:i] + bytes([data[i] ^ 0x40]) + data[i + 1:]


def without(data: bytes, span: tuple[int, int]) -> bytes:
    return data[:span[0]] + data[span[1]:]


# each takes the entry's bytes and its record spans; record 0 is the head,
# records 1 to 6 hold the terms and the node columns, 7 to 9 the SPO, POS
# and OSP arrays, and the last the locksets
DAMAGES = {
    "empty": lambda data, spans: b"",
    "truncated in the head": lambda data, spans: data[:10],
    "truncated in a node record": lambda data, spans: data[:spans[2][0] + 30],
    "truncated after a record": lambda data, spans: data[:spans[3][1]],
    "one byte short": lambda data, spans: data[:-1],
    "a byte more": lambda data, spans: data + b"\0",
    "flipped length": lambda data, spans: flip(data, spans[2][0]),
    "flipped digest": lambda data, spans: flip(data, spans[2][0] + 4),
    "flipped byte in the head": lambda data, spans: flip(data, spans[0][1] - 3),
    "flipped byte in a node record": lambda data, spans: flip(data, spans[2][0] + 30),
    "flipped last byte": lambda data, spans: flip(data, len(data) - 1),
    "missing node record": lambda data, spans: without(data, spans[2]),
    "missing key record": lambda data, spans: without(data, spans[-3]),
    "records of two arrays traded": lambda data, spans: (
        data[:spans[7][0]] + data[spans[8][0]:spans[8][1]] + data[spans[7][0]:spans[7][1]]
        + data[spans[8][1]:]),
    "missing last record": lambda data, spans: without(data, spans[-1]),
    "records traded": lambda data, spans: (data[:spans[6][0]] + data[spans[7][0]:spans[7][1]]
                                           + data[spans[6][0]:spans[6][1]] + data[spans[7][1]:]),
}


@pytest.mark.parametrize("damage", DAMAGES.values(), ids=list(DAMAGES))
def test_a_damaged_entry_is_a_miss_that_writes_the_entry_anew(warm_scenario, damage):
    out, cache, entry, strict = warm_scenario
    good = entry.read_bytes()
    entry.write_bytes(damage(good, record_spans(good)))
    with counted_parses() as spy:
        assert identical(load_graph(out), strict)
        assert spy.call_count == 1
        assert identical(load_graph(out), strict)
        assert spy.call_count == 1


def test_an_entry_path_that_is_a_directory_is_a_miss_that_raises_nothing(warm_scenario):
    out, cache, entry, strict = warm_scenario
    entry.unlink()
    entry.mkdir()
    with counted_parses() as spy:
        assert identical(load_graph(out), strict)
        assert identical(load_graph(out), strict)
    assert spy.call_count == 2
    assert entry.is_dir() and not list(cache.glob(".*.tmp"))


# -- what names an entry ---------------------------------------------------------


def test_another_key_or_writer_gives_another_name():
    """The graph format, any digest, no trace copy, the entry layout, the
    marshal format, the interpreter, the byte order and the size of an
    array item each give the entry another name."""
    key = (FORMAT_VERSION, "a" * 64, "b" * 64, "d" * 64)
    names = [graphcache._name(key)]
    for other in ((FORMAT_VERSION + 1, "a" * 64, "b" * 64, "d" * 64),
                  (FORMAT_VERSION, "c" * 64, "b" * 64, "d" * 64),
                  (FORMAT_VERSION, "a" * 64, "c" * 64, "d" * 64),
                  (FORMAT_VERSION, "a" * 64, "b" * 64, "c" * 64),
                  (FORMAT_VERSION, "a" * 64, "b" * 64, None)):
        names.append(graphcache._name(other))
    for target, attribute in ((graphcache, "VERSION"), (graphcache.marshal, "version"),
                              (sys.implementation, "cache_tag"), (graphcache.sys, "byteorder")):
        with mock.patch.object(target, attribute, -1):
            names.append(graphcache._name(key))
    wider = mock.Mock(side_effect=lambda code: mock.Mock(itemsize=2 * array(code).itemsize))
    with mock.patch.object(graphcache, "array", wider):  # each array item twice the size
        names.append(graphcache._name(key))
    assert len(set(names)) == len(names) == 11
    assert names[0] == graphcache._name(key)


def test_an_entry_under_the_name_of_the_other_byte_order_is_never_opened(warm_scenario):
    """Bytes that would decode, under the name that a host of the other
    byte order gives the entry: a load parses, and writes its own entry."""
    out, cache, entry, strict = warm_scenario
    other = "big" if sys.byteorder == "little" else "little"
    with mock.patch.object(graphcache.sys, "byteorder", other):
        foreign = cache / graphcache._name(key_of(out))
    entry.rename(foreign)
    with counted_parses() as spy:
        assert identical(load_graph(out), strict)
    assert spy.call_count == 1 and foreign.exists() and entry.exists()


def test_an_entry_of_layout_4_is_never_opened_and_goes_by_age(warm_scenario):
    """Bytes that would decode, under the name that layout 4 gave the
    entry of the same graph, and older than any other: a load parses, and
    its write prunes them once KEEP newer entries are there."""
    out, cache, entry, strict = warm_scenario
    with mock.patch.object(graphcache, "VERSION", 4):
        old = cache / graphcache._name(key_of(out))
    entry.rename(old)
    os.utime(old, (1e9, 1e9))
    for i in range(graphcache.KEEP - 1):
        (cache / f"{i:032x}.graph").write_bytes(b"")
    with counted_parses() as spy:
        assert identical(load_graph(out), strict)
    assert spy.call_count == 1 and entry.exists() and not old.exists()


def test_two_interpreters_taking_turns_each_parse_once(warm_scenario):
    """Four loads that alternate between the interpreter tags of two
    versions of Python: each writes its own entry on its first load and
    decodes it on its second, and neither evicts the other's."""
    out, cache, entry, strict = warm_scenario
    entry.unlink()
    with counted_parses() as spy:
        for tag in ("cpython-311", "cpython-312") * 2:
            with mock.patch.object(sys.implementation, "cache_tag", tag):
                assert identical(load_graph(out), strict)
    assert spy.call_count == 2
    assert len(list(cache.glob("*.graph"))) == 2


def test_a_copy_of_the_graph_directory_loads_from_the_originals_entry(warm_scenario, tmp_path):
    """The entry is named by the bytes of the graph files, not by where
    they are: a copy loads with no parse, and writes no second entry."""
    out, cache, entry, strict = warm_scenario
    written = entry.stat().st_mtime_ns, entry.read_bytes()
    shutil.copytree(out, tmp_path / "copy")
    with counted_parses() as spy:
        assert identical(load_graph(tmp_path / "copy"), strict)
    assert spy.call_count == 0
    assert list(cache.glob("*.graph")) == [entry]  # and the stamp of the copy that hashed
    assert (entry.stat().st_mtime_ns, entry.read_bytes()) == written


def test_a_rebuild_to_other_bytes_and_back_loads_from_the_first_entry(tmp_path, cache):
    """A graph saved, loaded, saved over with another graph, loaded, then
    saved again as it was: the third load decodes the entry that the
    first one wrote, which was never rewritten."""
    graphs = []
    for calls in (1, 2):
        builder = GraphBuilder()
        for i in range(calls):
            builder.insert_triple("func:h.c#f0", "calls", f"func:h.c#f{i}",
                                  Provenance("source-code", "h.c:1"))
        graphs.append((builder.finalize(), builder.sources))
    out = tmp_path / "out"
    loads = []  # (parses, entry, its mtime, its bytes) after each load
    for graph, sources in (*graphs, graphs[0]):
        save_graph(graph, sources, out)
        strict = strict_load_graph(out)
        with counted_parses() as spy:
            assert identical(load_graph(out), strict)
        entry = entry_path(cache, out)
        loads.append((spy.call_count, entry, entry.stat().st_mtime_ns, entry.read_bytes()))
    assert [parses for parses, *_ in loads] == [1, 1, 0]
    assert loads[2][1:] == loads[0][1:] and loads[1][1] != loads[0][1]


@pytest.mark.parametrize("name", [NODES_FILE, TRIPLES_FILE])
def test_files_that_graph_json_does_not_vouch_for_raise_as_the_strict_load(warm_scenario, name):
    """A graph file with a line of the other appended: the load decodes the
    entry that graph.json names, finds the files do not match it, and
    raises what the strict load raises, leaving the entry as it was."""
    out, cache, entry, _ = warm_scenario
    written = entry.read_bytes()
    other = TRIPLES_FILE if name == NODES_FILE else NODES_FILE
    with open(out / name, "ab") as file:
        file.write((out / other).read_bytes().split(b"\n")[0] + b"\n")
    with pytest.raises(ckt.graph.FormatError) as strict:
        strict_load_graph(out)
    with pytest.raises(ckt.graph.FormatError) as cached:
        load_graph(out)
    assert str(cached.value) == str(strict.value)
    assert list(cache.iterdir()) == [entry] and entry.read_bytes() == written


# -- the replay of the trace copy --------------------------------------------------

_VARS = [f"var:a.c#g{i}" for i in range(4)]  # the last is never written
_LOCKS = ["lock:a.c#m0", "lock:a.c#m1"]
_ROWS = ResultSet(("v",), [(var,) for var in _VARS])
RACING = "SELECT ?v WHERE { func:src/VHDLPosedge.cc#VHDLPosedge_S2 writes ?v }"


@st.composite
def trace_copies(draw):
    """The bytes of a trace copy: events on up to three threads, with
    nested and re-entrant acquires of two locks, releases of locks not
    held, reads and writes of the variables, and calls."""
    lines = []
    for seq in range(1, draw(st.integers(0, 40)) + 1):
        kind = draw(st.sampled_from(["acquire", "release", "read", "write", "enter", "exit"]))
        target = draw(st.sampled_from(_LOCKS if kind in ("acquire", "release")
                                      else _VARS if kind == "read"
                                      else _VARS[:-1] if kind == "write" else ["func:a.c#f"]))
        lines.append(json.dumps({"seq": seq, "tid": draw(st.integers(1, 3)), "kind": kind,
                                 "target": target}) + "\n")
    return "".join(lines).encode()


def save_traced_graph(out: Path, trace: bytes | None) -> None:
    """Save the graph of the variables, each a global that func:a.c#f
    writes, with `trace` as its trace copy, or none."""
    builder = GraphBuilder()
    for var in _VARS:
        builder.add_entity(Entity(var, "variable", var[-2:], None, {"scope": "global"}))
        builder.insert_triple("func:a.c#f", "writes", var, Provenance("source-code", "a.c:1"))
    save_graph(builder.finalize(), builder.sources, out,
               None if trace is None else {TRACE_COPY: trace})


def replayed(trace: bytes) -> dict:
    """The locksets of load_trace's replay of a trace copy's bytes."""
    return load_trace(trace.decode().splitlines(keepends=True), name=TRACE_COPY).replay.locksets


def fields(locksets: dict | None) -> dict | None:
    """Each variable's lockset as the type and value of each of its fields."""
    if locksets is None:
        return None
    return {var: [(type(value), value) for value in rec._values()]
            for var, rec in locksets.items()}


def query_load(out: Path):
    """The context a query loads for the graph directory `out`, with what
    the load froze out of the collector's walks put back."""
    try:
        return _load_query_context(out)
    finally:
        gc.unfreeze()


@contextmanager
def counted_trace_parses():
    """A spy on load_trace, which a query load imports when it parses."""
    with mock.patch.object(traces, "load_trace", wraps=traces.load_trace) as spy:
        yield spy


@settings(max_examples=60, deadline=None)
@given(trace_copies())
def test_a_cold_and_a_warm_query_load_each_give_the_replay_of_the_trace_copy(trace):
    """The miss parses the trace copy and writes its locksets into the
    entry; the hit decodes them.  Each equals load_trace's replay field
    by field, and each gives the alerts that replay gives."""
    with tempfile.TemporaryDirectory() as tmp, cache_home(Path(tmp, "xdg")):
        out = Path(tmp, "out")
        save_traced_graph(out, trace)
        expected = replayed(trace)
        alerts = augment(_ROWS, AugmentContext(strict_load_graph(out), expected)).alerts
        with counted_parses() as spy, counted_trace_parses() as trace_spy:
            loads = [query_load(out), query_load(out)]
        assert spy.call_count == trace_spy.call_count == 1
        for ctx in loads:
            assert fields(ctx.rules.locksets) == fields(expected)
            assert augment(_ROWS, ctx.rules).alerts == alerts


def test_a_miss_and_then_a_hit_parse_the_trace_copy_once(scenario_dir, scenario_trace, cache):
    with counted_trace_parses() as trace_spy:
        loads = [query_load(scenario_dir / "out"), query_load(scenario_dir / "out")]
    assert trace_spy.call_count == 1
    assert entry_path(cache, scenario_dir / "out").exists()
    for ctx in loads:
        assert fields(ctx.rules.locksets) == fields(scenario_trace.replay.locksets)


def test_directories_that_differ_only_in_their_trace_copy_each_read_their_own_replay(tmp_path,
                                                                                      cache):
    """Byte-identical graph files, each with a trace copy that its own
    graph.json vouches for: in one, two threads write g0 with no lock
    held; in the other, each holds m0.  Each directory writes an entry
    of its own, and each load, cold or warm, gives its own replay."""
    race = ['{"seq":1,"tid":1,"kind":"write","target":"var:a.c#g0"}',
            '{"seq":2,"tid":2,"kind":"write","target":"var:a.c#g0"}']
    guarded = ['{"seq":1,"tid":1,"kind":"acquire","target":"lock:a.c#m0"}',
               '{"seq":2,"tid":1,"kind":"write","target":"var:a.c#g0"}',
               '{"seq":3,"tid":2,"kind":"acquire","target":"lock:a.c#m0"}',
               '{"seq":4,"tid":2,"kind":"write","target":"var:a.c#g0"}']
    copies = ["".join(f"{line}\n" for line in lines).encode() for lines in (race, guarded)]
    outs = [tmp_path / "race", tmp_path / "guarded"]
    for out, trace in zip(outs, copies):
        save_traced_graph(out, trace)
    for name in (NODES_FILE, TRIPLES_FILE):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    with counted_parses() as spy:
        for _ in range(2):
            for out, trace in zip(outs, copies):
                ctx = query_load(out)
                assert fields(ctx.rules.locksets) == fields(replayed(trace))
                kinds = [a.kind for a in augment(_ROWS, ctx.rules).alerts]
                assert ("race-dynamic" in kinds) == (out.name == "race")
    assert spy.call_count == 2
    assert len(list(cache.glob("*.graph"))) == 2


def test_a_graph_built_without_a_trace_loads_no_locksets(tmp_path, cache):
    out = tmp_path / "out"
    save_traced_graph(out, None)
    with counted_parses() as spy, counted_trace_parses() as trace_spy:
        loads = [query_load(out), query_load(out)]
    assert (spy.call_count, trace_spy.call_count) == (1, 0)
    assert [ctx.rules.locksets for ctx in loads] == [None, None]
    assert augment(_ROWS, loads[1].rules).alerts == augment(_ROWS, loads[0].rules).alerts
    assert list(cache.glob("*.graph")) == [entry_path(cache, out)]


# each takes an entry's bytes and its record spans; the last record is the
# locksets record
TRACE_DAMAGES = {
    "missing": lambda data, spans: without(data, spans[-1]),
    "truncated": lambda data, spans: data[:spans[-1][0] + 30],
    "flipped byte": lambda data, spans: flip(data, spans[-1][0] + 30),
    "flipped digest": lambda data, spans: flip(data, spans[-1][0] + 4),
}


@pytest.mark.parametrize("damage", TRACE_DAMAGES.values(), ids=list(TRACE_DAMAGES))
def test_a_damaged_or_missing_locksets_record_is_a_miss_that_writes_the_entry_anew(
        scenario_dir, scenario_trace, tmp_path, cache, damage):
    out = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", out)
    query_load(out)
    entry = entry_path(cache, out)
    good = entry.read_bytes()
    entry.write_bytes(damage(good, record_spans(good)))
    with counted_parses() as spy, counted_trace_parses() as trace_spy:
        loads = [query_load(out), query_load(out)]
    assert spy.call_count == trace_spy.call_count == 1
    assert len(entry.read_bytes()) == len(good)
    for ctx in loads:
        assert fields(ctx.rules.locksets) == fields(scenario_trace.replay.locksets)


def test_a_query_that_hits_the_cache_imports_no_trace_parser(scenario_dir, tmp_path):
    """The miss imports ckt.extraction.traces to parse the trace copy; the
    hit imports none of it, and answers alike, race-dynamic alert and all."""
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "xdg")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    procs = [subprocess.run([sys.executable, "-X", "importtime", "-m", "ckt", "query", "--graph",
                             str(scenario_dir / "out"), "--format", "records", RACING],
                            env=env, capture_output=True, text=True, timeout=120)
             for _ in range(2)]
    # -X importtime writes one line per module imported, its name last
    imported = [{line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                 if line.startswith("import time:")} for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert '"race-dynamic"' in procs[0].stdout and procs[1].stdout == procs[0].stdout
    assert "ckt.graph" in imported[1]
    assert ["ckt.extraction.traces" in names for names in imported] == [True, False]


# -- a cache that cannot be written --------------------------------------------


def test_a_cache_directory_that_is_a_file_or_read_only_changes_no_answer(scenario_dir, tmp_path):
    """XDG_CACHE_HOME a regular file, or one whose ckt is a regular file, a
    read-only directory, or a read-only ckt directory."""
    strict = strict_load_graph(scenario_dir / "out")
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    (tmp_path / "file-ckt").mkdir()
    (tmp_path / "file-ckt" / "ckt").write_bytes(b"")
    read_only = tmp_path / "read-only"
    read_only.mkdir(mode=0o500)
    (tmp_path / "read-only-ckt").mkdir()
    (tmp_path / "read-only-ckt" / "ckt").mkdir(mode=0o500)
    try:
        for xdg in (blocker, tmp_path / "file-ckt", read_only, tmp_path / "read-only-ckt"):
            with cache_home(xdg):
                for _ in range(2):
                    assert identical(load_graph(scenario_dir / "out"), strict)
    finally:
        read_only.chmod(0o700)
        (tmp_path / "read-only-ckt" / "ckt").chmod(0o700)
    assert blocker.read_bytes() == b"" == (tmp_path / "file-ckt" / "ckt").read_bytes()


@pytest.mark.parametrize("step", ["makedirs", "replace", "scandir"])
def test_a_write_that_fails_at_any_step_changes_no_answer(scenario_dir, tmp_path, cache, step):
    """Making the directory, renaming the entry into place and listing the
    entries to keep: an OSError at any one of them leaves no temporary
    file, and the load gives the strict graph and raises nothing, also
    where running as root writes a read-only directory."""
    strict = strict_load_graph(scenario_dir / "out")
    with mock.patch.object(graphcache.os, step, side_effect=PermissionError(13, "denied")):
        for _ in range(2):
            assert identical(load_graph(scenario_dir / "out"), strict)
    assert not list(tmp_path.rglob("*.tmp"))


# -- a cache directory that is not this user's alone -------------------------------


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o750, 0o705])
def test_a_cache_directory_that_others_may_open_is_not_used(scenario_dir, tmp_path, cache,
                                                               mode):
    """A ckt directory that the group or others may read, write or enter,
    with a forged entry in it: the entry of the empty graph, under the
    name of the directory's files.  Nothing keyed by the graph files alone
    tells it from a true entry, so no load reads it or writes an entry
    there: each parses the files."""
    out = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", out)
    graphcache.write(key_of(out), GraphBuilder().finalize().entry(), None)
    cache.chmod(mode)
    forged = entry_path(cache, out).read_bytes()
    strict = strict_load_graph(out)
    with counted_parses() as spy:
        for _ in range(2):
            assert identical(load_graph(out), strict)
    assert spy.call_count == 2
    assert entry_path(cache, out).read_bytes() == forged
    assert list(cache.iterdir()) == [entry_path(cache, out)]
    cache.chmod(0o700)  # the same directory, this user's alone: the forgery is read
    assert len(load_graph(out)) == 0


def test_a_cache_directory_of_another_user_is_not_used(scenario_dir, cache):
    strict = strict_load_graph(scenario_dir / "out")
    with (counted_parses() as spy,
          mock.patch.object(graphcache.os, "getuid", return_value=os.getuid() + 1)):
        for _ in range(2):
            assert identical(load_graph(scenario_dir / "out"), strict)
    assert spy.call_count == 2 and not list(cache.iterdir())


def test_a_query_with_a_cache_that_cannot_be_written_answers_as_one_with_none(scenario_dir,
                                                                               tmp_path):
    """XDG_CACHE_HOME a regular file, or relative with HOME unset, which
    leaves no cache: each query exits 0, writes nothing to stderr and
    prints what a query with a writable cache prints."""
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    args = ("query", "--graph", str(scenario_dir / "out"), "--format", "records", DECLARES)
    expected = run_ckt(*args)
    assert expected.returncode == 0 and expected.stdout != ""
    no_home = {k: v for k, v in os.environ.items() if k != "HOME"}
    for env in ({**os.environ, "XDG_CACHE_HOME": str(blocker)},
                {**no_home, "XDG_CACHE_HOME": "relative"}):
        proc = run_ckt(*args, env=env)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", expected.stdout)
    assert blocker.read_bytes() == b""


# -- where the cache is, and what it keeps ---------------------------------------


@pytest.mark.parametrize("xdg, home, expected", [
    ("/x/cache", "/home/u", "/x/cache/ckt"),
    ("", "/home/u", "/home/u/.cache/ckt"),
    ("relative/cache", "/home/u", "/home/u/.cache/ckt"),
    (None, "/home/u", "/home/u/.cache/ckt"),
    (None, None, None),
    ("relative", "relative-home", None),
])
def test_the_user_cache_directory(monkeypatch, xdg, home, expected):
    for name, value in (("XDG_CACHE_HOME", xdg), ("HOME", home)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    assert graphcache.user_dir() == (None if expected is None else Path(expected))


def test_the_cache_directory_is_private_and_keeps_the_newest_entries(scenario_dir, cache):
    """Nine entries of other graphs, each older than the one before: a load
    makes the directory with mode 0700, if absent, and its write leaves
    the KEEP newest entries, its own among them."""
    load_graph(scenario_dir / "out")
    assert stat.S_IMODE(cache.stat().st_mode) & 0o077 == 0
    entry = entry_path(cache, scenario_dir / "out")
    entry.unlink()
    old = [cache / f"{i:032x}.graph" for i in range(9)]
    for age, path in enumerate(old, start=1):
        path.write_bytes(b"")
        os.utime(path, (1e9 - age, 1e9 - age))
    load_graph(scenario_dir / "out")
    assert sorted(cache.iterdir()) == sorted([entry, *old[:graphcache.KEEP - 1]])


def test_a_write_sweeps_the_temporary_files_of_killed_writers(scenario_dir, cache):
    """Old temporary files, as writers killed before their rename leave,
    among old entries, and the temporary file of a writer still at work:
    a write keeps the KEEP newest files, its entry and the live writer's
    file among them, and removes the rest, temporary files too."""
    cache.mkdir(mode=0o700, parents=True)
    old = [cache / (f".{i:032x}.graph.{100 + i}.tmp" if i % 2 else f"{i:032x}.graph")
           for i in range(12)]
    for age, path in enumerate(old, start=1):
        path.write_bytes(b"x")
        os.utime(path, (1e9 - age, 1e9 - age))
    live = cache / f".{'f' * 32}.graph.99.tmp"
    live.write_bytes(b"")
    load_graph(scenario_dir / "out")
    kept = [entry_path(cache, scenario_dir / "out"), live, *old[:graphcache.KEEP - 2]]
    assert sorted(cache.iterdir()) == sorted(kept)


# -- a rebuild between two queries ----------------------------------------------


def test_a_query_after_a_rebuild_answers_from_the_new_graph(tmp_path):
    """A query, a function added to a source file, a rebuild, a query: the
    second answer has the new function, and equals the answer of a query
    with an empty cache."""
    project = tmp_path / "project"
    shutil.copytree(Path(__file__).parent / "fixtures" / "scenario", project)
    shutil.rmtree(project / "out", ignore_errors=True)
    args = ("query", "--graph", str(project / "out"), "--format", "records", DECLARES)
    answers = []
    for _ in range(2):
        assert run_ckt("build", "--manifest", str(project / "manifest.json")).returncode == 0
        answers.append(run_ckt(*args))
        with open(project / "src" / "ftpety.c", "a", encoding="utf-8") as source:
            source.write("\nint cache_probe(void) {\n    return 0;\n}\n")
    empty = run_ckt(*args, env={**os.environ, "XDG_CACHE_HOME": str(tmp_path / "empty")})
    assert [a.returncode for a in answers] == [0, 0] and answers[0].stdout != answers[1].stdout
    assert "func:src/ftpety.c#cache_probe" in answers[1].stdout
    assert answers[1].stdout == empty.stdout


# -- memory -------------------------------------------------------------------------


def test_a_load_through_the_cache_holds_no_whole_entry(tmp_path, cache):
    """A graph of many records: the traced peak of a cold load, which
    parses and writes the entry, exceeds that of the strict load, and the
    traced peak of a warm load the traced size of the graph it returns,
    by less than half the entry, and so by far less than the graph."""
    builder = GraphBuilder()
    funcs = [f"func:a.c#f{i:04d}" for i in range(3000)]
    for i, caller in enumerate(funcs):
        builder.add_entity(Entity(caller, "function", f"f{i}", Span("a.c", i + 1, i + 2),
                                  {"scope": "global", "note": "x" * 20}))
        builder.insert_triple(caller, "calls", funcs[i - 1], Provenance("source-code", f"a.c:{i}"))
    save_graph(builder.finalize(), builder.sources, tmp_path / "out")
    traced = []
    for load in (strict_load_graph, load_graph, load_graph):  # strict, cold, warm
        tracemalloc.start()
        try:
            graph = load(tmp_path / "out")
            traced.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(graph) == 3000
        del graph
    (_, strict_peak), (_, cold_peak), (warm_held, warm_peak) = traced
    size = entry_path(cache, tmp_path / "out").stat().st_size
    assert cold_peak - strict_peak < size / 2
    assert warm_peak - warm_held < size / 2


# -- stamps: a load whose stat data match its stamp hashes nothing ---------------


@contextmanager
def counted_hashes():
    """A spy on the hash of open graph files against graph.json: its
    call_count is the loads in the block that hashed."""
    with mock.patch.object(ckt.graph, "_fresh", wraps=ckt.graph._fresh) as spy:
        yield spy


def stamp_path(cache: Path, out: Path) -> Path:
    """Where `cache` keeps the stamp of `out`, which every load of it writes."""
    return cache / graphcache._name(os.path.realpath(out), ".stamp")


@pytest.fixture
def stamped(warm_scenario):
    """warm_scenario with the stamp of its directory: a load that hashed the
    files, after they settled."""
    out, cache, entry, strict = warm_scenario
    settle(out)
    with counted_parses() as spy, counted_hashes() as hashes:
        assert identical(load_graph(out), strict)
    assert (spy.call_count, hashes.call_count) == (0, 1)
    assert stamp_path(cache, out).exists()
    return warm_scenario


def loads_as_at_first(out: Path, strict, hashed: int, parsed: int = 0) -> None:
    """A load gives the strict graph after `hashed` hashes and `parsed` parses."""
    with counted_parses() as spy, counted_hashes() as hashes:
        assert identical(load_graph(out), strict)
    assert (hashes.call_count, spy.call_count) == (hashed, parsed)


def raises_as_the_strict_load(out: Path) -> None:
    """A load hashes the files, finds them changed and raises what the
    strict load raises."""
    with pytest.raises(ckt.graph.FormatError) as strict:
        strict_load_graph(out)
    with counted_hashes() as hashes, pytest.raises(ckt.graph.FormatError) as cached:
        load_graph(out)
    assert str(cached.value) == str(strict.value) and hashes.call_count == 1


def test_a_stamped_load_opens_no_graph_file(stamped):
    """Nor graph.json: it stats them, and decodes the stamped entry; it
    opens only the templates copy, which every load returns the bytes of."""
    out, cache, entry, strict = stamped
    with mock.patch.object(ckt.graph, "_open_if_present",
                           wraps=ckt.graph._open_if_present) as opened:
        loads_as_at_first(out, strict, hashed=0)
    assert [call.args[0].name for call in opened.call_args_list] == [ckt.graph.TEMPLATES_COPY]


def edit_in_place(path: Path, keep_mtime: bool) -> None:
    """Overwrite the first id character of a file, keeping its size, and
    with `keep_mtime` its mtime too."""
    before = path.stat()
    data = path.read_bytes()
    at = data.index(b":") + 1
    with open(path, "r+b") as file:
        file.seek(at)
        file.write(b"Z" if data[at:at + 1] != b"Z" else b"Y")
    if keep_mtime:
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size


@pytest.mark.parametrize("keep_mtime", [False, True], ids=["mtime-changed", "mtime-restored"])
@pytest.mark.parametrize("name", [NODES_FILE, TRIPLES_FILE])
def test_an_in_place_edit_that_keeps_the_size_is_hashed(stamped, name, keep_mtime):
    out, cache, entry, strict = stamped
    edit_in_place(out / name, keep_mtime)
    raises_as_the_strict_load(out)


def test_a_copy_and_a_move_of_the_directory_hash_once_then_hit(stamped, tmp_path):
    """Each is another place: with no stamp of its own it hashes, decodes
    the entry and stamps itself; the load after hashes nothing."""
    out, cache, entry, strict = stamped
    shutil.copytree(out, tmp_path / "copy")
    moved = tmp_path / "moved"
    out.rename(moved)
    for place in (tmp_path / "copy", moved):
        settle(place)
        loads_as_at_first(place, strict, hashed=1)
        loads_as_at_first(place, strict, hashed=0)
    assert list(cache.glob("*.graph")) == [entry]


def test_a_rebuild_to_the_same_or_other_bytes_is_hashed(stamped):
    """save_graph renames new files into place: other bytes name no entry
    and are parsed, and the same bytes again hash and hit the entry."""
    out, cache, entry, strict = stamped
    graph = strict_load_graph(out)
    sources = {key: [Provenance("source-code", "a.c:1")] for key in graph.triples()}
    save_graph(graph, sources, out)  # another triples.tsv: other provenance
    settle(out)
    loads_as_at_first(out, strict, hashed=0, parsed=1)
    loads_as_at_first(out, strict, hashed=1)
    save_graph(graph, sources, out)  # the same bytes again
    loads_as_at_first(out, strict, hashed=1)


def test_a_file_not_older_than_the_stamp_is_hashed(stamped):
    """git's racy rule: every stat field matches, but nodes.jsonl was
    changed in the stamp's clock tick, so its bytes could differ."""
    out, cache, entry, strict = stamped
    stamp = stamp_path(cache, out)
    changed = (out / NODES_FILE).stat().st_ctime_ns
    os.utime(stamp, ns=(changed, changed))
    loads_as_at_first(out, strict, hashed=1)


STAMP_DAMAGES = {
    "empty": lambda data, other: b"",
    "truncated": lambda data, other: data[:-3],
    "flipped digest": lambda data, other: flip(data, 3),
    "flipped payload": lambda data, other: flip(data, len(data) - 5),
    "of another place": lambda data, other: other,
}


@pytest.mark.parametrize("damage", STAMP_DAMAGES.values(), ids=list(STAMP_DAMAGES))
def test_a_damaged_or_foreign_stamp_is_hashed(stamped, tmp_path, damage):
    """A foreign stamp is a true one of a copy of the directory: its stat
    data differ, and it names another place."""
    out, cache, entry, strict = stamped
    shutil.copytree(out, tmp_path / "copy")
    settle(tmp_path / "copy")
    load_graph(tmp_path / "copy")
    stamp = stamp_path(cache, out)
    stamp.write_bytes(damage(stamp.read_bytes(), stamp_path(cache, tmp_path / "copy").read_bytes()))
    os.utime(stamp, ns=(time.time_ns() + 10**9,) * 2)  # not racy
    loads_as_at_first(out, strict, hashed=1)
    loads_as_at_first(out, strict, hashed=0)


def test_a_stamp_whose_entry_was_pruned_is_a_miss_that_parses(stamped):
    out, cache, entry, strict = stamped
    entry.unlink()
    loads_as_at_first(out, strict, hashed=0, parsed=1)
    assert entry.exists()


def test_a_stamped_query_load_reads_the_templates_copy_alone(scenario_dir, scenario_trace,
                                                           tmp_path, cache):
    """Of the graph directory, a stamped query load reads only the
    templates copy, which the registry needs, and parses no trace line;
    load_graph reads the same stamp, so the directory has one."""
    out = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", out)
    query_load(out)  # a miss: the entry
    settle(out)
    query_load(out)  # a hit that hashed: the stamp
    assert stamp_path(cache, out).exists()
    with (mock.patch.object(ckt.graph, "_open_if_present",
                            wraps=ckt.graph._open_if_present) as opened,
          counted_parses() as spy, counted_hashes() as hashes, counted_trace_parses() as traced):
        ctx = query_load(out)
    assert [call.args[0].name for call in opened.call_args_list] == [ckt.graph.TEMPLATES_COPY]
    assert (spy.call_count, hashes.call_count, traced.call_count) == (0, 0, 0)
    assert fields(ctx.rules.locksets) == fields(scenario_trace.replay.locksets)
    assert graphs_equal(ctx.graph, strict_load_graph(out))
    loads_as_at_first(out, strict_load_graph(out), hashed=0)  # load_graph shares the stamp
    assert list(cache.glob("*.stamp")) == [stamp_path(cache, out)]
    edit_in_place(out / ckt.graph.TEMPLATES_COPY, keep_mtime=True)
    with pytest.raises(ckt.graph.FormatError, match="templates.jsonl"):
        query_load(out)


def test_a_query_miss_reports_the_templates_copy_then_the_trace_copy_then_a_graph_file(
        scenario_dir, tmp_path, cache):
    """With a line that does not load appended to each of them, a query
    load that misses raises for the templates copy; with it mended, for
    the trace copy; with that mended too, for nodes.jsonl."""
    out = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", out)
    order = [ckt.graph.TEMPLATES_COPY, TRACE_COPY, NODES_FILE]
    for name in order:
        with open(out / name, "ab") as file:
            file.write(b"{\n")
    for name in order:
        with pytest.raises(ckt.graph.CktError) as raised:
            query_load(out)
        assert name in str(raised.value) and not any(
            other in str(raised.value) for other in order if other != name)
        shutil.copyfile(scenario_dir / "out" / name, out / name)
    query_load(out)
    assert entry_path(cache, out).exists()


def test_stamps_never_evict_the_newest_entries(scenario_dir, tmp_path, cache):
    """More than KEEP stamps, each newer than every entry: a write keeps
    the KEEP newest entries and the KEEP newest stamps."""
    cache.mkdir(mode=0o700, parents=True)
    entries = [cache / f"{i:032x}.graph" for i in range(graphcache.KEEP + 2)]
    stamps = [cache / f"{i:032x}.stamp" for i in range(graphcache.KEEP + 2)]
    for age, path in enumerate(entries, start=100):
        path.write_bytes(b"")
        os.utime(path, (1e9 - age, 1e9 - age))
    for age, path in enumerate(stamps, start=1):
        path.write_bytes(b"")
        os.utime(path, (1e9 - age, 1e9 - age))
    out = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", out)
    load_graph(out)  # writes the entry
    settle(out)
    load_graph(out)  # writes the stamp
    assert sorted(cache.glob("*.graph")) == sorted([entry_path(cache, out),
                                                   *entries[:graphcache.KEEP - 1]])
    assert sorted(cache.glob("*.stamp")) == sorted([stamp_path(cache, out),
                                                   *stamps[:graphcache.KEEP - 1]])


# -- the build writes the entry ----------------------------------------------------


def build_scenario(tmp_path: Path) -> Path:
    """A copy of the scenario project, built; its graph directory."""
    project = tmp_path / "project"
    shutil.copytree(Path(__file__).parent / "fixtures" / "scenario", project,
                    ignore=shutil.ignore_patterns("out"))
    with mock.patch("sys.stdout"):
        assert build.cmd_build(project / "manifest.json") == 0
    return project / "out"


def test_the_build_writes_the_entry_that_a_parse_writes(tmp_path, cache):
    """The entry the build wrote decodes to the strict load, attribute
    order included, and to the replay of the trace copy; the first query
    parses nothing; and a query that parses, in a process of another hash
    seed, writes the same bytes."""
    out = build_scenario(tmp_path)
    entry = entry_path(cache, out)
    extracted = cache / graphcache._name(str(out.parent.resolve() / "manifest.json"), ".facts")
    assert sorted(cache.iterdir()) == sorted([entry, extracted])
    built = entry.read_bytes()
    columns, locksets = graphcache.read(key_of(out))
    decoded, strict = KnowledgeGraph.from_entry(columns), strict_load_graph(out)
    assert [(e.id, e.kind, e.label, e.span, list(e.attrs.items()))
            for e in decoded.entities.values()] \
        == [(e.id, e.kind, e.label, e.span, list(e.attrs.items()))
            for e in strict.entities.values()]
    assert list(decoded.triples()) == list(strict.triples())
    assert identical(decoded, strict)
    assert fields(locksets) == fields(replayed((out / TRACE_COPY).read_bytes()))
    with counted_parses() as spy:
        query_load(out)
    assert spy.call_count == 0
    entry.unlink()
    proc = run_ckt("query", "--graph", str(out), RACING,
                   env={**os.environ, "PYTHONHASHSEED": "1"})
    assert proc.returncode == 0 and entry.read_bytes() == built


def test_load_graph_after_a_build_parses_nothing_and_keeps_one_entry(tmp_path, cache):
    """load_graph keys the entry as the build and a query load do, so it
    decodes the build's entry and writes none of its own; on a miss it
    parses the trace copy too, and the entry it writes, named by that
    copy, holds the copy's replay."""
    out = build_scenario(tmp_path)
    strict = strict_load_graph(out)
    with counted_parses() as spy, counted_trace_parses() as traced:
        assert identical(load_graph(out), strict)
    assert (spy.call_count, traced.call_count) == (0, 0)
    entry = entry_path(cache, out)
    assert list(cache.glob("*.graph")) == [entry]
    entry.unlink()
    with counted_parses() as spy, counted_trace_parses() as traced:
        assert identical(load_graph(out), strict)
    assert (spy.call_count, traced.call_count) == (1, 1)
    assert list(cache.glob("*.graph")) == [entry]
    _, locksets = graphcache.read(key_of(out))
    assert fields(locksets) == fields(replayed((out / TRACE_COPY).read_bytes())) != {}


def test_a_rebuild_to_the_same_bytes_leaves_the_entry(tmp_path, cache):
    out = build_scenario(tmp_path)
    entry = entry_path(cache, out)
    written = entry.stat()
    with mock.patch.object(graphcache, "write") as write:
        build_scenario(tmp_path / "again")
    assert write.call_count == 0
    assert (entry.stat().st_ino, entry.stat().st_mtime_ns) == (written.st_ino, written.st_mtime_ns)


def test_a_build_with_no_private_cache_writes_no_entry(tmp_path, cache):
    cache.mkdir(parents=True, mode=0o750)
    build_scenario(tmp_path)
    assert list(cache.iterdir()) == []


def test_the_build_copies_the_trace_bytes_it_parsed(tmp_path, cache):
    """The trace file replaced once the build has parsed it: the copy is
    the bytes parsed, whose replay the graph's guards and the entry hold,
    not the new file."""
    project = tmp_path / "project"
    shutil.copytree(Path(__file__).parent / "fixtures" / "scenario", project,
                    ignore=shutil.ignore_patterns("out"))
    manifest = json.loads((project / "manifest.json").read_text(encoding="utf-8"))
    trace = project / manifest["trace"]
    parsed = trace.read_bytes()

    def parse_then_swap(*args, **kwargs):
        log = load_trace(*args, **kwargs)
        trace.write_bytes(b"")  # an empty trace: no events
        return log

    with mock.patch.object(traces, "load_trace", parse_then_swap), mock.patch("sys.stdout"):
        assert build.cmd_build(project / "manifest.json") == 0
    out = project / "out"
    assert trace.read_bytes() == b"" and (out / TRACE_COPY).read_bytes() == parsed
    _, locksets = graphcache.read(key_of(out))
    assert fields(locksets) == fields(replayed(parsed)) != {}
