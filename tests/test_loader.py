"""The graph loader and the PageRank scores that nodes.jsonl carries: the
loader against the GraphBuilder loader in oracles.py, loaded ranks against
the built and the dense ones, corrupt, hand-written and forged graph
directories, each of which loads as the GraphBuilder loader reads it or
names a file and a line, and graph.json: missing, changed and torn
directories."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckt.graph
import oracles
from ckt.errors import CktError, FormatError, NotFoundError
from ckt.graph import (
    GRAPH_MANIFEST,
    NODES_FILE,
    READ_BLOCK,
    TRIPLES_FILE,
    GraphBuilder,
    KnowledgeGraph,
    Provenance,
    load_graph,
    save_graph,
)
from ckt.model import Entity, Span
from oracles import blake2b_hex, dense_pagerank, graphs_equal, node_line, round_trips

SRC = Path(__file__).resolve().parents[1] / "src"
SELECT = "SELECT ?v WHERE { func:src/VHDLPosedge.cc#VHDLPosedge_S2 writes ?v }"


def copy_graph(scenario_dir, tmp_path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", out)
    return out


def write_manifest(directory: Path) -> None:
    """A graph.json that vouches for the two graph files as they are."""
    digests = {name: blake2b_hex((Path(directory) / name).read_bytes())
               for name in (NODES_FILE, TRIPLES_FILE)}
    (Path(directory) / GRAPH_MANIFEST).write_text(
        json.dumps({"format": 3, "blake2b": digests}, indent=2) + "\n", encoding="utf-8")


def run_ckt(*args, stdin: str | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ckt", *args], capture_output=True,
                          text=True, env=env, timeout=120, input=stdin)


# -- persisted ranks -----------------------------------------------------------


def test_loaded_ranks_equal_the_built_ranks(scenario_dir, monkeypatch):
    # the builder loader reads no ranks, so its graph computes them as the
    # build did
    built = oracles.builder_load_graph(scenario_dir / "out")[0].pagerank()
    loaded = load_graph(scenario_dir / "out")

    def no_recompute(self):
        raise AssertionError("pagerank recomputed on a loaded graph")

    monkeypatch.setattr(KnowledgeGraph, "_core", property(no_recompute))
    assert loaded.pagerank() == built
    assert list(loaded.pagerank()) == sorted(built)


def test_loaded_ranks_agree_with_dense_oracle(scenario_graph):
    oracle = dense_pagerank(list(scenario_graph.entities),
                            list(scenario_graph.triples()))
    rank = scenario_graph.pagerank()
    assert rank.keys() == oracle.keys()
    for node, score in rank.items():
        assert abs(score - oracle[node]) <= 1e-8


def test_each_node_line_carries_its_rank(tmp_path):
    builder = GraphBuilder()
    builder.insert_triple("func:a#f", "calls", "func:a#g", Provenance("source-code", "a:1"))
    graph = builder.finalize()
    save_graph(graph, builder.sources, tmp_path)
    rank = graph.pagerank()
    assert (tmp_path / NODES_FILE).read_text(encoding="utf-8") == "".join(
        node_line(graph.entities[eid], rank[eid]) + "\n" for eid in ["func:a#f", "func:a#g"])
    assert (tmp_path / NODES_FILE).read_text(encoding="utf-8").count('"rank": ') == 2


# drawn finite ranks: the least subnormal, a value that repr writes with an
# exponent, values of 17 significant digits, and both zeros
_RANKS = (st.sampled_from([5e-324, 1e-05, 1.0, 0.0, -0.0, 0.1 + 0.2, 2 / 3])
          | st.floats(allow_nan=False, allow_infinity=False))
_LABELS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_RANKS, _LABELS, st.dictionaries(_LABELS, _LABELS, max_size=3)),
                min_size=1, max_size=6))
def test_ranks_round_trip_bit_for_bit(nodes):
    """save_graph then load_graph gives each drawn rank back bit for bit,
    and each nodes.jsonl line is json.dumps's, rank included."""
    entities = {f"func:a.c#f{i}": Entity(f"func:a.c#f{i}", "function", label, None, attrs)
                for i, (_, label, attrs) in enumerate(nodes)}
    ranks = {eid: rank for eid, (rank, _, _) in zip(entities, nodes)}
    graph = KnowledgeGraph(entities, [], ranks)
    with tempfile.TemporaryDirectory() as tmp:
        save_graph(graph, {}, tmp)
        lines = (Path(tmp) / NODES_FILE).read_text(encoding="utf-8").split("\n")
        loaded = load_graph(tmp).rank_table()
    assert lines == [*(node_line(entities[eid], ranks[eid]) for eid in sorted(ranks)), ""]
    assert list(loaded) == sorted(ranks)
    assert [loaded[eid].hex() for eid in loaded] == [ranks[eid].hex() for eid in loaded]


def test_entity_with_an_empty_label_round_trips(tmp_path):
    # a commit with no author name or email is authored by "dev:", labelled ""
    builder = GraphBuilder()
    builder.add_entity(Entity("dev:", "developer", ""))
    builder.insert_triple("commit:c1", "authored-by", "dev:", Provenance("version-tracker", "c1"))
    graph = builder.finalize()
    save_graph(graph, builder.sources, tmp_path)
    assert round_trips(tmp_path, graph, builder.sources)


def set_rank(line: str, text: str | None) -> str:
    """A nodes.jsonl line with the text of its rank set to `text`, or with
    no rank for None."""
    return re.sub(r'"rank": [^,]*, ', "" if text is None else f'"rank": {text}, ', line)


# a rank that save_graph would not write, as the text of the "rank" value:
# each is refused; json.loads reads NaN, Infinity, -Infinity and 1e400 as
# floats that are not finite, and repr never writes a float as 1
BAD_RANKS = {"missing": None, "string": '"0.5"', "true": "true", "null": "null",
             "NaN": "NaN", "Infinity": "Infinity", "-Infinity": "-Infinity", "1e400": "1e400",
             "integer": "1", "bad number": "0.1x"}


@pytest.mark.parametrize("text", BAD_RANKS.values(), ids=list(BAD_RANKS))
@pytest.mark.parametrize("forged", [False, True], ids=["hand-edit", "forged"])
def test_a_rank_that_save_graph_would_not_write_exits_2_naming_its_line(scenario_dir, tmp_path,
                                                                         text, forged):
    """The builder loader refuses the rank at its line of nodes.jsonl, and
    so do the load and a query, which exits 2 with one error line, with or
    without a graph.json that vouches for the file."""
    out = copy_graph(scenario_dir, tmp_path)
    path = out / NODES_FILE
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    lines[2] = set_rank(lines[2], text)
    path.write_text("".join(f"{x}\n" for x in lines), encoding="utf-8")
    if forged:
        write_manifest(out)
    with pytest.raises(FormatError) as exc:
        oracles.builder_load_graph(out)
    assert exc.value.line == 3
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert exc.value.line == 3 and NODES_FILE in str(exc.value)
    proc = run_ckt("query", "--graph", str(out), "--format", "records", SELECT)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {exc.value}\n"


@pytest.mark.parametrize("name", [NODES_FILE, TRIPLES_FILE, GRAPH_MANIFEST])
def test_a_dir_missing_one_file_names_it(scenario_dir, tmp_path, name):
    out = copy_graph(scenario_dir, tmp_path)
    (out / name).unlink()
    with pytest.raises(NotFoundError) as exc:
        load_graph(out)
    assert str(exc.value) == f"no graph found in {out}: missing {name}"


def test_an_empty_dir_names_every_missing_file(tmp_path):
    with pytest.raises(NotFoundError) as exc:
        load_graph(tmp_path)
    assert str(exc.value) == (f"no graph found in {tmp_path}: missing "
                              f"{NODES_FILE}, {TRIPLES_FILE}, {GRAPH_MANIFEST}")


# -- the loader against the GraphBuilder loader ---------------------------------

IDS = ["func:h.c#f0", "func:h.c#f1", "func:h.c#main", "var:h.c#g", "bug:T/1", "commit:c1"]
PREDS = ["calls", "reads", "writes", "touches", "guards", "has-type"]
PROVS = st.builds(
    Provenance,
    st.sampled_from(["source-code", "trace", "derived"]),
    st.sampled_from(["h.c:1", "h.c:2", "t"]),
    st.sampled_from(["", "locks=a"]),
)


@st.composite
def graph_files(draw):
    """Hand-written nodes.jsonl and triples.tsv lines: nodes, each with a
    drawn rank, may repeat an id with other content or be absent (then the
    builder loader registers them), and a triple may repeat with other
    provenance.  Half the drawn
    directories keep, as save_graph would, the first line of each node id
    and of each triple key whose ends are nodes, in ascending order."""
    nodes = []
    for eid in draw(st.lists(st.sampled_from(IDS), max_size=8)):
        span = draw(st.sampled_from([None, ("h.c", 1, 3)]))
        nodes.append({
            "id": eid,
            "kind": {"func": "function", "var": "variable", "bug": "bug",
                     "commit": "commit"}[eid.partition(":")[0]],
            "label": draw(st.sampled_from(["f", "main", "g", "x"])),
            "path": span and span[0], "start": span and span[1], "end": span and span[2],
            "attrs": draw(st.sampled_from([{}, {"scope": "global"}, {"k": "1"}])),
            "rank": draw(_RANKS),
        })
    triples = []
    for _ in range(draw(st.integers(0, 15))):
        p = draw(st.sampled_from(PREDS))
        o = draw(st.sampled_from(["int", "char *"])) if p == "has-type" else draw(st.sampled_from(IDS))
        provs = draw(st.lists(PROVS, min_size=1, max_size=3))
        line = f"{draw(st.sampled_from(IDS))}\t{p}\t{o}\t" + oracles.provenance_json(provs)
        triples.append(line)
        if draw(st.booleans()):
            triples.append(line)  # an exact duplicate line adds its provenance again
    node_lines = [json.dumps(n, sort_keys=True) for n in nodes]
    if draw(st.booleans()):
        first = {n["id"]: line for n, line in reversed(list(zip(nodes, node_lines)))}
        node_lines = [first[eid] for eid in sorted(first)]
        keys = {}
        for line in reversed(triples):
            s, p, o = line.split("\t")[:3]
            if s in first and (p == "has-type" or o in first):
                keys[s, p, o] = line
        triples = [keys[key] for key in sorted(keys)]
    return node_lines, triples


def write_graph_dir(directory: Path, node_lines, triple_lines) -> None:
    """Write the two files and a graph.json that vouches for them."""
    (directory / NODES_FILE).write_text("".join(f"{x}\n" for x in node_lines), encoding="utf-8")
    (directory / TRIPLES_FILE).write_text("".join(f"{x}\n" for x in triple_lines), encoding="utf-8")
    write_manifest(directory)


@settings(max_examples=160, deadline=None)
@given(graph_files())
def test_hand_written_graph_dir_loads_as_builder_loader_or_names_a_line(files):
    with tempfile.TemporaryDirectory() as tmp:
        write_graph_dir(Path(tmp), *files)
        assert_loads_as_builder_loader(tmp)


def test_loader_matches_builder_loader_on_scenario(scenario_dir):
    out = scenario_dir / "out"
    assert graphs_equal(load_graph(out), oracles.builder_load_graph(out)[0])


def write_nodes(directory: Path, *entities: Entity) -> None:
    (directory / NODES_FILE).write_text("".join(node_line(e, 0.5) + "\n" for e in entities),
                                        encoding="utf-8")


def test_literal_predicate_with_a_node_object_names_the_line(tmp_path):
    # both ends are nodes, and yet the loader must reject an entity id where
    # the predicate takes a literal
    write_nodes(tmp_path, Entity("func:h.c#f0", "function", "f0"),
                Entity("var:h.c#g", "variable", "g"))
    prov = json.dumps([{"origin": "h.c:1", "source": "source-code"}])
    (tmp_path / TRIPLES_FILE).write_text(
        f"func:h.c#f0\twrites\tvar:h.c#g\t{prov}\nfunc:h.c#f0\thas-type\tvar:h.c#g\t{prov}\n",
        encoding="utf-8")
    write_manifest(tmp_path)
    with pytest.raises(FormatError, match="literal expected") as exc:
        load_graph(tmp_path)
    assert exc.value.line == 2 and TRIPLES_FILE in str(exc.value)


@pytest.mark.parametrize("line, message", [
    ("func:h.c#f0\tfrobs\tvar:h.c#g", "unknown predicate 'frobs' in triples.tsv"),
    ("func:h.c#f0\thas-type\tvar:h.c#g",
     "literal expected for predicate 'has-type', got entity id 'var:h.c#g' in triples.tsv"),
    ("not an id\tcalls\tfunc:h.c#f0",
     "cannot infer kind for id 'not an id'; register it first in triples.tsv"),
    ("func:h.c#f0\tcalls\tnot an id",
     "cannot infer kind for id 'not an id'; register it first in triples.tsv"),
])
def test_each_insertion_error_names_the_line(tmp_path, line, message):
    """The builder's insertion messages, which the loader gives for the same
    triples, each behind its triples.tsv line."""
    prov = json.dumps([{"origin": "h.c:1", "source": "source-code"}])
    write_nodes(tmp_path, Entity("func:h.c#f0", "function", "f0"))
    (tmp_path / TRIPLES_FILE).write_text(
        f"func:h.c#f0\tcalls\tfunc:h.c#f0\t{prov}\n{line}\t{prov}\n", encoding="utf-8")
    write_manifest(tmp_path)
    with pytest.raises(FormatError) as exc:
        load_graph(tmp_path)
    assert str(exc.value) == f"line 2: {message}"


# -- fuzzed graph directories -----------------------------------------------------

JUNK = {
    NODES_FILE: [None, 5, -1, "7", "x", [], {}, {"a": 1}, True, 0.5, -0.0, float("nan"),
                 float("inf"), 1e-300],
    TRIPLES_FILE: ["", "x", "calls", "has-type", "not an id", "func:h.c#zz", "[]", "{}",
                   "[1]", '[{"source": 1}]', '[{"origin": "o"}]', '"s"', "null"],
}
NODE_KEYS = ["id", "kind", "label", "path", "start", "end", "attrs", "rank"]
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
               max_size=30)


def mutate(lines: list[str], name: str, draw) -> None:
    """Apply one corruption to one line, in place."""
    if not lines:
        lines.append(draw(TEXT))
        return
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["truncate", "duplicate", "delete", "mistype", "junk-line"]))
    if how == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    elif how == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif how == "delete":
        del lines[i]
    elif how == "junk-line":
        lines.insert(i, draw(TEXT))
    elif name == NODES_FILE:
        try:
            doc = json.loads(lines[i])
        except ValueError:  # an earlier mutation broke the line
            doc = None
        junk = draw(st.sampled_from(JUNK[name]))
        if isinstance(doc, dict):
            doc[draw(st.sampled_from(NODE_KEYS))] = junk
        lines[i] = json.dumps(doc if isinstance(doc, dict) else junk)
    else:
        fields = lines[i].split("\t")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(JUNK[name]))
        lines[i] = "\t".join(fields)


@st.composite
def small_graphs(draw):
    builder = GraphBuilder()
    nodes = IDS[: draw(st.integers(1, len(IDS)))]
    for eid in nodes:
        span = Span("h.c", 1, 2) if draw(st.booleans()) else None
        builder.add_entity(Entity(eid, {"func": "function", "var": "variable", "bug": "bug",
                                        "commit": "commit"}[eid.partition(":")[0]],
                                  eid.rpartition("#")[2], span, {"k": "v"}))
    for _ in range(draw(st.integers(0, 10))):
        builder.insert_triple(draw(st.sampled_from(nodes)), draw(st.sampled_from(PREDS[:5])),
                              draw(st.sampled_from(nodes)), draw(PROVS))
    return builder.finalize(), builder.sources


def mutate_files(directory: str, data) -> None:
    """One to three corruptions, each of one line of one graph file."""
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from([NODES_FILE, TRIPLES_FILE]))
        path = Path(directory) / name
        lines = path.read_text(encoding="utf-8").splitlines()
        mutate(lines, name, data.draw)
        path.write_text("".join(f"{x}\n" for x in lines), encoding="utf-8")


def graph_bytes(directory: str) -> dict[str, bytes]:
    return {name: (Path(directory) / name).read_bytes()
            for name in (NODES_FILE, TRIPLES_FILE)}


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_fuzzed_graph_dir_loads_or_names_a_line(graph_and_sources, data):
    with tempfile.TemporaryDirectory() as tmp:
        save_graph(*graph_and_sources, tmp)
        saved = graph_bytes(tmp)
        mutate_files(tmp, data)
        changed = graph_bytes(tmp) != saved
        try:
            load_graph(tmp)
        except CktError as exc:
            assert isinstance(exc, FormatError) and exc.line is not None, repr(exc)
        else:
            assert not changed  # graph.json lets no changed byte load
            assert round_trips(tmp, *graph_and_sources)


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.data())
def test_forged_manifest_loads_as_builder_loader_or_names_a_line(graph_and_sources, data):
    """Files changed after the build under a graph.json rewritten to vouch
    for them: the load either gives what the builder loader gives or
    FormatError with a line."""
    with tempfile.TemporaryDirectory() as tmp:
        save_graph(*graph_and_sources, tmp)
        mutate_files(tmp, data)
        if data.draw(st.booleans()):  # two lines of one file trade places
            path = Path(tmp) / data.draw(st.sampled_from([NODES_FILE, TRIPLES_FILE]))
            lines = path.read_text(encoding="utf-8").splitlines()
            if len(lines) >= 2:
                i, j = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=2,
                                          max_size=2, unique=True))
                lines[i], lines[j] = lines[j], lines[i]
                path.write_text("".join(f"{x}\n" for x in lines), encoding="utf-8")
        write_manifest(Path(tmp))
        assert_loads_as_builder_loader(tmp)


def assert_loads_as_builder_loader(directory) -> None:
    """The load of `directory` has the entities and keys of the builder
    loader's graph of the same files, which reads no provenance column
    either, its nodes in ascending id order with the ranks of nodes.jsonl,
    line by line, or raises FormatError with a line."""
    try:
        loaded = load_graph(directory)
    except CktError as exc:
        assert isinstance(exc, FormatError) and exc.line is not None, repr(exc)
    else:
        assert oracles.same_nodes_and_keys(
            loaded, oracles.builder_load_graph(directory, sources=False)[0])
        docs = map(json.loads, (Path(directory) / NODES_FILE).read_text(encoding="utf-8").split(
            "\n")[:-1])
        assert list(loaded.pagerank().items()) == [(doc["id"], doc["rank"]) for doc in docs]
        assert list(loaded.entities) == sorted(loaded.entities)


def edit_record(i: int, **fields):
    """Set fields of the JSON record on line i."""
    def edit(lines):
        doc = json.loads(lines[i])
        doc.update(fields)
        lines[i] = json.dumps(doc, sort_keys=True)
    return edit


def edit_field(i: int, field: int, value: str):
    """Set one tab-separated field of line i."""
    def edit(lines):
        parts = lines[i].split("\t")
        parts[field] = value
        lines[i] = "\t".join(parts)
    return edit


def repeat_record(i: int, **fields):
    """Insert after line i a copy of its JSON record with fields set."""
    def edit(lines):
        doc = json.loads(lines[i])
        doc.update(fields)
        lines.insert(i + 1, json.dumps(doc, sort_keys=True))
    return edit


def swap(i: int, j: int):
    def edit(lines):
        lines[i], lines[j] = lines[j], lines[i]
    return edit


def insert(i: int, line: str | None = None):
    """Insert `line`, or a copy of line i, before line i."""
    def edit(lines):
        lines.insert(i, lines[i] if line is None else line)
    return edit


def append_to(i: int, text: str):
    def edit(lines):
        lines[i] += text
    return edit


def replace_in(i: int, old: str, new: str):
    def edit(lines):
        lines[i] = lines[i].replace(old, new)
    return edit


def trade_ranks(i: int, j: int):
    """Lines i and j trade the texts of their ranks."""
    def edit(lines):
        rank = re.compile(r'"rank": ([^,]*), ')
        a, b = rank.search(lines[i])[1], rank.search(lines[j])[1]
        lines[i], lines[j] = set_rank(lines[i], b), set_rank(lines[j], a)
    return edit


# changes to the scenario's files that keep each line plausible, each for a
# check of the loader or a departure from what save_graph writes that the
# builder loader reads in its own way: line 0 of nodes.jsonl is a bug, line 2
# a comment with a span, line 52 of triples.tsv a has-type triple
FORGERIES = {
    "attr that is a number": (NODES_FILE, edit_record(0, attrs={"status": 1})),
    "label that is a number": (NODES_FILE, edit_record(0, label=5)),
    "start that is a string": (NODES_FILE, edit_record(2, start="1")),
    "start after end": (NODES_FILE, edit_record(2, start=9, end=1)),
    "path that is a number": (NODES_FILE, edit_record(2, path=5)),
    "span without path": (NODES_FILE, edit_record(2, path=None)),
    "unknown kind": (NODES_FILE, edit_record(0, kind="widget")),
    "another known kind": (NODES_FILE, edit_record(0, kind="function")),
    "id that is a number": (NODES_FILE, edit_record(0, id=7)),
    "nodes out of order": (NODES_FILE, swap(0, 1)),
    "repeated node": (NODES_FILE, insert(1, None)),
    "repeated id with another label": (NODES_FILE, repeat_record(0, label="other")),
    "node trailing a space": (NODES_FILE, append_to(0, " ")),
    "node trailing a value": (NODES_FILE, append_to(0, " 5")),
    "node with a CR": (NODES_FILE, append_to(0, "\r")),
    "blank node line": (NODES_FILE, insert(1, "")),
    "literal object that is an id": (TRIPLES_FILE, edit_field(52, 2, "var:src/x.c#y")),
    "literal object that is a node": (TRIPLES_FILE, edit_field(52, 2, "bug:CQ/22")),
    "object that is no node": (TRIPLES_FILE, edit_field(0, 2, "func:src/none.c#ghost")),
    "unknown predicate": (TRIPLES_FILE, edit_field(0, 1, "frobs")),
    "triples out of order": (TRIPLES_FILE, swap(0, 1)),
    "repeated triple": (TRIPLES_FILE, insert(1, None)),
    "triple with a CR": (TRIPLES_FILE, append_to(0, "\r")),
    "blank triple line": (TRIPLES_FILE, insert(1, "")),
    "infinite rank": (NODES_FILE, edit_record(0, rank=float("inf"))),
    "rank that is a string": (NODES_FILE, edit_record(0, rank="0.5")),
    "rank that is an integer": (NODES_FILE, edit_record(0, rank=1)),
    "rank with spaces": (NODES_FILE, replace_in(0, '"rank": ', '"rank":  ')),
    "ranks traded between nodes": (NODES_FILE, trade_ranks(0, 1)),
}


@pytest.mark.parametrize("name, edit", FORGERIES.values(), ids=list(FORGERIES))
@pytest.mark.parametrize("block", [READ_BLOCK, 256], ids=["one-block", "small-blocks"])
def test_forgery_loads_as_builder_loader_or_names_a_line(scenario_dir, tmp_path, monkeypatch,
                                                         name, edit, block):
    """Each forgery, with the files read whole or in blocks of a line or
    two, so that the edited lines can fall in different blocks."""
    monkeypatch.setattr(ckt.graph, "READ_BLOCK", block)
    out = copy_graph(scenario_dir, tmp_path)
    path = out / name
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    edit(lines)
    path.write_bytes("".join(f"{x}\n" for x in lines).encode("utf-8"))
    write_manifest(out)
    assert_loads_as_builder_loader(out)


@pytest.mark.parametrize("line", [" {record}", "", "]"], ids=["leading-space", "empty", "bracket"])
@pytest.mark.parametrize("forged", [False, True], ids=["hand-edit", "forged"])
def test_a_node_line_that_starts_with_no_json_value_names_the_line(scenario_dir, tmp_path,
                                                                     line, forged):
    """The JSON scanner finds no value at the start of the line: the load
    names the line, with or without a graph.json that vouches for it, and
    a query exits 2 with one error line."""
    out = copy_graph(scenario_dir, tmp_path)
    path = out / NODES_FILE
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    lines.insert(3, line.format(record=lines[3]))  # {record}: the record now on line 5
    path.write_text("".join(f"{x}\n" for x in lines), encoding="utf-8")
    if forged:
        write_manifest(out)
    message = "line 4: not a node record that ckt build writes in nodes.jsonl"
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert str(exc.value) == message
    proc = run_ckt("query", "--graph", str(out), SELECT)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("name", [NODES_FILE, TRIPLES_FILE])
def test_forgery_without_the_last_lf_names_the_last_line(scenario_dir, tmp_path, name):
    out = copy_graph(scenario_dir, tmp_path)
    data = (out / name).read_bytes()
    (out / name).write_bytes(data[:-1])
    write_manifest(out)
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert exc.value.line == data.count(b"\n") and name in str(exc.value)


@pytest.mark.parametrize("name, bad_first_line", [(NODES_FILE, edit_record(0, label=5)),
                                                   (TRIPLES_FILE, edit_field(0, 1, "frobs"))],
                         ids=[NODES_FILE, TRIPLES_FILE])
@pytest.mark.parametrize("fault", ["cr", "no-last-lf"])
def test_a_cr_or_a_missing_last_lf_is_named_before_an_earlier_bad_line(scenario_dir, tmp_path,
                                                                        monkeypatch, fault, name,
                                                                        bad_first_line):
    """A graph file read in many small blocks, with a bad first line and,
    blocks later, a CR or a last line without its LF: the load names the
    CR or the missing LF, as when the whole file was checked for them
    before its first line was parsed."""
    monkeypatch.setattr(ckt.graph, "READ_BLOCK", 256)
    out = copy_graph(scenario_dir, tmp_path)
    path = out / name
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert len("\n".join(lines)) > 10 * 256
    bad_first_line(lines)
    if fault == "cr":
        lines[-2] += "\r"
        message = f"line {len(lines) - 1}: carriage return in {name}"
        path.write_bytes("".join(f"{x}\n" for x in lines).encode("utf-8"))
    else:
        message = f"line {len(lines)}: no line feed at the end of {name}"
        path.write_bytes("\n".join(lines).encode("utf-8"))
    write_manifest(out)
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert str(exc.value) == message


def test_no_command_parses_a_forged_provenance_column(scenario_dir, tmp_path):
    """An empty list, a source that is a number and a list that is no JSON,
    each on its own line of triples.tsv: the load refuses them by the
    digest, and under a graph.json forged to vouch for them it gives the unforged tree's entities, keys and ranks,
    and a query, a REPL :related and an export each exit 0 with the
    unforged tree's answer, the export with the forged file's bytes."""
    out = copy_graph(scenario_dir, tmp_path)
    path = out / TRIPLES_FILE
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    for i, column in enumerate(["[]", '[{"origin": "o", "source": 1}]', "[{"]):
        edit_field(i, 3, column)(lines)
    path.write_bytes("".join(f"{x}\n" for x in lines).encode("utf-8"))
    with pytest.raises(FormatError, match="graph.json: triples.tsv does not match"):
        load_graph(out)  # a hand edit, which the digest refuses
    manifest = json.loads((out / GRAPH_MANIFEST).read_text(encoding="utf-8"))
    manifest["blake2b"][TRIPLES_FILE] = blake2b_hex(path.read_bytes())  # the copies' digests stay
    (out / GRAPH_MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    assert graphs_equal(load_graph(out), load_graph(scenario_dir / "out"))
    related = f":related {lines[0].split()[0]} 1\n:quit\n"
    for args, stdin in [(("query", "--format", "records", SELECT), None), (("repl",), related)]:
        forged, unforged = (run_ckt(args[0], "--graph", str(graph), *args[1:], stdin=stdin)
                            for graph in (out, scenario_dir / "out"))
        assert forged.returncode == 0 and forged.stderr == ""
        assert forged.stdout == unforged.stdout != ""
    export = run_ckt("export", "--graph", str(out), "--what", "triples")
    assert export.returncode == 0 and export.stderr == ""
    assert export.stdout == path.read_text(encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(PREDS),
                                          st.sampled_from([*IDS, "int"])), max_size=12))
def test_membership_in_a_loaded_graph_equals_the_builder_loaders(graph_and_sources, drawn):
    """Drawn keys, and every key the graph has, are in the loaded graph
    exactly when they are in the builder loader's graph of the same files,
    at the first membership test and at the ones after it."""
    graph = graph_and_sources[0]
    with tempfile.TemporaryDirectory() as tmp:
        save_graph(*graph_and_sources, tmp)
        loaded, (built, _) = load_graph(tmp), oracles.builder_load_graph(tmp)
    for key in [*drawn, *graph.triples(), *drawn]:
        assert (key in loaded) == (key in built), key


def test_a_load_holds_no_more_than_a_block_of_triples_beyond_its_graph(tmp_path):
    """A triples.tsv of several read blocks: the traced peak of the load
    exceeds the traced size of the graph it returns by less than the
    file, since neither the file nor its provenance text is held."""
    builder = GraphBuilder()
    funcs = [f"func:a.c#f{i:02d}" for i in range(40)]
    for i, caller in enumerate(funcs):
        for j, callee in enumerate(funcs):
            builder.insert_triple(caller, "calls", callee,
                                  Provenance("source-code", f"a.c:{i * 40 + j}", "x" * 40))
    save_graph(builder.finalize(), builder.sources, tmp_path)
    size = (tmp_path / TRIPLES_FILE).stat().st_size
    assert size > 3 * READ_BLOCK
    tracemalloc.start()
    try:
        graph = load_graph(tmp_path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph) == 40 * 40
    assert peak - held < size


# -- changed and torn directories ------------------------------------------------


def test_a_valid_line_changed_after_the_build_names_the_file_in_graph_json(scenario_dir,
                                                                            tmp_path):
    out = copy_graph(scenario_dir, tmp_path)
    nodes = out / NODES_FILE
    lines = nodes.read_text(encoding="utf-8").split("\n")
    edit_record(0, label="edited")(lines)  # a line save_graph could have written
    nodes.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert str(exc.value) == (
        "line 4: graph.json: nodes.jsonl does not match its BLAKE2b digest here; it changed "
        "after the build, or a build rewrote it while it was read")
    proc = run_ckt("query", "--graph", str(out), SELECT)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {exc.value}\n"


@pytest.mark.parametrize("args", [("query", SELECT), ("export", "--what", "triples")],
                         ids=["query", "export"])
def test_a_dir_without_graph_json_exits_2_naming_it(scenario_dir, tmp_path, args):
    out = copy_graph(scenario_dir, tmp_path)
    (out / GRAPH_MANIFEST).unlink()
    proc = run_ckt(args[0], "--graph", str(out), *args[1:])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: no graph found in {out}: missing graph.json\n"


def test_a_bad_line_under_graph_json_is_named_before_the_digest(scenario_dir, tmp_path):
    out = copy_graph(scenario_dir, tmp_path)
    path = out / NODES_FILE
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    lines[2] = set_rank(lines[2], "0.1x")
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert str(exc.value).startswith("line 3: not a line that ckt build writes in nodes.jsonl")


@pytest.mark.parametrize("text, lineno", [
    ("{\n  \"format\": 3,\n  \"blake2b\": {\n", 4),
    ('{"format": 3, "sha256": {}}\n', 1),
    ('{"format": true, "blake2b": {}}\n', 1),
    ('{"format": 3, "blake2b": []}\n', 1),
    ('{"blake2b": {}}\n', 1),
    ('{"format": 1, "sha256": {"nodes.jsonl": "00"}}\n', 1),
    ("[]\n", 1),
    ("", 1),
])
def test_a_bad_graph_json_names_its_line(scenario_dir, tmp_path, text, lineno):
    out = copy_graph(scenario_dir, tmp_path)
    (out / GRAPH_MANIFEST).write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert exc.value.line == lineno and GRAPH_MANIFEST in str(exc.value)


@pytest.mark.parametrize("version", [1, 2])
def test_a_graph_json_of_an_older_format_asks_for_a_rebuild(scenario_dir, tmp_path, version):
    """A directory built in format 1, with its SHA-256 table, or in format
    2, with its ranks.tsv and BLAKE2b table, each true to the files, exits
    2 naming graph.json and asking for ckt build again, in a query, a
    REPL and an export."""
    out = copy_graph(scenario_dir, tmp_path)
    if version == 2:  # each rank in ranks.tsv, not in its nodes.jsonl line
        lines = (out / NODES_FILE).read_text(encoding="utf-8").split("\n")[:-1]
        docs = [json.loads(line) for line in lines]
        (out / NODES_FILE).write_text("".join(f"{set_rank(x, None)}\n" for x in lines),
                                      encoding="utf-8")
        (out / "ranks.tsv").write_text("".join(f"{doc['id']}\t{doc['rank']!r}\n" for doc in docs),
                                       encoding="utf-8")
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != GRAPH_MANIFEST}
    table = ({"sha256": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}}
             if version == 1 else {"blake2b": {name: blake2b_hex(data)
                                                for name, data in files.items()}})
    (out / GRAPH_MANIFEST).write_text(json.dumps({"format": version, **table}, indent=2) + "\n",
                                      encoding="utf-8")
    message = (f"line 1: graph.json: the graph is in format {version}, and this ckt reads "
               "format 3; run ckt build again")
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert str(exc.value) == message
    for args in [("query", SELECT), ("repl",), ("export", "--what", "triples")]:
        proc = run_ckt(args[0], "--graph", str(out), *args[1:])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("change, lineno", [
    (lambda path: path.write_bytes(path.read_bytes() + b"\n"), 8),  # a blank line is valid
    (lambda path: path.unlink(), 8),
])
def test_a_changed_or_removed_trace_copy_exits_2(scenario_dir, tmp_path, change, lineno):
    out = copy_graph(scenario_dir, tmp_path)
    change(out / "trace.jsonl")
    proc = run_ckt("query", "--graph", str(out), SELECT)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: line {lineno}: graph.json: trace.jsonl does not match")


@pytest.mark.parametrize("name", [NODES_FILE, TRIPLES_FILE])
def test_bytes_that_are_not_utf8_name_the_line(scenario_dir, tmp_path, name):
    out = copy_graph(scenario_dir, tmp_path)
    path = out / name
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:5] + b"\xff\xfe" + lines[2][5:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert exc.value.line == 3 and name in str(exc.value)
