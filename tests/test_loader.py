"""The graph loader and the persisted PageRank scores: the direct loader
against the GraphBuilder loader in oracles.py, loaded ranks against the
built and the dense ones, and corrupt graph directories."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ckt.errors import CktError, FormatError, NotFoundError
from ckt.graph import (
    NODES_FILE,
    RANKS_FILE,
    TRIPLES_FILE,
    GraphBuilder,
    KnowledgeGraph,
    Provenance,
    load_graph,
    save_graph,
)
from ckt.model import Entity, Span
from oracles import dense_pagerank, graphs_equal

SRC = Path(__file__).resolve().parents[1] / "src"
SELECT = "SELECT ?v WHERE { func:src/VHDLPosedge.cc#VHDLPosedge_S2 writes ?v }"


def copy_graph(scenario_dir, tmp_path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", out)
    return out


def run_ckt(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ckt", *args], capture_output=True,
                          text=True, env=env, timeout=120)


# -- persisted ranks -----------------------------------------------------------


def test_loaded_ranks_equal_the_built_ranks(scenario_dir, monkeypatch):
    # the builder loader reads no ranks, so its graph computes them as the
    # build did
    built = oracles.builder_load_graph(scenario_dir / "out").pagerank()
    loaded = load_graph(scenario_dir / "out")

    def no_recompute(self):
        raise AssertionError("pagerank recomputed on a loaded graph")

    monkeypatch.setattr(KnowledgeGraph, "directed_edges", no_recompute)
    assert loaded.pagerank() == built
    assert list(loaded.pagerank()) == sorted(built)


def test_loaded_ranks_agree_with_dense_oracle(scenario_graph):
    oracle = dense_pagerank(list(scenario_graph.entities),
                            list(scenario_graph.triples()))
    rank = scenario_graph.pagerank()
    assert rank.keys() == oracle.keys()
    for node, score in rank.items():
        assert abs(score - oracle[node]) <= 1e-8


def test_ranks_file_is_written_by_save_graph(tmp_path):
    builder = GraphBuilder()
    builder.insert_triple("func:a#f", "calls", "func:a#g", Provenance("source-code", "a:1"))
    graph = builder.finalize()
    save_graph(graph, tmp_path)
    rank = graph.pagerank()
    assert (tmp_path / RANKS_FILE).read_text(encoding="utf-8") == (
        f"func:a#f\t{rank['func:a#f']!r}\nfunc:a#g\t{rank['func:a#g']!r}\n"
    )


def test_entity_with_an_empty_label_round_trips(tmp_path):
    # a commit with no author name or email is authored by "dev:", labelled ""
    builder = GraphBuilder()
    builder.add_entity(Entity("dev:", "developer", ""))
    builder.insert_triple("commit:c1", "authored-by", "dev:", Provenance("version-tracker", "c1"))
    graph = builder.finalize()
    save_graph(graph, tmp_path)
    assert graphs_equal(load_graph(tmp_path), graph)


def corrupt_ranks(lines, how):
    """Return the corrupted lines and the line number the error must name."""
    if how == "bad-float":
        lines[2] = lines[2].split("\t")[0] + "\t0.1x"
        return lines, 3
    if how == "no-tab":
        lines[2] = lines[2].replace("\t", " ")
        return lines, 3
    if how == "missing-id":
        del lines[2]
        return lines, len(lines) + 1
    if how == "extra-id":
        lines.insert(1, "func:src/nowhere.c#ghost\t0.001")
        return lines, 2
    if how == "duplicate-id":
        lines.insert(3, lines[2])
        return lines, 4
    raise ValueError(how)


CORRUPTIONS = ["bad-float", "no-tab", "missing-id", "extra-id", "duplicate-id"]


@pytest.mark.parametrize("how", CORRUPTIONS)
def test_corrupt_ranks_name_the_line(scenario_dir, tmp_path, how):
    out = copy_graph(scenario_dir, tmp_path)
    path = out / RANKS_FILE
    lines, lineno = corrupt_ranks(path.read_text(encoding="utf-8").splitlines(), how)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert exc.value.line == lineno
    assert f"line {lineno}:" in str(exc.value) and RANKS_FILE in str(exc.value)


def test_query_on_corrupt_ranks_exits_2_without_traceback(scenario_dir, tmp_path):
    out = copy_graph(scenario_dir, tmp_path)
    path = out / RANKS_FILE
    lines, lineno = corrupt_ranks(path.read_text(encoding="utf-8").splitlines(), "duplicate-id")
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    proc = run_ckt("query", "--graph", str(out), "--format", "records", SELECT)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: line {lineno}:") and "Traceback" not in proc.stderr


def test_query_without_ranks_file_exits_2(scenario_dir, tmp_path):
    out = copy_graph(scenario_dir, tmp_path)
    (out / RANKS_FILE).unlink()
    with pytest.raises(NotFoundError, match=RANKS_FILE):
        load_graph(out)
    proc = run_ckt("query", "--graph", str(out), SELECT)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# -- direct loader against the GraphBuilder loader ------------------------------

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
    """Hand-written nodes.jsonl and triples.tsv lines: nodes may repeat an
    id with other content or be absent (then triples auto-register them),
    and a triple may repeat with other provenance."""
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
    return [json.dumps(n, sort_keys=True) for n in nodes], triples


def write_graph_dir(directory: Path, node_lines, triple_lines) -> KnowledgeGraph:
    """Write the two files, then ranks.tsv from the builder loader's graph;
    returns that graph."""
    (directory / NODES_FILE).write_text("".join(f"{x}\n" for x in node_lines), encoding="utf-8")
    (directory / TRIPLES_FILE).write_text("".join(f"{x}\n" for x in triple_lines), encoding="utf-8")
    reference = oracles.builder_load_graph(directory)
    rank = reference.pagerank()
    (directory / RANKS_FILE).write_text(
        "".join(f"{eid}\t{rank[eid]!r}\n" for eid in sorted(rank)), encoding="utf-8")
    return reference


@settings(max_examples=80, deadline=None)
@given(graph_files())
def test_direct_loader_matches_builder_loader(files):
    with tempfile.TemporaryDirectory() as tmp:
        reference = write_graph_dir(Path(tmp), *files)
        graph = load_graph(tmp)
        assert graphs_equal(graph, reference)
        assert graph.pagerank() == reference.pagerank()


def test_direct_loader_matches_builder_loader_on_scenario(scenario_dir):
    assert graphs_equal(load_graph(scenario_dir / "out"),
                        oracles.builder_load_graph(scenario_dir / "out"))


def test_literal_predicate_with_a_node_object_names_the_line(tmp_path):
    # both ends are known nodes, so the loader may skip registering them but
    # must still reject an entity id where the predicate takes a literal
    nodes = [{"id": "func:h.c#f0", "kind": "function", "label": "f0"},
             {"id": "var:h.c#g", "kind": "variable", "label": "g"}]
    prov = json.dumps([{"origin": "h.c:1", "source": "source-code"}])
    (tmp_path / NODES_FILE).write_text("".join(json.dumps(n) + "\n" for n in nodes),
                                       encoding="utf-8")
    (tmp_path / TRIPLES_FILE).write_text(
        f"func:h.c#f0\twrites\tvar:h.c#g\t{prov}\nfunc:h.c#f0\thas-type\tvar:h.c#g\t{prov}\n",
        encoding="utf-8")
    (tmp_path / RANKS_FILE).write_text("", encoding="utf-8")
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
    """The insertion rule's messages, each behind its triples.tsv line."""
    prov = json.dumps([{"origin": "h.c:1", "source": "source-code"}])
    (tmp_path / NODES_FILE).write_text(
        json.dumps({"id": "func:h.c#f0", "kind": "function", "label": "f0"}) + "\n",
        encoding="utf-8")
    (tmp_path / TRIPLES_FILE).write_text(
        f"func:h.c#f0\tcalls\tfunc:h.c#f0\t{prov}\n{line}\t{prov}\n", encoding="utf-8")
    (tmp_path / RANKS_FILE).write_text("", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load_graph(tmp_path)
    assert str(exc.value) == f"line 2: {message}"


# -- fuzzed graph directories -----------------------------------------------------

JUNK = {
    NODES_FILE: [None, 5, -1, "7", "x", [], {}, {"a": 1}],
    TRIPLES_FILE: ["", "x", "calls", "has-type", "not an id", "func:h.c#zz", "[]", "{}",
                   "[1]", '[{"source": 1}]', '[{"origin": "o"}]', '"s"', "null"],
    RANKS_FILE: ["", "x", "nan", "inf", "1e400", "0.5", "-0.0", "func:h.c#zz", "1\t2"],
}
NODE_KEYS = ["id", "kind", "label", "path", "start", "end", "attrs"]
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
    return builder.finalize()


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_fuzzed_graph_dir_loads_or_names_a_line(graph, data):
    with tempfile.TemporaryDirectory() as tmp:
        save_graph(graph, tmp)
        for _ in range(data.draw(st.integers(1, 3))):
            name = data.draw(st.sampled_from([NODES_FILE, TRIPLES_FILE, RANKS_FILE]))
            path = Path(tmp) / name
            lines = path.read_text(encoding="utf-8").splitlines()
            mutate(lines, name, data.draw)
            path.write_text("".join(f"{x}\n" for x in lines), encoding="utf-8")
        try:
            loaded = load_graph(tmp)
        except CktError as exc:
            assert isinstance(exc, FormatError) and exc.line is not None, repr(exc)
        else:
            # whatever loads, loads as the builder loader reads it
            assert graphs_equal(loaded, oracles.builder_load_graph(tmp))


@pytest.mark.parametrize("name", [NODES_FILE, TRIPLES_FILE, RANKS_FILE])
def test_bytes_that_are_not_utf8_name_the_line(scenario_dir, tmp_path, name):
    out = copy_graph(scenario_dir, tmp_path)
    path = out / name
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:5] + b"\xff\xfe" + lines[2][5:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError) as exc:
        load_graph(out)
    assert exc.value.line == 3 and name in str(exc.value)
