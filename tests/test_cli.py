"""End-to-end CLI behavior on the scenario project."""

import gc
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckt.cli import (
    _load_query_context,
    _run_query_text,
    cmd_export,
    cmd_query,
    cmd_repl,
    format_records,
    format_table,
    main,
)
from ckt.cli import cmd_build as cli_build
from ckt.errors import FormatError, SlotError
from ckt.graph import NODES_FILE, STATS_FILE, load_graph
from ckt.query.evaluate import ResultSet
from ckt.query.templates import Template, TemplateRegistry
from ckt.smart import SmartAlert
from conftest import SCENARIO
from oracles import (
    blake2b_hex,
    builder_load_graph,
    graphs_equal,
    parse_record,
    reference_format_table,
    round_trips,
)

S2 = "func:src/VHDLPosedge.cc#VHDLPosedge_S2"
SRC = Path(__file__).resolve().parents[1] / "src"

# SHA-256 of every file `ckt build` writes for the scenario, recorded from
# the build before its lookups were indexed: a faster build must not change
# a byte of its output.  graph.json, which lists the others' digests, was
# added later, and recorded again for format 2 from two independent builds;
# recorded again for format 3, from two builds under PYTHONHASHSEED 1 and 2,
# once nodes.jsonl carried each node's rank and ranks.tsv went.
SCENARIO_DIGESTS = {
    "graph.json": "faf0fb77a95ecc9bfd631872d3b0ccdd8b1c2b54499ecc92e9ef36fc0cdd8fb8",
    "nodes.jsonl": "36f11de8998c979a92103ed5af03dc96d882af46441a0af3ef2c798eb538790c",
    "report.json": "d789180a1c997f7a4cf7a34062c7d3558fd996a94856c863129d324f5c8e5134",
    "stats.json": "a3f465ac941d7ea86e52adedc4268fda979f3dca0c6db024adb56c8f9449ffe3",
    "templates.jsonl": "fb6348c267556b8936940ddd0e87a90b6ec1844de36d1eb8266274f18f5b7eb9",
    "trace.jsonl": "490ae5142723b9c2836ef59d0327443784541b637604b83bd008f28463154d93",
    "triples.tsv": "cda2cc0b2d695e234a26883672890ae8a68425a3afe3f2263b741be3dbf93253",
}


def test_build_reports_counts_per_source(scenario_dir, capsys):
    # the fixture was built in the session fixture; rebuild for the report
    assert main(["build", "--manifest", str(scenario_dir / "manifest.json")]) == 0
    out = capsys.readouterr().out
    assert "source-code:" in out
    assert "version-tracker:" in out and "3 commits" in out
    assert "bug-tracker:" in out and "2 bugs" in out
    assert "trace:" in out and "15 events" in out
    assert "comment:" in out


def test_scenario_build_matches_golden_digests(tmp_path, capsys):
    shutil.copytree(SCENARIO, tmp_path / "p")
    assert main(["build", "--manifest", str(tmp_path / "p" / "manifest.json")]) == 0
    out = tmp_path / "p" / "out"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == SCENARIO_DIGESTS


def test_graph_json_gives_the_blake2b_of_every_other_file(scenario_dir):
    out = scenario_dir / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "graph.json"}
    assert json.loads((out / "graph.json").read_bytes()) == {"format": 3, "blake2b": {
        name: blake2b_hex(data) for name, data in files.items()}}


# A parsed file whose path a facts file also names, the facts file listed
# before and after the parsed directory: its file-kind entity comes first
# among those spanned in src/m.c, so the closing comment, which no element
# follows, falls back to it, and that comment's scope holds the facts file's
# declarations in src/m.c.
MIXED_SOURCE = """/* m.c: ring buffer helpers */
static int fill_level = 0;

// Greedy choice: drains the fullest ring first, see drain_ring and stale_helper.
int drain_ring(int n) {
    fill_level = fill_level - n;
    return fill_level;
}
int tail_value; // trailing comment mentions legacy_flag
// closing note names flush_all and helper_fx
"""
MIXED_FACTS = [
    {"rec": "header", "version": 1},
    {"rec": "entity", "id": "file:src/m_alias", "kind": "file", "label": "m alias",
     "path": "src/m.c", "start": 1, "end": 20},
    {"rec": "entity", "id": "func:src/m.c#helper_fx", "kind": "function", "label": "helper_fx",
     "path": "src/m.c", "start": 3, "end": 3},
    {"rec": "entity", "id": "var:src/m.c#legacy_flag", "kind": "variable", "label": "legacy_flag",
     "path": "src/m.c", "start": 9, "end": 9},
    {"rec": "relation", "subj": "func:src/m.c#helper_fx", "pred": "calls",
     "obj": "func:src/m.c#drain_ring"},
]
MIXED_COMMITS = [
    {"rec": "header", "version": 1},
    {"id": "c1", "author_name": "A", "author_email": "a@x", "timestamp": "2015-01-01T00:00:00Z",
     "summary": "edit the ring", "changes": [{"path": "src/m.c", "added": [[3, 6]]}]},
]
# recorded from the build before FactSet kept its entities by file;
# graph.json was added later, and recorded again for format 2 from two
# independent builds; recorded again, from two builds under PYTHONHASHSEED 1
# and 2, once the facts file, listed twice here, was loaded once: the calls
# triple it asserts kept one source of two, and report.json counted its
# entities and relations once; recorded again for format 3, as the
# scenario's were
MIXED_DIGESTS = {
    "graph.json": "15769c146b00ed176a55be674e2d63afcd789cf593323fed229b12013c4e138f",
    "nodes.jsonl": "9d4cb40d02a0bf9853b209b7a3090915fba9f95c3bdf9c262aff1763beb11b1a",
    "report.json": "16a24bc9eea3ada926ad7d884769fbe2e9023e6198030c4235743379180a417e",
    "stats.json": "84a4a753955bc6aaa8bbae7104270aa13366e11dff4f57099ba93e6c9bea33e3",
    "triples.tsv": "c820c52e2fc17e6b6dcab9d11d4372c54ea22157f46f98adf64d09e395c3e9e1",
}


def test_build_mixing_facts_and_parsed_sources_matches_golden_digests(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.c").write_text(MIXED_SOURCE, encoding="utf-8")
    for name, docs in (("facts.jsonl", MIXED_FACTS), ("commits.jsonl", MIXED_COMMITS)):
        (tmp_path / name).write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
    facts = {"path": "facts.jsonl", "mode": "facts"}
    manifest = {"sources": [facts, {"path": "src"}, facts], "commits": "commits.jsonl",
                "out": "out"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["build", "--manifest", str(tmp_path / "manifest.json")]) == 0
    out = tmp_path / "out"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == MIXED_DIGESTS


def build_project(root, files, manifest):
    """Write `files`, each a path under `root` with its text, and a manifest
    that adds "out" to `manifest`; build it and return the out directory."""
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    (root / "manifest.json").write_text(json.dumps({**manifest, "out": "out"}), encoding="utf-8")
    assert main(["build", "--manifest", str(root / "manifest.json")]) == 0
    return root / "out"


# the two comments on line 2 share the id comment:src/a.c#L2: the first is
# fresh, mentions greedy and grounds bug 1; the second names missing_fn,
# mentions divide (and conquer) and would ground bug 2
TWO_ON_A_LINE = {
    "src/a.c": "int g_count;\n"
               "void f(void) { g_count = 1; } /* greedy bump of g_count */ /* divide missing_fn */\n",
    "ontology.jsonl": (SCENARIO / "ontology.jsonl").read_text(encoding="utf-8"),
    "bugs.jsonl": "".join(json.dumps(doc) + "\n" for doc in [
        {"rec": "header", "version": 1},
        {"id": "1", "tracker": "CQ", "title": "g_count wraps", "opened": "2015-01-01T00:00:00Z"},
        {"id": "2", "tracker": "CQ", "title": "missing_fn aborts", "opened": "2015-01-01T00:00:00Z"},
    ]),
}


def test_two_comments_on_one_line_build_from_the_first(tmp_path, capsys):
    out = build_project(tmp_path, TWO_ON_A_LINE, {"sources": [{"path": "src"}],
                                                  "ontology": "ontology.jsonl", "bugs": "bugs.jsonl"})
    graph = load_graph(out)
    comment = graph.entity("comment:src/a.c#L2")
    assert (comment.label, comment.attrs["tokens"]) == ("greedy bump of g_count", "greedy bump g_count")
    assert comment.attrs["stale"] == "false" and "missing" not in comment.attrs
    f = "func:src/a.c#f"
    assert [key for key in graph.triples() if key[1] in ("mentions", "touches")] == [
        ("bug:CQ/1", "touches", f), (f, "mentions", "concept:greedy")]
    _, sources = builder_load_graph(out)
    assert len(sources[f, "documented-by", comment.id]) == 1


FACTS = {"path": "facts.jsonl", "mode": "facts"}


@pytest.mark.parametrize("again", [
    [FACTS],
    # the same files by other spellings: the first listing's stays in the ids
    [{"path": "sub/../facts.jsonl", "mode": "facts"}, {"path": "sub/../src"}],
], ids=["same-path", "dot-dot"])
def test_a_facts_file_listed_twice_builds_as_listed_once(tmp_path, capsys, again):
    files = {"src/m.c": MIXED_SOURCE, "sub/keep": "",
             "facts.jsonl": "".join(json.dumps(d) + "\n" for d in MIXED_FACTS)}
    once = build_project(tmp_path / "once", files, {"sources": [FACTS, {"path": "src"}]})
    once_stdout = capsys.readouterr().out
    twice = build_project(tmp_path / "twice", files,
                          {"sources": [FACTS, {"path": "src"}, *again]})
    assert capsys.readouterr().out == once_stdout
    assert {p.name: p.read_bytes() for p in twice.iterdir()} == {
        p.name: p.read_bytes() for p in once.iterdir()}
    key = ("func:src/m.c#helper_fx", "calls", "func:src/m.c#drain_ring")
    _, sources = builder_load_graph(twice)
    assert len(sources[key]) == 1


def test_a_dot_dot_behind_a_symlink_reaches_the_link_targets_sibling(tmp_path, capsys):
    """`link/../src` names the `src` beside the link's target, which is not
    `src`: a lexical reading of the path would drop its files."""
    files = {"src/a.c": "void f(void) { }\n", "far/src/b.c": "void g(void) { }\n"}
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text, encoding="utf-8")
    (tmp_path / "far" / "inner").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "far" / "inner")
    out = build_project(tmp_path, {}, {"sources": [{"path": "src"}, {"path": "link/../src"}]})
    graph = load_graph(out)
    assert {"func:src/a.c#f", "func:link/../src/b.c#g"} <= set(graph.entities)


def test_a_file_two_roots_reach_builds_as_under_one_root(tmp_path, capsys):
    files = {"src/a.c": "// writes g\nint g;\nvoid f(void) { g = 1; }\n"}
    one = build_project(tmp_path / "one", files, {"sources": [{"path": "src"}]})
    two = build_project(tmp_path / "two", files, {"sources": [{"path": "src"}, {"path": "src/a.c"}]})
    assert {p.name: p.read_bytes() for p in two.iterdir()} == {
        p.name: p.read_bytes() for p in one.iterdir()}


@pytest.mark.parametrize("command", ["build", "table", "records"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, command):
    """`ckt ... | head -1` once head has gone: a build's report, or the one
    write of a query's answer in either format, meets a closed pipe, and
    ckt exits quietly."""
    shutil.copytree(SCENARIO, tmp_path / "p")
    manifest, out = tmp_path / "p" / "manifest.json", tmp_path / "p" / "out"
    if command != "build":
        assert cli_build(manifest) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before ckt writes a byte
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    args = ["build", "--manifest", str(manifest)]
    if command != "build":
        args = ["query", "--graph", str(out), "--format", command,
                f"SELECT ?v WHERE {{ {S2} writes ?v }}"]
    try:
        proc = subprocess.run([sys.executable, "-m", "ckt", *args],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
    assert (out / "nodes.jsonl").exists()


class CountingWriter(io.StringIO):
    """A text stream that counts the calls of its write."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_a_cold_answer_is_one_write_of_its_lines(scenario_dir, monkeypatch, fmt):
    text = f"@bugs-affecting-function({S2})"
    result, resolution = _run_query_text(text, _load_query_context(scenario_dir / "out"))
    lines = (format_records if fmt == "records" else format_table)(result, resolution)
    out = CountingWriter()
    monkeypatch.setattr(sys, "stdout", out)
    assert cmd_query(scenario_dir / "out", text, fmt, False) == 0
    assert out.writes == 1 and out.getvalue() == "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("key, value, message", [
    ("bugs", "no-such-file.jsonl", "bugs path does not exist: "),
    *[(key, "src", f"{key} path is not a file: ")
      for key in ("commits", "bugs", "trace", "ontology", "weights", "templates")],
    ("sources", [{"path": "src", "mode": "parse"}, {"path": "src", "mode": "facts"}],
     "facts source path is not a file: "),
    ("out", "commits.jsonl", "out path is not a directory: "),
], ids=["missing-bugs", "commits-dir", "bugs-dir", "trace-dir", "ontology-dir", "weights-dir",
        "templates-dir", "facts-source-dir", "out-file"])
def test_build_missing_bugs_path_exits_2(tmp_path, capsys, key, value, message):
    shutil.copytree(SCENARIO, tmp_path / "p")
    manifest = tmp_path / "p" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc[key] = value
    manifest.write_text(json.dumps(doc))
    assert main(["build", "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    named = value if isinstance(value, str) else value[-1]["path"]
    assert err.startswith(f"error: {message}") and err.rstrip().endswith(named)
    assert err.count("\n") == 1


@pytest.mark.parametrize("directory, key, value, message", [
    *[("p", *case) for case in [
        ("commits", "a" * 300, "commits path cannot be checked: File name too long: "),
        ("out", "a" * 300, "out path cannot be checked: File name too long: "),
        ("sources", [{"path": "a" * 300}], "source path cannot be checked: File name too long: "),
        ("commits", "commits\n.jsonl",
         "commits path holds a control character or a lone surrogate: 'commits\\n.jsonl'"),
        ("out", "o\ud800", "out path holds a control character or a lone surrogate: 'o\\ud800'"),
        ("commits", 123, "manifest.json: commits path must be a string"),
        ("commits", ["commits.jsonl"], "manifest.json: commits path must be a string"),
        ("sources", [{"path": ["src"]}], "manifest.json: source path must be a string"),
        ("sources", [{"path": "src", "mode": ["parse"]}],
         "manifest.json: source mode must be a string"),
    ]],
    # the manifest's own directory starts every path the messages print
    ("a\nb", "bugs", "nope.jsonl", "manifest path holds a control character: '"),
], ids=["long-commits", "long-out", "long-source", "lf", "surrogate", "number", "list",
        "source-list", "mode-list", "lf-directory"])
def test_a_manifest_path_that_names_no_file_exits_2_with_one_line(tmp_path, capsys, directory,
                                                                    key, value, message):
    """A path value of the manifest that is no JSON string, that holds a
    control character, or that the file system refuses to look up, or a
    manifest in a directory whose name holds a control character: exit 2
    with one error line naming the key or the manifest, no traceback and
    no out/."""
    shutil.copytree(SCENARIO, tmp_path / directory, ignore=shutil.ignore_patterns("out"))
    manifest = tmp_path / directory / "manifest.json"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc[key] = value
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["build", "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / directory / "out").exists()


def test_a_manifest_in_a_directory_whose_name_is_not_utf8_builds(scenario_dir, tmp_path, capsys):
    """A name byte that is not UTF-8 reaches the build as a lone surrogate,
    which names the directory and is no control character: the tree is
    the scenario's, byte for byte."""
    work = Path(os.fsdecode(os.fsencode(tmp_path) + b"/a\xffb"))
    shutil.copytree(SCENARIO, work, ignore=shutil.ignore_patterns("out"))
    assert main(["build", "--manifest", str(work / "manifest.json")]) == 0
    assert {p.name: p.read_bytes() for p in (work / "out").iterdir()} == {
        p.name: p.read_bytes() for p in (scenario_dir / "out").iterdir()}


def test_a_save_that_fails_exits_2_naming_the_file_and_keeps_the_previous_tree(tmp_path,
                                                                               capsys):
    """A rebuild over an out/ whose nodes.jsonl is a directory: the rename
    fails, and the build exits 2 with one line naming nodes.jsonl; the
    tree stays as it was, byte for byte."""
    shutil.copytree(SCENARIO, tmp_path / "p")
    manifest = str(tmp_path / "p" / "manifest.json")
    assert main(["build", "--manifest", manifest]) == 0
    out = tmp_path / "p" / "out"
    (out / NODES_FILE).unlink()
    (out / NODES_FILE).mkdir()
    before = {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["build", "--manifest", manifest]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out / NODES_FILE}: Is a directory\n"
    assert {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()} == before


def test_source_path_with_whitespace_exits_2(tmp_path, capsys):
    shutil.copytree(SCENARIO, tmp_path / "p")
    src = tmp_path / "p" / "src"
    (src / "ftpety.c").rename(src / "ft pety.c")
    assert main(["build", "--manifest", str(tmp_path / "p" / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert "'src/ft pety.c' contains whitespace" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["ft{pety.c", "ftpety?.c", "ft;pety.c", "ft}pety.c", 'ft"pety.c'])
def test_source_path_with_a_word_break_exits_2(tmp_path, capsys, name):
    shutil.copytree(SCENARIO, tmp_path / "p")
    src = tmp_path / "p" / "src"
    (src / "ftpety.c").rename(src / name)
    assert main(["build", "--manifest", str(tmp_path / "p" / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert f"source path 'src/{name}' contains whitespace or one of" in err
    assert "Traceback" not in err


def test_failed_build_keeps_the_previous_tree(tmp_path, capsys):
    shutil.copytree(SCENARIO, tmp_path / "p")
    manifest = str(tmp_path / "p" / "manifest.json")
    assert main(["build", "--manifest", manifest]) == 0
    out = tmp_path / "p" / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    (tmp_path / "p" / "templates.jsonl").write_text("not json at all\n")
    capsys.readouterr()
    assert main(["build", "--manifest", manifest]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: templates.jsonl: invalid JSON")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert cmd_query(out, f"SELECT ?v WHERE {{ {S2} writes ?v }}", "records", False) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("obj", [r"int\ud800", r"int\rx"], ids=["lone-surrogate", "cr"])
def test_a_rebuild_with_an_unwritable_triple_end_keeps_the_previous_tree(tmp_path, capsys, obj):
    """An object that UTF-8 cannot encode, or that would break its
    triples.tsv line, fails the rebuild before a file is written, though
    the rebuild also adds a node; the old tree still answers."""
    shutil.copytree(SCENARIO, tmp_path / "p")
    manifest, facts = tmp_path / "p" / "manifest.json", tmp_path / "p" / "facts.jsonl"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["sources"].append({"path": "facts.jsonl", "mode": "facts"})
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    relation = '{{"rec":"relation","subj":"var:lib.py#{}","pred":"has-type","obj":"{}"}}\n'
    facts.write_text('{"rec":"header","version":1}\n' + relation.format("x", "int"),
                     encoding="utf-8")
    assert main(["build", "--manifest", str(manifest)]) == 0
    out = tmp_path / "p" / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with facts.open("a", encoding="utf-8") as fh:
        fh.write(relation.format("y", obj))
    capsys.readouterr()
    assert main(["build", "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: object may not contain ") and err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert cmd_query(out, 'SELECT ?v WHERE { ?v has-type "int" }', "records", False) == 0
    assert "var:lib.py#x" in capsys.readouterr().out


def test_a_template_body_that_does_not_parse_fails_the_build_at_its_line(tmp_path, capsys):
    shutil.copytree(SCENARIO, tmp_path / "p")
    manifest = str(tmp_path / "p" / "manifest.json")
    assert main(["build", "--manifest", manifest]) == 0
    out = tmp_path / "p" / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    path = tmp_path / "p" / "templates.jsonl"
    docs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert docs[2]["name"] == "fixes-by-developer"
    docs[2]["body"] = "SELECT ?x WHERE { ?x frobs ?y }"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
    capsys.readouterr()
    assert main(["build", "--manifest", manifest]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: templates.jsonl: template 'fixes-by-developer': "
        "unknown predicate 'frobs' (at offset 21)\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("source", ["int g;\n", "int f(int n) { return n; }\n"],
                         ids=["no-function", "one-function"])
def test_weights_naming_an_unknown_feature_exit_2_whatever_the_source(tmp_path, capsys, source):
    (tmp_path / "m.c").write_text(source, encoding="utf-8")
    (tmp_path / "weights.json").write_text(
        '{"classes":["a"],"tau":0.5,"weights":{"a":{"f_bogus":1.0}}}', encoding="utf-8")
    manifest = {"sources": [{"path": "m.c"}], "weights": "weights.json", "out": "out"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["build", "--manifest", str(tmp_path / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: weights for class 'a' reference unknown feature 'f_bogus'\n"
    assert not (tmp_path / "out").exists()


# inputs of a build, a query and an export; all but the weights and the
# manifest name the line
NOT_UTF8_INPUTS = [
    ("build", "src/ftpety.c", True),
    ("build", "trace.jsonl", True),
    ("build", "commits.jsonl", True),
    ("build", "bugs.jsonl", True),
    ("build", "facts.jsonl", True),
    ("build", "ontology.jsonl", True),
    ("build", "templates.jsonl", True),
    ("build", "weights.json", False),
    ("build", "manifest.json", False),
    ("query", "out/trace.jsonl", True),
    ("query", "out/templates.jsonl", True),
    ("export", "out/triples.tsv", True),
    ("export", "out/stats.json", True),
]


def run_on_corrupt_input(scenario_dir, tmp_path, command, name, corrupt):
    """Copy the built scenario, with a neutral facts source added, replace
    the bytes of input `name` with corrupt(bytes) and run `command` on the
    copy; returns the finished process."""
    work = tmp_path / "p"
    shutil.copytree(SCENARIO, work)
    shutil.copytree(scenario_dir / "out", work / "out", dirs_exist_ok=True)
    (work / "facts.jsonl").write_text(
        '{"rec":"header","version":1}\n'
        '{"rec":"entity","id":"func:lib.py#run","kind":"function","label":"run"}\n',
        encoding="utf-8")
    manifest = work / "manifest.json"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["sources"].append({"path": "facts.jsonl", "mode": "facts"})
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    path = work / name
    path.write_bytes(corrupt(path.read_bytes()))
    args = {
        "build": ["build", "--manifest", str(manifest)],
        "query": ["query", "--graph", str(work / "out"), "SELECT ?f WHERE { ?f calls ?g }"],
        "export": ["export", "--graph", str(work / "out"), "--what", Path(name).stem],
    }[command]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ckt", *args], capture_output=True,
                          text=True, env=env, timeout=120)


def assert_exit_2_naming(proc, name, line):
    """Exit 2 with one error that names the file and, given one, the line."""
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert Path(name).name in proc.stderr
    if line is not None:
        assert proc.stderr.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("command, name, numbered", NOT_UTF8_INPUTS)
def test_input_that_is_not_utf8_exits_2_without_traceback(scenario_dir, tmp_path,
                                                          command, name, numbered):
    proc = run_on_corrupt_input(scenario_dir, tmp_path, command, name,
                                lambda data: data + b"\xff\xfe\n")
    bad_line = (tmp_path / "p" / name).read_bytes().count(b"\n")
    assert_exit_2_naming(proc, name, bad_line if numbered else None)


# a valid JSON value that is not an object: appended as one more record to
# each line-delimited input, or put in place of a whole-document input
NON_OBJECT_INPUTS = [
    ("build", "facts.jsonl", True),
    ("build", "commits.jsonl", True),
    ("build", "bugs.jsonl", True),
    ("build", "trace.jsonl", True),
    ("build", "ontology.jsonl", True),
    ("build", "templates.jsonl", True),
    ("query", "out/nodes.jsonl", True),
    ("query", "out/trace.jsonl", True),
    ("query", "out/templates.jsonl", True),
    ("build", "manifest.json", False),
    ("build", "weights.json", False),
]


@pytest.mark.parametrize("command, name, records", NON_OBJECT_INPUTS)
def test_record_that_is_not_an_object_exits_2_without_traceback(scenario_dir, tmp_path,
                                                                command, name, records):
    proc = run_on_corrupt_input(scenario_dir, tmp_path, command, name,
                                lambda data: data + b"[]\n" if records else b"[]")
    bad_line = (tmp_path / "p" / name).read_bytes().count(b"\n")
    assert_exit_2_naming(proc, name, bad_line if records else None)


@pytest.mark.parametrize("version", ["true", "1.0"])
@pytest.mark.parametrize("name", ["facts.jsonl", "commits.jsonl", "bugs.jsonl"])
def test_header_version_that_is_not_the_integer_1_exits_2(scenario_dir, tmp_path, name, version):
    proc = run_on_corrupt_input(scenario_dir, tmp_path, "build", name,
                                lambda data: data.replace(b'"version":1', f'"version":{version}'.encode(), 1))
    assert_exit_2_naming(proc, name, 1)
    assert "unsupported version" in proc.stderr


# a text field of another JSON type: appended as one more record to a
# line-delimited input, or put in place of the weights file
MISTYPED_TEXT = [
    ("ontology.jsonl", '{"term":["x"],"concept":"c"}', "'term' must be a string"),
    ("ontology.jsonl", '{"term":"x","concept":["c"]}', "'concept' must be a string"),
    ("ontology.jsonl", '{"term":"x","synonyms":["y",2],"concept":"c"}',
     "'synonyms' must be a list of strings"),
    ("templates.jsonl", '{"name":["t"],"triggers":["t"],"body":"SELECT ?a WHERE { ?a calls ?b }"}',
     "'name' must be a string"),
    ("templates.jsonl", '{"name":"t","triggers":"t","body":"SELECT ?a WHERE { ?a calls ?b }"}',
     "'triggers' must be a list of strings"),
    ("templates.jsonl", '{"name":"t","triggers":[1],"body":"SELECT ?a WHERE { ?a calls ?b }"}',
     "'triggers' must be a list of strings"),
    ("templates.jsonl", '{"name":"t","triggers":["t"],"body":["SELECT"]}', "'body' must be a string"),
    ("templates.jsonl", '{"name":"t","triggers":["t"],"slots":[{"name":["f"],"type":"entity"}],'
     '"body":"SELECT ?a WHERE { ?a calls $f }"}', "slot 'name' must be a string"),
    ("weights.json", '{"classes":"ab","weights":{"a":{},"b":{}}}',
     "'classes' must be a list of strings"),
    ("bugs.jsonl", '{"id":"99","opened":"2015-01-01T00:00:00Z","error_strings":"disk full"}',
     "'error_strings' must be a list of strings"),
    ("bugs.jsonl", '{"id":"99","opened":"2015-01-01T00:00:00Z","assignee":null}',
     "'assignee' must be a string"),
    ("bugs.jsonl", '{"id":"99","opened":"2015-01-01T00:00:00Z","title":null}',
     "'title' must be a string"),
    ("bugs.jsonl", '{"id":99,"opened":"2015-01-01T00:00:00Z"}', "'id' must be a string"),
    ("bugs.jsonl", '{"id":"99","opened":"2015-01-01T00:00:00Z","closed":20150102}',
     "'closed' must be a string"),
    ("trace.jsonl", '{"seq":16.5,"tid":1,"kind":"enter","target":"func:src/VHDLPosedge.cc#main"}',
     "'seq' and 'tid' must be integers, 'kind' and 'target' strings"),
    ("trace.jsonl", '{"seq":16,"tid":true,"kind":"enter","target":"func:src/VHDLPosedge.cc#main"}',
     "'seq' and 'tid' must be integers, 'kind' and 'target' strings"),
    ("trace.jsonl", '{"seq":16,"tid":1,"kind":"enter","target":42}',
     "'seq' and 'tid' must be integers, 'kind' and 'target' strings"),
    ("facts.jsonl", '{"rec":"entity","id":"func:lib.py#ext","kind":"function","label":"ext",'
     '"attrs":{"external":true}}', "attribute values must be strings"),
    ("facts.jsonl", '{"rec":"relation","subj":"func:lib.py#run","pred":"calls",'
     '"obj":"func:lib.py#run","attrs":{"threading":null}}', "attribute values must be strings"),
    ("facts.jsonl", '{"rec":"entity","id":"func:lib.py#lst","kind":"function","label":"lst",'
     '"attrs":[]}', "attrs must be an object"),
    ("facts.jsonl", '{"rec":"entity","id":"func:lib.py#two","kind":"function","label":"two",'
     '"path":"lib.py","start":"1","end":2}', "span needs a string path and integer start and end"),
    ("weights.json", '{"classes":["a"],"tau":"0.5","weights":{"a":{}}}',
     "'tau' must be a finite number"),
    ("weights.json", '{"classes":["a"],"tau":true,"weights":{"a":{}}}',
     "'tau' must be a finite number"),
    ("weights.json", '{"classes":["a"],"tau":NaN,"weights":{"a":{}}}',
     "'tau' must be a finite number"),
    ("weights.json", '{"classes":["a"],"weights":{"a":{"f_rec":"0.4"}}}',
     "weight a/f_rec must be a finite number"),
    ("weights.json", '{"classes":["a"],"weights":{"a":{"f_rec":-Infinity}}}',
     "weight a/f_rec must be a finite number"),
    ("weights.json", '{"classes":["a"],"tau":1%s,"weights":{"a":{}}}' % ("0" * 400),
     "int too large to convert to float"),
]


@pytest.mark.parametrize("name, record, message", MISTYPED_TEXT)
def test_text_field_of_another_type_exits_2(scenario_dir, tmp_path, name, record, message):
    delimited = name.endswith(".jsonl")
    proc = run_on_corrupt_input(scenario_dir, tmp_path, "build", name,
                                lambda data: data + record.encode() + b"\n" if delimited
                                else record.encode())
    bad_line = (tmp_path / "p" / name).read_bytes().count(b"\n")
    assert_exit_2_naming(proc, name, bad_line if delimited else None)
    assert message in proc.stderr


def test_a_commit_field_of_another_type_is_skipped_with_a_warning(scenario_dir, tmp_path):
    """The commit export's policy for a bad record: the build goes on
    without it, and report.json names its line."""
    record = ('{"id":"ffff0000","author_name":"X","author_email":"x@example.com",'
              '"timestamp":"2015-08-01T00:00:00Z","summary":null,"changes":[]}')
    proc = run_on_corrupt_input(scenario_dir, tmp_path, "build", "commits.jsonl",
                                lambda data: data + record.encode() + b"\n")
    bad_line = (tmp_path / "p" / "commits.jsonl").read_bytes().count(b"\n")
    assert proc.returncode == 0 and proc.stderr == ""
    warning = f"line {bad_line}: commits.jsonl: 'summary' must be a string; record skipped"
    assert f"warning: {warning}\n" in proc.stdout
    report = json.loads((tmp_path / "p" / "out" / "report.json").read_text(encoding="utf-8"))
    assert warning in report["warnings"]
    assert "commit:ffff0000" not in load_graph(tmp_path / "p" / "out").entities


def _counting(monkeypatch, module, attr, calls):
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)


def test_build_lexes_each_source_file_once(tmp_path, monkeypatch, capsys):
    from ckt.extraction import comments, cparser

    shutil.copytree(SCENARIO, tmp_path / "p")
    calls = []
    _counting(monkeypatch, cparser, "lex", calls)
    _counting(monkeypatch, comments, "lex", calls)
    assert cli_build(tmp_path / "p" / "manifest.json") == 0
    assert len(calls) == len(list((SCENARIO / "src").iterdir())) == 2


@pytest.mark.parametrize("corrupt", [False, True], ids=["good-build", "corrupt-bugs"])
def test_build_pauses_and_restores_the_collector(tmp_path, monkeypatch, capsys, corrupt):
    import ckt.graph
    from ckt import build

    shutil.copytree(SCENARIO, tmp_path / "p")
    if corrupt:
        with open(tmp_path / "p" / "bugs.jsonl", "a", encoding="utf-8") as fh:
            fh.write("[]\n")
    during = []
    _counting(monkeypatch, ckt.graph, "save_graph", during)
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            if corrupt:
                with pytest.raises(FormatError, match="record is not a JSON object"):
                    build.cmd_build(tmp_path / "p" / "manifest.json")
            else:
                assert build.cmd_build(tmp_path / "p" / "manifest.json") == 0
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == ([] if corrupt else [False, False])


@pytest.mark.parametrize("text, message", [
    (f"@algo-of-function({S2}, {S2}, junk)",
     "template 'algo-of-function' takes 1 slot(s), got 3 positional argument(s)"),
    ("@bugs-affecting-function(func=commit:x ; ?bug ?p ?o)",
     "slot 'func' expects an entity id, got 'commit:x ; ?bug ?p ?o'"),
    (f"@bugs-affecting-function({S2}, func=func:src/ftpety.c#ui_save)",
     "slot 'func' given twice"),
    (f"@bugs-affecting-function(func={S2}, func=func:src/ftpety.c#ui_save)",
     "slot 'func' given twice"),
], ids=["extra-positional", "entity-not-one-word", "by-position-and-name", "by-name-twice"])
def test_bad_template_arguments_exit_1(scenario_dir, text, message):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ckt", "query", "--graph", str(scenario_dir / "out"), text],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("corrupt", [False, True], ids=["good-graph", "corrupt-triples"])
def test_query_load_restores_the_collector(scenario_dir, tmp_path, corrupt):
    graph_dir = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", graph_dir)
    if corrupt:
        with open(graph_dir / "triples.tsv", "a", encoding="utf-8") as fh:
            fh.write('func:a#f\tno-such-predicate\tfunc:a#g\t[{"origin": "x", "source": "y"}]\n')
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            gc.unfreeze()
            if corrupt:
                with pytest.raises(FormatError, match="no-such-predicate"):
                    _load_query_context(graph_dir)
            else:
                _load_query_context(graph_dir)
                assert gc.get_freeze_count() > 0
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
        gc.unfreeze()


def test_template_query_table(scenario_dir, capsys):
    rc = cmd_query(scenario_dir / "out", f"@bugs-affecting-function({S2})", "table", False)
    out = capsys.readouterr().out
    assert rc == 0
    assert "bug:CQ/22" in out and "bug:CQ/67" in out
    assert "(2 rows)" in out


def test_select_query_records_round_trip(scenario_dir, capsys):
    rc = cmd_query(
        scenario_dir / "out",
        f"SELECT ?v WHERE {{ {S2} writes ?v }}",
        "records",
        False,
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [parse_record(line) for line in lines]
    kinds = {r["rec"] for r in records}
    assert "row" in kinds and "summary" in kinds and "alert" in kinds
    race_kinds = {r.get("kind") for r in records if r["rec"] == "alert"}
    assert {"race-static", "race-dynamic", "mutex-advice"} <= race_kinds


def test_count_flag(scenario_dir, capsys):
    rc = cmd_query(scenario_dir / "out", f"@bugs-affecting-function({S2})", "table", True)
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_freeform_query_resolves(scenario_dir, capsys):
    rc = cmd_query(
        scenario_dir / "out",
        "How many unsynchronised global variables are used to implement the UI Save button",
        "table",
        True,
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_day_first_date_for_an_entity_slot_is_reported_as_given(scenario_dir, capsys):
    text = "@bugs-affecting-function(12-03-2013)"
    assert cmd_query(scenario_dir / "out", text, "table", False) == 1
    assert capsys.readouterr().err == \
        "error: slot 'func' expects an entity id, got '12-03-2013'\n"


def test_day_first_date_is_rewritten_for_a_date_slot_alone(scenario_dir):
    ctx = _load_query_context(scenario_dir / "out")
    ctx.registry = TemplateRegistry()
    ctx.registry.add(Template(
        "dated", ["dated"], [("label", "string"), ("when", "date")],
        'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c AFTER "$when" FILTER ?b CONTAINS "$label"',
    ))
    for text in ("@dated(12-03-2013, 12-03-2013)", "@dated(when=12-03-2013, label=12-03-2013)"):
        _, resolution = _run_query_text(text, ctx)
        assert resolution["args"] == {"label": "12-03-2013", "when": "2013-03-12T00:00:00Z"}, text


def test_day_first_date_in_other_digits_is_not_rewritten(scenario_dir):
    ctx = _load_query_context(scenario_dir / "out")
    ctx.registry = TemplateRegistry()
    ctx.registry.add(Template("dated", ["dated"], [("when", "date")],
                              'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c AFTER "$when"'))
    value = "\u0661\u0662-\u0660\u0663-\u0662\u0660\u0661\u0663"
    with pytest.raises(SlotError, match=f"slot 'when' expects a date, got '{value}'"):
        _run_query_text(f"@dated({value})", ctx)


def test_syntax_error_exits_1(scenario_dir, capsys):
    rc = cmd_query(scenario_dir / "out", "SELECT ?x WHERE { broken", "table", False)
    assert rc == 1
    assert "offset" in capsys.readouterr().err


def test_no_match_lists_nearest_templates(scenario_dir, capsys):
    rc = cmd_query(scenario_dir / "out", "what is the meaning of life", "records", False)
    captured = capsys.readouterr()
    assert rc == 1
    doc = json.loads(captured.out.strip())
    assert doc["rec"] == "no-match"
    assert len(doc["suggestions"]) == 3


def test_positional_id_holding_an_equals_sign(scenario_dir, capsys):
    # a developer id may hold "=", and so reads as one positional argument
    rc = cmd_query(scenario_dir / "out", "@fixes-by-developer(dev:x=y@example.com)", "records", False)
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert parse_record(lines[0])["args"] == {"dev": "dev:x=y@example.com"}


def test_dmy_date_normalized_in_template_args(scenario_dir, capsys):
    rc = cmd_query(
        scenario_dir / "out",
        'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c AFTER "2013-03-12T00:00:00Z"',
        "table",
        True,
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def repl(scenario_dir, text):
    out = io.StringIO()
    rc = cmd_repl(scenario_dir / "out", stdin=io.StringIO(text), stdout=out)
    return rc, out.getvalue()


def test_a_related_listing_is_one_write_of_its_lines(scenario_dir, scenario_graph):
    sub = scenario_graph.neighborhood(S2, 1)
    out = CountingWriter()
    assert cmd_repl(scenario_dir / "out", stdin=io.StringIO(f":related {S2} 1\n:quit\n"),
                    stdout=out) == 0
    assert out.writes == 1
    assert out.getvalue() == "".join(
        [*(f"{eid}  [{sub.entities[eid].kind}]\n" for eid in sorted(sub.entities)),
         *(f"  {s} {p} {o}\n" for s, p, o in sub.triples())])


def test_repl_quit(scenario_dir):
    rc, _ = repl(scenario_dir, ":quit\n")
    assert rc == 0


def test_repl_templates_listing(scenario_dir):
    _, out = repl(scenario_dir, ":templates\n:quit\n")
    assert "@bugs-affecting-function(func:entity)" in out
    assert "@algo-of-function(func:entity)" in out


def test_repl_related_neighborhood(scenario_dir):
    _, out = repl(scenario_dir, f":related {S2} 1\n:quit\n")
    assert "file:src/VHDLPosedge.cc" in out
    assert "var:src/VHDLPosedge.cc#var1" in out
    assert "bug:CQ/67" in out and "bug:CQ/22" in out
    assert "commit:c0ffee11deadbeef" in out


def test_repl_related_reads_its_radius_as_a_query_reads_a_count(scenario_dir):
    lines = [f":related {S2} {radius}" for radius in ("0_1", "+1", "\u0663", "-1")]
    _, out = repl(scenario_dir, "\n".join(lines) + "\n:quit\n")
    assert out.splitlines() == [
        "error: radius must be an integer, got '0_1'",
        "error: radius must be an integer, got '+1'",
        "error: radius must be an integer, got '\u0663'",
        "error: radius must be >= 0, got -1",
    ]


def test_repl_survives_errors_and_continues(scenario_dir):
    _, out = repl(scenario_dir, "SELECT ?x WHERE { nope\n:related\n:wat\n:quit\n")
    assert "error:" in out
    assert "usage: :related" in out
    assert "unknown command" in out


def test_repl_fuzz_never_crashes(scenario_dir):
    rng = random.Random(5)
    lines = []
    for _ in range(60):
        n = rng.randint(0, 30)
        lines.append("".join(chr(rng.randint(32, 126)) for _ in range(n)))
    rc, _ = repl(scenario_dir, "\n".join(lines) + "\n:quit\n")
    assert rc == 0


def test_repl_verbose_loads_graph_exactly_once(scenario_dir):
    out = io.StringIO()
    queries = f"SELECT ?v WHERE {{ {S2} writes ?v }}\n" * 3 + ":quit\n"
    rc = cmd_repl(scenario_dir / "out", stdin=io.StringIO(queries), stdout=out,
                  verbose=True)
    assert rc == 0
    assert out.getvalue().count("graph loaded:") == 1


# one query of each kind, each with alerts in its answer
QUERY_KINDS = [
    f"SELECT ?v WHERE {{ {S2} writes ?v }}",
    f"@bugs-affecting-function({S2})",
    "How many unsynchronised global variables are used to implement the UI Save button",
]


def test_repl_repeats_each_answer_and_matches_cold_query(scenario_dir, capsys):
    cold = []
    for text in QUERY_KINDS:
        assert main(["query", "--graph", str(scenario_dir / "out"), text]) == 0
        cold.append(capsys.readouterr().out)
    assert all("! [" in answer for answer in cold)
    _, out = repl(scenario_dir, "".join(f"{text}\n{text}\n" for text in QUERY_KINDS) + ":quit\n")
    assert out == "".join(answer * 2 for answer in cold)


# cell text: empty, a %, blanks and other whitespace that rstrip takes at a
# line's end, letters outside the basic plane and a combining mark
_CELL = (st.lists(st.sampled_from(["", "%", "%s", " ", "\t", "\u3000", "\x85", "a", "Σ",
                                   "\U00010400", "e\u0301"]), max_size=4).map("".join)
         | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))


@st.composite
def answers(draw):
    """A result of one to four columns, their names repeated at times, with
    a resolution line and an alert or not."""
    columns = tuple(draw(st.lists(st.sampled_from(["a", "b", "%", "x_long_name", "Σ"]),
                                  min_size=1, max_size=4)))
    rows = draw(st.lists(st.tuples(*[_CELL] * len(columns)), max_size=6))
    alerts = draw(st.sampled_from([[], [SmartAlert("warning", "x", ["e"], "m %s ", 0.0)]]))
    resolution = draw(st.sampled_from([None, {"template": "t", "args": {"s": "1 %", "d": ""}}]))
    return ResultSet(columns, rows, alerts), resolution


@settings(max_examples=300, deadline=None)
@given(answers())
def test_format_table_gives_the_lines_of_the_per_cell_padding(answer):
    result, resolution = answer
    assert format_table(result, resolution) == reference_format_table(result, resolution)


# what only `ckt build` needs
BUILD_MODULES = ["ckt.build", "ckt.concepts", "ckt.extraction.comments",
                 "ckt.extraction.cparser", "ckt.extraction.facts", "ckt.history"]


@pytest.mark.parametrize("argv, stdin", [
    *((["query", text], "") for text in QUERY_KINDS),
    (["repl"], "".join(f"{text}\n" for text in QUERY_KINDS) + ":quit\n"),
], ids=["query-select", "query-template", "query-freeform", "repl"])
def test_query_side_leaves_build_modules_unimported(scenario_dir, argv, stdin):
    script = (
        "import json, sys\n"
        "from ckt.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(json.dumps([m for m in {BUILD_MODULES!r} if m in sys.modules]), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [argv[0], "--graph", str(scenario_dir / "out"), *argv[1:]]
    proc = subprocess.run([sys.executable, "-c", script, *argv], input=stdin, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "! [" in proc.stdout
    assert json.loads(proc.stderr) == []


@pytest.mark.parametrize("text", QUERY_KINDS, ids=["select", "template", "freeform"])
def test_cold_query_imports_neither_dataclasses_nor_inspect(scenario_dir, text):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ckt", "query", "--graph",
         str(scenario_dir / "out"), text],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "! [" in proc.stdout
    # -X importtime writes one line per module imported, its name last
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "ckt.graph" in imported
    assert not imported & {"dataclasses", "inspect"}


def test_build_imports_no_dataclasses_inspect_or_their_imports(tmp_path):
    """`ckt build` keeps its records on ckt.model.Record as well, so it
    imports neither `dataclasses` nor what `inspect` would bring along."""
    work = tmp_path / "project"
    shutil.copytree(SCENARIO, work, ignore=shutil.ignore_patterns("out"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ckt", "build", "--manifest",
         str(work / "manifest.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"ckt.build", "ckt.history", "ckt.extraction.cparser"} <= imported
    assert not imported & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_readers_during_rebuilds_load_one_build_or_exit_2(tmp_path):
    """Builds of two projects alternate into one graph directory while
    reader threads load it: each load is one build's graph or a torn
    read's FormatError (a query exits 2 on it), never a mix of the two.
    Any other exception in a reader fails the test."""
    shared = tmp_path / "shared"
    manifests = []
    for name, edit in (("a", ""), ("b", "    timeout_secs = 0;\n")):
        work = tmp_path / name
        shutil.copytree(SCENARIO, work, ignore=shutil.ignore_patterns("out"))
        source = work / "src" / "ftpety.c"  # b's ui_save also writes timeout_secs
        source.write_text(source.read_text(encoding="utf-8").replace(
            "    transfer_mode = 'w';\n", "    transfer_mode = 'w';\n" + edit), encoding="utf-8")
        doc = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        doc["out"] = "../shared"
        (work / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        manifests.append(work / "manifest.json")
    builds = []
    for manifest in manifests:
        assert main(["build", "--manifest", str(manifest)]) == 0
        builds.append(load_graph(shared))
    assert not graphs_equal(*builds)
    assert builds[0].entities.keys() == builds[1].entities.keys()  # a mix could load

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    outcomes = {"a": 0, "b": 0, "torn": 0, "mixed": 0}
    errors: list[Exception] = []  # what ended a reader, other than a torn read
    done = threading.Event()

    def read():
        try:
            while not done.is_set():
                try:
                    graph = load_graph(shared)
                except FormatError:
                    outcomes["torn"] += 1
                    continue
                match = [n for n, built in zip("ab", builds) if graphs_equal(graph, built)]
                outcomes[match[0] if match else "mixed"] += 1
        except Exception as exc:  # raised below, in the test's own thread
            errors.append(exc)

    readers = [threading.Thread(target=read) for _ in range(2)]
    for reader in readers:
        reader.start()
    try:
        for i in range(6):
            subprocess.run([sys.executable, "-m", "ckt", "build", "--manifest",
                            str(manifests[i % 2])], env=env, check=True,
                           capture_output=True, timeout=120)
    finally:
        done.set()
        for reader in readers:
            reader.join(timeout=120)
    assert not any(reader.is_alive() for reader in readers)
    if errors:
        raise errors[0]
    assert outcomes["mixed"] == 0, outcomes
    assert outcomes["a"] and outcomes["b"], outcomes


def test_fixing_commit_found_by_object_lookup(scenario_graph):
    hits = list(scenario_graph.match(None, "fixes", "bug:CQ/22"))
    assert [s for s, _, _ in hits] == ["commit:c0ffee11deadbeef"]


def test_scenario_graph_round_trip_preserves_ranks(scenario_dir, scenario_graph, tmp_path):
    from ckt.graph import save_graph

    built, sources = builder_load_graph(scenario_dir / "out")
    save_graph(built, sources, tmp_path)
    assert round_trips(tmp_path, built, sources)
    assert load_graph(tmp_path).pagerank() == scenario_graph.pagerank()


def test_closed_world_after_build(scenario_dir, scenario_graph):
    from ckt.graph import LITERAL_PREDICATES

    built, sources = builder_load_graph(scenario_dir / "out")
    assert list(built.triples()) == list(scenario_graph.triples())
    for s, p, o in scenario_graph.triples():
        assert s in scenario_graph.entities, s
        if p not in LITERAL_PREDICATES:
            assert o in scenario_graph.entities, o
        assert sources[s, p, o], (s, p, o)


def test_export_triples_byte_identical(scenario_dir, capsys):
    rc = cmd_export(scenario_dir / "out", "triples")
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (scenario_dir / "out" / "triples.tsv").read_text(encoding="utf-8")


def test_export_stats_top_nodes(scenario_dir, capsys):
    rc = cmd_export(scenario_dir / "out", "stats")
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["nodes_by_kind"]["bug"] == 2
    assert stats["nodes_by_kind"]["commit"] == 3
    top = [eid for eid, _ in stats["top_pagerank"]]
    assert S2 in top


def test_export_of_a_changed_file_exits_2_naming_it_in_graph_json(scenario_dir, tmp_path,
                                                                   capsys):
    out = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", out)
    triples = out / "triples.tsv"
    triples.write_bytes(triples.read_bytes() + triples.read_bytes().split(b"\n")[0] + b"\n")
    assert main(["export", "--graph", str(out), "--what", "triples"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 9: graph.json: triples.tsv does not match")


@pytest.mark.parametrize("shape", ["graph-is-a-file", "file-is-a-directory"])
@pytest.mark.parametrize("command", ["query", "repl", "export"])
def test_a_graph_that_is_no_readable_directory_exits_2(scenario_dir, tmp_path, command, shape):
    """--graph naming a regular file, or a graph directory with a
    directory in place of the file the command reads first: exit 2 with
    one error line naming the path, as for any read of a graph file that
    fails other than by the file's absence."""
    out = tmp_path / "out"
    shutil.copytree(scenario_dir / "out", out)
    name = STATS_FILE if command == "export" else NODES_FILE
    graph = out / name if shape == "graph-is-a-file" else out
    if shape == "file-is-a-directory":
        (out / name).unlink()
        (out / name).mkdir()
    args = {"query": ["query", "--graph", str(graph), "SELECT ?f WHERE { ?f calls ?g }"],
            "repl": ["repl", "--graph", str(graph)],
            "export": ["export", "--graph", str(graph), "--what", "stats"]}[command]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ckt", *args], input=":quit\n",
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot read {out / name}")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_export_unknown_target(scenario_dir, capsys):
    assert cmd_export(scenario_dir / "out", "everything") == 2


def test_export_missing_dir(tmp_path, capsys):
    assert cmd_export(tmp_path / "nope", "triples") == 2


# -- the argument parser ----------------------------------------------------------

_USAGE = "usage: ckt [-h] {build,query,repl,export} ...\n"
_QUERY_USAGE = "usage: ckt query [-h] --graph GRAPH [--format {table,records}] [--count] text\n"
# (stdout, stderr, exit code) of each command line, as before the parser
# built only the subparser of the command it was given
PARSER_TEXTS = {
    "": ("", _USAGE + "ckt: error: the following arguments are required: command\n", 2),
    "--help": (_USAGE + """
Mine source, history, and traces into a queryable knowledge graph.

positional arguments:
  {build,query,repl,export}
    build               build a knowledge graph from a manifest
    query               run one query against a built graph
    repl                interactive query session
    export              emit the persisted triples or stats

options:
  -h, --help            show this help message and exit
""", "", 0),
    "frob": ("", _USAGE + "ckt: error: argument command: invalid choice: 'frob' "
             "(choose from 'build', 'query', 'repl', 'export')\n", 2),
    "query --help": (_QUERY_USAGE + """
positional arguments:
  text

options:
  -h, --help            show this help message and exit
  --graph GRAPH
  --format {table,records}
  --count
""", "", 0),
    "query": ("", _QUERY_USAGE
              + "ckt query: error: the following arguments are required: --graph, text\n", 2),
    "query --graph g --format bogus q": (
        "", _QUERY_USAGE + "ckt query: error: argument --format: invalid choice: 'bogus' "
        "(choose from 'table', 'records')\n", 2),
    "build": ("", "usage: ckt build [-h] --manifest MANIFEST\n"
              "ckt build: error: the following arguments are required: --manifest\n", 2),
    "repl --help": ("""usage: ckt repl [-h] --graph GRAPH [--verbose]

options:
  -h, --help     show this help message and exit
  --graph GRAPH
  --verbose
""", "", 0),
}


@pytest.mark.parametrize("line", list(PARSER_TEXTS), ids=lambda line: f"ckt {line}".strip())
def test_usage_help_and_errors_of_the_parser(line, monkeypatch, capsys):
    """Whether it builds one subparser or all four, the parser prints what
    it printed when it built all four, 80 columns wide."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(line.split())
    captured = capsys.readouterr()
    assert (captured.out, captured.err, exited.value.code) == PARSER_TEXTS[line]


@pytest.mark.parametrize("name", [NODES_FILE, "trace.jsonl"])
def test_a_query_after_an_in_place_edit_with_its_mtime_restored_exits_2(tmp_path, name):
    """A build, then two queries, through python -m ckt: the build writes the
    entry, so neither query adds one, and the first query writes the
    stamp.  One byte of a file overwritten in place, its size and mtime
    kept, as `touch -r` keeps it: the stamp's ctime differs, so the query
    hashes, and exits 2 naming the file."""
    work = tmp_path / "work"
    shutil.copytree(SCENARIO, work, ignore=shutil.ignore_patterns("out"))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "xdg"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def ckt(*args):
        return subprocess.run([sys.executable, "-m", "ckt", *args], capture_output=True,
                              text=True, env=env, timeout=120)

    cache = tmp_path / "xdg" / "ckt"
    assert ckt("build", "--manifest", str(work / "manifest.json")).returncode == 0
    entries = list(cache.glob("*.graph"))
    assert len(entries) == 1
    query = ("query", "--graph", str(work / "out"), f"SELECT ?v WHERE {{ {S2} writes ?v }}")
    answers = [ckt(*query) for _ in range(2)]
    assert [a.returncode for a in answers] == [0, 0] and answers[0].stdout == answers[1].stdout
    assert list(cache.glob("*.graph")) == entries and len(list(cache.glob("*.stamp"))) == 1
    path = work / "out" / name
    before = path.stat()
    with open(path, "r+b") as file:
        file.seek(2)
        byte = file.read(1)
        file.seek(2)
        file.write(b"Z" if byte != b"Z" else b"Y")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert_exit_2_naming(ckt(*query), name, None)
