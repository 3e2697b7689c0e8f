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
from pathlib import Path

import pytest

from ckt.cli import _load_query_context, cmd_export, cmd_query, cmd_repl, main
from ckt.cli import cmd_build as cli_build
from ckt.errors import FormatError
from conftest import SCENARIO
from oracles import graphs_equal, parse_record

S2 = "func:src/VHDLPosedge.cc#VHDLPosedge_S2"
SRC = Path(__file__).resolve().parents[1] / "src"

# SHA-256 of every file `ckt build` writes for the scenario, recorded from
# the build before its lookups were indexed: a faster build must not change
# a byte of its output.
SCENARIO_DIGESTS = {
    "nodes.jsonl": "584b5436c5da5cf69146c3ebbdb63b25bec13b8ed2ff1d3447f4963735d088cf",
    "ranks.tsv": "c708ec579aac348665c5f60b3ac77663a788c625849e97b30a93c10ba6b0e421",
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


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    shutil.copytree(SCENARIO, tmp_path / "p")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before ckt writes a byte
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ckt", "build", "--manifest", str(tmp_path / "p" / "manifest.json")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
    assert (tmp_path / "p" / "out" / "nodes.jsonl").exists()


def test_build_missing_bugs_path_exits_2(tmp_path, capsys):
    shutil.copytree(SCENARIO, tmp_path / "p")
    manifest = tmp_path / "p" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["bugs"] = "no-such-file.jsonl"
    manifest.write_text(json.dumps(doc))
    assert main(["build", "--manifest", str(manifest)]) == 2
    assert "no-such-file.jsonl" in capsys.readouterr().err


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


def test_failed_build_removes_partial_outputs(tmp_path, capsys):
    shutil.copytree(SCENARIO, tmp_path / "p")
    (tmp_path / "p" / "templates.jsonl").write_text("not json at all\n")
    assert main(["build", "--manifest", str(tmp_path / "p" / "manifest.json")]) == 2
    out = tmp_path / "p" / "out"
    leftovers = [p.name for p in out.iterdir()] if out.exists() else []
    assert leftovers == []


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
], ids=["extra-positional", "entity-not-one-word"])
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


def test_fixing_commit_found_by_object_lookup(scenario_graph):
    hits = list(scenario_graph.match(None, "fixes", "bug:CQ/22"))
    assert [s for s, _, _ in hits] == ["commit:c0ffee11deadbeef"]


def test_scenario_graph_round_trip_preserves_ranks(scenario_graph, tmp_path):
    from ckt.graph import load_graph, save_graph

    save_graph(scenario_graph, tmp_path)
    again = load_graph(tmp_path)
    assert graphs_equal(again, scenario_graph)
    assert again.pagerank() == scenario_graph.pagerank()


def test_closed_world_after_build(scenario_graph):
    from ckt.graph import LITERAL_PREDICATES

    for s, p, o in scenario_graph.triples():
        assert s in scenario_graph.entities, s
        if p not in LITERAL_PREDICATES:
            assert o in scenario_graph.entities, o
        assert scenario_graph.provenance[s, p, o], (s, p, o)


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


def test_export_unknown_target(scenario_dir, capsys):
    assert cmd_export(scenario_dir / "out", "everything") == 2


def test_export_missing_dir(tmp_path, capsys):
    assert cmd_export(tmp_path / "nope", "triples") == 2
