"""Every input a query load reads, mutated: one byte or one line of
graph.json, nodes.jsonl, triples.tsv, the trace copy or the templates
copy, or of the graph-cache entry or the stamp.  A query on a miss, and
again on what would be a hit, either answers as on the unmutated inputs
or exits 2 with one `error:` line, and never raises."""

import gc
import io
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ckt.cli import main
from ckt.graph import GRAPH_MANIFEST, NODES_FILE, TEMPLATES_COPY, TRACE_COPY, TRIPLES_FILE
from conftest import settle

QUERIES = ["SELECT ?v WHERE { func:src/VHDLPosedge.cc#VHDLPosedge_S2 writes ?v }",
           "@bugs-affecting-function(func:src/VHDLPosedge.cc#VHDLPosedge_S2)",
           "How many unsynchronised global variables are used to implement the UI Save button"]
FILES = [GRAPH_MANIFEST, NODES_FILE, TRIPLES_FILE, TRACE_COPY, TEMPLATES_COPY]
# lines put in place of a line: none, a truncated record, other JSON, a tab row, no UTF-8
LINES = [b"", b"{", b"null", b"{}", b"[]", b'{"seq": 1, "tid": "1"}', b"a\tb\tc\td",
         b"\xff\xfe", b"\r"]


def query(out: Path, text: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `ckt query` on `out`, in process,
    with what its load froze out of the collector's walks put back."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["query", "--graph", str(out), "--format", "records", text])
    finally:
        gc.unfreeze()
    return code, stdout.getvalue(), stderr.getvalue()


def mutate(data, blob: bytes) -> bytes:
    """`blob` with one byte changed, or one line dropped, repeated or
    replaced, as `data` draws.  What is drawn does not depend on the size
    of `blob`, since a stamp's size varies with the stat data it holds."""
    at = data.draw(st.integers(0, 1 << 20))
    if data.draw(st.booleans()) and blob:
        at %= len(blob)
        return blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1:]
    lines = blob.split(b"\n")
    at %= len(lines)
    how = data.draw(st.sampled_from(["drop", "repeat", "replace"]))
    if how == "drop":
        del lines[at]
    elif how == "repeat":
        lines.insert(at, lines[at])
    else:
        lines[at] = data.draw(st.sampled_from(LINES))
    return b"\n".join(lines)


_answers: dict[str, tuple[int, str, str]] = {}


def unmutated(scenario_dir: Path, text: str) -> tuple[int, str, str]:
    """The outcome of the query on the scenario's graph as built."""
    if text not in _answers:
        _answers[text] = query(scenario_dir / "out", text)
        assert _answers[text][0] == 0 and _answers[text][1]
    return _answers[text]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([*FILES, "entry", "stamp"]), st.sampled_from(QUERIES), st.data())
def test_a_query_on_a_mutated_input_answers_as_before_or_exits_2_with_one_line(
        scenario_dir, target, text, data):
    expected = unmutated(scenario_dir, text)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(Path(tmp, "xdg"))}):
        out = Path(tmp, "out")
        shutil.copytree(scenario_dir / "out", out)
        cache = Path(tmp, "xdg", "ckt")
        if target in FILES:
            path = out / target
        else:
            assert query(out, text) == expected  # a miss: it writes the entry
            if target == "stamp":
                settle(out)
                assert query(out, text) == expected  # a hit that hashes: it writes the stamp
            [path] = cache.glob(f"*.{'graph' if target == 'entry' else 'stamp'}")
        path.write_bytes(mutate(data, path.read_bytes()))
        outcomes = [query(out, text), query(out, text)]
    for code, stdout, stderr in outcomes:
        if code == 0:
            assert (code, stdout, stderr) == expected
        else:
            assert code == 2 and stdout == "", (target, stderr)
            assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    assert outcomes[0] == outcomes[1]
