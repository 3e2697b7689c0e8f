"""The extraction entry of a manifest in the graph cache
(graphcache.Extractions): a build decodes what an earlier build of the
same manifest extracted from a file with the same path and bytes, and
parses every other file.  Whatever the cache holds, a build's out/ bytes,
stdout, stderr and exit code are those of a clean build in an empty
cache: after any sequence of edits to the files and the manifest's roots,
and with an entry that is damaged, swapped, a directory, of another
manifest, layout or interpreter, or in a cache directory that is not
private or cannot be written.  A decoded file is the fresh parse, list
by list and in order.  Each test keeps its caches in temporary
directories of its own, so a count of parses sees no entry of another
test."""

import io
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ckt import build as build_module
from ckt import graphcache
from ckt.cli import main
from ckt.extraction import comments, cparser
from conftest import SCENARIO
from test_query_inputs import mutate

# lines of the small projects: declarations, bodies that call, read and
# write, a thread start, comments of each kind, and one line that is not
# UTF-8
LINES = [
    "int g1;",
    "static int s = 2, t;",
    "struct S { int a; } inst;",
    "void f1(void) { g1 = 1; f2(); }",
    "void f2() { int x = g1; x++; s += x; }",
    "int f3(int p) { return p + g1; } // adds the global g1",
    "void t0() { pthread_create(&h, 0, f1, 0); }",
    "// resets g1 to zero",
    "// and reads s",
    "/* a block comment",
    " * over two lines */",
    "#define N 3 /* a directive's comment */",
    "void f1(void) { }",
    "",
    "\udcff int bad;",  # written with surrogateescape: the byte 0xff
]
NAMES = ["src/a.c", "src/b.c", "src/sub/c.h", "lib/d.c", "lib/e.cc"]
ROOTS = [["src", "lib"], ["lib", "src"], ["src"], ["src/../src", "lib", "src/a.c"]]
COMMITS = ('{"rec":"header","version":1,"source":"git"}\n'
           '{"id":"c0ffee00","author_name":"A","author_email":"a@example.com",'
           '"timestamp":"2020-01-01T00:00:00Z","summary":"edit a and d",'
           '"changes":[{"path":"src/a.c","added":[[1,9]],"removed":[]},'
           '{"path":"lib/d.c","added":[[2,4]],"removed":[]}]}\n')


def write_project(root: Path, files: dict[str, list[str]], roots: list[str]) -> Path:
    """Write `files` (name -> lines) under `root`, less any file that an
    earlier write left, with a commit log touching two of them, and a
    manifest whose sources are `roots`; its path."""
    for tree in ("src", "lib"):
        shutil.rmtree(root / tree, ignore_errors=True)
        (root / tree).mkdir(parents=True)
    for name, lines in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes("".join(f"{line}\n" for line in lines)
                                  .encode("utf-8", "surrogateescape"))
    (root / "commits.jsonl").write_text(COMMITS, encoding="utf-8")
    sources = ", ".join(f'{{"path": "{path}"}}' for path in roots)
    manifest = root / "manifest.json"
    manifest.write_text(f'{{"sources": [{sources}], "commits": "commits.jsonl", "out": "out"}}',
                        encoding="utf-8")
    return manifest


def build(manifest: Path, xdg: Path) -> tuple[int, str, str, dict[str, bytes]]:
    """(exit code, stdout, stderr, out/ file name -> bytes) of `ckt build`
    in process, with XDG_CACHE_HOME `xdg`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(xdg)}),
          redirect_stdout(stdout), redirect_stderr(stderr)):
        code = main(["build", "--manifest", str(manifest)])
    out = manifest.parent / "out"
    tree = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return code, stdout.getvalue(), stderr.getvalue(), tree


def clean_build(manifest: Path) -> tuple[int, str, str, dict[str, bytes]]:
    """build() in an empty private cache directory of its own."""
    with tempfile.TemporaryDirectory() as xdg:
        return build(manifest, Path(xdg))


@contextmanager
def counted_parses():
    """A spy on cparser.parse_source, which the build calls on a miss."""
    with mock.patch.object(cparser, "parse_source", wraps=cparser.parse_source) as spy:
        yield spy


def entry_of(cache: Path, manifest: Path) -> Path:
    """Where `cache` keeps the extraction entry of `manifest`."""
    return cache / graphcache._name(str(manifest.resolve()), ".facts")


def listed(fs) -> tuple:
    """Every list of a FactSet that FactSet.merge reads, in order, each
    record as its fields and the type of its span: entities, relations and
    the subject index.  The span path index is left out: merge adds a
    file's entities one by one, which makes the merged set's own."""
    def entity(e):
        return e.id, e.kind, e.label, type(e.span), e.span, list(e.attrs.items())

    def relation(r):
        return r.subj, r.pred, r.obj, r.origin, list(r.attrs.items())

    return ([entity(e) for e in fs.entities.values()], list(fs.entities),
            [relation(r) for r in fs.relations],
            [(subj, [relation(r) for r in rels]) for subj, rels in fs._by_subj.items()])


def assert_decodes_to_the_parse(text: str, rel: str) -> None:
    lexed = cparser.lex(text)
    facts = cparser.parse_source(text, rel, lexed=lexed)
    found = comments.extract_comments(text, rel, lexed=lexed)
    decoded, decoded_comments = build_module._decode(build_module._encode(facts, found))
    assert listed(decoded) == listed(facts)
    assert [(c.id, type(c.span), c._values()) for c in decoded_comments] \
        == [(c.id, type(c.span), c._values()) for c in found]
    for made, parsed in zip(decoded.entities.values(), facts.entities.values()):
        assert made.attrs is not parsed.attrs  # the decoded records share nothing with it


# -- a decoded file is its parse ---------------------------------------------------


@pytest.mark.parametrize("path", sorted(p for p in (SCENARIO / "src").iterdir()) + [
    Path(__file__).parent / "fixtures" / "staleness.c"], ids=lambda p: p.name)
def test_a_decoded_fixture_is_its_parse_list_by_list(path):
    assert_decodes_to_the_parse(path.read_text(encoding="utf-8"), f"src/{path.name}")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(LINES[:-1]) | st.text("{}()[];=+-*/ \n\tabfgxp#\"'\\", max_size=12),
                max_size=12))
def test_a_decoded_text_is_its_parse_list_by_list(lines):
    assert_decodes_to_the_parse("\n".join(lines), "./src\\x.c")


# -- any sequence of edits ---------------------------------------------------------


@st.composite
def edits(draw, files: dict[str, list[str]]):
    """One edit of `files`, in place; a new list of roots, or None."""
    kind = draw(st.sampled_from(["append", "change", "delete", "add", "remove", "rename",
                                 "roots"]))
    line = st.sampled_from(LINES)
    if kind == "roots":
        return draw(st.sampled_from(ROOTS))
    if kind == "add" or not files:
        files[draw(st.sampled_from(NAMES))] = draw(st.lists(line, max_size=6))
        return None
    name = draw(st.sampled_from(sorted(files)))
    lines = files[name]
    if kind == "append":
        lines.append(draw(line))
    elif kind == "remove":
        del files[name]
    elif kind == "rename":
        files[draw(st.sampled_from(NAMES))] = files.pop(name)
    elif lines:
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "change":
            lines[at] = draw(line)
        else:
            del lines[at]
    return None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_build_after_each_edit_equals_a_clean_build(data):
    """Edits to a small project, each followed by a build with one cache
    shared by the whole sequence: each build's out/ bytes, stdout, stderr
    and exit code are a clean build's, and each file of it decodes to its
    parse."""
    files = {"src/a.c": LINES[0:4] + LINES[7:9], "lib/d.c": LINES[4:7] + LINES[9:12]}
    roots = ROOTS[0]
    with tempfile.TemporaryDirectory() as tmp:
        root, shared = Path(tmp) / "p", Path(tmp) / "shared"
        manifest = write_project(root, files, roots)
        assert build(manifest, shared) == clean_build(manifest)
        for _ in range(data.draw(st.integers(1, 4))):
            roots = data.draw(edits(files)) or roots
            manifest = write_project(root, files, roots)
            assert build(manifest, shared) == clean_build(manifest)
        for name, lines in files.items():
            text = "".join(f"{line}\n" for line in lines)
            if "\udcff" not in text:
                assert_decodes_to_the_parse(text, name)


def test_a_warm_build_parses_nothing_and_an_edit_parses_the_file_alone(tmp_path):
    project = tmp_path / "p"
    shutil.copytree(SCENARIO, project, ignore=shutil.ignore_patterns("out"))
    manifest, xdg = project / "manifest.json", tmp_path / "xdg"
    with counted_parses() as spy:
        cold = build(manifest, xdg)
    assert cold[0] == 0 and spy.call_count == len(list((project / "src").iterdir())) == 2
    with counted_parses() as spy:
        assert build(manifest, xdg) == cold
    assert spy.call_count == 0
    with open(project / "src" / "ftpety.c", "a", encoding="utf-8") as fh:
        fh.write("// one more line\n")
    with counted_parses() as spy:
        warm = build(manifest, xdg)
    assert spy.call_count == 1 and warm == clean_build(manifest) != cold


def test_the_entry_is_written_only_when_a_key_changed(tmp_path):
    """A build that gets every key of the entry leaves it as it is, with
    no temporary file; one whose project lost a file writes it anew
    without that file's record, decoding the other."""
    manifest = write_project(tmp_path / "p", {"src/a.c": LINES[:3], "src/b.c": LINES[3:5]},
                             ROOTS[2])
    xdg = tmp_path / "xdg"
    assert build(manifest, xdg)[0] == 0
    entry = entry_of(xdg / "ckt", manifest)
    written = entry.stat()
    assert len(records(entry.read_bytes())) == 2
    assert build(manifest, xdg)[0] == 0
    assert entry.stat().st_ino == written.st_ino and entry.stat().st_mtime_ns == written.st_mtime_ns
    manifest = write_project(tmp_path / "p", {"src/a.c": LINES[:3]}, ROOTS[2])
    with counted_parses() as spy:
        warm = build(manifest, xdg)
    assert warm == clean_build(manifest)
    assert spy.call_count == 0 and len(records(entry.read_bytes())) == 1
    assert not list((xdg / "ckt").glob(".*.tmp"))


def test_a_file_that_is_not_utf8_is_never_stored(tmp_path):
    """It exits 2 naming the file and its line, each time, and a build that
    fails in its extraction stores nothing: the next parses the file
    before it again."""
    manifest = write_project(tmp_path / "p", {"src/a.c": LINES[:3], "src/b.c": LINES[-2:]},
                             ROOTS[2])
    failed = build(manifest, tmp_path / "xdg")
    assert failed[:3] == (2, "", "error: line 2: src/b.c is not UTF-8: invalid start byte\n")
    with counted_parses() as spy:
        assert build(manifest, tmp_path / "xdg") == failed == clean_build(manifest)
    assert spy.call_count == 2  # src/a.c by each build


# -- any build input, mutated ------------------------------------------------------


INPUTS = ["manifest.json", "src/ftpety.c", "src/VHDLPosedge.cc", "commits.jsonl", "bugs.jsonl",
          "trace.jsonl", "templates.jsonl", "ontology.jsonl", "weights.json", "entry"]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(INPUTS), st.data())
def test_a_build_of_a_mutated_input_is_a_clean_build_or_exits_2_with_one_line(target, data):
    """One byte or one line of one input of the scenario, or of the entry
    its build left, mutated: a build with that build's cache has the
    outcome of a clean build in an empty cache, which is a tree or exit 2
    with one `error:` line and the previous tree as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        project, shared = Path(tmp) / "p", Path(tmp) / "shared"
        shutil.copytree(SCENARIO, project, ignore=shutil.ignore_patterns("out"))
        manifest = project / "manifest.json"
        built = build(manifest, shared)
        path = entry_of(shared / "ckt", manifest) if target == "entry" else project / target
        path.write_bytes(mutated := mutate(data, path.read_bytes()))
        # a flipped byte of the manifest could make out/ a path outside the project
        assume(target != "manifest.json" or b'"out": "out"' in mutated)
        code, stdout, stderr, tree = outcome = build(manifest, shared)
        assert outcome == clean_build(manifest)
    if code != 0:
        assert code == 2 and stdout == "" and tree == built[3], stderr
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr


# -- a damaged, foreign or unusable entry ------------------------------------------


HEAD = 4 + 16 + 16  # a record's length, key and digest


def records(entry: bytes) -> list[tuple[int, int]]:
    """(start, end) of each record of an extraction entry's bytes."""
    spans, at = [], 0
    while at < len(entry):
        end = at + HEAD + int.from_bytes(entry[at:at + 4], "little")
        spans.append((at, end))
        at = end
    return spans


def flip(at):
    return lambda data: data[:at(data)] + bytes([data[at(data)] ^ 1]) + data[at(data) + 1:]


def swap(data: bytes, twins: bool) -> bytes:
    """The first two records each in the other's place, or the payloads of
    twin_a.c and twin_b.c, which are as long, each under the other's head."""
    spans = records(data)
    if not twins:
        (a0, a1), (b0, b1) = spans[:2]
    else:
        (a0, a1), (b0, b1) = [(start + HEAD, end) for start, end in spans
                              if end - start == spans[-1][1] - spans[-1][0]]
    return data[:a0] + data[b0:b1] + data[a1:b0] + data[a0:a1] + data[b1:]


@contextmanager
def written_as(name: str, value):
    """graphcache.VERSION, or the interpreter's cache tag, `value` in the
    block; no bytecode is written meanwhile."""
    with mock.patch.object(sys, "dont_write_bytecode", True):
        if name == "VERSION":
            with mock.patch.object(graphcache, "VERSION", value):
                yield
        else:
            with mock.patch.object(sys.implementation, "cache_tag", value):
                yield


DAMAGE = {
    "flip-length": flip(lambda data: records(data)[1][0]),
    "flip-key": flip(lambda data: records(data)[1][0] + 9),
    "flip-digest": flip(lambda data: records(data)[1][0] + 27),
    "flip-payload": flip(lambda data: len(data) - 5),
    "truncate": lambda data: data[:len(data) // 2],
    "truncate-head": lambda data: data[:10],
    "swap-records": lambda data: swap(data, False),
    "swap-payloads": lambda data: swap(data, True),
}


@pytest.fixture
def twins(tmp_path):
    """The scenario, with two files of one text whose records are as long:
    (manifest, xdg, cache, its entry, the build's outcome)."""
    project = tmp_path / "p"
    shutil.copytree(SCENARIO, project, ignore=shutil.ignore_patterns("out"))
    for name in ("twin_a.c", "twin_b.c"):
        (project / "src" / name).write_text("int twin;\nvoid f(void) { twin = 1; }\n",
                                            encoding="utf-8")
    manifest, xdg = project / "manifest.json", tmp_path / "xdg"
    outcome = build(manifest, xdg)
    assert outcome[0] == 0
    return manifest, xdg, xdg / "ckt", entry_of(xdg / "ckt", manifest), outcome


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_damaged_entry_builds_as_a_clean_build_and_then_parses_nothing(twins, damage):
    manifest, xdg, cache, entry, outcome = twins
    entry.write_bytes(DAMAGE[damage](entry.read_bytes()))
    assert build(manifest, xdg) == outcome == clean_build(manifest)
    assert not list(cache.glob(".*.tmp"))
    with counted_parses() as spy:
        assert build(manifest, xdg) == outcome
    assert spy.call_count == 0


@pytest.mark.parametrize("name, value", [("VERSION", graphcache.VERSION + 1),
                                         ("cache_tag", "cpython-0")])
def test_an_entry_of_another_layout_or_interpreter_misses_every_file(twins, name, value):
    """Its records, put under this build's name, are keyed by the other
    writer's identity, so no key of this build finds one."""
    manifest, xdg, cache, entry, outcome = twins
    entry.unlink()
    with written_as(name, value):
        foreign = entry_of(cache, manifest)
        assert build(manifest, xdg) == outcome and foreign.exists()
    foreign.rename(entry)
    with counted_parses() as spy:
        warm = build(manifest, xdg)
    assert warm == outcome == clean_build(manifest)
    assert spy.call_count == 4 and not list(cache.glob(".*.tmp"))


def test_the_entry_of_another_manifest_gives_a_clean_builds_outcome(twins, tmp_path):
    """A copy of the project elsewhere, with one file changed, built into
    the same cache: its entry, put under this manifest's name, hits the
    files whose path and bytes it holds, since what they give is the same,
    and misses the changed one."""
    manifest, xdg, cache, entry, outcome = twins
    other = tmp_path / "other"
    shutil.copytree(manifest.parent, other, ignore=shutil.ignore_patterns("out"))
    (other / "src" / "twin_b.c").write_text("int other;\n", encoding="utf-8")
    assert build(other / "manifest.json", xdg)[0] == 0
    shutil.copyfile(entry_of(cache, other / "manifest.json"), entry)
    with counted_parses() as spy:
        warm = build(manifest, xdg)
    assert warm == outcome == clean_build(manifest) and spy.call_count == 1


def test_an_entry_that_is_a_directory_is_a_miss_that_raises_nothing(twins):
    manifest, xdg, cache, entry, outcome = twins
    entry.unlink()
    entry.mkdir()
    with counted_parses() as spy:
        warm = build(manifest, xdg)
    assert warm == outcome == clean_build(manifest)
    assert spy.call_count == 4 and entry.is_dir() and not list(cache.glob(".*.tmp"))


def test_a_cache_directory_that_others_may_open_is_not_used(twins):
    manifest, xdg, cache, entry, outcome = twins
    written = entry.read_bytes()
    cache.chmod(0o750)
    try:
        with counted_parses() as spy:
            warm = build(manifest, xdg)
    finally:
        cache.chmod(0o700)
    assert warm == outcome == clean_build(manifest)
    assert spy.call_count == 4 and entry.read_bytes() == written


def test_a_cache_directory_that_cannot_be_written_changes_no_outcome(twins):
    """A damaged record, so the build writes the entry anew, in a read-only
    directory whose renames fail, as they would for a user other than
    root: the build raises nothing and leaves no temporary file."""
    manifest, xdg, cache, entry, outcome = twins
    entry.write_bytes(DAMAGE["flip-payload"](entry.read_bytes()))
    damaged = entry.read_bytes()
    replace = os.replace

    def denied_in_cache(source, target):
        if Path(target).parent == cache:
            raise PermissionError(13, "denied")
        replace(source, target)

    cache.chmod(0o500)
    try:
        with mock.patch.object(os, "replace", denied_in_cache):
            assert build(manifest, xdg) == outcome == clean_build(manifest)
    finally:
        cache.chmod(0o700)
    assert entry.read_bytes() == damaged and not list(cache.glob(".*.tmp"))


def test_extraction_entries_never_evict_a_graph_entry(twins):
    """More than KEEP extraction entries and as many temporary files of
    them, as writers killed mid-write leave, each newer than every graph
    entry: a write keeps the KEEP newest of each kind, a temporary file
    counted with the kind of the entry it was to be."""
    manifest, xdg, cache, entry, outcome = twins
    graphs = sorted(cache.glob("*.graph"))
    for i in range(graphcache.KEEP + 2):
        (cache / f"{i:032x}.facts").write_bytes(b"")
        (cache / f".{i:032x}.facts.{100 + i}-{i}.tmp").write_bytes(b"")
    entry.write_bytes(DAMAGE["flip-payload"](entry.read_bytes()))  # so the build writes it
    assert build(manifest, xdg) == outcome
    assert sorted(cache.glob("*.graph")) == graphs
    left = list(cache.glob("*.facts")) + list(cache.glob(".*.tmp"))
    assert len(left) == graphcache.KEEP and entry in left


def test_a_build_that_fails_after_its_extraction_keeps_what_it_extracted(tmp_path):
    """The entry is written when the extraction ends, so a build that then
    fails, here on its templates, has stored every file; the next build,
    with the templates mended, parses none and is a clean build."""
    project = tmp_path / "p"
    shutil.copytree(SCENARIO, project, ignore=shutil.ignore_patterns("out"))
    manifest, xdg = project / "manifest.json", tmp_path / "xdg"
    templates = project / "templates.jsonl"
    good = templates.read_bytes()
    templates.write_bytes(b"{\n")
    failed = build(manifest, xdg)
    assert failed[0] == 2 and failed[2].startswith("error: ") and failed == clean_build(manifest)
    templates.write_bytes(good)
    with counted_parses() as spy:
        warm = build(manifest, xdg)
    assert spy.call_count == 0 and warm == clean_build(manifest)


def test_without_the_extractors_source_there_is_no_cache(tmp_path, monkeypatch):
    """The records are keyed by the extractor's source; a build that cannot
    read one of its files neither reads nor writes an entry, and parses
    every file as a build without a cache does."""
    project = tmp_path / "p"
    shutil.copytree(SCENARIO, project, ignore=shutil.ignore_patterns("out"))
    manifest, xdg = project / "manifest.json", tmp_path / "xdg"
    outcome = build(manifest, xdg)
    monkeypatch.setattr(build_module, "_EXTRACTOR",
                        build_module._EXTRACTOR + [str(tmp_path / "missing.py")])
    with counted_parses() as spy:
        assert build(manifest, xdg) == outcome
    assert spy.call_count == 2 and len(list((xdg / "ckt").glob("*.facts"))) == 1
    assert not list((xdg / "ckt").glob(".*.tmp"))
