"""The line-delimited record loaders under mutation: every mutated input
either loads or raises a CktError that names a line; no other exception
escapes."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckt.config import load_ontology
from ckt.errors import CktError, FormatError
from ckt.extraction.cparser import parse_source
from ckt.extraction.facts import load_facts
from ckt.extraction.traces import load_trace
from ckt.history import load_bugs, load_commits
from ckt.query.templates import load_registry
from ckt.textio import json_records
from conftest import SCENARIO
from oracles import dumps_facts


def _from_path(loader, name):
    """Run a loader that reads a file path on lines written to a temp file."""
    def load(lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
            return loader(str(path))
    return load


FACTS = dumps_facts(parse_source(
    "int g;\nvoid w(void){ g = 1; }\nvoid f(int p){ w(); pthread_create(0, 0, w, 0); }\n",
    "m.c",
)).splitlines()

# name -> (loader of a list of lines, a valid input)
LOADERS = {
    "facts": (lambda lines: load_facts(lines, "facts.jsonl"), FACTS),
    "commits": (lambda lines: load_commits(lines, "commits.jsonl"), "commits.jsonl"),
    "bugs": (lambda lines: load_bugs(lines, "bugs.jsonl"), "bugs.jsonl"),
    "trace": (lambda lines: load_trace(lines, "trace.jsonl"), "trace.jsonl"),
    "templates": (_from_path(load_registry, "templates.jsonl"), "templates.jsonl"),
    "ontology": (_from_path(load_ontology, "ontology.jsonl"), "ontology.jsonl"),
}


def valid_lines(name: str) -> list[str]:
    doc = LOADERS[name][1]
    if isinstance(doc, list):
        return list(doc)
    return (SCENARIO / doc).read_text(encoding="utf-8").splitlines()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6,
)
MUTATIONS = ["truncate", "retype", "non-object", "drop-field", "duplicate"]


def mutate(lines: list[str], draw) -> None:
    """Apply one mutation to one record, in place."""
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(MUTATIONS))
    if how == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
        return
    if how == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
        return
    try:
        doc = json.loads(lines[i])
    except ValueError:  # an earlier mutation broke the line
        doc = None
    if how == "non-object" or not isinstance(doc, dict) or not doc:
        lines[i] = json.dumps(draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict))))
        return
    key = draw(st.sampled_from(sorted(doc)))
    if how == "drop-field":
        del doc[key]
    else:
        old = type(doc[key])
        doc[key] = draw(JSON_VALUES.filter(lambda v: type(v) is not old))
    lines[i] = json.dumps(doc)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_valid_inputs_load(name):
    LOADERS[name][0](valid_lines(name))


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_records_load_or_name_a_line(name, data):
    lines = valid_lines(name)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(lines, data.draw)
    try:
        LOADERS[name][0](lines)
    except CktError as exc:
        assert re.search(r"\bline \d+", str(exc)), repr(exc)


def test_duplicate_template_name_names_its_line():
    lines = valid_lines("templates")
    with pytest.raises(FormatError) as exc:
        LOADERS["templates"][0]([*lines, lines[0]])
    assert exc.value.line == len(lines) + 1


def test_records_skip_blank_lines_and_check_the_header():
    header = '{"rec":"header","version":1}'
    assert list(json_records(["", header, "  ", '{"a":1}'], "x", header=True)) == [(4, {"a": 1})]
    for lines, message in ([], "missing header"), (['{"rec":"header","version":2}'], "version"):
        with pytest.raises(FormatError, match=message):
            list(json_records(lines, "x", header=True))


def test_only_a_bad_line_after_the_header_is_a_warning():
    header = '{"rec":"header","version":1}'
    warnings = []
    records = json_records([header, "{", '{"a":1}'], "x", header=True, warnings=warnings)
    assert list(records) == [(3, {"a": 1})]
    assert warnings == ["x line 2: invalid JSON, record skipped"]
    with pytest.raises(FormatError, match="line 1: x: invalid JSON"):
        list(json_records(["{", header], "x", header=True, warnings=[]))
    with pytest.raises(FormatError, match="line 2: x: record is not a JSON object"):
        list(json_records([header, "[1]"], "x", header=True, warnings=[]))


def test_a_record_nested_too_deep_is_invalid_json():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(FormatError, match="line 2: x: invalid JSON"):
        list(json_records(["{}", deep], "x"))
