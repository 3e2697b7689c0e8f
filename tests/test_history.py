"""Commit/bug export mining and cross-source linking."""

import json

import pytest

from ckt.errors import ConflictError, FormatError
from ckt.extraction.comments import associate_comments, extract_comments
from ckt.extraction.cparser import parse_source
from ckt.history import (
    link_bugs_code,
    link_bugs_commits,
    link_commit_entities,
    load_bugs,
    load_commits,
)
from ckt.model import Entity, FactSet, Span

COMMITS_HEADER = '{"rec":"header","version":1,"source":"git"}'
BUGS_HEADER = '{"rec":"header","version":1,"source":"clearquest"}'


def commit_line(cid, ts, summary, changes="[]"):
    return (
        f'{{"id":"{cid}","author_name":"A","author_email":"a@x","timestamp":"{ts}",'
        f'"summary":"{summary}","changes":{changes}}}'
    )


def bug_line(num, title, desc="", status="open", opened="2015-01-01T00:00:00Z",
             closed="null", assignee="a@x", errors="[]"):
    return (
        f'{{"id":"{num}","tracker":"CQ","title":"{title}","description":"{desc}",'
        f'"status":"{status}","opened":"{opened}","closed":{closed},'
        f'"assignee":"{assignee}","error_strings":{errors}}}'
    )


def test_commits_sorted_ascending():
    commits, warnings = load_commits([
        COMMITS_HEADER,
        commit_line("b", "2015-02-01T00:00:00Z", "second"),
        commit_line("a", "2015-01-01T00:00:00Z", "first"),
    ])
    assert [c.id for c in commits] == ["a", "b"]
    assert warnings == []


def test_empty_after_header():
    commits, warnings = load_commits([COMMITS_HEADER])
    assert commits == [] and warnings == []


def test_missing_header_is_fatal():
    with pytest.raises(FormatError, match="header"):
        load_commits([commit_line("a", "2015-01-01T00:00:00Z", "x")])


def test_malformed_record_warns_with_line_number():
    commits, warnings = load_commits([
        COMMITS_HEADER,
        '{"id":"ok","timestamp":"2015-01-01T00:00:00Z","summary":"fine"}',
        '{"id":"bad","timestamp":"not a date","summary":"nope"}',
    ])
    assert [c.id for c in commits] == ["ok"]
    assert len(warnings) == 1 and "line 3" in warnings[0]


@pytest.mark.parametrize("field, value, message", [
    ("id", 7, "'id' must be a string"),
    ("author_name", None, "'author_name' must be a string"),
    ("author_email", ["a@x"], "'author_email' must be a string"),
    ("timestamp", None, "'timestamp' must be a string"),
    ("summary", None, "'summary' must be a string"),
    ("changes", [{"path": 5}], "'path' must be a string"),
    ("changes", [{"path": "a.c", "added": [["1", 2]]}], "bad line range ['1', 2]"),
    ("changes", [{"path": "a.c", "removed": [[1.0, 2]]}], "bad line range [1.0, 2]"),
    ("changes", [{"path": "a.c", "added": [[True, 2]]}], "bad line range [True, 2]"),
    ("changes", [{"path": "a.c", "added": [[1, 2, 3]]}], "bad line range [1, 2, 3]"),
    ("changes", [{"path": "a.c", "added": "1-2"}], "line ranges must be a list"),
    ("changes", None, "'changes' must be a list"),
    ("changes", {"a": 1}, "'changes' must be a list"),
    ("changes", "a.c", "'changes' must be a list"),
    ("changes", ["a.c"], "each change must be an object"),
    ("changes", [{"path": "a.c"}, None], "each change must be an object"),
])
def test_a_commit_field_of_another_type_skips_the_record_naming_its_line(field, value, message):
    doc = json.loads(commit_line("bad", "2015-01-01T00:00:00Z", "x"))
    doc[field] = value
    commits, warnings = load_commits([
        COMMITS_HEADER, commit_line("ok", "2015-01-01T00:00:00Z", "fine"), json.dumps(doc),
    ], "commits.jsonl")
    assert [c.id for c in commits] == ["ok"]
    assert warnings == [f"line 3: commits.jsonl: {message}; record skipped"]


def test_absent_optional_commit_fields_keep_their_defaults():
    commits, warnings = load_commits([
        COMMITS_HEADER, '{"id":"c1","timestamp":"2015-01-01T00:00:00Z",'
        '"changes":[{"path":"a.c","added":null}]}'])
    assert warnings == []
    (commit,) = commits
    assert (commit.author_name, commit.author_email, commit.summary) == ("", "", "")
    assert (commit.changes[0].added, commit.changes[0].removed) == ([], [])


@pytest.mark.parametrize("closed", [None, '""', "null"], ids=["absent", "empty", "null"])
def test_a_bug_without_a_closed_date_is_open(closed):
    line = json.loads(bug_line("5", "t", closed="null"))
    if closed is None:
        del line["closed"]
    else:
        line["closed"] = json.loads(closed)
    (bug,) = load_bugs([BUGS_HEADER, json.dumps(line)])
    assert bug.closed is None


def test_bug_error_strings_and_mentions():
    bugs = load_bugs([
        BUGS_HEADER,
        bug_line("67", "processing error : unsigned 162_S1",
                 errors='["processing error : unsigned 162_S1"]'),
        bug_line("22", "datatype mismatch",
                 desc="part of change request CR123", status="fixed",
                 closed='"2015-07-12T00:00:00Z"'),
    ])
    assert bugs[0].error_strings == ["processing error : unsigned 162_S1"]
    assert bugs[1].mentions == ["CR123"]


@pytest.mark.parametrize("errors", ['"disk full"', '{"disk full": 1}', '[42]', 'null'])
def test_error_strings_that_are_no_list_of_strings_rejected(errors):
    """A string is not read as its characters, nor an object as its keys,
    nor a number as its text."""
    with pytest.raises(FormatError) as exc:
        load_bugs([BUGS_HEADER, bug_line("1", "t"), bug_line("2", "t", errors=errors)],
                  "bugs.jsonl")
    assert str(exc.value) == "line 3: bugs.jsonl: 'error_strings' must be a list of strings"


def test_closed_before_opened_rejected():
    with pytest.raises(FormatError, match="closed"):
        load_bugs([
            BUGS_HEADER,
            bug_line("1", "t", opened="2015-05-01T00:00:00Z",
                     closed='"2015-04-01T00:00:00Z"'),
        ])


def test_duplicate_bug_id_conflicts():
    with pytest.raises(ConflictError, match="CQ/7"):
        load_bugs([BUGS_HEADER, bug_line("7", "one"), bug_line("7", "two")])


def snapshot_facts():
    facts = FactSet()
    facts.add_entity(Entity("file:a.c", "file", "a.c", Span("a.c", 1, 30)))
    facts.add_entity(Entity("func:a.c#f", "function", "f", Span("a.c", 5, 20)))
    facts.add_entity(Entity("func:a.c#g", "function", "g", Span("a.c", 22, 28)))
    return facts


def test_commit_touches_function_by_interval():
    commits, _ = load_commits([
        COMMITS_HEADER,
        commit_line("c1", "2015-01-01T00:00:00Z", "edit f",
                    '[{"path":"a.c","added":[[10,12]],"removed":[]}]'),
    ])
    facts = snapshot_facts()
    triples = link_commit_entities(commits, facts)
    assert ("commit:c1", "touches", "file:a.c", "version-tracker") in triples
    func_touches = [(s, o, tag) for s, p, o, tag in triples if p == "touches" and o.startswith("func:")]
    assert func_touches == [("commit:c1", "func:a.c#f", "snapshot-approx")]

    # brute-force interval check over all (range, span) pairs
    for s, p, o, _ in triples:
        if p == "touches" and o.startswith("func:"):
            fn = facts.entities[o]
            assert any(
                r[0] <= fn.span.end and fn.span.start <= r[1]
                for ch in commits[0].changes
                for r in ch.added + ch.removed
            )


def test_touching_deleted_file_creates_missing_entity():
    commits, _ = load_commits([
        COMMITS_HEADER,
        commit_line("c2", "2015-01-01T00:00:00Z", "remove dead file",
                    '[{"path":"gone.c","added":[],"removed":[[1,5]]}]'),
    ])
    facts = snapshot_facts()
    triples = link_commit_entities(commits, facts)
    assert ("commit:c2", "touches", "file:gone.c", "version-tracker") in triples
    assert facts.entities["file:gone.c"].attrs["missing"] == "true"


def test_commit_with_no_changes_yields_only_authorship():
    commits, _ = load_commits([
        COMMITS_HEADER, commit_line("c3", "2015-01-01T00:00:00Z", "tag release"),
    ])
    triples = link_commit_entities(commits, snapshot_facts())
    assert triples == [("commit:c3", "authored-by", "dev:a@x", "version-tracker")]


def test_fixes_triple_for_known_bug():
    commits, _ = load_commits([
        COMMITS_HEADER, commit_line("c4", "2015-01-01T00:00:00Z", "fix bug#22: datatype"),
    ])
    bugs = load_bugs([BUGS_HEADER, bug_line("22", "datatype mismatch")])
    triples, warnings = link_bugs_commits(bugs, commits)
    assert ("commit:c4", "fixes", "bug:CQ/22", "version-tracker") in triples
    assert warnings == []


def test_no_pattern_hits_no_triples():
    commits, _ = load_commits([
        COMMITS_HEADER, commit_line("c5", "2015-01-01T00:00:00Z", "tidy whitespace"),
    ])
    triples, warnings = link_bugs_commits([], commits)
    assert triples == [] and warnings == []


def test_unresolved_bug_number_warns():
    commits, _ = load_commits([
        COMMITS_HEADER, commit_line("c6", "2015-01-01T00:00:00Z", "fix bug#999"),
    ])
    triples, warnings = link_bugs_commits([], commits)
    assert triples == []
    assert len(warnings) == 1 and "bug#999" in warnings[0]


def test_assignment_and_mention_triples():
    commits, _ = load_commits([
        COMMITS_HEADER,
        commit_line("feedc0ffee123456", "2015-01-01T00:00:00Z", "CR123: optimise"),
    ])
    bugs = load_bugs([
        BUGS_HEADER,
        bug_line("22", "datatype", desc="see CR123 and commit feedc0ffee123456"),
    ])
    triples, _ = link_bugs_commits(bugs, commits)
    assert ("bug:CQ/22", "mentions", "commit:feedc0ffee123456", "bug-tracker") in triples
    assert ("bug:CQ/22", "assigned-to", "dev:a@x", "bug-tracker") in triples


def test_linking_is_idempotent():
    commits, _ = load_commits([
        COMMITS_HEADER, commit_line("c7", "2015-01-01T00:00:00Z", "fix bug#5"),
    ])
    bugs = load_bugs([BUGS_HEADER, bug_line("5", "crash")])
    first, _ = link_bugs_commits(bugs, commits)
    second, _ = link_bugs_commits(bugs, commits)
    assert {t[:3] for t in first} == {t[:3] for t in second}


def test_error_string_grep_grounds_bug_on_function():
    src = (
        "// state 162_S1 handling\n"
        "void handler() {\n}\n"
    )
    facts = parse_source(src, "a.c")
    comments = extract_comments(src, "a.c")
    assoc = associate_comments(comments, list(facts.entities.values()))
    bugs = load_bugs([
        BUGS_HEADER,
        bug_line("67", "processing error : unsigned 162_S1"),
    ])
    triples = link_bugs_code(bugs, facts, dict(assoc), comments, [])
    assert ("bug:CQ/67", "touches", "func:a.c#handler", "derived") in triples


def test_mixed_case_name_in_a_bug_title_grounds_bug_on_function():
    """Bug grounding takes a word as code by concepts.identifier_like, as
    comment staleness does: an interior capital makes `parseConfig` code,
    though it has no underscore or digit."""
    src = (
        "// parseConfig reads the settings file\n"
        "void parseConfig() {\n}\n"
    )
    facts = parse_source(src, "a.c")
    comments = extract_comments(src, "a.c")
    assoc = associate_comments(comments, list(facts.entities.values()))
    bugs = load_bugs([BUGS_HEADER, bug_line("68", "crash in parseConfig on an empty file")])
    triples = link_bugs_code(bugs, facts, dict(assoc), comments, [])
    assert [t[:3] for t in triples] == [("bug:CQ/68", "touches", "func:a.c#parseConfig")]


def test_fix_commit_grounds_bug_transitively():
    existing = [
        ("commit:c8", "fixes", "bug:CQ/22", "version-tracker"),
        ("commit:c8", "touches", "func:a.c#f", "snapshot-approx"),
    ]
    bugs = load_bugs([BUGS_HEADER, bug_line("22", "plain title")])
    triples = link_bugs_code(bugs, snapshot_facts(), {}, [], existing)
    assert ("bug:CQ/22", "touches", "func:a.c#f", "derived") in triples
