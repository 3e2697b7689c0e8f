"""Comment extraction, association, and staleness validation."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_associate_comments

from ckt.concepts import validate_comment
from ckt.extraction.comments import associate_comments, extract_comments
from ckt.extraction.cparser import parse_source
from ckt.model import Comment, Entity, Span

FIXTURES = Path(__file__).parent / "fixtures"


def test_bug_token_survives_normalization():
    comments = extract_comments("// fix for bug#22", "a.c")
    assert len(comments) == 1
    assert comments[0].tokens == ["fix", "bug#22"]
    assert comments[0].style == "line"


def test_no_comments():
    assert extract_comments("int x;\n", "a.c") == []


def test_two_block_comments_with_spans():
    comments = extract_comments("/* a */ int x; /* b */", "a.c")
    assert len(comments) == 2
    assert [(c.span.start, c.span.end) for c in comments] == [(1, 1), (1, 1)]
    assert comments[0].attrs.get("trailing") is None
    assert comments[1].attrs.get("trailing") == "true"


def test_multiline_block_span():
    text = "int a;\n/* one\n   two\n   three */\nint b;\n"
    comments = extract_comments(text, "a.c")
    assert len(comments) == 1
    assert (comments[0].span.start, comments[0].span.end) == (2, 4)
    assert comments[0].text == "one two three"


def test_unterminated_block_flagged():
    comments = extract_comments("int x;\n/* runs off the end\nint y;", "a.c")
    assert len(comments) == 1
    assert comments[0].attrs["unterminated"] == "true"
    assert comments[0].span.end == 3


def test_line_comment_runs_merge():
    text = "// first\n// second\nint x;\n// standalone\n"
    comments = extract_comments(text, "a.c")
    assert len(comments) == 2
    assert (comments[0].span.start, comments[0].span.end) == (1, 2)
    assert comments[0].text == "first second"


def test_comment_markers_inside_strings_ignored():
    comments = extract_comments('char *u = "http://x"; // real\n', "a.c")
    assert len(comments) == 1
    assert comments[0].text == "real"


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
def test_tokens_always_lowercase_and_non_empty(body):
    text = "// " + body.replace("\n", " ").replace("\r", " ")
    for comment in extract_comments(text, "a.c"):
        for token in comment.tokens:
            assert token
            assert token == token.lower()


def associate(src: str, path: str = "a.c"):
    facts = parse_source(src, path)
    comments = extract_comments(src, path)
    pairs = associate_comments(comments, list(facts.entities.values()))
    return comments, dict(pairs)


def test_comment_before_function_binds_to_it():
    src = "int x;\nint y;\n// about f\nvoid f() {\n  x = 1;\n}\n"
    comments, assoc = associate(src)
    assert assoc[comments[0].id] == "func:a.c#f"


def test_license_header_in_entityless_file_falls_back_to_file():
    src = "// Copyright 2015\n// All rights reserved.\n"
    comments, assoc = associate(src)
    assert assoc[comments[0].id] == "file:a.c"


def test_trailing_comment_binds_to_declaration():
    src = "void f() {\n  int local = 1; // the accumulator\n}\n"
    comments, assoc = associate(src)
    assert assoc[comments[0].id] == "var:a.c#f.local"


def test_association_is_total_and_single_valued():
    src = (
        "// head\nint a; // one\n// two\nvoid f() {\n  a = 2; // three\n}\n"
        "// tail comment after everything\n"
    )
    comments, assoc = associate(src)
    assert len(assoc) == len(comments)
    assert set(assoc) == {c.id for c in comments}


# Spans on a few lines, so that they nest, share starts and lengths, and
# tie on both, broken by id; some entities have no span, and a file entity,
# which no comment binds to by its span, may be missing or repeated.
_LINE = st.integers(1, 6)
_ENTITY = st.builds(
    lambda kind, name, span: Entity(f"{kind[:4]}:a.c#{name}", kind, name,
                                    span and Span("a.c", span[0], span[0] + span[1])),
    st.sampled_from(["function", "variable", "type", "class", "file"]),
    st.sampled_from(["a", "b", "c", "d"]),
    st.none() | st.tuples(_LINE, st.integers(0, 3)),
)
_COMMENT = st.builds(
    lambda start, lines, trailing: Comment("c", Span("a.c", start, start + lines), "line",
                                           attrs={"trailing": "true"} if trailing else {}),
    _LINE, st.integers(0, 2), st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_COMMENT, max_size=6), st.lists(_ENTITY, max_size=8))
def test_association_equals_a_scan_of_every_entity(comments, entities):
    assert associate_comments(comments, entities) == reference_associate_comments(
        comments, entities)


def test_stale_comment_detects_missing_identifier():
    comments = extract_comments("// resets var2 to zero\nvoid f(){ var1 = 0; }", "a.c")
    assert validate_comment(comments[0], {"f", "var1"}) == ["var2"]


def test_plain_prose_comment_is_fresh():
    comments = extract_comments("// resets the counter to zero\nvoid f(){}", "a.c")
    assert validate_comment(comments[0], {"f"}) == []


def test_present_identifier_is_fresh():
    comments = extract_comments("// bumps var1\nvoid f(){ var1 = 0; }", "a.c")
    assert validate_comment(comments[0], {"f", "var1"}) == []


def test_never_reports_scope_members():
    comments = extract_comments("// touches alpha_beta and Gamma9\nvoid f(){}", "a.c")
    scope = {"alpha_beta", "Gamma9", "f"}
    assert validate_comment(comments[0], scope) == []


def test_staleness_fixture_exact_verdicts():
    src = (FIXTURES / "staleness.c").read_text()
    facts = parse_source(src, "staleness.c")
    comments = extract_comments(src, "staleness.c")
    assoc = dict(associate_comments(comments, list(facts.entities.values())))

    def scope_of(entity_id):
        idents = set()
        entity = facts.entities.get(entity_id)
        if entity is not None:
            idents.add(entity.label)
        for rel in facts.relations:
            if rel.subj == entity_id and rel.pred in ("declares", "reads", "writes", "calls"):
                target = facts.entities.get(rel.obj)
                if target is not None:
                    idents.add(target.label)
        return idents

    verdicts = {}
    for comment in comments:
        entity_id = assoc[comment.id]
        missing = validate_comment(comment, scope_of(entity_id))
        verdicts[comment.text] = "stale" if missing else "fresh"
    stale = [t for t, v in verdicts.items() if v == "stale"]
    fresh = [t for t, v in verdicts.items() if v == "fresh"]
    assert len(stale) == 3 and len(fresh) == 5
    assert any("legacy_offset" in t for t in stale)
    assert any("bumpCounter" in t for t in stale)
    assert any("retry_budget" in t for t in stale)
