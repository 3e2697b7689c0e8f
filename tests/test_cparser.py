"""Source extraction against the parser's documented grammar."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import dumps_facts, reference_parse_source, scan_comments, tokenize

from ckt.extraction.comments import _strip_gutter, extract_comments
from ckt.extraction.cparser import lex, parse_source

SCENARIO_SRC = """\
// header
unsigned long var1 = 0;

void VHDLPosedge_S2() {
    var1 = var1 + 1;
}
"""


def rel_keys(facts):
    return {(r.subj, r.pred, r.obj) for r in facts.relations}


def test_scenario_file_entities_and_relations():
    facts = parse_source(SCENARIO_SRC, "VHDLPosedge.cc")
    assert "file:VHDLPosedge.cc" in facts.entities
    assert "func:VHDLPosedge.cc#VHDLPosedge_S2" in facts.entities
    var = facts.entities["var:VHDLPosedge.cc#var1"]
    assert var.attrs["scope"] == "global"
    keys = rel_keys(facts)
    assert ("file:VHDLPosedge.cc", "declares", "func:VHDLPosedge.cc#VHDLPosedge_S2") in keys
    assert ("func:VHDLPosedge.cc#VHDLPosedge_S2", "writes", "var:VHDLPosedge.cc#var1") in keys


def test_empty_file_yields_empty_factset():
    facts = parse_source("", "empty.c")
    assert not facts.entities
    assert not facts.relations
    assert parse_source("   \n\n  ", "blank.c") == facts


def test_static_storage_write_and_external_call():
    facts = parse_source("static int s; void f(){ s=1; g(); }", "a.c")
    s = facts.entities["var:a.c#s"]
    assert s.attrs == {"scope": "global", "storage": "static"}
    g = facts.entities["func:a.c#g"]
    assert g.attrs == {"external": "true"}
    keys = rel_keys(facts)
    assert ("func:a.c#f", "writes", "var:a.c#s") in keys
    assert ("func:a.c#f", "calls", "func:a.c#g") in keys


def test_locals_params_and_types():
    src = "int add(int a, long b) { int total = a; total += b; return total; }"
    facts = parse_source(src, "m.c")
    assert facts.entities["var:m.c#add.a"].attrs["scope"] == "param"
    assert facts.entities["var:m.c#add.total"].attrs["scope"] == "local"
    keys = rel_keys(facts)
    assert ("var:m.c#add.total", "has-type", "int") in keys
    # compound assignment both reads and writes
    assert ("func:m.c#add", "writes", "var:m.c#add.total") in keys
    assert ("func:m.c#add", "reads", "var:m.c#add.total") in keys
    assert ("func:m.c#add", "reads", "var:m.c#add.b") in keys


def test_struct_declaration_and_instance():
    src = "struct Node { int value; struct Node *next; };\nstruct Node head;"
    facts = parse_source(src, "ds.c")
    node = facts.entities["type:ds.c#Node"]
    assert node.kind == "type"
    assert node.span.start == 1 and node.span.end == 1
    head = facts.entities["var:ds.c#head"]
    assert head.attrs["scope"] == "global"
    assert ("var:ds.c#head", "has-type", "struct Node") in rel_keys(facts)


def test_class_keyword_gets_class_kind():
    facts = parse_source("class Widget { int w; };", "w.cc")
    assert facts.entities["type:w.cc#Widget"].kind == "class"


def test_preprocessor_lines_counted_not_parsed():
    src = "#include <stdio.h>\n#define N \\\n 10\nint x;\n"
    facts = parse_source(src, "p.c")
    assert facts.entities["var:p.c#x"].span.start == 4


def test_thread_create_flags_target():
    src = "void worker(){}\nvoid boss(){ pthread_create(&t, 0, worker, 0); }"
    facts = parse_source(src, "t.c")
    flagged = [r for r in facts.relations if r.attrs.get("threading") == "create"]
    assert [(r.subj, r.obj) for r in flagged] == [("func:t.c#boss", "func:t.c#worker")]


def test_self_call_sites_stay_distinct():
    src = "int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); }"
    facts = parse_source(src, "f.c")
    self_calls = [
        r for r in facts.relations
        if r.pred == "calls" and r.subj == r.obj == "func:f.c#fib"
    ]
    assert len(self_calls) == 2


def test_increment_is_read_and_write():
    facts = parse_source("int n; void tick(){ n++; }", "i.c")
    keys = rel_keys(facts)
    assert ("func:i.c#tick", "reads", "var:i.c#n") in keys
    assert ("func:i.c#tick", "writes", "var:i.c#n") in keys


def test_subscripted_store_is_a_write():
    src = "char buf[8];\nint grid[2][2];\nvoid put(int n){ buf[0] = 'x'; grid[1][1] = n; }"
    facts = parse_source(src, "a.c")
    keys = rel_keys(facts)
    assert ("func:a.c#put", "writes", "var:a.c#buf") in keys
    assert ("func:a.c#put", "writes", "var:a.c#grid") in keys
    assert ("func:a.c#put", "reads", "var:a.c#put.n") in keys


def test_unparseable_region_skipped_not_fatal():
    src = "@@@ garbage ;;; void ok() { } $$$ trailing junk ("
    facts = parse_source(src, "g.c")
    assert "func:g.c#ok" in facts.entities
    # unbalanced braces cannot crash the parse either
    parse_source("garbage }{ void lost() { }", "g2.c")


def test_string_literals_do_not_hide_code():
    src = 'char *msg = "no // comment here"; int y;'
    facts = parse_source(src, "s.c")
    assert "var:s.c#y" in facts.entities
    assert "var:s.c#msg" in facts.entities


def test_determinism_byte_identical_serialization():
    src = SCENARIO_SRC + "\nstatic int extra; void h(){ extra = 2; }\n"
    first = dumps_facts(parse_source(src, "d.c"))
    second = dumps_facts(parse_source(src, "d.c"))
    assert first == second


def test_span_soundness():
    text = SCENARIO_SRC
    line_count = text.count("\n")
    facts = parse_source(text, "v.cc")
    for entity in facts.entities.values():
        if entity.span is not None:
            assert 1 <= entity.span.start <= entity.span.end <= line_count


def test_dump_writes_header_first():
    first = dumps_facts(parse_source("int q;", "q.c")).splitlines()[0]
    assert '"rec": "header"' in first and '"version": 1' in first


# -- the single lexer against the two scanners it replaced --------------------
#
# Well-formed input only: every literal closes on its own line and holds no
# backslash-newline, and a directive line holds no quote, `//` or `/*`.  On
# such text the old scanners agree with each other and with the C rules,
# except that both end a `//` comment at a backslash-newline, where C splices
# the next line into it; the property leaves those texts to the tests below.

_CODE_PIECES = [
    "int", "x", "n_2", "0x1F", "12", "3.5e-2", "7UL", ".5", ";", "=", "+=", "<<=", "...",
    "->", "::", "++", "(", ")", "{", "}", "[", "]", "*", "/", "\\", "x #", " ", "\t", "\r",
    "\"a b\"", "\"q\\\"r\"", "\"s//t\"", "\"u/*v\"", "'c'", "'\\''", "'\"'", "\"#\"",
    "/* c */", "/* m\n * n */", "/**/", "// note", "//", "\u00e9",
]
_DIRECTIVE_PIECES = [
    "define", "include", "if", "N", "10", "<a.h>", "(", ")", "*", ",", "#", " ", "\t", "\\\n ",
]
_code_line = st.lists(st.sampled_from(_CODE_PIECES), max_size=8).map("".join)
_directive_line = st.builds(
    lambda lead, words: f"{lead}#{''.join(words)}x",
    st.sampled_from(["", "  ", "/* c */ "]),
    st.lists(st.sampled_from(_DIRECTIVE_PIECES), max_size=6),
)
_c_like_text = st.builds(
    lambda lines, tail: "\n".join(lines) + tail,
    st.lists(st.one_of(_code_line, _directive_line), max_size=8),
    st.sampled_from(["", "\n", "\n/* open to the end\n", "// last"]),
)


@given(_c_like_text)
@settings(max_examples=400, deadline=None)
def test_lexer_equals_both_old_scanners(text):
    toks, comments = lex(text)
    assume(all(start == end for start, end, style, *_ in comments if style == "line"))
    assert [(t.kind, t.text, t.line) for t in toks] == [tuple(t) for t in tokenize(text)]
    cleaned = [
        (start, end, style, body.strip() if style == "line" else _strip_gutter(body), trailing, unterminated)
        for start, end, style, body, trailing, unterminated in comments
    ]
    assert cleaned == scan_comments(text)


def test_backslash_newline_in_literal_counts_its_line():
    facts = parse_source('char *s = "a\\\nb";\nint x;\n', "a.c")
    assert facts.entities["var:a.c#s"].span.start == 1
    assert facts.entities["var:a.c#x"].span.start == 3


def test_backslash_newline_continues_a_line_comment():
    src = "// note \\\nint x;\nint y; // a\\\n b\n// c\nint z;\n"
    facts = parse_source(src, "a.c")
    assert "var:a.c#x" not in facts.entities
    assert facts.entities["var:a.c#y"].span.start == 3
    assert facts.entities["var:a.c#z"].span.start == 6
    first, trailing, last = extract_comments(src, "a.c")
    assert (first.span.start, first.span.end, first.text) == (1, 2, "note int x;")
    assert (trailing.span.start, trailing.span.end, trailing.text) == (3, 4, "a b")
    assert trailing.attrs == {"trailing": "true"}
    assert (last.span.start, last.text) == (5, "c")


def test_two_backslashes_before_a_newline_still_splice():
    # the second backslash is the one right before the newline
    assert lex("// a \\\\\nint x;\n") == ([], [(1, 2, "line", " a \\int x;", False, False)])


def test_block_comment_opened_on_directive_line_is_not_code():
    src = "#define N 1 /* start\n still comment */\nint g;\n"
    facts = parse_source(src, "a.c")
    assert facts.entities["var:a.c#g"].span.start == 3
    assert not {"still", "comment"} & {e.label for e in facts.entities.values()}
    [comment] = extract_comments(src, "a.c")
    assert (comment.span.start, comment.span.end, comment.text) == (1, 2, "start still comment")
    assert comment.attrs == {"trailing": "true"}


def test_quote_on_directive_line_ends_with_the_line():
    src = "#error don't build\n// real note\nint x;\n"
    [comment] = extract_comments(src, "a.c")
    assert (comment.span.start, comment.text, comment.attrs) == (2, "real note", {})
    assert parse_source(src, "a.c").entities["var:a.c#x"].span.start == 3


# -- the parser against the one that wrote out each bracket walk ---------------


def in_order(facts):
    """Entities and relations in insertion order, with spans, attrs and
    origins: what FactSet equality leaves out as well."""
    return ([(e.id, e.kind, e.label, e.span, e.attrs) for e in facts.entities.values()],
            [(r.subj, r.pred, r.obj, r.origin, r.attrs) for r in facts.relations])


F = "func:a.c#f"


# bad input, each with the facts of f that the parser gives for it
@pytest.mark.parametrize("src, facts_of_f", [
    # the body runs to the end of the file; so does the `{` of the `if`
    ("int g;\nvoid f() {\n  g = 1;\n  if (g) { g++;\n",
     [(F, "writes", "var:a.c#g", 3, {}), (F, "reads", "var:a.c#g", 4, {}),
      (F, "reads", "var:a.c#g", 4, {}), (F, "writes", "var:a.c#g", 4, {})]),
    # the body without its `}` keeps the file's last token: `++` writes
    ("int g;\nvoid f() {\n  g++",
     [(F, "reads", "var:a.c#g", 3, {}), (F, "writes", "var:a.c#g", 3, {})]),
    # the `;` ends the statement inside the subscript: no write
    ("int a[4];\nint i;\nvoid f() {\n  a[i; ] = 1;\n}\n",
     [(F, "reads", "var:a.c#a", 4, {}), (F, "reads", "var:a.c#i", 4, {})]),
    # the unclosed call runs to the end of the statement, its last token too
    ("void worker() {}\nvoid f() {\n  pthread_create(&t, 0, worker\n}\n",
     [(F, "calls", "func:a.c#pthread_create", 3, {}),
      (F, "calls", "func:a.c#worker", 3, {"threading": "create"})]),
    # the initializer after the first `=` is scanned as one expression
    ("int b;\nint c;\nvoid f() {\n  int a = b = c, d;\n}\n",
     [(F, "declares", "var:a.c#f.a", 4, {}), (F, "declares", "var:a.c#f.d", 4, {}),
      (F, "writes", "var:a.c#b", 4, {}), (F, "reads", "var:a.c#c", 4, {})]),
    # a storage word names no callee, in the initializer either
    ("int y;\nvoid f() {\n  static int x = static (y);\n}\n",
     [(F, "declares", "var:a.c#f.x", 3, {}), (F, "reads", "var:a.c#y", 3, {})]),
], ids=["unclosed-body", "unclosed-body-at-last-token", "semicolon-in-subscript",
        "unclosed-thread-call", "chained-initializer", "storage-word-in-initializer"])
def test_bad_input_keeps_its_facts(src, facts_of_f):
    facts = parse_source(src, "a.c")
    assert [r for r in in_order(facts)[1] if r[0] == F] == facts_of_f
    assert in_order(facts) == in_order(reference_parse_source(src, "a.c"))


def test_locals_of_bad_input_keep_their_storage():
    facts = parse_source("int y;\nvoid f() {\n  static int x = static (y);\n}\n", "a.c")
    assert facts.entities["var:a.c#f.x"].attrs == {"scope": "local", "storage": "static"}
    facts = parse_source("int g;\nvoid f() {\n  g = 1;\n  if (g) { g++;\n", "a.c")
    assert (facts.entities[F].span.start, facts.entities[F].span.end) == (2, 4)


# C-like token soup: most of it leaves some bracket open or closes one that
# was never opened
_SOUP = [
    "int", "char", "unsigned", "static", "extern", "const", "struct", "class", "enum",
    "typedef", "if", "for", "return", "sizeof", "x", "y", "f", "worker", "S",
    "pthread_create", "(", ")", "[", "]", "{", "}", ";", ",", "=", "+=", "++", "*", "&",
    "->", "0", "7", '"s"', "'c'", "\n", "void worker ( ) {", "int f ( int x ) {",
]


@given(st.lists(st.sampled_from(_SOUP), max_size=40).map(" ".join))
@settings(max_examples=400, deadline=None)
def test_parser_equals_the_reference_parser_on_token_soup(text):
    assert in_order(parse_source(text, "a.c")) == in_order(reference_parse_source(text, "a.c"))
