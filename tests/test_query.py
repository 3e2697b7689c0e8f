"""Query grammar, conjunctive evaluation vs the nested-loop oracle,
templates and free-form routing."""

import json
import random
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckt.errors import FormatError, NotFoundError, QueryError, SlotError
from ckt.graph import SEARCH_SEPARATOR, GraphBuilder, Provenance
from ckt.model import Entity
from ckt.query.evaluate import _filtered, evaluate, rank_results
from ckt.query import templates
from ckt.query.parser import (
    IRI,
    VAR,
    FilterClause,
    PreparedQuery,
    QueryAST,
    Term,
    TriplePattern,
    format_query,
    is_word,
    parse_query,
)
from ckt.query.templates import (
    FreeformMatch,
    LabelSearch,
    NoMatch,
    Template,
    TemplateRegistry,
    builtin_registry,
    load_registry,
    match_freeform,
    normalize_date,
    run_template,
)
from oracles import (
    nested_loop_join,
    query_word,
    reference_contains_rows,
    reference_parse_query,
    reference_rank_results,
)

PROV = Provenance("source-code", "t:1")


def build(triples, entities=()):
    builder = GraphBuilder()
    for entity in entities:
        builder.add_entity(entity)
    for s, p, o in triples:
        builder.insert_triple(s, p, o, PROV)
    return builder.finalize()


# -- parsing -----------------------------------------------------------------


def test_parse_static_variables_query():
    ast = parse_query(
        'SELECT ?v WHERE { file:ftpety.c declares ?v ; ?v has-type ?t } '
        'FILTER ?v CONTAINS "static"'
    )
    assert ast.select == ("v",)
    assert len(ast.patterns) == 2
    assert ast.filters == (FilterClause("v", "CONTAINS", "static"),)


def test_unbound_select_rejected():
    with pytest.raises(QueryError, match="unbound"):
        parse_query("SELECT ?x WHERE { }")


def test_date_filter_query_parses():
    ast = parse_query(
        'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c AFTER "2013-03-12T00:00:00Z"'
    )
    assert ast.filters[0].op == "AFTER"


def test_unknown_predicate_named_in_error():
    with pytest.raises(QueryError, match="frobnicates"):
        parse_query("SELECT ?x WHERE { ?x frobnicates ?y }")


def test_syntax_error_carries_offset():
    with pytest.raises(QueryError) as exc:
        parse_query("SELECT ?x FROM { ?x calls ?y }")
    assert exc.value.offset is not None


@pytest.mark.parametrize("text, message, offset", [
    ('SELECT ?x WHERE { ?x has-type "int }', "unterminated string literal", 30),
    ("SELECT ? WHERE { ?x calls ?y }", "'?' must be followed by a variable name", 7),
    ("SELECT ?x WHERE { ?x calls", "expected a object term, found end of query", 26),
    ("FIND ?x WHERE { ?x calls ?y }", "query must start with SELECT", 0),
    ("SELECT WHERE { ?x calls ?y }", "SELECT needs at least one variable", 7),
    ("SELECT ?x FROM { ?x calls ?y }", "expected WHERE", 10),
    ("SELECT ?x WHERE ?x calls ?y }", "expected '{' after WHERE", 16),
    ('SELECT ?x WHERE "{" ?x calls ?y }', "expected '{' after WHERE", 16),
    ("SELECT ?x WHERE { ?x calls ?y } LIMIT x", "LIMIT needs an integer", 38),
    ("SELECT ?x WHERE { ?x calls ?y } LIMIT -1", "LIMIT must be >= 0", 38),
    ('SELECT ?x WHERE { ?x calls ?y } LIMIT "5"', "LIMIT needs an integer", 38),
    ("SELECT ?x WHERE { ?x calls ?y } LIMIT 1_0", "LIMIT needs an integer", 38),
    ("SELECT ?x WHERE { ?x calls ?y } LIMIT +3", "LIMIT needs an integer", 38),
    ("SELECT ?x WHERE { ?x calls ?y } LIMIT \u0663", "LIMIT needs an integer", 38),
    ("SELECT ?x WHERE { ?x calls ?y } ORDER ?x", "unexpected token 'ORDER'", 32),
    ("SELECT ?x WHERE { ?x calls ?y", "expected '}'", 29),
    ('SELECT ?x WHERE { "f" calls ?x }', "literal not allowed in subject position", 18),
    ("SELECT ?x WHERE { ?x frobnicates ?y }", "unknown predicate 'frobnicates'", 21),
    ("SELECT ?x WHERE { ?x ; ?y }", "unexpected token ';' in predicate position", 21),
    ('SELECT ?x WHERE { ?x calls ?y } FILTER x = "a"', "FILTER needs a ?variable", 39),
    ('SELECT ?x WHERE { ?x calls ?y } FILTER ?x LIKE "a"', "unknown filter operator 'LIKE'", 42),
    ("SELECT ?x WHERE { ?x calls ?y } FILTER ?x = ?y", "filter literal may not be a variable", 44),
    ('SELECT ?x WHERE { ?x calls ?y } FILTER ?x "=" "a"', "filter operator must be a bare word", 42),
    ("SELECT ?x WHERE { ?x calls ?y } FILTER ?x = ; LIMIT 5",
     "filter literal must be a word or a quoted string", 44),
    ("SELECT ?z WHERE { ?x calls ?y }",
     "selected variable ?z is unbound (appears in no pattern)", None),
    ('SELECT ?x WHERE { ?x calls ?y } FILTER ?z = "a"',
     "filtered variable ?z is unbound (appears in no pattern)", None),
])
def test_each_syntax_error_pins_its_message_and_offset(text, message, offset):
    with pytest.raises(QueryError) as exc:
        parse_query(text)
    assert exc.value.offset == offset
    assert str(exc.value) == (message if offset is None else f"{message} (at offset {offset})")


def test_keywords_case_insensitive():
    ast = parse_query("select ?x where { ?x calls ?y } limit 3")
    assert ast.limit == 3


def test_string_escapes():
    ast = parse_query('SELECT ?v WHERE { ?v has-type "unsigned \\"int\\"" }')
    assert ast.patterns[0].o.value == 'unsigned "int"'


@st.composite
def asts(draw):
    names = ["a", "b", "c", "d"]
    n_patterns = draw(st.integers(1, 4))
    patterns = []
    used_vars = set()
    for _ in range(n_patterns):
        def term(position):
            kind = draw(st.sampled_from(["var", "id", "id"]))
            if kind == "var":
                name = draw(st.sampled_from(names))
                used_vars.add(name)
                return Term("var", name)
            if position == "p":
                return Term("id", draw(st.sampled_from(["calls", "reads", "fixes"])))
            if position == "o" and draw(st.booleans()):
                return Term("literal", draw(st.sampled_from(["int", 'we"ird', "a b"])))
            return Term("id", draw(st.sampled_from(["func:a#f", "var:a#x", "bug:t/1"])))

        patterns.append(TriplePattern(term("s"), term("p"), term("o")))
    if not used_vars:
        var = draw(st.sampled_from(names))
        patterns.append(TriplePattern(Term("var", var), Term("id", "calls"), Term("id", "func:a#f")))
        used_vars.add(var)
    select = tuple(sorted(draw(st.sets(st.sampled_from(sorted(used_vars)), min_size=1))))
    filters = tuple(
        FilterClause(
            draw(st.sampled_from(sorted(used_vars))),
            draw(st.sampled_from(["=", "!=", "<", "CONTAINS", "AFTER"])),
            draw(st.sampled_from(["x", "5", "2015-01-01T00:00:00Z", 'q"uote'])),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    limit = draw(st.one_of(st.none(), st.integers(0, 9)))
    return QueryAST(select, tuple(patterns), filters, limit)


@settings(max_examples=100, deadline=None)
@given(asts())
def test_parse_print_parse_fixpoint(ast):
    assert parse_query(format_query(ast)) == ast


# pieces of query text, well formed or not, and values for its slots
QUERY_PIECES = [
    "SELECT", "select", "WHERE", "where", "FILTER", "LIMIT", "limit", "{", "}", ";",
    "?x", "?y", "?", "?_1", "?é", "?x?y", '"lit"', '"a b"', '"', '"q\\"x"', '"\\n\\t\\\\"',
    "\\", '"\\', "calls", "writes", "has-type", "frobnicates", "func:a#f", "$s", "$func",
    "$s$s", "x$sy", '"$s"', "3", "-1", "0", "x", "=", "!=", "contains", "AFTER", "<=", "ß",
    "\u00a0", "\x1c", "\u2003",
]
SEPARATORS = [" ", "", "\t", "\n", "\u3000"]
SLOT_VALUES = ["", "{", "}", ";", '"', "a b", "?x", "$s", "SELECT", "calls", "5", "func:a#f"]


@st.composite
def query_texts(draw):
    shape = draw(st.sampled_from(["grammar", "pieces", "mutated", "chars"]))
    if shape == "grammar":  # the grammar's shape, now and then a wrong piece in a place

        def piece(*right):
            wrong = draw(st.integers(0, 7)) == 0
            return draw(st.sampled_from(QUERY_PIECES if wrong else right))

        parts = [piece("SELECT", "select"), piece("?x", "?y"), piece("WHERE"), piece("{")]
        for _ in range(draw(st.integers(0, 3))):
            parts += [piece("?x", "func:a#f", "$func"), piece("calls", "?p", "has-type"),
                      piece("?y", '"lit"', '"$s"', "$func"), piece(";", " ")]
        parts.append(piece("}"))
        if draw(st.booleans()):
            parts += [piece("FILTER"), piece("?x", "?y"), piece("CONTAINS", "=", "after"),
                      piece('"$s"', "x", "3", "?y")]
        if draw(st.booleans()):
            parts += [piece("LIMIT"), piece("$x", "3", "0", "-1")]
        return " ".join(parts)
    if shape == "pieces":
        pieces = draw(st.lists(st.tuples(st.sampled_from(QUERY_PIECES),
                                         st.sampled_from(SEPARATORS)), max_size=20))
        return "".join(piece + sep for piece, sep in pieces)
    if shape == "mutated":  # a well-formed query with one character inserted or removed
        text = format_query(draw(asts()))
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            return text[:at] + draw(st.sampled_from('{};"?\\ $x')) + text[at:]
        return text[:at] + text[at + 1:]
    return draw(st.text(alphabet='{};"?\\$ \tsx_é1-', max_size=30))


def bind_prepared(text, values):
    """The query as a freshly prepared text bound to `values` parses it."""
    return PreparedQuery(text).bind(values or {})


def parse_outcome(parse, text, values):
    try:
        return parse(text, values)
    except QueryError as exc:
        return str(exc), exc.offset


@settings(max_examples=400, deadline=None)
@given(query_texts(), st.one_of(
    st.none(), st.dictionaries(st.sampled_from(["s", "func", "x"]), st.sampled_from(SLOT_VALUES))))
def test_parser_equals_the_reference_parser(text, values):
    """Bound through a prepared text, and with no values through
    parse_query too, which reads each `$name` as written."""
    want = parse_outcome(reference_parse_query, text, values)
    assert parse_outcome(bind_prepared, text, values) == want
    if values is None:
        assert parse_outcome(lambda text, _: parse_query(text), text, None) == want


def test_word_rule_equals_the_reference_on_every_character():
    chars = map(chr, range(0x110000))
    assert [ch for ch in chars if is_word(ch) != query_word(ch)] == []
    assert is_word("src/m000.c#f") and not is_word("") and not is_word("a?b")


# -- evaluation ---------------------------------------------------------------


SCENARIO_TRIPLES = [
    ("file:ftpety.c", "declares", "var:ftpety.c#d"),
    ("file:ftpety.c", "declares", "var:ftpety.c#o"),
    ("file:ftpety.c", "declares", "func:ftpety.c#go"),
    ("func:ftpety.c#go", "writes", "var:ftpety.c#d"),
    ("commit:c1", "fixes", "bug:CQ/22"),
    ("commit:c1", "touches", "file:ftpety.c"),
]


def scenario_graph():
    entities = [
        Entity("var:ftpety.c#d", "variable", "D", attrs={"storage": "static", "scope": "global"}),
        Entity("var:ftpety.c#o", "variable", "o", attrs={"scope": "global"}),
        Entity("commit:c1", "commit", "fix bug#22",
               attrs={"timestamp": "2015-06-12T10:00:00Z"}),
    ]
    return build(SCENARIO_TRIPLES, entities)


def test_entity_query_variable_d():
    graph = scenario_graph()
    result = evaluate(graph, parse_query(
        'SELECT ?p ?o WHERE { var:ftpety.c#d ?p ?o }'
    ))
    assert ("writes",) not in result.rows  # direction is subject->object
    assert ("has-type", "x") not in result.rows
    # the declaration facts of D are reachable the other way around
    inbound = evaluate(graph, parse_query('SELECT ?s ?p WHERE { ?s ?p var:ftpety.c#d }'))
    assert ("file:ftpety.c", "declares") in inbound.rows
    assert ("func:ftpety.c#go", "writes") in inbound.rows


def test_static_filter_matches_attrs():
    graph = scenario_graph()
    result = evaluate(graph, parse_query(
        'SELECT ?v WHERE { file:ftpety.c declares ?v } FILTER ?v CONTAINS "storage=static"'
    ))
    assert result.rows == [("var:ftpety.c#d",)]


# text whose lower case differs in length or depends on its neighbours:
# final sigma, dotted and dotless I, sharp s, a ligature, titlecase digraphs,
# and letters outside the basic plane; and the separator of the search
# text, LF and NUL
_FOLD_TEXT = st.text(st.sampled_from("aAz=Σσςİıßẞﬁǅǆ\U00010400\U00010428 \n\0"
                                     + SEARCH_SEPARATOR)
                     | st.characters(blacklist_categories=("Cs",)), max_size=8)


def per_binding_contains(graph, value, needle):
    """FILTER ... CONTAINS as it was: every string lower-cased per binding."""
    needle = needle.lower()
    if needle in value.lower():
        return True
    entity = graph.entities.get(value)
    if entity is None:
        return False
    if needle in entity.label.lower():
        return True
    return any(needle in f"{k}={v}".lower() for k, v in entity.attrs.items())


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_FOLD_TEXT, st.dictionaries(_FOLD_TEXT, _FOLD_TEXT, max_size=3)),
                min_size=1, max_size=4), st.data())
def test_contains_filter_equals_the_per_binding_fold(labelled, data):
    entities = [Entity(f"var:h.c#v{i}", "variable", label, None, attrs)
                for i, (label, attrs) in enumerate(labelled)]
    graph = build([("func:h.c#f", "writes", e.id) for e in entities], entities)
    # a needle cut from a label or an attribute, or spanning two fields of
    # an entity's search text with the separator between them, its case
    # changed, or any text
    texts = [label for label, _ in labelled]
    texts += [f"{k}={v}" for _, attrs in labelled for k, v in attrs.items()]
    text = data.draw(st.sampled_from(texts))
    start = data.draw(st.integers(0, len(text)))
    cut = text[start:data.draw(st.integers(start, len(text)))]
    entity = data.draw(st.sampled_from(entities))
    fields = [entity.id, entity.label, *(f"{k}={v}" for k, v in entity.attrs.items())]
    at = data.draw(st.integers(0, len(fields) - 2))
    left, right = fields[at], fields[at + 1]
    span = (left[data.draw(st.integers(0, len(left))):] + SEARCH_SEPARATOR
            + right[:data.draw(st.integers(0, len(right)))])
    needle = data.draw(st.sampled_from([cut, span]).flatmap(
        lambda piece: st.sampled_from([piece, piece.upper(), piece.lower(), piece.swapcase()]))
        | _FOLD_TEXT)
    ast = QueryAST(("v",), (TriplePattern(Term(VAR, "f"), Term(IRI, "writes"), Term(VAR, "v")),),
                   (FilterClause("v", "CONTAINS", needle),))
    expected = sorted(e.id for e in entities if per_binding_contains(graph, e.id, needle))
    for _ in range(2):  # the second pass reads the search texts the first one kept
        assert sorted(row[0] for row in evaluate(graph, ast).rows) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_FOLD_TEXT, st.dictionaries(_FOLD_TEXT, _FOLD_TEXT, max_size=2)),
                min_size=1, max_size=3), st.data())
def test_contains_filter_keeps_the_rows_the_per_row_comprehension_keeps(labelled, data):
    """Rows of one to three columns, entity ids and other values, with
    repeats: the filter keeps what the comprehension over the rows kept,
    in order, for a needle cut from a value, a label or an attribute."""
    entities = [Entity(f"var:h.c#v{i}", "variable", label, None, attrs)
                for i, (label, attrs) in enumerate(labelled)]
    graph = build([("func:h.c#f", "writes", e.id) for e in entities], entities)
    values = [e.id for e in entities] + ["", "%", "a literal \U00010400"]
    width = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from(values)] * width), max_size=12))
    slot = data.draw(st.integers(0, width - 1))
    texts = values + [label for label, _ in labelled]
    texts += [f"{k}={v}" for _, attrs in labelled for k, v in attrs.items()]
    text = data.draw(st.sampled_from(texts))
    start = data.draw(st.integers(0, len(text)))
    needle = data.draw(st.sampled_from([text[start:data.draw(st.integers(start, len(text)))],
                                        text.upper()]) | _FOLD_TEXT)
    needle = needle.replace(SEARCH_SEPARATOR, "")  # a needle with it takes the per-field path
    for _ in range(2):  # the second pass reads the search texts the first one kept
        assert _filtered(graph, FilterClause("v", "CONTAINS", needle), rows, slot) \
            == reference_contains_rows(graph, rows, slot, needle.lower())


def test_date_filter_after():
    graph = scenario_graph()
    kept = evaluate(graph, parse_query(
        'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c AFTER "2013-03-12T00:00:00Z"'
    ))
    assert kept.rows == [("bug:CQ/22",)]
    dropped = evaluate(graph, parse_query(
        'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c BEFORE "2013-03-12T00:00:00Z"'
    ))
    assert dropped.rows == []


@pytest.mark.parametrize("op, literal, kept", [
    ("<=", "9", ["9"]),  # two numbers compare as numbers: 10 > 9
    (">", "9", ["10", "b"]),  # b is no number, so b and 9 compare as text
    ("<=", "a", ["10", "9"]),  # a is no number, so every value compares as text
    (">", "a", ["b"]),
])
def test_order_filter_compares_numbers_as_numbers_and_else_as_text(op, literal, kept):
    graph = build([("var:h.c#x", "has-type", "10"), ("var:h.c#y", "has-type", "9"),
                   ("var:h.c#z", "has-type", "b")])
    result = evaluate(graph, parse_query(
        f'SELECT ?t WHERE {{ ?v has-type ?t }} FILTER ?t {op} "{literal}"'))
    assert sorted(row[0] for row in result.rows) == kept


def test_empty_graph_zero_rows():
    graph = build([])
    result = evaluate(graph, parse_query("SELECT ?x WHERE { ?x calls ?y }"))
    assert result.rows == []


def random_graph_and_query(rng):
    n_nodes = rng.randint(2, 10)
    nodes = [f"func:r#n{i}" for i in range(n_nodes)]
    preds = ["calls", "reads", "fixes", "touches"]
    triples = set()
    for _ in range(rng.randint(1, 50)):
        triples.add((rng.choice(nodes), rng.choice(preds), rng.choice(nodes)))
    triples = sorted(triples)
    graph = build(triples)

    var_pool = ["a", "b", "c"]
    patterns = []
    used = set()
    for _ in range(rng.randint(1, 4)):
        base = rng.choice(triples)
        terms = []
        for position, value in zip("spo", base):
            if rng.random() < 0.55:
                name = rng.choice(var_pool)
                used.add(name)
                terms.append(Term("var", name))
            else:
                terms.append(Term("id", value))
        patterns.append(TriplePattern(*terms))
    if not used:
        patterns[0] = TriplePattern(Term("var", "a"), patterns[0].p, patterns[0].o)
        used.add("a")
    select = tuple(sorted(rng.sample(sorted(used), rng.randint(1, len(used)))))
    filters = []
    for _ in range(rng.randint(0, 2)):
        filters.append(FilterClause(
            rng.choice(sorted(used)),
            rng.choice(["=", "!=", "CONTAINS", "<"]),
            rng.choice([rng.choice(nodes), "calls", "n1", "zzz"]),
        ))
    ast = QueryAST(select, tuple(patterns), tuple(filters), None)
    return graph, ast, triples


def test_evaluate_matches_nested_loop_oracle():
    rng = random.Random(4242)
    for _ in range(150):
        graph, ast, triples = random_graph_and_query(rng)
        entities = {eid: (e.label, e.attrs) for eid, e in graph.entities.items()}
        mine = set(evaluate(graph, ast).rows)
        oracle = nested_loop_join(triples, ast, entities)
        assert mine == oracle


# ids and has-type literals that sort among them: "func:" and "var" before
# the ids of their kind, "int" between the kinds, "zz" after them all
_ORACLE_IDS = ["func:r#a", "func:r#b", "func:r#c", "var:r#x", "var:r#y"]
_ORACLE_LITERALS = ["func:", "int", "var", "zz"]
_ORACLE_ENTITIES = [
    Entity("func:r#a", "function", "alpha", attrs={"timestamp": "2014-05-01T00:00:00Z"}),
    Entity("func:r#b", "function", "beta"),
    Entity("func:r#c", "function", "gamma", attrs={"opened": "2016-01-01T00:00:00Z"}),
    Entity("var:r#x", "variable", "x", attrs={"scope": "global"}),
    Entity("var:r#y", "variable", "y"),
]


@st.composite
def oracle_graphs_and_queries(draw):
    """A small graph with has-type literals, and a query over it whose
    patterns may repeat a variable, put one in the predicate position or
    name a literal object, with filters on any variable, first bound by
    any pattern, and a LIMIT."""
    edges = draw(st.lists(st.tuples(st.sampled_from(_ORACLE_IDS), st.sampled_from(["calls", "reads"]),
                                    st.sampled_from(_ORACLE_IDS)), min_size=1, max_size=20))
    typed = draw(st.lists(st.tuples(st.sampled_from(_ORACLE_IDS), st.just("has-type"),
                                    st.sampled_from(_ORACLE_LITERALS)), max_size=6))
    triples = sorted(set(edges + typed))
    # seeded: each value becomes the same variable wherever it is made one,
    # so the drawn triples are a solution; else variables are drawn freely
    seeded = draw(st.booleans())
    names: dict[str, str] = {}

    def term(value):
        if draw(st.integers(0, 2)):
            if not seeded:
                return Term(VAR, draw(st.sampled_from("abc")))
            if value not in names and len(names) < 3:
                names[value] = "abc"[len(names)]
            if value in names:
                return Term(VAR, names[value])
        return Term("literal" if value in _ORACLE_LITERALS else IRI, value)

    patterns = tuple(TriplePattern(*map(term, draw(st.sampled_from(triples))))
                     for _ in range(draw(st.integers(1, 3))))
    used = sorted({t.value for pattern in patterns for t in pattern if t.kind == VAR})
    if not used:
        patterns += (TriplePattern(Term(VAR, "a"), Term(VAR, "b"), Term(VAR, "c")),)
        used = ["a", "b", "c"]
    select = tuple(draw(st.lists(st.sampled_from(used), min_size=1, max_size=3, unique=True)))
    filters = tuple(
        FilterClause(draw(st.sampled_from(used)),
                     draw(st.sampled_from(["=", "!=", "<", ">=", "CONTAINS", "AFTER", "BEFORE"])),
                     draw(st.sampled_from(_ORACLE_IDS + ["int", "b", "ALP", "2015-01-01T00:00:00Z"])))
        for _ in range(draw(st.integers(0, 2))))
    limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    return triples, QueryAST(select, patterns, filters, limit)


@settings(max_examples=300, deadline=None)
@given(oracle_graphs_and_queries())
def test_evaluate_equals_the_ranked_oracle_row_for_row(drawn):
    """The rows, in order and after LIMIT, are the nested-loop oracle's
    rows ranked by rank_results."""
    triples, ast = drawn
    graph = build(triples, _ORACLE_ENTITIES)
    entities = {eid: (e.label, e.attrs) for eid, e in graph.entities.items()}
    want = rank_results(sorted(nested_loop_join(triples, ast, entities)), graph.rank_table())
    assert evaluate(graph, ast).rows == want[:ast.limit]


def test_filter_on_a_variable_no_pattern_binds_gives_no_rows():
    graph = build([("func:r#a", "calls", "func:r#b")], _ORACLE_ENTITIES)
    pattern = TriplePattern(Term(VAR, "a"), Term(IRI, "calls"), Term(VAR, "b"))
    assert evaluate(graph, QueryAST(("a",), (pattern,))).rows == [("func:r#a",)]
    unbound = QueryAST(("a",), (pattern,), (FilterClause("z", "!=", "q"),))
    assert evaluate(graph, unbound).rows == []


def test_join_order_independence():
    rng = random.Random(77)
    for _ in range(40):
        graph, ast, _ = random_graph_and_query(rng)
        result = evaluate(graph, ast)
        shuffled = list(ast.patterns)
        rng.shuffle(shuffled)
        permuted = QueryAST(ast.select, tuple(shuffled), ast.filters, ast.limit)
        other = evaluate(graph, permuted)
        assert result.rows == other.rows  # same set AND same order


def test_three_pattern_join_on_fixture():
    graph = scenario_graph()
    ast = parse_query(
        "SELECT ?v ?c WHERE { file:ftpety.c declares ?v ; ?f writes ?v ; ?c touches file:ftpety.c }"
    )
    entities = {eid: (e.label, e.attrs) for eid, e in graph.entities.items()}
    triples = list(graph.triples())
    assert set(evaluate(graph, ast).rows) == nested_loop_join(triples, ast, entities)


# -- ranking -------------------------------------------------------------------


def test_rank_results_orders_by_first_column():
    rows = [("b", "1"), ("a", "2"), ("c", "3")]
    table = {"a": 0.5, "b": 0.3, "c": 0.2}
    assert rank_results(rows, table) == [("a", "2"), ("b", "1"), ("c", "3")]


def test_rank_single_row_unchanged():
    assert rank_results([("x",)], {}) == [("x",)]


def test_rank_ties_ascend_by_id():
    rows = [("b",), ("a",)]
    assert rank_results(rows, {"a": 0.4, "b": 0.4}) == [("a",), ("b",)]


def test_missing_rank_counts_as_zero():
    rows = [("unranked",), ("ranked",)]
    assert rank_results(rows, {"ranked": 0.9}) == [("ranked",), ("unranked",)]


# values with repeats, the empty string and one outside the basic plane;
# ranks with ties, both zeros and values ranked nowhere
_RANK_VALUES = st.sampled_from(["a", "b", "c", "", "%", "\U00010400"])
_RANKS = st.sampled_from([0.0, -0.0, 0.25, 5e-324]) | st.floats(allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.lists(st.tuples(*[_RANK_VALUES] * width),
                                                        max_size=12)),
       st.dictionaries(_RANK_VALUES, _RANKS, max_size=4))
def test_rank_results_orders_rows_as_the_per_row_key(rows, ranks):
    for table in (ranks, MappingProxyType(ranks)):
        assert rank_results(rows, table) == reference_rank_results(rows, table)


# -- templates -----------------------------------------------------------------


def template_graph():
    entities = [
        Entity("concept:save-button", "concept", "save button"),
        Entity("var:a#g", "variable", "g", attrs={"scope": "global"}),
        Entity("dev:sandra@example.com", "developer", "Sandra Mills"),
    ]
    triples = [
        ("func:a#f", "classified-as", "concept:greedy"),
        ("func:a#f", "mentions", "concept:save-button"),
        ("func:a#f", "writes", "var:a#g"),
        ("commit:c1", "fixes", "bug:CQ/9"),
        ("commit:c1", "authored-by", "dev:sandra@example.com"),
        ("bug:CQ/9", "touches", "func:a#f"),
    ]
    return build(triples, entities)


def test_algo_template():
    graph = template_graph()
    result = run_template(
        "algo-of-function", {"func": "func:a#f"}, graph, builtin_registry()
    )
    assert ("classified-as", "concept:greedy") in result.rows
    assert ("mentions", "concept:save-button") in result.rows


def test_bugs_affecting_template():
    graph = template_graph()
    result = run_template(
        "bugs-affecting-function", {"func": "func:a#f"}, graph, builtin_registry()
    )
    assert result.rows == [("bug:CQ/9",)]


# bodies with a slot where the grammar reads its text: a predicate, a filter
# operator, a LIMIT count, a keyword's place, a token after the last clause;
# some also with an error after the slot
SLOT_BODIES = [
    "SELECT ?x WHERE { ?x $p ?y }",
    'SELECT ?x WHERE { ?x calls ?y } FILTER ?x $op "$s"',
    "SELECT ?x WHERE { ?x calls ?y } LIMIT $n",
    "SELECT ?x WHERE { ?x calls ?y } LIMIT $n LIMIT",
    'SELECT ?x WHERE { ?x calls ?y } $kw ?x CONTAINS "a"',
    "$kw ?x WHERE { ?x calls ?y }",
    "SELECT ?x $kw { ?x calls ?y }",
    'SELECT ?x WHERE { ?x $p ?y } "$s"',
    'SELECT ?z WHERE { $s $p "$s" } FILTER ?x = $s',
    'SELECT ?x WHERE { $s $p ?x ; ?x $p }',
]
TEMPLATE_VALUES = [*SLOT_VALUES, "FILTER", "limit", "where", "contains", "writes", "-1", "1.5",
                   "7", '"$s"']


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([t.body for t in builtin_registry().by_name.values()] + SLOT_BODIES),
       st.lists(st.dictionaries(st.sampled_from(["func", "dev", "concept", "s", "p", "op", "n",
                                                 "kw"]),
                                st.sampled_from(TEMPLATE_VALUES) | st.text(max_size=6)),
                min_size=1, max_size=4))
# a check that read `$p` as written would refuse a body that `writes` mends
@example("SELECT ?x WHERE { ?x $p ?y }", [{"p": "writes"}])
@example("SELECT ?x WHERE { $s $p ?x ; ?x $p }", [{"p": "writes"}])
def test_a_body_parsed_once_binds_as_the_parser_reads_the_bound_text(body, bindings):
    """One parsed body, bound to each drawn set of slot values in turn,
    gives what the body prepared afresh and the reference parser give for
    the body and those values: the AST, or the error message and offset.  A body that
    the load check refuses parses under none of them."""
    template = Template("t", [], [], body)
    for values in bindings:
        bound = parse_outcome(lambda _, values: template.query.bind(values), body, values)
        assert bound == parse_outcome(bind_prepared, body, values)
        assert bound == parse_outcome(reference_parse_query, body, values)
        if template.query.error is not None:
            assert not isinstance(bound, QueryAST)


def test_unknown_template_not_found():
    with pytest.raises(NotFoundError, match="nope"):
        run_template("nope", {}, template_graph(), builtin_registry())


def test_missing_slot_named():
    with pytest.raises(SlotError, match="func"):
        run_template("algo-of-function", {}, template_graph(), builtin_registry())


def test_unknown_slot_argument_named():
    with pytest.raises(SlotError, match=r"unknown slot\(s\) \['extra'\]"):
        run_template("algo-of-function", {"func": "func:a#f", "extra": "1"},
                     template_graph(), builtin_registry())


def test_template_line_with_an_unknown_slot_type_names_it_and_its_line():
    data = "".join(json.dumps(doc) + "\n" for doc in [
        {"name": "ok", "triggers": [], "body": "SELECT ?x WHERE { ?x calls ?y }"},
        {"name": "bad", "triggers": [], "slots": [{"name": "s", "type": "url"}],
         "body": 'SELECT ?x WHERE { ?x calls ?y } FILTER ?x CONTAINS "$s"'},
    ]).encode("utf-8")
    with pytest.raises(FormatError, match="^line 2: t.jsonl: unknown slot type 'url'$"):
        load_registry("t.jsonl", data)


def test_template_body_that_does_not_parse_names_its_line():
    data = "".join(json.dumps(doc) + "\n" for doc in [
        {"name": "ok", "triggers": [], "body": "SELECT ?x WHERE { ?x calls ?y }"},
        {"name": "bad", "triggers": [], "slots": [{"name": "func", "type": "entity"}],
         "body": "SELECT ?x WHERE { ?x frobs ?y }"},
    ]).encode("utf-8")
    with pytest.raises(FormatError) as exc:
        load_registry("t.jsonl", data)
    assert str(exc.value) == ("line 2: t.jsonl: template 'bad': "
                              "unknown predicate 'frobs' (at offset 21)")


def test_a_loaded_template_body_is_parsed_once(monkeypatch):
    """load_registry lexes and checks each body once and the template's
    queries reuse the lexed tokens; a body whose slot decides what a word
    is still loads, and is checked when it is bound."""
    bodies = ['SELECT ?bug WHERE { ?bug touches $func } FILTER ?bug CONTAINS "bug:"',
              "SELECT ?x WHERE { ?x $p ?y }"]
    data = "".join(json.dumps(doc) + "\n" for doc in [
        {"name": "bugs", "triggers": [], "slots": [{"name": "func", "type": "entity"}],
         "body": bodies[0]},
        {"name": "by-predicate", "triggers": [], "slots": [{"name": "p", "type": "string"}],
         "body": bodies[1]},
    ]).encode("utf-8")
    parsed = []

    def counting(body):
        parsed.append(body)
        return PreparedQuery(body)

    monkeypatch.setattr(templates, "PreparedQuery", counting)
    registry = load_registry("t.jsonl", data)
    assert parsed == bodies
    graph = template_graph()
    for _ in range(2):
        assert run_template("bugs", {"func": "func:a#f"}, graph, registry).rows == [("bug:CQ/9",)]
        assert len(run_template("by-predicate", {"p": "writes"}, graph, registry).rows) == 1
        with pytest.raises(QueryError, match="unknown predicate 'frobs'"):
            run_template("by-predicate", {"p": "frobs"}, graph, registry)
    assert parsed == bodies


def test_ill_typed_slot_named():
    with pytest.raises(SlotError, match="func"):
        run_template(
            "algo-of-function", {"func": "not an entity"},
            template_graph(), builtin_registry(),
        )


@pytest.mark.parametrize("value", [
    "func:a#f ; ?bug ?p ?o",  # would splice a second pattern into the body
    "func:a#f }",
    "func:a#f}",
    'func:a#"f"',
    "func:a#f?x",
    "func:a#f;",
    "func:a#{f",
    "func:a#\tf",
])
def test_entity_slot_must_be_one_query_word(value):
    with pytest.raises(SlotError, match="func"):
        run_template(
            "bugs-affecting-function", {"func": value},
            template_graph(), builtin_registry(),
        )


def test_string_slot_value_stays_inside_its_literal():
    reg = TemplateRegistry()
    reg.add(Template("bugs-containing", [], [("s", "string")],
                     'SELECT ?b WHERE { ?c fixes ?b } FILTER ?b CONTAINS "$s"'))
    # spliced into the text, the value would close the literal and add a filter
    result = run_template("bugs-containing", {"s": '" FILTER ?b != "x'}, scenario_graph(), reg)
    assert result.rows == []


def test_slot_named_as_prefix_of_another_binds_only_itself():
    reg = TemplateRegistry()
    reg.add(Template("bugs-of-file", [], [("d", "number"), ("dev", "entity")],
                     "SELECT ?b WHERE { ?c fixes ?b ; ?c touches $dev } LIMIT $d"))
    result = run_template("bugs-of-file", {"d": "5", "dev": "file:ftpety.c"}, scenario_graph(), reg)
    assert result.rows == [("bug:CQ/22",)]


@pytest.mark.parametrize("value", ["31-02-2013", "99-99-2013", "00-01-2013", "29-02-2014"])
def test_day_first_date_slot_must_be_a_real_date(value):
    reg = TemplateRegistry()
    reg.add(Template("bugs-fixed-on", ["bugs fixed on date"], [("when", "date")],
                     'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c AFTER "$when"'))
    with pytest.raises(SlotError, match="when"):
        run_template("bugs-fixed-on", {"when": value}, scenario_graph(), reg)
    routed = match_freeform(f"bugs fixed on {value} date", reg, LabelSearch(scenario_graph()))
    assert isinstance(routed, NoMatch)
    assert "when" in routed.reason


@pytest.mark.parametrize("value, expected", [
    ("2013-03-12T10:00:00+02:00", "2013-03-12T08:00:00Z"),  # an offset goes to UTC
    ("2013-03-12T23:30:00-01:00", "2013-03-13T00:30:00Z"),
    ("0999-01-01", "0999-01-01T00:00:00Z"),  # the year keeps four digits
    ("01-01-0999", "0999-01-01T00:00:00Z"),
    ("2013-03-12T10:00:00.5Z", "2013-03-12T10:00:00Z"),
    ("0001-01-01T00:00:00+02:00", None),  # before year 1 in UTC
    ("\u0661\u0662-\u0660\u0663-\u0662\u0660\u0661\u0663", None),  # ASCII digits alone
    ("\uff11\uff12-\uff10\uff13-\uff12\uff10\uff11\uff13", None),
    ("12-03-2013\n", None),  # the whole value, not a line of it
])
def test_normalize_date_gives_utc_with_a_four_digit_year(value, expected):
    assert normalize_date(value) == expected


@pytest.mark.parametrize("value", ["\u0663", "\uff15", "5\n", "1.\u0665"])
def test_number_slot_takes_ascii_digits_alone(value):
    reg = TemplateRegistry()
    reg.add(Template("bugs-over", [], [("n", "number")],
                     'SELECT ?b WHERE { ?c fixes ?b } FILTER ?b > "$n"'))
    with pytest.raises(SlotError, match="slot 'n' expects a number"):
        run_template("bugs-over", {"n": value}, scenario_graph(), reg)


# -- free-form -----------------------------------------------------------------


def test_paper_sentence_resolves():
    graph = template_graph()
    routed = match_freeform(
        "How many unsynchronised global variables are used to implement the UI Save button",
        builtin_registry(), LabelSearch(graph),
    )
    assert routed.template == "unsynchronized-globals-of-concept"
    assert routed.args == {"concept": "concept:save-button"}


def test_empty_text_no_match():
    routed = match_freeform("", builtin_registry(), LabelSearch(template_graph()))
    assert isinstance(routed, NoMatch)
    assert routed.suggestions == []


def test_nonsense_returns_three_suggestions():
    routed = match_freeform(
        "what is the meaning of life", builtin_registry(), LabelSearch(template_graph())
    )
    assert isinstance(routed, NoMatch)
    assert len(routed.suggestions) == 3
    assert all(score < 0.4 for _, score in routed.suggestions)


def test_tie_breaks_by_registry_order():
    reg = TemplateRegistry()
    graph = build([("func:a#f", "writes", "var:a#g")])
    reg.add(Template("first", ["shared trigger phrase"], [], "SELECT ?x WHERE { ?x writes ?y }"))
    reg.add(Template("second", ["shared trigger phrase"], [], "SELECT ?x WHERE { ?x writes ?y }"))
    routed = match_freeform("shared trigger phrase", reg, LabelSearch(graph))
    assert routed.template == "first"


def test_freeform_is_deterministic():
    graph = template_graph()
    text = "bugs fixed by developer sandra mills"
    first = match_freeform(text, builtin_registry(), LabelSearch(graph))
    second = match_freeform(text, builtin_registry(), LabelSearch(graph))
    assert first == second


def test_unique_prefix_resolution():
    graph = template_graph()
    routed = match_freeform("bugs fixed by developer sandra", builtin_registry(), LabelSearch(graph))
    assert routed.args == {"dev": "dev:sandra@example.com"}


def test_date_and_number_slots():
    reg = TemplateRegistry()
    reg.add(Template(
        "bugs-fixed-on", ["bugs fixed on date"],
        [("when", "date"), ("top", "number")],
        'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c AFTER "$when" LIMIT $top',
    ))
    graph = scenario_graph()
    routed = match_freeform("bugs fixed on 12-03-2013 date 5", reg, LabelSearch(graph))
    assert routed.args == {"when": "2013-03-12T00:00:00Z", "top": "5"}
    result = run_template("bugs-fixed-on", routed.args, graph, reg)
    assert result.rows == [("bug:CQ/22",)]


@pytest.mark.parametrize("text, routed", [
    # the number slot takes the first number left, the string slot the rest
    ("bugs with title words 3 crash saving",
     FreeformMatch("bugs-titled", {"top": "3", "words": "crash saving"}, 0.5)),
    ("bugs with title words crash saving", "could not fill number slot 'top'"),
    ("bugs fixed by developer zorro", "could not resolve entity slot 'dev'"),
], ids=["number-and-string", "no-number", "unknown-entity"])
def test_freeform_slot_filling(text, routed):
    reg = builtin_registry()
    reg.add(Template("bugs-titled", ["bugs with title words"], [("top", "number"), ("words", "string")],
                     'SELECT ?b WHERE { ?c fixes ?b } FILTER ?b CONTAINS "$words" LIMIT $top'))
    got = match_freeform(text, reg, LabelSearch(template_graph()))
    if isinstance(routed, str):
        assert isinstance(got, NoMatch) and got.reason == routed
    else:
        assert got == routed


def test_date_slot_unfillable_is_structured_no_match():
    reg = TemplateRegistry()
    reg.add(Template("bugs-fixed-on", ["bugs fixed on date"], [("when", "date")],
                     'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c AFTER "$when"'))
    routed = match_freeform("bugs fixed on someday date", reg, LabelSearch(scenario_graph()))
    assert isinstance(routed, NoMatch)
    assert "when" in routed.reason
