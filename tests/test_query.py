"""Query grammar, conjunctive evaluation vs the nested-loop oracle,
templates and free-form routing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckt.errors import NotFoundError, QueryError, SlotError
from ckt.graph import GraphBuilder, Provenance
from ckt.model import Entity
from ckt.query.evaluate import evaluate, rank_results
from ckt.query.parser import (
    FilterClause,
    QueryAST,
    Term,
    TriplePattern,
    format_query,
    is_word,
    parse_query,
)
from ckt.query.templates import (
    NoMatch,
    Template,
    TemplateRegistry,
    builtin_registry,
    match_freeform,
    normalize_date,
    run_template,
)
from oracles import nested_loop_join, query_word, reference_parse_query

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


def parse_outcome(parse, text, values):
    try:
        return parse(text, values)
    except QueryError as exc:
        return str(exc), exc.offset


@settings(max_examples=400, deadline=None)
@given(query_texts(), st.one_of(
    st.none(), st.dictionaries(st.sampled_from(["s", "func", "x"]), st.sampled_from(SLOT_VALUES))))
def test_parser_equals_the_reference_parser(text, values):
    assert parse_outcome(parse_query, text, values) == \
        parse_outcome(reference_parse_query, text, values)


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


def test_unknown_template_not_found():
    with pytest.raises(NotFoundError, match="nope"):
        run_template("nope", {}, template_graph(), builtin_registry())


def test_missing_slot_named():
    with pytest.raises(SlotError, match="func"):
        run_template("algo-of-function", {}, template_graph(), builtin_registry())


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
    routed = match_freeform(f"bugs fixed on {value} date", reg, scenario_graph())
    assert isinstance(routed, NoMatch)
    assert "when" in routed.reason


@pytest.mark.parametrize("value, expected", [
    ("2013-03-12T10:00:00+02:00", "2013-03-12T08:00:00Z"),  # an offset goes to UTC
    ("2013-03-12T23:30:00-01:00", "2013-03-13T00:30:00Z"),
    ("0999-01-01", "0999-01-01T00:00:00Z"),  # the year keeps four digits
    ("01-01-0999", "0999-01-01T00:00:00Z"),
    ("2013-03-12T10:00:00.5Z", "2013-03-12T10:00:00Z"),
    ("0001-01-01T00:00:00+02:00", None),  # before year 1 in UTC
])
def test_normalize_date_gives_utc_with_a_four_digit_year(value, expected):
    assert normalize_date(value) == expected


# -- free-form -----------------------------------------------------------------


def test_paper_sentence_resolves():
    graph = template_graph()
    routed = match_freeform(
        "How many unsynchronised global variables are used to implement the UI Save button",
        builtin_registry(), graph,
    )
    assert routed.template == "unsynchronized-globals-of-concept"
    assert routed.args == {"concept": "concept:save-button"}


def test_empty_text_no_match():
    routed = match_freeform("", builtin_registry(), template_graph())
    assert isinstance(routed, NoMatch)
    assert routed.suggestions == []


def test_nonsense_returns_three_suggestions():
    routed = match_freeform(
        "what is the meaning of life", builtin_registry(), template_graph()
    )
    assert isinstance(routed, NoMatch)
    assert len(routed.suggestions) == 3
    assert all(score < 0.4 for _, score in routed.suggestions)


def test_tie_breaks_by_registry_order():
    reg = TemplateRegistry()
    graph = build([("func:a#f", "writes", "var:a#g")])
    reg.add(Template("first", ["shared trigger phrase"], [], "SELECT ?x WHERE { ?x writes ?y }"))
    reg.add(Template("second", ["shared trigger phrase"], [], "SELECT ?x WHERE { ?x writes ?y }"))
    routed = match_freeform("shared trigger phrase", reg, graph)
    assert routed.template == "first"


def test_freeform_is_deterministic():
    graph = template_graph()
    text = "bugs fixed by developer sandra mills"
    first = match_freeform(text, builtin_registry(), graph)
    second = match_freeform(text, builtin_registry(), graph)
    assert first == second


def test_unique_prefix_resolution():
    graph = template_graph()
    routed = match_freeform("bugs fixed by developer sandra", builtin_registry(), graph)
    assert routed.args == {"dev": "dev:sandra@example.com"}


def test_date_and_number_slots():
    reg = TemplateRegistry()
    reg.add(Template(
        "bugs-fixed-on", ["bugs fixed on date"],
        [("when", "date"), ("top", "number")],
        'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c AFTER "$when" LIMIT $top',
    ))
    graph = scenario_graph()
    routed = match_freeform("bugs fixed on 12-03-2013 date 5", reg, graph)
    assert routed.args == {"when": "2013-03-12T00:00:00Z", "top": "5"}
    result = run_template("bugs-fixed-on", routed.args, graph, reg)
    assert result.rows == [("bug:CQ/22",)]


def test_date_slot_unfillable_is_structured_no_match():
    reg = TemplateRegistry()
    reg.add(Template("bugs-fixed-on", ["bugs fixed on date"], [("when", "date")],
                     'SELECT ?b WHERE { ?c fixes ?b } FILTER ?c AFTER "$when"'))
    routed = match_freeform("bugs fixed on someday date", reg, scenario_graph())
    assert isinstance(routed, NoMatch)
    assert "when" in routed.reason
