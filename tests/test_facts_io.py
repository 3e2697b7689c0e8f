"""Neutral facts format: schema checks and the serialize/load round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckt.errors import ConflictError, FormatError
from ckt.extraction.cparser import parse_source
from ckt.extraction.facts import load_facts
from ckt.model import Entity, FactSet, Relation, Span
from oracles import dumps_facts

HEADER = '{"rec":"header","version":1}'


def test_minimal_document():
    doc = [
        HEADER,
        '{"rec":"entity","id":"func:a.py#f","kind":"function","label":"f"}',
        '{"rec":"entity","id":"func:a.py#g","kind":"function","label":"g"}',
        '{"rec":"relation","subj":"func:a.py#f","pred":"calls","obj":"func:a.py#g"}',
    ]
    facts = load_facts(doc)
    assert len(facts.entities) == 2
    assert len(facts.relations) == 1


def test_version_mismatch_rejected():
    with pytest.raises(FormatError, match="version"):
        load_facts(['{"rec":"header","version":99}'])


def test_missing_header_rejected():
    with pytest.raises(FormatError, match="header"):
        load_facts(['{"rec":"entity","id":"file:a","kind":"file","label":"a"}'])


def test_conflicting_spans_name_both_records():
    doc = [
        HEADER,
        '{"rec":"entity","id":"func:a.c#f","kind":"function","label":"f","path":"a.c","start":1,"end":5}',
        '{"rec":"entity","id":"func:a.c#f","kind":"function","label":"f","path":"a.c","start":2,"end":9}',
    ]
    with pytest.raises(ConflictError) as exc:
        load_facts(doc)
    assert "line 3" in str(exc.value) and "line 2" in str(exc.value)


def test_identical_redeclaration_is_fine():
    line = '{"rec":"entity","id":"file:a.c","kind":"file","label":"a.c"}'
    facts = load_facts([HEADER, line, line])
    assert len(facts.entities) == 1


def test_unknown_predicate_rejected_with_position():
    doc = [HEADER, '{"rec":"relation","subj":"a","pred":"frobs","obj":"b"}']
    with pytest.raises(FormatError, match="line 2.*frobs"):
        load_facts(doc)


def test_unknown_kind_rejected():
    doc = [HEADER, '{"rec":"entity","id":"x:1","kind":"sprocket","label":"x"}']
    with pytest.raises(FormatError, match="sprocket"):
        load_facts(doc)


def test_partial_span_rejected():
    doc = [HEADER, '{"rec":"entity","id":"file:a","kind":"file","label":"a","path":"a.c","start":1}']
    with pytest.raises(FormatError, match="span"):
        load_facts(doc)


def test_relation_attrs_round_trip():
    doc = [
        HEADER,
        '{"rec":"entity","id":"func:a#f","kind":"function","label":"f"}',
        '{"rec":"entity","id":"func:a#w","kind":"function","label":"w"}',
        '{"rec":"relation","subj":"func:a#f","pred":"calls","obj":"func:a#w","attrs":{"threading":"create"}}',
    ]
    facts = load_facts(doc)
    assert facts.relations[0].attrs == {"threading": "create"}
    again = load_facts(dumps_facts(facts).splitlines())
    assert again == facts


def test_round_trip_of_parsed_source():
    src = (
        "static int s;\nint shared = 2;\n"
        "void f(int p){ s = p; f(p); g(); }\n"
        "struct Box { int v; };\n"
    )
    facts = parse_source(src, "rt.c")
    again = load_facts(dumps_facts(facts).splitlines())
    assert again == facts
    # serialization is canonical: dumping the re-load is byte-identical
    assert dumps_facts(again) == dumps_facts(facts)


@st.composite
def fact_sets(draw):
    facts = FactSet()
    n_entities = draw(st.integers(1, 8))
    kinds = ["function", "variable", "file", "type"]
    for i in range(n_entities):
        kind = draw(st.sampled_from(kinds))
        span = None
        if draw(st.booleans()):
            start = draw(st.integers(1, 40))
            span = Span("gen.c", start, start + draw(st.integers(0, 10)))
        facts.add_entity(
            Entity(f"{'func' if kind == 'function' else 'var'}:gen.c#e{i}", kind,
                   f"e{i}", span, {"n": str(i)} if draw(st.booleans()) else {}),
            merge=True,
        )
    ids = sorted(facts.entities)
    for _ in range(draw(st.integers(0, 12))):
        subj = draw(st.sampled_from(ids))
        obj = draw(st.sampled_from(ids))
        pred = draw(st.sampled_from(["calls", "reads", "writes", "declares"]))
        facts.add_relation(Relation(subj, pred, obj, 0))
    return facts


@settings(max_examples=50, deadline=None)
@given(fact_sets())
def test_round_trip_property(facts):
    assert load_facts(dumps_facts(facts).splitlines()) == facts
