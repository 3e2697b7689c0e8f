"""Feature computation, strategy classification, thread roots, locksets,
ontology tagging."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckt.concepts import (
    classify_strategy,
    compute_features,
    detect_guarded_regions,
    detect_thread_roots,
    tag_domain_concepts,
)
from ckt.config import Ontology, StrategyWeights, default_weights
from ckt.errors import ConfigError, DomainError
from ckt.extraction import extract_comments, load_trace, parse_source
from ckt.model import Entity, FactSet, Relation, TraceEvent, TraceLog
from oracles import held_locks_at


def ontology():
    ont = Ontology()
    ont.add("greedy", ["greedy choice"], "greedy")
    ont.add("divide and conquer", ["divide", "split the range"], "divide-and-conquer")
    ont.add("dynamic programming", ["memoization"], "dynamic-programming")
    return ont


def facts_with_comment(src, path="a.c"):
    from ckt.extraction.comments import associate_comments

    facts = parse_source(src, path)
    comments = extract_comments(src, path)
    assoc = dict(associate_comments(comments, list(facts.entities.values())))
    for comment in comments:
        facts.add_entity(
            Entity(comment.id, "comment", comment.text, comment.span,
                   {"tokens": " ".join(comment.tokens)}),
            merge=True,
        )
        target = assoc.get(comment.id)
        if target in facts.entities:
            facts.add_relation(Relation(target, "documented-by", comment.id, comment.span.start))
    return facts


def test_recursive_function_features():
    src = "// divide the range\nint f(int n){ if (n) { f(n-1); } return f(n-2); }"
    facts = facts_with_comment(src)
    [fv] = compute_features([facts.entities["func:a.c#f"]], facts, None, ontology())
    assert fv.get("f_rec") == 1.0
    assert fv.get("f_multi") == 2.0
    assert fv.get("f_kw_divide-and-conquer") >= 1.0
    assert fv.get("f_depth") == 0.0


def test_leaf_function_all_zero():
    facts = parse_source("void leaf() { }", "a.c")
    [fv] = compute_features([facts.entities["func:a.c#leaf"]], facts, None, ontology())
    assert all(v == 0.0 for v in fv.features.values())


def test_mutual_recursion_sets_f_rec_without_f_multi():
    src = "void a(){ b(); }\nvoid b(){ a(); }"
    facts = parse_source(src, "m.c")
    [fv] = compute_features([facts.entities["func:m.c#a"]], facts, None, ontology())
    assert fv.get("f_rec") == 1.0 and fv.get("f_multi") == 0.0


def test_trace_depth():
    facts = parse_source("void f(){ }", "a.c")
    trace = TraceLog(events=[
        TraceEvent(1, 1, "enter", "func:a.c#f"),
        TraceEvent(2, 1, "enter", "func:a.c#f"),
        TraceEvent(3, 1, "exit", "func:a.c#f"),
        TraceEvent(4, 1, "exit", "func:a.c#f"),
    ])
    [fv] = compute_features([facts.entities["func:a.c#f"]], facts, trace, ontology())
    assert fv.get("f_depth") == 2.0


def test_non_function_rejected():
    facts = parse_source("int g;", "a.c")
    with pytest.raises(DomainError):
        compute_features([facts.entities["var:a.c#g"]], facts, None, ontology())


def fv_of(**features):
    from ckt.concepts import FeatureVector

    return FeatureVector("func:a#f", dict(features))


def test_classify_hand_computed_argmax():
    fv = fv_of(f_rec=1.0, f_multi=2.0, f_depth=0.0,
               **{"f_kw_greedy": 0.0, "f_kw_divide-and-conquer": 0.0,
                  "f_kw_dynamic-programming": 0.0})
    label = classify_strategy(fv, default_weights())
    # 0.4*1 + 0.3*2 = 1.0 for divide-and-conquer; dp gets 0.1; greedy 0
    assert label.class_name == "divide-and-conquer"
    assert label.score == pytest.approx(1.0)


def test_all_zero_is_unclassified():
    fv = fv_of(f_rec=0.0, f_multi=0.0, f_depth=0.0,
               **{"f_kw_greedy": 0.0, "f_kw_divide-and-conquer": 0.0,
                  "f_kw_dynamic-programming": 0.0})
    assert classify_strategy(fv, default_weights()).class_name == "unclassified"


def test_tie_breaks_by_class_list_order():
    weights = StrategyWeights(
        classes=["alpha", "beta"], tau=0.5,
        weights={"alpha": {"f_rec": 1.0}, "beta": {"f_rec": 1.0}},
    )
    label = classify_strategy(fv_of(f_rec=1.0), weights)
    assert label.class_name == "alpha"


def test_unknown_feature_in_weights_is_config_error():
    weights = StrategyWeights(classes=["a"], tau=0.1, weights={"a": {"f_bogus": 1.0}})
    with pytest.raises(ConfigError, match="f_bogus"):
        classify_strategy(fv_of(f_rec=1.0), weights)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.01, max_value=50.0),
       st.integers(0, 3), st.integers(0, 4), st.integers(0, 2))
def test_argmax_invariant_under_weight_scaling(scale, rec, kw, multi):
    # dyadic weights keep products exact, so near-ties cannot collapse into
    # exact ties under scaling and flip the tie-break
    base = StrategyWeights(
        classes=["greedy", "divide-and-conquer", "dynamic-programming"],
        tau=0.5,
        weights={
            "greedy": {"f_kw_greedy": 0.5},
            "divide-and-conquer": {"f_rec": 0.5, "f_multi": 0.25},
            "dynamic-programming": {"f_rec": 0.125},
        },
    )
    fv = fv_of(f_rec=float(rec > 0), f_multi=float(multi), f_depth=0.0,
               **{"f_kw_greedy": float(kw), "f_kw_divide-and-conquer": 0.0,
                  "f_kw_dynamic-programming": 0.0})
    scaled = StrategyWeights(
        classes=list(base.classes),
        tau=base.tau * scale,
        weights={c: {f: w * scale for f, w in row.items()}
                 for c, row in base.weights.items()},
    )
    assert classify_strategy(fv, base).class_name == classify_strategy(fv, scaled).class_name


def test_thread_roots_static_and_dynamic():
    src = "void worker(){}\nvoid boss(){ pthread_create(&t, 0, worker, 0); }"
    facts = parse_source(src, "t.c")
    trace = TraceLog(events=[TraceEvent(1, 1, "thread_create", "func:t.c#other")])
    roots = detect_thread_roots(facts, trace)
    assert roots == {"func:t.c#worker", "func:t.c#other"}
    assert detect_thread_roots(parse_source("int x;", "p.c"), None) == set()


def trace_of(lines):
    return load_trace(lines)


def test_guarded_region_single_lock():
    trace = trace_of([
        '{"seq":1,"tid":1,"kind":"enter","target":"func:a#f"}',
        '{"seq":2,"tid":1,"kind":"acquire","target":"L"}',
        '{"seq":3,"tid":1,"kind":"write","target":"var:a#g"}',
        '{"seq":4,"tid":1,"kind":"release","target":"L"}',
    ])
    assert detect_guarded_regions(trace) == [("func:a#f", "guards", "var:a#g", "locks=L")]


def test_unguarded_write_no_triple():
    trace = trace_of([
        '{"seq":1,"tid":1,"kind":"enter","target":"func:a#f"}',
        '{"seq":2,"tid":1,"kind":"write","target":"var:a#g"}',
    ])
    assert detect_guarded_regions(trace) == []


def test_nested_locks_recorded():
    trace = trace_of([
        '{"seq":1,"tid":1,"kind":"enter","target":"func:a#f"}',
        '{"seq":2,"tid":1,"kind":"acquire","target":"L1"}',
        '{"seq":3,"tid":1,"kind":"acquire","target":"L2"}',
        '{"seq":4,"tid":1,"kind":"write","target":"var:a#g"}',
        '{"seq":5,"tid":1,"kind":"release","target":"L2"}',
        '{"seq":6,"tid":1,"kind":"release","target":"L1"}',
    ])
    assert detect_guarded_regions(trace) == [
        ("func:a#f", "guards", "var:a#g", "locks=L1,L2")
    ]


def test_lockset_prefix_agrees_with_recomputation():
    rng = random.Random(7)
    events = []
    seq = 0
    for _ in range(120):
        seq += 1
        tid = rng.choice([1, 2, 3])
        kind = rng.choice(["acquire", "release", "read", "write", "enter", "exit"])
        target = (
            rng.choice(["L1", "L2"]) if kind in ("acquire", "release")
            else rng.choice(["func:a#f", "func:a#g"]) if kind in ("enter", "exit")
            else rng.choice(["var:a#x", "var:a#y"])
        )
        events.append(TraceEvent(seq, tid, kind, target))
    log = TraceLog(events=events)

    held = {ev.seq: held_locks_at(log, ev.tid, ev.seq) for ev in log.events}
    accesses = [ev for ev in log.events if ev.kind in ("read", "write")]
    for var, rec in log.replay.locksets.items():
        mine = [ev for ev in accesses if ev.target == var]
        assert rec.accesses == [ev.seq for ev in mine]
        assert rec.candidate == set.intersection(*(held[ev.seq] for ev in mine))
    assert set(log.replay.locksets) == {ev.target for ev in accesses}


def test_ontology_tagging():
    comments = extract_comments("// compute convex hull of points", "a.c")
    ont = Ontology()
    ont.add("convex hull", ["hull"], "convex-hull")
    triples = tag_domain_concepts(comments[0], ont, "func:a.c#f")
    assert triples == [("func:a.c#f", "mentions", "concept:convex-hull")]


def test_no_hits_no_triples():
    comments = extract_comments("// nothing to see", "a.c")
    assert tag_domain_concepts(comments[0], ontology(), "func:a.c#f") == []


def test_synonym_maps_to_concept():
    comments = extract_comments("// wire the ui save flow", "a.c")
    ont = Ontology()
    ont.add("save button", ["ui save"], "save-button")
    triples = tag_domain_concepts(comments[0], ont, "func:a.c#f")
    assert triples == [("func:a.c#f", "mentions", "concept:save-button")]


def test_tagging_is_monotone_in_ontology():
    comments = extract_comments("// greedy scan with memoization", "a.c")
    small = Ontology()
    small.add("greedy", [], "greedy")
    big = Ontology()
    big.add("greedy", [], "greedy")
    big.add("memoization", [], "dynamic-programming")
    small_triples = set(tag_domain_concepts(comments[0], small, "e"))
    big_triples = set(tag_domain_concepts(comments[0], big, "e"))
    assert small_triples <= big_triples
