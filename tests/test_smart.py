"""Race alerts, similar defects, change provenance, augmentation rules."""

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckt import smart
from ckt.errors import DomainError, NotFoundError
from ckt.graph import GraphBuilder, Provenance
from ckt.ids import THREAD_ROOT_ID
from ckt.model import Entity, TraceEvent, TraceLog
from ckt.query.evaluate import ResultSet
from ckt.smart import (
    AugmentContext,
    augment,
    change_provenance,
    race_alert_dynamic,
    race_alert_static,
    similar_defects,
)
from oracles import augment_per_response, brute_similar_defects, lockset_race

PROV = Provenance("source-code", "t:1")


def build(triples, entities=()):
    builder = GraphBuilder()
    for entity in entities:
        builder.add_entity(entity)
    for item in triples:
        s, p, o = item[:3]
        prov = item[3] if len(item) > 3 else PROV
        builder.insert_triple(s, p, o, prov)
    return builder.finalize()


def race_graph(guarded=False, main_only=False):
    entities = [
        Entity(THREAD_ROOT_ID, "thread-root", "thread-root"),
        Entity("var:a#g", "variable", "g", attrs={"scope": "global"}),
        Entity("func:a#main", "function", "main"),
        Entity("func:a#worker", "function", "worker"),
    ]
    triples = [
        ("func:a#main", "calls", "func:a#worker"),
        ("func:a#worker", "writes", "var:a#g"),
    ]
    if not main_only:
        triples.append((THREAD_ROOT_ID, "starts-thread", "func:a#worker"))
    if guarded:
        triples.append(("func:a#worker", "guards", "var:a#g"))
    return build(triples, entities)


def test_static_race_fires_for_two_roots():
    alert = race_alert_static(AugmentContext(race_graph()), "var:a#g")
    assert alert is not None
    assert alert.kind == "race-static"
    assert "func:a#main|calls|func:a#worker" in alert.evidence
    assert "func:a#worker|writes|var:a#g" in alert.evidence


def test_guard_suppresses_static_race():
    assert race_alert_static(AugmentContext(race_graph(guarded=True)), "var:a#g") is None


def test_single_root_cannot_race():
    assert race_alert_static(AugmentContext(race_graph(main_only=True)), "var:a#g") is None


def test_static_race_requires_global():
    graph = build(
        [("func:a#f", "writes", "var:a#l")],
        [Entity("var:a#l", "variable", "l", attrs={"scope": "local"})],
    )
    with pytest.raises(DomainError):
        race_alert_static(AugmentContext(graph), "var:a#l")


def test_adding_guard_never_creates_new_static_alert():
    before = race_alert_static(AugmentContext(race_graph()), "var:a#g")
    after = race_alert_static(AugmentContext(race_graph(guarded=True)), "var:a#g")
    assert before is not None and after is None


def test_guard_removal_is_local_to_its_variable():
    # two racy globals, one guarded; dropping the guard changes only its own var
    entities = [
        Entity(THREAD_ROOT_ID, "thread-root", "thread-root"),
        Entity("var:a#g", "variable", "g", attrs={"scope": "global"}),
        Entity("var:a#h", "variable", "h", attrs={"scope": "global"}),
        Entity("func:a#main", "function", "main"),
        Entity("func:a#worker", "function", "worker"),
    ]
    base = [
        ("func:a#main", "calls", "func:a#worker"),
        ("func:a#worker", "writes", "var:a#g"),
        ("func:a#worker", "writes", "var:a#h"),
        (THREAD_ROOT_ID, "starts-thread", "func:a#worker"),
    ]
    with_guard = build(base + [("func:a#worker", "guards", "var:a#g")], entities)
    without_guard = build(base, entities)
    assert race_alert_static(AugmentContext(with_guard), "var:a#h") is not None
    assert race_alert_static(AugmentContext(without_guard), "var:a#h") is not None
    assert race_alert_static(AugmentContext(with_guard), "var:a#g") is None
    assert race_alert_static(AugmentContext(without_guard), "var:a#g") is not None


def trace(events):
    return TraceLog(events=events)


def test_dynamic_race_hand_lockset():
    log = trace([
        TraceEvent(1, 1, "acquire", "L"),
        TraceEvent(2, 1, "write", "var:a#g"),
        TraceEvent(3, 1, "release", "L"),
        TraceEvent(4, 2, "write", "var:a#g"),
    ])
    alert = race_alert_dynamic(AugmentContext(build([]), log), "var:a#g")
    assert alert is not None
    assert alert.evidence == ["seq:2", "seq:4"]


def test_consistent_lock_no_race():
    log = trace([
        TraceEvent(1, 1, "acquire", "L"),
        TraceEvent(2, 1, "write", "var:a#g"),
        TraceEvent(3, 1, "release", "L"),
        TraceEvent(4, 2, "acquire", "L"),
        TraceEvent(5, 2, "write", "var:a#g"),
        TraceEvent(6, 2, "release", "L"),
    ])
    assert race_alert_dynamic(AugmentContext(build([]), log), "var:a#g") is None


def test_single_thread_no_race():
    log = trace([
        TraceEvent(1, 1, "write", "var:a#g"),
        TraceEvent(2, 1, "write", "var:a#g"),
    ])
    assert race_alert_dynamic(AugmentContext(build([]), log), "var:a#g") is None


def test_unknown_var_not_found():
    log = trace([TraceEvent(1, 1, "write", "var:a#g")])
    with pytest.raises(NotFoundError):
        race_alert_dynamic(AugmentContext(build([]), log), "var:a#other")


def test_dynamic_agrees_with_recomputation_on_random_traces():
    rng = random.Random(2024)
    for _ in range(100):
        events = []
        seq = 0
        for _ in range(rng.randint(1, 200)):
            seq += 1
            tid = rng.randint(1, 3)
            kind = rng.choice(["acquire", "release", "read", "write"])
            target = (
                rng.choice(["L1", "L2", "L3"])
                if kind in ("acquire", "release")
                else rng.choice(["var:a#x", "var:a#y"])
            )
            events.append(TraceEvent(seq, tid, kind, target))
        log = trace(events)
        for var in ("var:a#x", "var:a#y"):
            if not any(e.kind in ("read", "write") and e.target == var for e in events):
                continue
            mine = race_alert_dynamic(AugmentContext(build([]), log), var) is not None
            assert mine == lockset_race(events, var), (var, events)


# -- similar defects -----------------------------------------------------------


def defect_graph():
    entities = [
        Entity("bug:CQ/67", "bug", "processing error : unsigned 162_S1",
               attrs={"error_strings": "processing error : unsigned 162_S1"}),
        Entity("bug:CQ/22", "bug", "datatype overflow: unsigned counter",
               attrs={"error_strings": "unsigned counter truncated"}),
        Entity("bug:CQ/5", "bug", "crash on empty file", attrs={"error_strings": ""}),
    ]
    triples = [
        ("bug:CQ/67", "touches", "func:a#s2"),
        ("bug:CQ/22", "touches", "func:a#s2"),
        ("bug:CQ/5", "touches", "func:a#other"),
    ]
    return build(triples, entities)


def test_shared_function_ranks_first():
    ranked = similar_defects(AugmentContext(defect_graph()), "bug:CQ/67")
    assert ranked and ranked[0] == ("bug:CQ/22", 1.0)
    assert all(eid != "bug:CQ/67" for eid, _ in ranked)


def test_self_never_in_own_results():
    for bug in ("bug:CQ/67", "bug:CQ/22", "bug:CQ/5"):
        assert bug not in [eid for eid, _ in similar_defects(AugmentContext(defect_graph()), bug)]


def test_scores_are_symmetric():
    graph = defect_graph()
    for a in ("bug:CQ/67", "bug:CQ/22", "bug:CQ/5"):
        for b in ("bug:CQ/67", "bug:CQ/22", "bug:CQ/5"):
            if a == b:
                continue
            with patch.object(smart, "SIMILARITY_FLOOR", 0.0):
                score_ab = dict(similar_defects(AugmentContext(graph), a)).get(b, 0.0)
                score_ba = dict(similar_defects(AugmentContext(graph), b)).get(a, 0.0)
            assert score_ab == score_ba


def test_ranking_matches_all_pairs_brute_force():
    graph = build(
        [],
        [
            Entity(f"bug:CQ/{i}", "bug", title, attrs={"error_strings": errs})
            for i, (title, errs) in enumerate([
                ("alpha beta gamma", "x1_y"),
                ("alpha beta", ""),
                ("gamma delta", "x1_y"),
                ("unrelated words here", ""),
                ("alpha gamma delta", "zz"),
            ])
        ],
    )
    for i in range(5):
        bug = f"bug:CQ/{i}"
        assert similar_defects(AugmentContext(graph), bug) == brute_similar_defects(graph, bug)


# -- change provenance -----------------------------------------------------------


def provenance_graph():
    entities = [
        Entity("file:a.c", "file", "a.c"),
        Entity("func:a.c#f", "function", "f"),
    ]
    triples = []
    for i in range(7):
        cid = f"commit:c{i}"
        entities.append(Entity(cid, "commit", f"change {i}",
                               attrs={"timestamp": f"2015-01-{i + 1:02d}T00:00:00Z"}))
        triples.append((cid, "touches", "file:a.c" if i % 2 else "func:a.c#f"))
    return build(triples, entities)


def test_provenance_newest_first_truncated():
    commits = change_provenance(AugmentContext(provenance_graph()), "func:a.c#f")
    stamps = [c.attrs["timestamp"] for c in commits]
    assert stamps == sorted(stamps, reverse=True)
    assert len(commits) == 5  # 7 touching commits, newest five kept


def test_untouched_entity_empty():
    graph = build([], [Entity("func:b#lonely", "function", "lonely")])
    assert change_provenance(AugmentContext(graph), "func:b#lonely") == []


# -- augment ---------------------------------------------------------------------


def test_augment_attaches_race_and_advice():
    graph = race_graph()
    log = trace([
        TraceEvent(1, 1, "write", "var:a#g"),
        TraceEvent(2, 2, "write", "var:a#g"),
    ])
    result = ResultSet(("v",), [("var:a#g",)])
    augmented = augment(result, AugmentContext(graph, log))
    kinds = [a.kind for a in augmented.alerts]
    assert "race-static" in kinds and "race-dynamic" in kinds
    advice = next(a for a in augmented.alerts if a.kind == "mutex-advice")
    assert "add mutex locks" in advice.message
    assert augmented.rows == result.rows  # rows untouched


def test_augment_clean_fixture_no_alerts():
    graph = build(
        [("func:a#f", "calls", "func:a#g")],
        [Entity("func:a#f", "function", "f"), Entity("func:a#g", "function", "g")],
    )
    result = ResultSet(("f",), [("func:a#f",)])
    assert augment(result, AugmentContext(graph)).alerts == []


def test_alert_cap_keeps_highest_scores():
    graph = provenance_graph()
    entities = list(graph.entities)
    rows = [(eid,) for eid in entities]
    result = ResultSet(("e",), rows)
    with patch.object(smart, "ALERT_CAP", 1):
        capped = augment(result, AugmentContext(graph))
    assert len(capped.alerts) == 1
    with patch.object(smart, "ALERT_CAP", 100):
        uncapped = augment(result, AugmentContext(graph))
    assert capped.alerts[0].score == max(a.score for a in uncapped.alerts)


def test_stale_comment_alert():
    entities = [
        Entity("func:a#f", "function", "f"),
        Entity("comment:a.c#L3", "comment", "touches var2",
               attrs={"stale": "true", "missing": "var2"}),
    ]
    graph = build([("func:a#f", "documented-by", "comment:a.c#L3")], entities)
    result = ResultSet(("f",), [("func:a#f",)])
    alerts = augment(result, AugmentContext(graph)).alerts
    stale = [a for a in alerts if a.kind == "stale-comment"]
    assert len(stale) == 1 and "var2" in stale[0].message


def racing_globals_graph(n):
    """n globals written with no lock by two threads in the trace, each also
    a static race (its writer is reachable from main and a thread root) and
    touched by a commit."""
    worker = "func:a#worker"
    entities = [
        Entity(THREAD_ROOT_ID, "thread-root", "thread-root"),
        Entity("func:a#main", "function", "main"),
        Entity(worker, "function", "worker"),
        Entity("commit:c1", "commit", "touch", attrs={"timestamp": "2015-01-02T00:00:00Z"}),
    ]
    triples = [("func:a#main", "calls", worker), (THREAD_ROOT_ID, "starts-thread", worker)]
    events = []
    variables = [f"var:a#g{i:02d}" for i in range(n)]
    for var in variables:
        entities.append(Entity(var, "variable", var[-3:], attrs={"scope": "global"}))
        triples += [(worker, "writes", var), ("commit:c1", "touches", var)]
        events += [TraceEvent(len(events) + tid, tid, "write", var) for tid in (1, 2)]
    return build(triples, entities), trace(events), ResultSet(("v",), [(v,) for v in variables])


def counting(name, calls):
    rule = getattr(smart, name)

    def counted(*args):
        calls[name] += 1
        return rule(*args)

    return patch.object(smart, name, counted)


@pytest.mark.parametrize("n_globals, static_calls", [(10, 0), (12, 0), (9, 9)])
def test_lower_tiers_are_skipped_once_the_cap_is_settled(n_globals, static_calls):
    """Ten held dynamic races at 1.0 sort before any static race at 0.9, so
    neither the static race rule nor provenance runs; with nine, the static
    tier runs and its races settle the cap before provenance at 0.3."""
    graph, log, result = racing_globals_graph(n_globals)
    calls = {"race_alert_static": 0, "change_provenance": 0}
    with counting("race_alert_static", calls), counting("change_provenance", calls):
        alerts = augment(result, AugmentContext(graph, log)).alerts
    assert calls == {"race_alert_static": static_calls, "change_provenance": 0}
    assert alerts == augment_per_response(result, graph, log).alerts
    with patch.object(smart, "ALERT_CAP", 10**6):  # the wrappers see the calls a full run makes
        with counting("race_alert_static", calls), counting("change_provenance", calls):
            every = augment(result, AugmentContext(graph, log)).alerts
    assert calls == {"race_alert_static": static_calls + n_globals,
                     "change_provenance": n_globals}
    assert alerts == every[:10]


@pytest.mark.parametrize("n_globals", [3, 12])
def test_a_failing_rule_drops_its_entity_only_in_a_tier_that_runs(n_globals):
    """Provenance raises for every global: with three globals its tier runs
    and each global's alerts give way to one warning; with twelve, ten
    dynamic races settle the cap first, and no rule raises."""
    graph, log, result = racing_globals_graph(n_globals)

    def failing(ctx, eid):
        raise RuntimeError("no history")

    with patch.object(smart, "change_provenance", failing):
        alerts = augment(result, AugmentContext(graph, log)).alerts
    if n_globals == 3:
        assert [(a.kind, a.subject, a.score) for a in alerts] == [
            ("warning", var, 0.0) for var, in result.rows]
        assert alerts[0].message == f"augmentation failed for {result.rows[0][0]}: no history"
    else:
        assert [a.kind for a in alerts] == ["race-dynamic"] * 10


# -- verdicts kept for the session ----------------------------------------------------


# (graph, trace, rows) whose entities are subjects of kept verdicts
def racing_globals():
    graph, log, result = racing_globals_graph(3)
    return graph, log, result.rows


def a_global_racing_nowhere_and_bugs():
    graph = build(sorted(KINDS_TRIPLES), KINDS_ENTITIES)
    return graph, None, [(eid,) for eid in sorted(graph.entities)]


def similar_bugs():
    return defect_graph(), None, [("bug:CQ/67",), ("bug:CQ/22",), ("bug:CQ/5",)]


@pytest.mark.parametrize("case", [racing_globals, a_global_racing_nowhere_and_bugs, similar_bugs])
def test_each_verdict_is_computed_once_per_context(case):
    """Answers on one context compute each global's static race and each
    bug's similar defects once, a None verdict too, and give the alerts a
    fresh context gives, which computes the same verdicts again."""
    graph, log, rows = case()
    result = ResultSet(("e",), rows)
    globals_ = [eid for eid, e in graph.entities.items() if smart._is_global(e)]
    bugs = [eid for eid, e in graph.entities.items() if e.kind == "bug"]
    calls = {"race_alert_static": 0, "similar_defects": 0}
    ctx = AugmentContext(graph, log)
    with patch.object(smart, "ALERT_CAP", 10**6), \
            counting("race_alert_static", calls), counting("similar_defects", calls):
        answers = [augment(result, ctx).alerts for _ in range(3)]
        assert calls == {"race_alert_static": len(globals_), "similar_defects": len(bugs)}
        fresh = AugmentContext(graph, log)
        assert augment(result, fresh).alerts == answers[0] == answers[1] == answers[2]
    assert calls == {"race_alert_static": 2 * len(globals_), "similar_defects": 2 * len(bugs)}
    assert ctx.static_races == fresh.static_races
    assert ctx.similar == fresh.similar
    assert sorted(ctx.static_races) == sorted(globals_) and sorted(ctx.similar) == sorted(bugs)


@pytest.mark.parametrize("rule, case", [("race_alert_static", racing_globals),
                                        ("similar_defects", similar_bugs)])
def test_a_rule_that_raises_keeps_no_verdict(rule, case):
    """A rule that raises is asked again on every answer, and each answer
    gives its entities' warning alerts."""
    graph, log, rows = case()
    result = ResultSet(("e",), rows)
    calls = []

    def failing(ctx, eid):
        calls.append(eid)
        raise RuntimeError("rule failed")

    ctx = AugmentContext(graph, log)
    with patch.object(smart, rule, failing):
        for _ in range(3):
            alerts = augment(result, ctx).alerts
            assert [(a.kind, a.subject, a.message) for a in alerts] == sorted(
                ("warning", eid, f"augmentation failed for {eid}: rule failed") for eid, in rows)
    assert calls == [eid for eid, in rows] * 3
    assert ctx.static_races == {} and ctx.similar == {}


# -- tier kinds ------------------------------------------------------------------

# the alert kinds each tier of smart._TIERS gives, in tier order
TIER_ALERTS = (("race-dynamic", "similar-defect"), ("race-static", "mutex-advice"),
               ("stale-comment",), ("provenance",))

KINDS_ENTITIES = [
    Entity(THREAD_ROOT_ID, "thread-root", "thread-root"),
    Entity("concept:sync", "concept", "sync"),
    Entity("file:a.c", "file", "a.c"),
    Entity("func:a.c#main", "function", "main"),
    Entity("func:a.c#f", "function", "f"),
    Entity("var:a.c#g", "variable", "g", attrs={"scope": "global"}),
    Entity("var:a.c#f.l", "variable", "l", attrs={"scope": "local"}),
    Entity("type:a.c#T", "type", "T"),
    Entity("type:a.c#C", "class", "C"),
    Entity("comment:a.c#L3", "comment", "uses zz", attrs={"stale": "true", "missing": "zz"}),
    Entity("bug:t/1", "bug", "counter overflow", attrs={"error_strings": "overflow"}),
    Entity("bug:t/2", "bug", "counter overflow again", attrs={"error_strings": "overflow"}),
    Entity("commit:c1", "commit", "fix", attrs={"timestamp": "2015-01-02T00:00:00Z"}),
    Entity("commit:c2", "commit", "tidy", attrs={"timestamp": "2015-02-02T00:00:00Z"}),
    Entity("dev:x", "developer", "x"),
]
# triples that give each rule something to alert on, the provenance rule
# also for the comment (through its file) and for a bug that a commit touches
KINDS_TRIPLES = [
    ("func:a.c#main", "calls", "func:a.c#f"),
    (THREAD_ROOT_ID, "starts-thread", "func:a.c#f"),
    ("func:a.c#f", "writes", "var:a.c#g"),
    ("func:a.c#main", "reads", "var:a.c#g"),
    ("func:a.c#f", "guards", "var:a.c#g"),
    ("func:a.c#f", "writes", "var:a.c#f.l"),
    ("commit:c1", "touches", "file:a.c"),
    ("commit:c2", "touches", "func:a.c#f"),
    ("commit:c2", "touches", "var:a.c#g"),
    ("commit:c1", "touches", "bug:t/2"),
    ("commit:c1", "fixes", "bug:t/1"),
    ("commit:c2", "authored-by", "dev:x"),
    ("bug:t/1", "touches", "func:a.c#f"),
    ("bug:t/2", "touches", "func:a.c#f"),
    ("func:a.c#f", "documented-by", "comment:a.c#L3"),
    ("bug:t/1", "documented-by", "comment:a.c#L3"),
    ("type:a.c#T", "member-of", "type:a.c#C"),
]


def check_tier_kinds(graph, log):
    """An entity outside a tier's kinds gets no alert of that tier from the
    per-response oracle, and a rule that tests the kind itself returns []
    for it without raising.  The provenance tier's kinds are its rule's
    only kind test, so the oracle alone checks them.  Uncapped, augment
    over every entity gives the oracle's alerts."""
    ctx = AugmentContext(graph, log)
    every = ResultSet(("e",), [(eid,) for eid in graph.entities])
    oracle = augment_per_response(every, graph, log, cap=10**6).alerts
    with patch.object(smart, "ALERT_CAP", 10**6):
        assert augment(every, ctx).alerts == oracle
    for (_, rule, kinds), alert_kinds in zip(smart._TIERS, TIER_ALERTS):
        if kinds is None:
            continue
        for eid, entity in graph.entities.items():
            if entity.kind in kinds:
                continue
            assert [a for a in oracle if a.subject == eid and a.kind in alert_kinds] == [], eid
            if rule is not smart._provenance:
                assert rule(ctx, entity, {}) == [], (rule.__name__, eid)


def test_tier_kinds_stay_in_step_with_the_rules_on_the_scenario(scenario_graph, scenario_trace):
    check_tier_kinds(scenario_graph, scenario_trace)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(KINDS_TRIPLES)), st.booleans())
def test_tier_kinds_stay_in_step_with_the_rules_on_drawn_graphs(triples, traced):
    graph = build(sorted(triples), KINDS_ENTITIES)
    events = [TraceEvent(1, 1, "write", "var:a.c#g"), TraceEvent(2, 2, "read", "var:a.c#g")]
    check_tier_kinds(graph, trace(events) if traced else None)


# -- visit order ------------------------------------------------------------------


def failing_for(failing, rule):
    """`rule`, raising for the entities in `failing` (its second argument)."""
    def wrapped(first, eid, *rest):
        if eid in failing:
            raise RuntimeError("rule failed")
        return rule(first, eid, *rest)
    return wrapped


@st.composite
def alerting_graphs(draw):
    """The tier-kinds graph with some of its triples, or n racing globals."""
    if draw(st.booleans()):
        graph = build(sorted(draw(st.sets(st.sampled_from(KINDS_TRIPLES)))), KINDS_ENTITIES)
        events = [TraceEvent(1, 1, "write", "var:a.c#g"), TraceEvent(2, 2, "read", "var:a.c#g")]
        return graph, trace(events) if draw(st.booleans()) else None
    graph, log, _ = racing_globals_graph(draw(st.integers(1, 13)))
    return graph, log


@settings(max_examples=150, deadline=None)
@given(alerting_graphs(), st.data())
def test_augment_on_permuted_rows_equals_the_per_response_oracle(drawn, data):
    """Visiting the entities in any order gives the oracle's alerts at every
    cap, also when the first tier's rules raise for some entities, and
    again when the same context answers a second time."""
    import oracles

    graph, log = drawn
    values = st.sampled_from([*sorted(graph.entities), "a literal"])
    rows = data.draw(st.lists(st.tuples(values, values), max_size=16))
    permuted = data.draw(st.permutations(rows))
    failing = data.draw(st.sets(st.sampled_from(sorted(
        eid for eid, e in graph.entities.items() if e.kind in ("bug", "variable")))))
    cap = data.draw(st.sampled_from([1, 10, 11, 1000, 10**6]))
    with patch.object(smart, "similar_defects", failing_for(failing, smart.similar_defects)), \
            patch.object(smart, "race_alert_dynamic",
                         failing_for(failing, smart.race_alert_dynamic)), \
            patch.object(oracles, "brute_similar_defects",
                         failing_for(failing, oracles.brute_similar_defects)), \
            patch.object(oracles, "lockset_race", failing_for(failing, lockset_race)):
        expected = augment_per_response(ResultSet(("a", "b"), rows), graph, log, cap=cap).alerts
        ctx = AugmentContext(graph, log)
        with patch.object(smart, "ALERT_CAP", cap):
            for _ in range(2):  # the second answer reads the verdicts the first one kept
                assert augment(ResultSet(("a", "b"), permuted), ctx).alerts == expected
