"""Race alerts, similar defects, change provenance, augmentation rules."""

import random

import pytest

from ckt.errors import DomainError, NotFoundError
from ckt.graph import GraphBuilder, Provenance
from ckt.ids import THREAD_ROOT_ID
from ckt.model import Entity, TraceEvent, TraceLog
from ckt.query.evaluate import ResultSet
from ckt.smart import (
    SmartConfig,
    augment,
    change_provenance,
    race_alert_dynamic,
    race_alert_static,
    similar_defects,
)
from oracles import lockset_race

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
    alert = race_alert_static(race_graph(), "var:a#g")
    assert alert is not None
    assert alert.kind == "race-static"
    assert "func:a#main|calls|func:a#worker" in alert.evidence
    assert "func:a#worker|writes|var:a#g" in alert.evidence


def test_guard_suppresses_static_race():
    assert race_alert_static(race_graph(guarded=True), "var:a#g") is None


def test_single_root_cannot_race():
    assert race_alert_static(race_graph(main_only=True), "var:a#g") is None


def test_static_race_requires_global():
    graph = build(
        [("func:a#f", "writes", "var:a#l")],
        [Entity("var:a#l", "variable", "l", attrs={"scope": "local"})],
    )
    with pytest.raises(DomainError):
        race_alert_static(graph, "var:a#l")


def test_adding_guard_never_creates_new_static_alert():
    before = race_alert_static(race_graph(), "var:a#g")
    after = race_alert_static(race_graph(guarded=True), "var:a#g")
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
    assert race_alert_static(with_guard, "var:a#h") is not None
    assert race_alert_static(without_guard, "var:a#h") is not None
    assert race_alert_static(with_guard, "var:a#g") is None
    assert race_alert_static(without_guard, "var:a#g") is not None


def trace(events):
    return TraceLog(events=events)


def test_dynamic_race_hand_lockset():
    log = trace([
        TraceEvent(1, 1, "acquire", "L"),
        TraceEvent(2, 1, "write", "var:a#g"),
        TraceEvent(3, 1, "release", "L"),
        TraceEvent(4, 2, "write", "var:a#g"),
    ])
    alert = race_alert_dynamic(log, "var:a#g")
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
    assert race_alert_dynamic(log, "var:a#g") is None


def test_single_thread_no_race():
    log = trace([
        TraceEvent(1, 1, "write", "var:a#g"),
        TraceEvent(2, 1, "write", "var:a#g"),
    ])
    assert race_alert_dynamic(log, "var:a#g") is None


def test_unknown_var_not_found():
    with pytest.raises(NotFoundError):
        race_alert_dynamic(trace([TraceEvent(1, 1, "write", "var:a#g")]), "var:a#other")


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
            mine = race_alert_dynamic(log, var) is not None
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
    ranked = similar_defects(defect_graph(), "bug:CQ/67", k=5)
    assert ranked and ranked[0] == ("bug:CQ/22", 1.0)
    assert all(eid != "bug:CQ/67" for eid, _ in ranked)


def test_self_never_in_own_results():
    for bug in ("bug:CQ/67", "bug:CQ/22", "bug:CQ/5"):
        assert bug not in [eid for eid, _ in similar_defects(defect_graph(), bug)]


def test_scores_are_symmetric():
    graph = defect_graph()
    for a in ("bug:CQ/67", "bug:CQ/22", "bug:CQ/5"):
        for b in ("bug:CQ/67", "bug:CQ/22", "bug:CQ/5"):
            if a == b:
                continue
            score_ab = dict(similar_defects(graph, a, k=5, theta=0.0)).get(b, 0.0)
            score_ba = dict(similar_defects(graph, b, k=5, theta=0.0)).get(a, 0.0)
            assert score_ab == score_ba


def test_ranking_matches_all_pairs_brute_force():
    from ckt.config import normalize_tokens

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

    def brute(bug):
        mine = set(normalize_tokens(
            f"{graph.entities[bug].label} {graph.entities[bug].attrs['error_strings']}"
        ))
        out = []
        for eid, entity in graph.entities.items():
            if eid == bug or entity.kind != "bug":
                continue
            other = set(normalize_tokens(f"{entity.label} {entity.attrs['error_strings']}"))
            union = mine | other
            j = len(mine & other) / len(union) if union else 0.0
            if j >= 0.25:
                out.append((eid, round(j, 4)))
        out.sort(key=lambda p: (-p[1], p[0]))
        return out[:5]

    for i in range(5):
        bug = f"bug:CQ/{i}"
        assert similar_defects(graph, bug) == brute(bug)


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
    commits = change_provenance(provenance_graph(), "func:a.c#f", limit=5)
    stamps = [c.attrs["timestamp"] for c in commits]
    assert stamps == sorted(stamps, reverse=True)
    assert len(commits) == 5  # 7 touching commits, newest five kept


def test_untouched_entity_empty():
    graph = build([], [Entity("func:b#lonely", "function", "lonely")])
    assert change_provenance(graph, "func:b#lonely") == []


# -- augment ---------------------------------------------------------------------


def test_augment_attaches_race_and_advice():
    graph = race_graph()
    log = trace([
        TraceEvent(1, 1, "write", "var:a#g"),
        TraceEvent(2, 2, "write", "var:a#g"),
    ])
    result = ResultSet(("v",), [("var:a#g",)])
    augmented = augment(result, graph, log)
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
    assert augment(result, graph, None).alerts == []


def test_alert_cap_keeps_highest_scores():
    graph = provenance_graph()
    entities = list(graph.entities)
    rows = [(eid,) for eid in entities]
    result = ResultSet(("e",), rows)
    capped = augment(result, graph, None, SmartConfig(alert_cap=1))
    assert len(capped.alerts) == 1
    uncapped = augment(result, graph, None, SmartConfig(alert_cap=100))
    assert capped.alerts[0].score == max(a.score for a in uncapped.alerts)


def test_stale_comment_alert():
    entities = [
        Entity("func:a#f", "function", "f"),
        Entity("comment:a.c#L3", "comment", "touches var2",
               attrs={"stale": "true", "missing": "var2"}),
    ]
    graph = build([("func:a#f", "documented-by", "comment:a.c#L3")], entities)
    result = ResultSet(("f",), [("func:a#f",)])
    alerts = augment(result, graph, None).alerts
    stale = [a for a in alerts if a.kind == "stale-comment"]
    assert len(stale) == 1 and "var2" in stale[0].message
