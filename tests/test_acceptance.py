"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one pass line (visible with -s or in captured output);
a failed assertion marks the criterion red.
"""

import filecmp
import json
import random
import shutil
import time
from pathlib import Path

import pytest

from ckt.extraction.cparser import parse_source
from ckt.extraction.facts import load_facts
from ckt.extraction.traces import load_trace
from ckt.graph import GraphBuilder, Provenance, load_graph, save_graph
from ckt.model import Entity, Span, TraceEvent, TraceLog
from ckt.query.evaluate import evaluate
from ckt.query.parser import FilterClause, QueryAST, Term, TriplePattern, format_query, parse_query
from ckt.query.templates import LabelSearch, NoMatch, match_freeform, run_template
from ckt.smart import (
    AugmentContext,
    change_provenance,
    race_alert_dynamic,
    race_alert_static,
    similar_defects,
)
from conftest import FIXTURES, SCENARIO
from oracles import (
    brute_triangles,
    dense_pagerank,
    dumps_facts,
    lockset_race,
    nested_loop_join,
    round_trips,
)

S2 = "func:src/VHDLPosedge.cc#VHDLPosedge_S2"
VAR1 = "var:src/VHDLPosedge.cc#var1"
CR123_COMMIT = "commit:c0ffee11deadbeef"

PROV = Provenance("source-code", "t:1")


def build_graph(triples, entities=()):
    builder = GraphBuilder()
    for entity in entities:
        builder.add_entity(entity)
    for s, p, o in triples:
        builder.insert_triple(s, p, o, PROV)
    return builder.finalize()


def test_criterion_1_scenario_reproduction(tmp_path):
    from ckt.cli import cmd_build
    from ckt.query.templates import load_registry
    from ckt.smart import augment

    started = time.monotonic()
    work = tmp_path / "scenario"
    shutil.copytree(SCENARIO, work)
    assert cmd_build(work / "manifest.json") == 0
    graph = load_graph(work / "out")
    with open(work / "out" / "trace.jsonl", encoding="utf-8") as fh:
        trace = load_trace(fh)
    registry = load_registry(str(work / "out" / "templates.jsonl"))
    ctx = AugmentContext(graph, trace)

    # (a) the similar-defect search for bug 67 ranks bug 22 first
    ranked = similar_defects(ctx, "bug:CQ/67")
    assert ranked and ranked[0][0] == "bug:CQ/22"

    # (b) change provenance of var1's function returns the CR123 commit first
    commits = change_provenance(ctx, S2)
    assert commits and commits[0].id == CR123_COMMIT
    assert "CR123" in commits[0].label

    # (c) both race detectors fire for the shared variable, with mutex advice
    static = race_alert_static(ctx, VAR1)
    dynamic = race_alert_dynamic(ctx, VAR1)
    assert static is not None and static.kind == "race-static"
    assert dynamic is not None and dynamic.kind == "race-dynamic"
    result = evaluate(graph, parse_query(f"SELECT ?v WHERE {{ {S2} writes ?v }}"))
    augmented = augment(result, ctx)
    advice = [a for a in augmented.alerts if a.kind == "mutex-advice"]
    assert advice and "add mutex locks" in advice[0].message

    # (d) the template returns exactly bugs 67 and 22
    rows = run_template("bugs-affecting-function", {"func": S2}, graph, registry).rows
    assert {r[0] for r in rows} == {"bug:CQ/22", "bug:CQ/67"}

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"scenario run took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1: scenario reproduction (a-d) PASS in {elapsed:.2f}s")


def _random_graph_and_query(rng):
    nodes = [f"func:r#n{i}" for i in range(rng.randint(2, 10))]
    preds = ["calls", "reads", "fixes", "touches", "precedes"]
    triples = set()
    for _ in range(rng.randint(1, 50)):
        triples.add((rng.choice(nodes), rng.choice(preds), rng.choice(nodes)))
    triples = sorted(triples)
    graph = build_graph(triples)
    var_pool = ["a", "b", "c"]
    patterns, used = [], set()
    for _ in range(rng.randint(1, 4)):
        base = rng.choice(triples)
        terms = []
        for value in base:
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
    filters = tuple(
        FilterClause(
            rng.choice(sorted(used)),
            rng.choice(["=", "!=", "CONTAINS", "<", ">="]),
            rng.choice([rng.choice(nodes), "calls", "n1", "zzz"]),
        )
        for _ in range(rng.randint(0, 2))
    )
    return graph, QueryAST(select, tuple(patterns), filters, None), triples


def test_criterion_2_query_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20150712)
    mismatches = 0
    total = 500
    for _ in range(total):
        graph, ast, triples = _random_graph_and_query(rng)
        entities = {eid: (e.label, e.attrs) for eid, e in graph.entities.items()}
        mine = set(evaluate(graph, ast).rows)
        oracle = nested_loop_join(triples, ast, entities)
        if mine != oracle:
            mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 60.0, f"{total} queries took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2: {total} random queries, 0 mismatches PASS in {elapsed:.1f}s")


def test_criterion_3_pagerank():
    # conservation at every iteration
    graph = build_graph([
        ("func:a#a", "calls", "func:a#b"),
        ("func:a#b", "calls", "func:a#c"),
        ("func:a#c", "reads", "func:a#a"),
        ("func:a#d", "calls", "func:a#a"),
    ])
    sums = []
    graph.pagerank(on_iteration=lambda r: sums.append(sum(r.values())))
    assert all(abs(total - 1.0) <= 1e-9 for total in sums)

    # two-node symmetric case
    two = build_graph([
        ("func:a#x", "calls", "func:a#y"),
        ("func:a#y", "calls", "func:a#x"),
    ])
    rank = two.pagerank()
    assert abs(rank["func:a#x"] - 0.5) <= 1e-9
    assert abs(rank["func:a#y"] - 0.5) <= 1e-9

    # 20 random graphs vs the dense oracle
    rng = random.Random(31415)
    for _ in range(20):
        nodes = [f"func:p#n{i}" for i in range(rng.randint(2, 30))]
        triples = sorted({
            (rng.choice(nodes), rng.choice(["calls", "reads", "precedes"]), rng.choice(nodes))
            for _ in range(rng.randint(1, 60))
        })
        g = build_graph(triples)
        mine = g.pagerank()
        oracle = dense_pagerank(list(g.entities), triples)
        for node in g.entities:
            assert abs(mine[node] - oracle[node]) <= 1e-8
    print("ACCEPTANCE 3: pagerank conservation + dense-oracle agreement PASS")


def test_criterion_4_triangles():
    k3 = build_graph([
        ("func:a#a", "calls", "func:a#b"),
        ("func:a#b", "calls", "func:a#c"),
        ("func:a#c", "calls", "func:a#a"),
    ])
    assert k3.count_triangles()[1] == 1
    nodes = [f"func:a#{x}" for x in "abcd"]
    k4 = build_graph([(u, "calls", v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]])
    assert k4.count_triangles()[1] == 4

    rng = random.Random(2718)
    for _ in range(50):
        pool = [f"func:t#n{i}" for i in range(rng.randint(3, 40))]
        triples = sorted({
            (rng.choice(pool), rng.choice(["calls", "reads"]), rng.choice(pool))
            for _ in range(rng.randint(1, 120))
        })
        g = build_graph(triples)
        counts, total = g.count_triangles()
        oracle_counts, oracle_total = brute_triangles(list(g.entities), triples)
        assert counts == oracle_counts and total == oracle_total
        assert sum(counts.values()) == 3 * total
    print("ACCEPTANCE 4: triangle counts exact vs O(n^3) oracle PASS")


def test_criterion_5_lockset_races():
    rng = random.Random(1848)
    for _ in range(100):
        events, seq = [], 0
        for _ in range(rng.randint(1, 200)):
            seq += 1
            tid = rng.randint(1, 3)
            kind = rng.choice(["acquire", "release", "read", "write"])
            target = (
                rng.choice(["L1", "L2", "L3"]) if kind in ("acquire", "release")
                else rng.choice(["var:a#x", "var:a#y"])
            )
            events.append(TraceEvent(seq, tid, kind, target))
        ctx = AugmentContext(build_graph([]), TraceLog(events=events))
        for var in ("var:a#x", "var:a#y"):
            if not any(e.kind in ("read", "write") and e.target == var for e in events):
                continue
            assert (race_alert_dynamic(ctx, var) is not None) == lockset_race(events, var)

    guarded = TraceLog(events=[
        TraceEvent(1, 1, "acquire", "L"), TraceEvent(2, 1, "write", "var:a#g"),
        TraceEvent(3, 1, "release", "L"), TraceEvent(4, 2, "acquire", "L"),
        TraceEvent(5, 2, "write", "var:a#g"), TraceEvent(6, 2, "release", "L"),
    ])
    assert race_alert_dynamic(AugmentContext(build_graph([]), guarded), "var:a#g") is None
    unguarded = TraceLog(events=[
        TraceEvent(1, 1, "acquire", "L"), TraceEvent(2, 1, "write", "var:a#g"),
        TraceEvent(3, 1, "release", "L"), TraceEvent(4, 2, "write", "var:a#g"),
    ])
    unguarded_ctx = AugmentContext(build_graph([]), unguarded)
    alerts = [a for a in [race_alert_dynamic(unguarded_ctx, "var:a#g")] if a]
    assert len(alerts) == 1
    print("ACCEPTANCE 5: lockset detector matches recomputation on 100 traces PASS")


def test_criterion_6_round_trips(tmp_path):
    rng = random.Random(6174)
    # 50 generated graphs survive save/load
    for i in range(50):
        builder = GraphBuilder()
        nodes = [f"func:rt#n{j}" for j in range(rng.randint(1, 12))]
        for j, node in enumerate(nodes):
            span = Span("rt.c", j + 1, j + 1 + rng.randint(0, 5)) if rng.random() < 0.5 else None
            attrs = {"k": str(j)} if rng.random() < 0.5 else {}
            builder.add_entity(Entity(node, "function", f"n{j}", span, attrs))
        for _ in range(rng.randint(0, 25)):
            builder.insert_triple(
                rng.choice(nodes), rng.choice(["calls", "reads", "precedes"]),
                rng.choice(nodes),
                Provenance(rng.choice(["source-code", "trace"]), f"o:{rng.randint(0, 9)}",
                           rng.choice(["", "locks=a,b"])),
            )
        graph = builder.finalize()
        directory = tmp_path / f"g{i}"
        save_graph(graph, builder.sources, directory)
        assert round_trips(directory, graph, builder.sources)

    # neutral facts serialize/load identity
    src = "static int s;\nint g = 1;\nvoid f(int p){ s = p; f(p); h(); }\n"
    facts = parse_source(src, "rt.c")
    assert load_facts(dumps_facts(facts).splitlines()) == facts

    # 100 generated query ASTs survive print->parse
    for _ in range(100):
        ast = _random_ast(rng)
        assert parse_query(format_query(ast)) == ast
    print("ACCEPTANCE 6: graph/facts/query round trips PASS")


def _random_ast(rng):
    var_pool = ["a", "b", "c", "d"]
    ids_pool = ["func:a#f", "var:a#x", "bug:t/1", "file:z.c"]
    patterns, used = [], set()
    for _ in range(rng.randint(1, 4)):
        def term(position):
            roll = rng.random()
            if roll < 0.45:
                name = rng.choice(var_pool)
                used.add(name)
                return Term("var", name)
            if position == "p":
                return Term("id", rng.choice(["calls", "reads", "fixes"]))
            if position == "o" and roll > 0.8:
                return Term("literal", rng.choice(["int", 'we"ird\\lit', "tab\there", "a b"]))
            return Term("id", rng.choice(ids_pool))

        patterns.append(TriplePattern(term("s"), term("p"), term("o")))
    if not used:
        name = rng.choice(var_pool)
        used.add(name)
        patterns[0] = TriplePattern(Term("var", name), patterns[0].p, patterns[0].o)
    select = tuple(sorted(rng.sample(sorted(used), rng.randint(1, len(used)))))
    filters = tuple(
        FilterClause(rng.choice(sorted(used)),
                     rng.choice(["=", "!=", "<", "<=", ">", ">=", "CONTAINS", "BEFORE", "AFTER"]),
                     rng.choice(["x", "5", "2015-01-01T00:00:00Z", 'needs "quoting"']))
        for _ in range(rng.randint(0, 2))
    )
    limit = rng.choice([None, rng.randint(0, 20)])
    return QueryAST(select, tuple(patterns), filters, limit)


def test_criterion_7_freeform_corpus(scenario_graph, scenario_registry):
    corpus = [
        json.loads(line)
        for line in (FIXTURES / "freeform_corpus.jsonl").read_text().splitlines()
        if line.strip()
    ]
    assert len(corpus) == 20
    resolved = 0
    labels = LabelSearch(scenario_graph)
    for case in corpus:
        routed = match_freeform(case["text"], scenario_registry, labels)
        if case["template"] is None:
            assert isinstance(routed, NoMatch), case["text"]
            assert isinstance(routed.suggestions, list)
        else:
            if (not isinstance(routed, NoMatch)
                    and routed.template == case["template"]
                    and routed.args == case["args"]):
                resolved += 1
    expected = sum(1 for case in corpus if case["template"] is not None)
    assert expected == 18
    assert resolved >= 18, f"only {resolved}/18 phrasings resolved"
    print(f"ACCEPTANCE 7: free-form corpus {resolved}/{expected} resolved PASS")


def test_criterion_8_build_determinism(tmp_path):
    from ckt.cli import cmd_build

    trees = []
    for name in ("one", "two"):
        work = tmp_path / name
        shutil.copytree(SCENARIO, work)
        assert cmd_build(work / "manifest.json") == 0
        # second run over the same output directory must also be stable
        assert cmd_build(work / "manifest.json") == 0
        trees.append(work / "out")
    first, second = trees
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print(f"ACCEPTANCE 8: byte-identical build trees ({len(names)} files) PASS")


def test_criterion_9_stale_comment_validation():
    from ckt.concepts import validate_comment
    from ckt.extraction.comments import associate_comments, extract_comments

    src = (FIXTURES / "staleness.c").read_text()
    facts = parse_source(src, "staleness.c")
    comments = extract_comments(src, "staleness.c")
    assoc = dict(associate_comments(comments, list(facts.entities.values())))
    assert len(comments) == 8

    def scope_of(entity_id):
        idents = {facts.entities[entity_id].label} if entity_id in facts.entities else set()
        for rel in facts.relations:
            if rel.subj == entity_id and rel.pred in ("declares", "reads", "writes", "calls"):
                target = facts.entities.get(rel.obj)
                if target is not None:
                    idents.add(target.label)
        return idents

    expected = {
        "staleness.c: comment freshness fixture": "fresh",
        "tracks counter_total across calls": "fresh",
        "running sum": "fresh",
        "uses legacy_offset to seed the counter": "stale",
        "delegates to bumpCounter for the heavy lifting": "stale",
        "resets counter_total and retry_budget": "stale",
        "returns the current total": "fresh",
        "snapshot of the counter": "fresh",
    }
    correct = 0
    for comment in comments:
        entity_id = assoc[comment.id]
        verdict = "stale" if validate_comment(comment, scope_of(entity_id)) else "fresh"
        if verdict == expected[comment.text]:
            correct += 1
    assert correct == 8, f"{correct}/8 verdicts correct"
    print("ACCEPTANCE 9: stale-comment verdicts 8/8 PASS")
