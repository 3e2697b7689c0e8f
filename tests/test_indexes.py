"""Indexed lookups against the naive per-item scans in oracles.py: the
build's function features, entities by file, comment scopes and
bug/commit/comment linking, and the query path's race reachability,
free-form label resolution and alert rules sharing one context across
responses."""

from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ckt import smart
from ckt.build import _scope_identifiers
from ckt.concepts import _entity_tokens, compute_features, feature_names
from ckt.config import Ontology, normalize_tokens, split_identifier
from ckt.graph import GraphBuilder, Provenance
from ckt.errors import ConflictError
from ckt.history import (
    BugRecord,
    Change,
    Commit,
    link_bugs_code,
    link_bugs_commits,
    link_commit_entities,
)
from ckt.ids import THREAD_ROOT_ID
from ckt.model import Comment, Entity, FactSet, Relation, Span, TraceEvent, TraceLog
from ckt.query.evaluate import ResultSet, evaluate
from ckt.query.parser import parse_query
from ckt.query.templates import LabelSearch, _resolve_entity
from ckt.smart import AugmentContext, augment, race_alert_static, similar_defects

PATHS = ["a.c", "lib/b.c", "c.h"]
FUNC_NAMES = ["f", "divideRange", "halve_it", "memoFib", "greedyPick"]
VAR_NAMES = ["count", "buf_len", "cacheMap"]
WORDS = ["split", "the", "range", "memoize", "greedy", "choice", "x_1"]


def ontology():
    ont = Ontology()
    ont.add("divide and conquer", ["divide", "halve", "split the range"], "dc")
    ont.add("dynamic programming", ["memoize", "memo"], "dp")
    ont.add("greedy", ["greedy choice"], "greedy")
    return ont


@st.composite
def projects(draw):
    """A FactSet merged from per-file parts, with cross-file calls
    (self-loops, cycles, calls to unknown ids), variable accesses and
    documented-by comments, plus a trace of nested and unbalanced
    enter/exit events on several threads."""
    parts = []
    funcs, variables, subjects = [], [], []
    for path in draw(st.lists(st.sampled_from(PATHS), min_size=1, max_size=3, unique=True)):
        part = FactSet()
        part.add_entity(Entity(f"file:{path}", "file", path.rpartition("/")[2], Span(path, 1, 200)))
        subjects.append(f"file:{path}")
        names = draw(st.lists(st.sampled_from(FUNC_NAMES), min_size=1, max_size=4, unique=True))
        for i, name in enumerate(names):
            fid = f"func:{path}#{name}"
            part.add_entity(Entity(fid, "function", name, Span(path, 10 * i + 1, 10 * i + 9)))
            funcs.append(fid)
        for name in draw(st.lists(st.sampled_from(VAR_NAMES), max_size=2, unique=True)):
            vid = f"var:{path}#{name}"
            part.add_entity(Entity(vid, "variable", name, Span(path, 100, 100)))
            variables.append(vid)
        if draw(st.booleans()):
            part.add_entity(Entity(f"type:{path}#node", "type", "node", Span(path, 150, 160)))
        parts.append(part)
    facts = FactSet()
    for part in parts:
        facts.merge(part)
    subjects += funcs + variables
    callees = funcs + ["func:ext.c#unknown"]
    objects = callees + variables
    for _ in range(draw(st.integers(0, 14))):
        subj = draw(st.sampled_from(subjects))
        pred = draw(st.sampled_from(["calls", "calls", "declares", "reads", "writes", "has-type"]))
        obj = draw(st.sampled_from(callees if pred == "calls" else objects))
        facts.add_relation(Relation(subj, pred, obj))
    for line in draw(st.lists(st.integers(1, 60), max_size=5, unique=True)):
        path = draw(st.sampled_from(PATHS))
        cid = f"comment:{path}#L{line}"
        tokens = " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=5)))
        facts.add_entity(Entity(cid, "comment", "c", Span(path, line, line), {"tokens": tokens}))
        facts.add_relation(Relation(draw(st.sampled_from(subjects)), "documented-by", cid, line))
    traced = funcs[:2]  # few (function, tid) pairs, so exits often come first
    events = draw(st.lists(
        st.tuples(st.integers(1, 2), st.sampled_from(["enter", "enter", "exit", "read"]),
                  st.sampled_from(traced)),
        max_size=25,
    ))
    trace = TraceLog([TraceEvent(seq, tid, kind, target)
                      for seq, (tid, kind, target) in enumerate(events, start=1)])
    return facts, trace


def plain(facts):
    entities = {
        eid: (e.kind, e.label, e.span.path if e.span else None, e.attrs.get("tokens", ""))
        for eid, e in facts.entities.items()
    }
    return entities, [(r.subj, r.pred, r.obj) for r in facts.relations]


@settings(deadline=None)
@given(projects(), st.booleans())
def test_batch_features_equal_per_function_oracle(project, with_trace):
    facts, trace = project
    trace = trace if with_trace else None
    events = [(e.tid, e.kind, e.target) for e in trace.events] if trace else []
    entities, relations = plain(facts)
    calls = oracles.call_graph(relations)
    ont = ontology()
    functions = [e for e in facts.sorted_entities() if e.kind == "function"]
    vectors = compute_features(functions, facts, trace, ont)
    assert len(vectors) == len(functions)
    words = {}  # shared, as compute_features shares it
    for func, fv in zip(functions, vectors):
        tokens = oracles.entity_tokens(func.id, entities, relations, split_identifier)
        assert _entity_tokens(func.id, facts, words) == tokens
        hits = ont.hits(tokens)
        assert list(fv) == feature_names(ont)
        assert fv == {
            "f_rec": float(oracles.in_cycle(func.id, calls)),
            "f_multi": float(len(oracles.self_calls(func.id, relations))),
            "f_depth": float(oracles.max_trace_depth(func.id, events)),
            **{f"f_kw_{c}": float(hits.get(c, 0)) for c in ont.concepts()},
        }


# a small vocabulary, so phrases repeat, overlap and prefix one another
_PHRASE = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4).map(" ".join)
_ADDS = st.lists(
    st.tuples(_PHRASE, st.lists(_PHRASE, max_size=3), st.sampled_from(["x", "y", "z"])),
    max_size=6,
)


@settings(deadline=None, max_examples=300)
@given(_ADDS, st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=12))
@example([("a", [], "x")], ["a", "a", "d", "a"])  # a one-token phrase, repeated
@example([("a b", ["a b c", "a"], "x")], ["a", "b", "c", "a", "b"])  # prefixes
@example([("a b c d", [], "x")], ["a", "b", "c"])  # longer than the tokens
@example([("a b", [], "x"), ("b", ["a b"], "y")], ["a", "b", "a", "b"])  # re-added
@example([("a a", [], "x")], ["a", "a", "a"])  # overlapping occurrences
def test_indexed_hits_equal_every_window_scan(adds, tokens):
    ont = Ontology()
    phrases = {}
    for term, synonyms, concept in adds:
        ont.add(term, synonyms, concept)
        for phrase in [term, *synonyms]:
            phrases[tuple(phrase.split())] = concept  # the last add wins
    assert ont.phrases == phrases
    assert ont.hits(tokens) == oracles.ontology_hits(phrases, tokens)


def test_exit_without_enter_does_not_lower_later_depth():
    facts = FactSet()
    facts.add_entity(Entity("func:a.c#f", "function", "f"))
    events = [(1, "exit", "func:a.c#f"), (1, "enter", "func:a.c#f"), (1, "enter", "func:a.c#f"),
              (2, "enter", "func:a.c#f"), (2, "exit", "func:a.c#f"), (2, "exit", "func:a.c#f"),
              (2, "enter", "func:a.c#f")]
    trace = TraceLog([TraceEvent(seq, *event) for seq, event in enumerate(events, start=1)])
    [fv] = compute_features(facts.sorted_entities(), facts, trace, ontology())
    assert fv.get("f_depth") == oracles.max_trace_depth("func:a.c#f", events) == 2


def test_recursion_on_call_chains_deeper_than_the_interpreter_stack():
    n = 3000
    facts = FactSet()
    fids = [f"func:a.c#f{i}" for i in range(n)]
    for fid in fids:
        facts.add_entity(Entity(fid, "function", fid[9:]))
    for caller, callee in zip(fids, fids[1:]):
        facts.add_relation(Relation(caller, "calls", callee))
    functions = facts.sorted_entities()
    assert all(fv.get("f_rec") == 0.0 for fv in compute_features(functions, facts, None, ontology()))
    facts.add_relation(Relation(fids[-1], "calls", fids[0]))
    assert all(fv.get("f_rec") == 1.0 for fv in compute_features(functions, facts, None, ontology()))


@settings(deadline=None)
@given(projects())
def test_indexed_scopes_equal_per_comment_oracle(project):
    facts, _ = project
    entities, relations = plain(facts)
    for eid in [*facts.entities, "", "func:ext.c#unknown"]:
        assert _scope_identifiers(eid, facts) == \
            oracles.scope_identifiers(eid, entities, relations), eid


SPAN_IDS = [("file:a.c", "file"), ("file:lib/b.c", "file"), ("func:a.c#f", "function"),
            ("func:a.c#g", "function"), ("func:lib/b.c#f", "function"), ("var:a.c#v", "variable"),
            ("type:c.h#t", "type"), ("class:c.h#k", "class"), ("comment:a.c#L3", "comment")]
# an entity as (id and kind, label, span as (path, start) or None, attrs); the
# span's path need not be the id's, as a facts file may say
_SPANNED = st.tuples(st.sampled_from(SPAN_IDS), st.sampled_from(["f", "g", "v"]),
                     st.none() | st.tuples(st.sampled_from(PATHS), st.integers(1, 3)),
                     st.sampled_from([{}, {"k": "1"}, {"k": "2"}]))
_ENTITY_OPS = st.lists(st.tuples(st.just("add"), _SPANNED, st.booleans())
                       | st.tuples(st.just("merge"), st.lists(_SPANNED, max_size=4)), max_size=12)


def _entity(spec):
    (eid, kind), label, span, attrs = spec
    return Entity(eid, kind, label, span and Span(span[0], span[1], span[1] + 5), dict(attrs))


@settings(deadline=None, max_examples=300)
@given(_ENTITY_OPS)
def test_entities_by_path_index_equals_per_pass_scans(ops):
    facts = FactSet()
    for op, *args in ops:
        try:
            if op == "add":
                facts.add_entity(_entity(args[0]), merge=args[1])
            else:
                part = FactSet()
                for spec in args[0]:
                    try:
                        part.add_entity(_entity(spec))
                    except ConflictError:
                        pass
                facts.merge(part)
        except ConflictError:
            pass
    entities, _ = plain(facts)
    spanned = oracles.spanned_by_path(entities)
    labels = oracles.scope_labels_by_path(entities)
    functions = oracles.functions_by_path(entities)
    for path in PATHS:
        found = [e.id for e in facts.entities_in(path)]
        assert len(found) == len(set(found)) and set(found) == spanned.get(path, set())
    for eid, (kind, label, path, _) in entities.items():
        if kind == "file" and path is not None:
            assert _scope_identifiers(eid, facts) == {label} | labels.get(path, set())
    commits = [Commit("c1", "A", "a@x", "2015-01-01T00:00:00Z", "edit",
                      [Change(path, added=[(1, 10**6)]) for path in PATHS])]
    touched = {}
    for _, pred, obj, tag in link_commit_entities(commits, facts):
        if tag == "snapshot-approx":
            touched.setdefault(facts.entities[obj].span.path, []).append(obj)
    assert {path: sorted(fids) for path, fids in touched.items()} == functions


HEX_IDS = ["feedc0ffee12", "feedc0ffee34", "feedc0f", "abcdef0123456789", "FEEDC0FFEE99", "c1"]
SUMMARY_BITS = ["CR12", "cr123", "xCR1y", "CR", "cr٣", "fix", "7", " ", "CR4cr45"]
CR_TOKENS = ["CR1", "CR12", "CR123", "CR4", "CR45", "CR٣", "CR9"]
HASH_TOKENS = ["feedc0f", "feedc0ffee", "feedc0ffee12", "abcdef0", "0000000"]


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(HEX_IDS), st.lists(st.sampled_from(SUMMARY_BITS), max_size=4)),
             max_size=6),
    st.lists(st.lists(st.sampled_from(CR_TOKENS + HASH_TOKENS), max_size=4, unique=True),
             max_size=4),
)
def test_indexed_mentions_equal_bugs_by_commits_scan(raw_commits, raw_mentions):
    commits = [Commit(cid, "A", "a@x", "2015-01-01T00:00:00Z", "".join(bits))
               for cid, bits in raw_commits]
    bugs = [BugRecord(f"CQ/{i}", "CQ", "t", "", "open", "2015-01-01", None, "", mentions=m)
            for i, m in enumerate(raw_mentions)]
    triples, _ = link_bugs_commits(bugs, commits)
    assert [(s, o) for s, p, o, _ in triples if p == "mentions"] == oracles.bug_commit_mentions(
        [(b.entity_id, b.mentions) for b in bugs],
        [(c.id, c.entity_id, c.summary) for c in commits],
    )


IDENTS = ["s162", "x_1", "buf_len", "e404", "q_q"]


@settings(deadline=None)
@given(st.data())
def test_indexed_comment_tokens_equal_comment_scan(data):
    facts = FactSet()
    targets = []
    for i, name in enumerate(["f", "g", "h"]):
        facts.add_entity(Entity(f"func:a.c#{name}", "function", name, Span("a.c", i * 10 + 1, i * 10 + 9)))
        targets.append(f"func:a.c#{name}")
    facts.add_entity(Entity("var:a.c#v", "variable", "v", Span("a.c", 40, 40)))
    targets += ["var:a.c#v", "func:gone.c#f"]
    comments, associations = [], []
    for line in data.draw(st.lists(st.integers(1, 50), max_size=8, unique=True)):
        tokens = data.draw(st.lists(st.sampled_from(IDENTS + ["plain"]), max_size=3))
        comment = Comment("c", Span("a.c", line, line), "line", tokens)
        comments.append(comment)
        associations.append((comment.id, data.draw(st.sampled_from(targets))))
    titles = data.draw(st.lists(st.lists(st.sampled_from(IDENTS), max_size=3), max_size=4))
    bugs = [BugRecord(f"CQ/{i}", "CQ", " ".join(words), "", "open", "2015-01-01", None, "")
            for i, words in enumerate(titles)]

    comment_function = {cid: eid for cid, eid in associations
                        if eid in facts.entities and facts.entities[eid].kind == "function"}
    comment_tokens = {c.id: set(c.tokens) for c in comments}
    expected = []
    for bug, words in zip(bugs, titles):
        grounded = oracles.comment_grounded_functions(set(words), comment_function, comment_tokens)
        expected += dict.fromkeys((bug.entity_id, fid) for fid in grounded)
    triples = link_bugs_code(bugs, facts, dict(associations), comments, [])
    assert [(s, o) for s, _, o, _ in triples] == expected


# -- query path -----------------------------------------------------------------

PROV = Provenance("source-code", "r.c:1")
GLOBALS = ["var:r.c#g0", "var:r.c#g1", "var:r.c#g2"]


@st.composite
def race_graphs(draw):
    """Call graphs with cycles and self-calls, several thread entry points
    and functions named main, and reads, writes and guards of globals."""
    n = draw(st.integers(2, 9))
    funcs = [f"func:r.c#f{i}" for i in range(n)]
    builder = GraphBuilder()
    builder.add_entity(Entity(THREAD_ROOT_ID, "thread-root", "thread-root"))
    for i, fid in enumerate(funcs):
        label = "main" if draw(st.integers(0, 3)) == 0 else f"f{i}"
        builder.add_entity(Entity(fid, "function", label))
    for var in GLOBALS:
        builder.add_entity(Entity(var, "variable", var[-2:], attrs={"scope": "global"}))
    for _ in range(draw(st.integers(0, 3 * n))):
        builder.insert_triple(draw(st.sampled_from(funcs)), "calls",
                              draw(st.sampled_from(funcs)), PROV)
    for fid in draw(st.lists(st.sampled_from(funcs), max_size=3, unique=True)):
        builder.insert_triple(THREAD_ROOT_ID, "starts-thread", fid, PROV)
    for _ in range(draw(st.integers(0, 2 * n))):
        builder.insert_triple(draw(st.sampled_from(funcs)),
                              draw(st.sampled_from(["reads", "writes", "writes", "guards"])),
                              draw(st.sampled_from(GLOBALS)), PROV)
    return builder.finalize()


def assert_race_alerts_match_oracle(graph, variables):
    entities = {eid: (e.kind, e.label) for eid, e in graph.entities.items()}
    keys = set(graph.triples())
    ctx = AugmentContext(graph)  # one context for the whole response
    for var in variables:
        for alert in (race_alert_static(ctx, var), race_alert_static(AugmentContext(graph), var)):
            expected = oracles.race_static(var, entities, keys)
            if expected is None:
                assert alert is None
                continue
            racing, evidence = expected
            assert alert.evidence == evidence
            names = ", ".join(entities[f][1] for f in racing)
            assert f" in {names}, each reachable" in alert.message


@settings(max_examples=150, deadline=None)
@given(race_graphs())
def test_race_alerts_from_shared_bfs_trees_equal_per_pair_oracle(graph):
    assert_race_alerts_match_oracle(graph, GLOBALS)


def test_race_alerts_on_scenario_equal_per_pair_oracle(scenario_graph):
    variables = [eid for eid, e in scenario_graph.entities.items()
                 if e.kind == "variable" and e.attrs.get("scope") == "global"]
    assert variables
    assert_race_alerts_match_oracle(scenario_graph, variables)


LABEL_WORDS = ["ring", "buffer", "save", "button", "pick", "lock"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(LABEL_WORDS), max_size=3), min_size=1, max_size=12),
       st.lists(st.sampled_from(LABEL_WORDS + ["other"]), max_size=5))
def test_label_index_resolution_equals_label_scan(labels, tokens):
    builder = GraphBuilder()
    for i, words in enumerate(labels):
        builder.add_entity(Entity(f"concept:c{i:02d}", "concept", " ".join(words)))
    graph = builder.finalize()
    scanned = [(eid, tuple(normalize_tokens(graph.entities[eid].label)))
               for eid in sorted(graph.entities)]
    scanned = [(eid, toks) for eid, toks in scanned if toks]
    assert _resolve_entity(tokens, LabelSearch(graph)) == oracles.resolve_entity(tokens, scanned)


# label words with stopwords, marks that normalize_tokens strips or keeps,
# characters whose lower() is longer ("İ") or depends on what follows
# ("Σ" at the end of a word), and words that hold other words
SEARCH_WORDS = ["ring", "buffer", "ring_buffer", "the", "of", "-ring", "ring-", "#22", "bug#22",
                "_x", "x_", "İx", "xİ", "ΑΣ", "σ", "xΣ", "x", "ix", "1", "m027_trim"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(SEARCH_WORDS), max_size=4).map(" ".join),
                min_size=1, max_size=14),
       st.lists(st.lists(st.sampled_from(SEARCH_WORDS), max_size=3).map(" ".join), max_size=4))
def test_label_search_resolves_every_token_run_as_the_full_label_index(labels, questions):
    """Drawn labels, duplicates among them, resolve each drawn question's
    tokens as the tables over every label resolve them, and the search's
    tables hold the full tables' entry for every run of those tokens, the
    unique (None) entries too; one search serves the questions in turn, as
    a REPL session's does."""
    builder = GraphBuilder()
    for i, label in enumerate(labels):
        builder.add_entity(Entity(f"concept:c{i:02d}", "concept", label))
    graph = builder.finalize()
    search, oracle = LabelSearch(graph), oracles.LabelIndex(graph)
    full = oracle.tables()
    for question in questions:
        tokens = normalize_tokens(question)
        assert _resolve_entity(tokens, search) == _resolve_entity(tokens, oracle)
        tables = search.tables(tokens)
        for start in range(len(tokens)):
            for stop in range(start + 1, len(tokens) + 1):
                run = tuple(tokens[start:stop])
                assert [t.get(run) for t in tables] == [t.get(run) for t in full], run


# timestamps as commit exports give them, plus ones no parser accepts
STAMPS = ["2015-01-02T00:00:00Z", "2015-01-02T00:00:00", "2015-01-02T01:00:00+02:00",
          "2014-12-31", "", "yesterday"]
RULE_PREDICATES = ["calls", "reads", "writes", "guards", "touches", "documented-by", "declares",
                   "fixes"]


@st.composite
def rule_graphs(draw):
    """Graphs with every kind the alert rules dispatch on: functions in two
    files (some named main, some thread entry points), globals read,
    written and guarded, commits with well-formed, naive and unparseable
    timestamps touching functions, globals and files, bugs touching
    functions, and stale and current comments; plus a trace of accesses."""
    builder = GraphBuilder()
    funcs = [f"func:{path}#f{i}" for path in ("a.c", "b.c") for i in range(draw(st.integers(1, 3)))]
    for i, fid in enumerate(funcs):
        builder.add_entity(Entity(fid, "function", "main" if draw(st.integers(0, 3)) == 0 else f"f{i}"))
    for var in GLOBALS:
        builder.add_entity(Entity(var, "variable", var[-2:], attrs={"scope": "global"}))
        if draw(st.booleans()):
            builder.insert_triple(var, "has-type", draw(st.sampled_from(["int", "long"])), PROV)
    files = ["file:a.c", "file:b.c", "file:r.c"]
    code = funcs + GLOBALS + files
    builder.add_entity(Entity(THREAD_ROOT_ID, "thread-root", "thread-root"))
    for fid in draw(st.lists(st.sampled_from(funcs), max_size=2, unique=True)):
        builder.insert_triple(THREAD_ROOT_ID, "starts-thread", fid, PROV)
    for _ in range(draw(st.integers(0, 8))):
        builder.insert_triple(draw(st.sampled_from(funcs)), "calls", draw(st.sampled_from(funcs)), PROV)
    for _ in range(draw(st.integers(0, 8))):
        builder.insert_triple(draw(st.sampled_from(funcs)),
                              draw(st.sampled_from(["reads", "writes", "guards"])),
                              draw(st.sampled_from(GLOBALS)), PROV)
    for path in ("a.c", "b.c"):
        builder.insert_triple(f"file:{path}", "declares", f"func:{path}#f0", PROV)
    for i in range(draw(st.integers(0, 6))):
        cid = f"commit:c{i}"
        builder.add_entity(Entity(cid, "commit", f"change {i}",
                                  attrs={"timestamp": draw(st.sampled_from(STAMPS))}))
        for target in draw(st.lists(st.sampled_from(code), min_size=1, max_size=3, unique=True)):
            builder.insert_triple(cid, "touches", target, PROV)
    for i in range(draw(st.integers(0, 8))):  # more than the five similar defects kept
        bid = f"bug:T/{i}"
        builder.add_entity(Entity(bid, "bug", " ".join(draw(st.lists(
            st.sampled_from(["crash", "save", "race", "lock", "ring"]), min_size=1, max_size=4)))))
        for target in draw(st.lists(st.sampled_from(funcs), max_size=2, unique=True)):
            builder.insert_triple(bid, "touches", target, PROV)
    for line in draw(st.lists(st.integers(1, 40), max_size=5, unique=True)):
        comment = f"comment:a.c#L{line}"
        attrs = {"stale": draw(st.sampled_from(["true", "false"]))}
        if draw(st.booleans()):
            attrs["missing"] = draw(st.sampled_from(["x", "x y"]))
        builder.add_entity(Entity(comment, "comment", "c", attrs=attrs))
        for target in draw(st.lists(st.sampled_from(code), min_size=1, max_size=2, unique=True)):
            builder.insert_triple(target, "documented-by", comment, PROV)
    graph = builder.finalize()
    events = draw(st.lists(st.tuples(st.integers(1, 2),
                                     st.sampled_from(["read", "write", "acquire", "release"]),
                                     st.sampled_from(GLOBALS + ["L"])), max_size=12))
    trace = TraceLog([TraceEvent(seq, tid, kind, "L" if kind in ("acquire", "release") else target)
                      for seq, (tid, kind, target) in enumerate(events, start=1)])
    return graph, trace


@st.composite
def selects(draw, graph):
    """A SELECT with one pattern: both ends free, or one bound to an id.
    When some bug touches an entity, three in four are `?s touches ?o` or
    `?s touches` one of those entities, so their rows hold bugs and the
    similar-defect alerts get compared."""
    bug_touched = sorted({o for s, _, o in graph.match(None, "touches", None)
                          if s.startswith("bug:")})
    if bug_touched and draw(st.integers(0, 3)):
        target = draw(st.sampled_from([None, *bug_touched]))
        if target is None:
            return "SELECT ?s ?o WHERE { ?s touches ?o }"
        return f"SELECT ?s WHERE {{ ?s touches {target} }}"
    pred = draw(st.sampled_from(RULE_PREDICATES))
    shape = draw(st.sampled_from(["both", "subject", "object"]))
    if shape == "both":
        return f"SELECT ?s ?o WHERE {{ ?s {pred} ?o }}"
    bound = draw(st.sampled_from(sorted(graph.entities)))
    if shape == "subject":
        return f"SELECT ?o WHERE {{ {bound} {pred} ?o }}"
    return f"SELECT ?s WHERE {{ ?s {pred} {bound} }}"


@settings(max_examples=150, deadline=None)
@given(rule_graphs())
def test_similar_defects_from_the_bug_table_equal_all_pairs_oracle(graph_and_trace):
    graph, _ = graph_and_trace
    ctx = AugmentContext(graph)  # one bug table for every bug
    for bug in sorted(eid for eid, e in graph.entities.items() if e.kind == "bug"):
        assert similar_defects(ctx, bug) == oracles.brute_similar_defects(graph, bug), bug


@settings(max_examples=150, deadline=None)
@given(rule_graphs())
def test_per_subject_reads_equal_the_whole_graph_tables(graph_and_trace):
    """Each function's callees as the race roots' BFS reads them, each
    global's accessors and each entity's touching commits, newest first,
    read per subject from the graph's indexes, equal the entries of the
    alert context's old whole-graph tables, in order."""
    graph, _ = graph_and_trace
    edges = oracles.call_edges(graph)
    for fid in (eid for eid, e in graph.entities.items() if e.kind == "function"):
        assert [o for _, _, o in graph.match(fid, "calls", None)] == edges.get(fid, []), fid
    table = oracles.accessors(graph)
    for var in GLOBALS:
        assert smart._accessors(graph, var) == table.get(var, []), var
    touching = oracles.touching_commits(graph)
    keys = oracles.commit_keys(graph, touching)
    ctx = AugmentContext(graph)
    for eid in graph.entities:
        assert ([c.id for c in smart.change_provenance(ctx, eid)]
                == oracles.provenance_from_tables(graph, eid, touching, keys)), eid


@settings(max_examples=150, deadline=None)
@given(rule_graphs())
def test_stale_verdicts_read_per_entity_equal_the_whole_graph_table(graph_and_trace):
    """Each entity's stale comments, read per entity, and each literal's,
    equal the entry of the alert context's old whole-graph table, in
    order; a value absent from the table, a literal or a value that is no
    term among them, has none."""
    graph, _ = graph_and_trace
    table = oracles.stale_comments(graph)
    ctx = AugmentContext(graph)
    literals = sorted({o for _, _, o in graph.match(None, "has-type", None)})
    for value in [*graph.entities, *literals, "comment:a.c#L99", "x"]:
        assert smart.stale_comments(ctx, value) == table.get(value, []), value


def assert_alerts_match_oracle(graph, trace, queries, cap):
    ctx = AugmentContext(graph, oracles.locksets(trace))  # one context for every response
    for text in queries:
        result = evaluate(graph, parse_query(text))
        with patch.object(smart, "ALERT_CAP", cap):
            alerts = augment(result, ctx).alerts
        assert alerts == oracles.augment_per_response(result, graph, trace, cap).alerts, text


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_alerts_from_one_shared_context_equal_per_response_oracle(data):
    graph, trace = data.draw(rule_graphs())
    queries = data.draw(st.lists(selects(graph), min_size=1, max_size=6))
    cap = data.draw(st.sampled_from([1, 10, 11, 1000, 10**6]))
    assert_alerts_match_oracle(graph, data.draw(st.sampled_from([trace, None])), queries, cap)


def test_alerts_on_scenario_from_one_shared_context_equal_per_response_oracle(
        scenario_graph, scenario_trace):
    queries = [f"SELECT ?s ?o WHERE {{ ?s {pred} ?o }}" for pred in RULE_PREDICATES]
    assert_alerts_match_oracle(scenario_graph, scenario_trace, queries * 2, 10**6)


# bug pairs whose two bugs score each other exactly this much: the token
# numbers of their labels, equal, 9 shared of 10, 1 of 2 and 3 of 10
PAIR_TOKENS = {
    1.0: (range(1), range(1)),
    0.9: (range(9), range(10)),
    0.5: (range(1), range(2)),
    0.3: (range(6), [0, 1, 2, 6, 7, 8, 9]),
}


def tier_graph(n_globals, pair_scores, static, provenance, stale):
    """Globals that two threads write with no lock held, reachable from
    main and, when `static`, from a thread root too; a commit touching them
    and their writer when `provenance`; a stale comment on each when
    `stale`; one bug pair per score.  Returns the graph, the trace and the
    entities the rows may hold."""
    builder = GraphBuilder()
    main, worker = "func:t.c#main", "func:t.c#worker"
    builder.add_entity(Entity(THREAD_ROOT_ID, "thread-root", "thread-root"))
    builder.add_entity(Entity(main, "function", "main"))
    builder.add_entity(Entity(worker, "function", "worker"))
    builder.insert_triple(main, "calls", worker, PROV)
    if static:
        builder.insert_triple(THREAD_ROOT_ID, "starts-thread", worker, PROV)
    if provenance:
        builder.add_entity(Entity("commit:c0", "commit", "touch all",
                                  attrs={"timestamp": "2015-01-02T00:00:00Z"}))
        builder.insert_triple("commit:c0", "touches", worker, PROV)
    events = []
    variables = [f"var:t.c#g{i:02d}" for i in range(n_globals)]
    for i, var in enumerate(variables):
        builder.add_entity(Entity(var, "variable", var[-3:], attrs={"scope": "global"}))
        builder.insert_triple(worker, "writes", var, PROV)
        for tid in (1, 2):
            events.append(TraceEvent(len(events) + 1, tid, "write", var))
        if provenance:
            builder.insert_triple("commit:c0", "touches", var, PROV)
        if stale:
            comment = f"comment:t.c#L{i + 1}"
            builder.add_entity(Entity(comment, "comment", "c", attrs={"stale": "true", "missing": "x"}))
            builder.insert_triple(var, "documented-by", comment, PROV)
    bugs = []
    for i, score in enumerate(pair_scores):
        for side, tokens in zip("ab", PAIR_TOKENS[score]):
            bugs.append(f"bug:P/{i}{side}")
            builder.add_entity(Entity(bugs[-1], "bug", " ".join(f"p{i}w{j}" for j in tokens)))
    return builder.finalize(), TraceLog(events), [worker, *variables, *bugs]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.lists(st.sampled_from(sorted(PAIR_TOKENS)), max_size=5),
       st.booleans(), st.booleans(), st.booleans(), st.integers(1, 14), st.integers(0, 30))
# the 10th alert a race-dynamic, the 11th a similar-defect, both at 1.0
@example(10, [1.0], False, True, False, 10, 0)
# the 10th and 11th both similar-defects at 1.0, after 9 race-dynamic
@example(9, [1.0], True, True, True, 10, 3)
# the 10th a similar-defect at 0.9: a race-static at 0.9 sorts before it
@example(9, [0.9], True, True, False, 10, 0)
# ten similar-defects at 0.3: the writer's provenance at 0.3 sorts before them
@example(0, [0.3] * 5, False, True, False, 10, 0)
def test_alerts_tied_across_tier_boundaries_equal_per_response_oracle(
        n_globals, pair_scores, static, provenance, stale, cap, rotation):
    graph, trace, entities = tier_graph(n_globals, pair_scores, static, provenance, stale)
    rotation %= len(entities)
    result = ResultSet(("e",), [(eid,) for eid in entities[rotation:] + entities[:rotation]])
    ctx = AugmentContext(graph, oracles.locksets(trace))
    with patch.object(smart, "ALERT_CAP", 10**6):
        every = augment(result, ctx).alerts
    assert sorted(a.score for a in every if a.kind == "similar-defect") == sorted(pair_scores * 2)
    with patch.object(smart, "ALERT_CAP", cap):
        alerts = augment(result, ctx).alerts
    assert alerts == oracles.augment_per_response(result, graph, trace, cap).alerts
    assert alerts == every[:cap]
