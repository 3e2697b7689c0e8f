"""Rule-driven response augmentation: race alerts, similar defects, change
provenance, mutex advice, stale-comment flags.

Each rule is explicit and deterministic.  The dynamic race detector reads
the trace's Eraser-style replay: a variable's candidate lockset is the
intersection of the locks held at each of its accesses; an empty lockset
plus multi-threaded access including a write signals a race.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from ckt import ids
from ckt.config import normalize_tokens
from ckt.errors import DomainError, NotFoundError
from ckt.graph import KnowledgeGraph, call_graph
from ckt.model import Entity, TraceLog
from ckt.query.evaluate import ResultSet
from ckt.textio import parse_timestamp

ALERT_KINDS = frozenset(
    ["race-static", "race-dynamic", "similar-defect", "provenance",
     "mutex-advice", "stale-comment", "warning"]
)

MUTEX_ADVICE = "add mutex locks for reads and writes of {var} in {funcs}"

ALERT_CAP = 10  # alerts kept per response, highest scores first


@dataclass
class SmartAlert:
    kind: str
    subject: str
    evidence: list[str]  # triple keys "s|p|o" or trace event seqs "seq:N"
    message: str
    score: float = 0.0

    def __post_init__(self):
        if self.kind not in ALERT_KINDS:
            raise ValueError(f"unknown alert kind {self.kind!r}")
        if not self.evidence:
            raise ValueError("alert evidence must be non-empty")


def _triple_ref(s: str, p: str, o: str) -> str:
    return f"{s}|{p}|{o}"


class AugmentContext:
    """What the rules share for one graph and trace, each part built on
    first use: each variable's accessors, the call graph, the race roots
    with one BFS tree each, the bug table, the commits touching each entity
    with each commit's newest-first key, and each entity's stale comments.  A query process
    keeps one for its loaded graph, so every response, and every row of
    it, reads the same indexes."""

    def __init__(self, graph: KnowledgeGraph | None, trace: TraceLog | None = None):
        self.graph = graph
        self.trace = trace

    @cached_property
    def call_edges(self) -> dict[str, list[str]]:
        """Caller -> callees in ascending order."""
        return call_graph((s, o) for s, _, o in self.graph.match(None, "calls", None))

    @cached_property
    def accessors(self) -> dict[str, list[str]]:
        """Variable -> the functions that write or read it, in id order."""
        out: dict[str, set[str]] = {}
        for pred in ("writes", "reads"):
            for s, _, o in self.graph.match(None, pred, None):
                out.setdefault(o, set()).add(s)
        return {var: sorted(funcs) for var, funcs in out.items()}

    @cached_property
    def race_roots(self) -> list[str]:
        """Thread entry points plus every function labeled main."""
        roots = {o for _, _, o in self.graph.match(ids.THREAD_ROOT_ID, "starts-thread", None)}
        for eid, entity in self.graph.entities.items():
            if entity.kind == "function" and entity.label == "main":
                roots.add(eid)
        return sorted(roots)

    @cached_property
    def root_trees(self) -> list[dict[str, str | None]]:
        """For each race root, the BFS tree of the call graph from it
        (node -> parent); callees are visited in ascending order, so each
        path is the first shortest one in that order."""
        trees = []
        for root in self.race_roots:
            parent: dict[str, str | None] = {root: None}
            queue = deque([root])
            while queue:
                node = queue.popleft()
                for nxt in self.call_edges.get(node, ()):
                    if nxt not in parent:
                        parent[nxt] = node
                        queue.append(nxt)
            trees.append(parent)
        return trees

    @cached_property
    def bugs(self) -> list[tuple[str, frozenset[str], set[str]]]:
        """Every bug in id order with its tokens and touched entities."""
        return [
            (eid, _bug_tokens(entity), {o for _, _, o in self.graph.match(eid, "touches", None)})
            for eid, entity in sorted(self.graph.entities.items())
            if entity.kind == "bug"
        ]

    @cached_property
    def touching_commits(self) -> dict[str, list[str]]:
        """Entity -> the commits that touch it."""
        out: dict[str, list[str]] = {}
        for s, _, o in self.graph.match(None, "touches", None):
            if s.startswith("commit:"):
                out.setdefault(o, []).append(s)
        return out

    @cached_property
    def commit_keys(self) -> dict[str, tuple[float, str]]:
        """Commit -> its newest-first sort key: the negated timestamp, then
        the id; an unparseable timestamp sorts as 0."""
        keys: dict[str, tuple[float, str]] = {}
        for commits in self.touching_commits.values():
            for cid in commits:
                if cid not in keys:
                    stamp = self.graph.entities[cid].attrs.get("timestamp", "")
                    try:
                        keys[cid] = (-parse_timestamp(stamp).timestamp(), cid)
                    except ValueError:
                        keys[cid] = (0.0, cid)
        return keys

    @cached_property
    def stale_comments(self) -> dict[str, list[tuple[str, str]]]:
        """Entity -> (comment, missing identifiers) of each stale comment
        documenting it, in comment id order."""
        out: dict[str, list[tuple[str, str]]] = {}
        for s, _, o in self.graph.match(None, "documented-by", None):
            comment = self.graph.entities.get(o)
            if comment is not None and comment.attrs.get("stale") == "true":
                out.setdefault(s, []).append((o, comment.attrs.get("missing", "")))
        return out


def _tree_path(tree: dict[str, str | None], target: str) -> list[str] | None:
    """Root -> target path in a BFS tree, or None when target is unreached."""
    if target not in tree:
        return None
    path = [target]
    while tree[path[-1]] is not None:
        path.append(tree[path[-1]])
    return path[::-1]


def race_alert_static(
    graph: KnowledgeGraph, var: str, ctx: AugmentContext | None = None
) -> SmartAlert | None:
    """Alert when an unguarded accessor of a global is reachable from two or
    more distinct roots (thread entry points or main)."""
    entity = graph.entity(var)
    if entity.attrs.get("scope") != "global":
        raise DomainError(f"{var} is not a global variable")
    ctx = ctx or AugmentContext(graph)
    evidence: dict[str, None] = {}  # insertion-ordered set
    racing_funcs: list[str] = []
    for func in ctx.accessors.get(var, ()):
        if (func, "guards", var) in graph:
            continue
        paths = [p for p in (_tree_path(tree, func) for tree in ctx.root_trees) if p is not None]
        if len(paths) < 2:
            continue
        racing_funcs.append(func)
        for path in paths:
            for a, b in zip(path, path[1:]):
                evidence[_triple_ref(a, "calls", b)] = None
        for pred in ("writes", "reads"):
            if (func, pred, var) in graph:
                evidence[_triple_ref(func, pred, var)] = None
    if not racing_funcs:
        return None
    names = ", ".join(graph.entity(f).label for f in racing_funcs)
    return SmartAlert(
        kind="race-static",
        subject=var,
        evidence=list(evidence),
        message=(
            f"potential data race: {entity.label} is accessed without a guard in "
            f"{names}, each reachable from multiple thread roots"
        ),
        score=0.9,
    )


def race_alert_dynamic(trace: TraceLog, var: str) -> SmartAlert | None:
    """Eraser's verdict for one variable, from the trace's replay."""
    rec = trace.replay.locksets.get(var)
    if rec is None:
        raise NotFoundError(f"{var} is not referenced by any trace event")
    if rec.candidate or len(rec.tids) < 2 or not rec.wrote:
        return None
    return SmartAlert(
        kind="race-dynamic",
        subject=var,
        evidence=[f"seq:{seq}" for seq in rec.accesses],
        message=(
            f"data race observed: {var} accessed by threads "
            f"{sorted(rec.tids)} with empty common lockset"
        ),
        score=1.0,
    )


def similar_defects(
    graph: KnowledgeGraph,
    bug: str,
    theta: float = 0.25,
    ctx: AugmentContext | None = None,
) -> list[tuple[str, float]]:
    """The five other bugs scoring highest, and at least `theta`, by
    max(token Jaccard, shared touched function)."""
    mine_tokens = _bug_tokens(graph.entity(bug))
    mine_touch = {o for _, _, o in graph.match(bug, "touches", None)}
    scored: list[tuple[str, float]] = []
    for eid, other_tokens, touch in (ctx or AugmentContext(graph)).bugs:
        if eid == bug:
            continue
        union = mine_tokens | other_tokens
        jaccard = len(mine_tokens & other_tokens) / len(union) if union else 0.0
        shared = 1.0 if mine_touch & touch else 0.0
        score = max(jaccard, shared)
        if score >= theta:
            scored.append((eid, round(score, 4)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:5]


def _bug_tokens(entity: Entity) -> frozenset[str]:
    text = f"{entity.label} {entity.attrs.get('error_strings', '')}"
    return frozenset(normalize_tokens(text))


def change_provenance(
    graph: KnowledgeGraph, entity_id: str, ctx: AugmentContext | None = None
) -> list[Entity]:
    """The five newest commits touching the entity or its containing file,
    newest first."""
    graph.entity(entity_id)
    ctx = ctx or AugmentContext(graph)
    touching = ctx.touching_commits
    commit_ids = set(touching.get(entity_id, ()))
    path = ids.path_of(entity_id)
    if path is not None:
        fid = ids.file_id(path)
        if fid != entity_id and fid in graph.entities:
            commit_ids.update(touching.get(fid, ()))
    newest = sorted(commit_ids, key=ctx.commit_keys.__getitem__)
    return [graph.entities[c] for c in newest[:5]]


def _stale_comment_alerts(
    graph: KnowledgeGraph, entity_id: str, ctx: AugmentContext | None = None
) -> list[SmartAlert]:
    return [
        SmartAlert(
            kind="stale-comment",
            subject=entity_id,
            evidence=[_triple_ref(entity_id, "documented-by", comment)],
            message=f"comment {comment} mentions identifiers absent from scope: {missing}",
            score=0.5,
        )
        for comment, missing in (ctx or AugmentContext(graph)).stale_comments.get(entity_id, ())
    ]


def augment(
    result: ResultSet,
    graph: KnowledgeGraph,
    trace: TraceLog | None = None,
    ctx: AugmentContext | None = None,
) -> ResultSet:
    """Attach rule-driven alerts to an evaluated result set.

    Dispatch is by binding kind: globals get race checks plus mutex advice,
    bugs get similar defects, code elements get change provenance, and
    anything with a stale comment gets flagged.  Rows are never modified;
    failures degrade to warning alerts.  The rules read `ctx`, the context
    of `graph` and `trace` that a query process keeps across responses;
    without one they share a new one for this response.  Only the
    ALERT_CAP highest-scoring alerts are kept.
    """
    ctx = ctx or AugmentContext(graph, trace)
    alerts: list[SmartAlert] = []
    seen_entities = dict.fromkeys(
        value for row in result.rows for value in row if value in graph.entities
    )
    for eid in seen_entities:
        entity = graph.entities[eid]
        try:
            alerts.extend(_alerts_for(entity, graph, ctx))
        except Exception as exc:  # degrade, never fail the query
            alerts.append(
                SmartAlert("warning", eid, ["rule-dispatch"],
                           f"augmentation failed for {eid}: {exc}", 0.0)
            )
    alerts.sort(key=lambda a: (-a.score, a.kind, a.subject))
    return ResultSet(result.columns, result.rows, alerts[:ALERT_CAP])


def _alerts_for(entity: Entity, graph: KnowledgeGraph, ctx: AugmentContext) -> list[SmartAlert]:
    out: list[SmartAlert] = []
    eid = entity.id
    if entity.kind == "variable" and entity.attrs.get("scope") == "global":
        static = race_alert_static(graph, eid, ctx)
        dynamic = None
        if ctx.trace is not None and eid in ctx.trace.replay.locksets:
            dynamic = race_alert_dynamic(ctx.trace, eid)
        out.extend(a for a in (static, dynamic) if a is not None)
        if static is not None or dynamic is not None:
            labels = ", ".join(graph.entities[f].label for f in ctx.accessors.get(eid, ())
                               if f in graph.entities)
            out.append(
                SmartAlert(
                    kind="mutex-advice",
                    subject=eid,
                    evidence=(static or dynamic).evidence,
                    message=MUTEX_ADVICE.format(var=entity.label, funcs=labels or "its accessors"),
                    score=0.85,
                )
            )
    elif entity.kind == "bug":
        ranked = similar_defects(graph, eid, ctx=ctx)
        for other, score in ranked:
            out.append(
                SmartAlert(
                    kind="similar-defect",
                    subject=eid,
                    evidence=[other],
                    message=f"similar defect: {other} "
                            f"({graph.entities[other].label}) score {score}",
                    score=score,
                )
            )
    if entity.kind in ("function", "variable", "file", "type", "class"):
        commits = change_provenance(graph, eid, ctx)
        if commits:
            newest = commits[0]
            out.append(
                SmartAlert(
                    kind="provenance",
                    subject=eid,
                    evidence=[c.id for c in commits],
                    message=(
                        f"last changed by {newest.id} "
                        f"({newest.attrs.get('timestamp', '?')}): {newest.label}"
                    ),
                    score=0.3,
                )
            )
    out.extend(_stale_comment_alerts(graph, eid, ctx))
    return out
