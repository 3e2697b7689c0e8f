"""Rule-driven response augmentation: race alerts, similar defects, change
provenance, mutex advice, stale-comment flags.

Each rule is explicit and deterministic.  The dynamic race detector reads
the trace's Eraser-style replay: a variable's candidate lockset is the
intersection of the locks held at each of its accesses; an empty lockset
plus multi-threaded access including a write signals a race.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import chain

from ckt import ids
from ckt.config import normalize_tokens
from ckt.errors import DomainError, NotFoundError
from ckt.graph import KnowledgeGraph, call_graph
from ckt.model import Entity, Record, TraceLog
from ckt.query.evaluate import ResultSet
from ckt.textio import parse_timestamp

ALERT_KINDS = frozenset(
    ["race-static", "race-dynamic", "similar-defect", "provenance",
     "mutex-advice", "stale-comment", "warning"]
)

MUTEX_ADVICE = "add mutex locks for reads and writes of {var} in {funcs}"

ALERT_CAP = 10  # alerts kept per response, highest scores first

SIMILARITY_FLOOR = 0.25  # lowest score a similar defect is reported at


class SmartAlert(Record):
    __slots__ = _fields = ("kind", "subject", "evidence", "message", "score")

    def __init__(self, kind: str, subject: str, evidence: list[str], message: str,
                 score: float = 0.0):
        self.kind = kind
        self.subject = subject
        self.evidence = evidence  # triple keys "s|p|o" or trace event seqs "seq:N"
        self.message = message
        self.score = score
        self.__post_init__()

    def __post_init__(self):
        if self.kind not in ALERT_KINDS:
            raise ValueError(f"unknown alert kind {self.kind!r}")
        if not self.evidence:
            raise ValueError("alert evidence must be non-empty")


def _triple_ref(s: str, p: str, o: str) -> str:
    return f"{s}|{p}|{o}"


class AugmentContext:
    """What the rules share for one graph and trace, each part built on
    first use: each variable's accessors, the call graph, one BFS tree per
    race root, the reach index (each function's trees), the bug table, the
    commits touching each entity with each commit's newest-first key, and
    each entity's stale comments.  Every rule reads the graph and the trace
    through it alone.  A query process keeps one for its loaded graph, so
    every response, and every row of it, reads the same indexes.

    It also keeps two rules' verdicts, each computed on the first ask for
    its subject: each global's `race_alert_static` alert or None, and each
    bug's `similar_defects` list.  Both rules are pure functions of the
    graph and these indexes, which never change.  A rule that raises keeps
    no verdict, so it raises again on every ask."""

    def __init__(self, graph: KnowledgeGraph, trace: TraceLog | None = None):
        self.graph = graph
        self.trace = trace
        self.static_races: dict[str, SmartAlert | None] = {}
        self.similar: dict[str, list[tuple[str, float]]] = {}

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
    def root_trees(self) -> list[dict[str, str | None]]:
        """For each race root in id order (each thread entry point and each
        function labeled main), the BFS tree of the call graph from it
        (node -> parent); callees are visited in ascending order, so each
        path is the first shortest one in that order."""
        roots = {o for _, _, o in self.graph.match(ids.THREAD_ROOT_ID, "starts-thread", None)}
        roots.update(eid for eid, entity in self.graph.entities.items()
                     if entity.kind == "function" and entity.label == "main")
        trees = []
        for root in sorted(roots):
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
    def reach(self) -> dict[str, list[dict[str, str | None]]]:
        """Function -> the root trees that contain it, in root order."""
        out: dict[str, list[dict[str, str | None]]] = {}
        for tree in self.root_trees:
            for node in tree:
                out.setdefault(node, []).append(tree)
        return out

    @cached_property
    def bugs(self) -> list[tuple[str, frozenset[str], set[str]]]:
        """Every bug in id order with its tokens and touched entities."""
        return [
            (eid, _bug_tokens(entity), {o for _, _, o in self.graph.match(eid, "touches", None)})
            for eid, entity in self.graph.entities.items()
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


def _kept(verdicts: dict, rule, ctx: AugmentContext, subject: str):
    """rule(ctx, subject), computed on the first ask for `subject` and kept
    in `verdicts`, one of the context's verdict tables."""
    if subject not in verdicts:
        verdicts[subject] = rule(ctx, subject)
    return verdicts[subject]


def _tree_path(tree: dict[str, str | None], target: str) -> list[str]:
    """Root -> target path in a BFS tree that reaches target."""
    path = [target]
    while tree[path[-1]] is not None:
        path.append(tree[path[-1]])
    return path[::-1]


def race_alert_static(ctx: AugmentContext, var: str) -> SmartAlert | None:
    """Alert when an unguarded accessor of a global is reachable from two or
    more distinct roots (thread entry points or main)."""
    graph = ctx.graph
    entity = graph.entity(var)
    if entity.attrs.get("scope") != "global":
        raise DomainError(f"{var} is not a global variable")
    evidence: dict[str, None] = {}  # insertion-ordered set
    racing_funcs: list[str] = []
    for func in ctx.accessors.get(var, ()):
        if (func, "guards", var) in graph:
            continue
        trees = ctx.reach.get(func, ())
        if len(trees) < 2:
            continue
        paths = [_tree_path(tree, func) for tree in trees]
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


def race_alert_dynamic(ctx: AugmentContext, var: str) -> SmartAlert | None:
    """Eraser's verdict for one variable, from the replay of the context's
    trace, which must be loaded."""
    rec = ctx.trace.replay.locksets.get(var)
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


def similar_defects(ctx: AugmentContext, bug: str) -> list[tuple[str, float]]:
    """The five other bugs scoring highest, and at least SIMILARITY_FLOOR,
    by max(token Jaccard, shared touched function)."""
    graph = ctx.graph
    mine_tokens = _bug_tokens(graph.entity(bug))
    mine_touch = {o for _, _, o in graph.match(bug, "touches", None)}
    scored: list[tuple[str, float]] = []
    for eid, other_tokens, touch in ctx.bugs:
        if eid == bug:
            continue
        union = mine_tokens | other_tokens
        jaccard = len(mine_tokens & other_tokens) / len(union) if union else 0.0
        shared = 1.0 if mine_touch & touch else 0.0
        score = max(jaccard, shared)
        if score >= SIMILARITY_FLOOR:
            scored.append((eid, round(score, 4)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:5]


def _bug_tokens(entity: Entity) -> frozenset[str]:
    text = f"{entity.label} {entity.attrs.get('error_strings', '')}"
    return frozenset(normalize_tokens(text))


def change_provenance(ctx: AugmentContext, entity_id: str) -> list[Entity]:
    """The five newest commits touching the entity or its containing file,
    newest first."""
    graph = ctx.graph
    graph.entity(entity_id)
    touching = ctx.touching_commits
    commit_ids = set(touching.get(entity_id, ()))
    path = ids.path_of(entity_id)
    if path is not None:
        fid = ids.file_id(path)
        if fid != entity_id and fid in graph.entities:
            commit_ids.update(touching.get(fid, ()))
    newest = sorted(commit_ids, key=ctx.commit_keys.__getitem__)
    return [graph.entities[c] for c in newest[:5]]


def _alert_key(alert: SmartAlert) -> tuple[float, str, str]:
    return (-alert.score, alert.kind, alert.subject)


def augment(result: ResultSet, ctx: AugmentContext) -> ResultSet:
    """Attach rule-driven alerts to an evaluated result set.

    Dispatch is by binding kind: globals get race checks plus mutex advice,
    bugs get similar defects, code elements get change provenance, and
    anything with a stale comment gets flagged.  Rows are never modified.
    The rules read `ctx`, the context of the graph and trace that a query
    process keeps across responses.  Only the ALERT_CAP alerts first by
    (-score, kind, subject) are kept.

    The rules run in the tiers of _TIERS.  Each visits only its
    candidates among the entities of the rows: those of the kinds its rule
    can alert on, or those with a stale comment.  Once ALERT_CAP held
    alerts sort strictly before the first key the next tier could give, no
    later tier can change the answer, and none runs.  An exception in a
    rule drops every alert its entity holds from the tiers that ran, skips
    the entity in later tiers and adds a warning alert with score 0.0; a
    tier that never runs cannot raise.  Only one entity's alerts can tie
    on (-score, kind, subject), so the order in which a tier visits the
    entities does not change the answer.
    """
    entities = ctx.graph.entities
    values = dict.fromkeys(chain.from_iterable(result.rows))
    by_kind: dict[str, list[Entity]] = {}  # the entities of the rows, in row order, by kind
    for entity in filter(None, map(entities.get, values)):
        by_kind.setdefault(entity.kind, []).append(entity)
    alerts: list[SmartAlert] = []  # each alert's subject is the entity that holds it
    failed: set[str] = set()
    warnings: list[SmartAlert] = []
    dynamic: dict[str, SmartAlert] = {}  # the first tier's dynamic races, for mutex advice
    for first_key, tier, kinds in _TIERS:
        if sum(_alert_key(a) < first_key for a in alerts) >= ALERT_CAP:
            break
        if kinds is None:  # the stale-comment tier, which builds no index for no entity
            stale = ctx.stale_comments if by_kind else {}
            candidates = [entities[value] for value in values if value in stale]
        else:
            candidates = [e for kind in kinds for e in by_kind.get(kind, ())]
        for entity in candidates:
            eid = entity.id
            if eid in failed:
                continue
            try:
                alerts.extend(tier(ctx, entity, dynamic))
            except Exception as exc:  # degrade, never fail the query
                failed.add(eid)
                alerts = [a for a in alerts if a.subject != eid]
                warnings.append(
                    SmartAlert("warning", eid, ["rule-dispatch"],
                               f"augmentation failed for {eid}: {exc}", 0.0)
                )
    alerts += warnings
    alerts.sort(key=_alert_key)
    return ResultSet(result.columns, result.rows, alerts[:ALERT_CAP])


def _is_global(entity: Entity) -> bool:
    return entity.kind == "variable" and entity.attrs.get("scope") == "global"


def _dynamic_races_and_defects(ctx: AugmentContext, entity: Entity,
                               dynamic: dict[str, SmartAlert]) -> list[SmartAlert]:
    eid = entity.id
    if _is_global(entity):
        if ctx.trace is None or eid not in ctx.trace.replay.locksets:
            return []
        alert = race_alert_dynamic(ctx, eid)
        if alert is None:
            return []
        dynamic[eid] = alert
        return [alert]
    if entity.kind != "bug":
        return []
    return [
        SmartAlert(
            kind="similar-defect",
            subject=eid,
            evidence=[other],
            message=f"similar defect: {other} "
                    f"({ctx.graph.entities[other].label}) score {score}",
            score=score,
        )
        for other, score in _kept(ctx.similar, similar_defects, ctx, eid)
    ]


def _static_races(ctx: AugmentContext, entity: Entity,
                  dynamic: dict[str, SmartAlert]) -> list[SmartAlert]:
    """The static race and the mutex advice, which copies the static
    alert's evidence, or else the dynamic one's."""
    if not _is_global(entity):
        return []
    eid = entity.id
    static = _kept(ctx.static_races, race_alert_static, ctx, eid)
    race = static or dynamic.get(eid)
    if race is None:
        return []
    labels = ", ".join(ctx.graph.entities[f].label for f in ctx.accessors.get(eid, ()))
    advice = SmartAlert(
        kind="mutex-advice",
        subject=eid,
        evidence=race.evidence,
        message=MUTEX_ADVICE.format(var=entity.label, funcs=labels or "its accessors"),
        score=0.85,
    )
    return [advice] if static is None else [static, advice]


def _stale_comments(ctx: AugmentContext, entity: Entity,
                    dynamic: dict[str, SmartAlert]) -> list[SmartAlert]:
    stale = ctx.stale_comments.get(entity.id)
    if stale is None:
        return []
    return [
        SmartAlert(
            kind="stale-comment",
            subject=entity.id,
            evidence=[_triple_ref(entity.id, "documented-by", comment)],
            message=f"comment {comment} mentions identifiers absent from scope: {missing}",
            score=0.5,
        )
        for comment, missing in stale
    ]


def _provenance(ctx: AugmentContext, entity: Entity,
                dynamic: dict[str, SmartAlert]) -> list[SmartAlert]:
    commits = change_provenance(ctx, entity.id)
    if not commits:
        return []
    newest = commits[0]
    return [
        SmartAlert(
            kind="provenance",
            subject=entity.id,
            evidence=[c.id for c in commits],
            message=(
                f"last changed by {newest.id} "
                f"({newest.attrs.get('timestamp', '?')}): {newest.label}"
            ),
            score=0.3,
        )
    ]


# The tiers in falling order of the first key (-score, kind, subject) an
# alert of theirs can have: the rule scores above, the best kind at the
# highest score and the empty subject.  Each tier names the entity kinds
# its rule can alert on, or None for the stale-comment tier, which visits
# the entities with a stale comment; it calls its rules by their module
# names when it runs.
_TIERS = (
    ((-1.0, "race-dynamic", ""), _dynamic_races_and_defects,  # similar defects at most 1.0
     ("variable", "bug")),
    ((-0.9, "race-static", ""), _static_races, ("variable",)),  # mutex advice at 0.85
    ((-0.5, "stale-comment", ""), _stale_comments, None),
    ((-0.3, "provenance", ""), _provenance, ("function", "variable", "file", "type", "class")),
)
