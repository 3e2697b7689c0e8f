"""Rule-driven response augmentation: race alerts, similar defects, change
provenance, mutex advice, stale-comment flags.

Each rule is explicit and deterministic.  The dynamic race detector reads
the locksets of the trace's Eraser-style replay: a variable's candidate
lockset is the intersection of the locks held at each of its accesses;
an empty lockset plus multi-threaded access including a write signals a
race.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from functools import cached_property
from itertools import chain

from ckt import ids
from ckt.config import normalize_tokens
from ckt.errors import DomainError, NotFoundError
from ckt.graph import KnowledgeGraph
from ckt.model import Entity, Lockset, Record
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


class _Kept(dict):
    """Entity id -> the alerts of one tier for that entity, as a tuple,
    made by the tier function on the id's first read and kept.  A tier
    that raises keeps nothing, so it raises again on the next read."""

    __slots__ = ("_tier", "_ctx")

    def __init__(self, tier, ctx: AugmentContext):
        self._tier, self._ctx = tier, ctx

    def __missing__(self, eid: str) -> tuple[SmartAlert, ...]:
        ctx = self._ctx
        alerts = self[eid] = tuple(self._tier(ctx, ctx.graph.entities[eid]))
        return alerts


class AugmentContext:
    """What the rules share for one graph and the locksets of its trace's
    replay (None without a trace).  Every rule reads the graph and the
    locksets through it alone, and reads one subject's callees, accessors,
    touching commits and documenting comments from the graph's own
    indexes (`graph.match`).  A query process keeps one for its loaded
    graph, so every response, and every row of it, reads the same tables.

    Three tables stay whole-graph, each built on first use, because each
    rule that reads one reads most of it: the race roots' trees, the reach
    index and the bugs, found by kind and label in the graph's columns
    (`graph.ids_of`), so only each bug's Entity is made.

    It also keeps, for each tier of _TIERS, one table of each entity's
    alerts from that tier, made on the entity's first read (`kept`).  The
    rules are pure functions of the graph and these tables, which never
    change.  A tier that raises keeps nothing, so it raises again on
    every ask."""

    def __init__(self, graph: KnowledgeGraph, locksets: dict[str, Lockset] | None = None):
        self.graph = graph
        self.locksets = locksets
        self.kept = tuple(_Kept(tier, self) for _, _, tier, _ in _TIERS)

    @cached_property
    def root_trees(self) -> list[dict[str, str | None]]:
        """For each race root in id order (each thread entry point and each
        function labeled main), the BFS tree of the call graph from it
        (node -> parent); callees are visited in ascending order, so each
        path is the first shortest one in that order."""
        graph = self.graph
        roots = {o for _, _, o in graph.match(ids.THREAD_ROOT_ID, "starts-thread", None)}
        roots.update(graph.ids_of("function", "main"))
        trees = []
        for root in sorted(roots):
            parent: dict[str, str | None] = {root: None}
            queue = deque([root])
            while queue:
                node = queue.popleft()
                for _, _, nxt in graph.match(node, "calls", None):  # ascending, each once
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
        graph = self.graph
        return [(eid, _bug_tokens(graph.entities[eid]),
                 {o for _, _, o in graph.match(eid, "touches", None)})
                for eid in graph.ids_of("bug")]


def _accessors(graph: KnowledgeGraph, var: str) -> list[str]:
    """The functions that write or read `var`, in id order."""
    return sorted({s for pred in ("writes", "reads") for s, _, _ in graph.match(None, pred, var)})


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
    for func in _accessors(graph, var):
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
    """Eraser's verdict for one variable, from the context's locksets,
    which must be given."""
    rec = ctx.locksets.get(var)
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


def stale_comments(ctx: AugmentContext, eid: str) -> list[tuple[str, str]]:
    """(comment, missing identifiers) of each stale comment documenting
    `eid`, in comment id order; none for a value that is no entity."""
    entities = ctx.graph.entities
    return [(comment, attrs.get("missing", ""))
            for _, _, comment in ctx.graph.match(eid, "documented-by", None)
            if (attrs := entities[comment].attrs).get("stale") == "true"]


def change_provenance(ctx: AugmentContext, entity_id: str) -> list[Entity]:
    """The five newest commits touching the entity or its containing file,
    newest first: by timestamp, an unparseable one as 0, then by id."""
    graph = ctx.graph
    graph.entity(entity_id)
    subjects = [entity_id]
    path = ids.path_of(entity_id)
    if path is not None:
        fid = ids.file_id(path)
        if fid != entity_id and fid in graph.entities:
            subjects.append(fid)
    commit_ids = {s for subject in subjects
                  for s, _, _ in graph.match(None, "touches", subject) if s.startswith("commit:")}
    return sorted(map(graph.entities.__getitem__, commit_ids), key=_newest_first)[:5]


def _newest_first(commit: Entity) -> tuple[float, str]:
    try:
        return (-parse_timestamp(commit.attrs.get("timestamp", "")).timestamp(), commit.id)
    except ValueError:
        return (0.0, commit.id)


def _alert_key(alert: SmartAlert) -> tuple[float, str, str]:
    return (-alert.score, alert.kind, alert.subject)


def augment(result: ResultSet, ctx: AugmentContext) -> ResultSet:
    """Attach rule-driven alerts to an evaluated result set.

    Dispatch is by binding kind: globals get race checks plus mutex advice,
    bugs get similar defects, code elements get change provenance, and
    anything with a stale comment gets flagged.  Rows are never modified.
    The rules read `ctx`, the context of the graph and locksets that a query
    process keeps across responses.  Only the ALERT_CAP alerts first by
    (-score, kind, subject) are kept.

    The rules run in the tiers of _TIERS, and each tier visits its
    candidates, the entities of the rows of the kinds its rule can alert
    on, in id order, skipping those whose kept alerts are known to be
    none.  Before each candidate it tests one bound: once ALERT_CAP held
    alerts sort strictly before the tier's best key with the candidate's
    id as subject, no alert of this candidate, of a later one or of a
    later tier can enter the answer, and the tier stops.  An exception in
    a tier drops every alert its entity holds, skips the entity in later
    tiers and adds a warning alert with score 0.0.  A rule is asked only
    for the entities whose best alert could still enter the answer, so a
    rule that is not asked cannot raise.
    """
    entities = ctx.graph.entities
    found = list(filter(None, map(entities.get, sorted(set(chain.from_iterable(result.rows))))))
    cap = ALERT_CAP
    held: list[SmartAlert] = []  # in key order, warnings too; each alert's subject is its entity
    failed: set[str] = set()
    for (neg_score, kind, _, kinds), kept in zip(_TIERS, ctx.kept):
        for entity in found:
            eid = entity.id
            if kinds is not None and entity.kind not in kinds:
                continue
            if len(held) >= cap and _alert_key(held[cap - 1]) < (neg_score, kind, eid):
                break
            if eid in failed or not kept.get(eid, True):
                continue
            try:
                alerts = kept[eid]
            except Exception as exc:  # degrade, never fail the query
                failed.add(eid)
                held = [a for a in held if a.subject != eid]
                alerts = (SmartAlert("warning", eid, ["rule-dispatch"],
                                     f"augmentation failed for {eid}: {exc}", 0.0),)
            for alert in alerts:
                insort(held, alert, key=_alert_key)
    return ResultSet(result.columns, result.rows, held[:cap])


def _is_global(entity: Entity) -> bool:
    return entity.kind == "variable" and entity.attrs.get("scope") == "global"


def _dynamic_races_and_defects(ctx: AugmentContext, entity: Entity) -> list[SmartAlert]:
    eid = entity.id
    if _is_global(entity):
        alert = race_alert_dynamic(ctx, eid) if eid in (ctx.locksets or ()) else None
        return [] if alert is None else [alert]
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
        for other, score in similar_defects(ctx, eid)
    ]


def _static_races(ctx: AugmentContext, entity: Entity) -> list[SmartAlert]:
    """The static race and the mutex advice, which copies the static
    alert's evidence, or else that of the dynamic race the first tier
    keeps for the global."""
    if not _is_global(entity):
        return []
    eid = entity.id
    static = race_alert_static(ctx, eid)
    # a global's first-tier alert, if any, is its dynamic race
    race = static or next(iter(ctx.kept[0][eid]), None)
    if race is None:
        return []
    graph = ctx.graph
    labels = ", ".join(graph.entities[f].label for f in _accessors(graph, eid))
    advice = SmartAlert(
        kind="mutex-advice",
        subject=eid,
        evidence=race.evidence,
        message=MUTEX_ADVICE.format(var=entity.label, funcs=labels or "its accessors"),
        score=0.85,
    )
    return [advice] if static is None else [static, advice]


def _stale_comments(ctx: AugmentContext, entity: Entity) -> list[SmartAlert]:
    return [
        SmartAlert(
            kind="stale-comment",
            subject=entity.id,
            evidence=[_triple_ref(entity.id, "documented-by", comment)],
            message=f"comment {comment} mentions identifiers absent from scope: {missing}",
            score=0.5,
        )
        for comment, missing in stale_comments(ctx, entity.id)
    ]


def _provenance(ctx: AugmentContext, entity: Entity) -> list[SmartAlert]:
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


# The tiers in rising order of the best key prefix (-score, kind) an alert
# of theirs can have: the rule scores above and the best kind at the
# highest score.  Each tier names the entity kinds its rule can alert on,
# or None for the stale-comment tier, which visits every entity; it
# reaches its rules by their module names when it runs.
_TIERS = (
    (-1.0, "race-dynamic", _dynamic_races_and_defects,  # similar defects at most 1.0
     ("variable", "bug")),
    (-0.9, "race-static", _static_races, ("variable",)),  # mutex advice at 0.85
    (-0.5, "stale-comment", _stale_comments, None),
    (-0.3, "provenance", _provenance, ("function", "variable", "file", "type", "class")),
)
