"""Rule-driven response augmentation: race alerts, similar defects, change
provenance, mutex advice, stale-comment flags.

Each rule is explicit and deterministic.  The dynamic race detector reads
the locksets of the trace's Eraser-style replay: a variable's candidate
lockset is the intersection of the locks held at each of its accesses;
an empty lockset plus multi-threaded access including a write signals a
race.
"""

from __future__ import annotations

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


class _Verdicts(dict):
    """Subject -> the verdict of the rule named `rule`, called with the
    context and the subject on the subject's first read and kept.  The
    rule is looked up by its module name on each call, so a rebinding of
    that name reaches it; a rule that raises keeps no verdict, so it
    raises again on the next read."""

    __slots__ = ("_rule", "_ctx")

    def __init__(self, rule: str, ctx: AugmentContext):
        self._rule, self._ctx = rule, ctx

    def __missing__(self, subject: str):
        verdict = self[subject] = globals()[self._rule](self._ctx, subject)
        return verdict


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
    (`graph.ids_of`), so only each bug's Entity is made.  The first pass
    of the benchmark's 36-query mix, which computes every verdict once,
    took 104 ms on the 400-file graph (2-CPU host, Python 3.11); it took
    307 ms with the race roots' trees and the reach index (each
    function's trees) built per static race verdict, and 179 ms with the
    bug table built per similar-defect verdict.

    It also keeps four rules' verdicts, each in a table of its own that
    computes a subject's verdict on its first read: each global's
    `race_alert_static` alert or None, with the labels of its accessors
    that the mutex advice names, each bug's `similar_defects` list, each
    entity's `stale_comments` and each entity's `change_provenance`
    commits.  The rules are pure functions of the graph and these tables,
    which never change.  A rule that raises keeps no verdict, so it
    raises again on every ask.  The stale tier visits every entity of the
    rows: a warm pass of the mix on the 100-file graph took 26 ms, not
    16.5, with each entity's stale comments read per entity and not kept.
    Kept, the mix's warm answers on the 400-file graph took 21.4 ms with
    each verdict a list, which the cyclic collector walks on every full
    collection, and 19.4 ms with it a tuple of strings, which it stops
    tracking (19.6 ms with a whole-graph table)."""

    def __init__(self, graph: KnowledgeGraph, locksets: dict[str, Lockset] | None = None):
        self.graph = graph
        self.locksets = locksets
        self.static_races = _Verdicts("_static_race", self)
        self.similar = _Verdicts("similar_defects", self)
        self.stale = _Verdicts("stale_comments", self)
        self.provenance = _Verdicts("change_provenance", self)

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


def stale_comments(ctx: AugmentContext, eid: str) -> tuple[tuple[str, str], ...]:
    """(comment, missing identifiers) of each stale comment documenting
    `eid`, in comment id order; none for a value that is no entity.  A
    tuple of strings, which the cyclic collector stops tracking."""
    entities = ctx.graph.entities
    return tuple([(comment, attrs.get("missing", ""))
                  for _, _, comment in ctx.graph.match(eid, "documented-by", None)
                  if (attrs := entities[comment].attrs).get("stale") == "true"])


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

    The rules run in the tiers of _TIERS.  Each visits only its
    candidates among the entities of the rows: those of the kinds its rule
    can alert on, or those not known to have no stale comment, which one
    read of the kept verdicts per entity finds.  Once ALERT_CAP held
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
    found = list(filter(None, map(entities.get, values)))  # the entities of the rows, in row order
    by_kind: dict[str, list[Entity]] = {}
    for entity in found:
        by_kind.setdefault(entity.kind, []).append(entity)
    alerts: list[SmartAlert] = []  # each alert's subject is the entity that holds it
    failed: set[str] = set()
    warnings: list[SmartAlert] = []
    dynamic: dict[str, SmartAlert] = {}  # the first tier's dynamic races, for mutex advice
    for first_key, tier, kinds in _TIERS:
        if sum(_alert_key(a) < first_key for a in alerts) >= ALERT_CAP:
            break
        if kinds is None:  # the stale-comment tier: each entity not known to have none
            known = ctx.stale.get
            candidates = [entity for entity in found if known(entity.id, True)]
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
        if eid not in (ctx.locksets or ()):
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
        for other, score in ctx.similar[eid]
    ]


def _static_races(ctx: AugmentContext, entity: Entity,
                  dynamic: dict[str, SmartAlert]) -> list[SmartAlert]:
    """The static race and the mutex advice, which copies the static
    alert's evidence, or else the dynamic one's."""
    if not _is_global(entity):
        return []
    eid = entity.id
    static, labels = ctx.static_races[eid]
    race = static or dynamic.get(eid)
    if race is None:
        return []
    advice = SmartAlert(
        kind="mutex-advice",
        subject=eid,
        evidence=race.evidence,
        message=MUTEX_ADVICE.format(var=entity.label, funcs=labels or "its accessors"),
        score=0.85,
    )
    return [advice] if static is None else [static, advice]


def _static_race(ctx: AugmentContext, var: str) -> tuple[SmartAlert | None, str]:
    """A global's kept static verdict: the `race_alert_static` alert or
    None, and the labels of its accessors, which the mutex advice names."""
    alert = race_alert_static(ctx, var)
    return alert, ", ".join(ctx.graph.entities[f].label for f in _accessors(ctx.graph, var))


def _stale_comments(ctx: AugmentContext, entity: Entity,
                    dynamic: dict[str, SmartAlert]) -> list[SmartAlert]:
    return [
        SmartAlert(
            kind="stale-comment",
            subject=entity.id,
            evidence=[_triple_ref(entity.id, "documented-by", comment)],
            message=f"comment {comment} mentions identifiers absent from scope: {missing}",
            score=0.5,
        )
        for comment, missing in ctx.stale[entity.id]
    ]


def _provenance(ctx: AugmentContext, entity: Entity,
                dynamic: dict[str, SmartAlert]) -> list[SmartAlert]:
    commits = ctx.provenance[entity.id]
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
# every entity whose kept verdict is not empty or not yet made; it reaches
# its rules by their module names when it runs.
_TIERS = (
    ((-1.0, "race-dynamic", ""), _dynamic_races_and_defects,  # similar defects at most 1.0
     ("variable", "bug")),
    ((-0.9, "race-static", ""), _static_races, ("variable",)),  # mutex advice at 0.85
    ((-0.5, "stale-comment", ""), _stale_comments, None),
    ((-0.3, "provenance", ""), _provenance, ("function", "variable", "file", "type", "class")),
)
