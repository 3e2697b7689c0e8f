"""Feature computation and concept inference over extracted facts.

Functions are scored by a transparent linear combination of four feature
families (recursion, recursive call sites, ontology keyword hits, observed
recursion depth); the best class wins when its score clears the threshold.
Weights and the class list are configuration, not trained models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ckt import ids
from ckt.config import Ontology, StrategyWeights, split_identifier
from ckt.errors import DomainError
from ckt.graph import call_graph
from ckt.model import Comment, Entity, FactSet, TraceLog

_IDENT_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class FeatureVector:
    entity_id: str
    features: dict[str, float] = field(default_factory=dict)

    def get(self, name: str) -> float:
        return self.features.get(name, 0.0)


@dataclass
class ConceptLabel:
    class_name: str
    score: float


@dataclass
class StalenessReport:
    comment_id: str
    entity_id: str
    missing_identifiers: list[str]

    @property
    def verdict(self) -> str:
        return "stale" if self.missing_identifiers else "fresh"


def _cyclic_functions(calls: dict[str, list[str]]) -> set[str]:
    """Nodes that can reach themselves along call edges: those with a
    self-loop or in a strongly connected component of more than one node
    (Tarjan's algorithm, iterative so deep call chains cannot overflow)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    cyclic = {node for node, targets in calls.items() if node in targets}
    for root in calls:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(calls[root]))]
        while work:
            node, targets = work[-1]
            child = next(targets, None)
            if child is not None:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(calls.get(child, ()))))
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cyclic.update(component)
    return cyclic


def _entity_tokens(fid: str, facts: FactSet) -> list[str]:
    """Identifier tokens of the function plus its comment tokens."""
    tokens: list[str] = []
    entity = facts.entities.get(fid)
    if entity is not None:
        tokens.extend(split_identifier(entity.label))
    for rel in facts.relations_from(fid):
        if rel.pred in ("declares", "reads", "writes", "calls"):
            target = facts.entities.get(rel.obj)
            if target is not None and target.kind in ("variable", "function"):
                tokens.extend(split_identifier(target.label))
        elif rel.pred == "documented-by":
            comment = facts.entities.get(rel.obj)
            if comment is not None and comment.attrs.get("tokens"):
                tokens.extend(comment.attrs["tokens"].split(" "))
    return tokens


def compute_features(
    functions: list[Entity],
    facts: FactSet,
    trace: TraceLog | None,
    ontology: Ontology,
) -> list[FeatureVector]:
    """Deterministic feature vectors, one per function entity, in order.

    The call graph and its cycles are computed once for the whole batch,
    and f_depth reads the trace's replay.  Trace-derived features are zero
    when no trace is supplied; keyword features exist for every ontology
    concept (zero when unseen).
    """
    for entity in functions:
        if entity.kind != "function":
            raise DomainError(f"features are defined for functions, not {entity.kind}")
    cyclic = _cyclic_functions(
        call_graph((rel.subj, rel.obj) for rel in facts.relations if rel.pred == "calls")
    )
    depths = trace.replay.depths if trace is not None else {}
    concept_names = ontology.concepts()
    vectors = []
    for entity in functions:
        fid = entity.id
        self_calls = sum(
            1 for rel in facts.relations_from(fid) if rel.pred == "calls" and rel.obj == fid
        )
        fv = FeatureVector(fid)
        fv.features["f_rec"] = 1.0 if fid in cyclic else 0.0
        fv.features["f_multi"] = float(self_calls)
        fv.features["f_depth"] = float(depths.get(fid, 0))
        hits = ontology.hits(_entity_tokens(fid, facts))
        for concept in concept_names:
            fv.features[f"f_kw_{concept}"] = float(hits.get(concept, 0))
        vectors.append(fv)
    return vectors


def classify_strategy(fv: FeatureVector, weights: StrategyWeights) -> ConceptLabel:
    """Linear scores per class; argmax wins, ties break by class-list order,
    and anything under the threshold `weights.tau` is unclassified."""
    weights.validate_against(set(fv.features))
    best: ConceptLabel | None = None
    for cls in weights.classes:
        row = weights.weights.get(cls, {})
        score = 0  # as sum() starts, but left to right: 3.12 compensates float sums
        for feat, w in sorted(row.items()):
            if fv.get(feat) != 0.0:
                score += w * fv.get(feat)
        if best is None or score > best.score:
            best = ConceptLabel(cls, score)
    if best is None or best.score < weights.tau:
        return ConceptLabel("unclassified", 0.0 if best is None else best.score)
    return best


def detect_thread_roots(facts: FactSet, trace: TraceLog | None) -> set[str]:
    """Functions started as thread entry points, statically flagged or
    observed via thread_create events."""
    roots: set[str] = set()
    for rel in facts.relations:
        if rel.pred == "calls" and rel.attrs.get("threading") == "create":
            roots.add(rel.obj)
    if trace is not None:
        roots |= trace.replay.thread_roots
    return roots


GuardTriple = tuple[str, str, str, str]  # func, "guards", var, lock detail


def detect_guarded_regions(trace: TraceLog | None) -> list[GuardTriple]:
    """Lock-protected accesses: each read/write whose thread holds locks
    inside function f yields (f guards var) annotated with the lock names."""
    if trace is None:
        return []
    return [
        (func, "guards", var, "locks=" + ",".join(sorted(locks)))
        for (func, var), locks in sorted(trace.replay.guards.items())
    ]


def tag_domain_concepts(
    comment: Comment, ontology: Ontology, associated_entity: str
) -> list[tuple[str, str, str]]:
    """(entity, mentions, concept) triples for each ontology hit in the
    comment's tokens."""
    hits = ontology.hits(comment.tokens)
    return [
        (associated_entity, "mentions", ids.concept_id(concept))
        for concept in sorted(hits)
    ]


def identifier_like(word: str) -> bool:
    """Lexically code-flavored: underscores, mixed case, letter-digit mixes."""
    if "_" in word:
        return True
    # mixed case means an interior capital, not a sentence-initial one
    if any(c.islower() for c in word) and any(c.isupper() for c in word[1:]):
        return True
    if any(c.isalpha() for c in word) and any(c.isdigit() for c in word):
        return True
    return False


def validate_comment(
    comment: Comment, scope_identifiers: set[str], entity_id: str
) -> StalenessReport:
    """Flag identifier-like comment tokens that are absent from the
    associated entity's scope."""
    seen = {s.lower() for s in scope_identifiers}  # lower-cased: in scope or missing
    missing: list[str] = []
    for m in _IDENT_WORD.finditer(comment.text):
        word = m.group()
        lower = word.lower()
        if lower not in seen and identifier_like(word):
            seen.add(lower)
            missing.append(word)
    return StalenessReport(comment.id, entity_id, missing)
