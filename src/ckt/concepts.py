"""Feature computation and concept inference over extracted facts.

Functions are scored by a transparent linear combination of four feature
families (recursion, recursive call sites, ontology keyword hits, observed
recursion depth); the best class wins when its score clears the threshold.
Weights and the class list are configuration, not trained models.

The passes hand plain values to one another: a feature vector is a dict
from feature name to value, a label a (class, score) pair, and a comment's
staleness the list of its words missing from its scope.
"""

from __future__ import annotations

import re

from ckt import ids
from ckt.config import Ontology, StrategyWeights, split_identifier
from ckt.errors import DomainError
from ckt.graph import call_graph
from ckt.model import Comment, Entity, FactSet, TraceLog

_IDENT_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+[A-Za-z_][A-Za-z0-9_]*")


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


def _entity_tokens(fid: str, facts: FactSet, words: dict[str, list[str]]) -> list[str]:
    """Identifier tokens of the function plus its comment tokens; `words`
    keeps each label's split_identifier tokens, so a pass that shares one
    dict splits each distinct label once."""
    tokens: list[str] = []
    entity = facts.entities.get(fid)
    if entity is not None:
        tokens.extend(_label_words(entity.label, words))
    for rel in facts.relations_from(fid):
        if rel.pred in ("declares", "reads", "writes", "calls"):
            target = facts.entities.get(rel.obj)
            if target is not None and target.kind in ("variable", "function"):
                tokens.extend(_label_words(target.label, words))
        elif rel.pred == "documented-by":
            comment = facts.entities.get(rel.obj)
            if comment is not None and comment.attrs.get("tokens"):
                tokens.extend(comment.attrs["tokens"].split(" "))
    return tokens


def _label_words(label: str, words: dict[str, list[str]]) -> list[str]:
    found = words.get(label)
    if found is None:
        found = words[label] = split_identifier(label)
    return found


def feature_names(ontology: Ontology) -> list[str]:
    """The features of each vector compute_features returns, in order: one
    keyword feature per ontology concept."""
    return ["f_rec", "f_multi", "f_depth", *(f"f_kw_{c}" for c in ontology.concepts())]


def compute_features(
    functions: list[Entity],
    facts: FactSet,
    trace: TraceLog | None,
    ontology: Ontology,
) -> list[dict[str, float]]:
    """Deterministic feature vectors, one per function entity, in order,
    each keyed by feature_names(ontology).

    The call graph and its cycles are computed once for the whole batch,
    and f_depth reads the trace's replay.  Trace-derived features are zero
    when no trace is supplied; keyword features are zero for concepts
    unseen.
    """
    for entity in functions:
        if entity.kind != "function":
            raise DomainError(f"features are defined for functions, not {entity.kind}")
    cyclic = _cyclic_functions(
        call_graph((rel.subj, rel.obj) for rel in facts.relations if rel.pred == "calls")
    )
    depths = trace.replay.depths if trace is not None else {}
    names = feature_names(ontology)
    concept_names = ontology.concepts()
    words: dict[str, list[str]] = {}  # each distinct label's tokens
    vectors = []
    for entity in functions:
        fid = entity.id
        self_calls = sum(
            1 for rel in facts.relations_from(fid) if rel.pred == "calls" and rel.obj == fid
        )
        hits = ontology.hits(_entity_tokens(fid, facts, words))
        values = [1.0 if fid in cyclic else 0.0, float(self_calls), float(depths.get(fid, 0))]
        values += [float(hits.get(concept, 0)) for concept in concept_names]
        vectors.append(dict(zip(names, values)))
    return vectors


def classify_strategy(
    vectors: list[dict[str, float]], weights: StrategyWeights
) -> list[tuple[str, float]]:
    """One (class, score) pair per vector: linear scores per class; argmax
    wins, ties break by class-list order, and anything under the threshold
    `weights.tau` is unclassified.

    The vectors share one feature set, as compute_features' do: the weights
    are checked against it, and each weight row sorted, once per batch.
    """
    if not vectors:
        return []
    weights.validate_against(set(vectors[0]))
    rows = [(cls, sorted(weights.weights.get(cls, {}).items())) for cls in weights.classes]
    labels = []
    for fv in vectors:
        best: tuple[str, float] | None = None
        for cls, row in rows:
            score = 0  # as sum() starts, but left to right: 3.12 compensates float sums
            for feat, w in row:
                value = fv.get(feat, 0.0)
                if value != 0.0:
                    score += w * value
            if best is None or score > best[1]:
                best = (cls, score)
        if best is None or best[1] < weights.tau:
            best = ("unclassified", 0.0 if best is None else best[1])
        labels.append(best)
    return labels


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


def validate_comment(comment: Comment, scope_identifiers: set[str],
                     code_words: dict[str, bool] | None = None) -> list[str]:
    """The identifier-like comment words absent from the associated
    entity's scope, each once, in order; the comment is stale when there
    are any.  `code_words` keeps each word's identifier_like verdict, so a
    pass over many comments that shares one dict decides each word once."""
    if code_words is None:
        code_words = {}
    seen = {s.lower() for s in scope_identifiers}  # lower-cased: in scope or missing
    missing: list[str] = []
    for m in _IDENT_WORD.finditer(comment.text):
        word = m.group()
        lower = word.lower()
        if lower in seen:
            continue
        like = code_words.get(word)
        if like is None:
            like = code_words[word] = identifier_like(word)
        if like:
            seen.add(lower)
            missing.append(word)
    return missing
