"""Conjunctive pattern evaluation over the finalized graph.

Patterns join left to right on shared variables through the graph indexes;
filters run after the joins; projected rows are deduplicated and ordered by
the PageRank of the first selected variable's binding (descending, ties by
row ascending), so the result order is total and join-order independent.
"""

from __future__ import annotations

from collections.abc import Mapping

from ckt.graph import KnowledgeGraph
from ckt.model import Record
from ckt.query.parser import IRI, LITERAL, VAR, FilterClause, QueryAST, Term
from ckt.textio import parse_timestamp


class ResultSet(Record):
    __slots__ = _fields = ("columns", "rows", "alerts")

    def __init__(self, columns: tuple[str, ...], rows: list[tuple[str, ...]],
                 alerts: list | None = None):
        self.columns = columns
        self.rows = rows
        self.alerts = [] if alerts is None else alerts


def _bind(term: Term, binding: dict[str, str]) -> str | None:
    """Concrete value for a pattern position, or None for a wildcard."""
    if term.kind == VAR:
        return binding.get(term.value)
    return term.value


def _solve(graph: KnowledgeGraph, ast: QueryAST) -> list[dict[str, str]]:
    bindings: list[dict[str, str]] = [{}]
    for pattern in ast.patterns:
        terms = (pattern.s, pattern.p, pattern.o)
        extended: list[dict[str, str]] = []
        for binding in bindings:
            s = _bind(pattern.s, binding)
            p = _bind(pattern.p, binding)
            o = _bind(pattern.o, binding)
            for key in graph.match(s, p, o):
                new = dict(binding)
                consistent = True
                for term, value in zip(terms, key):
                    if term.kind != VAR:
                        continue
                    # a variable repeated within one pattern must unify
                    if term.value in new and new[term.value] != value:
                        consistent = False
                        break
                    new[term.value] = value
                if consistent:
                    extended.append(new)
        bindings = extended
        if not bindings:
            break
    return bindings


def _timestamp_of(graph: KnowledgeGraph, value: str) -> str | None:
    entity = graph.entities.get(value)
    if entity is None:
        return None
    for key in ("timestamp", "closed", "opened"):
        if key in entity.attrs:
            return entity.attrs[key]
    return None


def _contains(graph: KnowledgeGraph, value: str, needle: str) -> bool:
    """Whether the lower-cased `needle` is in the value, or in the label or
    a `key=value` attribute of the entity it names, each lower-cased."""
    if needle in value.lower():
        return True
    folded = graph.folded(value)
    if folded is None:
        return False
    label, attrs = folded
    return needle in label or any(needle in attr for attr in attrs)


def _passes(graph: KnowledgeGraph, fl: FilterClause, value: str) -> bool:
    if fl.op == "=":
        return value == fl.literal
    if fl.op == "!=":
        return value != fl.literal
    if fl.op in ("BEFORE", "AFTER"):
        stamp = _timestamp_of(graph, value)
        if stamp is None:
            return False
        try:
            mine, theirs = parse_timestamp(stamp), parse_timestamp(fl.literal)
        except ValueError:
            return False
        return mine < theirs if fl.op == "BEFORE" else mine > theirs
    try:
        left, right = float(value), float(fl.literal)
    except ValueError:
        left, right = value, fl.literal  # lexicographic fallback
    if fl.op == "<":
        return left < right
    if fl.op == "<=":
        return left <= right
    if fl.op == ">":
        return left > right
    return left >= right


def rank_results(
    rows: list[tuple[str, ...]], rank_table: Mapping[str, float]
) -> list[tuple[str, ...]]:
    """Order rows by the first column's rank descending; ties ascend by the
    full row so the order is total.  Unranked bindings count as rank 0."""
    return sorted(rows, key=lambda row: (-rank_table.get(row[0], 0.0), row))


def evaluate(graph: KnowledgeGraph, ast: QueryAST) -> ResultSet:
    """Run a parsed query; an empty result set is a valid answer."""
    bindings = _solve(graph, ast)
    for fl in ast.filters:
        if fl.op == "CONTAINS":
            needle = fl.literal.lower()  # once per filter, not once per binding
            bindings = [b for b in bindings if fl.var in b and _contains(graph, b[fl.var], needle)]
        else:
            bindings = [b for b in bindings if fl.var in b and _passes(graph, fl, b[fl.var])]
    projected = [tuple(b[v] for v in ast.select) for b in bindings]
    rows = list(dict.fromkeys(projected))
    rows = rank_results(rows, graph.rank_table())
    if ast.limit is not None:
        rows = rows[: ast.limit]
    return ResultSet(tuple(ast.select), rows)
