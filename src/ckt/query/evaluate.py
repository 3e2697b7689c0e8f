"""Conjunctive pattern evaluation over the finalized graph.

Patterns join left to right on shared variables through the graph indexes.
A row is a tuple with one slot per variable, extended by the values each
pattern binds; each filter runs right after the pattern that binds its
variable.  Projected rows are deduplicated and ordered by the PageRank of
the first selected variable's binding (descending, ties by row ascending),
so the result order is total and join-order independent.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress, repeat
from operator import contains, itemgetter, neg

from ckt.graph import SEARCH_SEPARATOR, KnowledgeGraph
from ckt.model import Record
from ckt.query.parser import VAR, FilterClause, QueryAST
from ckt.textio import parse_timestamp


class ResultSet(Record):
    __slots__ = _fields = ("columns", "rows", "alerts")

    def __init__(self, columns: tuple[str, ...], rows: list[tuple[str, ...]],
                 alerts: list | None = None):
        self.columns = columns
        self.rows = rows
        self.alerts = [] if alerts is None else alerts


def _tuple_getter(indexes: list[int]):
    """A callable that gives the items at `indexes` of a tuple, as a tuple."""
    if len(indexes) > 1:
        return itemgetter(*indexes)
    return itemgetter(slice(indexes[0], indexes[0] + 1) if indexes else slice(0))


def _solve(graph: KnowledgeGraph, ast: QueryAST) -> tuple[list[tuple[str, ...]], dict[str, int]]:
    """The rows that satisfy the patterns and the filters, and each
    variable's slot in them.  A row holds one value per variable, in the
    order the patterns first bind them; each filter runs right after the
    pattern that binds its variable."""
    slots: dict[str, int] = {}
    rows: list[tuple[str, ...]] = [()]
    for pattern in ast.patterns:
        fixed: list[str | None] = [None, None, None]  # the constants
        bound: list[tuple[int, int]] = []  # (position, slot) of bound variables
        first: dict[str, int] = {}  # new variable -> its first position
        repeats: list[tuple[int, int]] = []  # (position, its new variable's first)
        for position, term in enumerate(pattern):
            if term.kind != VAR:
                fixed[position] = term.value
            elif term.value in slots:
                bound.append((position, slots[term.value]))
            elif term.value in first:
                repeats.append((position, first[term.value]))
            else:
                first[term.value] = position
        take = _tuple_getter(list(first.values()))
        extended: list[tuple[str, ...]] = []
        for row in rows:
            query = list(fixed)
            for position, slot in bound:
                query[position] = row[slot]
            keys = graph.match(*query)
            if repeats:  # a variable repeated within one pattern must unify
                keys = [k for k in keys if all(k[i] == k[j] for i, j in repeats)]
            if row:
                extended.extend([row + take(k) for k in keys])
            else:
                extended.extend(map(take, keys))
        rows = extended
        for name in first:
            slots[name] = len(slots)
        for fl in ast.filters:
            if fl.var in first:
                rows = _filtered(graph, fl, rows, slots[fl.var])
        if not rows:
            break
    if any(fl.var not in slots for fl in ast.filters):
        rows = []
    return rows, slots


def _filtered(graph: KnowledgeGraph, fl: FilterClause, rows: list[tuple[str, ...]],
              slot: int) -> list[tuple[str, ...]]:
    """The rows whose value in `slot` passes the filter."""
    if fl.op == "CONTAINS":
        needle = fl.literal.lower()  # once per filter, not once per row
        if SEARCH_SEPARATOR in needle:  # it could match across two fields
            return [row for row in rows
                    if any(needle in field for field in graph.search_fields(row[slot]))]
        texts = map(graph.search_text, map(itemgetter(slot), rows))
        return list(compress(rows, map(contains, texts, repeat(needle))))
    return [row for row in rows if _passes(graph, fl, row[slot])]


def _timestamp_of(graph: KnowledgeGraph, value: str) -> str | None:
    entity = graph.entities.get(value)
    if entity is None:
        return None
    for key in ("timestamp", "closed", "opened"):
        if key in entity.attrs:
            return entity.attrs[key]
    return None


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
    full row so the order is total.  Unranked bindings count as rank 0.
    The (-rank, row) pairs are made and sorted with no Python call per row."""
    keys = map(neg, map(rank_table.get, map(itemgetter(0), rows), repeat(0.0)))
    return list(map(itemgetter(1), sorted(zip(keys, rows))))


def evaluate(graph: KnowledgeGraph, ast: QueryAST) -> ResultSet:
    """Run a parsed query; an empty result set is a valid answer."""
    rows, slots = _solve(graph, ast)
    if rows:
        project = _tuple_getter([slots[v] for v in ast.select])
        rows = list(dict.fromkeys(map(project, rows)))
    rows = rank_results(rows, graph.rank_table())
    if ast.limit is not None:
        rows = rows[: ast.limit]
    return ResultSet(tuple(ast.select), rows)
