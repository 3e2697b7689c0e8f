"""Independent answer checks: a hash-join evaluator over the persisted graph
files, parsers for ckt's two output formats, and the build checks against
the generator's ground truth.  Nothing here imports ckt.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from project import MixItem, Query, Truth

RULE_KINDS = ("race-static", "race-dynamic", "similar-defect", "provenance",
              "mutex-advice", "stale-comment")


def _stamp(value: str) -> datetime:
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    return ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)


class PersistedGraph:
    """triples.tsv and nodes.jsonl of one out/ tree, read as plain data."""

    def __init__(self, out: Path):
        self.by_pred: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
        with open(out / "triples.tsv", encoding="utf-8") as fh:
            for line in fh:
                s, p, o, _ = line.rstrip("\n").split("\t")
                self.by_pred[p].append((s, p, o))
        self.nodes: dict[str, dict] = {}
        with open(out / "nodes.jsonl", encoding="utf-8") as fh:
            for line in fh:
                doc = json.loads(line)
                self.nodes[doc["id"]] = doc
        self.triples = {t for ts in self.by_pred.values() for t in ts}

    def has(self, s: str, p: str, o: str) -> bool:
        return (s, p, o) in self.triples

    def _passes(self, value: str, op: str, literal: str) -> bool:
        node = self.nodes.get(value)
        if op == "CONTAINS":
            needle = literal.lower()
            if needle in value.lower():
                return True
            if node is None:
                return False
            return needle in node["label"].lower() or any(
                needle in f"{k}={v}".lower() for k, v in node["attrs"].items())
        if op == "AFTER":
            attrs = node["attrs"] if node else {}
            key = next((k for k in ("timestamp", "closed", "opened") if k in attrs), None)
            return key is not None and _stamp(attrs[key]) > _stamp(literal)
        raise ValueError(f"reference evaluator has no filter {op!r}")

    def answer(self, query: Query) -> set[tuple[str, ...]]:
        """Rows of the query as a set, joined pattern by pattern on hash
        tables keyed by the variables already bound."""
        bindings: list[dict[str, str]] = [{}]
        bound: list[str] = []
        for pattern in query.patterns:
            pred = pattern[1]
            candidates = self.triples if pred.startswith("?") else self.by_pred[pred]
            shared = [v for v in dict.fromkeys(pattern) if v in bound]
            table: dict[tuple, list[dict[str, str]]] = defaultdict(list)
            for triple in candidates:
                local: dict[str, str] = {}
                ok = True
                for term, value in zip(pattern, triple):
                    if not term.startswith("?"):
                        ok = term == value
                    elif local.setdefault(term, value) != value:
                        ok = False
                    if not ok:
                        break
                if ok:
                    table[tuple(local[v] for v in shared)].append(local)
            bindings = [{**b, **local}
                        for b in bindings for local in table.get(tuple(b[v] for v in shared), ())]
            bound.extend(v for v in dict.fromkeys(pattern) if v.startswith("?") and v not in bound)
        for var, op, literal in query.filters:
            bindings = [b for b in bindings if self._passes(b[var], op, literal)]
        return {tuple(b[v] for v in query.select) for b in bindings}


@dataclass
class Outcome:
    """One parsed query answer."""

    rows: list[tuple[str, ...]] = field(default_factory=list)
    alerts: list[str] = field(default_factory=list)  # alert kinds
    resolution: tuple[str, dict[str, str]] | None = None
    error: str | None = None


def parse_records(text: str, columns: tuple[str, ...]) -> Outcome:
    """`ckt query --format records` output."""
    out = Outcome()
    summary = None
    for line in text.splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        rec = doc.get("rec")
        if rec == "row":
            out.rows.append(tuple(doc["values"][c.lstrip("?")] for c in columns))
        elif rec == "alert":
            out.alerts.append(doc["kind"])
        elif rec == "resolution":
            out.resolution = (doc["template"], doc["args"])
        elif rec == "summary":
            summary = doc["rows"]
        else:
            out.error = f"unexpected record {rec!r}"
    if summary != len(out.rows):
        out.error = out.error or f"summary says {summary} rows, saw {len(out.rows)}"
    return out


def parse_table(lines: list[str], columns: tuple[str, ...]) -> Outcome:
    """The REPL's table output for one query.  Row values are entity ids or
    predicate names, which hold no spaces."""
    out = Outcome()
    count = None
    for line in lines:
        if line.startswith("error: "):
            out.error = line
        elif line.startswith("[template "):
            name, *pairs = line[len("[template "):-1].split()
            out.resolution = (name, dict(p.split("=", 1) for p in pairs))
        elif line.startswith("! ["):
            out.alerts.append(line[3:line.index("]")])
        elif line.startswith("(") and line.endswith(("row)", "rows)")):
            count = int(line[1:].split()[0])
        elif line.startswith("?") or set(line) == {"-"}:
            continue
        elif line.strip():
            out.rows.append(tuple(line.split()))
    if out.error is None and count != len(out.rows):
        out.error = f"table says {count} rows, saw {len(out.rows)}"
    for row in out.rows:
        if len(row) != len(columns):
            out.error = out.error or f"row {row!r} does not have {len(columns)} columns"
    return out


def check_answer(item: MixItem, outcome: Outcome, expected: set[tuple[str, ...]]) -> list[str]:
    """Problems with one answer; an empty list means it is correct."""
    problems = []
    if outcome.error:
        problems.append(outcome.error)
    if len(set(outcome.rows)) != len(outcome.rows):
        problems.append("duplicate rows")
    if set(outcome.rows) != expected:
        problems.append(f"rows differ from the reference join: got {len(set(outcome.rows))}, "
                        f"expected {len(expected)}")
    if "warning" in outcome.alerts:
        problems.append("augmentation degraded to a warning alert")
    if item.template is not None:
        want = (item.template, dict(item.args))
        if outcome.resolution != want:
            problems.append(f"resolved to {outcome.resolution}, expected {want}")
    return [f"{item.text!r}: {p}" for p in problems]


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def tree_mb(out: Path) -> float:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / 1e6


def check_build(graph: PersistedGraph, truth: Truth) -> list[str]:
    """The generator's entities and edges must all be in the persisted graph."""
    problems = []
    missing = sorted(truth.entities - graph.nodes.keys())
    if missing:
        problems.append(f"{len(missing)} ground-truth entities missing, e.g. {missing[0]}")
    for pred, pairs in (("calls", truth.calls), ("writes", truth.writes), ("fixes", truth.fixes)):
        lost = sorted(pair for pair in pairs if not graph.has(pair[0], pred, pair[1]))
        if lost:
            problems.append(f"{len(lost)} ground-truth {pred} edges missing, e.g. {lost[0]}")
    roots = sorted(f for f in truth.thread_roots
                   if not graph.has("concept:thread-root", "starts-thread", f))
    if roots:
        problems.append(f"{len(roots)} thread roots missing, e.g. {roots[0]}")
    return problems
