"""Neutral facts format: the escape hatch for codebases outside the C subset.

Line-delimited JSON, one record per line.  First line is the header
{"rec":"header","version":1}; entity records carry id/kind/label/span/attrs,
relation records subj/pred/obj (plus an optional attrs object for flags
such as threading=create).
"""

from __future__ import annotations

from typing import IO, Iterable

from ckt.errors import ConflictError, FormatError
from ckt.graph import PREDICATES, _entity_record
from ckt.model import FactSet, Relation
from ckt.textio import json_records


def load_facts(lines: Iterable[str] | IO[str], name: str = "facts") -> FactSet:
    """Parse a neutral facts document; schema violations name the bad record."""
    facts = FactSet()
    first_seen: dict[str, int] = {}
    for lineno, doc in json_records(lines, name, header=True):
        rec = doc.get("rec")
        if rec == "entity":
            entity = _entity_record(doc, name, lineno)
            prev_line = first_seen.get(entity.id)
            try:
                facts.add_entity(entity)
            except ConflictError as exc:
                raise ConflictError(
                    f"{name}: line {lineno} conflicts with line {prev_line}: {exc}"
                ) from exc
            first_seen.setdefault(entity.id, lineno)
        elif rec == "relation":
            facts.add_relation(_relation_record(doc, name, lineno))
        elif rec == "header":
            raise FormatError(f"{name}: duplicate header", lineno)
        else:
            raise FormatError(f"{name}: unknown record type {rec!r}", lineno)
    return facts


def _relation_record(doc: dict, name: str, lineno: int) -> Relation:
    for field_name in ("subj", "pred", "obj"):
        if not isinstance(doc.get(field_name), str) or not doc.get(field_name):
            raise FormatError(f"{name}: relation record needs string {field_name!r}", lineno)
    if doc["pred"] not in PREDICATES:
        raise FormatError(f"{name}: unknown predicate {doc['pred']!r}", lineno)
    attrs = doc.get("attrs") or {}
    if not isinstance(attrs, dict):
        raise FormatError(f"{name}: attrs must be an object", lineno)
    return Relation(doc["subj"], doc["pred"], doc["obj"], lineno,
                    {str(k): str(v) for k, v in attrs.items()})
