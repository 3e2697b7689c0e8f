"""Neutral facts format: the escape hatch for codebases outside the C subset.

Line-delimited JSON, one record per line.  First line is the header
{"rec":"header","version":1}; entity records carry id/kind/label/span/attrs,
relation records subj/pred/obj (plus an optional attrs object for flags
such as threading=create).
"""

from __future__ import annotations

from typing import IO, Iterable

from ckt import ids
from ckt.errors import ConflictError, FormatError
from ckt.graph import PREDICATES
from ckt.model import Entity, FactSet, Relation, Span
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


def _entity_record(doc: dict, name: str, lineno: int) -> Entity:
    """An entity from its neutral facts record; a bad field raises
    FormatError naming `name` and the line."""
    for field_name in ("id", "kind", "label"):
        value = doc.get(field_name)
        # a label may be empty: a commit with no author names an anonymous developer
        if not isinstance(value, str) or not (value or field_name == "label"):
            raise FormatError(f"{name}: entity record needs string {field_name!r}", lineno)
    kind = doc["kind"]
    if kind not in ids.ENTITY_KINDS:
        raise FormatError(f"{name}: unknown entity kind {kind!r}", lineno)
    span = None
    path, start, end = doc.get("path"), doc.get("start"), doc.get("end")
    if path is not None or start is not None or end is not None:
        if not isinstance(path, str) or type(start) is not int or type(end) is not int:
            raise FormatError(f"{name}: span needs a string path and integer start and end",
                              lineno)
        span = Span(path, start, end)
    return Entity(doc["id"], kind, doc["label"], span, _attrs(doc, name, lineno))


def _relation_record(doc: dict, name: str, lineno: int) -> Relation:
    for field_name in ("subj", "pred", "obj"):
        if not isinstance(doc.get(field_name), str) or not doc.get(field_name):
            raise FormatError(f"{name}: relation record needs string {field_name!r}", lineno)
    if doc["pred"] not in PREDICATES:
        raise FormatError(f"{name}: unknown predicate {doc['pred']!r}", lineno)
    return Relation(doc["subj"], doc["pred"], doc["obj"], lineno, _attrs(doc, name, lineno))


def _attrs(doc: dict, name: str, lineno: int) -> dict[str, str]:
    """The record's attrs, an object of strings, or {} when absent or null."""
    attrs = doc.get("attrs")
    if attrs is None:
        return {}
    if not isinstance(attrs, dict):
        raise FormatError(f"{name}: attrs must be an object", lineno)
    if not all(type(v) is str for v in attrs.values()):
        raise FormatError(f"{name}: attribute values must be strings", lineno)
    return attrs
