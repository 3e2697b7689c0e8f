"""Neutral facts format: the escape hatch for codebases outside the C subset.

Line-delimited JSON, one record per line.  First line is the header
{"rec":"header","version":1}; entity records carry id/kind/label/span/attrs,
relation records subj/pred/obj (plus an optional attrs object for flags
such as threading=create).
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from ckt.errors import ConflictError, FormatError
from ckt.graph import PREDICATES, _entity_to_json
from ckt.ids import ENTITY_KINDS
from ckt.model import Entity, FactSet, Relation, Span

SCHEMA_VERSION = 1


def dump_facts(facts: FactSet, fh: IO[str]) -> None:
    """Serialize deterministically: header, entities by id, sorted relations."""
    fh.write(json.dumps({"rec": "header", "version": SCHEMA_VERSION}) + "\n")
    for entity in facts.sorted_entities():
        doc = {"rec": "entity", **_entity_to_json(entity)}
        fh.write(json.dumps(doc, sort_keys=True, ensure_ascii=True) + "\n")
    for rel in facts.sorted_relations():
        doc = {"rec": "relation", "subj": rel.subj, "pred": rel.pred, "obj": rel.obj}
        if rel.attrs:
            doc["attrs"] = dict(sorted(rel.attrs.items()))
        fh.write(json.dumps(doc, sort_keys=True, ensure_ascii=True) + "\n")


def dumps_facts(facts: FactSet) -> str:
    import io

    buf = io.StringIO()
    dump_facts(facts, buf)
    return buf.getvalue()


def load_facts(lines: Iterable[str] | IO[str], name: str = "facts") -> FactSet:
    """Parse a neutral facts document; schema violations name the bad record."""
    facts = FactSet()
    first_seen: dict[str, int] = {}
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{name}: invalid JSON: {exc}", lineno) from exc
        if not isinstance(doc, dict) or "rec" not in doc:
            raise FormatError(f"{name}: record missing 'rec' field", lineno)
        rec = doc["rec"]
        if not saw_header:
            if rec != "header":
                raise FormatError(f"{name}: first record must be the header", lineno)
            if doc.get("version") != SCHEMA_VERSION:
                raise FormatError(
                    f"{name}: unsupported version {doc.get('version')!r} "
                    f"(expected {SCHEMA_VERSION})",
                    lineno,
                )
            saw_header = True
            continue
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
    if not saw_header:
        raise FormatError(f"{name}: missing header line", 1)
    return facts


def _entity_record(doc: dict, name: str, lineno: int) -> Entity:
    for field_name in ("id", "kind", "label"):
        if not isinstance(doc.get(field_name), str) or not doc.get(field_name):
            raise FormatError(f"{name}: entity record needs string {field_name!r}", lineno)
    kind = doc["kind"]
    if kind not in ENTITY_KINDS:
        raise FormatError(f"{name}: unknown entity kind {kind!r}", lineno)
    span = None
    path, start, end = doc.get("path"), doc.get("start"), doc.get("end")
    if path is not None or start is not None or end is not None:
        if path is None or start is None or end is None:
            raise FormatError(f"{name}: span needs path, start and end together", lineno)
        try:
            span = Span(str(path), int(start), int(end))
        except ValueError as exc:
            raise FormatError(f"{name}: bad span: {exc}", lineno) from exc
    attrs = doc.get("attrs") or {}
    if not isinstance(attrs, dict):
        raise FormatError(f"{name}: attrs must be an object", lineno)
    return Entity(doc["id"], kind, doc["label"], span,
                  {str(k): str(v) for k, v in attrs.items()})


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
