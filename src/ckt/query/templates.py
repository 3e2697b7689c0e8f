"""Named query templates and lexical free-form routing.

Free-form English is routed by token-set Jaccard against each template's
trigger phrases (best score wins, threshold 0.4, registry order breaks
ties); leftover tokens are resolved into slot values against entity labels
and date/number patterns.  No embeddings, no trained models: the routing is
a pure function of the text, the registry, and the graph labels.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property

from ckt import ids
from ckt.config import normalize_tokens
from ckt.errors import FormatError, NotFoundError, SlotError
from ckt.graph import KnowledgeGraph
from ckt.history import parse_timestamp
from ckt.query.evaluate import ResultSet, evaluate
from ckt.query.parser import parse_query
from ckt.textio import utf8_lines

JACCARD_THRESHOLD = 0.4

SLOT_TYPES = ("entity", "date", "number", "string")

_DMY_DATE = re.compile(r"^(\d{1,2})-(\d{1,2})-(\d{4})$")
_NUMBER = re.compile(r"^\d+(\.\d+)?$")


@dataclass
class Template:
    name: str
    triggers: list[str]
    slots: list[tuple[str, str]]  # (name, type)
    body: str

    def trigger_token_sets(self) -> list[frozenset[str]]:
        return [frozenset(normalize_tokens(t)) for t in self.triggers]


@dataclass
class TemplateRegistry:
    templates: list[Template] = field(default_factory=list)
    by_name: dict[str, Template] = field(default_factory=dict)

    def add(self, template: Template) -> None:
        if template.name in self.by_name:
            raise FormatError(f"duplicate template name {template.name!r}")
        self.templates.append(template)
        self.by_name[template.name] = template

    def get(self, name: str) -> Template:
        try:
            return self.by_name[name]
        except KeyError:
            raise NotFoundError(f"no template named {name!r}") from None


def builtin_registry() -> TemplateRegistry:
    """Templates shipped with the tool, covering the stock question shapes."""
    reg = TemplateRegistry()
    reg.add(Template(
        name="algo-of-function",
        triggers=[
            "which is the algorithm in function and what are the data structures used",
            "what algorithm does function use",
            "algorithm strategy of function",
        ],
        slots=[("func", "entity")],
        body='SELECT ?related ?concept WHERE { $func ?related ?concept } '
             'FILTER ?concept CONTAINS "concept:"',
    ))
    reg.add(Template(
        name="bugs-affecting-function",
        triggers=[
            "function was effected by which bug numbers",
            "which bugs affect function",
            "bugs affecting function",
        ],
        slots=[("func", "entity")],
        body='SELECT ?bug WHERE { ?bug touches $func } FILTER ?bug CONTAINS "bug:"',
    ))
    reg.add(Template(
        name="fixes-by-developer",
        triggers=[
            "how many bugs were fixed by developer",
            "bugs fixed by developer",
            "which bugs did developer fix",
        ],
        slots=[("dev", "entity")],
        body="SELECT ?bug WHERE { ?commit fixes ?bug ; ?commit authored-by $dev }",
    ))
    reg.add(Template(
        name="unsynchronized-globals-of-concept",
        triggers=[
            "how many unsynchronised global variables are used to implement the",
            "how many unsynchronized global variables are used to implement the",
            "unsynchronised global variables implementing",
        ],
        slots=[("concept", "entity")],
        body='SELECT ?var WHERE { ?impl mentions $concept ; ?impl writes ?var } '
             'FILTER ?var CONTAINS "scope=global"',
    ))
    return reg


def load_registry(path: str) -> TemplateRegistry:
    """Read line-delimited template records."""
    reg = TemplateRegistry()
    for lineno, raw in enumerate(utf8_lines(path), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad template record: {exc}", lineno) from exc
        try:
            slots = [(str(s["name"]), str(s["type"])) for s in doc.get("slots", [])]
            template = Template(
                name=str(doc["name"]),
                triggers=[str(t) for t in doc["triggers"]],
                slots=slots,
                body=str(doc["body"]),
            )
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad template record: {exc}", lineno) from exc
        for _, slot_type in template.slots:
            if slot_type not in SLOT_TYPES:
                raise FormatError(f"unknown slot type {slot_type!r}", lineno)
        reg.add(template)
    return reg


def normalize_date(value: str) -> str | None:
    """Accept ISO-8601 or DD-MM-YYYY (day first); return ISO-8601 UTC."""
    m = _DMY_DATE.match(value)
    if m:
        day, month, year = m.groups()
        return f"{year}-{int(month):02d}-{int(day):02d}T00:00:00Z"
    try:
        ts = parse_timestamp(value)
    except ValueError:
        return None
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def _check_slot(name: str, slot_type: str, value: str) -> str:
    if slot_type == "entity":
        if ids.kind_of(value) is None:
            raise SlotError(f"slot {name!r} expects an entity id, got {value!r}")
        return value
    if slot_type == "date":
        normalized = normalize_date(value)
        if normalized is None:
            raise SlotError(f"slot {name!r} expects a date, got {value!r}")
        return normalized
    if slot_type == "number":
        if not _NUMBER.match(value):
            raise SlotError(f"slot {name!r} expects a number, got {value!r}")
        return value
    return value


def run_template(
    name: str,
    args: dict[str, str],
    graph: KnowledgeGraph,
    registry: TemplateRegistry,
) -> ResultSet:
    """Fill a template's holes and evaluate its body."""
    template = registry.get(name)
    body = template.body
    for slot_name, slot_type in template.slots:
        if slot_name not in args:
            raise SlotError(f"missing argument for slot {slot_name!r}")
        value = _check_slot(slot_name, slot_type, args[slot_name])
        body = body.replace(f"${slot_name}", value)
    extra = sorted(set(args) - {s for s, _ in template.slots})
    if extra:
        raise SlotError(f"unknown slot(s) {extra} for template {name!r}")
    return evaluate(graph, parse_query(body))


@dataclass
class FreeformMatch:
    template: str
    args: dict[str, str]
    score: float


@dataclass
class NoMatch:
    suggestions: list[tuple[str, float]]  # (template name, score), best first
    reason: str = ""


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


class LabelIndex:
    """Entity ids by the normalized tokens of their labels, built on first
    use: each label's full token tuple, and each of its leading sub-tuples
    (prefixes), maps to the lowest id carrying it while that id is unique,
    and to None once a second id shares it."""

    def __init__(self, graph: KnowledgeGraph):
        self._graph = graph

    @cached_property
    def _tables(self) -> tuple[dict[tuple[str, ...], str | None], dict[tuple[str, ...], str | None]]:
        exact: dict[tuple[str, ...], str | None] = {}
        prefix: dict[tuple[str, ...], str | None] = {}
        for eid in sorted(self._graph.entities):
            toks = tuple(normalize_tokens(self._graph.entities[eid].label))
            exact[toks] = None if toks in exact else eid
            for n in range(1, len(toks) + 1):
                prefix[toks[:n]] = None if toks[:n] in prefix else eid
        return exact, prefix

    def exact(self, tokens: tuple[str, ...]) -> str | None:
        """The one entity whose label tokens are exactly `tokens`, if unique."""
        return self._tables[0].get(tokens)

    def prefixed(self, tokens: tuple[str, ...]) -> str | None:
        """The one entity whose label tokens start with `tokens`, if unique."""
        return self._tables[1].get(tokens)


def _resolve_entity(tokens: list[str], labels: LabelIndex) -> tuple[str, list[str]] | None:
    """Resolve a token sequence to a unique entity by label.

    Tries exact label matches over contiguous subsequences (longest first,
    then leftmost), then unique label prefixes; returns the entity id and
    the tokens left unconsumed.
    """
    n = len(tokens)
    for lookup in (labels.exact, labels.prefixed):
        for length in range(n, 0, -1):
            for start in range(0, n - length + 1):
                eid = lookup(tuple(tokens[start : start + length]))
                if eid is not None:
                    return eid, tokens[:start] + tokens[start + length :]
    return None


def match_freeform(
    text: str,
    registry: TemplateRegistry,
    graph: KnowledgeGraph,
    threshold: float = JACCARD_THRESHOLD,
    labels: LabelIndex | None = None,
) -> FreeformMatch | NoMatch:
    """Route free-form English to a template plus slot values, or report the
    nearest templates when no routing is confident enough.  Pass one
    LabelIndex of the graph to every call to index its labels only once."""
    query_tokens = normalize_tokens(text)
    query_set = frozenset(query_tokens)
    if not query_tokens:
        return NoMatch([], "empty query")

    scored: list[tuple[float, frozenset[str], Template]] = []
    for template in registry.templates:
        best_score, best_trigger = 0.0, frozenset()
        for trigger_set in template.trigger_token_sets():
            score = _jaccard(query_set, trigger_set)
            if score > best_score:
                best_score, best_trigger = score, trigger_set
        scored.append((best_score, best_trigger, template))

    suggestions = sorted(
        ((t.name, round(s, 4)) for s, _, t in scored),
        key=lambda pair: (-pair[1], pair[0]),
    )[:3]
    if not scored:
        return NoMatch([], "empty registry")
    top_score = max(s for s, _, _ in scored)
    if top_score < threshold:
        return NoMatch(suggestions, f"best score {top_score:.2f} below {threshold}")
    # registry order breaks ties
    score, trigger, template = next(item for item in scored if item[0] == top_score)

    remaining = [t for t in query_tokens if t not in trigger]
    labels = labels or LabelIndex(graph)
    args: dict[str, str] = {}
    for slot_name, slot_type in template.slots:
        if slot_type == "date":
            hit = next((t for t in remaining if normalize_date(t) is not None), None)
            if hit is None:
                return NoMatch(suggestions, f"could not fill date slot {slot_name!r}")
            args[slot_name] = normalize_date(hit)
            remaining.remove(hit)
        elif slot_type == "number":
            hit = next((t for t in remaining if _NUMBER.match(t)), None)
            if hit is None:
                return NoMatch(suggestions, f"could not fill number slot {slot_name!r}")
            args[slot_name] = hit
            remaining.remove(hit)
        elif slot_type == "entity":
            resolved = _resolve_entity(remaining, labels)
            if resolved is None:
                return NoMatch(suggestions, f"could not resolve entity slot {slot_name!r}")
            args[slot_name], remaining = resolved
        else:
            args[slot_name] = " ".join(remaining)
            remaining = []
    return FreeformMatch(template.name, args, round(score, 4))
