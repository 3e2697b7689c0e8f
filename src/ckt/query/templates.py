"""Named query templates and lexical free-form routing.

Free-form English is routed by token-set Jaccard against each template's
trigger phrases (best score wins, threshold 0.4, registry order breaks
ties); leftover tokens are resolved into slot values against entity labels
and date/number patterns.  No embeddings, no trained models: the routing is
a pure function of the text, the registry, and the graph labels.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from datetime import datetime, timezone
from functools import cached_property
from itertools import accumulate, repeat
from operator import add
from pathlib import Path

from ckt import ids
from ckt.config import normalize_tokens
from ckt.errors import FormatError, NotFoundError, SlotError
from ckt.graph import KnowledgeGraph
from ckt.model import Record
from ckt.query.evaluate import ResultSet, evaluate
from ckt.query.parser import PreparedQuery, is_word
from ckt.textio import as_text, as_texts, json_records, parse_timestamp, utf8_lines

JACCARD_THRESHOLD = 0.4

SLOT_TYPES = ("entity", "date", "number", "string")

# date and number slot values, day-month-year and decimal, in ASCII digits; read with fullmatch
DMY_DATE = re.compile(r"([0-9]{1,2})-([0-9]{1,2})-([0-9]{4})")
_NUMBER = re.compile(r"[0-9]+(\.[0-9]+)?")


class Template(Record):
    # no __slots__: the trigger token sets and the lexed body are cached in __dict__
    _fields = ("name", "triggers", "slots", "body")

    def __init__(self, name: str, triggers: list[str], slots: list[tuple[str, str]], body: str):
        self.name = name
        self.triggers = triggers
        self.slots = slots  # (name, type)
        self.body = body

    @cached_property
    def trigger_token_sets(self) -> list[frozenset[str]]:
        """Each trigger's normalized tokens, computed on first use."""
        return [frozenset(normalize_tokens(t)) for t in self.triggers]

    @cached_property
    def query(self) -> PreparedQuery:
        """The body, lexed and checked on first use; each call parses its
        tokens with the call's slot values bound."""
        return PreparedQuery(self.body)


class TemplateRegistry(Record):
    __slots__ = _fields = ("by_name",)

    def __init__(self):
        self.by_name: dict[str, Template] = {}

    def add(self, template: Template, line: int | None = None) -> None:
        if template.name in self.by_name:
            raise FormatError(f"duplicate template name {template.name!r}", line)
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


def load_registry(path: str, data: bytes | None = None) -> TemplateRegistry:
    """Read line-delimited template records from the file at `path`, or
    from `data`, its bytes when the caller has read them.  Each body is
    lexed and checked here, once: one that no slot values can make parse
    raises FormatError with its line."""
    reg = TemplateRegistry()
    name = Path(path).name
    for lineno, doc in json_records(utf8_lines(path, data), name):
        try:
            slots = [(as_text(s["name"], "slot 'name'", name, lineno),
                      as_text(s["type"], "slot 'type'", name, lineno))
                     for s in doc.get("slots", [])]
            template = Template(
                name=as_text(doc["name"], "'name'", name, lineno),
                triggers=as_texts(doc["triggers"], "'triggers'", name, lineno),
                slots=slots,
                body=as_text(doc["body"], "'body'", name, lineno),
            )
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{name}: bad template record: {exc}", lineno) from exc
        for _, slot_type in template.slots:
            if slot_type not in SLOT_TYPES:
                raise FormatError(f"{name}: unknown slot type {slot_type!r}", lineno)
        # one check parse, with each slot's text unchecked, fails a body
        # that no slot values can mend; the lexed tokens are kept, and each
        # of the template's queries parses them with its values bound
        if template.query.error is not None:
            raise FormatError(f"{name}: template {template.name!r}: {template.query.error}",
                              lineno)
        reg.add(template, lineno)
    return reg


def normalize_date(value: str) -> str | None:
    """Accept ISO-8601 or DD-MM-YYYY (day first); return ISO-8601 UTC to
    the second, with a four-digit year, or None when the value is not a
    real date or its UTC time falls outside years 1 to 9999."""
    m = DMY_DATE.fullmatch(value)
    try:
        if m:
            day, month, year = map(int, m.groups())
            ts = datetime(year, month, day, tzinfo=timezone.utc)
        else:
            ts = parse_timestamp(value).astimezone(timezone.utc)
    except (ValueError, OverflowError):
        return None
    return f"{ts.replace(microsecond=0, tzinfo=None).isoformat()}Z"


def _check_slot(name: str, slot_type: str, value: str) -> str:
    if slot_type == "entity":
        # the value stands for one query word, so it must lex as one
        if ids.kind_of(value) is None or not is_word(value):
            raise SlotError(f"slot {name!r} expects an entity id, got {value!r}")
        return value
    if slot_type == "date":
        normalized = normalize_date(value)
        if normalized is None:
            raise SlotError(f"slot {name!r} expects a date, got {value!r}")
        return normalized
    if slot_type == "number":
        if not _NUMBER.fullmatch(value):
            raise SlotError(f"slot {name!r} expects a number, got {value!r}")
        return value
    return value


def run_template(
    name: str,
    args: dict[str, str],
    graph: KnowledgeGraph,
    registry: TemplateRegistry,
) -> ResultSet:
    """Bind a template's slots into its lexed body, parse and evaluate it."""
    template = registry.get(name)
    values: dict[str, str] = {}
    for slot_name, slot_type in template.slots:
        if slot_name not in args:
            raise SlotError(f"missing argument for slot {slot_name!r}")
        values[slot_name] = _check_slot(slot_name, slot_type, args[slot_name])
    extra = sorted(set(args) - {s for s, _ in template.slots})
    if extra:
        raise SlotError(f"unknown slot(s) {extra} for template {name!r}")
    return evaluate(graph, template.query.bind(values))


class FreeformMatch(Record):
    __slots__ = _fields = ("template", "args", "score")

    def __init__(self, template: str, args: dict[str, str], score: float):
        self.template = template
        self.args = args
        self.score = score


class NoMatch(Record):
    __slots__ = _fields = ("suggestions", "reason")

    def __init__(self, suggestions: list[tuple[str, float]], reason: str = ""):
        self.suggestions = suggestions  # (template name, score), best first
        self.reason = reason


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


class LabelSearch:
    """Entity ids by the normalized tokens of their labels, looked up for
    the tokens of one question at a time.

    Every token of a label's normalized tuple is a substring of the label
    lower-cased, so a label whose tuple equals, or starts with, a run of
    tokens contains the run's first token.  So only the labels that
    contain one of the tokens are normalized (filter and verify, as in
    Navarro, "A guided tour to approximate string matching", ACM Computing
    Surveys 2001).  They are found by substring search in one join of the
    lower-cased labels, made on first use; each token's candidates and
    each candidate's tuple are kept, so a token seen before costs one
    lookup."""

    def __init__(self, graph: KnowledgeGraph):
        self._graph = graph
        self._candidates: dict[str, list[tuple[str, tuple[str, ...]]]] = {}

    @cached_property
    def _joined(self) -> tuple[str, list[int], list[str]]:
        """The labels in ascending id order, each lower-cased on its own as
        normalize_tokens lowers it, joined by LFs, which no token holds;
        where each one starts in the join; and their ids."""
        lowered = list(map(str.lower, self._graph.labels))
        starts = list(accumulate(map(add, map(len, lowered), repeat(1)), initial=0))
        return "\n".join(lowered), starts[:-1], list(self._graph.entities)

    def candidates(self, token: str) -> list[tuple[str, tuple[str, ...]]]:
        """(id, normalized label tokens) of each entity whose lower-cased
        label contains `token`, in ascending id order."""
        found = self._candidates.get(token)
        if found is None:
            text, starts, ids = self._joined
            labels = self._graph.labels
            found = []
            at = text.find(token)
            while at >= 0:
                i = bisect_right(starts, at) - 1
                found.append((ids[i], tuple(normalize_tokens(labels[i]))))
                at = text.find(token, starts[i + 1]) if i + 1 < len(starts) else -1
            self._candidates[token] = found
        return found

    def tables(self, tokens: list[str]) -> tuple[dict[tuple[str, ...], str | None],
                                                 dict[tuple[str, ...], str | None]]:
        """(exact, prefix) over the candidates of `tokens`: each label's
        full token tuple, and each of its leading sub-tuples, maps to the
        id carrying it while that id is unique, and to None once a second
        id shares it.  For every run of `tokens`, both tables hold what
        they would hold over every label."""
        labels: dict[str, tuple[str, ...]] = {}
        for token in tokens:
            labels.update(self.candidates(token))
        exact: dict[tuple[str, ...], str | None] = {}
        prefix: dict[tuple[str, ...], str | None] = {}
        for eid, toks in labels.items():
            exact[toks] = None if toks in exact else eid
            for n in range(1, len(toks) + 1):
                prefix[toks[:n]] = None if toks[:n] in prefix else eid
        return exact, prefix


def _resolve_entity(tokens: list[str], labels: LabelSearch) -> tuple[str, list[str]] | None:
    """Resolve a token sequence to a unique entity by label.

    Tries exact label matches over contiguous subsequences (longest first,
    then leftmost), then unique label prefixes; returns the entity id and
    the tokens left unconsumed.
    """
    n = len(tokens)
    for table in labels.tables(tokens):
        for length in range(n, 0, -1):
            for start in range(0, n - length + 1):
                eid = table.get(tuple(tokens[start : start + length]))
                if eid is not None:
                    return eid, tokens[:start] + tokens[start + length :]
    return None


def match_freeform(text: str, registry: TemplateRegistry, labels: LabelSearch) -> FreeformMatch | NoMatch:
    """Route free-form English to a template plus slot values, resolving
    entity slots against the graph's `labels`, or report the nearest
    templates when no routing is confident enough."""
    query_tokens = normalize_tokens(text)
    query_set = frozenset(query_tokens)
    if not query_tokens:
        return NoMatch([], "empty query")

    scored: list[tuple[float, frozenset[str], Template]] = []
    for template in registry.by_name.values():
        best_score, best_trigger = 0.0, frozenset()
        for trigger_set in template.trigger_token_sets:
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
    if top_score < JACCARD_THRESHOLD:
        return NoMatch(suggestions, f"best score {top_score:.2f} below {JACCARD_THRESHOLD}")
    # registry order breaks ties
    score, trigger, template = next(item for item in scored if item[0] == top_score)

    remaining = [t for t in query_tokens if t not in trigger]
    args: dict[str, str] = {}
    for slot_name, slot_type in template.slots:
        if slot_type == "date":
            hit = next((t for t in remaining if normalize_date(t) is not None), None)
            if hit is None:
                return NoMatch(suggestions, f"could not fill date slot {slot_name!r}")
            args[slot_name] = normalize_date(hit)
            remaining.remove(hit)
        elif slot_type == "number":
            hit = next((t for t in remaining if _NUMBER.fullmatch(t)), None)
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
