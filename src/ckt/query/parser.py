"""Conjunctive query grammar.

    SELECT ?v [?w ...] WHERE { s p o [; s p o ...] }
        [FILTER ?v OP literal ...] [LIMIT n]

Keywords are case-insensitive.  Subjects are entity ids or variables,
predicates are drawn from the closed predicate set (or variables), objects
may additionally be double-quoted literals with backslash escapes.  Every
selected or filtered variable must appear in some pattern.

One regex defines the tokens; a word runs up to whitespace or one of
`{};"?`.  An id is one word, so `is_word` checks template entity values
and the source paths a build puts into ids.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ckt.errors import QueryError
from ckt.graph import PREDICATES

FILTER_OPS = ("=", "!=", "<", "<=", ">", ">=", "CONTAINS", "BEFORE", "AFTER")

VAR = "var"
IRI = "id"
LITERAL = "literal"


class Term(NamedTuple):
    kind: str  # "var" | "id" | "literal"
    value: str


class TriplePattern(NamedTuple):
    s: Term
    p: Term
    o: Term

    def variables(self) -> set[str]:
        return {t.value for t in (self.s, self.p, self.o) if t.kind == VAR}


class FilterClause(NamedTuple):
    var: str
    op: str
    literal: str


class QueryAST(NamedTuple):
    select: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterClause, ...] = ()
    limit: int | None = None


# One alternative per token, tried in order at each offset; whitespace
# starts none of them, so finditer steps over it.
_WORD = r'[^\s{};"?]+'
_TOKEN = re.compile(
    rf"""(?P<punct>[{{}};])
    |(?P<string>"(?:[^"\\]|\\[\s\S])*")
    |(?P<var>\?\w*)
    |(?P<word>{_WORD})
    |(?P<open>")""",
    re.VERBOSE,
)
_WHOLE_WORD = re.compile(_WORD)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}
# a template slot inside a word or a literal
_SLOT = re.compile(r"\$([A-Za-z0-9_]+)")
_KEYWORDS = ("SELECT", "WHERE", "FILTER", "LIMIT")
# ASCII digits only: int() would also take `1_0`, `+3` and other scripts' digits
_COUNT = re.compile(r"-?[0-9]+")

_Token = tuple[str, str, int]  # kind ("punct" | "string" | "var" | "word" | "end"), text, offset


class _Unbound(str):
    """The text of a word or a literal that holds a `$slot`."""


class _SlotKeyword(Exception):
    """An unbound text stands where a keyword may: its value decides the
    parse."""


def is_word(text: str) -> bool:
    """True when the lexer reads all of `text` as one word token."""
    return _WHOLE_WORD.fullmatch(text) is not None


def _unbound(text: str) -> str:
    return _Unbound(text) if "$" in text and _SLOT.search(text) else text


def _lex(text: str) -> list[_Token]:
    """All tokens of `text`, then an end token at its length.  A word or a
    literal that holds a `$slot` has an _Unbound text."""
    toks: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind, tok, offset = m.lastgroup, m.group(), m.start()
        if kind == "open":
            raise QueryError("unterminated string literal", offset)
        if kind == "var":
            if tok == "?":
                raise QueryError("'?' must be followed by a variable name", offset)
            tok = tok[1:]
        elif kind == "string":
            tok = _unbound(_ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), tok[1:-1]))
        elif kind == "word":
            tok = _unbound(tok)
        toks.append((kind, tok, offset))
    toks.append(("end", "", len(text)))
    return toks


def _bound(toks: list[_Token], values: dict[str, str]) -> list[_Token]:
    """`toks` with each `$name` of an unbound text bound to `values[name]`
    in one pass."""
    def value(m: re.Match) -> str:
        return values.get(m.group(1), m.group())

    return [(kind, _SLOT.sub(value, text) if type(text) is _Unbound else text, offset)
            for kind, text, offset in toks]


# Readers of a word's text, which raise QueryError at the token's offset
# where the grammar rejects it

def _predicate(word: str, offset: int) -> str:
    if word not in PREDICATES:
        raise QueryError(f"unknown predicate {word!r}", offset)
    return word


def _operator(word: str, offset: int) -> str:
    if word.upper() not in FILTER_OPS:
        raise QueryError(f"unknown filter operator {word!r}", offset)
    return word.upper()


def _count(word: str, offset: int) -> int:
    if not _COUNT.fullmatch(word):
        raise QueryError("LIMIT needs an integer", offset)
    count = int(word)
    if count < 0:
        raise QueryError("LIMIT must be >= 0", offset)
    return count


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    @staticmethod
    def _read(text: str, offset: int, reader):
        """reader(text, offset), or an unbound text unchecked."""
        return text if type(text) is _Unbound else reader(text, offset)

    def _peek(self) -> _Token:
        return self.toks[self.pos]

    def _next(self, expected: str) -> _Token:
        tok = self.toks[self.pos]
        if tok[0] == "end":
            raise QueryError(f"expected {expected}, found end of query", tok[2])
        self.pos += 1
        return tok

    @staticmethod
    def _keyword(tok: _Token) -> str | None:
        if type(tok[1]) is _Unbound:
            raise _SlotKeyword
        word = tok[1].upper()
        return word if tok[0] == "word" and word in _KEYWORDS else None

    def parse(self) -> QueryAST:
        tok = self._next("SELECT")
        if self._keyword(tok) != "SELECT":
            raise QueryError("query must start with SELECT", tok[2])
        select: list[str] = []
        while (tok := self._peek())[0] == "var":
            select.append(tok[1])
            self.pos += 1
        if not select:
            raise QueryError("SELECT needs at least one variable", tok[2])
        tok = self._next("WHERE")
        if self._keyword(tok) != "WHERE":
            raise QueryError("expected WHERE", tok[2])
        tok = self._next("'{'")
        if tok[:2] != ("punct", "{"):
            raise QueryError("expected '{' after WHERE", tok[2])
        patterns = self._patterns()
        filters: list[FilterClause] = []
        limit: int | None = None
        while (tok := self._peek())[0] != "end":
            self.pos += 1
            kw = self._keyword(tok)
            if kw == "FILTER":
                filters.append(self._filter())
            elif kw == "LIMIT":
                kind, num, offset = self._next("a number after LIMIT")
                if kind != "word":
                    raise QueryError("LIMIT needs an integer", offset)
                limit = self._read(num, offset, _count)
            else:
                raise QueryError(f"unexpected token {tok[1]!r}", tok[2])
        ast = QueryAST(tuple(select), tuple(patterns), tuple(filters), limit)
        _validate(ast)
        return ast

    def _patterns(self) -> list[TriplePattern]:
        patterns: list[TriplePattern] = []
        while True:
            kind, tok, offset = self._peek()
            if kind == "end":
                raise QueryError("expected '}'", offset)
            if kind == "punct" and tok in "};":
                self.pos += 1
                if tok == "}":
                    return patterns
                continue
            s = self._term("subject")
            p = self._term("predicate")
            o = self._term("object")
            patterns.append(TriplePattern(s, p, o))

    def _term(self, position: str) -> Term:
        kind, tok, offset = self._next(f"a {position} term")
        if kind == "var":
            return Term(VAR, tok)
        if kind == "string":
            if position != "object":
                raise QueryError(f"literal not allowed in {position} position", offset)
            return Term(LITERAL, tok)
        if kind == "word":
            return Term(IRI, self._read(tok, offset, _predicate) if position == "predicate" else tok)
        raise QueryError(f"unexpected token {tok!r} in {position} position", offset)

    def _filter(self) -> FilterClause:
        kind, var, offset = self._next("a variable after FILTER")
        if kind != "var":
            raise QueryError("FILTER needs a ?variable", offset)
        kind, op, offset = self._next("a filter operator")
        if kind != "word":
            raise QueryError("filter operator must be a bare word", offset)
        op = self._read(op, offset, _operator)
        kind, literal, offset = self._next("a filter literal")
        if kind == "var":
            raise QueryError("filter literal may not be a variable", offset)
        if kind not in ("word", "string"):
            raise QueryError("filter literal must be a word or a quoted string", offset)
        return FilterClause(var, op, literal)


def _validate(ast: QueryAST) -> None:
    pattern_vars: set[str] = set()
    for pattern in ast.patterns:
        pattern_vars |= pattern.variables()
    for var in ast.select:
        if var not in pattern_vars:
            raise QueryError(f"selected variable ?{var} is unbound (appears in no pattern)")
    for fl in ast.filters:
        if fl.var not in pattern_vars:
            raise QueryError(f"filtered variable ?{fl.var} is unbound (appears in no pattern)")


class PreparedQuery:
    """Query text lexed once, for any values of its template slots.

    `error` is what one check parse of the tokens raises, with each word
    or literal that holds a `$slot` left unchecked: an error that no slot
    values can mend.  Where such a text stands in a keyword's place, its
    value decides the parse, and the check stops with no error."""

    def __init__(self, text: str):
        self.toks: list[_Token] = []
        self.error: QueryError | None = None
        try:
            self.toks = _lex(text)
            _Parser(self.toks).parse()
        except QueryError as exc:
            self.error = exc
        except _SlotKeyword:
            pass

    def bind(self, values: dict[str, str]) -> QueryAST:
        """The query with each `$name` bound to `values[name]`, parsed from
        the bound tokens; a name without a value stays as it is written."""
        if not self.toks:  # the text did not lex
            raise self.error.with_traceback(None)
        return _Parser(_bound(self.toks, values)).parse()


def parse_query(text: str) -> QueryAST:
    """Parse query text; syntax errors carry the character offset.  A
    `$name` is read as written: templates bind theirs through
    PreparedQuery.bind."""
    return _Parser(_bound(_lex(text), {})).parse()


def _quote(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def _term_text(term: Term) -> str:
    if term.kind == VAR:
        return f"?{term.value}"
    if term.kind == LITERAL:
        return _quote(term.value)
    return term.value


def format_query(ast: QueryAST) -> str:
    """Canonical text form; parse(format_query(ast)) == ast."""
    parts = ["SELECT", *(f"?{v}" for v in ast.select), "WHERE", "{"]
    chunks = [
        f"{_term_text(p.s)} {_term_text(p.p)} {_term_text(p.o)}" for p in ast.patterns
    ]
    parts.append(" ; ".join(chunks))
    parts.append("}")
    for fl in ast.filters:
        parts.extend(["FILTER", f"?{fl.var}", fl.op, _quote(fl.literal)])
    if ast.limit is not None:
        parts.extend(["LIMIT", str(ast.limit)])
    return " ".join(p for p in parts if p)
