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
from dataclasses import dataclass

from ckt.errors import QueryError
from ckt.graph import PREDICATES

FILTER_OPS = ("=", "!=", "<", "<=", ">", ">=", "CONTAINS", "BEFORE", "AFTER")

VAR = "var"
IRI = "id"
LITERAL = "literal"


@dataclass(frozen=True)
class Term:
    kind: str  # "var" | "id" | "literal"
    value: str


@dataclass(frozen=True)
class TriplePattern:
    s: Term
    p: Term
    o: Term

    def variables(self) -> set[str]:
        return {t.value for t in (self.s, self.p, self.o) if t.kind == VAR}


@dataclass(frozen=True)
class FilterClause:
    var: str
    op: str
    literal: str


@dataclass(frozen=True)
class QueryAST:
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


def is_word(text: str) -> bool:
    """True when the lexer reads all of `text` as one word token."""
    return _WHOLE_WORD.fullmatch(text) is not None


def _lex(text: str, values: dict[str, str] | None) -> list[_Token]:
    """All tokens of `text`, then an end token at its length.  Each `$name`
    in a word or a literal is bound to `values[name]` in one pass."""
    def bind(token: str) -> str:
        if not values:
            return token
        return _SLOT.sub(lambda m: values.get(m.group(1), m.group()), token)

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
            tok = bind(_ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), tok[1:-1]))
        elif kind == "word":
            tok = bind(tok)
        toks.append((kind, tok, offset))
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, values: dict[str, str] | None):
        self.toks = _lex(text, values)
        self.pos = 0

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
                if kind != "word" or not _COUNT.fullmatch(num):
                    raise QueryError("LIMIT needs an integer", offset)
                limit = int(num)
                if limit < 0:
                    raise QueryError("LIMIT must be >= 0", offset)
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
            if position == "predicate" and tok not in PREDICATES:
                raise QueryError(f"unknown predicate {tok!r}", offset)
            return Term(IRI, tok)
        raise QueryError(f"unexpected token {tok!r} in {position} position", offset)

    def _filter(self) -> FilterClause:
        kind, var, offset = self._next("a variable after FILTER")
        if kind != "var":
            raise QueryError("FILTER needs a ?variable", offset)
        kind, op, offset = self._next("a filter operator")
        if kind != "word":
            raise QueryError("filter operator must be a bare word", offset)
        if op.upper() not in FILTER_OPS:
            raise QueryError(f"unknown filter operator {op!r}", offset)
        kind, literal, offset = self._next("a filter literal")
        if kind == "var":
            raise QueryError("filter literal may not be a variable", offset)
        if kind not in ("word", "string"):
            raise QueryError("filter literal must be a word or a quoted string", offset)
        return FilterClause(var, op.upper(), literal)


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


def parse_query(text: str, values: dict[str, str] | None = None) -> QueryAST:
    """Parse query text; syntax errors carry the character offset.

    `values` binds template slots: each `$name` inside a word or a literal
    becomes `values[name]` after the text is split into tokens, so a value
    never adds or ends a token and is never substituted again."""
    return _Parser(text, values).parse()


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
