"""Conjunctive query grammar.

    SELECT ?v [?w ...] WHERE { s p o [; s p o ...] }
        [FILTER ?v OP literal ...] [LIMIT n]

Keywords are case-insensitive.  Subjects are entity ids or variables,
predicates are drawn from the closed predicate set (or variables), objects
may additionally be double-quoted literals with backslash escapes.  Every
selected or filtered variable must appear in some pattern.
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


# characters that end a word token, besides whitespace
WORD_BREAKS = '{};"?'
# a template slot inside a word or a literal
_SLOT = re.compile(r"\$([A-Za-z0-9_]+)")


def is_word(text: str) -> bool:
    """True when the lexer reads all of `text` as one word token."""
    return bool(text) and not any(ch.isspace() or ch in WORD_BREAKS for ch in text)


@dataclass(frozen=True)
class _Tok:
    kind: str  # "word" | "var" | "string" | "punct"
    text: str
    offset: int


def _lex(text: str, values: dict[str, str] | None) -> list[_Tok]:
    def bind(token: str) -> str:  # each $name with a value, in one pass
        if not values:
            return token
        return _SLOT.sub(lambda m: values.get(m.group(1), m.group()), token)

    toks: list[_Tok] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "{};":
            toks.append(_Tok("punct", ch, i))
            i += 1
            continue
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise QueryError("unterminated string literal", i)
            toks.append(_Tok("string", bind("".join(buf)), i))
            i = j + 1
            continue
        if ch == "?":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise QueryError("'?' must be followed by a variable name", i)
            toks.append(_Tok("var", text[i + 1 : j], i))
            i = j
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in WORD_BREAKS:
            j += 1
        toks.append(_Tok("word", bind(text[i:j]), i))
        i = j
    return toks


class _Parser:
    def __init__(self, text: str, values: dict[str, str] | None):
        self.text = text
        self.toks = _lex(text, values)
        self.pos = 0

    def _peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self, expected: str) -> _Tok:
        tok = self._peek()
        if tok is None:
            raise QueryError(f"expected {expected}, found end of query", len(self.text))
        self.pos += 1
        return tok

    def _keyword(self, tok: _Tok | None) -> str | None:
        if tok is not None and tok.kind == "word":
            word = tok.text.upper()
            if word in ("SELECT", "WHERE", "FILTER", "LIMIT"):
                return word
        return None

    def parse(self) -> QueryAST:
        tok = self._next("SELECT")
        if self._keyword(tok) != "SELECT":
            raise QueryError("query must start with SELECT", tok.offset)
        select: list[str] = []
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "var":
                select.append(tok.text)
                self.pos += 1
            else:
                break
        if not select:
            offset = tok.offset if tok else len(self.text)
            raise QueryError("SELECT needs at least one variable", offset)
        tok = self._next("WHERE")
        if self._keyword(tok) != "WHERE":
            raise QueryError("expected WHERE", tok.offset)
        tok = self._next("'{'")
        if tok.text != "{":
            raise QueryError("expected '{' after WHERE", tok.offset)
        patterns = self._patterns()
        filters: list[FilterClause] = []
        limit: int | None = None
        while True:
            tok = self._peek()
            kw = self._keyword(tok)
            if kw == "FILTER":
                self.pos += 1
                filters.append(self._filter())
            elif kw == "LIMIT":
                self.pos += 1
                num = self._next("a number after LIMIT")
                try:
                    limit = int(num.text)
                except ValueError:
                    raise QueryError("LIMIT needs an integer", num.offset) from None
                if limit < 0:
                    raise QueryError("LIMIT must be >= 0", num.offset)
            elif tok is None:
                break
            else:
                raise QueryError(f"unexpected token {tok.text!r}", tok.offset)
        ast = QueryAST(tuple(select), tuple(patterns), tuple(filters), limit)
        _validate(ast, self.text)
        return ast

    def _patterns(self) -> list[TriplePattern]:
        patterns: list[TriplePattern] = []
        while True:
            tok = self._peek()
            if tok is None:
                raise QueryError("expected '}'", len(self.text))
            if tok.text == "}" and tok.kind == "punct":
                self.pos += 1
                return patterns
            if tok.text == ";" and tok.kind == "punct":
                self.pos += 1
                continue
            s = self._term("subject", allow_literal=False)
            p = self._term("predicate", allow_literal=False, predicate=True)
            o = self._term("object", allow_literal=True)
            patterns.append(TriplePattern(s, p, o))

    def _term(self, position: str, allow_literal: bool, predicate: bool = False) -> Term:
        tok = self._next(f"a {position} term")
        if tok.kind == "var":
            return Term(VAR, tok.text)
        if tok.kind == "string":
            if not allow_literal:
                raise QueryError(f"literal not allowed in {position} position", tok.offset)
            return Term(LITERAL, tok.text)
        if tok.kind == "word":
            if predicate:
                if tok.text not in PREDICATES:
                    raise QueryError(f"unknown predicate {tok.text!r}", tok.offset)
            return Term(IRI, tok.text)
        raise QueryError(f"unexpected token {tok.text!r} in {position} position", tok.offset)

    def _filter(self) -> FilterClause:
        var_tok = self._next("a variable after FILTER")
        if var_tok.kind != "var":
            raise QueryError("FILTER needs a ?variable", var_tok.offset)
        op_tok = self._next("a filter operator")
        op = op_tok.text.upper()
        if op not in FILTER_OPS:
            raise QueryError(f"unknown filter operator {op_tok.text!r}", op_tok.offset)
        lit_tok = self._next("a filter literal")
        if lit_tok.kind == "var":
            raise QueryError("filter literal may not be a variable", lit_tok.offset)
        return FilterClause(var_tok.text, op, lit_tok.text)


def _validate(ast: QueryAST, text: str) -> None:
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
