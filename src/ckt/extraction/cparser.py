"""Recursive-descent scanner for a small C subset.

Recognized grammar, by design rather than omission:

  * function definitions  ``[static] type name(params) { body }``
  * global / local variable declarations with storage class, including
    comma declarator lists and initializers
  * struct / class / union / enum declarations (bodies are opaque; members
    are not extracted)
  * one rule for a repeated name: the first declaration of a name in its
    scope wins, so a repeated global, parameter or local declares nothing,
    nor does a repeated aggregate definition apart from the instances
    after it
  * call expressions by name, including thread-creation calls whose
    function-name argument is flagged ``threading=create``
  * reads and writes of resolvable variables (assignment operators and
    ``++``/``--`` mark writes, also behind subscripts as in ``a[i] = x``;
    any other resolvable occurrence is a read)

One lexer, `lex`, reads the text once for both the parser and the comment
extractor.  Each match of its one pattern absorbs the blanks (space, tab,
CR, FF and VT, but not LF) before its lexeme, so a run of them costs no
failed match per character, and a run that ends the text is absorbed by
the end of text, which lexes as one more newline.  Any other character,
U+00A0 and letters outside ASCII among them, is a one-character
punctuator.  A ``#`` with no code before it on its line starts a directive,
which runs to the end of the line or on past a backslash-newline; its tokens
are dropped and its comments recorded.  A ``//`` comment, too, runs on past
a backslash-newline.  A literal ends at its closing quote or at the end of
its line; a backslash-newline inside it continues it and counts as a line.
A block comment may span lines, also from a directive.  Anything else
(macros, templates, function pointers, namespaces) is skipped as an
unparseable region; skipping is never fatal.  No macro expansion, no
overload resolution.

Each bracket rule has one walk, and none fails on unbalanced input:

  * a function body, an aggregate body, a subscript group and a call's
    arguments end at the bracket that closes their opener, counting only
    that kind (`_closer`);
  * a statement ends at the first ``;``, ``{`` or ``}`` outside
    parentheses, whose depth stops at 0 (`_segment`);
  * a declaration splits at ``,`` and its declarators at ``=`` outside
    ``()``, ``[]`` and ``{}`` counted together, whose depth may go
    negative (`_split_top_level`, `_declarator`);
  * a ``typedef`` is skipped to the first ``;`` where ``()`` and ``{}``,
    counted together, are at depth 0 or below, and a signature's
    parameter list is its last ``(`` outside parentheses.

An unclosed bracket runs to the end of its token list: the file's tokens
for a body, the statement's for a subscript or a call.
"""

from __future__ import annotations

import posixpath
import re
from typing import NamedTuple

from ckt import ids
from ckt.model import Entity, FactSet, Record, Relation, Span

TYPE_KEYWORDS = frozenset(
    ["void", "char", "short", "int", "long", "float", "double", "signed", "unsigned", "bool"]
)
STORAGE_KEYWORDS = frozenset(["static", "extern", "register"])
QUALIFIER_KEYWORDS = frozenset(["const", "volatile", "inline"])
CONTROL_KEYWORDS = frozenset(
    ["if", "else", "for", "while", "do", "switch", "case", "default",
     "return", "goto", "break", "continue", "sizeof", "new", "delete"]
)
AGGREGATE_KEYWORDS = frozenset(["struct", "class", "union", "enum"])
# words that open a declaration, and with the control words every word
# that never names a variable or a callee
_DECL_OPENERS = TYPE_KEYWORDS | STORAGE_KEYWORDS | QUALIFIER_KEYWORDS | AGGREGATE_KEYWORDS
_RESERVED = _DECL_OPENERS | CONTROL_KEYWORDS
# Callee names the parser treats as thread creation points.
THREAD_CREATE_FNS = frozenset(["pthread_create", "CreateThread", "thrd_create"])

ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])

_SPACE = r" \t\r\f\v"  # the blanks: each match absorbs those before its lexeme
# One alternative per lexeme, tried in order (no other starts as `id` does, so
# it goes first); `nl` also matches at the end of the text, so blanks there
# end the last match rather than fail one by one.
_LEXEME = re.compile(
    rf"""[{_SPACE}]*(?:(?P<id>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<nl>\n|\Z)
    |(?P<line>//[^\n\\]*(?:\\\n?[^\n\\]*)*)
    |(?P<block>/\*(?s:.*?)\*/)
    |(?P<open>/\*(?s:.*))
    |(?P<str>"(?:[^"\\\n]|\\[\s\S]?)*"?|'(?:[^'\\\n]|\\[\s\S]?)*'?)
    |(?P<num>(?:0[xX][0-9a-fA-F]+|\d+\.?\d*(?:[eE][+-]?\d+)?)[uUlLfF]*)
    |(?P<punct><<=|>>=|\.\.\.|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=
        |<<|>>|==|!=|<=|>=|&&|\|\||->|::|[^{_SPACE}]))""",
    re.VERBOSE,
)


class Tok(NamedTuple):
    kind: str  # "id" | "num" | "str" | "punct"
    text: str
    line: int


RawComment = tuple[int, int, str, str, bool, bool]
Lexed = tuple[list[Tok], list[RawComment]]


def lex(text: str) -> Lexed:
    """Lex source in one pass into code tokens and raw comments.

    Each comment is (start line, end line, "line" | "block", the text
    between its delimiters, trailing, unterminated); it is trailing when
    code precedes it on its line.  A ``//`` comment runs on past a
    backslash-newline, which its text drops, as C splices the lines.  A
    directive's tokens are dropped, its comments kept.  A literal token
    carries the line it starts on.
    """
    toks: list[Tok] = []
    comments: list[RawComment] = []
    line = 1
    code_on_line = directive = False
    new_tok, append = tuple.__new__, toks.append  # Tok's own __new__ is a Python function
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            if not (directive and text[m.start(kind) - 1] == "\\"):
                code_on_line = directive = False
            continue
        lexeme = m.group(kind)
        if kind == "line":
            end = line + lexeme.count("\n")
            comments.append((line, end, "line", lexeme[2:].replace("\\\n", ""),
                             code_on_line, False))
            line = end
        elif kind == "block" or kind == "open":
            body = lexeme[2:-2] if kind == "block" else lexeme[2:]
            end = line + body.count("\n")
            comments.append((line, end, "block", body, code_on_line, kind == "open"))
            line = end
        else:
            if not code_on_line:  # the line's first code token
                directive = lexeme == "#"
                code_on_line = True
            if not directive:
                append(new_tok(Tok, (kind, lexeme, line)))
            if kind == "str":
                line += lexeme.count("\n")
    return toks, comments


class _FuncDef(Record):
    __slots__ = _fields = ("name", "start_line", "end_line", "params", "body", "storage")

    def __init__(self, name: str, start_line: int, end_line: int, params: list[tuple[str, str]],
                 body: tuple[int, int], storage: str | None):
        self.name = name
        self.start_line = start_line
        self.end_line = end_line
        self.params = params  # (name, type text)
        self.body = body  # token index range, exclusive end
        self.storage = storage


_CLOSERS = {"(": ")", "[": "]", "{": "}"}


def _closer(toks: list[Tok], i: int) -> int:
    """Index of the bracket that closes toks[i], a '(', '[' or '{',
    counting only that bracket kind; len(toks)-1 when it is never closed."""
    opener = toks[i].text
    closer = _CLOSERS[opener]
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def _segment(toks: list[Tok], i: int) -> tuple[int, str]:
    """Index and text of the first ';', '{' or '}' from i outside
    parentheses, whose depth never falls below 0; (len(toks), "") when
    there is none."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth = max(0, depth - 1)
        elif depth == 0 and t in (";", "{", "}"):
            return j, t
    return len(toks), ""


def _split_top_level(toks: list[Tok], sep: str) -> list[list[Tok]]:
    chunks: list[list[Tok]] = [[]]
    depth = 0
    for t in toks:
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        if t.text == sep and depth == 0:
            chunks.append([])
        else:
            chunks[-1].append(t)
    return chunks


def _declarator(chunk: list[Tok]) -> tuple[int, list[Tok]]:
    """(index of the declared name, tokens after the first '=') for one
    declarator, the '=' and the name at depth 0.  Depth counts every
    bracket kind together and may go negative; the name is the last
    identifier before that '=' other than a qualifier, -1 when there is
    none."""
    depth = 0
    name = -1
    for k, t in enumerate(chunk):
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        elif depth == 0:
            if t.text == "=":
                return name, chunk[k + 1 :]
            if t.kind == "id" and t.text not in QUALIFIER_KEYWORDS:
                name = k
    return name, []


def _parse_declaration(
    seg: list[Tok], known_types: set[str]
) -> tuple[list[tuple[str, str, str | None, int]], list[Tok]]:
    """Parse ``[storage] type declarator[, declarator]*`` out of a statement.

    Returns (decls, initializer tokens), where each decl is
    (name, type text, storage, line).  Empty decls means the segment is
    not a recognizable variable declaration.
    """
    if len(seg) < 2 or seg[0].kind != "id" or seg[0].text in CONTROL_KEYWORDS:
        return [], []
    if seg[0].text not in _DECL_OPENERS and seg[0].text not in known_types:
        return [], []

    chunks = _split_top_level(seg, ",")
    first = chunks[0]
    storage = None
    head: list[Tok] = []
    for t in first:
        if t.kind == "id" and t.text in STORAGE_KEYWORDS:
            storage = t.text if storage is None else storage
        else:
            head.append(t)

    # the first chunk's name is looked up without its storage words, its
    # initializer taken with them
    ni = _declarator(head)[0]
    if ni <= 0:
        return [], []  # no type tokens before the name
    # a '(' directly after the name means prototype / function-ptr: skip
    if ni + 1 < len(head) and head[ni + 1].text == "(":
        return [], []
    name_tok = head[ni]
    if name_tok.text in TYPE_KEYWORDS or name_tok.text in AGGREGATE_KEYWORDS:
        return [], []
    type_toks = [t for t in head[:ni] if t.kind == "id" or t.text == "*"]
    if not type_toks:
        return [], []
    type_text = " ".join(t.text for t in type_toks)

    decls = [(name_tok.text, type_text, storage, name_tok.line)]
    init_toks = _declarator(first)[1]
    for chunk in chunks[1:]:
        mi, init = _declarator(chunk)
        if mi >= 0:  # a chunk without a name adds no initializer either
            decls.append((chunk[mi].text, type_text, storage, chunk[mi].line))
            init_toks += init
    return decls, init_toks


class _FileParse:
    """Two-pass parse of one translation unit."""

    def __init__(self, toks: list[Tok], path: str):
        self.toks = toks
        self.path = path
        self.facts = FactSet()
        self.functions: dict[str, _FuncDef] = {}
        self.globals: dict[str, str] = {}  # name -> var id
        self.known_types: set[str] = set()
        self.file_id = ids.file_id(path)

    # -- pass 1: top-level shapes ------------------------------------

    def scan_top_level(self) -> None:
        toks = self.toks
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.kind == "id" and t.text == "typedef":
                i = self._skip_statement(i)
                continue
            if t.kind == "id" and t.text in AGGREGATE_KEYWORDS:
                nxt = self._aggregate(i)
                if nxt is not None:
                    i = nxt
                    continue
            seg_end, stop = _segment(toks, i)
            seg = toks[i:seg_end]
            if stop == "{":
                fn = self._function_signature(seg, seg_end)
                close = _closer(toks, seg_end)
                if fn is not None:
                    fn.end_line = toks[close].line
                    # an unclosed body keeps the file's last token
                    fn.body = (seg_end + 1, close if toks[close].text == "}" else close + 1)
                    if fn.name not in self.functions:
                        self.functions[fn.name] = fn
                i = close + 1
            elif stop == ";":
                for decl in _parse_declaration(seg, self.known_types)[0]:
                    self._declare(self.globals, self.file_id, "", "global", *decl)
                i = seg_end + 1
            else:
                i = seg_end + 1

    def _skip_statement(self, i: int) -> int:
        depth = 0
        j = i
        while j < len(self.toks):
            t = self.toks[j].text
            if t in "({":
                depth += 1
            elif t in ")}":
                depth -= 1
            elif t == ";" and depth <= 0:
                return j + 1
            j += 1
        return j

    def _aggregate(self, i: int) -> int | None:
        """struct/class/union/enum NAME [: bases] { ... } [declarators] ;"""
        toks = self.toks
        if i + 1 >= len(toks) or toks[i + 1].kind != "id":
            return None
        name = toks[i + 1].text
        j = i + 2
        # skip a base-clause or enum underlying type up to the brace
        while j < len(toks) and toks[j].text not in ("{", ";"):
            if toks[j].text in ("(", ")"):
                return None  # e.g. `struct S fn(...)` return type: not a decl here
            j += 1
        if j >= len(toks):
            return None
        if toks[j].text == ";":
            if j == i + 2:
                return j + 1  # bare forward declaration: nothing to record
            return None  # `struct S ident;` is a variable declaration
        close = _closer(toks, j)
        if name not in self.known_types:  # a repeated definition declares nothing
            self.known_types.add(name)
            kind = "class" if toks[i].text == "class" else "type"
            tid = ids.type_id(self.path, name)
            self._add(Entity(tid, kind, name, Span(self.path, toks[i].line, toks[close].line)))
            self.facts.add_relation(Relation(self.file_id, "declares", tid, toks[i].line))
        # `struct S { ... } inst1, inst2;`
        k = close + 1
        tail: list[Tok] = []
        while k < len(toks) and toks[k].text != ";":
            tail.append(toks[k])
            k += 1
        for chunk in _split_top_level(tail, ","):
            names = [t for t in chunk if t.kind == "id"]
            if names:
                self._declare(self.globals, self.file_id, "", "global",
                              names[-1].text, f"{toks[i].text} {name}", None, names[-1].line)
        return k + 1 if k < len(toks) else k

    def _function_signature(self, seg: list[Tok], open_idx: int) -> _FuncDef | None:
        # find the parameter list: last top-level '(' whose ')' ends the
        # segment (a trailing `const` is tolerated)
        depth = 0
        open_pos = -1
        for k, t in enumerate(seg):
            if t.text == "(":
                if depth == 0:
                    open_pos = k
                depth += 1
            elif t.text == ")":
                depth -= 1
        if open_pos <= 0 or depth != 0:
            return None
        tail = seg[-1].text
        if tail not in (")", "const"):
            return None
        name_tok = seg[open_pos - 1]
        if name_tok.kind != "id" or name_tok.text in CONTROL_KEYWORDS or name_tok.text in TYPE_KEYWORDS:
            return None
        storage = next((t.text for t in seg[:open_pos] if t.text in STORAGE_KEYWORDS), None)
        params: list[tuple[str, str]] = []
        close_pos = len(seg) - 1 if tail == ")" else len(seg) - 2
        for chunk in _split_top_level(seg[open_pos + 1 : close_pos], ","):
            idents = [t for t in chunk if t.kind == "id" and t.text not in TYPE_KEYWORDS
                      and t.text not in QUALIFIER_KEYWORDS and t.text not in AGGREGATE_KEYWORDS]
            if not idents:
                continue  # `void` or unnamed parameter
            pname = idents[-1].text
            ptype = " ".join(t.text for t in chunk if (t.kind == "id" and t.text != pname) or t.text == "*")
            params.append((pname, ptype or "int"))
        return _FuncDef(name_tok.text, seg[0].line, seg[0].line, params, (0, 0), storage)

    def _declare(self, names: dict[str, str], owner: str, prefix: str, scope: str,
                 name: str, type_text: str, storage: str | None, line: int) -> None:
        """Declare variable `name`, which `owner` declares, in the scope whose
        names `names` maps to variable ids; the first declaration of a name
        in its scope wins."""
        if name in names:
            return
        vid = names[name] = ids.var_id(self.path, prefix + name)
        attrs = {"scope": scope}
        if storage:
            attrs["storage"] = storage
        self._add(Entity(vid, "variable", name, Span(self.path, line, line), attrs))
        self.facts.add_relation(Relation(owner, "declares", vid, line))
        self.facts.add_relation(Relation(vid, "has-type", type_text, line))

    # -- pass 2: function bodies --------------------------------------

    def scan_bodies(self) -> None:
        for name in sorted(self.functions):
            fn = self.functions[name]
            fid = ids.func_id(self.path, name)
            attrs = {"storage": fn.storage} if fn.storage else {}
            self._add(Entity(fid, "function", name, Span(self.path, fn.start_line, fn.end_line), attrs))
            self.facts.add_relation(Relation(self.file_id, "declares", fid, fn.start_line))
        for name in sorted(self.functions):
            self._scan_body(self.functions[name])

    def _scan_body(self, fn: _FuncDef) -> None:
        fid = ids.func_id(self.path, fn.name)
        prefix = f"{fn.name}."
        local_vars: dict[str, str] = {}
        for pname, ptype in fn.params:
            self._declare(local_vars, fid, prefix, "param", pname, ptype, None, fn.start_line)

        body = self.toks[fn.body[0] : fn.body[1]]
        k = 0
        while k < len(body):
            if body[k].text in ("{", "}"):
                k += 1
                continue
            end, stop = _segment(body, k)
            stmt = body[k:end]
            k = end + 1 if stop == ";" else end
            if not stmt:
                continue
            if stmt[0].kind == "id" and stmt[0].text in CONTROL_KEYWORDS:
                self._scan_expr(stmt, fid, local_vars)
                continue
            decls, init = _parse_declaration(stmt, self.known_types)
            for decl in decls:
                self._declare(local_vars, fid, prefix, "local", *decl)
            self._scan_expr(init if decls else stmt, fid, local_vars)

    @staticmethod
    def _after_subscripts(toks: list[Tok], idx: int) -> Tok | None:
        """First token after the [..] groups following toks[idx]."""
        j = idx + 1
        while j < len(toks) and toks[j].text == "[":
            j = _closer(toks, j) + 1
        return toks[j] if j < len(toks) else None

    def _scan_expr(self, toks: list[Tok], fid: str, local_vars: dict[str, str]) -> None:
        for idx, t in enumerate(toks):
            if t.kind != "id":
                continue
            word = t.text
            if word in _RESERVED:
                continue
            prev = toks[idx - 1] if idx > 0 else None
            nxt = toks[idx + 1] if idx + 1 < len(toks) else None
            if prev is not None and prev.text in (".", "->", "::"):
                continue  # member access: base already handled
            if nxt is not None and nxt.text == "(":
                self._record_call(toks, idx, fid, word, t.line)
                continue
            vid = local_vars.get(word) or self.globals.get(word)
            if vid is None:
                continue
            # assignment may sit behind subscripts: a[i][j] = ...
            after = self._after_subscripts(toks, idx) if nxt is not None and nxt.text == "[" else nxt
            if after is not None and after.text in ASSIGN_OPS:
                self.facts.add_relation(Relation(fid, "writes", vid, t.line))
                if after.text != "=" or after is not nxt:
                    self.facts.add_relation(Relation(fid, "reads", vid, t.line))
            elif (after is not None and after.text in ("++", "--")) or (
                prev is not None and prev.text in ("++", "--")
            ):
                self.facts.add_relation(Relation(fid, "reads", vid, t.line))
                self.facts.add_relation(Relation(fid, "writes", vid, t.line))
            else:
                self.facts.add_relation(Relation(fid, "reads", vid, t.line))

    def _record_call(self, toks: list[Tok], idx: int, fid: str, callee: str, line: int) -> None:
        target = ids.func_id(self.path, callee)
        if callee not in self.functions:
            self._add(Entity(target, "function", callee, None, {"external": "true"}))
        self.facts.add_relation(Relation(fid, "calls", target, line))
        if callee in THREAD_CREATE_FNS:
            started = self._thread_target(toks, idx + 1)
            if started is not None:
                self.facts.add_relation(
                    Relation(fid, "calls", started, line, {"threading": "create"})
                )

    def _thread_target(self, toks: list[Tok], open_idx: int) -> str | None:
        """First identifier inside the call's parentheses naming a known
        function; an unclosed call runs to the end of `toks`."""
        for t in toks[open_idx + 1 : _closer(toks, open_idx) + 1]:
            if t.kind == "id" and t.text in self.functions:
                return ids.func_id(self.path, t.text)
        return None

    def _add(self, entity: Entity) -> None:
        self.facts.add_entity(entity, merge=True)


def parse_source(text: str, path: str, lexed: Lexed | None = None) -> FactSet:
    """Extract entities and relations from one source file.

    Deterministic; unparseable regions are skipped.  Empty (or
    whitespace-only) input yields an empty fact set.  `lexed` is
    `lex(text)`, when the caller has it already.
    """
    path = ids.norm_path(path)
    if not text.strip():
        return FactSet()
    line_count = text.count("\n") + (0 if text.endswith("\n") else 1)
    line_count = max(1, line_count)
    toks = (lex(text) if lexed is None else lexed)[0]
    parse = _FileParse(toks, path)
    parse.facts.add_entity(
        Entity(parse.file_id, "file", posixpath.basename(path), Span(path, 1, line_count))
    )
    parse.scan_top_level()
    parse.scan_bodies()
    return parse.facts
