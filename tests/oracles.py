"""Independent reference implementations the real code is checked against.

Everything here is deliberately naive: nested-loop joins, dense matrix
power iteration, O(n^3) triangle enumeration, from-scratch lockset
recomputation.  None of it shares code with the package, except
`builder_load_graph`: it is the loader that sent every persisted record
through the package's own GraphBuilder, kept as the reference for the
direct loader that replaced it and as the one reader of the provenance
lists in triples.tsv, the old per-response augmentation, and
`dumps_facts`, the neutral facts writer, which reads entities through the
package's entity codec; no `ckt` command writes facts.  `format_query`
writes a QueryAST as canonical query text; no `ckt` command prints one.
`reference_parse_query`, the character-loop query parser the token regex
replaced, builds the package's QueryAST and raises its QueryError; it
checks the kind of each keyword, brace, operator and number token as the
package does.
`reference_parse_source`, the C parser with each bracket walk written out
where it is used, reads the package's `lex` tokens and keyword sets and
builds its FactSet.  `reference_lex` and `reference_associate_comments`
are the lexer and the comment association as they were before each step
was made to run once: a failed match per blank, a scan of every entity per
comment.  `LabelIndex` is free-form routing's label index as it was before
the label search: the exact and prefix tables over every label, through
the package's normalize_tokens.  `call_edges`, `accessors`,
`touching_commits` and `commit_keys` are the alert context's whole-graph
tables as it built them before the rules read the graph's indexes, and
`TupleIndexes` the graph's lookups as they were before its keys became
numbered arrays.
`reference_rank_results`, `reference_contains_rows` and
`reference_format_table` are the row path of an answer as it was before
its per-row loops moved into C builtins; the CONTAINS one reads the
package's search texts.  The helpers at the end
compare and parse what the package produces; `strict_load_graph` is
load_graph without its graph cache.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import posixpath
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ckt import ids
from ckt.errors import QueryError
from ckt.extraction.cparser import (
    AGGREGATE_KEYWORDS,
    ASSIGN_OPS,
    CONTROL_KEYWORDS,
    QUALIFIER_KEYWORDS,
    STORAGE_KEYWORDS,
    THREAD_CREATE_FNS,
    TYPE_KEYWORDS,
    lex,
)
from ckt.graph import PREDICATES
from ckt.model import Entity, FactSet, Relation, Span
from ckt.query.parser import FILTER_OPS, FilterClause, QueryAST, Term, TriplePattern

VAR = "var"


def nested_loop_join(triples, ast, entities=None):
    """Brute-force conjunctive evaluation: every pattern scans every triple.

    `triples` is a list of (s, p, o) tuples; `entities` maps id -> (label,
    attrs) for filter evaluation.  Returns the deduplicated set of projected
    rows (unordered).
    """
    entities = entities or {}

    def unify(pattern, triple, binding):
        out = dict(binding)
        for term, value in zip((pattern.s, pattern.p, pattern.o), triple):
            if term.kind == VAR:
                if term.value in out:
                    if out[term.value] != value:
                        return None
                else:
                    out[term.value] = value
            elif term.value != value:
                return None
        return out

    solutions = []

    def recurse(i, binding):
        if i == len(ast.patterns):
            solutions.append(binding)
            return
        for triple in triples:
            extended = unify(ast.patterns[i], triple, binding)
            if extended is not None:
                recurse(i + 1, extended)

    recurse(0, {})

    def timestamp_of(value):
        label_attrs = entities.get(value)
        if label_attrs is None:
            return None
        attrs = label_attrs[1]
        for key in ("timestamp", "closed", "opened"):
            if key in attrs:
                return attrs[key]
        return None

    def passes(fl, value):
        if fl.op == "=":
            return value == fl.literal
        if fl.op == "!=":
            return value != fl.literal
        if fl.op == "CONTAINS":
            needle = fl.literal.lower()
            if needle in value.lower():
                return True
            rec = entities.get(value)
            if rec is None:
                return False
            label, attrs = rec
            if needle in label.lower():
                return True
            return any(needle in f"{k}={v}".lower() for k, v in attrs.items())
        if fl.op in ("BEFORE", "AFTER"):
            from datetime import datetime

            stamp = timestamp_of(value)
            if stamp is None:
                return False
            try:
                mine = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
                lit = datetime.fromisoformat(fl.literal.replace("Z", "+00:00"))
            except ValueError:
                return False
            return mine < lit if fl.op == "BEFORE" else mine > lit
        try:
            left, right = float(value), float(fl.literal)
        except ValueError:
            left, right = value, fl.literal
        return {
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[fl.op]

    kept = []
    for binding in solutions:
        if all(fl.var in binding and passes(fl, binding[fl.var]) for fl in ast.filters):
            kept.append(binding)
    return {tuple(b[v] for v in ast.select) for b in kept}


def dense_pagerank(nodes, triple_keys, damping=0.85, tol=1e-9, max_iter=100,
                   literal_preds=("has-type",)):
    """Dense-matrix power iteration with uniform dangling redistribution."""
    nodes = sorted(nodes)
    n = len(nodes)
    if n == 0:
        return {}
    index = {u: i for i, u in enumerate(nodes)}
    edges = sorted({(s, o) for s, p, o in triple_keys if p not in literal_preds})
    matrix = np.zeros((n, n))
    out_degree = {u: 0 for u in nodes}
    for s, o in edges:
        out_degree[s] += 1
    for s, o in edges:
        matrix[index[o], index[s]] += 1.0 / out_degree[s]
    for u in nodes:
        if out_degree[u] == 0:
            matrix[:, index[u]] = 1.0 / n
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = (1.0 - damping) / n + damping * (matrix @ rank)
        delta = np.abs(nxt - rank).sum()
        rank = nxt
        if delta < tol:
            break
    rank = rank / rank.sum()
    return {u: float(rank[index[u]]) for u in nodes}


def dict_pagerank(nodes, triple_keys, on_iteration=None, literal_preds=("has-type",)):
    """KnowledgeGraph.pagerank as it ran before the dense-id core: push
    power iteration over dicts keyed by id string, every sum a left-to-right
    loop, the out-edges the subject->object pairs in SPO order, each kept
    at its first appearance."""
    damping = 0.85
    nodes = sorted(nodes)
    n = len(nodes)
    if n == 0:
        return {}
    out_edges = {u: [] for u in nodes}
    seen = set()
    for s, p, o in sorted(triple_keys):
        if p not in literal_preds and (s, o) not in seen:
            seen.add((s, o))
            out_edges[s].append(o)
    rank = {u: 1.0 / n for u in nodes}
    if on_iteration is not None:
        on_iteration(dict(rank))
    for _ in range(100):
        dangling = 0.0
        for u in nodes:
            if not out_edges[u]:
                dangling += rank[u]
        base = (1.0 - damping) / n + damping * dangling / n
        nxt = {u: base for u in nodes}
        for u in nodes:
            targets = out_edges[u]
            if targets:
                share = damping * rank[u] / len(targets)
                for v in targets:
                    nxt[v] += share
        delta = 0.0
        for u in nodes:
            delta += abs(nxt[u] - rank[u])
        rank = nxt
        if on_iteration is not None:
            on_iteration(dict(rank))
        if delta < 1e-9:
            break
    total = 0.0
    for r in rank.values():
        total += r
    return {u: r / total for u, r in rank.items()}


def undirected_adjacency(nodes, triple_keys, literal_preds=("has-type",)):
    """Node -> sorted neighbours on the undirected simple projection:
    direction and parallels collapsed, self-loops and literals dropped."""
    adj = {u: set() for u in sorted(nodes)}
    for s, p, o in triple_keys:
        if p in literal_preds or s == o or o not in adj:
            continue
        adj[s].add(o)
        adj[o].add(s)
    return {u: sorted(vs) for u, vs in adj.items()}


def brute_triangles(nodes, triple_keys, literal_preds=("has-type",)):
    """Enumerate every vertex triple on the undirected simple projection."""
    adj = {u: set(vs) for u, vs in undirected_adjacency(nodes, triple_keys, literal_preds).items()}
    nodes = list(adj)
    counts = {u: 0 for u in nodes}
    total = 0
    for i, u in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            v = nodes[j]
            if v not in adj[u]:
                continue
            for k in range(j + 1, len(nodes)):
                w = nodes[k]
                if w in adj[u] and w in adj[v]:
                    counts[u] += 1
                    counts[v] += 1
                    counts[w] += 1
                    total += 1
    return counts, total


def locksets(trace):
    """What AugmentContext reads of a TraceLog: the locksets of its
    replay, or None without a trace."""
    return None if trace is None else trace.replay.locksets


def lockset_race(events, var):
    """From-scratch lockset verdict for one variable.

    Recomputes the holder's lock multiset by rescanning the whole prefix at
    every access, then applies: empty candidate lockset AND >= 2 tids AND
    >= 1 write.
    """
    all_locks = {e.target for e in events if e.kind == "acquire"}
    candidate = set(all_locks)
    tids = set()
    wrote = False

    def held(tid, position):
        counts = {}
        for e in events[:position]:
            if e.tid != tid:
                continue
            if e.kind == "acquire":
                counts[e.target] = counts.get(e.target, 0) + 1
            elif e.kind == "release" and counts.get(e.target, 0) > 0:
                counts[e.target] -= 1
        return {lock for lock, c in counts.items() if c > 0}

    for position, event in enumerate(events):
        if event.kind in ("read", "write") and event.target == var:
            candidate &= held(event.tid, position)
            tids.add(event.tid)
            wrote = wrote or event.kind == "write"
    return not candidate and len(tids) >= 2 and wrote


def held_locks_at(log, tid, upto_seq):
    """Locks held by tid just before the event with seq == upto_seq,
    recounted from the start of the trace."""
    counts = {}
    for ev in log.events:
        if ev.seq >= upto_seq:
            break
        if ev.tid != tid:
            continue
        if ev.kind == "acquire":
            counts[ev.target] = counts.get(ev.target, 0) + 1
        elif ev.kind == "release" and counts.get(ev.target, 0) > 0:
            counts[ev.target] -= 1
    return {lock for lock, n in counts.items() if n > 0}


def call_stack_at(log, tid, upto_seq):
    """Functions tid has entered and not left just before the event with
    seq == upto_seq; an exit pops the top whatever its target."""
    stack = []
    for ev in log.events:
        if ev.seq >= upto_seq:
            break
        if ev.tid == tid and ev.kind == "enter":
            stack.append(ev.target)
        elif ev.tid == tid and ev.kind == "exit" and stack:
            stack.pop()
    return stack


def reachable_from(root, edges):
    """Plain transitive closure over a dict of adjacency lists."""
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def bfs_within(adjacency, start, radius):
    """Plain breadth-first ball of the given radius."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            if dist[u] == radius:
                continue
            for v in adjacency.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return set(dist)


# -- C source lexing, the two scanners the single lexer replaced -------------
#
# `tokenize` was the parser's lexer and `scan_comments` (with its gutter
# strip) the comment extractor's.  Each walked the text character by
# character with its own rules for literals, comments and directive lines.


_PUNCT3 = ("<<=", ">>=", "...")
_PUNCT2 = ("++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
           "<<", ">>", "==", "!=", "<=", ">=", "&&", "||", "->", "::")
_IDENT_START = re.compile(r"[A-Za-z_]")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = re.compile(r"(?:0[xX][0-9a-fA-F]+|\d+\.?\d*(?:[eE][+-]?\d+)?)[uUlLfF]*")


class Tok(NamedTuple):
    kind: str
    text: str
    line: int


def tokenize(text: str) -> list[Tok]:
    """Lex source into tokens, dropping comments and preprocessor lines."""
    toks: list[Tok] = []
    i, line = 0, 1
    n = len(text)
    at_line_start = True
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if ch == "#" and at_line_start:
            # preprocessor directive; honor backslash continuations
            while i < n and text[i] != "\n":
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                line += text.count("\n", i)
                i = n
            else:
                line += text.count("\n", i, end + 2)
                i = end + 2
            continue
        at_line_start = False
        if ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    line += 1
                j += 1
            toks.append(Tok("str", text[i : j + 1], line))
            i = j + 1
            continue
        if _IDENT_START.match(ch):
            m = _IDENT.match(text, i)
            toks.append(Tok("id", m.group(), line))
            i = m.end()
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUMBER.match(text, i)
            if m:
                toks.append(Tok("num", m.group(), line))
                i = m.end()
                continue
        matched = False
        for group in (_PUNCT3, _PUNCT2):
            for op in group:
                if text.startswith(op, i):
                    toks.append(Tok("punct", op, line))
                    i += len(op)
                    matched = True
                    break
            if matched:
                break
        if not matched:
            toks.append(Tok("punct", ch, line))
            i += 1
    return toks


def scan_comments(text: str) -> list[tuple[int, int, str, str, bool, bool]]:
    """(start, end, style, body, trailing, unterminated) per raw comment."""
    found: list[tuple[int, int, str, str, bool, bool]] = []
    i, line = 0, 1
    n = len(text)
    code_on_line = False
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            code_on_line = False
            i += 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            found.append((line, line, "line", text[i + 2 : j].strip(), code_on_line, False))
            i = j
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            trailing = code_on_line
            if end == -1:
                body = text[i + 2 :]
                end_line = line + body.count("\n")
                found.append((line, end_line, "block", _strip_gutter(body), trailing, True))
                i = n
            else:
                body = text[i + 2 : end]
                end_line = line + body.count("\n")
                found.append((line, end_line, "block", _strip_gutter(body), trailing, False))
                line = end_line
                i = end + 2
            continue
        if ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    line += 1
                j += 1
            code_on_line = True
            i = j + 1
            continue
        code_on_line = True
        i += 1
    return found


def _strip_gutter(body: str) -> str:
    lines = [ln.strip() for ln in body.split("\n")]
    lines = [ln[1:].strip() if ln.startswith("*") else ln for ln in lines]
    return " ".join(ln for ln in lines if ln).strip()


# `reference_lex` is the single lexer as it was before each match consumed
# the whitespace before its lexeme: finditer steps over that whitespace one
# character at a time, and each token is built through Tok's constructor.

_REFERENCE_LEXEME = re.compile(
    r"""(?P<nl>\n)
    |(?P<line>//[^\n\\]*(?:\\\n?[^\n\\]*)*)
    |(?P<block>/\*(?s:.*?)\*/)
    |(?P<open>/\*(?s:.*))
    |(?P<str>"(?:[^"\\\n]|\\[\s\S]?)*"?|'(?:[^'\\\n]|\\[\s\S]?)*'?)
    |(?P<id>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<num>(?:0[xX][0-9a-fA-F]+|\d+\.?\d*(?:[eE][+-]?\d+)?)[uUlLfF]*)
    |(?P<punct><<=|>>=|\.\.\.|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=
        |<<|>>|==|!=|<=|>=|&&|\|\||->|::|[^ \t\r\f\v])""",
    re.VERBOSE,
)


def reference_lex(text: str):
    """(tokens, raw comments) as `lex` returns them."""
    toks: list[Tok] = []
    comments = []
    line = 1
    code_on_line = directive = False
    for m in _REFERENCE_LEXEME.finditer(text):
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            if not (directive and text[m.start() - 1] == "\\"):
                code_on_line = directive = False
        elif kind == "line":
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
            if lexeme == "#" and not code_on_line:
                directive = True
            code_on_line = True
            if not directive:
                toks.append(Tok(kind, lexeme, line))
            if kind == "str":
                line += lexeme.count("\n")
    return toks, comments


def reference_associate_comments(comments, entities):
    """(comment id, entity id) per comment as `associate_comments` gives
    them, from a scan of every spanned entity of the file per comment."""
    spanned = [e for e in entities if e.span is not None and e.kind != "file"]
    file_entity = next((e for e in entities if e.kind == "file"), None)
    pairs = []
    for comment in comments:
        target = None
        if comment.attrs.get("trailing") == "true":
            containing = [
                e for e in spanned
                if e.span.start <= comment.span.start <= e.span.end
            ]
            if containing:
                target = min(
                    containing,
                    key=lambda e: (e.span.end - e.span.start, -e.span.start, e.id),
                )
        if target is None:
            following = [e for e in spanned if e.span.start >= comment.span.end]
            if following:
                target = min(
                    following,
                    key=lambda e: (
                        e.span.start - comment.span.end,
                        -(e.span.end - e.span.start),
                        e.id,
                    ),
                )
        if target is not None:
            pairs.append((comment.id, target.id))
        elif file_entity is not None:
            pairs.append((comment.id, file_entity.id))
        else:
            pairs.append((comment.id, ids.file_id(comment.span.path)))
    return pairs


# -- build-time lookups, one naive scan per item ----------------------------
#
# Plain data only.  `relations` is a list of (subj, pred, obj) in insertion
# order; `entities` maps id -> (kind, label, path or None, comment tokens).


def call_graph(relations):
    """Caller -> callees, rebuilt from every relation."""
    graph = {}
    for subj, pred, obj in relations:
        if pred == "calls":
            graph.setdefault(subj, set()).add(obj)
    return graph


def in_cycle(fid, calls):
    """Depth-first search from fid's callees for fid itself."""
    seen = set()
    stack = sorted(calls.get(fid, ()))
    while stack:
        node = stack.pop()
        if node == fid:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(sorted(calls.get(node, ())))
    return False


def self_calls(fid, relations):
    return [r for r in relations if r[1] == "calls" and r[0] == fid and r[2] == fid]


def max_trace_depth(fid, events):
    """Replay every (tid, kind, target) event for one function."""
    depth_by_tid = {}
    best = 0
    for tid, kind, target in events:
        if target != fid or kind not in ("enter", "exit"):
            continue
        if kind == "enter":
            depth_by_tid[tid] = depth_by_tid.get(tid, 0) + 1
            best = max(best, depth_by_tid[tid])
        else:
            depth_by_tid[tid] = max(0, depth_by_tid.get(tid, 0) - 1)
    return best


def ontology_hits(phrases, tokens):
    """Occurrences per concept of every phrase (a token tuple -> concept
    map), each phrase compared with every window of the tokens."""
    counts = {}
    for phrase, concept in phrases.items():
        n = len(phrase)
        for i in range(len(tokens) - n + 1):
            if tuple(tokens[i : i + n]) == phrase:
                counts[concept] = counts.get(concept, 0) + 1
    return counts


def entity_tokens(fid, entities, relations, split):
    """The function's split label, then, in relation order, the split labels
    of the variables and functions it touches and its comments' tokens."""
    tokens = []
    if fid in entities:
        tokens.extend(split(entities[fid][1]))
    for subj, pred, obj in relations:
        if subj == fid and pred in ("declares", "reads", "writes", "calls"):
            target = entities.get(obj)
            if target is not None and target[0] in ("variable", "function"):
                tokens.extend(split(target[1]))
        if subj == fid and pred == "documented-by":
            comment = entities.get(obj)
            if comment is not None and comment[3]:
                tokens.extend(comment[3].split(" "))
    return tokens


def scope_identifiers(entity_id, entities, relations):
    """Labels in a comment's scope: a file's declarations, or what a code
    element declares, reads, writes and calls."""
    if entity_id not in entities:
        return set()
    kind, label, path, _ = entities[entity_id]
    idents = {label}
    if kind == "file" and path is not None:
        for other_kind, other_label, other_path, _ in entities.values():
            if other_path == path and other_kind in ("function", "variable", "type", "class"):
                idents.add(other_label)
        return idents
    for subj, pred, obj in relations:
        if subj == entity_id and pred in ("declares", "reads", "writes", "calls") and obj in entities:
            idents.add(entities[obj][1])
    return idents


def bug_commit_mentions(bugs, commits):
    """(bug, commit) mention pairs: bugs are (entity id, mention tokens),
    commits are (id, entity id, summary).  A CR token matches every summary
    containing it, a hash token every commit id it prefixes."""
    pairs = []
    by_id = {cid: eid for cid, eid, _ in commits}
    for bug_eid, mentions in bugs:
        for token in mentions:
            if token.upper().startswith("CR"):
                pairs.extend((bug_eid, eid) for _, eid, summary in commits
                             if token.lower() in summary.lower())
            else:
                pairs.extend((bug_eid, eid) for cid, eid in by_id.items()
                             if cid.lower().startswith(token))
    return pairs


def comment_grounded_functions(idents, comment_function, comment_tokens):
    """Functions, in comment id order, whose comment shares a token with
    idents; `comment_function` maps comment id -> function id."""
    return [fid for cid, fid in sorted(comment_function.items())
            if idents & comment_tokens.get(cid, set())]


# -- entities by file, as three build passes each rebuilt them ---------------
#
# Each scans the whole entity table, which maps id -> (kind, label, path or
# None, comment tokens) as above.


def spanned_by_path(entities):
    """Comment association's candidates: the ids spanned in each file."""
    by_path = {}
    for eid, (_, _, path, _) in entities.items():
        if path is not None:
            by_path.setdefault(path, set()).add(eid)
    return by_path


def scope_labels_by_path(entities):
    """File-level comment scopes: the labels of each file's declarations."""
    labels = {}
    for kind, label, path, _ in entities.values():
        if path is not None and kind in ("function", "variable", "type", "class"):
            labels.setdefault(path, set()).add(label)
    return labels


def functions_by_path(entities):
    """Commit linking's candidates: each file's function ids, sorted."""
    by_path = {}
    for eid, (kind, _, path, _) in entities.items():
        if kind == "function" and path is not None:
            by_path.setdefault(path, []).append(eid)
    return {path: sorted(fids) for path, fids in by_path.items()}


# -- query-time lookups, one naive scan per item ----------------------------


def builder_load_graph(directory, sources=True):
    """Load nodes.jsonl and triples.tsv by replaying every record through
    GraphBuilder: add_entity per node, insert_triple per triple; the graph
    and its builder's sources table.  Each node's rank is checked, as
    `node_rank` reads it, and then dropped: the graph computes its own.
    With `sources` false the provenance column is not read, as load_graph
    does not read it: each line asserts one empty source."""
    from pathlib import Path

    from ckt.errors import FormatError
    from ckt.graph import GraphBuilder, Provenance
    from ckt.model import Entity, Span

    directory = Path(directory)
    builder = GraphBuilder()
    with open(directory / "nodes.jsonl", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                doc = json.loads(raw, parse_constant=_no_constant)
                node_rank(doc, lineno)
                span = None
                if doc.get("path") is not None:
                    span = Span(doc["path"], int(doc["start"]), int(doc["end"]))
                entity = Entity(str(doc["id"]), str(doc["kind"]), str(doc["label"]), span,
                                {str(k): str(v) for k, v in (doc.get("attrs") or {}).items()})
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise FormatError(f"bad node record: {exc}", lineno) from exc
            builder.add_entity(entity)
    with open(directory / "triples.tsv", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            parts = raw.split("\t")
            if len(parts) != 4:
                raise FormatError(f"expected 4 fields, got {len(parts)}", lineno)
            s, p, o, prov_json = parts
            if not sources:
                builder.insert_triple(s, p, o, Provenance("", ""))
                continue
            try:
                provs = [Provenance(str(d["source"]), str(d["origin"]), str(d.get("detail", "")))
                         for d in json.loads(prov_json)]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FormatError(f"bad provenance: {exc}", lineno) from exc
            if not provs:
                raise FormatError("empty provenance", lineno)
            for prov in provs:
                builder.insert_triple(s, p, o, prov)
    return builder.finalize(), builder.sources


def _no_constant(name):
    raise ValueError(f"{name} is no JSON number")


def node_rank(doc, lineno):
    """The "rank" of a nodes.jsonl record, which save_graph writes with a
    float's repr: a float that is finite, read by json.loads with NaN,
    Infinity and -Infinity refused; an integer such as 1, which repr never
    gives for a float, is refused as well.  FormatError at `lineno`
    otherwise."""
    from ckt.errors import FormatError

    rank = doc.get("rank")
    if type(rank) is not float or abs(rank) == float("inf"):
        raise FormatError(f"bad node record: rank {rank!r} is no finite float", lineno)
    return rank


def race_static(var, entities, triples):
    """Static race verdict for one global, from scratch: rebuild the call
    edges and the roots (starts-thread targets and functions labeled main),
    then one early-exit BFS per (accessor, root) pair with callees in
    ascending order.  `entities` maps id -> (kind, label); `triples` is a
    set of (s, p, o).  Returns (racing accessors, evidence) or None."""
    edges = {}
    for s, p, o in triples:
        if p == "calls":
            edges.setdefault(s, []).append(o)
    roots = sorted({o for s, p, o in triples if p == "starts-thread"}
                   | {eid for eid, (kind, label) in entities.items()
                      if kind == "function" and label == "main"})

    def path_to(root, target):
        if root == target:
            return [root]
        prev, seen, queue = {}, {root}, [root]
        while queue:
            node = queue.pop(0)
            for nxt in sorted(edges.get(node, ())):
                if nxt in seen:
                    continue
                prev[nxt] = node
                if nxt == target:
                    path = [nxt]
                    while path[-1] != root:
                        path.append(prev[path[-1]])
                    return path[::-1]
                seen.add(nxt)
                queue.append(nxt)
        return None

    accessors = sorted({s for s, p, o in triples if p in ("reads", "writes") and o == var})
    racing, evidence = [], []
    for func in accessors:
        if (func, "guards", var) in triples:
            continue
        paths = [path for path in (path_to(root, func) for root in roots) if path]
        if len(paths) < 2:
            continue
        racing.append(func)
        refs = [f"{a}|calls|{b}" for path in paths for a, b in zip(path, path[1:])]
        refs += [f"{func}|{p}|{var}" for p in ("writes", "reads") if (func, p, var) in triples]
        for ref in refs:
            if ref not in evidence:
                evidence.append(ref)
    return (racing, evidence) if racing else None


class LabelIndex:
    """Entity ids by the normalized tokens of every label, built on first
    use: each label's full token tuple, and each of its leading sub-tuples
    (prefixes), maps to the lowest id carrying it while that id is unique,
    and to None once a second id shares it.  `tables` gives both tables,
    as the package's LabelSearch gives its own for some tokens."""

    def __init__(self, graph):
        self._graph = graph
        self._built = None

    def tables(self, tokens=None):
        from ckt.config import normalize_tokens

        if self._built is None:
            exact, prefix = {}, {}
            for eid in sorted(self._graph.entities):
                toks = tuple(normalize_tokens(self._graph.entities[eid].label))
                exact[toks] = None if toks in exact else eid
                for n in range(1, len(toks) + 1):
                    prefix[toks[:n]] = None if toks[:n] in prefix else eid
            self._built = exact, prefix
        return self._built


def resolve_entity(tokens, labels):
    """Resolve free-form tokens to one entity by scanning every label for
    every token window: exact label match first, then unique label prefix,
    longest window first, then leftmost.  `labels` is a list of (id, label
    token tuple) in id order.  Returns (id, leftover tokens) or None."""
    n = len(tokens)
    for exact in (True, False):
        for length in range(n, 0, -1):
            for start in range(n - length + 1):
                window = tuple(tokens[start:start + length])
                hits = [eid for eid, toks in labels
                        if (toks == window if exact else toks[:length] == window)]
                if len(hits) == 1:
                    return hits[0], tokens[:start] + tokens[start + length:]
    return None



# -- the graph's indexes as lists of key tuples, as it kept them --------------


class TupleIndexes:
    """KnowledgeGraph's lookups as they were before its keys became
    numbered arrays: the keys sorted into SPO, a stable sort of SPO by
    object for OSP, and each predicate's keys in SPO order stable-sorted by
    object for its POS list, each bisected by the part it ascends by."""

    def __init__(self, keys):
        self.spo = sorted(keys)
        self.osp = sorted(self.spo, key=lambda k: k[2])
        self.pos = {}
        for key in self.spo:
            self.pos.setdefault(key[1], []).append(key)
        for p, run in self.pos.items():
            self.pos[p] = sorted(run, key=lambda k: k[2])

    @staticmethod
    def _run(index, value, part):
        return index[bisect.bisect_left(index, value, key=part):
                     bisect.bisect_right(index, value, key=part)]

    def match(self, s, p, o):
        if s is not None and p is not None and o is not None:
            return [(s, p, o)] if (s, p, o) in self.spo else []
        if s is not None and o is not None:
            return self._run(self.osp, (o, s), lambda k: (k[2], k[0]))
        if s is not None:
            if p is None:
                return self._run(self.spo, s, lambda k: k[0])
            return self._run(self.spo, (s, p), lambda k: k[:2])
        if p is not None:
            keys = self.pos.get(p, [])
            return keys if o is None else self._run(keys, o, lambda k: k[2])
        if o is not None:
            return self._run(self.osp, o, lambda k: k[2])
        return self.spo


# -- the alert context's whole-graph tables, as it built them ----------------
#
# Each is built over the whole graph; the rules now read one subject's entry
# from the graph's own indexes.


def call_edges(graph):
    """Caller -> callees in ascending order, from every `calls` triple."""
    return {caller: sorted(callees) for caller, callees in call_graph(graph.triples()).items()}


def accessors(graph):
    """Variable -> the functions that write or read it, in id order."""
    out = {}
    for s, p, o in graph.triples():
        if p in ("writes", "reads"):
            out.setdefault(o, set()).add(s)
    return {var: sorted(funcs) for var, funcs in out.items()}


def touching_commits(graph):
    """Entity -> the commits that touch it."""
    out = {}
    for s, p, o in graph.triples():
        if p == "touches" and s.startswith("commit:"):
            out.setdefault(o, []).append(s)
    return out


def commit_keys(graph, touching):
    """Commit -> its newest-first sort key, for each commit in `touching`:
    the negated timestamp, then the id; an unparseable timestamp sorts as 0."""
    from datetime import datetime, timezone

    keys = {}
    for commits in touching.values():
        for cid in commits:
            try:
                ts = datetime.fromisoformat(
                    graph.entities[cid].attrs.get("timestamp", "").replace("Z", "+00:00"))
            except ValueError:
                keys[cid] = (0.0, cid)
                continue
            if ts.tzinfo is None:
                ts = ts.replace(tzinfo=timezone.utc)
            keys[cid] = (-ts.timestamp(), cid)
    return keys


def provenance_from_tables(graph, entity_id, touching, keys):
    """The ids of change_provenance's commits as it read them from the
    `touching_commits` and `commit_keys` tables: the five newest commits
    touching the entity or its containing file, newest first."""
    from ckt import ids

    commit_ids = set(touching.get(entity_id, ()))
    path = ids.path_of(entity_id)
    if path is not None:
        fid = ids.file_id(path)
        if fid != entity_id and fid in graph.entities:
            commit_ids.update(touching.get(fid, ()))
    return sorted(commit_ids, key=keys.__getitem__)[:5]


def brute_similar_defects(graph, bug, floor=0.25):
    """Similar defects by brute force over all pairs: every other bug scored
    by max(token Jaccard of label plus error strings, 1.0 when the two touch
    a common entity), kept at `floor` or above, rounded to 4 places, best
    five by score then id."""
    from ckt.config import normalize_tokens

    keys = set(graph.triples())

    def tokens(eid):
        entity = graph.entities[eid]
        return set(normalize_tokens(f"{entity.label} {entity.attrs.get('error_strings', '')}"))

    def touched(eid):
        return {o for s, p, o in keys if s == eid and p == "touches"}

    out = []
    for eid, entity in graph.entities.items():
        if eid == bug or entity.kind != "bug":
            continue
        union = tokens(bug) | tokens(eid)
        jaccard = len(tokens(bug) & tokens(eid)) / len(union) if union else 0.0
        score = max(jaccard, 1.0 if touched(bug) & touched(eid) else 0.0)
        if score >= floor:
            out.append((eid, round(score, 4)))
    out.sort(key=lambda pair: (-pair[1], pair[0]))
    return out[:5]


def augment_per_response(result, graph, trace=None, cap=10):
    """smart.augment computed from scratch for one response, sharing no rule
    with it: the static race from race_static, the dynamic race from the
    trace events as lockset_race reads them, similar defects from
    brute_similar_defects, and change provenance and stale comments read by
    graph.match for each row, with each commit's timestamp parsed again for
    every row it touches.  Only the `cap` highest-scoring alerts are kept."""
    from datetime import datetime, timezone

    from ckt import ids
    from ckt.query.evaluate import ResultSet
    from ckt.smart import MUTEX_ADVICE, SmartAlert

    kinds_labels = {eid: (e.kind, e.label) for eid, e in graph.entities.items()}
    keys = set(graph.triples())

    def newest_first(entity):
        try:
            ts = datetime.fromisoformat(entity.attrs.get("timestamp", "").replace("Z", "+00:00"))
        except ValueError:
            return (0.0, entity.id)
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        return (-ts.timestamp(), entity.id)

    def provenance(eid):
        commits = {s for s, _, _ in graph.match(None, "touches", eid)
                   if s.startswith("commit:")}
        path = ids.path_of(eid)
        if path is not None:
            fid = ids.file_id(path)
            if fid != eid and fid in graph.entities:
                commits |= {s for s, _, _ in graph.match(None, "touches", fid)
                            if s.startswith("commit:")}
        return sorted((graph.entities[c] for c in commits), key=newest_first)[:5]

    def static_race(entity):
        found = race_static(entity.id, kinds_labels, keys)
        if found is None:
            return None
        racing, evidence = found
        names = ", ".join(graph.entities[f].label for f in racing)
        return SmartAlert(
            "race-static", entity.id, evidence,
            f"potential data race: {entity.label} is accessed without a guard in "
            f"{names}, each reachable from multiple thread roots", 0.9)

    def dynamic_race(eid):
        accesses = [e for e in trace.events if e.kind in ("read", "write") and e.target == eid]
        if not accesses or not lockset_race(trace.events, eid):
            return None
        return SmartAlert(
            "race-dynamic", eid, [f"seq:{e.seq}" for e in accesses],
            f"data race observed: {eid} accessed by threads "
            f"{sorted({e.tid for e in accesses})} with empty common lockset", 1.0)

    def alerts_for(entity):
        out, eid = [], entity.id
        if entity.kind == "variable" and entity.attrs.get("scope") == "global":
            static = static_race(entity)
            dynamic = dynamic_race(eid) if trace is not None else None
            out.extend(a for a in (static, dynamic) if a is not None)
            if static is not None or dynamic is not None:
                funcs = sorted({s for s, _, _ in graph.match(None, "writes", eid)}
                               | {s for s, _, _ in graph.match(None, "reads", eid)})
                labels = ", ".join(graph.entities[f].label for f in funcs if f in graph.entities)
                out.append(SmartAlert(
                    "mutex-advice", eid, (static or dynamic).evidence,
                    MUTEX_ADVICE.format(var=entity.label, funcs=labels or "its accessors"), 0.85))
        elif entity.kind == "bug":
            for other, score in brute_similar_defects(graph, eid):
                out.append(SmartAlert(
                    "similar-defect", eid, [other],
                    f"similar defect: {other} ({graph.entities[other].label}) score {score}",
                    score))
        if entity.kind in ("function", "variable", "file", "type", "class"):
            commits = provenance(eid)
            if commits:
                newest = commits[0]
                out.append(SmartAlert(
                    "provenance", eid, [c.id for c in commits],
                    f"last changed by {newest.id} "
                    f"({newest.attrs.get('timestamp', '?')}): {newest.label}", 0.3))
        for _, _, comment_id in graph.match(eid, "documented-by", None):
            comment = graph.entities.get(comment_id)
            if comment is None or comment.attrs.get("stale") != "true":
                continue
            out.append(SmartAlert(
                "stale-comment", eid, [f"{eid}|documented-by|{comment_id}"],
                f"comment {comment_id} mentions identifiers absent from scope: "
                f"{comment.attrs.get('missing', '')}", 0.5))
        return out

    alerts = []
    for eid in dict.fromkeys(v for row in result.rows for v in row if v in graph.entities):
        try:
            alerts.extend(alerts_for(graph.entities[eid]))
        except Exception as exc:
            alerts.append(SmartAlert("warning", eid, ["rule-dispatch"],
                                     f"augmentation failed for {eid}: {exc}", 0.0))
    alerts.sort(key=lambda a: (-a.score, a.kind, a.subject))
    return ResultSet(result.columns, result.rows, alerts[:cap])


# -- the row path as it was: a Python call per row or per cell


def reference_rank_results(rows, rank_table):
    """Rows by the first column's rank descending, ties ascending by the
    full row, unranked bindings at rank 0: one key function call per row."""
    return sorted(rows, key=lambda row: (-rank_table.get(row[0], 0.0), row))


def reference_contains_rows(graph, rows, slot, needle):
    """The rows whose value in `slot` has `needle`, already lower-cased, in
    its search text: one comprehension step per row."""
    text = graph.search_text
    return [row for row in rows if needle in text(row[slot])]


def reference_format_table(result, resolution):
    """cli.format_table's lines with each cell padded by str.ljust and each
    row joined on its own."""
    lines = []
    if resolution:
        args = " ".join(f"{k}={v}" for k, v in sorted(resolution["args"].items()))
        lines.append(f"[template {resolution['template']} {args}]".rstrip())
    if result.rows:
        widths = [
            max(len(col), *(len(row[i]) for row in result.rows))
            for i, col in enumerate(result.columns)
        ]
        header = "  ".join(f"?{col}".ljust(widths[i] + 1) for i, col in enumerate(result.columns))
        lines.append(header.rstrip())
        lines.append("-" * len(header.rstrip()))
        for row in result.rows:
            lines.append("  ".join(row[i].ljust(widths[i] + 1) for i in range(len(row))).rstrip())
    lines.append(f"({len(result.rows)} row{'s' if len(result.rows) != 1 else ''})")
    for alert in result.alerts:
        lines.append(f"! [{alert.kind}] {alert.message}")
    return lines


# -- query text, the character-loop lexer and parser the token regex replaced


_QUERY_WORD_BREAKS = '{};"?'
_QUERY_SLOT = re.compile(r"\$([A-Za-z0-9_]+)")


def query_word(text):
    """The old word rule: no whitespace and none of the word breaks."""
    return bool(text) and not any(ch.isspace() or ch in _QUERY_WORD_BREAKS for ch in text)


class QueryTok(NamedTuple):
    kind: str  # "word" | "var" | "string" | "punct"
    text: str
    offset: int


def _query_lex(text, values):
    def bind(token):  # each $name with a value, in one pass
        if not values:
            return token
        return _QUERY_SLOT.sub(lambda m: values.get(m.group(1), m.group()), token)

    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "{};":
            toks.append(QueryTok("punct", ch, i))
            i += 1
            continue
        if ch == '"':
            j = i + 1
            buf = []
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
            toks.append(QueryTok("string", bind("".join(buf)), i))
            i = j + 1
            continue
        if ch == "?":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise QueryError("'?' must be followed by a variable name", i)
            toks.append(QueryTok("var", text[i + 1 : j], i))
            i = j
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _QUERY_WORD_BREAKS:
            j += 1
        toks.append(QueryTok("word", bind(text[i:j]), i))
        i = j
    return toks


class _QueryParser:
    def __init__(self, text, values):
        self.text = text
        self.toks = _query_lex(text, values)
        self.pos = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self, expected):
        tok = self._peek()
        if tok is None:
            raise QueryError(f"expected {expected}, found end of query", len(self.text))
        self.pos += 1
        return tok

    def _keyword(self, tok):
        if tok is not None and tok.kind == "word":
            word = tok.text.upper()
            if word in ("SELECT", "WHERE", "FILTER", "LIMIT"):
                return word
        return None

    def parse(self):
        tok = self._next("SELECT")
        if self._keyword(tok) != "SELECT":
            raise QueryError("query must start with SELECT", tok.offset)
        select = []
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
        if tok.text != "{" or tok.kind != "punct":
            raise QueryError("expected '{' after WHERE", tok.offset)
        patterns = self._patterns()
        filters = []
        limit = None
        while True:
            tok = self._peek()
            kw = self._keyword(tok)
            if kw == "FILTER":
                self.pos += 1
                filters.append(self._filter())
            elif kw == "LIMIT":
                self.pos += 1
                num = self._next("a number after LIMIT")
                if num.kind != "word" or not re.fullmatch(r"-?[0-9]+", num.text):
                    raise QueryError("LIMIT needs an integer", num.offset)
                limit = int(num.text)
                if limit < 0:
                    raise QueryError("LIMIT must be >= 0", num.offset)
            elif tok is None:
                break
            else:
                raise QueryError(f"unexpected token {tok.text!r}", tok.offset)
        ast = QueryAST(tuple(select), tuple(patterns), tuple(filters), limit)
        pattern_vars = set()
        for pattern in ast.patterns:
            pattern_vars |= pattern.variables()
        for var in ast.select:
            if var not in pattern_vars:
                raise QueryError(f"selected variable ?{var} is unbound (appears in no pattern)")
        for fl in ast.filters:
            if fl.var not in pattern_vars:
                raise QueryError(f"filtered variable ?{fl.var} is unbound (appears in no pattern)")
        return ast

    def _patterns(self):
        patterns = []
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

    def _term(self, position, allow_literal, predicate=False):
        tok = self._next(f"a {position} term")
        if tok.kind == "var":
            return Term("var", tok.text)
        if tok.kind == "string":
            if not allow_literal:
                raise QueryError(f"literal not allowed in {position} position", tok.offset)
            return Term("literal", tok.text)
        if tok.kind == "word":
            if predicate:
                if tok.text not in PREDICATES:
                    raise QueryError(f"unknown predicate {tok.text!r}", tok.offset)
            return Term("id", tok.text)
        raise QueryError(f"unexpected token {tok.text!r} in {position} position", tok.offset)

    def _filter(self):
        var_tok = self._next("a variable after FILTER")
        if var_tok.kind != "var":
            raise QueryError("FILTER needs a ?variable", var_tok.offset)
        op_tok = self._next("a filter operator")
        if op_tok.kind != "word":
            raise QueryError("filter operator must be a bare word", op_tok.offset)
        op = op_tok.text.upper()
        if op not in FILTER_OPS:
            raise QueryError(f"unknown filter operator {op_tok.text!r}", op_tok.offset)
        lit_tok = self._next("a filter literal")
        if lit_tok.kind == "var":
            raise QueryError("filter literal may not be a variable", lit_tok.offset)
        if lit_tok.kind not in ("word", "string"):
            raise QueryError("filter literal must be a word or a quoted string", lit_tok.offset)
        return FilterClause(var_tok.text, op, lit_tok.text)


def reference_parse_query(text, values=None):
    """The query parser as it was before the token regex: a character loop
    lexes the whole text, then a recursive-descent pass builds the package's
    QueryAST.  Same messages, offsets and `$slot` binding."""
    return _QueryParser(text, values).parse()


# -- the C parser before one walk per bracket rule -------------------------
# Kept as it was, each bracket walk written out where it is used, as the
# reference for the parser that shares one closer, one statement splitter
# and one declarator scan.  It reads the package's `lex` tokens and builds
# the package's FactSet, so the two compare fact for fact.


@dataclass
class _FuncDef:
    name: str
    start_line: int
    end_line: int
    params: list[tuple[str, str]]  # (name, type text)
    body: tuple[int, int]  # token index range, exclusive end
    storage: str | None


def _match_brace(toks: list[Tok], open_idx: int) -> int:
    """Index of the '}' matching toks[open_idx]; len(toks)-1 when unbalanced."""
    depth = 0
    for j in range(open_idx, len(toks)):
        t = toks[j].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


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


def _is_type_opener(tok: Tok, known_types: set[str]) -> bool:
    if tok.kind != "id":
        return False
    t = tok.text
    return (
        t in TYPE_KEYWORDS
        or t in STORAGE_KEYWORDS
        or t in QUALIFIER_KEYWORDS
        or t in AGGREGATE_KEYWORDS
        or t in known_types
    )


def _parse_declaration(
    seg: list[Tok], known_types: set[str]
) -> tuple[list[tuple[str, str, str | None, int]], list[Tok]]:
    """Parse ``[storage] type declarator[, declarator]*`` out of a statement.

    Returns (decls, initializer tokens), where each decl is
    (name, type text, storage, line).  Empty decls means the segment is
    not a recognizable variable declaration.
    """
    if len(seg) < 2 or seg[0].kind != "id":
        return [], []
    if seg[0].text in CONTROL_KEYWORDS:
        return [], []
    if not _is_type_opener(seg[0], known_types):
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

    # declarator of the first chunk: last depth-0 identifier before '='
    def _name_index(chunk: list[Tok]) -> int:
        depth = 0
        idx = -1
        for k, t in enumerate(chunk):
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            elif t.text == "=" and depth == 0:
                break
            elif t.kind == "id" and depth == 0 and t.text not in QUALIFIER_KEYWORDS:
                idx = k
        return idx

    ni = _name_index(head)
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
    init_toks: list[Tok] = []

    def _collect_init(chunk: list[Tok]) -> None:
        depth = 0
        for k, t in enumerate(chunk):
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            elif t.text == "=" and depth == 0:
                init_toks.extend(chunk[k + 1 :])
                return

    _collect_init(first)
    for chunk in chunks[1:]:
        mi = _name_index(chunk)
        if mi < 0:
            continue
        decls.append((chunk[mi].text, type_text, storage, chunk[mi].line))
        _collect_init(chunk)
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
            seg_end, stop = self._segment(i)
            seg = toks[i:seg_end]
            if stop == "{":
                fn = self._function_signature(seg, seg_end)
                close = _match_brace(toks, seg_end)
                if fn is not None:
                    fn.end_line = toks[close].line
                    # an unclosed body keeps the file's last token
                    fn.body = (seg_end + 1, close if toks[close].text == "}" else close + 1)
                    if fn.name not in self.functions:
                        self.functions[fn.name] = fn
                i = close + 1
            elif stop == ";":
                self._global_declaration(seg)
                i = seg_end + 1
            else:
                i = seg_end + 1

    def _segment(self, i: int) -> tuple[int, str]:
        """Advance to the next top-level ';', '{' or '}' from i."""
        toks = self.toks
        depth = 0
        j = i
        while j < len(toks):
            t = toks[j].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth = max(0, depth - 1)
            elif depth == 0 and t in (";", "{", "}"):
                return j, t
            j += 1
        return j, ""

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
        close = _match_brace(toks, j)
        kind = "class" if toks[i].text == "class" else "type"
        tid = ids.type_id(self.path, name)
        self._add(Entity(tid, kind, name, Span(self.path, toks[i].line, toks[close].line)))
        self.facts.add_relation(Relation(self.file_id, "declares", tid, toks[i].line))
        self.known_types.add(name)
        # `struct S { ... } inst1, inst2;`
        k = close + 1
        tail: list[Tok] = []
        while k < len(toks) and toks[k].text != ";":
            tail.append(toks[k])
            k += 1
        for chunk in _split_top_level(tail, ","):
            names = [t for t in chunk if t.kind == "id"]
            if names:
                self._declare_global(names[-1].text, f"{toks[i].text} {name}", None, names[-1].line)
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

    def _global_declaration(self, seg: list[Tok]) -> None:
        decls, _ = _parse_declaration(seg, self.known_types)
        for name, type_text, storage, line in decls:
            self._declare_global(name, type_text, storage, line)

    def _declare_global(self, name: str, type_text: str, storage: str | None, line: int) -> None:
        vid = ids.var_id(self.path, name)
        if name in self.globals:
            return
        attrs = {"scope": "global"}
        if storage:
            attrs["storage"] = storage
        self._add(Entity(vid, "variable", name, Span(self.path, line, line), attrs))
        self.globals[name] = vid
        self.facts.add_relation(Relation(self.file_id, "declares", vid, line))
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
        local_vars: dict[str, str] = {}
        for pname, ptype in fn.params:
            vid = ids.var_id(self.path, f"{fn.name}.{pname}")
            self._add(Entity(vid, "variable", pname, Span(self.path, fn.start_line, fn.start_line),
                             {"scope": "param"}))
            local_vars[pname] = vid
            self.facts.add_relation(Relation(fid, "declares", vid, fn.start_line))
            self.facts.add_relation(Relation(vid, "has-type", ptype, fn.start_line))

        body = self.toks[fn.body[0] : fn.body[1]]
        k = 0
        while k < len(body):
            if body[k].text in ("{", "}"):
                k += 1
                continue
            stmt, k = self._statement(body, k)
            if not stmt:
                continue
            if stmt[0].kind == "id" and stmt[0].text in CONTROL_KEYWORDS:
                self._scan_expr(stmt, fid, fn, local_vars)
                continue
            decls, init = _parse_declaration(stmt, self.known_types)
            if decls:
                for name, type_text, storage, line in decls:
                    if name in local_vars:
                        continue
                    vid = ids.var_id(self.path, f"{fn.name}.{name}")
                    attrs = {"scope": "local"}
                    if storage:
                        attrs["storage"] = storage
                    self._add(Entity(vid, "variable", name, Span(self.path, line, line), attrs))
                    local_vars[name] = vid
                    self.facts.add_relation(Relation(fid, "declares", vid, line))
                    self.facts.add_relation(Relation(vid, "has-type", type_text, line))
                self._scan_expr(init, fid, fn, local_vars)
            else:
                self._scan_expr(stmt, fid, fn, local_vars)

    @staticmethod
    def _statement(body: list[Tok], k: int) -> tuple[list[Tok], int]:
        depth = 0
        stmt: list[Tok] = []
        while k < len(body):
            t = body[k]
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth = max(0, depth - 1)
            elif depth == 0 and t.text in (";", "{", "}"):
                if t.text == ";":
                    k += 1
                return stmt, k
            stmt.append(t)
            k += 1
        return stmt, k

    @staticmethod
    def _after_subscripts(toks: list[Tok], idx: int) -> Tok | None:
        """First token after any balanced [..] groups following toks[idx]."""
        j = idx + 1
        while j < len(toks) and toks[j].text == "[":
            depth = 0
            while j < len(toks):
                if toks[j].text == "[":
                    depth += 1
                elif toks[j].text == "]":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            j += 1
        return toks[j] if j < len(toks) else None

    def _scan_expr(self, toks: list[Tok], fid: str, fn: _FuncDef,
                   local_vars: dict[str, str]) -> None:
        for idx, t in enumerate(toks):
            if t.kind != "id":
                continue
            word = t.text
            if (word in CONTROL_KEYWORDS or word in TYPE_KEYWORDS
                    or word in QUALIFIER_KEYWORDS or word in AGGREGATE_KEYWORDS
                    or word in STORAGE_KEYWORDS):
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
        """First argument identifier naming a known function."""
        depth = 0
        for t in toks[open_idx:]:
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return None
            elif t.kind == "id" and t.text in self.functions:
                return ids.func_id(self.path, t.text)
        return None

    def _add(self, entity: Entity) -> None:
        self.facts.add_entity(entity, merge=True)


def reference_parse_source(text, path):
    """`cparser.parse_source` as it was: same entities, spans, attrs and
    relations in the same order, with the same origins and attrs."""
    path = ids.norm_path(path)
    if not text.strip():
        return FactSet()
    line_count = max(1, text.count("\n") + (0 if text.endswith("\n") else 1))
    parse = _FileParse(lex(text)[0], path)
    parse.facts.add_entity(
        Entity(parse.file_id, "file", posixpath.basename(path), Span(path, 1, line_count))
    )
    parse.scan_top_level()
    parse.scan_bodies()
    return parse.facts


# -- writers and ids that only the tests use --------------------------------


def entity_json(entity):
    """An entity as the JSON object of its nodes.jsonl or facts record."""
    span = entity.span
    return {
        "id": entity.id,
        "kind": entity.kind,
        "label": entity.label,
        "path": span.path if span else None,
        "start": span.start if span else None,
        "end": span.end if span else None,
        "attrs": dict(sorted(entity.attrs.items())),
    }


def node_line(entity, rank):
    """An entity's nodes.jsonl line, with its PageRank score `rank`, as
    json.dumps writes it."""
    return json.dumps({**entity_json(entity), "rank": rank}, sort_keys=True, ensure_ascii=True)


def provenance_json(provenance):
    """A triple line's provenance list as json.dumps writes it."""
    docs = []
    for p in provenance:
        doc = {"source": p.source, "origin": p.origin}
        if p.detail:
            doc["detail"] = p.detail
        docs.append(doc)
    return json.dumps(docs, sort_keys=True, ensure_ascii=True)


def blake2b_hex(data: bytes) -> str:
    """A file's digest as graph.json gives it, from hashlib."""
    return hashlib.blake2b(data, digest_size=32).hexdigest()


def dumps_facts(facts):
    """A fact set in the neutral facts format, as one string: the header,
    the entities by id, then the sorted relations."""
    from ckt.textio import SCHEMA_VERSION

    lines = [json.dumps({"rec": "header", "version": SCHEMA_VERSION})]
    for entity in facts.sorted_entities():
        doc = {"rec": "entity", **entity_json(entity)}
        lines.append(json.dumps(doc, sort_keys=True, ensure_ascii=True))
    for rel in facts.sorted_relations():
        doc = {"rec": "relation", "subj": rel.subj, "pred": rel.pred, "obj": rel.obj}
        if rel.attrs:
            doc["attrs"] = dict(sorted(rel.attrs.items()))
        lines.append(json.dumps(doc, sort_keys=True, ensure_ascii=True))
    return "".join(line + "\n" for line in lines)


def _quote(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def _term_text(term: Term) -> str:
    if term.kind == VAR:
        return f"?{term.value}"
    if term.kind == "literal":
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


def bug_id(tracker, number):
    return f"bug:{tracker}/{number}"


# -- comparison helpers -----------------------------------------------------


def same_nodes_and_keys(a, b):
    """Equality of two KnowledgeGraphs' entity tables and of their triple
    keys in order."""
    if sorted(a.entities) != sorted(b.entities):
        return False
    for eid in a.entities:
        ea, eb = a.entities[eid], b.entities[eid]
        if (ea.kind, ea.label, ea.span, ea.attrs) != (eb.kind, eb.label, eb.span, eb.attrs):
            return False
    return list(a.triples()) == list(b.triples())


def graphs_equal(a, b):
    """Deep equality of two KnowledgeGraphs: entity table, triple keys in
    order, and PageRank scores in id order."""
    return same_nodes_and_keys(a, b) and (
        list(a.rank_table().items()) == list(b.rank_table().items()))


def round_trips(directory, graph, sources):
    """The directory that save_graph wrote for `graph` and its builder's
    `sources` table gives them back: load_graph gives the graph, and the
    builder loader the graph and each key's sources, so every datum
    save_graph wrote is compared."""
    from ckt.graph import load_graph

    built, table = builder_load_graph(directory)
    return (graphs_equal(load_graph(directory), graph) and graphs_equal(built, graph)
            and table == sources)


def strict_load_graph(directory):
    """load_graph with no graph cache, so that the files are parsed."""
    from unittest import mock

    from ckt import graphcache
    from ckt.graph import load_graph

    with mock.patch.object(graphcache, "private_dir", return_value=None):
        return load_graph(directory)


def parse_record(line):
    """Inverse of cli.format_records for one line; raises on non-records."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or "rec" not in doc:
        raise ValueError("not a record line")
    return doc
