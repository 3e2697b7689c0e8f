"""Independent reference implementations the real code is checked against.

Everything here is deliberately naive: nested-loop joins, dense matrix
power iteration, O(n^3) triangle enumeration, from-scratch lockset
recomputation.  None of it shares code with the package, except
`builder_load_graph`: it is the loader that sent every persisted record
through the package's own GraphBuilder, kept as the reference for the
direct loader that replaced it.
"""

from __future__ import annotations

import numpy as np

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


def brute_triangles(nodes, triple_keys, literal_preds=("has-type",)):
    """Enumerate every vertex triple on the undirected simple projection."""
    nodes = sorted(nodes)
    adj = {u: set() for u in nodes}
    for s, p, o in triple_keys:
        if p in literal_preds or s == o or o not in adj:
            continue
        adj[s].add(o)
        adj[o].add(s)
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


# -- query-time lookups, one naive scan per item ----------------------------


def builder_load_graph(directory):
    """Load nodes.jsonl and triples.tsv by replaying every record through
    GraphBuilder: add_entity(merge=False) per node, insert_triple per
    triple.  Ranks are not read."""
    import json
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
                doc = json.loads(raw)
                span = None
                if doc.get("path") is not None:
                    span = Span(doc["path"], int(doc["start"]), int(doc["end"]))
                entity = Entity(str(doc["id"]), str(doc["kind"]), str(doc["label"]), span,
                                {str(k): str(v) for k, v in (doc.get("attrs") or {}).items()})
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise FormatError(f"bad node record: {exc}", lineno) from exc
            builder.add_entity(entity, merge=False)
    with open(directory / "triples.tsv", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            parts = raw.split("\t")
            if len(parts) != 4:
                raise FormatError(f"expected 4 fields, got {len(parts)}", lineno)
            s, p, o, prov_json = parts
            try:
                provs = [Provenance.from_json(d) for d in json.loads(prov_json)]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FormatError(f"bad provenance: {exc}", lineno) from exc
            if not provs:
                raise FormatError("empty provenance", lineno)
            triple = builder.insert_triple(s, p, o, provs[0])
            triple.provenance.extend(provs[1:])
    return builder.finalize()


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
