"""In-memory spans around the public functions of each ckt module, recorded
from outside the program by rebinding those functions while an operation is
traced.

A span is (name, start, end, parent, op).  Each operation of the benchmark
(a build, a query, a REPL session's load) is a root span; a layer's self
time is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> functions as (defining module, attribute).  Each function is
# rebound wherever a ckt module binds it, e.g. evaluate in ckt.cli,
# ckt.query and ckt.query.templates.
FUNCTIONS = {
    "cli.cmd_build": [("ckt.cli", "cmd_build")],
    "cli.format": [("ckt.cli", "format_records"), ("ckt.cli", "format_table")],
    "extraction.parse_source": [("ckt.extraction.cparser", "parse_source")],
    "extraction.comments": [("ckt.extraction.comments", "extract_comments"),
                            ("ckt.extraction.comments", "associate_comments")],
    "extraction.load_trace": [("ckt.extraction.traces", "load_trace")],
    "history.load": [("ckt.history", "load_commits"), ("ckt.history", "load_bugs")],
    "history.link": [("ckt.history", name) for name in (
        "register_commit_entities", "register_bug_entities", "link_commit_entities",
        "link_bugs_commits", "link_bugs_code")],
    "concepts.compute_features": [("ckt.concepts", "compute_features")],
    "concepts.classify_strategy": [("ckt.concepts", "classify_strategy")],
    "concepts.validate_comment": [("ckt.concepts", "validate_comment")],
    "concepts.threads": [("ckt.concepts", "detect_thread_roots"),
                         ("ckt.concepts", "detect_guarded_regions")],
    "graph.save_graph": [("ckt.graph", "save_graph")],
    "graph.load_graph": [("ckt.graph", "load_graph")],
    "query.parse_query": [("ckt.query.parser", "parse_query")],
    "query.match_freeform": [("ckt.query.templates", "match_freeform")],
    "query.evaluate": [("ckt.query.evaluate", "evaluate")],
    "smart.augment": [("ckt.smart", "augment")],
    "smart.race_static": [("ckt.smart", "race_alert_static")],
    "smart.race_dynamic": [("ckt.smart", "race_alert_dynamic")],
    "smart.similar": [("ckt.smart", "similar_defects")],
    "smart.provenance": [("ckt.smart", "change_provenance")],
}
METHODS = {
    "graph.finalize": ("ckt.graph", "GraphBuilder", "finalize"),
    "graph.count_triangles": ("ckt.graph", "KnowledgeGraph", "count_triangles"),
    "graph.pagerank": ("ckt.graph", "KnowledgeGraph", "pagerank"),
}
# counts taken from a function's result: (module, attribute) -> (key, fn)
RESULT_COUNTS = {
    ("ckt.extraction.comments", "extract_comments"): ("comments", len),
    ("ckt.history", "load_commits"): ("commits", lambda r: len(r[0])),
    ("ckt.graph", "finalize"): ("triples", len),  # GraphBuilder.finalize
    ("ckt.query.evaluate", "evaluate"): ("rows", lambda r: len(r.rows)),
    ("ckt.smart", "augment"): ("alerts_returned", lambda r: len(r.alerts)),
}

# per-layer metric -> span names whose self time it sums
LAYER_TIMES = {
    "cli.build_self_s": ["cli.cmd_build"],
    "cli.format_s": ["cli.format"],
    "extraction.cparser.parse_s": ["extraction.parse_source"],
    "extraction.comments.s": ["extraction.comments"],
    "extraction.traces.load_s": ["extraction.load_trace"],
    "history.load_s": ["history.load"],
    "history.link_s": ["history.link"],
    "concepts.features_s": ["concepts.compute_features"],
    "concepts.classify_s": ["concepts.classify_strategy"],
    "concepts.staleness_s": ["concepts.validate_comment"],
    "concepts.threads_s": ["concepts.threads"],
    "graph.freeze_s": ["graph.finalize"],
    "graph.triangles_s": ["graph.count_triangles"],
    "graph.save_s": ["graph.save_graph"],
    "graph.load_s": ["graph.load_graph"],
    "graph.pagerank_s": ["graph.pagerank"],
    "query.parser.parse_s": ["query.parse_query"],
    "query.templates.route_s": ["query.match_freeform"],
    "query.evaluate.s": ["query.evaluate"],
    "smart.augment_s": ["smart.augment"],
    "smart.race_static_s": ["smart.race_static"],
    "smart.race_dynamic_s": ["smart.race_dynamic"],
    "smart.similar_s": ["smart.similar"],
    "smart.provenance_s": ["smart.provenance"],
}
# per-layer metric -> span name whose calls it counts
LAYER_CALLS = {
    "extraction.cparser.files": "extraction.parse_source",
    "concepts.features_calls": "concepts.compute_features",
    "graph.pagerank_calls": "graph.pagerank",
    "smart.race_static_calls": "smart.race_static",
    "smart.race_dynamic_calls": "smart.race_dynamic",
    "smart.similar_calls": "smart.similar",
    "smart.provenance_calls": "smart.provenance",
}
# per-layer metric -> result or event count key
LAYER_COUNTS = {
    "extraction.comments.count": "comments",
    "history.commits": "commits",
    "graph.triples": "triples",
    "query.evaluate.rows": "rows",
    "smart.alerts_computed": "alerts",
    "smart.degraded": "alert:warning",
}


class Tracer:
    """Records spans while installed; uninstalled it leaves ckt untouched."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)  # (op, key)
        self.ops: list[tuple[str, bool, float, float]] = []  # kind, traced, start, end
        self._patches: list[tuple[object, str, object]] = []
        self._plan: list[tuple[object, str, object]] | None = None
        self._current: tuple[str, bool, float] | None = None
        self._evaluating = 0

    # -- operations ------------------------------------------------------

    @contextmanager
    def op(self, kind: str, traced: bool):
        """Time one operation; when traced, record it as a root span with
        the ckt functions rebound for its duration."""
        self.begin_op(kind, traced)
        try:
            yield
        finally:
            self.end_op()

    def begin_op(self, kind: str, traced: bool) -> None:
        if traced:
            self.install()
            self._open(f"op.{kind}")
        self._current = (kind, traced, time.perf_counter())

    def end_op(self) -> None:
        end = time.perf_counter()
        kind, traced, start = self._current
        if traced:
            self._close()
            self.uninstall()
        self.ops.append((kind, traced, start, end))

    def _open(self, name: str) -> None:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        op = self.spans[self.stack[0]][4] if self.stack else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, op])
        self.stack.append(idx)

    def _close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _count(self, key: str, n: float = 1) -> None:
        if self.stack:
            self.counts[(self.spans[self.stack[0]][4], key)] += n

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        if self._plan is None:
            self._plan = self._make_plan()
        for owner, attr, value in self._plan:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def _make_plan(self) -> list[tuple[object, str, object]]:
        modules = [importlib.import_module(m) for m in (
            "ckt.cli", "ckt.concepts", "ckt.extraction", "ckt.extraction.comments",
            "ckt.extraction.cparser", "ckt.extraction.traces", "ckt.graph", "ckt.history",
            "ckt.query", "ckt.query.evaluate", "ckt.query.parser", "ckt.query.templates",
            "ckt.smart")]
        plan = []
        for name, sites in FUNCTIONS.items():
            for module_name, attr in sites:
                original = getattr(importlib.import_module(module_name), attr)
                wrapped = self._wrap(name, original, RESULT_COUNTS.get((module_name, attr)))
                plan.extend((module, key, wrapped) for module in modules
                            for key, value in vars(module).items() if value is original)
        for name, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            counter = RESULT_COUNTS.get((module_name, attr))
            plan.append((cls, attr, self._wrap(name, getattr(cls, attr), counter)))
        graph_cls = importlib.import_module("ckt.graph").KnowledgeGraph
        plan.append((graph_cls, "match", self._counting_match(graph_cls.match)))
        smart = importlib.import_module("ckt.smart")
        plan.append((smart, "SmartAlert", self._counting_alert(smart.SmartAlert)))
        return plan

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, counter):
        tracer = self
        evaluating = name == "query.evaluate"

        def wrapper(*args, **kwargs):
            tracer._open(name)
            tracer._evaluating += evaluating
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._evaluating -= evaluating
                tracer._close()
            if counter is not None:
                tracer._count(counter[0], counter[1](result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_match(self, match):
        """Count the triples KnowledgeGraph.match yields under evaluate."""
        tracer = self

        def counted(iterator):
            for triple in iterator:
                tracer._count("match_yields")
                yield triple

        def wrapper(graph, subject, predicate, object_):
            triples = match(graph, subject, predicate, object_)
            return counted(triples) if tracer._evaluating else triples

        return wrapper

    def _counting_alert(self, alert_cls):
        """Count every alert the smart rules construct, by kind."""
        tracer = self

        class CountedAlert(alert_cls):
            def __post_init__(self):
                tracer._count("alerts")
                tracer._count(f"alert:{self.kind}")
                super().__post_init__()

        return CountedAlert

    def dump(self, path) -> None:
        """Write every span as one JSON line, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, op), own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "self": own}) + "\n")

    # -- metrics -----------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        """Each time or count summed over the traced operations that reach
        the layer, divided by how many operations those are; ratios are
        taken over the run's totals."""
        self_time = self.self_times()
        by_name: dict[str, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            by_name[span[0]].append(idx)

        def per_op(indices, weight) -> float:
            ops = {self.spans[i][4] for i in indices}
            return sum(weight(i) for i in indices) / len(ops) if ops else 0.0

        out = {}
        for metric, names in LAYER_TIMES.items():
            out[metric] = per_op([i for n in names for i in by_name[n]], lambda i: self_time[i])
        for metric, name in LAYER_CALLS.items():
            out[metric] = per_op(by_name[name], lambda i: 1)
        for metric, key in LAYER_COUNTS.items():
            hits = [n for (op, k), n in self.counts.items() if k == key]
            ops = {op for (op, k) in self.counts if k == key}
            out[metric] = sum(hits) / len(ops) if ops else 0.0
        totals = defaultdict(float)
        for (_, key), n in self.counts.items():
            totals[key] += n
        out["query.evaluate.triples_per_row"] = totals["match_yields"] / max(totals["rows"], 1)
        out["smart.alert_yield"] = totals["alerts_returned"] / max(totals["alerts"], 1)
        return out

    def build_shares(self, metric_names: list[str]) -> tuple[float, float, float]:
        """Wall time of the traced builds, the share of it covered by layer
        spans, and the share spent in the named layer metrics' spans."""
        self_time = self.self_times()
        roots = {i for i, s in enumerate(self.spans) if s[3] < 0 and s[0] == "op.build"}
        wall = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        if not wall:
            return 0.0, 0.0, 0.0
        names = {n for m in metric_names for n in LAYER_TIMES[m]}
        spent = sum(self_time[i] for i, s in enumerate(self.spans)
                    if s[0] in names and s[4] in roots)
        return wall, 1 - sum(self_time[i] for i in roots) / wall, spent / wall
