"""Command-line application: build the graph from a project manifest, run
queries against it, host a REPL, export triples and stats.

The build side lives in `ckt.build`, imported only by `ckt build`; a query
or a REPL session loads the query side alone.

Exit codes: 0 success, 1 query error, 2 input/config error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from ckt import ids
from ckt.errors import CktError, SlotError
from ckt.extraction.traces import load_trace
from ckt.graph import (
    STATS_FILE,
    TEMPLATES_COPY,
    TRACE_COPY,
    TRIPLES_FILE,
    KnowledgeGraph,
    collector_paused,
    load_graph,
)
from ckt.model import TraceLog
from ckt.query.evaluate import evaluate
from ckt.query.parser import parse_query
from ckt.query.templates import (
    DMY_DATE,
    LabelIndex,
    NoMatch,
    TemplateRegistry,
    builtin_registry,
    load_registry,
    match_freeform,
    normalize_date,
    run_template,
)
from ckt.smart import AugmentContext, augment
from ckt.textio import utf8_lines

_TEMPLATE_CALL = re.compile(r"^@([A-Za-z0-9_-]+)\((.*)\)$", re.DOTALL)


def cmd_build(manifest_path: Path) -> int:
    """Build the graph a manifest describes (see `ckt.build`)."""
    from ckt import build  # here, so that a query never loads the build side

    return build.cmd_build(manifest_path)


# -- query ------------------------------------------------------------------


@dataclass
class QueryContext:
    """What a query runs against, loaded once per process: the graph with
    its persisted ranks, the trace copy, the template registry, an index of
    the graph's labels built by the first free-form query, and the alert
    rules' context, whose indexes the first response that needs each one
    builds."""

    graph: KnowledgeGraph
    trace: TraceLog | None
    registry: TemplateRegistry
    labels: LabelIndex
    rules: AugmentContext


def _load_query_context(graph_dir: Path) -> QueryContext:
    """Load what queries run against, with the cyclic collector paused.

    The load allocates several objects per node, triple and trace event,
    and all of them live as long as the process, so each collection the
    load would trigger, and every later full one, would walk them for
    nothing.  Once loaded they are frozen out of later collections: the
    graph is immutable after load and its records form no cycles, so no
    collection could free any of them.  They are frozen before the
    collector resumes, because the first allocation after that would
    otherwise start a collection that walks them all once.
    """
    with collector_paused():
        graph = load_graph(graph_dir)
        trace = None
        trace_path = graph_dir / TRACE_COPY
        if trace_path.exists():
            trace = load_trace(utf8_lines(trace_path), name=TRACE_COPY)
        templates_path = graph_dir / TEMPLATES_COPY
        registry = load_registry(str(templates_path)) if templates_path.exists() else builtin_registry()
        gc.freeze()
    return QueryContext(graph, trace, registry, LabelIndex(graph), AugmentContext(graph, trace))


def _parse_template_args(raw: str, registry: TemplateRegistry, name: str) -> dict[str, str]:
    template = registry.get(name)
    args: dict[str, str] = {}
    parts = [p.strip() for p in raw.split(",")] if raw.strip() else []
    positional: list[str] = []
    for part in parts:
        if "=" in part and ids.kind_of(part) is None:  # an id may hold "="
            key, _, value = part.partition("=")
            args[key.strip()] = _normalize_cli_value(value.strip())
        else:
            positional.append(_normalize_cli_value(part))
    if len(positional) > len(template.slots):
        raise SlotError(
            f"template {name!r} takes {len(template.slots)} slot(s), "
            f"got {len(positional)} positional argument(s)"
        )
    for slot, value in zip(template.slots, positional):
        args.setdefault(slot[0], value)
    return args


def _normalize_cli_value(value: str) -> str:
    value = value.strip().strip('"')
    if DMY_DATE.match(value):
        return normalize_date(value) or value
    return value


def _run_query_text(text: str, ctx: QueryContext):
    """Dispatch query text; returns (ResultSet, resolution info or None)."""
    graph, registry = ctx.graph, ctx.registry
    text = text.strip()
    if text.upper().startswith("SELECT"):
        result, resolution = evaluate(graph, parse_query(text)), None
    elif m := _TEMPLATE_CALL.match(text):
        name = m.group(1)
        args = _parse_template_args(m.group(2), registry, name)
        result = run_template(name, args, graph, registry)
        resolution = {"template": name, "args": args}
    else:
        routed = match_freeform(text, registry, graph, labels=ctx.labels)
        if isinstance(routed, NoMatch):
            raise _NoMatchError(routed)
        result = run_template(routed.template, routed.args, graph, registry)
        resolution = {"template": routed.template, "args": routed.args, "score": routed.score}
    return augment(result, graph, ctx.trace, ctx=ctx.rules), resolution


class _NoMatchError(CktError):
    def __init__(self, no_match: NoMatch):
        self.no_match = no_match
        nearest = ", ".join(f"{name} ({score})" for name, score in no_match.suggestions)
        super().__init__(
            f"no template matched: {no_match.reason}; nearest: {nearest or 'none'}"
        )


def format_records(result, resolution) -> list[str]:
    lines = []
    if resolution:
        lines.append(json.dumps({"rec": "resolution", **resolution}, sort_keys=True))
    for row in result.rows:
        values = dict(zip(result.columns, row))
        lines.append(json.dumps({"rec": "row", "values": values}, sort_keys=True))
    for alert in result.alerts:
        lines.append(
            json.dumps(
                {
                    "rec": "alert",
                    "kind": alert.kind,
                    "subject": alert.subject,
                    "message": alert.message,
                    "score": alert.score,
                    "evidence": alert.evidence,
                },
                sort_keys=True,
            )
        )
    lines.append(json.dumps({"rec": "summary", "rows": len(result.rows)}, sort_keys=True))
    return lines


def format_table(result, resolution) -> list[str]:
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


def cmd_query(graph_dir: Path, text: str, fmt: str, count: bool) -> int:
    ctx = _load_query_context(graph_dir)
    try:
        result, resolution = _run_query_text(text, ctx)
    except _NoMatchError as exc:
        if fmt == "records":
            doc = {
                "rec": "no-match",
                "reason": exc.no_match.reason,
                "suggestions": [[n, s] for n, s in exc.no_match.suggestions],
            }
            print(json.dumps(doc, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    except CktError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if count:
        print(len(result.rows))
        return 0
    lines = format_records(result, resolution) if fmt == "records" else format_table(result, resolution)
    for line in lines:
        print(line)
    return 0


# -- repl -------------------------------------------------------------------


def cmd_repl(graph_dir: Path, stdin=None, stdout=None, verbose: bool = False) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    ctx = _load_query_context(graph_dir)
    graph, registry = ctx.graph, ctx.registry
    if verbose:
        print(f"graph loaded: {len(graph.entities)} entities, {len(graph)} triples",
              file=stdout)
    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            if line == ":quit":
                return 0
            if line == ":templates":
                for template in registry.templates:
                    slots = ", ".join(f"{n}:{t}" for n, t in template.slots)
                    print(f"@{template.name}({slots})", file=stdout)
                continue
            if line.startswith(":related"):
                parts = line.split()
                if len(parts) != 3:
                    print("usage: :related <entity-id> <radius>", file=stdout)
                    continue
                sub = graph.neighborhood(parts[1], int(parts[2]))
                for eid in sorted(sub.entities):
                    print(f"{eid}  [{sub.entities[eid].kind}]", file=stdout)
                for s, p, o in sub.triples():
                    print(f"  {s} {p} {o}", file=stdout)
                continue
            if line.startswith(":"):
                print(f"unknown command {line.split()[0]!r} "
                      "(try :templates, :related, :quit)", file=stdout)
                continue
            result, resolution = _run_query_text(line, ctx)
            for out_line in format_table(result, resolution):
                print(out_line, file=stdout)
        except Exception as exc:  # the REPL survives anything
            print(f"error: {exc}", file=stdout)
    return 0


# -- export -----------------------------------------------------------------


def cmd_export(graph_dir: Path, what: str) -> int:
    files = {"triples": TRIPLES_FILE, "stats": STATS_FILE}
    if what not in files:
        print(f"error: unknown export target {what!r} (use triples or stats)", file=sys.stderr)
        return 2
    path = graph_dir / files[what]
    if not path.exists():
        print(f"error: no {what} file in {graph_dir}", file=sys.stderr)
        return 2
    sys.stdout.write("".join(utf8_lines(path)))
    return 0


# -- entry point -------------------------------------------------------------


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckt",
        description="Mine source, history, and traces into a queryable knowledge graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a knowledge graph from a manifest")
    p_build.add_argument("--manifest", required=True, type=Path)

    p_query = sub.add_parser("query", help="run one query against a built graph")
    p_query.add_argument("--graph", required=True, type=Path)
    p_query.add_argument("--format", choices=("table", "records"), default="table")
    p_query.add_argument("--count", action="store_true")
    p_query.add_argument("text")

    p_repl = sub.add_parser("repl", help="interactive query session")
    p_repl.add_argument("--graph", required=True, type=Path)
    p_repl.add_argument("--verbose", action="store_true")

    p_export = sub.add_parser("export", help="emit the persisted triples or stats")
    p_export.add_argument("--graph", required=True, type=Path)
    p_export.add_argument("--what", required=True)
    return parser


def _run(args: argparse.Namespace) -> int:
    try:
        if args.command == "build":
            return cmd_build(args.manifest)
        if args.command == "query":
            return cmd_query(args.graph, args.text, args.format, args.count)
        if args.command == "repl":
            return cmd_repl(args.graph, verbose=args.verbose)
        if args.command == "export":
            return cmd_export(args.graph, args.what)
    except CktError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away (e.g. `| head -1`); point stdout at devnull so
        # the flush at exit cannot fail again, and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
