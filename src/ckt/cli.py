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
from pathlib import Path

from ckt import ids
from ckt.errors import CktError, SlotError
from ckt.graph import (
    STATS_FILE,
    TEMPLATES_COPY,
    TRACE_COPY,
    TRIPLES_FILE,
    KnowledgeGraph,
    cached_graph,
    check_files,
    collector_paused,
    parse_graph,
    read_if_present,
    trace_locksets,
)
from ckt.model import Record
from ckt.query.evaluate import evaluate
from ckt.query.parser import _COUNT, parse_query
from ckt.query.templates import (
    DMY_DATE,
    LabelSearch,
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


class QueryContext(Record):
    """What a query runs against, loaded once per process: the graph with
    the PageRank score that nodes.jsonl gives each node, the template
    registry, the search of the graph's labels that free-form queries
    resolve against, which keeps what each one found, and the alert rules'
    context, which holds the locksets of the trace copy's replay, the
    whole-graph tables that the first response needing each one builds
    (race roots' trees, bugs, stale comments), and the rules' kept
    verdicts."""

    __slots__ = _fields = ("graph", "registry", "labels", "rules")

    def __init__(self, graph: KnowledgeGraph, registry: TemplateRegistry, labels: LabelSearch,
                 rules: AugmentContext):
        self.graph = graph
        self.registry = registry
        self.labels = labels
        self.rules = rules


def _load_query_context(graph_dir: Path) -> QueryContext:
    """Load what queries run against, with the cyclic collector paused.

    The graph and the trace copy's locksets are decoded from the user's
    graph cache when `ckt build` or an earlier load wrote their entry
    (cached_graph), and no trace line is parsed; a stamp that vouches for
    the directory spares the read of graph.json and the trace copy, and
    the hash of every file.  Else the trace copy, the templates copy and
    the graph files are parsed in that order, so that an error names the
    first of them that fails, and parse_graph writes the entry.

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
        # cached_graph reads the copies before graph.json, and parse_graph
        # reads graph.json again after them, so all the bytes are of one build
        hit, copies = cached_graph(graph_dir, (TRACE_COPY, TEMPLATES_COPY))
        locksets = hit[1] if hit else trace_locksets(copies[TRACE_COPY])
        registry = (builtin_registry() if copies[TEMPLATES_COPY] is None
                    else load_registry(TEMPLATES_COPY, copies[TEMPLATES_COPY]))
        graph = hit[0] if hit else parse_graph(graph_dir, copies, locksets)
        gc.freeze()
    return QueryContext(graph, registry, LabelSearch(graph), AugmentContext(graph, locksets))


def _parse_template_args(raw: str, registry: TemplateRegistry, name: str) -> dict[str, str]:
    """Slot values by name; a slot given twice, by name or by position, is
    an error.  A day-first date given for a date slot is rewritten to
    ISO-8601, the form the template reads, so the resolution record shows
    that form; a value for any other slot is left as given."""
    template = registry.get(name)
    parts = [p.strip() for p in raw.split(",")] if raw.strip() else []
    named: list[tuple[str, str]] = []
    positional: list[str] = []
    for part in parts:
        if "=" in part and ids.kind_of(part) is None:  # an id may hold "="
            key, _, value = part.partition("=")
            named.append((key.strip(), value.strip().strip('"')))
        else:
            positional.append(part.strip('"'))
    if len(positional) > len(template.slots):
        raise SlotError(
            f"template {name!r} takes {len(template.slots)} slot(s), "
            f"got {len(positional)} positional argument(s)"
        )
    args: dict[str, str] = {}
    for slot_name, value in [*zip([s for s, _ in template.slots], positional), *named]:
        if slot_name in args:
            raise SlotError(f"slot {slot_name!r} given twice")
        args[slot_name] = value
    for slot_name, slot_type in template.slots:
        value = args.get(slot_name, "")
        if slot_type == "date" and DMY_DATE.fullmatch(value):
            args[slot_name] = normalize_date(value) or value
    return args


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
        routed = match_freeform(text, registry, ctx.labels)
        if isinstance(routed, NoMatch):
            raise _NoMatchError(routed)
        result = run_template(routed.template, routed.args, graph, registry)
        resolution = {"template": routed.template, "args": routed.args, "score": routed.score}
    return augment(result, ctx.rules), resolution


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
        # each column padded to its widest value or name, plus one; one
        # format string renders a row, so no Python code runs per cell
        widths = [max(map(len, column)) for column in zip(result.columns, *result.rows)]
        fmt = "  ".join([f"%-{width + 1}s" for width in widths])
        header = (fmt % tuple([f"?{col}" for col in result.columns])).rstrip()
        lines += header, "-" * len(header)
        lines += map(str.rstrip, map(fmt.__mod__, result.rows))
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
    sys.stdout.write("\n".join(lines) + "\n")  # one write, not one per line
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
                for template in registry.by_name.values():
                    slots = ", ".join(f"{n}:{t}" for n, t in template.slots)
                    print(f"@{template.name}({slots})", file=stdout)
                continue
            if line.startswith(":related"):
                parts = line.split()
                if len(parts) != 3:
                    print("usage: :related <entity-id> <radius>", file=stdout)
                    continue
                if not _COUNT.fullmatch(parts[2]):  # as LIMIT reads its count
                    raise CktError(f"radius must be an integer, got {parts[2]!r}")
                sub = graph.neighborhood(parts[1], int(parts[2]))
                lines = [f"{eid}  [{entity.kind}]" for eid, entity in sub.entities.items()]
                lines += [f"  {s} {p} {o}" for s, p, o in sub.triples()]
                stdout.write("\n".join(lines) + "\n")
                continue
            if line.startswith(":"):
                print(f"unknown command {line.split()[0]!r} "
                      "(try :templates, :related, :quit)", file=stdout)
                continue
            result, resolution = _run_query_text(line, ctx)
            stdout.write("\n".join(format_table(result, resolution)) + "\n")
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
    data = read_if_present(path)
    if data is None:
        print(f"error: no {what} file in {graph_dir}", file=sys.stderr)
        return 2
    text = "".join(utf8_lines(path, data))
    check_files(graph_dir, {path.name: data})
    sys.stdout.write(text)
    return 0


# -- entry point -------------------------------------------------------------


# each command's help and (flag, add_argument keywords) pairs
_COMMANDS = {
    "build": ("build a knowledge graph from a manifest",
              [("--manifest", {"required": True, "type": Path})]),
    "query": ("run one query against a built graph",
              [("--graph", {"required": True, "type": Path}),
               ("--format", {"choices": ("table", "records"), "default": "table"}),
               ("--count", {"action": "store_true"}),
               ("text", {})]),
    "repl": ("interactive query session",
             [("--graph", {"required": True, "type": Path}),
              ("--verbose", {"action": "store_true"})]),
    "export": ("emit the persisted triples or stats",
               [("--graph", {"required": True, "type": Path}),
                ("--what", {"required": True})]),
}


def _build_arg_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of `argv`: with the subparser of the command that
    argv[0] names alone, else with all of them, so that a usage, help or
    error text that lists the commands lists every one."""
    parser = argparse.ArgumentParser(
        prog="ckt",
        description="Mine source, history, and traces into a queryable knowledge graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_text, arguments = _COMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            command.add_argument(flag, **options)
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
    argv = sys.argv[1:] if argv is None else argv
    args = _build_arg_parser(argv).parse_args(argv)
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
