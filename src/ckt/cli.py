"""Command-line application: build the graph from a project manifest, run
queries against it, host a REPL, export triples and stats.

Exit codes: 0 success, 1 query error, 2 input/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ckt import concepts, history, ids
from ckt.config import (
    Ontology,
    StrategyWeights,
    default_ontology,
    default_weights,
    load_ontology,
    load_weights,
)
from ckt.errors import CktError, FormatError, QueryError
from ckt.extraction import (
    associate_comments,
    extract_comments,
    load_facts,
    load_trace,
    parse_source,
)
from ckt.graph import (
    GraphBuilder,
    KnowledgeGraph,
    NODES_FILE,
    RANKS_FILE,
    Provenance,
    TRIPLES_FILE,
    load_graph,
    save_graph,
)
from ckt.model import Comment, Entity, FactSet, Relation, TraceLog
from ckt.query import (
    NoMatch,
    TemplateRegistry,
    evaluate,
    match_freeform,
    parse_query,
    run_template,
)
from ckt.query.templates import LabelIndex, builtin_registry, load_registry, normalize_date
from ckt.smart import augment
from ckt.textio import utf8_lines

SOURCE_SUFFIXES = (".c", ".cc", ".cpp", ".cxx", ".h", ".hh", ".hpp")

STATS_FILE = "stats.json"
REPORT_FILE = "report.json"
TRACE_COPY = "trace.jsonl"
TEMPLATES_COPY = "templates.jsonl"

_TEMPLATE_CALL = re.compile(r"^@([A-Za-z0-9_-]+)\((.*)\)$", re.DOTALL)
_DMY = re.compile(r"^\d{1,2}-\d{1,2}-\d{4}$")


@dataclass
class ProjectManifest:
    sources: list[tuple[Path, str]]  # (path, "parse" | "facts-file")
    commits: Path | None
    bugs: Path | None
    trace: Path | None
    ontology: Path | None
    weights: Path | None
    templates: Path | None
    out: Path


def load_manifest(path: Path) -> ProjectManifest:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or invalid JSON
        raise CktError(f"cannot read manifest {path}: {exc}") from exc
    base = path.parent

    def resolve(key: str, required: bool = False) -> Path | None:
        value = doc.get(key)
        if value is None:
            if required:
                raise CktError(f"manifest is missing required key {key!r}")
            return None
        p = base / str(value)
        return p

    raw_sources = doc.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        raise CktError("manifest needs a non-empty 'sources' list")
    sources: list[tuple[Path, str]] = []
    for entry in raw_sources:
        if not isinstance(entry, dict) or "path" not in entry:
            raise CktError(f"bad sources entry: {entry!r}")
        mode = str(entry.get("mode", "parse"))
        if mode == "facts":
            mode = "facts-file"
        if mode not in ("parse", "facts-file"):
            raise CktError(f"unknown source mode {mode!r}")
        sources.append((base / str(entry["path"]), mode))
    out = resolve("out", required=True)
    manifest = ProjectManifest(
        sources=sources,
        commits=resolve("commits"),
        bugs=resolve("bugs"),
        trace=resolve("trace"),
        ontology=resolve("ontology"),
        weights=resolve("weights"),
        templates=resolve("templates"),
        out=out,
    )
    for p, _ in manifest.sources:
        if not p.exists():
            raise CktError(f"source path does not exist: {p}")
    for key in ("commits", "bugs", "trace", "ontology", "weights", "templates"):
        p = getattr(manifest, key)
        if p is not None and not p.exists():
            raise CktError(f"{key} path does not exist: {p}")
    return manifest


# -- build ------------------------------------------------------------------


@dataclass
class BuildState:
    facts: FactSet = field(default_factory=FactSet)
    comments: list[Comment] = field(default_factory=list)
    associations: list[tuple[str, str]] = field(default_factory=list)
    trace: TraceLog | None = None
    warnings: list[str] = field(default_factory=list)
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def bump(self, source: str, what: str, n: int = 1) -> None:
        row = self.counts.setdefault(source, {})
        row[what] = row.get(what, 0) + n


def _iter_source_files(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*") if p.is_file() and p.suffix in SOURCE_SUFFIXES)


def _rel_path(path: Path, base: Path) -> str:
    try:
        return ids.norm_path(str(path.relative_to(base)))
    except ValueError:
        return ids.norm_path(str(path))


def _extract_sources(manifest: ProjectManifest, base: Path, state: BuildState) -> None:
    # entities of state.facts by span path, in insertion order; merge never
    # changes the span of an entity it has already inserted
    by_path: dict[str, list[Entity]] = {}

    def merge(facts: FactSet) -> None:
        added = [facts.entities[eid] for eid in sorted(facts.entities)
                 if eid not in state.facts.entities]
        state.bump("source-code", "entities", len(facts.entities))
        state.bump("source-code", "relations", len(facts.relations))
        state.facts.merge(facts)
        for entity in added:
            if entity.span is not None:
                by_path.setdefault(entity.span.path, []).append(entity)

    for root, mode in manifest.sources:
        if mode == "facts-file":
            merge(load_facts(utf8_lines(root), name=_rel_path(root, base)))
            continue
        for file_path in _iter_source_files(root):
            rel = _rel_path(file_path, base)
            data = file_path.read_bytes()
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise FormatError(f"{rel} is not UTF-8: {exc.reason}", line) from exc
            merge(parse_source(text, rel))
            file_comments = extract_comments(text, rel)
            state.comments.extend(file_comments)
            state.bump("comment", "comments", len(file_comments))
            state.associations.extend(associate_comments(file_comments, by_path.get(rel, [])))


def _comment_entities(state: BuildState) -> None:
    assoc = dict(state.associations)
    for comment in state.comments:
        attrs = {
            "style": comment.style,
            "tokens": " ".join(comment.tokens),
        }
        attrs.update(comment.attrs)
        label = comment.text if len(comment.text) <= 60 else comment.text[:57] + "..."
        state.facts.add_entity(
            Entity(comment.id, "comment", label, comment.span, attrs), merge=True
        )
        entity_id = assoc.get(comment.id)
        if entity_id is not None and entity_id in state.facts.entities:
            state.facts.add_relation(
                Relation(entity_id, "documented-by", comment.id, comment.span.start)
            )


def _scope_labels_by_path(facts: FactSet) -> dict[str, set[str]]:
    """Labels of the declarations in each file, for file-scoped comments."""
    labels: dict[str, set[str]] = {}
    for entity in facts.entities.values():
        if entity.span is not None and entity.kind in ("function", "variable", "type", "class"):
            labels.setdefault(entity.span.path, set()).add(entity.label)
    return labels


def _scope_identifiers(
    entity_id: str, facts: FactSet, labels_by_path: dict[str, set[str]]
) -> set[str]:
    """Identifier tokens declared or used within the entity's reach."""
    idents: set[str] = set()
    entity = facts.entities.get(entity_id)
    if entity is None:
        return idents
    idents.add(entity.label)
    if entity.kind == "file" and entity.span is not None:
        idents.update(labels_by_path.get(entity.span.path, ()))
        return idents
    for rel in facts.relations_from(entity_id):
        if rel.pred not in ("declares", "reads", "writes", "calls"):
            continue
        target = facts.entities.get(rel.obj)
        if target is not None:
            idents.add(target.label)
    return idents


def _validate_comments(state: BuildState) -> list[concepts.StalenessReport]:
    reports = []
    assoc = dict(state.associations)
    by_id = {c.id: c for c in state.comments}
    labels_by_path = _scope_labels_by_path(state.facts)
    for comment_id in sorted(by_id):
        comment = by_id[comment_id]
        entity_id = assoc.get(comment_id, "")
        scope = _scope_identifiers(entity_id, state.facts, labels_by_path)
        report = concepts.validate_comment(comment, scope, entity_id)
        reports.append(report)
        centity = state.facts.entities.get(comment_id)
        if centity is not None:
            centity.attrs["stale"] = "true" if report.verdict == "stale" else "false"
            if report.missing_identifiers:
                centity.attrs["missing"] = " ".join(report.missing_identifiers)
    return reports


def cmd_build(manifest_path: Path) -> int:
    manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    state = BuildState()

    _extract_sources(manifest, base, state)
    _comment_entities(state)

    if manifest.trace is not None:
        state.trace = load_trace(utf8_lines(manifest.trace), name=_rel_path(manifest.trace, base))
        state.warnings.extend(state.trace.warnings)
        state.bump("trace", "events", len(state.trace.events))

    commits: list[history.Commit] = []
    bugs: list[history.BugRecord] = []
    link_triples: list[history.LinkTriple] = []
    if manifest.commits is not None:
        commits, commit_warnings = history.load_commits(
            utf8_lines(manifest.commits), name=_rel_path(manifest.commits, base)
        )
        state.warnings.extend(commit_warnings)
        state.bump("version-tracker", "commits", len(commits))
    if manifest.bugs is not None:
        bugs = history.load_bugs(utf8_lines(manifest.bugs), name=_rel_path(manifest.bugs, base))
        state.bump("bug-tracker", "bugs", len(bugs))

    history.register_commit_entities(commits, state.facts)
    history.register_bug_entities(bugs, state.facts)
    if commits:
        triples = history.link_commit_entities(commits, state.facts)
        link_triples.extend(triples)
        state.bump("version-tracker", "triples", len(triples))
    bug_triples, link_warnings = history.link_bugs_commits(bugs, commits)
    state.warnings.extend(link_warnings)
    state.bump("bug-tracker", "triples", len(bug_triples))
    link_triples.extend(bug_triples)
    derived = history.link_bugs_code(
        bugs, state.facts, state.associations, state.comments, link_triples
    )
    state.bump("bug-tracker", "derived-triples", len(derived))
    link_triples.extend(derived)

    ontology = load_ontology(str(manifest.ontology)) if manifest.ontology else default_ontology()
    weights = load_weights(str(manifest.weights)) if manifest.weights else default_weights()

    reports = _validate_comments(state)
    graph = _build_graph(state, link_triples, ontology, weights)

    rank = graph.pagerank()
    triangles, triangle_total = graph.count_triangles()
    stats = _stats(graph, rank, triangles, triangle_total)
    triples_by_source: dict[str, int] = {}
    for triple in graph.triples():
        source = triple.provenance[0].source  # count each triple by its first assertion
        triples_by_source[source] = triples_by_source.get(source, 0) + 1
    report = {
        "entities": len(graph.entities),
        "triples": len(graph),
        "sources": {k: dict(sorted(v.items())) for k, v in sorted(state.counts.items())},
        "triples_by_source": dict(sorted(triples_by_source.items())),
        "stale_comments": sum(1 for r in reports if r.verdict == "stale"),
        "warnings": state.warnings,
    }

    out = manifest.out
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in (TRACE_COPY, TEMPLATES_COPY):  # drop leftovers from prior builds
            (out / name).unlink(missing_ok=True)
        save_graph(graph, out)
        (out / STATS_FILE).write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
        )
        (out / REPORT_FILE).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
        )
        if manifest.trace is not None:
            shutil.copyfile(manifest.trace, out / TRACE_COPY)
        if manifest.templates is not None:
            load_registry(str(manifest.templates))  # validate before copying
            shutil.copyfile(manifest.templates, out / TEMPLATES_COPY)
    except Exception:
        for name in (NODES_FILE, TRIPLES_FILE, RANKS_FILE, STATS_FILE,
                     REPORT_FILE, TRACE_COPY, TEMPLATES_COPY):
            (out / name).unlink(missing_ok=True)
        raise

    _print_report(report)
    return 0


def _build_graph(
    state: BuildState,
    link_triples: list[history.LinkTriple],
    ontology: Ontology,
    weights: StrategyWeights,
) -> KnowledgeGraph:
    builder = GraphBuilder()
    for entity in state.facts.sorted_entities():
        builder.add_entity(entity)

    for rel in state.facts.sorted_relations():
        source = "comment" if rel.pred == "documented-by" else "source-code"
        origin = f"{ids.path_of(rel.subj) or rel.subj}:{rel.origin}"
        builder.insert_triple(rel.subj, rel.pred, rel.obj, Provenance(source, origin))
    for s, p, o, tag in link_triples:
        builder.insert_triple(s, p, o, Provenance(tag, s))

    roots = concepts.detect_thread_roots(state.facts, state.trace)
    if roots:
        builder.add_entity(Entity(ids.THREAD_ROOT_ID, "thread-root", "thread-root"))
        for func in sorted(roots):
            builder.insert_triple(
                ids.THREAD_ROOT_ID, "starts-thread", func,
                Provenance("derived", "thread-roots"),
            )
    for func, pred, var, detail in concepts.detect_guarded_regions(state.trace):
        trace_name = state.trace.name if state.trace else "trace"
        builder.insert_triple(func, pred, var, Provenance("trace", trace_name, detail))

    for concept, label in sorted(ontology.concept_labels.items()):
        builder.add_entity(Entity(ids.concept_id(concept), "concept", label))
    assoc = dict(state.associations)
    for comment in state.comments:
        entity_id = assoc.get(comment.id)
        if entity_id is None:
            continue
        for s, p, o in concepts.tag_domain_concepts(comment, ontology, entity_id):
            builder.insert_triple(s, p, o, Provenance("comment", comment.id))

    functions = [
        e for e in state.facts.sorted_entities()
        if e.kind == "function" and e.attrs.get("external") != "true"
    ]
    vectors = concepts.compute_features(functions, state.facts, state.trace, ontology)
    for func, fv in zip(functions, vectors):
        label = concepts.classify_strategy(fv, weights)
        if label.class_name != "unclassified":
            builder.add_entity(
                Entity(ids.concept_id(label.class_name), "concept", label.class_name)
            )
            builder.insert_triple(
                func.id, "classified-as", ids.concept_id(label.class_name),
                Provenance("derived", f"score={label.score!r}"),
            )
    return builder.finalize()


def _stats(graph: KnowledgeGraph, rank, triangles, triangle_total) -> dict:
    by_kind: dict[str, int] = {}
    for entity in graph.entities.values():
        by_kind[entity.kind] = by_kind.get(entity.kind, 0) + 1
    top_rank = sorted(rank.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    top_tri = sorted(triangles.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return {
        "nodes_by_kind": dict(sorted(by_kind.items())),
        "triples": len(graph),
        "top_pagerank": [[eid, score] for eid, score in top_rank],
        "top_triangles": [[eid, n] for eid, n in top_tri],
        "triangle_total": triangle_total,
    }


def _print_report(report: dict) -> None:
    print(f"build: {report['entities']} entities, {report['triples']} triples")
    for source, row in report["sources"].items():
        detail = ", ".join(f"{v} {k}" for k, v in row.items())
        print(f"  {source}: {detail}")
    if report["stale_comments"]:
        print(f"  stale comments: {report['stale_comments']}")
    for warning in report["warnings"]:
        print(f"warning: {warning}")


# -- query ------------------------------------------------------------------


@dataclass
class QueryContext:
    """What a query runs against, loaded once per process: the graph with
    its persisted ranks, the trace copy, the template registry, and an
    index of the graph's labels built by the first free-form query."""

    graph: KnowledgeGraph
    trace: TraceLog | None
    registry: TemplateRegistry
    labels: LabelIndex


def _load_query_context(graph_dir: Path) -> QueryContext:
    graph = load_graph(graph_dir)
    trace = None
    trace_path = graph_dir / TRACE_COPY
    if trace_path.exists():
        trace = load_trace(utf8_lines(trace_path), name=TRACE_COPY)
    templates_path = graph_dir / TEMPLATES_COPY
    registry = load_registry(str(templates_path)) if templates_path.exists() else builtin_registry()
    return QueryContext(graph, trace, registry, LabelIndex(graph))


def _parse_template_args(raw: str, registry: TemplateRegistry, name: str) -> dict[str, str]:
    template = registry.get(name)
    args: dict[str, str] = {}
    parts = [p.strip() for p in raw.split(",")] if raw.strip() else []
    positional: list[str] = []
    for part in parts:
        if "=" in part and not part.startswith(("func:", "var:", "file:", "type:")):
            key, _, value = part.partition("=")
            args[key.strip()] = _normalize_cli_value(value.strip())
        else:
            positional.append(_normalize_cli_value(part))
    for slot, value in zip(template.slots, positional):
        args.setdefault(slot[0], value)
    return args


def _normalize_cli_value(value: str) -> str:
    value = value.strip().strip('"')
    if _DMY.match(value):
        return normalize_date(value) or value
    return value


def _run_query_text(text: str, ctx: QueryContext):
    """Dispatch query text; returns (ResultSet, resolution info or None)."""
    graph, registry = ctx.graph, ctx.registry
    text = text.strip()
    if text.upper().startswith("SELECT"):
        result = evaluate(graph, parse_query(text))
        return augment(result, graph, ctx.trace), None
    m = _TEMPLATE_CALL.match(text)
    if m:
        name, raw_args = m.group(1), m.group(2)
        args = _parse_template_args(raw_args, registry, name)
        result = run_template(name, args, graph, registry)
        return augment(result, graph, ctx.trace), {"template": name, "args": args}
    routed = match_freeform(text, registry, graph, labels=ctx.labels)
    if isinstance(routed, NoMatch):
        raise _NoMatchError(routed)
    result = run_template(routed.template, routed.args, graph, registry)
    resolution = {"template": routed.template, "args": routed.args, "score": routed.score}
    return augment(result, graph, ctx.trace), resolution


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


def parse_record(line: str) -> dict:
    """Inverse of format_records for one line; raises on non-records."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or "rec" not in doc:
        raise ValueError("not a record line")
    return doc


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
    except (QueryError, CktError) as exc:
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
                for triple in sub.triples():
                    print(f"  {triple.subject} {triple.predicate} {triple.object}",
                          file=stdout)
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
    if what == "triples":
        path = graph_dir / TRIPLES_FILE
        if not path.exists():
            print(f"error: no triples file in {graph_dir}", file=sys.stderr)
            return 2
        sys.stdout.write("".join(utf8_lines(path)))
        return 0
    if what == "stats":
        path = graph_dir / STATS_FILE
        if not path.exists():
            print(f"error: no stats file in {graph_dir}", file=sys.stderr)
            return 2
        sys.stdout.write("".join(utf8_lines(path)))
        return 0
    print(f"error: unknown export target {what!r} (use triples or stats)", file=sys.stderr)
    return 2


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
