"""`ckt build`: read a project manifest, extract every knowledge source,
link them, and write the graph directory.

Only `ckt build` imports this module, so a query never loads the parser,
the history miner or the concept detectors.  The phase functions are
called through their modules' attributes, so that a rebinding of one there
(as the benchmark's tracer does) reaches the calls made here too.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import ckt.graph
from ckt import concepts, history, ids
from ckt.config import (
    Ontology,
    StrategyWeights,
    default_ontology,
    default_weights,
    load_ontology,
    load_weights,
)
from ckt.errors import CktError, FormatError
from ckt.extraction import comments, cparser, traces
from ckt.extraction.facts import load_facts
from ckt.graph import (
    NODES_FILE,
    RANKS_FILE,
    REPORT_FILE,
    STATS_FILE,
    TEMPLATES_COPY,
    TRACE_COPY,
    TRIPLES_FILE,
    GraphBuilder,
    KnowledgeGraph,
    Provenance,
    collector_paused,
)
from ckt.model import Comment, Entity, FactSet, Relation, TraceLog
from ckt.query.parser import is_word
from ckt.query.templates import load_registry
from ckt.textio import utf8_lines

SOURCE_SUFFIXES = (".c", ".cc", ".cpp", ".cxx", ".h", ".hh", ".hpp")


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
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8 or not JSON
        raise CktError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CktError(f"manifest {path} is not a JSON object")
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


@dataclass
class BuildState:
    facts: FactSet = field(default_factory=FactSet)
    comments: list[Comment] = field(default_factory=list)
    associations: dict[str, str] = field(default_factory=dict)  # comment id -> entity id
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
            if not is_word(rel):  # ids embed the path, and an id is one query word
                raise CktError(f"source path {rel!r} contains whitespace or one of "
                               '{};"?: no query could name its entities')
            data = file_path.read_bytes()
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise FormatError(f"{rel} is not UTF-8: {exc.reason}", line) from exc
            lexed = cparser.lex(text)  # one pass gives the parser and the comments
            merge(cparser.parse_source(text, rel, lexed=lexed))
            file_comments = comments.extract_comments(text, rel, lexed=lexed)
            state.comments.extend(file_comments)
            state.bump("comment", "comments", len(file_comments))
            state.associations.update(
                comments.associate_comments(file_comments, by_path.get(rel, [])))


def _comment_entities(state: BuildState) -> None:
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
        entity_id = state.associations.get(comment.id)
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
    by_id = {c.id: c for c in state.comments}
    labels_by_path = _scope_labels_by_path(state.facts)
    for comment_id in sorted(by_id):
        comment = by_id[comment_id]
        entity_id = state.associations.get(comment_id, "")
        scope = _scope_identifiers(entity_id, state.facts, labels_by_path)
        report = concepts.validate_comment(comment, scope, entity_id)
        reports.append(report)
        centity = state.facts.entities.get(comment_id)
        if centity is not None:
            centity.attrs["stale"] = "true" if report.verdict == "stale" else "false"
            if report.missing_identifiers:
                centity.attrs["missing"] = " ".join(report.missing_identifiers)
    return reports


@collector_paused()
def cmd_build(manifest_path: Path) -> int:
    """Build the graph a manifest describes, with the cyclic collector
    paused: nearly all a build allocates lives until it has written the
    graph."""
    manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    state = BuildState()

    _extract_sources(manifest, base, state)
    _comment_entities(state)

    if manifest.trace is not None:
        state.trace = traces.load_trace(
            utf8_lines(manifest.trace), name=_rel_path(manifest.trace, base))
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
    for provs in graph.provenance.values():
        source = provs[0].source  # count each triple by its first assertion
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
        ckt.graph.save_graph(graph, out)
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
    for comment in state.comments:
        entity_id = state.associations.get(comment.id)
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
