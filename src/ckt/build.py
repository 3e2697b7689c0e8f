"""`ckt build`: read a project manifest, extract every knowledge source,
link them, and write the graph directory.

A repeated name resolves one way: a source file that several manifest
roots reach is parsed once, a facts file that the manifest lists more than
once is loaded once, at its first listing (a file is known by the path it
resolves to, and its ids keep the spelling it was first reached by), and a
comment id names a file and a start line, so of the comments that start on
one line the first is the one the graph keeps.  Its association, entity,
documented-by edge, stale verdict, concept mentions and bug grounding all
come from that comment.

Only `ckt build` imports this module, so a query never loads the parser,
the history miner or the concept detectors.  The phase functions are
called through their modules' attributes, so that a rebinding of one there
(as the benchmark's tracer does) reaches the calls made here too.
"""

from __future__ import annotations

import heapq
import json
import re
from collections import Counter
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
from ckt.errors import CktError
from ckt.extraction import comments, cparser, traces
from ckt.extraction.facts import load_facts
from ckt.graph import (
    REPORT_FILE,
    STATS_FILE,
    TEMPLATES_COPY,
    TRACE_COPY,
    GraphBuilder,
    KnowledgeGraph,
    Provenance,
    collector_paused,
)
from ckt.model import Comment, Entity, FactSet, Record, Relation, TraceLog
from ckt.query.parser import is_word
from ckt.query.templates import load_registry
from ckt.textio import as_text, not_utf8, utf8_lines

SOURCE_SUFFIXES = (".c", ".cc", ".cpp", ".cxx", ".h", ".hh", ".hpp")
# what no manifest path may hold: a control character, which would break
# the line of an error that names the path, or a lone surrogate, which no
# file name encodes
_UNNAMEABLE = re.compile("[\x00-\x1f\x7f\ud800-\udfff]")
_CONTROL = re.compile("[\x00-\x1f\x7f]")


class ProjectManifest(Record):
    __slots__ = _fields = ("sources", "commits", "bugs", "trace", "ontology", "weights",
                           "templates", "out")

    def __init__(self, sources: list[tuple[Path, str]], commits: Path | None, bugs: Path | None,
                 trace: Path | None, ontology: Path | None, weights: Path | None,
                 templates: Path | None, out: Path):
        self.sources = sources  # (path, "parse" | "facts-file")
        self.commits = commits
        self.bugs = bugs
        self.trace = trace
        self.ontology = ontology
        self.weights = weights
        self.templates = templates
        self.out = out


def load_manifest(path: Path) -> ProjectManifest:
    # every path below starts with the manifest's directory and is printed
    # bare; a command-line path's lone surrogates are bytes of its name
    if _CONTROL.search(str(path)):
        raise CktError(f"manifest path holds a control character: {str(path)!r}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8 or not JSON
        raise CktError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CktError(f"manifest {path} is not a JSON object")
    base = path.parent

    def under_base(value, what: str) -> Path:
        value = as_text(value, what, path.name)
        if _UNNAMEABLE.search(value):
            raise CktError(f"{what} holds a control character or a lone surrogate: {value!r}")
        return base / value

    def resolve(key: str, required: bool = False) -> Path | None:
        value = doc.get(key)
        if value is None:
            if required:
                raise CktError(f"manifest is missing required key {key!r}")
            return None
        return under_base(value, f"{key} path")

    raw_sources = doc.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        raise CktError("manifest needs a non-empty 'sources' list")
    sources: list[tuple[Path, str]] = []
    for entry in raw_sources:
        if not isinstance(entry, dict) or "path" not in entry:
            raise CktError(f"bad sources entry: {entry!r}")
        mode = as_text(entry.get("mode", "parse"), "source mode", path.name)
        if mode == "facts":
            mode = "facts-file"
        if mode not in ("parse", "facts-file"):
            raise CktError(f"unknown source mode {mode!r}")
        sources.append((under_base(entry["path"], "source path"), mode))
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
    key = "source"
    try:
        for p, mode in manifest.sources:
            if not p.exists():
                raise CktError(f"source path does not exist: {p}")
            if mode == "facts-file" and not p.is_file():
                raise CktError(f"facts source path is not a file: {p}")
        for key in ("commits", "bugs", "trace", "ontology", "weights", "templates"):
            p = getattr(manifest, key)
            if p is not None and not p.exists():
                raise CktError(f"{key} path does not exist: {p}")
            if p is not None and not p.is_file():
                raise CktError(f"{key} path is not a file: {p}")
        key = "out"
        if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
            raise CktError(f"out path is not a directory: {out}")
    except OSError as exc:  # such as a name part too long for the file system
        raise CktError(f"{key} path cannot be checked: {exc.strerror or exc}: {exc.filename}"
                       ) from None
    return manifest


class BuildState(Record):
    __slots__ = _fields = ("facts", "comments", "associations", "trace", "warnings", "counts")

    def __init__(self):
        self.facts = FactSet()
        self.comments: list[Comment] = []  # one per comment id
        self.associations: dict[str, str] = {}  # comment id -> entity id
        self.trace: TraceLog | None = None
        self.warnings: list[str] = []
        self.counts: dict[str, dict[str, int]] = {}

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
    def merge(facts: FactSet) -> None:
        state.bump("source-code", "entities", len(facts.entities))
        state.bump("source-code", "relations", len(facts.relations))
        state.facts.merge(facts)

    # each file read once however often it is listed or reached, known by
    # its resolved path: `sub/../src` is `src` unless `sub` is a symlink
    parsed: set[Path] = set()
    loaded: set[Path] = set()
    for root, mode in manifest.sources:
        if mode == "facts-file":
            if (real := root.resolve()) not in loaded:
                loaded.add(real)
                merge(load_facts(utf8_lines(root), name=_rel_path(root, base)))
            continue
        for file_path in _iter_source_files(root):
            if (real := file_path.resolve()) in parsed:  # another root reached it first
                continue
            parsed.add(real)
            rel = _rel_path(file_path, base)
            if not is_word(rel):  # ids embed the path, and an id is one query word
                raise CktError(f"source path {rel!r} contains whitespace or one of "
                               '{};"?: no query could name its entities')
            data = file_path.read_bytes()
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise not_utf8(rel, data, exc) from exc
            lexed = cparser.lex(text)  # one pass gives the parser and the comments
            merge(cparser.parse_source(text, rel, lexed=lexed))
            file_comments = comments.extract_comments(text, rel, lexed=lexed)
            state.bump("comment", "comments", len(file_comments))
            firsts: dict[str, Comment] = {}
            for comment in file_comments:  # the first comment on a start line wins
                firsts.setdefault(comment.id, comment)
            kept = list(firsts.values())
            state.comments.extend(kept)
            state.associations.update(
                comments.associate_comments(kept, state.facts.entities_in(rel)))


def _comment_entities(state: BuildState) -> int:
    """Make each comment's entity, its documented-by edge and its stale
    verdict; returns the stale count."""
    stale = 0
    code_words: dict[str, bool] = {}  # each distinct word's identifier_like verdict
    for comment in state.comments:
        attrs = {
            "style": comment.style,
            "tokens": " ".join(comment.tokens),
        }
        attrs.update(comment.attrs)
        label = comment.text if len(comment.text) <= 60 else comment.text[:57] + "..."
        centity = state.facts.add_entity(
            Entity(comment.id, "comment", label, comment.span, attrs), merge=True
        )
        entity_id = state.associations[comment.id]
        if entity_id in state.facts.entities:
            state.facts.add_relation(
                Relation(entity_id, "documented-by", comment.id, comment.span.start)
            )
        scope = _scope_identifiers(entity_id, state.facts)
        missing = concepts.validate_comment(comment, scope, code_words)
        stale += bool(missing)
        centity.attrs["stale"] = "true" if missing else "false"
        if missing:
            centity.attrs["missing"] = " ".join(missing)
    return stale


_SCOPE_KINDS = ("function", "variable", "type", "class")


def _scope_identifiers(entity_id: str, facts: FactSet) -> set[str]:
    """Identifier tokens declared or used within the entity's reach; a
    file's reach is every declaration spanned in it."""
    idents: set[str] = set()
    entity = facts.entities.get(entity_id)
    if entity is None:
        return idents
    idents.add(entity.label)
    if entity.kind == "file" and entity.span is not None:
        spanned = facts.entities_in(entity.span.path)
        idents.update(e.label for e in spanned if e.kind in _SCOPE_KINDS)
        return idents
    for rel in facts.relations_from(entity_id):
        if rel.pred not in ("declares", "reads", "writes", "calls"):
            continue
        target = facts.entities.get(rel.obj)
        if target is not None:
            idents.add(target.label)
    return idents


@collector_paused()
def cmd_build(manifest_path: Path) -> int:
    """Build the graph a manifest describes, with the cyclic collector
    paused: nearly all a build allocates lives until it has written the
    graph."""
    manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    state = BuildState()

    _extract_sources(manifest, base, state)
    stale_comments = _comment_entities(state)

    # the trace is read once: the bytes parsed are the bytes copied
    trace = None if manifest.trace is None else manifest.trace.read_bytes()
    if trace is not None:
        state.trace = traces.load_trace(
            utf8_lines(manifest.trace, trace), name=_rel_path(manifest.trace, base))
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
    weights.validate_against(set(concepts.feature_names(ontology)))

    builder = _build_graph(state, link_triples, ontology, weights)
    graph = builder.finalize()

    rank = graph.pagerank()
    triangles, triangle_total = graph.count_triangles()
    stats = _stats(graph, rank, triangles, triangle_total)
    # each triple counted by its first assertion, in one pass over the
    # builder's provenance lists rather than a lookup per key
    triples_by_source = Counter(provs[0].source for provs in builder.sources.values())
    report = {
        "entities": len(graph.entities),
        "triples": len(graph),
        "sources": {k: dict(sorted(v.items())) for k, v in sorted(state.counts.items())},
        "triples_by_source": dict(sorted(triples_by_source.items())),
        "stale_comments": stale_comments,
        "warnings": state.warnings,
    }

    # every input is checked before save_graph writes a file, and it renames
    # each into place, so a failed build leaves the previous tree whole
    extra = {
        STATS_FILE: _json_file(stats),
        REPORT_FILE: _json_file(report),
    }
    if trace is not None:
        extra[TRACE_COPY] = trace
    if manifest.templates is not None:
        extra[TEMPLATES_COPY] = manifest.templates.read_bytes()
        load_registry(str(manifest.templates), extra[TEMPLATES_COPY])  # validate before copying
    try:
        digests = ckt.graph.save_graph(graph, builder.sources, manifest.out, extra)
    except OSError as exc:  # a directory in a file's place, a full disk: the old tree stands
        raise CktError(f"cannot write {exc.filename2 or exc.filename or manifest.out}: "
                       f"{exc.strerror or exc}") from None
    # so the first query after the build parses nothing
    ckt.graph.write_cache_entry(graph, digests,
                                None if state.trace is None else state.trace.replay.locksets)

    _print_report(report)
    return 0


def _build_graph(
    state: BuildState,
    link_triples: list[history.LinkTriple],
    ontology: Ontology,
    weights: StrategyWeights,
) -> GraphBuilder:
    """The builder of the build's graph, not yet finalized."""
    builder = GraphBuilder()
    entities = state.facts.sorted_entities()
    for entity in entities:
        builder.add_entity(entity)

    subject = None
    for rel in state.facts.sorted_relations():  # grouped by subject: one path_of each
        if rel.subj != subject:
            subject, where = rel.subj, ids.path_of(rel.subj) or rel.subj
        source = "comment" if rel.pred == "documented-by" else "source-code"
        builder.insert_triple(rel.subj, rel.pred, rel.obj,
                              Provenance(source, f"{where}:{rel.origin}"))
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

    functions = [e for e in entities if e.kind == "function" and e.attrs.get("external") != "true"]
    vectors = concepts.compute_features(functions, state.facts, state.trace, ontology)
    for func, (cls, score) in zip(functions, concepts.classify_strategy(vectors, weights)):
        if cls != "unclassified":
            builder.add_entity(Entity(ids.concept_id(cls), "concept", cls))
            builder.insert_triple(
                func.id, "classified-as", ids.concept_id(cls),
                Provenance("derived", f"score={score!r}"),
            )
    return builder


def _stats(graph: KnowledgeGraph, rank, triangles, triangle_total) -> dict:
    by_kind: dict[str, int] = {}
    for entity in graph.entities.values():
        by_kind[entity.kind] = by_kind.get(entity.kind, 0) + 1
    top_rank = heapq.nsmallest(10, rank.items(), key=lambda kv: (-kv[1], kv[0]))
    top_tri = heapq.nsmallest(10, triangles.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "nodes_by_kind": dict(sorted(by_kind.items())),
        "triples": len(graph),
        "top_pagerank": [[eid, score] for eid, score in top_rank],
        "top_triangles": [[eid, n] for eid, n in top_tri],
        "triangle_total": triangle_total,
    }


def _json_file(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _print_report(report: dict) -> None:
    print(f"build: {report['entities']} entities, {report['triples']} triples")
    for source, row in report["sources"].items():
        detail = ", ".join(f"{v} {k}" for k, v in row.items())
        print(f"  {source}: {detail}")
    if report["stale_comments"]:
        print(f"  stale comments: {report['stale_comments']}")
    for warning in report["warnings"]:
        print(f"warning: {warning}")
