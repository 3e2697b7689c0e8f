"""Mining commit-log and bug-tracker exports into entities and triples.

Exports are consumed as hermetic line-delimited files, never live tracker
APIs.  Commit-to-function mapping uses the current snapshot's spans and is
tagged "snapshot-approx" so the approximation stays queryable.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import IO, Iterable

from ckt import ids
from ckt.config import DEFAULT_BUG_PATTERNS
from ckt.errors import ConflictError, FormatError
from ckt.model import Comment, Entity, FactSet

_HASH_MENTION = re.compile(r"\b[0-9a-f]{7,40}\b")
_WORD = re.compile(r"\w+")
_CR_RUN = re.compile(r"cr\d+")


def _identifierish(token: str) -> bool:
    """Code-flavored token: mixes letters with digits or underscores."""
    has_mark = "_" in token or any(c.isdigit() for c in token)
    has_letter = any(c.isalpha() for c in token) or "_" in token
    return has_mark and has_letter


def parse_timestamp(value: str) -> datetime:
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


@dataclass
class Change:
    path: str
    added: list[tuple[int, int]] = field(default_factory=list)
    removed: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class Commit:
    id: str
    author_name: str
    author_email: str
    timestamp: str
    summary: str
    changes: list[Change] = field(default_factory=list)

    @property
    def entity_id(self) -> str:
        return ids.commit_id(self.id)

    @property
    def dev_entity_id(self) -> str:
        return ids.dev_id(self.author_email or self.author_name)


@dataclass
class BugRecord:
    id: str  # "<tracker>/<number>"
    tracker: str
    title: str
    description: str
    status: str
    opened: str
    closed: str | None
    assignee: str
    error_strings: list[str] = field(default_factory=list)
    mentions: list[str] = field(default_factory=list)

    @property
    def entity_id(self) -> str:
        return f"bug:{self.id}"

    @property
    def number(self) -> str:
        return self.id.rpartition("/")[2]


def _read_header(doc: dict, name: str, lineno: int) -> None:
    if doc.get("rec") != "header":
        raise FormatError(f"{name}: first record must be the header", lineno)
    if doc.get("version") != 1:
        raise FormatError(f"{name}: unsupported version {doc.get('version')!r}", lineno)


def _ranges(raw, name: str, lineno: int) -> list[tuple[int, int]]:
    out = []
    for pair in raw or []:
        try:
            start, end = int(pair[0]), int(pair[1])
        except (TypeError, ValueError, IndexError) as exc:
            raise FormatError(f"{name}: bad line range {pair!r}", lineno) from exc
        if start > end:
            raise FormatError(f"{name}: range start {start} > end {end}", lineno)
        out.append((start, end))
    return out


def load_commits(
    lines: Iterable[str] | IO[str], name: str = "commits"
) -> tuple[list[Commit], list[str]]:
    """Parse a commit export; returns commits sorted by timestamp ascending
    plus a warning report for malformed records."""
    commits: list[Commit] = []
    warnings: list[str] = []
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            if not saw_header:
                raise FormatError(f"{name}: invalid JSON: {exc}", lineno) from exc
            warnings.append(f"{name} line {lineno}: invalid JSON, record skipped")
            continue
        if not saw_header:
            _read_header(doc, name, lineno)
            saw_header = True
            continue
        try:
            changes = [
                Change(
                    path=ids.norm_path(str(ch["path"])),
                    added=_ranges(ch.get("added"), name, lineno),
                    removed=_ranges(ch.get("removed"), name, lineno),
                )
                for ch in doc.get("changes", [])
            ]
            commit = Commit(
                id=str(doc["id"]),
                author_name=str(doc.get("author_name", "")),
                author_email=str(doc.get("author_email", "")),
                timestamp=str(doc["timestamp"]),
                summary=str(doc.get("summary", "")),
                changes=changes,
            )
            parse_timestamp(commit.timestamp)
        except (KeyError, TypeError, ValueError, FormatError) as exc:
            warnings.append(f"{name} line {lineno}: {exc}; record skipped")
            continue
        commits.append(commit)
    if not saw_header:
        raise FormatError(f"{name}: missing header line", 1)
    commits.sort(key=lambda c: (parse_timestamp(c.timestamp), c.id))
    return commits, warnings


def load_bugs(lines: Iterable[str] | IO[str], name: str = "bugs") -> list[BugRecord]:
    """Parse a bug export; mentions and quoted error strings are scanned out
    of title+description."""
    bugs: list[BugRecord] = []
    seen: dict[str, int] = {}
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{name}: invalid JSON: {exc}", lineno) from exc
        if not saw_header:
            _read_header(doc, name, lineno)
            saw_header = True
            continue
        try:
            tracker = str(doc.get("tracker", "bugs"))
            number = str(doc["id"])
            opened = str(doc["opened"])
            closed = doc.get("closed")
            closed = str(closed) if closed else None
            bug = BugRecord(
                id=f"{tracker}/{number}",
                tracker=tracker,
                title=str(doc.get("title", "")),
                description=str(doc.get("description", "")),
                status=str(doc.get("status", "other")),
                opened=opened,
                closed=closed,
                assignee=str(doc.get("assignee", "")),
                error_strings=[str(s) for s in doc.get("error_strings", [])],
            )
            opened_ts = parse_timestamp(opened)
            if closed is not None and parse_timestamp(closed) < opened_ts:
                raise ValueError(f"closed {closed} before opened {opened}")
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{name}: bad bug record: {exc}", lineno) from exc
        if bug.id in seen:
            raise ConflictError(
                f"{name}: duplicate bug id {bug.id} at line {lineno} "
                f"(first seen at line {seen[bug.id]})"
            )
        seen[bug.id] = lineno
        text = f"{bug.title}\n{bug.description}"
        bug.error_strings.extend(
            s for s in re.findall(r'"([^"]+)"', text) if s not in bug.error_strings
        )
        bug.mentions = _scan_mentions(text)
        bugs.append(bug)
    if not saw_header:
        raise FormatError(f"{name}: missing header line", 1)
    return bugs


def _scan_mentions(text: str) -> list[str]:
    """Commit/CR tokens appearing in bug text, in order of first occurrence."""
    out: list[str] = []
    for m in re.finditer(r"\bCR\d+\b", text, re.IGNORECASE):
        token = m.group().upper()
        if token not in out:
            out.append(token)
    for m in _HASH_MENTION.finditer(text.lower()):
        if m.group() not in out:
            out.append(m.group())
    return out


# -- linking ---------------------------------------------------------------

LinkTriple = tuple[str, str, str, str]  # subject, predicate, object, provenance tag


def register_commit_entities(commits: list[Commit], facts: FactSet) -> None:
    for commit in commits:
        facts.add_entity(
            Entity(
                commit.entity_id,
                "commit",
                commit.summary or commit.id,
                attrs={"timestamp": commit.timestamp, "author": commit.author_name or commit.author_email},
            ),
            merge=True,
        )
        label = commit.author_name or commit.author_email
        facts.add_entity(Entity(commit.dev_entity_id, "developer", label), merge=True)


def register_bug_entities(bugs: list[BugRecord], facts: FactSet) -> None:
    for bug in bugs:
        attrs = {
            "tracker": bug.tracker,
            "status": bug.status,
            "opened": bug.opened,
            "error_strings": " | ".join(bug.error_strings),
        }
        if bug.closed:
            attrs["closed"] = bug.closed
        facts.add_entity(Entity(bug.entity_id, "bug", bug.title or bug.id, attrs=attrs), merge=True)
        if bug.assignee:
            facts.add_entity(Entity(ids.dev_id(bug.assignee), "developer", bug.assignee), merge=True)


def link_commit_entities(commits: list[Commit], facts: FactSet) -> list[LinkTriple]:
    """Emit touches/authored-by triples for each commit, in order, against
    the current snapshot.  Functions whose spans intersect a changed range
    get snapshot-approx provenance; unknown paths still yield file triples."""
    triples: list[LinkTriple] = []
    by_path: dict[str, list[Entity]] = {}
    for entity in facts.entities.values():
        if entity.kind == "function" and entity.span is not None:
            by_path.setdefault(entity.span.path, []).append(entity)
    for functions in by_path.values():
        functions.sort(key=lambda e: e.id)
    for commit in commits:
        for change in commit.changes:
            fid = ids.file_id(change.path)
            if fid not in facts.entities:
                facts.add_entity(
                    Entity(fid, "file", change.path.rpartition("/")[2] or change.path,
                           attrs={"missing": "true"}),
                    merge=True,
                )
            triples.append((commit.entity_id, "touches", fid, "version-tracker"))
            ranges = change.added + change.removed
            for fn in by_path.get(change.path, []):
                if any(_intersects(r, (fn.span.start, fn.span.end)) for r in ranges):
                    triples.append((commit.entity_id, "touches", fn.id, "snapshot-approx"))
        triples.append((commit.entity_id, "authored-by", commit.dev_entity_id, "version-tracker"))
    return triples


def _intersects(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def link_bugs_commits(
    bugs: list[BugRecord],
    commits: list[Commit],
    patterns: tuple[str, ...] = DEFAULT_BUG_PATTERNS,
) -> tuple[list[LinkTriple], list[str]]:
    """Cross-link bugs and commits.

    A commit summary matching a configured id pattern that resolves to a
    loaded bug yields a fixes triple; unresolved matches produce warnings.
    Explicit hash/CR mentions in bug text yield bug-mentions-commit triples,
    and assignment yields assigned-to.
    """
    triples: list[LinkTriple] = []
    warnings: list[str] = []
    by_number: dict[str, list[BugRecord]] = {}
    for bug in bugs:
        by_number.setdefault(bug.number, []).append(bug)
    compiled = [re.compile(p, re.IGNORECASE) for p in patterns]

    for commit in commits:
        for pattern in compiled:
            for m in pattern.finditer(commit.summary):
                number = m.group(1) if m.groups() else m.group()
                matches = by_number.get(number)
                if not matches:
                    warnings.append(
                        f"commit {commit.id}: pattern hit {m.group()!r} resolves to no loaded bug"
                    )
                    continue
                for bug in matches:
                    triples.append((commit.entity_id, "fixes", bug.entity_id, "version-tracker"))

    # a CR token matches every summary that contains it, so index each
    # summary under every "cr<digits>" prefix of its "cr<digit run>"s
    by_cr: dict[str, list[Commit]] = {}
    for commit in commits:
        keys = {
            m.group()[:n]
            for m in _CR_RUN.finditer(commit.summary.lower())
            for n in range(3, len(m.group()) + 1)
        }
        for key in keys:
            by_cr.setdefault(key, []).append(commit)
    # a hash token matches the ids it prefixes: a range of the sorted ids
    by_commit_id = {c.id: c for c in commits}
    sorted_ids = sorted(
        (cid.lower(), rank, commit.entity_id)
        for rank, (cid, commit) in enumerate(by_commit_id.items())
    )
    for bug in bugs:
        for token in bug.mentions:
            if token.upper().startswith("CR"):
                for commit in by_cr.get(token.lower(), []):
                    triples.append((bug.entity_id, "mentions", commit.entity_id, "bug-tracker"))
            else:
                hits = []
                i = bisect_left(sorted_ids, (token,))
                while i < len(sorted_ids) and sorted_ids[i][0].startswith(token):
                    hits.append(sorted_ids[i][1:])
                    i += 1
                for _, commit_eid in sorted(hits):
                    triples.append((bug.entity_id, "mentions", commit_eid, "bug-tracker"))
        if bug.assignee:
            triples.append((bug.entity_id, "assigned-to", ids.dev_id(bug.assignee), "bug-tracker"))
    return triples, warnings


def link_bugs_code(
    bugs: list[BugRecord],
    facts: FactSet,
    associations: list[tuple[str, str]],
    comments: list[Comment],
    existing: list[LinkTriple],
) -> list[LinkTriple]:
    """Ground bugs onto code elements.

    Two routes: (a) transitively, a bug touches whatever its fixing or
    mentioned commits touch; (b) lexically, an identifier-like token from
    the bug's title or error strings that appears in a comment associated
    with a function marks that function (the mechanized version of grepping
    the codebase for an error string).
    """
    triples: list[LinkTriple] = []
    commit_touches: dict[str, list[str]] = {}
    for s, p, o, _ in existing:
        if p == "touches":
            commit_touches.setdefault(s, []).append(o)

    fixes_of: dict[str, list[str]] = {}
    mentions_of: dict[str, list[str]] = {}
    for s, p, o, _ in existing:
        if p == "fixes":
            fixes_of.setdefault(o, []).append(s)
        elif p == "mentions" and s.startswith("bug:"):
            mentions_of.setdefault(s, []).append(o)

    # token -> (comment, function) for each comment associated with a
    # function that carries the token
    tokens_by_comment = {c.id: set(c.tokens) for c in comments}
    by_token: dict[str, list[tuple[str, str]]] = {}
    for comment_id, entity_id in dict(associations).items():
        entity = facts.entities.get(entity_id)
        if entity is not None and entity.kind == "function":
            for token in tokens_by_comment.get(comment_id, ()):
                by_token.setdefault(token, []).append((comment_id, entity_id))

    for bug in bugs:
        bug_eid = bug.entity_id
        for commit_eid in fixes_of.get(bug_eid, []) + mentions_of.get(bug_eid, []):
            for target in commit_touches.get(commit_eid, []):
                triples.append((bug_eid, "touches", target, "derived"))
        idents = set()
        for text in [bug.title, *bug.error_strings]:
            idents.update(
                m.group().lower() for m in _WORD.finditer(text) if _identifierish(m.group())
            )
        hits = {pair for token in idents for pair in by_token.get(token, ())}
        for _, entity_id in sorted(hits):
            triples.append((bug_eid, "touches", entity_id, "derived"))
    seen: set[tuple[str, str, str]] = set()
    unique: list[LinkTriple] = []
    for item in triples:
        if item[:3] not in seen:
            seen.add(item[:3])
            unique.append(item)
    return unique
