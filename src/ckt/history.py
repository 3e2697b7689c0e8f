"""Mining commit-log and bug-tracker exports into entities and triples.

Exports are consumed as hermetic line-delimited files, never live tracker
APIs.  Commit-to-function mapping uses the current snapshot's spans and is
tagged "snapshot-approx" so the approximation stays queryable.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import IO, Iterable

from ckt import ids
from ckt.errors import ConflictError, FormatError
from ckt.concepts import identifier_like
from ckt.model import Comment, Entity, FactSet, Record
from ckt.textio import as_text, as_texts, json_records, parse_timestamp

_HASH_MENTION = re.compile(r"\b[0-9a-f]{7,40}\b")
_WORD = re.compile(r"\w+")
_CR_RUN = re.compile(r"cr\d+")
# Bug-id patterns scanned in commit summaries; group 1 is the bug number.
_BUG_PATTERNS = (re.compile(r"bug#(\d+)", re.IGNORECASE), re.compile(r"CR(\d+)", re.IGNORECASE))


class Change(Record):
    __slots__ = _fields = ("path", "added", "removed")

    def __init__(self, path: str, added: list[tuple[int, int]] | None = None,
                 removed: list[tuple[int, int]] | None = None):
        self.path = path
        self.added = [] if added is None else added
        self.removed = [] if removed is None else removed


class Commit(Record):
    __slots__ = _fields = ("id", "author_name", "author_email", "timestamp", "summary", "changes")

    def __init__(self, id: str, author_name: str, author_email: str, timestamp: str,
                 summary: str, changes: list[Change] | None = None):
        self.id = id
        self.author_name = author_name
        self.author_email = author_email
        self.timestamp = timestamp
        self.summary = summary
        self.changes = [] if changes is None else changes

    @property
    def entity_id(self) -> str:
        return ids.commit_id(self.id)

    @property
    def dev_entity_id(self) -> str:
        return ids.dev_id(self.author_email or self.author_name)


class BugRecord(Record):
    __slots__ = _fields = ("id", "tracker", "title", "description", "status", "opened", "closed",
                           "assignee", "error_strings", "mentions")

    def __init__(self, id: str, tracker: str, title: str, description: str, status: str,
                 opened: str, closed: str | None, assignee: str,
                 error_strings: list[str] | None = None, mentions: list[str] | None = None):
        self.id = id  # "<tracker>/<number>"
        self.tracker = tracker
        self.title = title
        self.description = description
        self.status = status
        self.opened = opened
        self.closed = closed
        self.assignee = assignee
        self.error_strings = [] if error_strings is None else error_strings
        self.mentions = [] if mentions is None else mentions

    @property
    def entity_id(self) -> str:
        return f"bug:{self.id}"

    @property
    def number(self) -> str:
        return self.id.rpartition("/")[2]


def _text(doc: dict, key: str, name: str, lineno: int, default: str | None = None) -> str:
    """The record's text field `key`, or `default` when it is absent
    (KeyError when there is none); FormatError when it is no JSON string."""
    return as_text(doc[key] if default is None else doc.get(key, default), f"'{key}'", name,
                   lineno)


def _ranges(raw, name: str, lineno: int) -> list[tuple[int, int]]:
    """The [start, end] pairs of JSON integers in `raw`, a list or absent."""
    if raw is not None and type(raw) is not list:
        raise FormatError(f"{name}: line ranges must be a list", lineno)
    out = []
    for pair in raw or []:
        if type(pair) is not list or len(pair) != 2 or not all(type(n) is int for n in pair):
            raise FormatError(f"{name}: bad line range {pair!r}", lineno)
        start, end = pair
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
    for lineno, doc in json_records(lines, name, header=True, warnings=warnings):
        try:
            changes = [
                Change(
                    path=ids.norm_path(_text(ch, "path", name, lineno)),
                    added=_ranges(ch.get("added"), name, lineno),
                    removed=_ranges(ch.get("removed"), name, lineno),
                )
                for ch in doc.get("changes", [])
            ]
            commit = Commit(
                id=_text(doc, "id", name, lineno),
                author_name=_text(doc, "author_name", name, lineno, ""),
                author_email=_text(doc, "author_email", name, lineno, ""),
                timestamp=_text(doc, "timestamp", name, lineno),
                summary=_text(doc, "summary", name, lineno, ""),
                changes=changes,
            )
            parse_timestamp(commit.timestamp)
        except FormatError as exc:  # a field of another JSON type, or a bad line range
            warnings.append(f"{exc}; record skipped")
            continue
        except (KeyError, TypeError, ValueError) as exc:
            warnings.append(f"{name} line {lineno}: {exc}; record skipped")
            continue
        commits.append(commit)
    commits.sort(key=lambda c: (parse_timestamp(c.timestamp), c.id))
    return commits, warnings


def load_bugs(lines: Iterable[str] | IO[str], name: str = "bugs") -> list[BugRecord]:
    """Parse a bug export; mentions and quoted error strings are scanned out
    of title+description."""
    bugs: list[BugRecord] = []
    seen: dict[str, int] = {}
    for lineno, doc in json_records(lines, name, header=True):
        try:
            tracker = _text(doc, "tracker", name, lineno, "bugs")
            number = _text(doc, "id", name, lineno)
            opened = _text(doc, "opened", name, lineno)
            closed = doc.get("closed")
            if closed is not None:  # absent, null or "": open
                closed = as_text(closed, "'closed'", name, lineno) or None
            bug = BugRecord(
                id=f"{tracker}/{number}",
                tracker=tracker,
                title=_text(doc, "title", name, lineno, ""),
                description=_text(doc, "description", name, lineno, ""),
                status=_text(doc, "status", name, lineno, "other"),
                opened=opened,
                closed=closed,
                assignee=_text(doc, "assignee", name, lineno, ""),
                error_strings=as_texts(doc.get("error_strings", []), "'error_strings'", name, lineno),
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
            for fn in facts.entities_in(change.path):
                if fn.kind == "function" and any(
                        _intersects(r, (fn.span.start, fn.span.end)) for r in ranges):
                    triples.append((commit.entity_id, "touches", fn.id, "snapshot-approx"))
        triples.append((commit.entity_id, "authored-by", commit.dev_entity_id, "version-tracker"))
    return triples


def _intersects(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def link_bugs_commits(
    bugs: list[BugRecord], commits: list[Commit]
) -> tuple[list[LinkTriple], list[str]]:
    """Cross-link bugs and commits.

    A commit summary matching a bug-id pattern that resolves to a
    loaded bug yields a fixes triple; unresolved matches produce warnings.
    Explicit hash/CR mentions in bug text yield bug-mentions-commit triples,
    and assignment yields assigned-to.
    """
    triples: list[LinkTriple] = []
    warnings: list[str] = []
    by_number: dict[str, list[BugRecord]] = {}
    for bug in bugs:
        by_number.setdefault(bug.number, []).append(bug)

    for commit in commits:
        for pattern in _BUG_PATTERNS:
            for m in pattern.finditer(commit.summary):
                number = m.group(1)
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
    associations: dict[str, str],
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
    for comment_id, entity_id in associations.items():
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
                m.group().lower() for m in _WORD.finditer(text) if identifier_like(m.group())
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
