"""Comment extraction and comment-to-entity association.

Comments come from the C lexer (`cparser.lex`), so they follow its rules:
a literal ends at the end of its line, and comments on directive lines are
recorded, as trailing ones, since the directive is code before them.
Adjacent full-line ``//`` comments merge into one run; block comments stand
alone.

Association is total, and each comment binds to one entity, in this order:

  1. a trailing comment to the innermost entity whose span holds its first
     line: the shortest span, then the latest start, then the least id;
  2. any other comment, or a trailing one no span holds, to the nearest
     entity starting on or after its last line: the earliest start, then
     the longest span, then the least id;
  3. else to the file entity, the first entity of kind ``file`` given, or
     the id of the comment's file when none is given.

A file's spanned entities are sorted once by (start, -length, id), so the
entity of rule 2 is the first at or after a bisection, and the containment
test of rule 1 reads only the entities that start at or before the line.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ckt import ids
from ckt.config import normalize_tokens
from ckt.extraction.cparser import Lexed, lex
from ckt.model import Comment, Entity, Span


def extract_comments(text: str, path: str, lexed: Lexed | None = None) -> list[Comment]:
    """Return every comment in the file with its span and normalized tokens.
    `lexed` is `lex(text)`, when the caller has it already."""
    path = ids.norm_path(path)
    raw = [
        (start, end, style, body.strip() if style == "line" else _strip_gutter(body),
         trailing, unterminated)
        for start, end, style, body, trailing, unterminated
        in (lex(text) if lexed is None else lexed)[1]
    ]
    merged = _merge_line_runs(raw)
    out: list[Comment] = []
    for start, end, style, body, trailing, unterminated in merged:
        attrs: dict[str, str] = {}
        if trailing:
            attrs["trailing"] = "true"
        if unterminated:
            attrs["unterminated"] = "true"
        out.append(
            Comment(
                text=body,
                span=Span(path, start, end),
                style=style,
                tokens=normalize_tokens(body),
                attrs=attrs,
            )
        )
    return out


def _strip_gutter(body: str) -> str:
    lines = [ln.strip() for ln in body.split("\n")]
    lines = [ln[1:].strip() if ln.startswith("*") else ln for ln in lines]
    return " ".join(ln for ln in lines if ln).strip()


def _merge_line_runs(raw):
    merged = []
    for item in raw:
        start, end, style, body, trailing, unterminated = item
        if (
            merged
            and style == "line"
            and not trailing
            and merged[-1][2] == "line"
            and not merged[-1][4]
            and merged[-1][1] == start - 1
        ):
            prev = merged[-1]
            merged[-1] = (prev[0], end, "line", f"{prev[3]} {body}".strip(), False, False)
        else:
            merged.append(item)
    return merged


def associate_comments(
    comments: list[Comment], entities: list[Entity]
) -> list[tuple[str, str]]:
    """Map each comment to exactly one entity id; the file entity is the
    universal fallback."""
    spanned = sorted((e for e in entities if e.span is not None and e.kind != "file"),
                     key=lambda e: (e.span.start, e.span.start - e.span.end, e.id))
    starts = [e.span.start for e in spanned]
    file_entity = next((e for e in entities if e.kind == "file"), None)
    pairs: list[tuple[str, str]] = []
    for comment in comments:
        target = None
        if comment.attrs.get("trailing") == "true":
            line = comment.span.start
            containing = [e for e in spanned[:bisect_right(starts, line)] if line <= e.span.end]
            if containing:
                target = min(
                    containing,
                    key=lambda e: (e.span.end - e.span.start, -e.span.start, e.id),
                )
        if target is None:
            # nearest start; ties prefer the outermost (longest) span
            following = bisect_left(starts, comment.span.end)
            if following < len(spanned):
                target = spanned[following]
        if target is not None:
            pairs.append((comment.id, target.id))
        elif file_entity is not None:
            pairs.append((comment.id, file_entity.id))
        else:
            pairs.append((comment.id, ids.file_id(comment.span.path)))
    return pairs
