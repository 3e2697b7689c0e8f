"""The one reader of line-delimited input files and of the JSON records
in them, and the one parser of the timestamps they carry."""

from __future__ import annotations

import io
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

from ckt.errors import FormatError

SCHEMA_VERSION = 1  # of the header record that opens facts, commits and bugs

_DECODER = json.JSONDecoder()


def utf8_lines(path: str | Path, data: bytes | None = None) -> Iterator[str]:
    """Yield the lines of a UTF-8 text file, or of `data`, its bytes when
    the caller has read them, split as a text-mode file splits them; bytes
    that are not UTF-8 raise FormatError naming the file and the line."""
    path = Path(path)
    if data is None:
        fh = open(path, encoding="utf-8")
    else:
        fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise not_utf8(path.name, path.read_bytes() if data is None else data, exc) from exc


def not_utf8(name: str, data: bytes, exc: UnicodeDecodeError, first_line: int = 1) -> FormatError:
    """The error for `data`, the bytes of file `name` from its line
    `first_line` on, whose decoding failed with `exc`: FormatError at the
    first line that is not UTF-8, found anew because the decoder's offsets
    are per chunk."""
    for lineno, line in enumerate(data.split(b"\n"), start=first_line):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            break
    return FormatError(f"{name} is not UTF-8: {exc.reason}", lineno)


def json_value(text: str):
    """json.loads(text), minus its per-call overhead when the value spans
    the whole text, as it does in every line `ckt build` writes."""
    try:
        value, end = _DECODER.raw_decode(text)
    except ValueError:
        end = -1
    return value if end == len(text) else json.loads(text)


def json_records(
    lines: Iterable[str],
    name: str,
    header: bool = False,
    warnings: list[str] | None = None,
) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of JSON-lines
    input `name`.  Every record must be a JSON object; with `header`, the
    first must be {"rec":"header","version":1} and is not yielded.  A bad
    line raises FormatError naming `name` and the line, except that, given
    `warnings`, a line after the header that is not JSON is reported there
    and skipped."""
    saw_header = not header
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json_value(raw)
        except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
            if saw_header and warnings is not None:
                warnings.append(f"{name} line {lineno}: invalid JSON, record skipped")
                continue
            raise FormatError(f"{name}: invalid JSON: {exc}", lineno) from exc
        if not isinstance(doc, dict):
            raise FormatError(f"{name}: record is not a JSON object", lineno)
        if saw_header:
            yield lineno, doc
            continue
        if doc.get("rec") != "header":
            raise FormatError(f"{name}: first record must be the header", lineno)
        version = doc.get("version")
        if type(version) is not int or version != SCHEMA_VERSION:  # not true, not 1.0
            raise FormatError(f"{name}: unsupported version {version!r} "
                              f"(expected {SCHEMA_VERSION})", lineno)
        saw_header = True
    if not saw_header:
        raise FormatError(f"{name}: missing header line", 1)


def as_text(value, what: str, name: str, lineno: int | None = None) -> str:
    """A record's text field, which must be a JSON string; FormatError
    names `name` and the line otherwise."""
    if not isinstance(value, str):
        raise FormatError(f"{name}: {what} must be a string", lineno)
    return value


def as_texts(value, what: str, name: str, lineno: int | None = None) -> list[str]:
    """A record's list of text, which must be a JSON list of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FormatError(f"{name}: {what} must be a list of strings", lineno)
    return value


def parse_timestamp(value: str) -> datetime:
    """An ISO-8601 timestamp, `Z` accepted for UTC; a naive one is UTC."""
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts
