"""The one reader of line-delimited input files."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from ckt.errors import FormatError


def utf8_lines(path: str | Path) -> Iterator[str]:
    """Yield the lines of a UTF-8 text file; bytes that are not UTF-8 raise
    FormatError naming the file and the line."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            # the decoder's offsets are per chunk: find the line anew
            for lineno, line in enumerate(path.read_bytes().split(b"\n"), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    raise FormatError(f"{path.name} is not UTF-8: {exc.reason}", lineno) from exc
            raise
