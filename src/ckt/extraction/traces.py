"""Runtime trace loading.

A trace is line-delimited JSON: {"seq":int,"tid":int,"kind":...,"target":str}
with strictly increasing seq.  Instrumentation tooling is expected to emit
this format; nothing here runs or rewrites binaries.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from ckt.errors import FormatError
from ckt.model import TRACE_EVENT_KINDS, TraceEvent, TraceLog


def load_trace(lines: Iterable[str] | IO[str], name: str = "trace") -> TraceLog:
    """Parse a trace stream and replay it; a release without an acquire is
    a warning that names its line, not an error."""
    log = TraceLog(name=name)
    linenos: list[int] = []  # the line of each event
    last_seq = None
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{name}: invalid JSON: {exc}", lineno) from exc
        try:
            seq = int(doc["seq"])
            tid = int(doc["tid"])
            kind = str(doc["kind"])
            target = str(doc["target"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{name}: bad trace record: {exc}", lineno) from exc
        if kind not in TRACE_EVENT_KINDS:
            raise FormatError(f"{name}: unknown event kind {kind!r}", lineno)
        if last_seq is not None and seq <= last_seq:
            raise FormatError(
                f"{name}: seq {seq} not greater than previous {last_seq}", lineno
            )
        last_seq = seq
        log.events.append(TraceEvent(seq, tid, kind, target))
        linenos.append(lineno)
    for pos in log.replay.dangling:
        ev = log.events[pos]
        log.warnings.append(
            f"line {linenos[pos]}: release of {ev.target} on tid {ev.tid} without acquire"
        )
    return log
