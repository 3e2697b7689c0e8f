"""Runtime trace loading.

A trace is line-delimited JSON: {"seq":int,"tid":int,"kind":...,"target":str}
with strictly increasing seq.  Instrumentation tooling is expected to emit
this format; nothing here runs or rewrites binaries.
"""

from __future__ import annotations

from typing import IO, Iterable

from ckt.errors import FormatError
from ckt.model import TRACE_EVENT_KINDS, TraceEvent, TraceLog
from ckt.textio import json_records


def load_trace(lines: Iterable[str] | IO[str], name: str = "trace") -> TraceLog:
    """Parse a trace stream and replay it; a release without an acquire is
    a warning that names its line, not an error."""
    log = TraceLog(name=name)
    linenos: list[int] = []  # the line of each event
    last_seq = None
    for lineno, doc in json_records(lines, name):
        try:
            seq, tid, kind, target = doc["seq"], doc["tid"], doc["kind"], doc["target"]
        except KeyError as exc:
            raise FormatError(f"{name}: bad trace record: {exc}", lineno) from exc
        # JSON integers, not true or 1.0, and strings
        if type(seq) is not int or type(tid) is not int or type(kind) is not str \
                or type(target) is not str:
            raise FormatError(f"{name}: bad trace record: 'seq' and 'tid' must be integers, "
                              "'kind' and 'target' strings", lineno)
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
