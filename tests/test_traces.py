"""Trace stream loading and its one replay."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckt.concepts import detect_guarded_regions, detect_thread_roots
from ckt.errors import FormatError
from ckt.extraction import load_trace
from ckt.model import FactSet, TraceLog
from ckt.smart import race_alert_dynamic
from oracles import call_stack_at, held_locks_at, lockset_race, max_trace_depth


def lines(*records):
    return list(records)


def test_two_thread_unguarded_writes():
    log = load_trace(lines(
        '{"seq":1,"tid":1,"kind":"write","target":"var:g"}',
        '{"seq":2,"tid":2,"kind":"write","target":"var:g"}',
    ))
    assert len(log.events) == 2
    rec = log.replay.locksets["var:g"]
    assert rec.tids == {1, 2} and rec.candidate == set() and rec.wrote


def test_empty_stream():
    log = load_trace([])
    assert log.events == [] and log.replay.locksets == {}


def test_guarded_write_reconstructible():
    log = load_trace(lines(
        '{"seq":1,"tid":1,"kind":"enter","target":"func:a#f"}',
        '{"seq":2,"tid":1,"kind":"acquire","target":"L"}',
        '{"seq":3,"tid":1,"kind":"write","target":"var:g"}',
        '{"seq":4,"tid":1,"kind":"release","target":"L"}',
    ))
    assert held_locks_at(log, 1, 3) == {"L"}
    assert held_locks_at(log, 1, 5) == set()


def test_non_monotone_seq_rejected():
    with pytest.raises(FormatError, match="line 2"):
        load_trace(lines(
            '{"seq":5,"tid":1,"kind":"write","target":"v"}',
            '{"seq":5,"tid":1,"kind":"write","target":"v"}',
        ))


def test_unknown_kind_rejected():
    with pytest.raises(FormatError, match="jump"):
        load_trace(lines('{"seq":1,"tid":1,"kind":"jump","target":"v"}'))


def test_dangling_release_warns_not_fatal():
    log = load_trace(lines('{"seq":1,"tid":3,"kind":"release","target":"L"}'))
    assert len(log.warnings) == 1
    assert "release" in log.warnings[0] and "tid 3" in log.warnings[0]


def test_recursive_acquire_counts():
    log = load_trace(lines(
        '{"seq":1,"tid":1,"kind":"acquire","target":"L"}',
        '{"seq":2,"tid":1,"kind":"acquire","target":"L"}',
        '{"seq":3,"tid":1,"kind":"release","target":"L"}',
        '{"seq":4,"tid":1,"kind":"write","target":"var:g"}',
    ))
    assert log.warnings == []
    assert held_locks_at(log, 1, 4) == {"L"}


FUNCS = ["func:a#f", "func:a#g"]
TARGETS = {"enter": FUNCS, "exit": FUNCS, "acquire": ["L1", "L2"], "release": ["L1", "L2"],
           "read": ["var:a#x", "var:a#y"], "write": ["var:a#x", "var:a#y"],
           "thread_create": FUNCS}


@st.composite
def trace_files(draw):
    """Trace lines on up to three threads with mismatched exits, dangling
    releases and blank lines, so events and file lines are numbered apart."""
    lines, seq = [], 0
    for _ in range(draw(st.integers(0, 60))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        kind = draw(st.sampled_from(sorted(TARGETS)))
        seq += draw(st.integers(1, 3))
        lines.append(json.dumps({"seq": seq, "tid": draw(st.integers(1, 3)), "kind": kind,
                                 "target": draw(st.sampled_from(TARGETS[kind]))}))
    return lines


@settings(deadline=None)
@given(trace_files())
def test_replay_equals_naive_recomputation(lines):
    log = load_trace(lines)
    events = log.events
    assert TraceLog(events=list(events)).replay == log.replay  # hand-built, same replay

    guards = {}
    warnings = []
    linenos = [n for n, raw in enumerate(lines, start=1) if raw]
    for lineno, ev in zip(linenos, events):
        held = held_locks_at(log, ev.tid, ev.seq)
        stack = call_stack_at(log, ev.tid, ev.seq)
        if ev.kind in ("read", "write") and held and stack:
            guards.setdefault((stack[-1], ev.target), set()).update(held)
        if ev.kind == "release" and ev.target not in held:
            warnings.append(f"line {lineno}: release of {ev.target} on tid {ev.tid} without acquire")
    assert detect_guarded_regions(log) == [
        (func, "guards", var, "locks=" + ",".join(sorted(locks)))
        for (func, var), locks in sorted(guards.items())
    ]
    assert log.warnings == warnings

    plain = [(ev.tid, ev.kind, ev.target) for ev in events]
    for func in FUNCS:
        assert log.replay.depths.get(func, 0) == max_trace_depth(func, plain)
    for var in TARGETS["read"]:
        if any(ev.kind in ("read", "write") and ev.target == var for ev in events):
            assert (race_alert_dynamic(log, var) is not None) == lockset_race(events, var)
    assert detect_thread_roots(FactSet(), log) == {
        ev.target for ev in events if ev.kind == "thread_create"}
