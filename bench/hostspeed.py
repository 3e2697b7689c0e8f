"""How fast the host runs Python right now, to scale the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed is not its
own: it switches between a fast and a slow state every few seconds, and the
slow state can last a whole run, so a raw time measures the neighbours as
much as ckt.  `calibrate()` times a fixed loop of the kind of work ckt does
on a graph: random lookups in a dict of 100,000 string keys (about 15 MB,
more than a core's L2 cache, as ckt's graph is), a formatted string and a
tuple per lookup, and a sort.  A loop over a small table alone tracks the
host's state less well, and lookups alone overstate it.  The table lives in
the benchmark's own process only, never in a ckt process, whose memory is a
metric.

run.py stops each ckt process every PROBE_EVERY seconds to probe the host,
and probes before and after it; an operation's wall time, less the time it
was stopped, is scaled by (REFERENCE_S over the mean of the probes taken
around and during it) to the power SENSITIVITY.  The result reads as
seconds on a host where the loop takes REFERENCE_S: a change to ckt moves
it, a change in the host's speed mostly does not.  SENSITIVITY is below 1
because the loop's time swings more with the host's state than ckt's does:
fitted over REPL sessions probed between queries, log(ckt's time) moved
with log(the loop's time) at slopes of 0.74 to 0.88, and over twelve sets
of ten benchmark runs the mean spread of the scaled times was least at 0.8
of the powers 0.6 to 1.
"""

from __future__ import annotations

import functools
import gc
import random
import statistics
import time

REFERENCE_S = 0.004  # the loop's time on the reference host
KEYS = 100_000       # entries in the table
LOOKUPS = 3_000      # lookups in one pass
PROBE_EVERY = 0.25   # seconds between probes of a running ckt process
SENSITIVITY = 0.8    # how much of the loop's swing ckt's time follows


@functools.cache
def _table() -> tuple[dict[str, int], list[str]]:
    keys = [f"func:m{i % 997:03d}.c#f{i}" for i in range(KEYS)]
    order = random.Random(2).sample(keys, LOOKUPS)
    return {key: i for i, key in enumerate(keys)}, order


def calibrate() -> float:
    """Wall seconds of one pass of the loop, with the garbage collector off:
    a collection would walk the table."""
    table, order = _table()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows = []
        for key in order:
            value = table[key]
            rows.append((key, f"{key}@{value}"))
        rows.sort()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if len(rows) != LOOKUPS:
        raise AssertionError("calibration loop lost its rows")
    return elapsed


def probe(runs: int = 3) -> float:
    """The host's speed now: the median time of `runs` passes."""
    return statistics.median(calibrate() for _ in range(runs))


def to_reference(wall: float, probes: list[float]) -> float:
    """`wall` seconds measured while the loop took `probes` seconds, as
    seconds on the reference host."""
    return wall * (REFERENCE_S * len(probes) / sum(probes)) ** SENSITIVITY
