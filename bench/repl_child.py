"""One `ckt repl` session fed the query mix in a closed loop.

    python3 repl_child.py SRC GRAPH MIX SECONDS TIMES PEAK

Runs ckt.cli.cmd_repl on GRAPH with stdin replaced by a Feed over the
lines of MIX, repeated until SECONDS have passed since the first read.
Every read of stdin is timestamped with time.monotonic(), which is
comparable across processes, and the session ends after a whole pass over
the mix.  The times go to TIMES as JSON, and the REPL's output goes to
stdout with a marker line before each query's answer.  The process's peak
memory in MB goes to PEAK, as ckt_child.py writes it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from ckt_child import peak_mb

MARK = "\x1e"


class Feed:
    """Iterator standing in for the REPL's stdin.

    Each read records its time, calls on_read(n, done), writes a marker
    line carrying the query's index to `out`, and yields the next line of
    the cycle.  Once `seconds` have passed since the first read, the next
    read whose index is a multiple of `multiple` ends the session.
    """

    def __init__(self, lines, seconds, out, on_read=None, multiple=1):
        self.lines = lines
        self.seconds = seconds
        self.out = out
        self.on_read = on_read
        self.multiple = multiple
        self.times: list[float] = []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        now = time.monotonic()
        n = len(self.times)
        self.times.append(now)
        done = n % self.multiple == 0 and now - self.times[0] >= self.seconds
        if self.on_read is not None:
            self.on_read(n, done)
        if done:
            raise StopIteration
        self.out.write(f"{MARK}{n}\n")
        return self.lines[n % len(self.lines)] + "\n"


def main(argv: list[str]) -> int:
    src, graph, mix, seconds, times_path, peak_path = argv
    sys.path.insert(0, src)
    from ckt import cli

    with open(mix, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    feed = Feed(lines, float(seconds), sys.stdout, multiple=len(lines))
    status = cli.cmd_repl(Path(graph), stdin=feed, stdout=sys.stdout)
    with open(times_path, "w", encoding="utf-8") as fh:
        json.dump(feed.times, fh)
    with open(peak_path, "w", encoding="ascii") as fh:
        fh.write(f"{peak_mb()}\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
