"""One ckt command that reports its own peak memory.

    python3 ckt_child.py PEAK ARGS...

Runs ckt.cli.main(ARGS), as `python -m ckt ARGS` does, with ckt found on
PYTHONPATH, and writes the process's peak resident memory in MB to PEAK.
The peak is read from /proc/self/status, not taken from the rusage the
parent gets from wait4: on Linux that counts the parent's own memory at the
fork, which is the benchmark's, not ckt's.
"""

from __future__ import annotations

import sys


def peak_mb() -> float:
    """The peak resident memory of this process (VmHWM), in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    peak_path, *args = argv
    try:
        from ckt.cli import main as ckt_main

        return ckt_main(args)
    finally:
        with open(peak_path, "w", encoding="ascii") as fh:
            fh.write(f"{peak_mb()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
