#!/usr/bin/env python3
"""Benchmark for ckt, the code knowledge toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It generates a seeded synthetic C project
(project.py), drives the ckt CLI from src/ on it for S seconds in a closed
loop with one client, checks every answer against an independent reference
(reference.py), scales each time by the host's speed probed around and
during it on the one CPU it runs on (hostspeed.py), prints a table of every
metric and ends with one JSON line {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json; with --trace 1 the workload runs in this process with spans
around each module's public functions (spans.py) and the metrics are the
per_layer list.

Workloads (one ckt process at a time):
  build-200   repeated `ckt build` processes on a 200-file project
  query-cold  `ckt query --format records` processes on a 100-file graph
  repl-warm   the same query mix fed line by line to one `ckt repl` session
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import project  # noqa: E402
import reference  # noqa: E402
from repl_child import MARK, Feed  # noqa: E402
from spans import Tracer  # noqa: E402

PROJECT_FILES = {"build-200": 200, "query-cold": 100, "repl-warm": 100}
# how often each workload builds its graph in set-up; a 200-file build takes
# about 10 s, so build-200 takes the median of two
SETUP_BUILDS = {"build-200": 2, "query-cold": 3, "repl-warm": 3}
CHILD_TIMEOUT = 100  # seconds before a hung ckt process is killed


class SetupError(Exception):
    pass


class Run:
    """What one run measured and found wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.lines: list[str] = []

    def op_result(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def show(self, name: str, value, unit: str = "", note: str = "") -> None:
        text = f"{value:.4f}" if isinstance(value, float) else str(value)
        self.lines.append(f"  {name:<34} {text:>12} {unit:<6} {note}".rstrip())


class Timeline:
    """The host's speed while one process ran: probes at known times, and
    the intervals in which the process was stopped for them.  Times are
    time.monotonic() seconds, which every process on the host shares."""

    def __init__(self, points: list[tuple[float, float]],
                 stops: list[tuple[float, float]]):
        self.points = points  # (time, probe) in time order
        self.stops = stops    # (stopped at, resumed at)

    def span(self, begin: float, end: float) -> tuple[float, float]:
        """Seconds the process ran between begin and end, raw and as seconds
        on the reference host: scaled by the probes from the last one
        before `begin` to the first one after `end`."""
        raw = end - begin - sum(max(0.0, min(end, resumed) - max(begin, stopped))
                                for stopped, resumed in self.stops)
        times = [t for t, _ in self.points]
        first = max(bisect.bisect_right(times, begin) - 1, 0)
        last = bisect.bisect_left(times, end)
        return raw, hostspeed.to_reference(raw, [p for _, p in self.points[first:last + 1]])


class Proc(NamedTuple):
    """One finished process."""

    code: int
    start: float  # time.monotonic() at its spawn
    wall: float   # seconds it ran, the time stopped for probes left out
    ref_s: float  # wall as seconds on the reference host (hostspeed.py)
    peak_mb: float
    out: Path
    timeline: Timeline


def report(run: Run, **values: tuple[float, float]) -> None:
    """Store each (reference-host value, raw value) pair's first member as
    the metric of that name and show both; names ending in _per_s are rates."""
    for name, (ref, raw) in values.items():
        run.metrics[name] = ref
        run.show(name, ref, "1/s" if name.endswith("_per_s") else "s", f"raw {raw:.4f}")


class Workspace:
    """The generated project of one run and the ckt processes run on it."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.dir = WORK / f"{workload}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.project = project.generate(seed, PROJECT_FILES[workload])
        project.write(self.project, self.dir)
        self.manifest = self.dir / "manifest.json"
        self.out = self.dir / "out"
        self.logs = self.dir / "logs"
        self.logs.mkdir()
        # ckt runs as installed code would: bytecode cached, stdout buffered
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.env = env

    def child(self, argv: list[str], log: str, timeout: float = CHILD_TIMEOUT) -> Proc:
        """Run one process to its end.  Every hostspeed.PROBE_EVERY seconds
        it is stopped (SIGSTOP) while this process probes the host, so the
        probe neither competes with it nor adds to its memory; the host is
        also probed right before and after it.  The process writes its
        peak memory in MB to the file `log`.peak (ckt_child.py)."""
        out_path = self.logs / log
        points, stops = [(time.monotonic(), hostspeed.probe())], []
        with open(out_path, "wb") as out, open(f"{out_path}.err", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=self.dir)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    ready, _, _ = select.select([pidfd], [], [], hostspeed.PROBE_EVERY)
                    stopped = time.monotonic()
                    if not ready:  # an exited process is only reaped
                        os.kill(proc.pid, signal.SIGSTOP)
                    _, status = os.waitpid(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):
                        break
                    points.append((time.monotonic(), hostspeed.probe()))
                    stops.append((stopped, time.monotonic()))
                    os.kill(proc.pid, signal.SIGCONT)
                end = time.monotonic()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timeline = Timeline([*points, (time.monotonic(), hostspeed.probe())], stops)
        wall, ref_s = timeline.span(start, end)
        peak = Path(f"{out_path}.peak")  # a process killed before its end leaves none
        peak_mb = float(peak.read_text(encoding="ascii")) if peak.exists() else 0.0
        return Proc(proc.returncode, start, wall, ref_s, peak_mb, out_path, timeline)

    def ckt(self, *args: str, log: str, timeout: float = CHILD_TIMEOUT) -> Proc:
        return self.child([sys.executable, str(BENCH / "ckt_child.py"),
                           str(self.logs / f"{log}.peak"), *args], log, timeout)

    def build(self, log: str) -> Proc:
        return self.ckt("build", "--manifest", str(self.manifest), log=log)

    def setup_builds(self, count: int) -> list[Proc]:
        """Build the graph `count` times, each time without the out/ tree of
        the build before; every build must succeed and leave a
        byte-identical out/ tree."""
        procs, digests = [], set()
        for n in range(count):
            shutil.rmtree(self.out, ignore_errors=True)
            proc = self.build(f"setup{n}.out")
            if proc.code != 0:
                raise SetupError(f"set-up build exited {proc.code}: "
                                 + Path(f"{proc.out}.err").read_text(errors="replace")[-2000:])
            procs.append(proc)
            digests.add(reference.tree_digest(self.out))
        if len(digests) != 1:
            raise SetupError("set-up builds left different out/ trees")
        return procs

    def reference_graph(self, run: Run) -> tuple[reference.PersistedGraph, bool]:
        """The built graph as plain data, and whether it holds the ground truth."""
        graph = reference.PersistedGraph(self.out)
        problems = reference.check_build(graph, self.project.truth)
        run.problems.extend(problems)
        return graph, not problems


def medians(procs: list[Proc]) -> tuple[float, float]:
    """Median reference-host and raw wall time of some processes."""
    return (statistics.median(p.ref_s for p in procs), statistics.median(p.wall for p in procs))


def rate(ref: list[float], raw: list[float]) -> tuple[float, float]:
    """Operations per second of busy time, on the reference host and raw."""
    return len(ref) / sum(ref), len(raw) / sum(raw)


def pass_time(mix: list, latencies: list[float]) -> float:
    """One pass over the mix, in which query n is mix[n % len(mix)]: the sum
    of each query's median latency."""
    per_query: dict[int, list[float]] = {}
    for n, wall in enumerate(latencies):
        per_query.setdefault(n % len(mix), []).append(wall)
    return sum(statistics.median(v) for v in per_query.values())


def report_queries(run: Run, mix: list, latencies: list[float]) -> None:
    """Raw latency figures of a query run."""
    run.show("query_p50_s", statistics.median(latencies), "s", f"n={len(latencies)}")
    if len(latencies) > 1:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        above = sum(1 for x in latencies if x > p90)
        run.show("query_p90_s", p90, "s", f"{above} samples above p90")
    for kind in ("select", "template", "freeform"):
        mine = [x for n, x in enumerate(latencies) if mix[n % len(mix)].kind == kind]
        if mine:
            run.show(f"{kind}_p50_s", statistics.median(mine), "s", f"n={len(mine)}")


def check_coverage(run: Run, seen: set[str]) -> None:
    missing = [kind for kind in reference.RULE_KINDS if kind not in seen]
    run.show("alert kinds seen", " ".join(sorted(seen)) or "none")
    if missing:
        run.problems.append(f"rule coverage: the mix never raised {', '.join(missing)}")


def outcome_problems(parse, text: str, item, expected) -> list[str]:
    try:
        outcome = parse(text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{item.text!r}: unreadable output: {exc}"], set()
    return reference.check_answer(item, outcome, expected), set(outcome.alerts)


# -- untraced workloads: ckt as separate processes -------------------------


def plain_build(ws: Workspace, seconds: float, run: Run) -> None:
    setups = ws.setup_builds(SETUP_BUILDS["build-200"])
    digest = reference.tree_digest(ws.out)
    _, complete = ws.reference_graph(run)
    procs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        proc = ws.build(f"build{len(procs)}.out")
        problems = [] if proc.code == 0 else [f"build exited {proc.code}"]
        if reference.tree_digest(ws.out) != digest:
            problems.append("out/ tree differs from the first build's")
        elif not complete:
            problems.append("out/ tree misses ground truth")
        run.op_result(problems)
        procs.append(proc)
    run.metrics.update(graph_mb=reference.tree_mb(ws.out),
                       peak_rss_mb=max(p.peak_mb for p in procs))
    run.show("build_s", medians(procs)[1], "s", f"median of {len(procs)} builds")
    report(run, setup_s=medians(setups), pass_s=medians(procs),
           ops_per_s=rate([p.ref_s for p in procs], [p.wall for p in procs]))


def plain_query_cold(ws: Workspace, seconds: float, run: Run) -> None:
    setups = ws.setup_builds(SETUP_BUILDS["query-cold"])
    graph, _ = ws.reference_graph(run)
    mix = ws.project.mix
    expected = [graph.answer(item.query) for item in mix]
    ops = []
    start = time.perf_counter()
    # a run asks every query of the mix at least once, so that the rule
    # coverage check sees all of them on a slow host too
    while time.perf_counter() - start < seconds or len(ops) < len(mix):
        n = len(ops)
        item = mix[n % len(mix)]
        ops.append(ws.ckt("query", "--graph", str(ws.out), "--format", "records", item.text,
                          log=f"q{n}.out"))
    seen: set[str] = set()
    for n, proc in enumerate(ops):
        item = mix[n % len(mix)]
        problems, kinds = outcome_problems(
            lambda text: reference.parse_records(text, item.query.select),
            proc.out.read_text(encoding="utf-8"), item, expected[n % len(mix)])
        if proc.code != 0:
            problems.append(f"{item.text!r}: exit code {proc.code}")
        seen |= kinds
        run.op_result(problems)
    ref, raw = [p.ref_s for p in ops], [p.wall for p in ops]
    run.metrics.update(graph_mb=reference.tree_mb(ws.out),
                       peak_rss_mb=max(p.peak_mb for p in ops))
    run.show("build_s", medians(setups)[1], "s",
             f"median of {len(setups)} builds of the query graph; setup_s is this")
    report(run, setup_s=medians(setups), pass_s=(pass_time(mix, ref), pass_time(mix, raw)),
           ops_per_s=rate(ref, raw))
    report_queries(run, mix, raw)
    check_coverage(run, seen)


def plain_repl_warm(ws: Workspace, seconds: float, run: Run) -> None:
    setups = ws.setup_builds(SETUP_BUILDS["repl-warm"])
    graph, _ = ws.reference_graph(run)
    mix = ws.project.mix
    expected = [graph.answer(item.query) for item in mix]
    mix_path, times_path = ws.dir / "mix.txt", ws.dir / "times.json"
    mix_path.write_text("".join(item.text + "\n" for item in mix), encoding="utf-8")
    proc = ws.child(
        [sys.executable, str(BENCH / "repl_child.py"), str(SRC), str(ws.out), str(mix_path),
         str(seconds), str(times_path), str(ws.logs / "repl.out.peak")], "repl.out",
        timeout=seconds + CHILD_TIMEOUT)
    if proc.code != 0:
        raise SetupError(f"repl session exited {proc.code}: "
                         + Path(f"{proc.out}.err").read_text(errors="replace")[-2000:])
    times = json.loads(times_path.read_text())
    answers = split_marked(proc.out.read_text(encoding="utf-8"))
    spans = [proc.timeline.span(begin, end) for begin, end in zip(times, times[1:])]
    latencies, ref = [raw for raw, _ in spans], [scaled for _, scaled in spans]
    seen: set[str] = set()
    for n in range(len(latencies)):
        item = mix[n % len(mix)]
        problems, kinds = outcome_problems(
            lambda lines: reference.parse_table(lines, item.query.select),
            answers.get(n, []), item, expected[n % len(mix)])
        seen |= kinds
        run.op_result(problems)
    build_ref, build_s = medians(setups)
    load, load_ref = proc.timeline.span(proc.start, times[0])
    run.metrics.update(graph_mb=reference.tree_mb(ws.out), peak_rss_mb=proc.peak_mb)
    run.show("build_s", build_s, "s",
             f"median of {len(setups)} builds; setup_s adds the REPL load, {load:.4f} s")
    report(run, setup_s=(build_ref + load_ref, build_s + load),
           pass_s=(pass_time(mix, ref), pass_time(mix, latencies)), ops_per_s=rate(ref, latencies))
    report_queries(run, mix, latencies)
    check_coverage(run, seen)


def split_marked(text: str) -> dict[int, list[str]]:
    """REPL output cut at the marker lines the feed writes before each query."""
    answers: dict[int, list[str]] = {}
    current: list[str] = []
    for line in text.split("\n"):  # not splitlines(): it also splits at MARK
        if line.startswith(MARK):
            current = answers.setdefault(int(line[len(MARK):]), [])
        else:
            current.append(line)
    return answers


# -- traced workloads: ckt in this process ---------------------------------


def quietly(fn, *args):
    """Call fn with stdout and stderr captured; returns (result, stdout).
    An exception gives result 1, the exit code the CLI process would have."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            result = fn(*args)
        except Exception:  # a crash is a failed operation
            result = 1
    return result, buf.getvalue()


def traced_query(ws, cli, tracer, item, expected, traced, run, seen) -> float:
    argv = ["query", "--graph", str(ws.out), "--format", "records", item.text]
    with tracer.op("query", traced):
        code, text = quietly(cli.main, argv)
    problems, kinds = outcome_problems(
        lambda t: reference.parse_records(t, item.query.select), text, item, expected)
    if code != 0:
        problems.append(f"{item.text!r}: exit code {code}")
    seen |= kinds
    run.op_result(problems)
    return tracer.ops[-1][3] - tracer.ops[-1][2]


def traced_build(ws, cli, tracer, traced: bool) -> tuple[int, float]:
    with tracer.op("build", traced):
        code, _ = quietly(cli.main, ["build", "--manifest", str(ws.manifest)])
    return code, tracer.ops[-1][3] - tracer.ops[-1][2]


def trace_workload(workload: str, ws: Workspace, seconds: float, run: Run) -> None:
    sys.path.insert(0, str(SRC))
    from ckt import cli

    tracer = Tracer()
    code, _ = traced_build(ws, cli, tracer, True)  # set-up, traced for the build layers
    if code != 0:
        raise SetupError(f"set-up build exited {code}")
    graph, complete = ws.reference_graph(run)
    mix = ws.project.mix
    expected = [graph.answer(item.query) for item in mix]
    seen: set[str] = set()
    pairs: list[tuple[float, float]] = []  # (traced, untraced) wall of the same op
    start = time.perf_counter()
    if workload == "build-200":
        digest = reference.tree_digest(ws.out)
        while time.perf_counter() - start < seconds:
            walls = {}
            for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
                code, walls[traced] = traced_build(ws, cli, tracer, traced)
                ok = code == 0 and complete and reference.tree_digest(ws.out) == digest
                run.op_result([] if ok else ["build failed, changed out/ or misses ground truth"])
            pairs.append((walls[True], walls[False]))
        # a few cold queries on the 200-file graph, so the query layers
        # report on this workload too; they are not part of the overhead
        probe = [next(i for i in mix if i.kind == "select"),
                 next(i for i in mix if i.kind == "freeform")]
        probe += [next(i for i in mix if i.kind == "template" and i.template == name)
                  for name in project.TEMPLATES]
        for item in probe:
            traced_query(ws, cli, tracer, item, expected[mix.index(item)], True, run, seen)
    elif workload == "query-cold":
        while time.perf_counter() - start < seconds:
            n = len(pairs)
            walls = {}
            for traced in ((False, True) if n % 2 == 0 else (True, False)):
                walls[traced] = traced_query(ws, cli, tracer, mix[n % len(mix)],
                                             expected[n % len(mix)], traced, run, seen)
            pairs.append((walls[True], walls[False]))
        check_coverage(run, seen)
    else:
        out = io.StringIO()
        lines = [item.text for item in mix for _ in range(2)]

        def on_read(n: int, done: bool) -> None:
            tracer.end_op()
            if not done:  # each query runs twice in a row, traced first on odd pairs
                tracer.begin_op("query", (n % 2 == 1) == ((n // 2) % 2 == 0))

        tracer.begin_op("repl-load", True)
        feed = Feed(lines, seconds, out, on_read, multiple=2)
        with contextlib.redirect_stderr(io.StringIO()):
            cli.cmd_repl(ws.out, stdin=feed, stdout=out)
        answers = split_marked(out.getvalue())
        for n in range(len(feed.times) - 1):
            item = mix[(n // 2) % len(mix)]
            problems, kinds = outcome_problems(
                lambda ls: reference.parse_table(ls, item.query.select),
                answers.get(n, []), item, expected[(n // 2) % len(mix)])
            seen |= kinds
            run.op_result(problems)
        queries = [op for op in tracer.ops if op[0] == "query"]
        for a, b in zip(queries[::2], queries[1::2]):
            walls = {a[1]: a[3] - a[2], b[1]: b[3] - b[2]}
            pairs.append((walls[True], walls[False]))
        check_coverage(run, seen)

    spans_path = WORK / f"spans-{workload}-{ws.seed}.jsonl"
    tracer.dump(spans_path)
    run.lines.append(f"  spans: {spans_path.relative_to(ROOT)}")
    layers = tracer.layer_metrics()
    layers["trace.overhead"] = sum(t for t, _ in pairs) / sum(u for _, u in pairs)
    run.metrics.update(layers)
    for name, value in layers.items():
        run.show(name, value)
    wall, covered, rescans = tracer.build_shares(["concepts.features_s", "cli.build_self_s"])
    run.show("traced build wall", wall, "s", f"{covered:.1%} covered by layer spans")
    run.show("features_s + build_self_s share", rescans, "", "of traced build wall time")
    run.lines.append("  note: ckt runs in this process, so interpreter start is not included")


# -- entry point -------------------------------------------------------------

PLAIN = {"build-200": plain_build, "query-cold": plain_query_cold, "repl-warm": plain_repl_warm}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAIN))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ckt" / "cli.py").is_file():
        print(f"error: no ckt sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # A stopped ckt process must not outlive the benchmark: on SIGTERM
    # unwind, so that Workspace.child kills the process it waits for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The benchmark and every process it starts run on one CPU: the two CPUs
    # of a shared host often differ in speed at the same moment, and a probe
    # of the host (hostspeed.py) must see the CPU that ckt runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ws = Workspace(args.workload, args.seed)
    run = Run()
    try:
        if args.trace:
            trace_workload(args.workload, ws, args.seconds, run)
        else:
            PLAIN[args.workload](ws, args.seconds, run)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ws.dir, ignore_errors=True)

    if not args.trace:
        run.show("graph_mb", run.metrics["graph_mb"], "MB", "size of out/")
        run.show("peak_rss_mb", run.metrics["peak_rss_mb"], "MB", "largest timed ckt process")
    run.show("fail_ratio", run.failed / max(run.attempted, 1), "", f"{run.failed}/{run.attempted}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({PROJECT_FILES[args.workload]} files, {len(ws.project.mix)}-query mix)")
    for line in run.lines:
        print(line)
    for problem in run.problems[:20]:
        print(f"  FAILED: {problem}")
    metrics = {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
