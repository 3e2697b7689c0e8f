"""Seeded synthetic C project for the ckt benchmark, with its ground truth
and the query mix asked against it.

Everything here is a pure function of (seed, file count): the same
arguments give byte-identical files.  Nothing imports ckt, so the ground
truth and the query specs stay independent of the code under test.

Layout of one project directory::

    manifest.json  src/mNNN.c  commits.jsonl  bugs.jsonl  trace.jsonl
    ontology.jsonl  weights.json  templates.jsonl      (graph goes to out/)
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FUNCS_PER_FILE = 8
THREAD_FILE_EVERY = 8  # every 8th file has main() plus a pthread_create root

VERBS = ["scan", "merge", "pack", "load", "emit", "probe", "flush", "split",
         "parse", "store", "fetch", "sort", "drain", "grow", "trim", "seal"]
PURPOSES = ["walks the pending entries", "folds the running total",
            "keeps the slot table tidy", "hands work to the next stage",
            "refreshes the cached state", "checks the input bounds"]
ERRORS = ["checksum mismatch", "buffer overrun", "null pointer dereference",
          "deadlock on shutdown", "counter overflow", "stale cache entry",
          "lost wakeup", "double free"]
FIRST = ["Dana", "Elif", "Marco", "Priya", "Tomas", "Yuki", "Ines", "Kwame",
         "Lena", "Omar", "Sven", "Nadia"]
LAST = ["Reyes", "Okafor", "Lindqvist", "Haddad", "Moreau", "Tanaka",
        "Varga", "Castillo", "Brennan", "Sato", "Novak", "Quinn"]
N_DEVS = 8

# (term, synonyms, concept id).  The last three are domain concepts that the
# unsynchronized-globals template is asked about; the first three drive the
# strategy classifier.
ONTOLOGY = [
    ("greedy", ["greedy choice", "locally optimal"], "greedy"),
    ("divide and conquer", ["halve", "split the range"], "divide-and-conquer"),
    ("dynamic programming", ["memoize", "tabulation"], "dynamic-programming"),
    ("save button", ["save handler"], "save-button"),
    ("ring buffer", ["circular buffer"], "ring-buffer"),
    ("retry loop", ["backoff retry"], "retry-loop"),
]
DOMAIN_CONCEPTS = ["save-button", "ring-buffer", "retry-loop"]
WEIGHTS = {
    "classes": ["greedy", "divide-and-conquer", "dynamic-programming"],
    "tau": 0.5,
    "weights": {
        "greedy": {"f_kw_greedy": 0.6},
        "divide-and-conquer": {"f_rec": 0.4, "f_multi": 0.3,
                               "f_kw_divide-and-conquer": 0.5, "f_depth": 0.05},
        "dynamic-programming": {"f_kw_dynamic-programming": 0.6, "f_rec": 0.1},
    },
}


@dataclass(frozen=True)
class Query:
    """A conjunctive query as data: patterns are (s, p, o) with '?x'
    variables; filters are (var, op, literal) with op CONTAINS or AFTER."""

    select: tuple[str, ...]
    patterns: tuple[tuple[str, str, str], ...]
    filters: tuple[tuple[str, str, str], ...] = ()

    def text(self) -> str:
        where = " ; ".join(" ".join(p) for p in self.patterns)
        out = f"SELECT {' '.join(self.select)} WHERE {{ {where} }}"
        for var, op, literal in self.filters:
            out += f' FILTER {var} {op} "{literal}"'
        return out

    def bind(self, slot: str, value: str) -> Query:
        hole = f"${slot}"
        return Query(
            self.select,
            tuple(tuple(value if t == hole else t for t in p) for p in self.patterns),
            self.filters,
        )


# name -> (triggers, slot name, body).  Mirrors the shipped templates; the
# body is kept as data so the reference evaluator never parses query text.
TEMPLATES = {
    "algo-of-function": (
        ["which is the algorithm in function and what are the data structures used",
         "what algorithm does function use", "algorithm strategy of function"],
        "func",
        Query(("?related", "?concept"), (("$func", "?related", "?concept"),),
              (("?concept", "CONTAINS", "concept:"),)),
    ),
    "bugs-affecting-function": (
        ["function was effected by which bug numbers", "which bugs affect function",
         "bugs affecting function"],
        "func",
        Query(("?bug",), (("?bug", "touches", "$func"),), (("?bug", "CONTAINS", "bug:"),)),
    ),
    "fixes-by-developer": (
        ["how many bugs were fixed by developer", "bugs fixed by developer",
         "which bugs did developer fix"],
        "dev",
        Query(("?bug",), (("?commit", "fixes", "?bug"), ("?commit", "authored-by", "$dev"))),
    ),
    "unsynchronized-globals-of-concept": (
        ["how many unsynchronised global variables are used to implement the",
         "how many unsynchronized global variables are used to implement the",
         "unsynchronised global variables implementing"],
        "concept",
        Query(("?var",), (("?impl", "mentions", "$concept"), ("?impl", "writes", "?var")),
              (("?var", "CONTAINS", "scope=global"),)),
    ),
}

FREEFORM = {
    "algo-of-function": "what algorithm does function {} use",
    "bugs-affecting-function": "which bugs affect function {}",
    "fixes-by-developer": "bugs fixed by developer {}",
    "unsynchronized-globals-of-concept": "unsynchronised global variables implementing the {}",
}


@dataclass(frozen=True)
class MixItem:
    """One query of the mix: its text, its kind, the query the reference
    evaluates, and for template and free-form items the expected routing."""

    kind: str  # "select" | "template" | "freeform"
    text: str
    query: Query
    template: str | None = None
    args: tuple[tuple[str, str], ...] = ()


@dataclass
class Truth:
    """What the generator put in, for the build checks."""

    entities: set[str] = field(default_factory=set)
    calls: set[tuple[str, str]] = field(default_factory=set)
    writes: set[tuple[str, str]] = field(default_factory=set)
    thread_roots: set[str] = field(default_factory=set)
    fixes: set[tuple[str, str]] = field(default_factory=set)


@dataclass
class _Func:
    name: str
    fid: str
    start: int = 0
    end: int = 0
    callees: list[str] = field(default_factory=list)  # callee names


@dataclass
class Project:
    files: dict[str, str]  # relative path -> text
    truth: Truth
    mix: list[MixItem]


def _ts(day: int, minute: int) -> str:
    year, rest = divmod(day, 12 * 28)  # 28-day months keep every date valid
    month, mday = divmod(rest, 28)
    hour, mins = divmod(minute, 60)
    return f"{2014 + year:04d}-{month + 1:02d}-{mday + 1:02d}T{hour:02d}:{mins:02d}:00Z"


def generate(seed: int, n_files: int) -> Project:
    rng = random.Random(seed * 7919 + n_files)
    truth = Truth()
    files: dict[str, str] = {}
    mods = [f"m{i:03d}" for i in range(n_files)]
    paths = [f"src/{m}.c" for m in mods]
    verbs = [rng.sample(VERBS, FUNCS_PER_FILE) for _ in mods]
    names = [[f"{m}_{v}" for v in vs] for m, vs in zip(mods, verbs)]
    thread_files = set(range(0, n_files, THREAD_FILE_EVERY))

    # cross-file calls: the last function of each file calls the first of the
    # next file (a chain through the whole project), plus one random call.
    cross: dict[tuple[int, int], list[str]] = {}
    for i in range(n_files):
        nxt = (i + 1) % n_files
        cross.setdefault((i, FUNCS_PER_FILE - 1), []).append(names[nxt][0])
        j = rng.randrange(n_files)
        if j != i:
            k = rng.randrange(1, FUNCS_PER_FILE)
            cross.setdefault((i, rng.randrange(FUNCS_PER_FILE)), []).append(names[j][k])
    called_from_elsewhere = {name for targets in cross.values() for name in targets}

    funcs: list[list[_Func]] = []
    plans: list[dict] = []
    for i, (mod, path) in enumerate(zip(mods, paths)):
        g_race, g_lock, s_total = f"g{mod[1:]}_shared", f"g{mod[1:]}_guarded", f"s{mod[1:]}_total"
        threaded = i in thread_files
        worker = rng.randrange(2, 5)        # pthread_create target (thread files)
        locked = rng.randrange(5, 7)        # only accessor of the guarded global
        racers = sorted(rng.sample([k for k in range(worker, FUNCS_PER_FILE) if k != locked], 2))
        recursive = rng.choice([k for k in range(1, FUNCS_PER_FILE) if k not in racers + [locked]])
        plan = {"worker": worker, "locked": locked, "racers": racers,
                "recursive": recursive, "g_race": g_race, "g_lock": g_lock}
        plans.append(plan)
        lines = ["/* synthetic module: storage helpers for the pipeline */",
                 "#include <pthread.h>", "",
                 f"int {g_race} = 0; /* shared progress counter */",
                 f"int {g_lock} = 0;",
                 f"static int {s_total} = 0;", ""]
        file_funcs = []
        for k, name in enumerate(names[i]):
            fn = _Func(name, f"func:{path}#{name}")
            words = [name, rng.choice(PURPOSES)]
            if k == recursive:
                words.append(rng.choice(["divide and conquer over the range",
                                         "memoize partial sums", "halve the range"]))
            elif rng.random() < 0.25:
                words.append(rng.choice(["greedy choice of the next slot",
                                         "locally optimal pick", "tabulation of results"]))
            if threaded and k in racers:
                concept = DOMAIN_CONCEPTS[(i // THREAD_FILE_EVERY + racers.index(k)) % 3]
                words.append({"save-button": "save button handler",
                              "ring-buffer": "ring buffer refill",
                              "retry-loop": "retry loop step"}[concept])
            if rng.random() < 0.125:
                words.append(f"see {mod}_legacy_{verbs[i][k]} for details")  # stale
            lines.append("// " + "; ".join(words))
            fn.start = len(lines) + 1
            lines.append(f"int {name}(int n) {{")
            lines.append("    int acc = n;")
            if k == recursive:
                lines.append("    if (n < 2) return n;")
                lines.append(f"    acc = {name}(n / 2) + {name}(n / 2 - 1);")
                fn.callees.append(name)
            if k in racers:
                lines.append(f"    {g_race} = acc + {g_race};")
                truth.writes.add((fn.fid, f"var:{path}#{g_race}"))
            elif k == locked:
                lines.append(f"    {g_lock} = {g_lock} + acc;")
                truth.writes.add((fn.fid, f"var:{path}#{g_lock}"))
            else:
                lines.append(f"    acc = acc + {g_race};")
            if k % 3 == 0:
                lines.append(f"    {s_total}++;")
                truth.writes.add((fn.fid, f"var:{path}#{s_total}"))
            if k + 1 < FUNCS_PER_FILE:
                lines.append(f"    acc = {names[i][k + 1]}(acc);")
                fn.callees.append(names[i][k + 1])
            for target in cross.get((i, k), []):
                lines.append(f"    acc = acc + {target}(n);")
                fn.callees.append(target)
            lines.append("    return acc;")
            lines.append("}")
            fn.end = len(lines)
            lines.append("")
            file_funcs.append(fn)
        if threaded:
            main = _Func("main", f"func:{path}#main")
            lines.append("// entry point: start the worker, then run the chain")
            main.start = len(lines) + 1
            lines.append("int main(void) {")
            lines.append("    pthread_t tid;")
            lines.append(f"    pthread_create(&tid, 0, {names[i][worker]}, 0);")
            lines.append(f"    return {names[i][0]}(1);")
            lines.append("}")
            main.end = len(lines)
            main.callees = ["pthread_create", names[i][worker], names[i][0]]
            file_funcs.append(main)
            truth.thread_roots.add(f"func:{path}#{names[i][worker]}")
        files[path] = "\n".join(lines) + "\n"
        funcs.append(file_funcs)
        truth.entities.update({f"file:{path}", f"var:{path}#{g_race}",
                               f"var:{path}#{g_lock}", f"var:{path}#{s_total}"})
        for fn in file_funcs:
            truth.entities.add(fn.fid)
            for callee in fn.callees:  # unknown callees become per-file stubs
                truth.calls.add((fn.fid, f"func:{path}#{callee}"))
                truth.entities.add(f"func:{path}#{callee}")

    devs = _developers(rng)
    commits, bugs, bug_funcs = _history(rng, paths, funcs, devs, truth)
    trace = _trace(rng, paths, funcs, plans, thread_files)
    files["commits.jsonl"] = _jsonl([{"rec": "header", "version": 1, "source": "git"}] + commits)
    files["bugs.jsonl"] = _jsonl([{"rec": "header", "version": 1, "source": "tracker"}] + bugs)
    files["trace.jsonl"] = _jsonl(trace)
    files["ontology.jsonl"] = _jsonl(
        {"term": t, "synonyms": s, "concept": c} for t, s, c in ONTOLOGY)
    files["weights.json"] = json.dumps(WEIGHTS, indent=2, sort_keys=True) + "\n"
    files["templates.jsonl"] = _jsonl(
        {"name": name, "triggers": triggers, "slots": [{"name": slot, "type": "entity"}],
         "body": body.text()}
        for name, (triggers, slot, body) in TEMPLATES.items())
    files["manifest.json"] = json.dumps({
        "sources": [{"path": "src", "mode": "parse"}], "commits": "commits.jsonl",
        "bugs": "bugs.jsonl", "trace": "trace.jsonl", "ontology": "ontology.jsonl",
        "weights": "weights.json", "templates": "templates.jsonl", "out": "out",
    }, indent=2) + "\n"
    truth.entities.update(f"concept:{c}" for _, _, c in ONTOLOGY)

    # Free-form questions may only name entities whose label is unique: a
    # function called from another file also labels that file's stub.
    unique_funcs = [fn for file_funcs in funcs for fn in file_funcs
                    if fn.name != "main" and fn.name not in called_from_elsewhere]
    classified = [fn for i, ff in enumerate(funcs) for k, fn in enumerate(ff)
                  if k == plans[i]["recursive"] and fn in unique_funcs]
    buggy = [fn for fn in unique_funcs if fn.fid in bug_funcs]
    mix = _mix(rng, paths, names, devs, classified, buggy, thread_files)
    return Project(files, truth, mix)


def _developers(rng: random.Random) -> list[tuple[str, str]]:
    firsts = rng.sample(FIRST, N_DEVS)
    lasts = rng.sample(LAST, N_DEVS)
    return [(f"{f} {l}", f"{f.lower()}.{l.lower()}@example.com") for f, l in zip(firsts, lasts)]


def _history(rng, paths, funcs, devs, truth):
    n_files = len(paths)
    n_bugs = max(4, n_files // 4)
    n_commits = max(8, n_files // 2)
    bug_funcs: set[str] = set()
    bugs_spec = []
    for b in range(n_bugs):
        i = rng.randrange(n_files)
        fn = funcs[i][rng.randrange(FUNCS_PER_FILE)]
        error = f"{rng.choice(ERRORS)} in {fn.name}"
        bugs_spec.append((100 + b, i, fn, error))
        bug_funcs.add(fn.fid)
    fixed_by: dict[int, int] = {}
    fixers = rng.sample(range(1, n_commits), min(n_commits - 1, (n_bugs * 2) // 3))
    for (number, _, _, _), c in zip(bugs_spec, fixers):
        fixed_by[c] = number
    by_number = {spec[0]: spec for spec in bugs_spec}
    commits, dates = [], {}
    day = 0
    for c in range(n_commits):
        sha = _sha(rng)
        name, email = devs[c] if c < len(devs) else rng.choice(devs)
        day += rng.randrange(1, 9)
        stamp = _ts(day, rng.randrange(8 * 60, 18 * 60))
        if c == 0:
            changes = [{"path": p, "added": [[1, funcs[i][-1].end]], "removed": []}
                       for i, p in enumerate(paths)]
            summary = "initial import of the pipeline modules"
        elif c in fixed_by:
            number, i, fn, error = by_number[fixed_by[c]]
            changes = [{"path": paths[i], "added": [[fn.start + 1, fn.start + 2]],
                        "removed": [[fn.start + 1, fn.start + 1]]}]
            if rng.random() < 0.5:
                summary = f"fix bug#{number}: {error.split(' in ')[0]} in {fn.name}"
            else:
                summary = f"CR{number}: rework {fn.name} after review"
            truth.fixes.add((f"commit:{sha}", f"bug:tracker/{number}"))
            dates[number] = day
        else:
            i = rng.randrange(n_files)
            fn = funcs[i][rng.randrange(FUNCS_PER_FILE)]
            changes = [{"path": paths[i], "added": [[fn.start, fn.end]], "removed": []}]
            summary = f"tidy {fn.name} and its callers"
        commits.append({"id": sha, "author_name": name, "author_email": email,
                        "timestamp": stamp, "summary": summary, "changes": changes})
        truth.entities.update({f"commit:{sha}", f"dev:{email}"})
    bugs = []
    for number, i, fn, error in bugs_spec:
        fixed = number in dates
        opened_day = max(0, dates[number] - rng.randrange(5, 60)) if fixed else rng.randrange(day)
        doc = {"id": str(number), "tracker": "tracker", "title": error,
               "description": f"Seen under load in {paths[i]}."
                              + (f" Tracked as change request CR{number}." if fixed else ""),
               "status": "fixed" if fixed else "open",
               "opened": _ts(opened_day, 9 * 60),
               "closed": _ts(dates[number] + 1, 12 * 60) if fixed else None,
               "assignee": rng.choice(devs)[1], "error_strings": [error]}
        bugs.append(doc)
        truth.entities.add(f"bug:tracker/{number}")
    return commits, bugs, bug_funcs


def _sha(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(16))


def _trace(rng, paths, funcs, plans, thread_files):
    """Per thread file: main (tid 1) starts the worker on its own tid; both
    write the racy global unlocked and the guarded global under a lock.
    Other files contribute single-threaded enter/exit and read events."""
    events = []

    def ev(tid, kind, target):
        events.append({"seq": len(events) + 1, "tid": tid, "kind": kind, "target": target})

    next_tid = 2
    for i, path in enumerate(paths):
        plan, ff = plans[i], funcs[i]
        g_race, g_lock = f"var:{path}#{plan['g_race']}", f"var:{path}#{plan['g_lock']}"
        if i in thread_files:
            tid, lock = next_tid, f"lock_{i:03d}"
            next_tid += 1
            main, worker, locked = ff[-1].fid, ff[plan["worker"]].fid, ff[plan["locked"]].fid
            racer = ff[plan["racers"][0]].fid
            ev(1, "enter", main)
            ev(1, "thread_create", worker)
            ev(tid, "enter", worker)
            for t in (tid, 1):
                ev(t, "enter", racer)
                ev(t, "read", g_race)
                ev(t, "write", g_race)
                ev(t, "exit", racer)
                ev(t, "enter", locked)
                ev(t, "acquire", lock)
                ev(t, "write", g_lock)
                ev(t, "release", lock)
                ev(t, "exit", locked)
            ev(tid, "exit", worker)
            ev(1, "exit", main)
        rec = ff[plan["recursive"]].fid
        depth = rng.randrange(2, 5)
        for _ in range(depth):
            ev(1, "enter", rec)
        ev(1, "read", g_race)
        for _ in range(depth):
            ev(1, "exit", rec)
    return events


def _mix(rng, paths, names, devs, classified, buggy, thread_files):
    """36 queries: 12 SELECT, 12 @template, 12 free-form, shuffled."""
    mix: list[MixItem] = []
    n_files = len(paths)
    threaded = sorted(thread_files)

    def select(q: Query):
        mix.append(MixItem("select", q.text(), q))

    select(Query(("?f",), (("?file", "declares", "?f"),), (("?f", "CONTAINS", "func:"),)))
    select(Query(("?a", "?b"), (("?a", "calls", "?b"),)))
    select(Query(("?e", "?c"), (("?e", "documented-by", "?c"),), (("?c", "CONTAINS", "stale=true"),)))
    select(Query(("?f",), (("?f", "classified-as", "concept:divide-and-conquer"),)))
    select(Query(("?f",), (("concept:thread-root", "starts-thread", "?f"),)))
    select(Query(("?f", "?v"), (("?f", "guards", "?v"),)))
    select(Query(("?c", "?b"), (("?c", "fixes", "?b"),), (("?c", "AFTER", "2014-06-01T00:00:00Z"),)))
    for i in rng.sample(range(n_files), 2):
        select(Query(("?f",), ((f"file:{paths[i]}", "declares", "?f"),), (("?f", "CONTAINS", "func:"),)))
    i = rng.randrange(n_files)
    k = rng.randrange(1, FUNCS_PER_FILE)
    select(Query(("?a",), (("?a", "calls", f"func:{paths[i]}#{names[i][k]}"),)))
    for i in rng.sample(threaded, 2):  # the only shape whose alerts include mutex-advice
        select(Query(("?f", "?v"), ((f"file:{paths[i]}", "declares", "?v"), ("?f", "writes", "?v")),
                     (("?v", "CONTAINS", "scope=global"),)))

    picks = {
        "algo-of-function": [(fn.fid, fn.name) for fn in rng.sample(classified, 6)],
        "bugs-affecting-function": [(fn.fid, fn.name) for fn in rng.sample(buggy, 6)],
        "fixes-by-developer": [(f"dev:{email}", name.lower()) for name, email in rng.sample(devs, 6)],
        "unsynchronized-globals-of-concept": [
            (f"concept:{c}", term) for c in DOMAIN_CONCEPTS
            for term, _, cid in ONTOLOGY if cid == c] * 2,
    }
    for name, chosen in picks.items():
        _, slot, body = TEMPLATES[name]
        for n, (eid, label) in enumerate(chosen):
            query = body.bind(slot, eid)
            if n < 3:
                mix.append(MixItem("template", f"@{name}({eid})", query, name, ((slot, eid),)))
            else:
                mix.append(MixItem("freeform", FREEFORM[name].format(label), query,
                                   name, ((slot, eid),)))
    rng.shuffle(mix)
    return mix


def _jsonl(docs) -> str:
    return "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)


def write(project: Project, root: Path) -> None:
    for rel, text in sorted(project.files.items()):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
