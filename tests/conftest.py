import os
import shutil
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ckt.cli import cmd_build

FIXTURES = Path(__file__).parent / "fixtures"
SCENARIO = FIXTURES / "scenario"


def settle(*directories: Path) -> None:
    """Wait until a file made now is newer, by the file system's clock, than
    the mtime and ctime of every file of `directories`, so that a stamp
    made next is not racy."""
    newest = max(max(st.st_mtime_ns, st.st_ctime_ns)
                 for directory in directories for st in map(os.stat, directory.iterdir()))
    probe = directories[0].parent / ".clock"
    while True:
        probe.unlink(missing_ok=True)
        probe.write_bytes(b"")  # a new file, as a stamp's is
        if probe.stat().st_mtime_ns > newest:
            return
        time.sleep(0.002)


@pytest.fixture(scope="session", autouse=True)
def graph_cache_home(tmp_path_factory) -> Path:
    """XDG_CACHE_HOME, for this process and each one it starts, is a
    temporary directory, so no query of the suite writes to ~/.cache; the
    graph cache is its ckt directory."""
    home = tmp_path_factory.mktemp("xdg-cache")
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(home)
    yield home
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved


@pytest.fixture(scope="session")
def scenario_dir(tmp_path_factory) -> Path:
    """A built copy of the scenario project; the graph lives in <dir>/out."""
    target = tmp_path_factory.mktemp("scenario")
    work = target / "project"
    shutil.copytree(SCENARIO, work)
    assert cmd_build(work / "manifest.json") == 0
    return work


@pytest.fixture(scope="session")
def scenario_graph(scenario_dir):
    from ckt.graph import load_graph

    return load_graph(scenario_dir / "out")


@pytest.fixture(scope="session")
def scenario_trace(scenario_dir):
    from ckt.extraction.traces import load_trace

    with open(scenario_dir / "out" / "trace.jsonl", encoding="utf-8") as fh:
        return load_trace(fh)


@pytest.fixture(scope="session")
def scenario_registry(scenario_dir):
    from ckt.query.templates import load_registry

    return load_registry(str(scenario_dir / "out" / "templates.jsonl"))
