import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ckt.cli import cmd_build

FIXTURES = Path(__file__).parent / "fixtures"
SCENARIO = FIXTURES / "scenario"


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
