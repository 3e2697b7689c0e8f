"""The traced benchmark run (bench/spans.py) rebinds ckt functions and
methods by name; each one it lists must exist, or a traced run fails."""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# run from its source, so that no bytecode cache is written under bench/
spans = {"__name__": "bench_spans"}
exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans)


@pytest.mark.parametrize("module, attr", sorted(
    site for sites in spans["FUNCTIONS"].values() for site in sites))
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls, attr", sorted(spans["METHODS"].values()))
def test_traced_method_exists(module, cls, attr):
    assert callable(getattr(getattr(importlib.import_module(module), cls), attr, None))
