"""The benchmark's tracer wraps noisegauge functions by name, and a traced
run stops when one of the names in its ``REQUIRED`` table is gone.  This
reads that table from ``perfbench/tracer.py`` (without importing or editing
it) so a refactor that would stop ``perfbench/run.py --trace 1`` fails here
first."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _required() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "REQUIRED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no REQUIRED table in {TRACER}")


@pytest.mark.parametrize("layer,names", sorted(_required().items()))
def test_required_names_are_defined(layer, names):
    module = importlib.import_module(f"noisegauge.{layer}")
    missing = [name for name in names
               if getattr(getattr(module, name, None), "__module__", None) != module.__name__]
    assert not missing, f"noisegauge.{layer} no longer defines {missing}"
