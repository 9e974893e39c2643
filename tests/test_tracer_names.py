"""The benchmark's tracer wraps noisegauge functions by name, and a traced
run stops when one of the names in its ``REQUIRED`` table is gone, or when a
result lacks a field its hooks read.  This reads both from
``perfbench/tracer.py`` (without importing or editing it) so a refactor that
would stop ``perfbench/run.py --trace 1`` fails here first."""

import ast
import dataclasses
import importlib
import typing
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


def _hook_fields() -> dict:
    """For each function the tracer hooks, the attributes its hook reads off
    the result: ``hooks`` in ``Tracer.install`` maps "layer.name" to
    ``self._on_...``, and those methods read ``result.<field>``."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    methods = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    fields = {}
    for node in ast.walk(methods["install"]):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "hooks" for t in node.targets):
            for key, value in zip(node.value.keys, node.value.values):
                fields[key.value] = sorted({
                    a.attr for a in ast.walk(methods[value.attr])
                    if isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name)
                    and a.value.id == "result"})
    return fields


def test_hooks_are_found():
    fields = _hook_fields()
    assert "evaluations" in fields["measures.mu_c_search"]
    assert {"cap", "n", "proven_divergent"} <= set(fields["measures.n_c"])
    assert "amendable" in fields["amend.search_filter"]


@pytest.mark.parametrize("qualname,fields", sorted(_hook_fields().items()))
def test_hooked_results_have_the_fields(qualname, fields):
    layer, name = qualname.split(".")
    fn = getattr(importlib.import_module(f"noisegauge.{layer}"), name)
    result_type = typing.get_type_hints(fn)["return"]
    have = {f.name for f in dataclasses.fields(result_type)} | set(dir(result_type))
    missing = [f for f in fields if f not in have]
    assert not missing, f"{result_type.__name__} no longer has {missing}, read by the tracer"
