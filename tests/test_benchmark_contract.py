"""The names the benchmark in ``perfbench/`` reads from ``relayrates``.

A change that removes or renames one of them breaks ``perfbench/run.py``
(``--trace 1`` or a workload) while every other test still passes, so they
are checked here. ``perfbench/`` is read as source with ``ast`` and never
imported: importing its worker runs its imports and starts its clock.
"""

import ast
import importlib
from pathlib import Path

import relayrates
import relayrates.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _literal(module: str, name: str):
    """The literal value bound to ``name`` at the top level of ``perfbench/<module>.py``."""
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{module}.py binds no {name}")


def test_traced_functions_exist():
    # the tracer wraps each one and counts calls of its code object
    for module, name in _literal("tracer", "TRACED"):
        fn = getattr(importlib.import_module(f"relayrates.{module}"), name, None)
        assert hasattr(fn, "__code__"), f"relayrates.{module}.{name}"


def test_worker_names_are_bound():
    # verify's estimators are wrapped where cli binds them; point calls the
    # rate functions through the package
    for name in _literal("worker", "VERIFY_ESTIMATES"):
        assert callable(getattr(relayrates.cli, name, None)), f"relayrates.cli.{name}"
    for name in _literal("worker", "_RATE_FN").values():
        assert callable(getattr(relayrates, name, None)), f"relayrates.{name}"


def test_presets_carry_what_the_sweep_workload_reads():
    for name, preset in relayrates.cli.PRESETS.items():
        assert isinstance(preset.params, dict) and isinstance(preset.sigma_triples, tuple), name
    curves = _literal("inputs", "SWEEP_CURVES")
    for by_scheme in _literal("inputs", "SWEEP_PRESETS").values():
        for scheme, name in by_scheme.items():
            preset = relayrates.cli.PRESETS[name]
            assert preset.command == "sweep-theta" and preset.params["scheme"] == scheme
            assert {"p", "m", "n0"} <= set(preset.params)
            assert len(preset.sigma_triples) >= curves
