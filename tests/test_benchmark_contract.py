"""The names the benchmark in ``perfbench/`` reads from ``relayrates``.

A change that removes or renames one of them breaks ``perfbench/run.py``
(``--trace 1`` or a workload) while every other test still passes, so they
are checked here. ``perfbench/`` is read as source with ``ast`` and never
imported: importing its worker runs its imports and starts its clock.
"""

import ast
import importlib
from pathlib import Path

import pytest

import relayrates
import relayrates.cli
import relayrates.oracle

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


def test_traced_functions_have_distinct_code():
    # the tracer's CallCounter keys on __code__: two traced names that share a code
    # object, such as closures from one factory, would make every --trace run incorrect
    codes = [getattr(importlib.import_module(f"relayrates.{module}"), name).__code__
             for module, name in _literal("tracer", "TRACED")]
    assert len(set(codes)) == len(codes)


@pytest.mark.parametrize("scheme, name", sorted(_literal("worker", "_RATE_FN").items()))
def test_each_traced_rate_alias_is_rate_bit_for_bit(scheme, name):
    # point times the aliases and the sweeps call rate, so both must give one value
    cfg = relayrates.SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1,
                                  scheme=relayrates.Scheme(scheme))
    stats = relayrates.ChannelStats(1.0, 4.0, 4.0, 1.0)
    mc = relayrates.ExpectationSpec(dims=3, samples=2000, seed=3)
    cases = [(mc, None), (mc, relayrates.rates.DrawSet(mc))]
    if scheme != "af":
        cases.append((relayrates.ExpectationSpec(dims=2, method=relayrates.Method.GAUSS_LAGUERRE,
                                                 nodes=24), None))
    for spec, draws in cases:
        alias = getattr(relayrates, name)(cfg, stats, spec, draws=draws)
        direct = relayrates.rates.rate(cfg, stats, spec, draws=draws)
        assert (alias.value.hex(), alias.std_error.hex()) == (direct.value.hex(),
                                                              direct.std_error.hex())
        assert alias == direct and (alias.parts is None) == (scheme == "af")


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


def test_verify_reaches_the_oracle_kernels_through_their_module(monkeypatch, capsys):
    # the tracer swaps the bindings relayrates.oracle holds, so verify must call
    # the kernels through them: af_rate_logdet and max_identity_gap, 5 configs each
    calls = {"vector_channel_samples": 0, "logdet_integrand": 0}

    def counted(name):
        original = getattr(relayrates.oracle, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(relayrates.oracle, name, counted(name))
    relayrates.cli.main(["verify", "--samples", "2000"])
    capsys.readouterr()
    assert calls == {"vector_channel_samples": 10, "logdet_integrand": 10}


@pytest.mark.parametrize("scheme", list(relayrates.Scheme))
def test_rates_reach_the_gain_formula_through_its_traced_binding(gain_calls, scheme):
    # one call per link: sd, sr and rd
    cfg = relayrates.SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1,
                                  scheme=scheme)
    spec = relayrates.ExpectationSpec(dims=3, samples=200, seed=1)
    relayrates.rates.rate(cfg, relayrates.ChannelStats(1.0, 4.0, 4.0, 1.0), spec)
    assert len(gain_calls) == 3


def test_verify_reaches_the_gain_formula_through_its_traced_binding(gain_calls, capsys):
    # 5 af_rate calls of 3 links each, and 20 grid searches of the relay fraction
    relayrates.cli.main(["verify", "--samples", "2000"])
    capsys.readouterr()
    assert len(gain_calls) == 15 + 20
