"""The names the benchmark in ``perfbench/`` reads from ``relayrates``.

A change that removes or renames one of them breaks ``perfbench/run.py``
(``--trace 1`` or a workload) while every other test still passes, so they
are checked here. ``perfbench/`` is read as source with ``ast`` and never
imported: importing its worker runs its imports and starts its clock.
"""

import ast
import importlib
import os
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import _cpus, _rebind

import relayrates
import relayrates.cli
import relayrates.optimize
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
def test_each_traced_rate_alias_is_rate_bit_for_bit(monkeypatch, scheme, name):
    # point times the aliases and the sweeps call rate, so both must give one value
    _cpus(monkeypatch, 2)
    # distinct gains, so each point of the curve evaluates its own parts
    cfgs = [relayrates.SystemConfig(m=50, p_s=60.0 + i, p_r=40.0, delta_s=0.1, delta_r=0.1,
                                    scheme=relayrates.Scheme(scheme)) for i in range(4)]
    stats = relayrates.ChannelStats(1.0, 4.0, 4.0, 1.0)
    specs = [relayrates.ExpectationSpec(dims=3, samples=2000, seed=3)]
    if scheme != "af":
        specs.append(relayrates.ExpectationSpec(dims=2, method=relayrates.Method.GAUSS_LAGUERRE,
                                                nodes=24))
    for spec in specs:
        curve = relayrates.rates.rate_curve(cfgs, stats, spec)
        for cfg, shared in zip(cfgs, curve, strict=True):
            alias = getattr(relayrates, name)(cfg, stats, spec)
            # standalone, and from a curve's shared draw on each of its kernel threads
            for direct in (relayrates.rates.rate(cfg, stats, spec), shared):
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


def _worker_sweep_spec() -> dict:
    """The keywords of the one ``ExpectationSpec`` that ``run_sweep`` hands ``joint_allocation``."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    run_sweep = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "run_sweep")
    calls = [node for node in ast.walk(run_sweep) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "ExpectationSpec"]
    assert len(calls) == 1 and not calls[0].args
    return {keyword.arg: keyword.value for keyword in calls[0].keywords}


def test_sweep_workload_curves_and_joint_allocations_share_one_spec(monkeypatch, tmp_path,
                                                                    capsys):
    # the sweep workload's joint allocations reuse the CLI sweeps' draws only if
    # both build one spec: dims and samples as literals, the seed the CLI is given
    keywords = _worker_sweep_spec()
    assert set(keywords) == {"dims", "samples", "seed"}
    assert isinstance(keywords["seed"], ast.Name) and keywords["seed"].id == "seed"
    worker_spec = relayrates.ExpectationSpec(dims=ast.literal_eval(keywords["dims"]),
                                             samples=ast.literal_eval(keywords["samples"]),
                                             seed=11)
    specs = []
    original = relayrates.rates.DrawSet

    def recorded(spec):
        specs.append(spec)
        return original(spec)

    monkeypatch.setattr(relayrates.rates, "DrawSet", recorded)
    presets = sorted({name for by_scheme in _literal("inputs", "SWEEP_PRESETS").values()
                      for name in by_scheme.values()})
    for preset in presets:
        code = relayrates.cli.main(["sweep-theta", "--preset", preset, "--curve", "1",
                                    "--seed", "11", "--out", str(tmp_path / f"{preset}.csv")])
        assert code == 0
    capsys.readouterr()
    # one set per kernel thread of each 101-point curve
    sets = relayrates.rates._worker_count(worker_spec.samples, 101)
    assert specs == [worker_spec] * (sets * len(presets))


def test_draw_sets_reach_the_draws_through_their_traced_binding(monkeypatch):
    # the tracer swaps relayrates.rates.exp_draws, so a set must look it up when it draws
    calls = []
    original = relayrates.rates.exp_draws

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(relayrates.rates, "_last_draws", None)
    monkeypatch.setattr(relayrates.rates, "exp_draws", counted)
    spec = relayrates.ExpectationSpec(dims=3, samples=200, seed=1)
    relayrates.rates.DrawSet(spec)
    relayrates.rates.DrawSet(spec)
    assert sorted(calls) == [(1, tag, 200) for tag in range(3)]


def _count_traced(monkeypatch, originals: dict):
    """Wrap each of ``originals`` in every binding the package holds.

    Returns the list of names its wrappers saw called, from any thread, and a
    profile hook with the Counter it fills from the thread it is set on.
    """
    bound, profiled = [], Counter()  # list.append is atomic across threads

    def counted(name, original):
        def wrapper(*args, **kwargs):
            bound.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name, original in originals.items():
        _rebind(monkeypatch, original, counted(name, original))
    codes = {original.__code__: name for name, original in originals.items()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            profiled[codes[frame.f_code]] += 1

    return bound, profiled, profile


def test_traced_names_run_only_on_the_callers_thread(monkeypatch, tmp_path, capsys):
    # perfbench's Tracer keeps one call stack and its CallCounter hooks only the
    # thread that enters it (sys.setprofile): a traced name that ran on a kernel
    # thread would be counted by its wrapper but not by the hook. Bindings
    # wrapped here count calls from every thread; a main-thread profile hook
    # must see as many.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(relayrates.rates, "_last_draws", None)
    originals = {"snr_gain_g_coefficient": relayrates.rates.snr_gain_g_coefficient,
                 "exp_draws": relayrates.rates.exp_draws,
                 "optimal_delta_r": relayrates.optimize.optimal_delta_r}
    bound, profiled, profile = _count_traced(monkeypatch, originals)

    preset = relayrates.cli.PRESETS["fig2"]
    stats = relayrates.ChannelStats(*preset.sigma_triples[0], n0=preset.params["n0"])
    spec = relayrates.ExpectationSpec(dims=3, samples=100_000, seed=0)
    sys.setprofile(profile)
    try:
        code = relayrates.cli.main(["sweep-theta", "--preset", "fig2", "--curve", "1",
                                    "--out", str(tmp_path / "fig2.csv")])
        relayrates.joint_allocation(preset.params["p"], stats, preset.params["m"],
                                    relayrates.Scheme.AF, spec, theta_step=0.1)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == 0
    bound = Counter(bound)
    assert bound["exp_draws"] == 3 and bound["optimal_delta_r"] > 0
    assert bound["snr_gain_g_coefficient"] > 0
    assert profiled == bound


def test_verify_runs_traced_names_only_on_the_callers_thread(monkeypatch, capsys):
    # as above, for verify at a size whose oracle stages thread: every traced name is
    # wrapped and a main-thread profile hook must count its calls too. perfbench also
    # compares the estimates it records across repetitions, so two runs must record
    # the same estimates in the same order.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    originals = {name: getattr(importlib.import_module(f"relayrates.{module}"), name)
                 for module, name in _literal("tracer", "TRACED")}
    bound, profiled, profile = _count_traced(monkeypatch, originals)

    records, runs = [], []
    for name in _literal("worker", "VERIFY_ESTIMATES"):  # as perfbench's worker records them
        def recorded(*args, _name=name, _fn=getattr(relayrates.cli, name), **kwargs):
            result = _fn(*args, **kwargs)
            records.append((_name, result))
            return result
        monkeypatch.setattr(relayrates.cli, name, recorded)
    for _ in range(2):
        sys.setprofile(profile)
        try:
            code = relayrates.cli.main(["verify", "--samples", "40000"])
        finally:
            sys.setprofile(None)
        assert code == 0
        runs.append(records[:])
        records.clear()
    capsys.readouterr()
    bound = Counter(bound)
    assert bound["vector_channel_samples"] == bound["logdet_integrand"] == 2 * 10
    assert bound["simulate_training_quality"] == 2 * 12
    assert profiled == bound
    assert [name for name, _ in runs[0]] == [name for name, _ in runs[1]]
    assert runs[0] == runs[1] and len(runs[0]) == 12 + 5 + 5
