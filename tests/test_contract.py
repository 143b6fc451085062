"""The input contract of every public entry point of ``relayrates``.

``ROWS`` has one row per entry point: the callable, valid keyword arguments,
and for each checked argument its rule and the label its error must contain.
Every argument check of the package goes through ``check_real`` or
``check_int``, so a rejected value reads ``"<label> must be <rule>, got
<repr(value)>"`` on one line.

Properties:

* a bad value for one argument of a row (NaN, +-inf, a value just outside
  the range; for an integer argument also a non-integer and ``True``; for an
  even one also an odd integer) gives that one-line ValueError;
* log-uniform valid inputs of the closed forms give a finite result, or a
  one-line ValueError that names an input;
* every public callable has a row or a stated exemption.

The rate functions are left out of the valid-input property:
``f_combiner(1e200, 1e200)`` still overflows in ``x*y`` at finite gains, and
the overflow-free form moves the AF CSV bytes, so it stays with ROADMAP
item 5.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relayrates
from relayrates import (
    ChannelStats,
    EstimationQuality,
    ExpectationSpec,
    Method,
    PowerSplit,
    RateEstimate,
    Scheme,
    SystemConfig,
    closed_grid,
    data_symbol_energy,
    exp_draws,
    f_combiner,
    grid_argmax,
    joint_allocation,
    logdet_integrand,
    max_identity_gap,
    mmse_quality,
    optimal_delta_r,
    optimize_theta,
    simulate_training_quality,
    snr_gain_g,
    suboptimal_delta_s,
    theta_sweep,
    vector_channel_samples,
)
from relayrates.rates import MAX_NODES, MAX_SAMPLES


@dataclass(frozen=True)
class Real:
    """A finite real in [lo, hi], or (lo, hi] with ``open_lo``."""

    lo: float = 0.0
    hi: float = math.inf
    open_lo: bool = False


@dataclass(frozen=True)
class Int:
    """An integer (not a bool) in [lo, hi]; ``hi=None`` has no upper bound."""

    lo: int
    hi: int | None = None
    even: bool = False


NONNEG = Real()
POSITIVE = Real(open_lo=True)
FRACTION = Real(hi=1.0)
BLOCK = Int(6, 2**53, even=True)
KEY = Int(0, 2**64 - 1)

STATS = ChannelStats(1.0, 4.0, 4.0, 1.0)
CFG = SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1, scheme=Scheme.AF)
SPEC = ExpectationSpec(dims=3, samples=64, seed=1)
_, _, SIGNAL, NOISE_COV, _ = vector_channel_samples(CFG, STATS, seed=0, count=2)
SWEEP = dict(total_power=100.0, stats=STATS, m=50, delta_s=0.1, delta_r=0.1, scheme=Scheme.AF,
             spec=SPEC, grid_step=0.5)


@dataclass(frozen=True)
class Row:
    """An entry point, valid keyword arguments, and {argument: (rule, label)}."""

    call: object
    valid: dict
    rules: dict


ROWS = {
    "ChannelStats": Row(ChannelStats, dict(sigma_sd=1.0, sigma_sr=4.0, sigma_rd=4.0, n0=1.0),
                        {name: (POSITIVE, name) for name in ("sigma_sd", "sigma_sr",
                                                             "sigma_rd", "n0")}),
    "SystemConfig": Row(SystemConfig, dict(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1,
                                           scheme=Scheme.AF),
                        {"m": (BLOCK, "m"), "p_s": (NONNEG, "p_s"), "p_r": (NONNEG, "p_r"),
                         "delta_s": (FRACTION, "delta_s"), "delta_r": (FRACTION, "delta_r")}),
    "EstimationQuality": Row(EstimationQuality, dict(var_estimate=0.5, var_error=0.5),
                             {"var_estimate": (NONNEG, "var_estimate"),
                              "var_error": (NONNEG, "var_error")}),
    "mmse_quality": Row(mmse_quality, dict(sigma=1.0, delta=0.1, m=50, p=100.0, n0=1.0),
                        {"sigma": (NONNEG, "sigma"), "delta": (FRACTION, "delta"),
                         "m": (BLOCK, "m"), "p": (NONNEG, "p"), "n0": (POSITIVE, "n0")}),
    "data_symbol_energy": Row(data_symbol_energy, dict(delta=0.1, m=50, p=100.0),
                              {"delta": (FRACTION, "delta"), "m": (BLOCK, "m"),
                               "p": (NONNEG, "p")}),
    "ExpectationSpec": Row(ExpectationSpec, dict(dims=3, samples=100, seed=0, nodes=64),
                           {"dims": (Int(1, 3), "dims"),
                            "samples": (Int(1, MAX_SAMPLES), "samples"),
                            "seed": (KEY, "seed"), "nodes": (Int(8, MAX_NODES), "nodes")}),
    "RateEstimate": Row(RateEstimate, dict(value=1.0, std_error=0.1, samples=10,
                                           method=Method.MONTE_CARLO),
                        {"value": (NONNEG, "value"), "std_error": (NONNEG, "std_error")}),
    "closed_grid": Row(closed_grid, dict(lo=0.0, hi=1.0, step=0.25),
                       {"lo": (Real(-math.inf), "lo"), "hi": (Real(0.0, open_lo=True), "hi"),
                        "step": (POSITIVE, "step")}),
    "exp_draws": Row(exp_draws, dict(seed=0, tag=0, n=10),
                     {"seed": (KEY, "seed"), "tag": (KEY, "tag"),
                      "n": (Int(0, MAX_SAMPLES), "n")}),
    "snr_gain_g": Row(snr_gain_g, dict(a=0.1, b=100.0, c=1.0, n0=1.0, m=50, w_sq=1.0),
                      {"a": (FRACTION, "a"), "b": (NONNEG, "b"), "c": (NONNEG, "c"),
                       "n0": (POSITIVE, "n0"), "m": (BLOCK, "m"), "w_sq": (NONNEG, "w_sq")}),
    "f_combiner": Row(f_combiner, dict(x=1.0, y=2.0),
                      {"x": (NONNEG, "x"), "y": (NONNEG, "y")}),
    "PowerSplit": Row(PowerSplit, dict(total=100.0, theta=0.5),
                      {"total": (NONNEG, "total"), "theta": (FRACTION, "theta")}),
    "optimal_delta_r": Row(optimal_delta_r, dict(m=50, p=100.0, sigma=1.0, n0=1.0),
                           {"m": (BLOCK, "m"), "p": (POSITIVE, "p"),
                            "sigma": (POSITIVE, "sigma"), "n0": (POSITIVE, "n0")}),
    "suboptimal_delta_s": Row(suboptimal_delta_s, dict(m=50, p_s=100.0, stats=STATS),
                              {"m": (BLOCK, "m"), "p_s": (POSITIVE, "p")}),
    "theta_sweep": Row(theta_sweep, dict(SWEEP),
                       {"total_power": (NONNEG, "total"), "m": (BLOCK, "m"),
                        "delta_s": (FRACTION, "delta_s"), "delta_r": (FRACTION, "delta_r"),
                        "grid_step": (Real(0.0, 1.0, open_lo=True), "grid_step")}),
    "optimize_theta": Row(optimize_theta, dict(SWEEP, grid_step=0.1),
                          {"grid_step": (Real(0.0, 0.1, open_lo=True), "grid_step")}),
    "joint_allocation": Row(joint_allocation, dict(total_power=100.0, stats=STATS, m=50,
                                                   scheme=Scheme.AF, spec=SPEC, theta_step=0.5),
                            {"total_power": (POSITIVE, "total_power"), "m": (BLOCK, "m"),
                             "theta_step": (POSITIVE, "step")}),
    "simulate_training_quality": Row(simulate_training_quality,
                                     dict(sigma=1.0, delta=0.1, m=50, p=100.0, n0=1.0,
                                          trials=10, seed=0),
                                     {"sigma": (NONNEG, "sigma"), "delta": (FRACTION, "delta"),
                                      "m": (BLOCK, "m"), "p": (NONNEG, "p"),
                                      "n0": (POSITIVE, "n0"),
                                      "trials": (Int(1, MAX_SAMPLES), "trials"),
                                      "seed": (KEY, "seed")}),
    "vector_channel_samples": Row(vector_channel_samples, dict(cfg=CFG, stats=STATS, seed=0,
                                                               count=2),
                                  {"seed": (KEY, "seed"),
                                   "count": (Int(0, MAX_SAMPLES), "count")}),
    "max_identity_gap": Row(max_identity_gap, dict(cfg=CFG, stats=STATS, seed=0, count=2),
                            {"seed": (KEY, "seed"),
                             "count": (Int(0, MAX_SAMPLES), "count")}),
    "logdet_integrand": Row(logdet_integrand,
                            dict(signal_energy=10.0, a=SIGNAL, cov=NOISE_COV),
                            {"signal_energy": (NONNEG, "signal_energy")}),
    "grid_argmax": Row(grid_argmax, dict(objective=lambda x: -abs(x - 0.3), lo=0.0, hi=1.0,
                                         step=0.05),
                       {"lo": (Real(-math.inf), "lo"), "hi": (Real(0.0, open_lo=True), "hi"),
                        "step": (Real(0.0, 0.1, open_lo=True), "step")}),
}

EXEMPT = {
    "Scheme": "enum",
    "Method": "enum",
    "AllocationResult": "result type",
    "snr_gain_g_coefficient": "the formula every gain route evaluates: the rates at "
                              "scalars, verify's grid kernel on 10^4-point grids; "
                              "unvalidated by design, snr_gain_g is its checked form",
}
# Entry points whose only numbers arrive inside objects built (and checked) by
# the rows of SystemConfig, ChannelStats and ExpectationSpec.
for _name in ("af_rate", "df_repetition_rate", "df_parallel_rate", "af_rate_logdet",
              "expect_over_exponentials"):
    EXEMPT[_name] = "takes only checked objects and a callable"


def bad_values(rule) -> st.SearchStrategy:
    """Values that break ``rule``: non-finite, just outside, and the wrong kind."""
    options = [st.sampled_from([math.nan, math.inf, -math.inf])]
    if isinstance(rule, Real):
        if rule.lo > -math.inf:
            below = rule.lo if rule.open_lo else float(np.nextafter(rule.lo, -math.inf))
            options += [st.just(below), st.floats(max_value=below, allow_infinity=False)]
        if rule.hi < math.inf:
            above = float(np.nextafter(rule.hi, math.inf))
            options += [st.just(above), st.floats(min_value=above, allow_infinity=False)]
    else:
        top = rule.lo + 1000 if rule.hi is None else min(rule.hi, rule.lo + 1000)
        # integers stay near the range, so a broken check cannot ask for a huge allocation
        options += [st.just(rule.lo - 1), st.integers(rule.lo - 1000, rule.lo - 1), st.just(True),
                    st.just(float(rule.lo)), st.floats(rule.lo, top).filter(lambda v: v % 1)]
        if rule.hi is not None:  # just above, with the rule's parity
            options += [st.just(rule.hi + 1 + rule.even), st.integers(rule.hi + 1, rule.hi + 1000)]
        if rule.even:
            options.append(st.integers(rule.lo, top).map(lambda k: k | 1).filter(
                lambda k: rule.hi is None or k <= rule.hi))
    return st.one_of(options)


CASES = [(entry, arg) for entry, row in ROWS.items() for arg in row.rules]


@pytest.mark.parametrize("entry, arg", CASES, ids=[f"{e}-{a}" for e, a in CASES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bad_argument_is_a_one_line_error_naming_it(entry, arg, data):
    row = ROWS[entry]
    rule, label = row.rules[arg]
    value = data.draw(bad_values(rule), label=arg)
    with pytest.raises(ValueError) as excinfo:
        row.call(**{**row.valid, arg: value})
    message = str(excinfo.value)
    assert "\n" not in message
    assert f"{label} must be " in message and message.endswith(f", got {value!r}")


def test_valid_rows_pass():
    for row in ROWS.values():
        row.call(**row.valid)


def test_every_public_callable_has_a_row_or_an_exemption():
    public = {name for name, value in vars(relayrates).items()
              if not name.startswith("_") and callable(value)}
    assert not public - set(ROWS) - set(EXEMPT)
    assert not set(ROWS) & set(EXEMPT)


def log_uniform(lo: float = -300.0, hi: float = 300.0) -> st.SearchStrategy:
    return st.floats(lo, hi).map(lambda e: 10.0**e)


BLOCKS = st.floats(math.log10(3.0), 6.0).map(lambda e: 2 * int(10.0**e))
FRACTIONS = st.floats(0.0, 1.0)
CLOSED_FORMS = {
    "mmse_quality": (lambda q: (q.var_estimate, q.var_error),
                     dict(sigma=log_uniform(), delta=FRACTIONS, m=BLOCKS, p=log_uniform(),
                          n0=log_uniform())),
    "data_symbol_energy": (lambda e: (e,), dict(delta=FRACTIONS, m=BLOCKS, p=log_uniform())),
    "snr_gain_g": (lambda g: (g,), dict(a=FRACTIONS, b=log_uniform(), c=log_uniform(),
                                        n0=log_uniform(), m=BLOCKS, w_sq=log_uniform())),
    "optimal_delta_r": (lambda d: (d,), dict(m=BLOCKS, p=log_uniform(), sigma=log_uniform(),
                                             n0=log_uniform())),
    "suboptimal_delta_s": (lambda pair: pair,
                           dict(m=BLOCKS, p_s=log_uniform(),
                                stats=st.builds(ChannelStats, log_uniform(), log_uniform(),
                                                log_uniform(), log_uniform()))),
    "PowerSplit": (lambda s: (s.p_s, s.p_r), dict(total=log_uniform(), theta=FRACTIONS)),
}


@pytest.mark.parametrize("entry", list(CLOSED_FORMS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_closed_form_is_finite_or_names_its_inputs(entry, data):
    numbers, strategies = CLOSED_FORMS[entry]
    kwargs = {name: data.draw(strategy, label=name) for name, strategy in strategies.items()}
    try:
        result = ROWS[entry].call(**kwargs)
    except ValueError as exc:
        message = str(exc)
        inputs = [value for value in kwargs.values() if not isinstance(value, ChannelStats)]
        if "stats" in kwargs:
            inputs += vars(kwargs["stats"]).values()
        assert "\n" not in message
        assert any(repr(value) in message for value in inputs), message
    else:
        assert all(math.isfinite(value) for value in numbers(result))
