import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import relayrates
from relayrates import (
    COMBINING,
    RELAY_DECODING,
    ChannelStats,
    ExpectationSpec,
    Method,
    RateEstimate,
    Scheme,
    SystemConfig,
    W_RD,
    W_SD,
    W_SR,
    af_rate,
    data_symbol_energy,
    df_parallel_rate,
    df_repetition_rate,
    exp_draws,
    expect_over_exponentials,
    f_combiner,
    mmse_quality,
    snr_gain_g,
)
from relayrates.rates import MAX_NODES, MAX_SAMPLES, RATE_FN, common_draws, stream
from test_contract import BLOCKS, FRACTIONS, log_uniform
from test_preset_bytes import RECORDED_NUMPY

# E[ln(1 + x)] for x ~ Exp(1), frozen from e * E1(1) (scipy.special.exp1);
# re-derived against scipy in test_reference_value_matches_exp1 below.
LOG1P_EXP_MEAN = 0.5963473623231946


def _cfg(scheme=Scheme.AF, m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1):
    return SystemConfig(m=m, p_s=p_s, p_r=p_r, delta_s=delta_s, delta_r=delta_r,
                        scheme=scheme)


def _stats(sd=1.0, sr=4.0, rd=4.0, n0=1.0):
    return ChannelStats(sigma_sd=sd, sigma_sr=sr, sigma_rd=rd, n0=n0)


# log-uniform valid inputs of one rate call, keyed like _cfg's and _stats's keywords
VALID_RATE_INPUTS = st.fixed_dictionaries({
    "m": BLOCKS, "p_s": log_uniform(-3.0, 4.0), "p_r": log_uniform(-3.0, 4.0),
    "delta_s": FRACTIONS, "delta_r": FRACTIONS, "sd": log_uniform(-2.0, 2.0),
    "sr": log_uniform(-2.0, 2.0), "rd": log_uniform(-2.0, 2.0), "n0": log_uniform(-2.0, 2.0),
})


def _rate(scheme, spec, sd, sr, rd, n0, **cfg):
    return RATE_FN[scheme](_cfg(scheme=scheme, **cfg), _stats(sd, sr, rd, n0), spec)


class TestFCombiner:
    def test_zero_argument(self):
        assert f_combiner(0.0, 7.3) == 0.0

    def test_small_values(self):
        assert f_combiner(1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert f_combiner(3.0, 3.0) == pytest.approx(9.0 / 7.0, rel=1e-15)

    @given(x=st.floats(0.0, 1e9), y=st.floats(0.0, 1e9))
    @example(x=1.0, y=1e-4)  # 1 + x + y rounds differently from 1 + y + x
    def test_symmetric_and_bounded_by_min(self, x, y):
        assert f_combiner(x, y) == f_combiner(y, x)
        assert f_combiner(x, y) <= min(x, y) + 1e-12

    def test_strictly_increasing_in_each_argument(self):
        assert f_combiner(2.0, 5.0) < f_combiner(2.5, 5.0) < f_combiner(2.5, 6.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            f_combiner(-1.0, 2.0)


class TestSnrGain:
    def test_vanishes_at_training_extremes(self):
        assert snr_gain_g(0.0, 100.0, 2.0, 1.0, 50, 3.0) == 0.0
        assert snr_gain_g(1.0, 100.0, 2.0, 1.0, 50, 3.0) == 0.0

    def test_reference_point(self):
        value = snr_gain_g(0.1, 100.0, 1.0, 1.0, 50, 1.0)
        assert value == pytest.approx(4_500_000.0 / 33_048.0, rel=1e-12)

    @pytest.mark.parametrize("a,b,c,n0,m", [
        (0.1, 100.0, 1.0, 1.0, 50),
        (0.3, 7.0, 2.5, 0.4, 10),
        (0.9, 0.2, 0.3, 3.0, 6),
        (0.5, 1e4, 4.0, 1.0, 200),
    ])
    def test_matches_energy_ratio_form(self, a, b, c, n0, m):
        # closed form must equal E_data * var_est * |w|^2 / (E_data * var_err + n0)
        quality = mmse_quality(c, a, m, b, n0)
        energy = data_symbol_energy(a, m, b)
        for w_sq in (0.1, 1.0, 17.3):
            expected = energy * quality.var_estimate * w_sq / (energy * quality.var_error + n0)
            assert snr_gain_g(a, b, c, n0, m, w_sq) == pytest.approx(expected, rel=1e-9)

    def test_strictly_increasing_in_w_power_and_fading(self):
        base = snr_gain_g(0.2, 10.0, 1.5, 1.0, 50, 2.0)
        assert snr_gain_g(0.2, 10.0, 1.5, 1.0, 50, 2.5) > base
        assert snr_gain_g(0.2, 11.0, 1.5, 1.0, 50, 2.0) > base
        assert snr_gain_g(0.2, 10.0, 1.6, 1.0, 50, 2.0) > base

    def test_vectorizes_over_w(self):
        w = np.array([0.0, 1.0, 2.0])
        out = snr_gain_g(0.1, 100.0, 1.0, 1.0, 50, w)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert out[2] == pytest.approx(2.0 * out[1], rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            snr_gain_g(1.2, 1.0, 1.0, 1.0, 50, 1.0)
        with pytest.raises(ValueError):
            snr_gain_g(0.1, 1.0, 1.0, 0.0, 50, 1.0)
        with pytest.raises(ValueError):
            snr_gain_g(0.1, 1.0, 1.0, 1.0, 4, 1.0)
        with pytest.raises(ValueError):
            snr_gain_g(0.1, 1.0, 1.0, 1.0, 50, -1.0)


class TestExpectationEngine:
    def test_zero_integrand(self):
        spec = ExpectationSpec(dims=1, samples=500, seed=3)
        assert expect_over_exponentials(lambda x: 0.0 * x, spec) == (0.0, 0.0)

    def test_quadrature_recovers_exponential_mean(self):
        spec = ExpectationSpec(dims=1, method=Method.GAUSS_LAGUERRE, nodes=32)
        mean, se = expect_over_exponentials(lambda x: x, spec)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert se == 0.0

    def test_log_reference_monte_carlo(self):
        spec = ExpectationSpec(dims=1, samples=100_000, seed=11)
        mean, se = expect_over_exponentials(np.log1p, spec)
        assert abs(mean - LOG1P_EXP_MEAN) <= 3.0 * se

    def test_log_reference_quadrature(self):
        spec = ExpectationSpec(dims=1, method=Method.GAUSS_LAGUERRE, nodes=64)
        mean, _ = expect_over_exponentials(np.log1p, spec)
        assert abs(mean - LOG1P_EXP_MEAN) <= 1e-6

    def test_reference_value_matches_exp1(self):
        exp1 = pytest.importorskip("scipy.special").exp1
        assert LOG1P_EXP_MEAN == pytest.approx(math.e * float(exp1(1.0)), abs=1e-15)

    def test_two_dim_quadrature_separates(self):
        spec = ExpectationSpec(dims=2, method=Method.GAUSS_LAGUERRE, nodes=64)
        mean, _ = expect_over_exponentials(lambda x, y: np.log1p(x) + np.log1p(y), spec)
        assert mean == pytest.approx(2.0 * LOG1P_EXP_MEAN, abs=1e-6)

    def test_rejects_three_dim_quadrature(self):
        with pytest.raises(ValueError):
            ExpectationSpec(dims=3, method=Method.GAUSS_LAGUERRE)

    @pytest.mark.parametrize("integrand, error, match", [
        (lambda x: x[:-1], ValueError, "integrand must map"),
        (lambda x: np.full_like(x, np.nan), ArithmeticError, "sampled range"),
    ])
    def test_rejects_a_bad_integrand(self, integrand, error, match):
        with pytest.raises(error, match=match):
            expect_over_exponentials(integrand, ExpectationSpec(dims=1, samples=100))

    def test_stream_tags_give_common_random_numbers(self):
        assert np.array_equal(exp_draws(9, W_SD, 100), exp_draws(9, W_SD, 100))
        assert not np.array_equal(exp_draws(9, W_SD, 100), exp_draws(9, W_SR, 100))
        assert not np.array_equal(exp_draws(9, W_SR, 100), exp_draws(9, W_RD, 100))
        # prefix-stable: the first k draws do not depend on the batch size
        assert np.array_equal(exp_draws(9, W_SD, 1000)[:100], exp_draws(9, W_SD, 100))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExpectationSpec(dims=4)
        with pytest.raises(ValueError):
            ExpectationSpec(dims=1, samples=0)
        # rejected before any draw is made
        with pytest.raises(ValueError, match="samples"):
            ExpectationSpec(dims=3, samples=MAX_SAMPLES + 1)
        with pytest.raises(ValueError):
            ExpectationSpec(dims=1, nodes=4)
        with pytest.raises(ValueError):
            ExpectationSpec(dims=1, seed=-1)
        with pytest.raises(ValueError, match="CLOSED_FORM"):
            ExpectationSpec(dims=3, method=Method.CLOSED_FORM)
        # the largest accepted rule is clean; one node more and numpy's rule
        # overflows into NaN weights
        with pytest.raises(ValueError, match="nodes"):
            ExpectationSpec(dims=1, method=Method.GAUSS_LAGUERRE, nodes=MAX_NODES + 1)
        spec = ExpectationSpec(dims=1, method=Method.GAUSS_LAGUERRE, nodes=MAX_NODES)
        assert abs(expect_over_exponentials(np.log1p, spec)[0] - LOG1P_EXP_MEAN) <= 1e-6


def _sample(kind, n, seed):
    """n floats: one constant, standard normals, or random signs at log-uniform magnitudes."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(n, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
    if kind == "mixed_sign":
        return rng.normal(size=n)
    return rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300, 300, size=n)


LIBM_LOG1P_PROBE = """
import numpy as np
from relayrates.rates import exp_draws, stream

for seed in range(3):
    for tag in range(3):
        inv = stream(seed, tag).standard_exponential(100_000, method="inv")
        assert np.array_equal(exp_draws(seed, tag, 100_000), inv), (seed, tag)
"""


class TestExpDraws:
    """Draws invert one Philox uniform each through numpy's vectorized log1p."""

    def test_one_uniform_per_draw_through_np_log1p(self):
        for seed, tag, n in [(0, W_SD, 0), (9, W_SR, 1), (2**64 - 1, W_RD, 10_000)]:
            expected = -np.log1p(-stream(seed, tag).random(n))
            assert np.array_equal(exp_draws(seed, tag, n), expected)

    def test_within_one_ulp_of_generator_inversion(self):
        # numpy's SIMD log1p may differ from libm's in the last bit only
        worst = 0
        for seed in range(50):
            for tag in (W_SD, W_SR, W_RD):
                ours = exp_draws(seed, tag, 10_000)
                inv = stream(seed, tag).standard_exponential(10_000, method="inv")
                worst = max(worst, int(np.abs(ours.view(np.int64) - inv.view(np.int64)).max()))
        assert worst <= 1

    @pytest.mark.skipif(np.__version__ != RECORDED_NUMPY or platform.machine() != "x86_64",
                        reason=f"names the x86 CPU features of numpy {RECORDED_NUMPY}")
    def test_equals_generator_inversion_without_avx512_log1p(self):
        """With AVX-512 masked off, np.log1p is libm's, so the only difference is the dispatch."""
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
        package_root = str(Path(relayrates.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        probe = subprocess.run([sys.executable, "-c", LIBM_LOG1P_PROBE], env=env,
                               capture_output=True, text=True)
        assert probe.returncode == 0, probe.stderr


class TestMonteCarloReduction:
    """The engine's mean and standard error are numpy's, bit for bit, on any numpy."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4096), kind=st.sampled_from(["constant", "mixed_sign", "log_uniform"]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=100_000, kind="constant", seed=1)
    @example(n=100_000, kind="mixed_sign", seed=2)
    @example(n=100_000, kind="log_uniform", seed=3)
    def test_mean_and_std_error_match_numpy(self, n, kind, seed):
        arr = _sample(kind, n, seed)
        spec = ExpectationSpec(dims=1, samples=n)
        with np.errstate(over="ignore", invalid="ignore"):  # 1e300 magnitudes overflow a sum
            mean = float(arr.mean())
            if not math.isfinite(mean):
                with pytest.raises(ArithmeticError, match="sampled range"):
                    expect_over_exponentials(lambda x: arr.copy(), spec)
                return
            std_error = float(arr.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
            got = expect_over_exponentials(lambda x: arr.copy(), spec)
        assert [v.hex() for v in got] == [mean.hex(), std_error.hex()]

    def test_a_view_of_the_argument_is_reduced_in_its_own_order(self):
        # the deviations go into the argument the view reads from
        draws = exp_draws(0, 0, 5_001)[::-1]
        got = expect_over_exponentials(lambda x: x[::-1], ExpectationSpec(dims=1, samples=5_001))
        assert got == (float(draws.mean()), float(draws.std(ddof=1)) / math.sqrt(5_001))


class TestEngineOwnership:
    """The engine writes only into arrays it made."""

    def test_an_integrand_that_keeps_its_result_finds_it_unchanged(self):
        kept = np.linspace(-3.0, 5.0, 1_000) ** 3
        before = kept.tobytes()
        got = expect_over_exponentials(lambda x: kept, ExpectationSpec(dims=1, samples=1_000))
        assert kept.tobytes() == before
        assert got == (float(kept.mean()), float(kept.std(ddof=1)) / math.sqrt(1_000))

    def test_a_read_only_result_works(self):
        frozen = np.linspace(0.0, 1.0, 1_000)
        frozen.flags.writeable = False
        got = expect_over_exponentials(lambda x: frozen, ExpectationSpec(dims=1, samples=1_000))
        assert got == (float(frozen.mean()), float(frozen.std(ddof=1)) / math.sqrt(1_000))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_a_draw_set_is_never_written(self, scheme):
        spec = ExpectationSpec(dims=3, samples=2_000, seed=19)
        draws = common_draws(spec)
        before = [vector.tobytes() for vector in draws.w]
        rate = RATE_FN[scheme](_cfg(scheme=scheme), _stats(), spec, draws=draws)
        assert [vector.tobytes() for vector in draws.w] == before
        alone = RATE_FN[scheme](_cfg(scheme=scheme), _stats(), spec)
        assert (rate.value, rate.std_error, rate.parts) == (alone.value, alone.std_error,
                                                            alone.parts)


@pytest.mark.parametrize("scheme, limit", [(Scheme.AF, 3.3e6), (Scheme.DF_REPETITION, 1.7e6),
                                           (Scheme.DF_PARALLEL, 1.7e6)])
def test_peak_memory_of_a_standalone_call(scheme, limit):
    # 10^5 floats are 0.8 MB: AF holds its three scaled draws and one denominator,
    # DF its two combining draws, and no call copies a draw or its deviations
    spec = ExpectationSpec(dims=3, samples=100_000, seed=1)
    RATE_FN[scheme](_cfg(scheme=scheme), _stats(), spec)
    tracemalloc.start()
    try:
        RATE_FN[scheme](_cfg(scheme=scheme), _stats(), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


class TestAfRate:
    def test_all_training_gives_zero(self):
        spec = ExpectationSpec(dims=3, samples=2_000, seed=5)
        rate = af_rate(_cfg(delta_s=1.0), _stats(), spec)
        assert rate.value == 0.0

    def test_vanishing_source_links_give_zero(self):
        spec = ExpectationSpec(dims=3, samples=2_000, seed=5)
        rate = af_rate(_cfg(), _stats(sd=1e-9, sr=1e-9), spec)
        assert rate.value == pytest.approx(0.0, abs=1e-10)

    def test_deterministic_under_same_seed(self):
        spec = ExpectationSpec(dims=3, samples=10_000, seed=42)
        a = af_rate(_cfg(), _stats(), spec)
        b = af_rate(_cfg(), _stats(), spec)
        assert (a.value, a.std_error) == (b.value, b.std_error)
        c = af_rate(_cfg(), _stats(), ExpectationSpec(dims=3, samples=10_000, seed=43))
        assert a.value != c.value

    def test_requires_matching_scheme_and_method(self):
        spec = ExpectationSpec(dims=3, samples=100, seed=0)
        with pytest.raises(ValueError):
            af_rate(_cfg(scheme=Scheme.DF_PARALLEL), _stats(), spec)
        with pytest.raises(ValueError):
            af_rate(_cfg(), _stats(), ExpectationSpec(dims=2, samples=100, seed=0))
        with pytest.raises(ValueError):
            af_rate(_cfg(), _stats(),
                    ExpectationSpec(dims=2, method=Method.GAUSS_LAGUERRE))

    # every scheme, not only AF: common random numbers make the rate
    # nondecreasing draw by draw, so no standard-error allowance is needed,
    # only one for rounding (steps as small as one ulp are drawn)
    @settings(max_examples=100, deadline=None)
    @given(scheme=st.sampled_from(list(Scheme)), inputs=VALID_RATE_INPUTS,
           name=st.sampled_from(["p_s", "p_r", "sd", "sr", "rd"]),
           step=st.one_of(st.none(), log_uniform(-12.0, 1.0)), seed=st.integers(0, 2**32 - 1))
    def test_monotone_in_fading_and_power_with_common_draws(self, scheme, inputs, name, step,
                                                            seed):
        spec = ExpectationSpec(dims=3, samples=1_000, seed=seed)
        value = inputs[name]
        larger = math.nextafter(value, math.inf) if step is None else value * (1.0 + step)
        lower = _rate(scheme, spec, **inputs).value
        higher = _rate(scheme, spec, **{**inputs, name: larger}).value
        assert higher >= lower * (1.0 - 1e-14)

    def test_strictly_increasing_at_a_reference_point(self):
        spec = ExpectationSpec(dims=3, samples=5_000, seed=17)
        base = af_rate(_cfg(), _stats(), spec).value
        assert af_rate(_cfg(), _stats(sd=1.2), spec).value > base
        assert af_rate(_cfg(), _stats(sr=4.5), spec).value > base
        assert af_rate(_cfg(), _stats(rd=4.5), spec).value > base
        assert af_rate(_cfg(p_s=70.0), _stats(), spec).value > base
        assert af_rate(_cfg(p_r=50.0), _stats(), spec).value > base

    def test_std_error_shrinks_like_sqrt_samples(self):
        # quadrupling the sample count should halve the standard error
        small = af_rate(_cfg(), _stats(), ExpectationSpec(dims=3, samples=25_000, seed=3))
        large = af_rate(_cfg(), _stats(), ExpectationSpec(dims=3, samples=100_000, seed=3))
        assert large.std_error == pytest.approx(small.std_error / 2.0, rel=0.1)


class TestDfRates:
    def test_dead_relay_link_bottlenecks_repetition(self):
        spec = ExpectationSpec(dims=3, samples=2_000, seed=5)
        rate = df_repetition_rate(_cfg(scheme=Scheme.DF_REPETITION), _stats(sr=1e-12), spec)
        assert rate.value == pytest.approx(0.0, abs=1e-10)
        assert rate.binding == RELAY_DECODING

    def test_full_training_gives_zero(self):
        spec = ExpectationSpec(dims=3, samples=2_000, seed=5)
        rate = df_repetition_rate(
            _cfg(scheme=Scheme.DF_REPETITION, delta_s=1.0, delta_r=1.0), _stats(), spec)
        assert rate.value == 0.0

    def test_parts_expose_both_constraints(self):
        spec = ExpectationSpec(dims=3, samples=5_000, seed=5)
        rate = df_repetition_rate(_cfg(scheme=Scheme.DF_REPETITION), _stats(), spec)
        assert set(rate.parts) == {RELAY_DECODING, COMBINING}
        assert rate.value == min(p.value for p in rate.parts.values())

    def test_repetition_combining_matches_quadrature(self):
        # 2-D Monte Carlo expectation vs. 64-node tensor quadrature
        cfg = _cfg(scheme=Scheme.DF_REPETITION, p_s=60.0, p_r=40.0)
        stats = _stats()
        mc = df_repetition_rate(cfg, stats, ExpectationSpec(dims=3, samples=100_000, seed=21))
        gl = df_repetition_rate(cfg, stats,
                                ExpectationSpec(dims=2, method=Method.GAUSS_LAGUERRE, nodes=64))
        part_mc = mc.parts[COMBINING]
        part_gl = gl.parts[COMBINING]
        assert abs(part_mc.value - part_gl.value) <= 3.0 * part_mc.std_error
        assert abs(mc.parts[RELAY_DECODING].value - gl.parts[RELAY_DECODING].value) \
            <= 3.0 * mc.parts[RELAY_DECODING].std_error

    def test_parallel_dominates_repetition_per_sample(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            m = int(2 * rng.integers(3, 101))
            p_s, p_r = 10.0 ** rng.uniform(-2, 3, size=2)
            d_s, d_r = rng.uniform(0.0, 1.0, size=2)
            sd, sr, rd = 10.0 ** rng.uniform(-1, 1, size=3)
            n0 = 10.0 ** rng.uniform(-1, 1)
            seed = int(rng.integers(0, 2**32))
            g_sd = snr_gain_g(d_s, p_s, sd, n0, m, exp_draws(seed, W_SD, 256))
            g_rd = snr_gain_g(d_r, p_r, rd, n0, m, exp_draws(seed, W_RD, 256))
            repetition = np.log1p(g_sd + g_rd)
            parallel = np.log1p(g_sd) + np.log1p(g_rd)
            assert np.all(parallel >= repetition)

    @settings(max_examples=100, deadline=None)
    @given(inputs=VALID_RATE_INPUTS, seed=st.integers(0, 2**32 - 1))
    @example(inputs=dict(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1, sd=1.0, sr=2.0,
                         rd=1.0, n0=1.0), seed=77)
    def test_parallel_dominates_repetition_end_to_end(self, inputs, seed):
        spec = ExpectationSpec(dims=3, samples=1_000, seed=seed)
        rep = _rate(Scheme.DF_REPETITION, spec, **inputs)
        par = _rate(Scheme.DF_PARALLEL, spec, **inputs)
        assert par.value >= rep.value
        # both schemes decode at the relay from the same source-relay link, bit for bit
        rep_part, par_part = rep.parts[RELAY_DECODING], par.parts[RELAY_DECODING]
        assert par_part == rep_part and par_part.value.hex() == rep_part.value.hex()

    def test_parallel_quadrature_matches_monte_carlo(self):
        cfg = _cfg(scheme=Scheme.DF_PARALLEL)
        stats = _stats()
        mc = df_parallel_rate(cfg, stats, ExpectationSpec(dims=3, samples=100_000, seed=31))
        gl = df_parallel_rate(cfg, stats,
                              ExpectationSpec(dims=2, method=Method.GAUSS_LAGUERRE, nodes=64))
        assert abs(mc.parts[COMBINING].value - gl.parts[COMBINING].value) \
            <= 3.0 * mc.parts[COMBINING].std_error

    def test_zero_fading_limit(self):
        spec = ExpectationSpec(dims=3, samples=2_000, seed=5)
        rate = df_parallel_rate(_cfg(scheme=Scheme.DF_PARALLEL),
                                _stats(sd=1e-9, sr=1e-9, rd=1e-9), spec)
        assert rate.value == pytest.approx(0.0, abs=1e-10)


class TestRateEstimate:
    def test_quadrature_results_have_no_std_error(self):
        gl = df_parallel_rate(_cfg(scheme=Scheme.DF_PARALLEL), _stats(),
                              ExpectationSpec(dims=2, method=Method.GAUSS_LAGUERRE))
        assert gl.std_error == 0.0
        assert gl.samples == 0
        assert gl.method is Method.GAUSS_LAGUERRE

    def test_binding_is_none_without_parts(self):
        assert RateEstimate(1.0, 0.1, 10, Method.MONTE_CARLO).binding is None

    def test_rates_are_nonnegative_and_bounded(self):
        spec = ExpectationSpec(dims=3, samples=1_000, seed=13)
        for sd in (0.1, 1.0, 5.0):
            rate = af_rate(_cfg(), _stats(sd=sd), spec)
            assert rate.value >= 0.0
            assert rate.std_error >= 0.0
