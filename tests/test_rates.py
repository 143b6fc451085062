import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relayrates import (
    COMBINING,
    RELAY_DECODING,
    ChannelStats,
    ExpectationSpec,
    Method,
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
from relayrates.rates import MAX_NODES

# E[ln(1 + x)] for x ~ Exp(1), frozen from e * E1(1) (scipy.special.exp1);
# re-derived against scipy in test_reference_value_matches_exp1 below.
LOG1P_EXP_MEAN = 0.5963473623231946


def _cfg(scheme=Scheme.AF, m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1):
    return SystemConfig(m=m, p_s=p_s, p_r=p_r, delta_s=delta_s, delta_r=delta_r,
                        scheme=scheme)


def _stats(sd=1.0, sr=4.0, rd=4.0, n0=1.0):
    return ChannelStats(sigma_sd=sd, sigma_sr=sr, sigma_rd=rd, n0=n0)


class TestFCombiner:
    def test_zero_argument(self):
        assert f_combiner(0.0, 7.3) == 0.0

    def test_small_values(self):
        assert f_combiner(1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert f_combiner(3.0, 3.0) == pytest.approx(9.0 / 7.0, rel=1e-15)

    @given(x=st.floats(0.0, 1e9), y=st.floats(0.0, 1e9))
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
        with pytest.raises(ValueError):
            ExpectationSpec(dims=1, nodes=4)
        with pytest.raises(ValueError):
            ExpectationSpec(dims=1, seed=-1)
        # the largest accepted rule is clean; one node more and numpy's rule
        # overflows into NaN weights
        with pytest.raises(ValueError, match="nodes"):
            ExpectationSpec(dims=1, method=Method.GAUSS_LAGUERRE, nodes=MAX_NODES + 1)
        spec = ExpectationSpec(dims=1, method=Method.GAUSS_LAGUERRE, nodes=MAX_NODES)
        assert abs(expect_over_exponentials(np.log1p, spec)[0] - LOG1P_EXP_MEAN) <= 1e-6


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

    def test_monotone_in_fading_and_power_with_common_draws(self):
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

    def test_parallel_dominates_repetition_end_to_end(self):
        spec = ExpectationSpec(dims=3, samples=5_000, seed=77)
        stats = _stats(sd=1.0, sr=2.0, rd=1.0)
        rep = df_repetition_rate(_cfg(scheme=Scheme.DF_REPETITION), stats, spec)
        par = df_parallel_rate(_cfg(scheme=Scheme.DF_PARALLEL), stats, spec)
        assert par.value >= rep.value

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

    def test_rates_are_nonnegative_and_bounded(self):
        spec = ExpectationSpec(dims=3, samples=1_000, seed=13)
        for sd in (0.1, 1.0, 5.0):
            rate = af_rate(_cfg(), _stats(sd=sd), spec)
            assert rate.value >= 0.0
            assert rate.std_error >= 0.0
