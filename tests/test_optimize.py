import math

import pytest

from relayrates import (
    ChannelStats,
    ExpectationSpec,
    PowerSplit,
    Scheme,
    SearchMethod,
    SystemConfig,
    af_rate,
    closed_grid,
    grid_argmax,
    joint_allocation,
    optimal_delta_r,
    optimize_theta,
    snr_gain_g_coefficient,
    suboptimal_delta_s,
    theta_sweep,
)

HIGH_SNR_LIMIT_M50 = (math.sqrt(96.0) - 2.0) / 46.0  # limit of the closed form as P grows


class TestPowerSplit:
    def test_split_sums_exactly(self):
        for theta in (0.0, 0.3, 1.0 / 3.0, 0.77, 1.0):
            split = PowerSplit(total=100.0, theta=theta)
            assert split.p_s + split.p_r == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSplit(total=-1.0, theta=0.5)
        with pytest.raises(ValueError):
            PowerSplit(total=1.0, theta=1.5)


class TestClosedGrid:
    def test_half_steps(self):
        assert closed_grid(0.0, 1.0, 0.5) == [0.0, 0.5, 1.0]

    def test_clean_decimals(self):
        grid = closed_grid(0.0, 1.0, 0.01)
        assert len(grid) == 101
        assert grid[7] == 0.07
        assert grid[-1] == 1.0

    def test_partial_last_step_appends_endpoint(self):
        grid = closed_grid(0.5, 5.0, 0.7)
        assert grid[0] == 0.5 and grid[-1] == 5.0
        grid = closed_grid(0.123456789012, 1.0, 0.1)
        assert grid[0] == 0.123456789012 and grid[-1] == 1.0


class TestOptimalDeltaR:
    def test_reference_point(self):
        assert optimal_delta_r(50, 100.0, 1.0, 1.0) == pytest.approx(0.170, abs=1e-3)

    def test_matches_grid_search_on_acceptance_grid(self):
        for m in (6, 10, 50, 200):
            for snr in (1e-2, 1.0, 1e2, 1e4, 1e6):
                closed = optimal_delta_r(m, snr, 1.0, 1.0)
                gridded = grid_argmax(
                    lambda a, m=m, snr=snr: float(snr_gain_g_coefficient(a, snr, 1.0, 1.0, m)),
                    0.0, 1.0, 1e-4)
                assert abs(closed - gridded.argument) <= 1e-3, (m, snr)

    def test_high_snr_limit(self):
        assert abs(optimal_delta_r(50, 1e6, 1.0, 1.0) - HIGH_SNR_LIMIT_M50) <= 1e-4

    def test_stays_inside_open_unit_interval(self):
        for m in (6, 10, 50, 200):
            for snr in (1e-2, 1.0, 1e2, 1e4, 1e6):
                assert 0.0 < optimal_delta_r(m, snr, 1.0, 1.0) < 1.0

    def test_scales_through_sigma_squared(self):
        # the closed form depends on p and sigma only through p * sigma^2
        assert optimal_delta_r(50, 25.0, 2.0, 1.0) == pytest.approx(
            optimal_delta_r(50, 100.0, 1.0, 1.0), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            optimal_delta_r(4, 100.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            optimal_delta_r(50, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            optimal_delta_r(50, 100.0, -1.0, 1.0)

    def test_training_share_shrinks_with_link_quality(self):
        # the fraction decreases monotonically and approaches the high-power
        # limit faster when the relay has more power
        gaps = []
        for p_r in (1.0, 10.0, 100.0):
            fractions = [optimal_delta_r(50, p_r, s, 1.0) for s in closed_grid(0.5, 5.0, 0.1)]
            assert all(a >= b for a, b in zip(fractions, fractions[1:]))
            gaps.append(fractions[-1] - HIGH_SNR_LIMIT_M50)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0


class TestSuboptimalDeltaS:
    def test_symmetric_links_coincide(self):
        stats = ChannelStats(sigma_sd=2.0, sigma_sr=2.0, sigma_rd=1.0, n0=1.0)
        d1, d2 = suboptimal_delta_s(50, 100.0, stats)
        assert d1 == d2

    def test_same_formula_as_relay_fraction(self):
        stats = ChannelStats(sigma_sd=1.0, sigma_sr=4.0, sigma_rd=3.0, n0=1.0)
        d1, d2 = suboptimal_delta_s(50, 100.0, stats)
        assert d1 == optimal_delta_r(50, 100.0, 1.0, 1.0)
        assert d2 == optimal_delta_r(50, 100.0, 4.0, 1.0)

    def test_candidates_verified_by_grid(self):
        stats = ChannelStats(sigma_sd=1.0, sigma_sr=4.0, sigma_rd=3.0, n0=1.0)
        _, d2 = suboptimal_delta_s(50, 100.0, stats)
        gridded = grid_argmax(
            lambda a: float(snr_gain_g_coefficient(a, 100.0, 4.0, 1.0, 50)), 0.0, 1.0, 1e-4)
        assert abs(d2 - gridded.argument) <= 1e-3


class TestOptimizeTheta:
    def test_useless_relay_pushes_theta_to_one(self):
        stats = ChannelStats(sigma_sd=1.0, sigma_sr=1e-6, sigma_rd=4.0, n0=1.0)
        spec = ExpectationSpec(dims=3, samples=4_000, seed=19)
        result = optimize_theta(100.0, stats, 50, 0.1, 0.1, Scheme.AF, spec, grid_step=0.05)
        assert result.argument == 1.0
        assert result.method is SearchMethod.GRID

    def test_best_point_dominates_whole_curve(self):
        stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
        spec = ExpectationSpec(dims=3, samples=3_000, seed=23)
        curve = theta_sweep(100.0, stats, 50, 0.1, 0.1, Scheme.AF, spec, grid_step=0.05)
        best = optimize_theta(100.0, stats, 50, 0.1, 0.1, Scheme.AF, spec, grid_step=0.05)
        assert best.rate.value >= max(rate.value for _, rate in curve)
        assert best.evaluations == len(curve)

    def test_endpoints_evaluate_to_finite_rates(self):
        stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
        spec = ExpectationSpec(dims=3, samples=1_000, seed=29)
        curve = dict(theta_sweep(100.0, stats, 50, 0.1, 0.1, Scheme.DF_PARALLEL, spec,
                                 grid_step=0.5))
        assert curve[0.0].value == 0.0
        assert math.isfinite(curve[1.0].value)

    def test_sweep_is_worker_count_invariant(self):
        stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
        spec = ExpectationSpec(dims=3, samples=2_000, seed=31)
        serial = theta_sweep(100.0, stats, 50, 0.1, 0.1, Scheme.AF, spec, grid_step=0.1)
        threaded = theta_sweep(100.0, stats, 50, 0.1, 0.1, Scheme.AF, spec,
                               grid_step=0.1, workers=4)
        assert [(t, r.value, r.std_error) for t, r in serial] == \
               [(t, r.value, r.std_error) for t, r in threaded]

    def test_parallel_coding_prefers_source_heavy_split_for_weak_relay(self):
        # sigma = (1, 2, 1): cooperation buys little, so theta lands near 1
        stats = ChannelStats(sigma_sd=1.0, sigma_sr=2.0, sigma_rd=1.0, n0=1.0)
        spec = ExpectationSpec(dims=3, samples=20_000, seed=37)
        result = optimize_theta(100.0, stats, 50, 0.1, 0.1, Scheme.DF_PARALLEL, spec,
                                grid_step=0.02)
        assert result.argument >= 0.8

    def test_rejects_coarse_grid(self):
        stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
        spec = ExpectationSpec(dims=3, samples=100, seed=1)
        with pytest.raises(ValueError):
            optimize_theta(100.0, stats, 50, 0.1, 0.1, Scheme.AF, spec, grid_step=0.2)


class TestJointAllocation:
    def test_degenerate_relay_reduces_to_direct_link(self):
        stats = ChannelStats(sigma_sd=1.0, sigma_sr=1e-6, sigma_rd=1e-6, n0=1.0)
        spec = ExpectationSpec(dims=3, samples=2_000, seed=41)
        theta, _, _, rate = joint_allocation(100.0, stats, 50, Scheme.AF, spec,
                                             theta_step=0.1)
        assert theta == 1.0
        assert rate.value > 0.0

    def test_beats_fixed_operating_point(self):
        stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
        spec = ExpectationSpec(dims=3, samples=4_000, seed=43)
        theta, d_s, d_r, best = joint_allocation(100.0, stats, 50, Scheme.AF, spec,
                                                 theta_step=0.05)
        fixed_cfg = SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1,
                                 scheme=Scheme.AF)
        fixed = af_rate(fixed_cfg, stats, spec)
        assert best.value >= fixed.value
        assert 0.0 <= d_s < 1.0 and 0.0 <= d_r < 1.0

    def test_symmetric_source_links_collapse_candidates(self):
        stats = ChannelStats(sigma_sd=3.0, sigma_sr=3.0, sigma_rd=1.0, n0=1.0)
        spec = ExpectationSpec(dims=3, samples=1_000, seed=47)
        theta, d_s, _, _ = joint_allocation(100.0, stats, 50, Scheme.DF_PARALLEL, spec,
                                            theta_step=0.25)
        if theta not in (0.0,):
            split = PowerSplit(total=100.0, theta=theta)
            expected = set(suboptimal_delta_s(50, split.p_s, stats)) if split.p_s > 0 else {0.0}
            assert d_s in expected
            assert len(expected) == 1
