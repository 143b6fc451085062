import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import relayrates
import relayrates.cli
from relayrates import (
    COMBINING,
    RELAY_DECODING,
    W_RD,
    W_SD,
    W_SR,
    ChannelStats,
    ExpectationSpec,
    Method,
    PowerSplit,
    Scheme,
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
from relayrates.optimize import _DELTA_GRID
from relayrates.rates import DrawSet, _finite_gain, _worker_count, exp_draws, rate, rate_curve
from conftest import _cpus
from test_contract import BLOCKS, log_uniform

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


def _scalar_grid(lo, hi, step):
    """closed_grid as a list comprehension of Python ``round`` calls."""
    steps = (hi - lo) / step + 1e-9
    grid = [round(lo + i * step, 10) for i in range(int(math.floor(steps)) + 1)]
    grid[0] = lo
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid.append(hi)
    else:
        grid[-1] = hi
    return grid


class TestClosedGridRounding:
    """The array-built grid equals per-point ``round(x, 10)`` in every bit."""

    @staticmethod
    def assert_same_bits(lo, hi, step):
        got = [float(x).hex() for x in closed_grid(lo, hi, step)]
        assert got == [float(x).hex() for x in _scalar_grid(lo, hi, step)], (lo, hi, step)

    @pytest.mark.parametrize("lo,hi,step", [
        (0.0, 1.0, 1e-4),
        (0.0, 10.0, 1.00000000005),  # i * step * 1e10 lands within an ulp of a .5 tie
        (-3.3, 7.1, 0.0013),
        (-1.0, -0.2, 0.07),
        (1e9, 1e9 + 20.0, 0.1),  # |x| * 1e10 > 2**52: no fractional bits left to round
        (0.123456789012, 1.0, 0.1),
        (1e5, 2e5, 0.13),
        (0.5, 5.0, 0.7),
        (1e300, 2e300, 1e299),  # x * 1e10 overflows
    ])
    def test_examples(self, lo, hi, step):
        self.assert_same_bits(lo, hi, step)

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-1e12, 1e12), step=st.floats(1e-10, 1e4),
           count=st.integers(1, 300), tail=st.floats(0.0, 1.0))
    @example(lo=0.0, step=4.039595e-05, count=50, tail=0.0)
    def test_matches_scalar_round(self, lo, step, count, tail):
        hi = lo + (count + tail) * step
        assume(hi > lo)
        self.assert_same_bits(lo, hi, step)


def _root_60_digits(m, p, sigma, n0):
    """The relay fraction in 60-digit decimal arithmetic.

    With x = m p sigma^2 and B = 2x + (m-2) n0, the gain is a(1-a) / (B + (m-4) x a)
    up to a factor free of a; its maximizer is the root in (0, 1) of
    (m-4) x a^2 + 2B a - B = 0, written here without a subtraction.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        x = m * Decimal(p) * Decimal(sigma) ** 2
        b = 2 * x + (m - 2) * Decimal(n0)
        return b / (b + (b * b + (m - 4) * x * b).sqrt())


class TestOptimalDeltaR:
    def test_reference_point(self):
        assert optimal_delta_r(50, 100.0, 1.0, 1.0) == pytest.approx(0.170, abs=1e-3)

    def test_matches_grid_search_on_acceptance_grid(self):
        for m in (6, 10, 50, 200):
            for snr in (1e-2, 1.0, 1e2, 1e4, 1e6):
                closed = optimal_delta_r(m, snr, 1.0, 1.0)
                gridded = grid_argmax(
                    lambda a, m=m, snr=snr: snr_gain_g_coefficient(a, snr, 1.0, 1.0, m),
                    0.0, 1.0, 1e-4)
                assert abs(closed - gridded.argument) <= 1e-3, (m, snr)

    def test_high_snr_limit(self):
        assert abs(optimal_delta_r(50, 1e6, 1.0, 1.0) - HIGH_SNR_LIMIT_M50) <= 1e-4
        # s = m p sigma^2 / n0 at both ends of the float range: the limits to 2 ulps
        for m in (6, 10, 50, 200, 2_000_000):
            high = 1.0 / (1.0 + math.sqrt((m - 2) / 2))
            assert abs(optimal_delta_r(m, 1e300, 1.0, 1.0) - high) <= 2 * math.ulp(high), m
            assert abs(optimal_delta_r(m, 1e-300, 1.0, 1.0) - 0.5) <= 2 * math.ulp(0.5), m
        assert 1.0 / (1.0 + math.sqrt(24.0)) == pytest.approx(HIGH_SNR_LIMIT_M50, rel=1e-15)

    @settings(max_examples=1000, deadline=None)
    @given(m=BLOCKS, p=log_uniform(), sigma=log_uniform(), n0=log_uniform())
    @example(m=2522, p=7.74e-174, sigma=6.65e42, n0=1.05e-79)  # every gain underflows
    @example(m=10, p=1.03e-3, sigma=1.43e-3, n0=295.0)  # the quadratic's numerator cancels
    def test_exact_and_total(self, m, p, sigma, n0):
        delta = optimal_delta_r(m, p, sigma, n0)
        assert math.isfinite(delta) and 0.0 < delta <= 0.5
        assert abs(Decimal(delta) - _root_60_digits(m, p, sigma, n0)) <= Decimal("4e-16")

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(3, 1000).map(lambda k: 2 * k), p=log_uniform(-3.0, 3.0),
           sigma=log_uniform(-3.0, 3.0), n0=log_uniform(-3.0, 3.0))
    def test_grid_objective_is_the_gain_over_a_constant(self, m, p, sigma, n0):
        # the in-function check maximizes a(1-a) / (1 + c a): the gain up to a factor
        s = m * p * sigma**2 / n0
        c = (m - 4) * s / (2 * s + m - 2)
        a = _DELTA_GRID[1:-1]
        ratio = snr_gain_g_coefficient(a, p, sigma, n0, m) * (1.0 + c * a) / (a * (1.0 - a))
        assert np.ptp(ratio) <= 1e-13 * np.max(ratio)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(3, 1000).map(lambda k: 2 * k), b=log_uniform(-6.0, 6.0),
           c=log_uniform(-6.0, 6.0), n0=log_uniform(-6.0, 6.0))
    def test_grid_kernel_is_the_rates_gain_bit_for_bit(self, m, b, c, n0):
        # verify's array route and the rates' scalar route evaluate one formula
        grid = snr_gain_g_coefficient(_DELTA_GRID, b, c, n0, m)
        names = ("a", "b", "c")
        assert [g.hex() for g in grid.tolist()] == [
            _finite_gain(a, b, c, n0, m, names, "snr").hex() for a in _DELTA_GRID.tolist()]

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
        with pytest.raises(ValueError, match=r"^m must be an even integer in "
                                             r"\[6, 9007199254740992\], got 10{400}$"):
            optimal_delta_r(10**400, 100.0, 1.0, 1.0)  # beyond the exact floats

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
            lambda a: snr_gain_g_coefficient(a, 100.0, 4.0, 1.0, 50), 0.0, 1.0, 1e-4)
        assert abs(d2 - gridded.argument) <= 1e-3


class TestOptimizeTheta:
    def test_useless_relay_pushes_theta_to_one(self):
        stats = ChannelStats(sigma_sd=1.0, sigma_sr=1e-6, sigma_rd=4.0, n0=1.0)
        spec = ExpectationSpec(dims=3, samples=4_000, seed=19)
        result = optimize_theta(100.0, stats, 50, 0.1, 0.1, Scheme.AF, spec, grid_step=0.05)
        assert result.argument == 1.0

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

    @pytest.mark.parametrize("sweep", [theta_sweep, optimize_theta],
                             ids=["theta_sweep", "optimize_theta"])
    def test_workers_keyword_is_gone(self, sweep):
        # a sweep has one serial path; no keyword picks a thread pool
        stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
        spec = ExpectationSpec(dims=3, samples=2_000, seed=31)
        with pytest.raises(TypeError, match="workers"):
            sweep(100.0, stats, 50, 0.1, 0.1, Scheme.AF, spec, grid_step=0.1, workers=1)

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


def _bits(estimate):
    """Every number of an estimate, as exact hex, with its DF parts."""
    parts = sorted((name, _bits(part)) for name, part in (estimate.parts or {}).items())
    return (estimate.value.hex(), estimate.std_error.hex(), estimate.samples,
            estimate.method, parts)


STATS = ChannelStats(1.0, 4.0, 4.0, 1.0)
MC = ExpectationSpec(dims=3, samples=2_000, seed=53)
MC_FULL = ExpectationSpec(dims=3, samples=100_000, seed=53)
GL = ExpectationSpec(dims=2, method=Method.GAUSS_LAGUERRE, nodes=32)
STREAMS = [(53, W_SD, 2_000), (53, W_SR, 2_000), (53, W_RD, 2_000)]


def _standalone(theta, delta_s, delta_r, scheme, spec):
    split = PowerSplit(total=100.0, theta=theta)
    cfg = SystemConfig(m=50, p_s=split.p_s, p_r=split.p_r, delta_s=delta_s,
                       delta_r=delta_r, scheme=scheme)
    return rate(cfg, STATS, spec)


class TestCommonDraws:
    """A sweep draws its three streams once and rescales them per point."""

    @pytest.mark.parametrize("scheme, spec", [(scheme, MC) for scheme in Scheme] +
                             [(Scheme.DF_REPETITION, GL), (Scheme.DF_PARALLEL, GL)])
    def test_sweep_points_equal_standalone_calls(self, scheme, spec):
        curve = theta_sweep(100.0, STATS, 50, 0.1, 0.1, scheme, spec, grid_step=0.1)
        assert len(curve) == 11
        for theta, estimate in curve:
            assert _bits(estimate) == _bits(_standalone(theta, 0.1, 0.1, scheme, spec))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_full_size_sweep_points_equal_standalone_calls(self, scheme):
        # every point of one serial sweep rescales into the same four scratch
        # buffers; a point that read another's leftovers would change a bit
        curve = theta_sweep(100.0, STATS, 50, 0.1, 0.1, scheme, MC_FULL, grid_step=0.1)
        assert len(curve) == 11
        for theta, estimate in curve:
            assert _bits(estimate) == _bits(_standalone(theta, 0.1, 0.1, scheme, MC_FULL))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_interleaved_sweeps_equal_lone_sweeps(self, scheme):
        # each sweep call owns its draw set and scratch, so a sweep of another
        # spec run in between changes no bit of a repeated one
        other = ExpectationSpec(dims=3, samples=3_000, seed=59)
        first = theta_sweep(100.0, STATS, 50, 0.1, 0.1, scheme, MC, grid_step=0.1)
        between = theta_sweep(100.0, STATS, 50, 0.1, 0.1, scheme, other, grid_step=0.1)
        again = theta_sweep(100.0, STATS, 50, 0.1, 0.1, scheme, MC, grid_step=0.1)
        assert [(t, _bits(r)) for t, r in again] == [(t, _bits(r)) for t, r in first]
        assert [_bits(r) for _, r in between] != [_bits(r) for _, r in first]

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("grid_step", [0.5, 0.25, 0.1, 0.05])
    def test_sweep_draws_each_stream_once(self, draw_calls, scheme, grid_step):
        theta_sweep(100.0, STATS, 50, 0.1, 0.1, scheme, MC, grid_step=grid_step)
        assert sorted(args for args, _ in draw_calls) == STREAMS
        assert not any(draws.flags.writeable for _, draws in draw_calls)

    def test_quadrature_sweep_draws_nothing(self, draw_calls):
        theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.DF_PARALLEL, GL, grid_step=0.1)
        empty = DrawSet(GL)
        assert draw_calls == []
        assert (empty.spec, empty.w, empty.scratch) == (GL, [], [])

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("theta_step", [0.1, 0.05])
    def test_joint_allocation_draws_once_and_matches_standalone(self, draw_calls, scheme,
                                                                 theta_step):
        theta, d_s, d_r, best = joint_allocation(100.0, STATS, 50, scheme, MC,
                                                 theta_step=theta_step)
        assert sorted(args for args, _ in draw_calls) == STREAMS
        assert _bits(best) == _bits(_standalone(theta, d_s, d_r, scheme, MC))

    def test_shared_draws_are_read_only(self):
        draws = DrawSet(MC)
        assert draws.spec == MC
        assert [vector.tobytes() for vector in draws.w] == [exp_draws(*args).tobytes()
                                                            for args in STREAMS]
        for vector in draws.w:
            with pytest.raises(ValueError):
                vector[0] = 1.0
            with pytest.raises(ValueError):
                vector *= 2.0

    def test_draws_of_another_spec_change_nothing(self, draw_calls):
        DrawSet(ExpectationSpec(dims=3, samples=2_000, seed=54))  # the process keeps seed 54
        cfg = SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1, scheme=Scheme.AF)
        with_other = rate_curve([cfg, cfg], STATS, MC)
        assert [_bits(e) for e in with_other] == [_bits(af_rate(cfg, STATS, MC))] * 2
        # the kept draws lack seed 53, so the curve drew its streams itself
        assert sorted(args for args, _ in draw_calls[3:6]) == STREAMS

    def test_sweeps_leave_the_shared_draws_untouched(self, draw_calls):
        theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.AF, MC_FULL, grid_step=0.1)
        joint_allocation(100.0, STATS, 50, Scheme.AF, MC_FULL, theta_step=0.1)
        assert len(draw_calls) == 3  # the joint allocation reads the sweep's draws
        for args, shared in draw_calls:
            assert not shared.flags.writeable
            assert (hashlib.sha256(shared.tobytes()).hexdigest()
                    == hashlib.sha256(exp_draws(*args).tobytes()).hexdigest())

    @pytest.mark.parametrize("cpus", [None, 1, 64], ids=["usable_cpus", "one_cpu", "64_cpus"])
    @pytest.mark.parametrize("sweep", ["theta_sweep", "joint_allocation"])
    def test_peak_memory_of_a_warm_sweep(self, monkeypatch, thread_starts, sweep, cpus):
        # each of k kernel threads rescales into its own 4 scratch buffers of 10^5
        # floats, 3.2 MB; the reduction writes its deviations into the scratch, not
        # a new array. On one CPU no thread starts and the serial bound holds; on
        # 64, k is still 2.
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        run = {"theta_sweep": lambda: theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.AF,
                                                  MC_FULL, grid_step=0.1),
               "joint_allocation": lambda: joint_allocation(100.0, STATS, 50, Scheme.AF,
                                                            MC_FULL, theta_step=0.1)}[sweep]
        run()
        # the measured run evaluates every part again, over the kept draws
        monkeypatch.setattr(relayrates.rates, "_last_moments", None)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workers = _worker_count(MC_FULL.samples, 11)
        assert peak <= 4 * workers * 100_000 * 8 + 0.2e6
        if cpus == 1:
            assert peak <= 5.8e6 and thread_starts == []
        if cpus == 64:
            assert peak <= 4 * 2 * 100_000 * 8 + 0.2e6 and len(thread_starts) == 2  # 1 a run


@pytest.mark.parametrize("scheme", list(Scheme))
def test_threaded_points_equal_standalone_calls(monkeypatch, capsys, scheme):
    # every point of each grid search at 10^5 samples, its kernels dealt to 2
    # threads that switch every microsecond, equals its standalone rate call
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    curves = []
    original = relayrates.rates.rate_curve

    def recorded(cfgs, stats, spec):
        cfgs = list(cfgs)
        curves.append((cfgs, stats, spec, original(cfgs, stats, spec)))
        return curves[-1][-1]

    for module in (relayrates.optimize, relayrates.cli):
        monkeypatch.setattr(module, "rate_curve", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        theta_sweep(100.0, STATS, 50, 0.1, 0.1, scheme, MC_FULL, grid_step=0.05)
        joint_allocation(100.0, STATS, 50, scheme, MC_FULL, theta_step=0.05)
        code = relayrates.cli.main(["optimal-training", "--m", "50", "--pr", "40",
                                    "--sigma-rd", "4", "--ps", "60", "--sigma-sd", "1",
                                    "--sigma-sr", "4", "--scheme", scheme.value, "--seed", "53",
                                    "--delta-step", "0.05"])
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    assert code == 0 and [len(cfgs) for cfgs, *_ in curves] == [21, 41, 21]
    for cfgs, stats, spec, estimates in curves:
        assert spec == MC_FULL
        for cfg, estimate in zip(cfgs, estimates, strict=True):
            assert _bits(estimate) == _bits(rate(cfg, stats, spec))


@pytest.mark.parametrize("kernel, raised", [(None, "closed form"), (0, "kernel 0"),
                                            (1, "kernel 1"), (2, "kernel 2")])
def test_joint_allocation_stops_at_a_failing_closed_form(monkeypatch, kernel, raised):
    # theta 0 yields one config and theta 0.1 two, after 1 + 3 closed-form calls
    # (delta_r, then each source candidate); the fifth, theta 0.2's delta_r, fails.
    # The three configs before it are evaluated, on two threads, and the first
    # failure in grid order is raised.
    _cpus(monkeypatch, 4)
    rates = relayrates.rates
    closed_forms, order, evaluated = [], {}, []
    original_delta = relayrates.optimize.optimal_delta_r
    original_terms, original_kernels = rates._terms, rates._kernels

    def delta(*args, **kwargs):
        closed_forms.append(args)
        if len(closed_forms) == 5:
            raise ValueError("closed form failed")
        return original_delta(*args, **kwargs)

    def terms(*args):
        # the caller's thread checks the points in grid order; an AF point's one part,
        # which the kernels receive, names it
        result = original_terms(*args)
        order[result[0]] = len(order)
        return result

    def kernels(terms, spec, draws):
        point = order[terms[0]]
        evaluated.append(point)
        if point == kernel:
            raise ArithmeticError(f"kernel {point}")
        return original_kernels(terms, spec, draws)

    monkeypatch.setattr(relayrates.optimize, "optimal_delta_r", delta)
    monkeypatch.setattr(rates, "_terms", terms)
    monkeypatch.setattr(rates, "_kernels", kernels)
    with pytest.raises((ValueError, ArithmeticError), match=raised):
        joint_allocation(100.0, STATS, 50, Scheme.AF, MC, theta_step=0.1)
    assert len(closed_forms) == 5 and len(order) == 3
    if kernel is None:
        assert sorted(evaluated) == [0, 1, 2]
    else:  # the other thread may run its points too
        assert set(range(kernel + 1)) <= set(evaluated) <= {0, 1, 2}


class TestDrawMemo:
    """The last Monte Carlo spec's draws stay in the process for its next sets."""

    def test_sweeps_and_a_joint_allocation_of_one_spec_draw_once(self, draw_calls):
        curves = {scheme: theta_sweep(100.0, STATS, 50, 0.1, 0.1, scheme, MC, grid_step=0.1)
                  for scheme in (Scheme.AF, Scheme.DF_PARALLEL)}
        theta, d_s, d_r, best = joint_allocation(100.0, STATS, 50, Scheme.DF_REPETITION, MC,
                                                 theta_step=0.1)
        assert sorted(args for args, _ in draw_calls) == STREAMS
        for scheme, curve in curves.items():
            for point, estimate in curve:
                assert _bits(estimate) == _bits(_standalone(point, 0.1, 0.1, scheme, MC))
        assert _bits(best) == _bits(_standalone(theta, d_s, d_r, Scheme.DF_REPETITION, MC))

    def test_a_spec_drawn_again_after_another_gives_the_same_bytes(self, draw_calls):
        other = ExpectationSpec(dims=3, samples=3_000, seed=59)
        first = theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.AF, MC, grid_step=0.1)
        theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.AF, other, grid_step=0.1)
        again = theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.AF, MC, grid_step=0.1)
        assert len(draw_calls) == 9
        assert [args for args, _ in draw_calls[6:]] == [args for args, _ in draw_calls[:3]]
        assert sorted(args for args, _ in draw_calls[6:]) == STREAMS
        assert ([w.tobytes() for _, w in draw_calls[6:]]
                == [w.tobytes() for _, w in draw_calls[:3]])
        assert [(t, _bits(r)) for t, r in again] == [(t, _bits(r)) for t, r in first]

    @pytest.mark.parametrize("cpus", [None, 1, 64], ids=["usable_cpus", "one_cpu", "64_cpus"])
    def test_a_new_spec_keeps_the_sweep_peak(self, monkeypatch, thread_starts, cpus):
        # the first spec's kept vectors go when the second is drawn: 3 draws and
        # 4 scratch buffers of 10^5 floats per kernel thread at the peak (k = 2
        # on 64 CPUs); kept, 2.4 MB more
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        monkeypatch.setattr(relayrates.rates, "_last_draws", None)
        first = ExpectationSpec(dims=3, samples=100_000, seed=61)
        second = ExpectationSpec(dims=3, samples=100_000, seed=62)
        tracemalloc.start()
        try:
            theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.AF, first, grid_step=0.1)
            tracemalloc.reset_peak()
            theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.AF, second, grid_step=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workers = _worker_count(second.samples, 11)
        assert peak <= (3 + 4 * workers) * 100_000 * 8 + 0.2e6
        if cpus == 1:
            assert peak <= (3 + 4) * 100_000 * 8 + 0.2e6 and thread_starts == []
        if cpus == 64:
            assert peak <= (3 + 4 * 2) * 100_000 * 8 + 0.2e6 and len(thread_starts) == 2

    def test_kept_draws_stay_read_only(self):
        theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.AF, MC, grid_step=0.1)
        one, two = DrawSet(MC), DrawSet(MC)
        for mine, theirs, args in zip(one.w, two.w, STREAMS):
            assert np.shares_memory(mine, theirs)
            assert mine.tobytes() == exp_draws(*args).tobytes()
            with pytest.raises(ValueError):
                mine[0] = 1.0
            with pytest.raises(ValueError):
                mine.flags.writeable = True
        assert all(not np.shares_memory(a, b) for a in one.scratch for b in two.scratch)

    def test_quadrature_spec_draws_nothing_and_keeps_the_draws(self, draw_calls):
        theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.AF, MC, grid_step=0.1)
        kept = relayrates.rates._last_draws
        theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.DF_PARALLEL, GL, grid_step=0.1)
        assert relayrates.rates._last_draws is kept
        theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.AF, MC, grid_step=0.1)
        assert sorted(args for args, _ in draw_calls) == STREAMS


def _parts_run(monkeypatch) -> list:
    """The names of the parts whose kernels run, from any thread, in the order they run."""
    ran, original = [], relayrates.rates._kernels  # list.extend is atomic across threads

    def kernels(terms, spec, draws):
        ran.extend(name for name, *_ in terms)
        return original(terms, spec, draws)

    monkeypatch.setattr(relayrates.rates, "_kernels", kernels)
    return ran


class TestPartMoments:
    """A curve evaluates each distinct part once, and the last Monte Carlo curve's part
    moments serve the next curve of its spec; every point stays its standalone rate."""

    @pytest.mark.parametrize("search", ["theta_sweep", "joint_allocation"])
    def test_df_parallel_after_df_repetition_runs_no_relay_decoding(self, monkeypatch,
                                                                    search):
        _cpus(monkeypatch, 4)
        ran = _parts_run(monkeypatch)
        curves = {}
        for scheme in (Scheme.DF_REPETITION, Scheme.DF_PARALLEL):
            ran.clear()
            if search == "theta_sweep":
                curves[scheme] = [(theta, 0.1, 0.1, estimate) for theta, estimate in theta_sweep(
                    100.0, STATS, 50, 0.1, 0.1, scheme, MC, grid_step=0.05)]
            else:
                curves[scheme] = [joint_allocation(100.0, STATS, 50, scheme, MC,
                                                   theta_step=0.05)]
            points = {"theta_sweep": 21, "joint_allocation": 41}[search]
            # every point has its own source power or fraction, so its own relay decoding
            assert (ran.count(RELAY_DECODING), ran.count(COMBINING)) == (
                points if scheme is Scheme.DF_REPETITION else 0, points)
        for scheme, curve in curves.items():
            for theta, d_s, d_r, estimate in curve:
                alone = _standalone(theta, d_s, d_r, scheme, MC)
                assert (estimate.value.hex(), estimate.std_error.hex()) == (
                    alone.value.hex(), alone.std_error.hex())
                assert _bits(estimate) == _bits(alone)

    def test_a_delta_r_search_runs_one_relay_decoding_kernel(self, monkeypatch, capsys):
        # every grid point has the same source power and fraction, so one relay-decoding
        # part; at delta_r = 0 and 1 the relay's gain is 0, so one combining part too
        _cpus(monkeypatch, 4)
        ran = _parts_run(monkeypatch)
        code = relayrates.cli.main(["optimal-training", "--m", "50", "--pr", "40",
                                    "--sigma-rd", "4", "--ps", "60", "--sigma-sd", "1",
                                    "--sigma-sr", "4", "--scheme", "df-rep", "--seed", "53",
                                    "--samples", "2000", "--delta-step", "0.01"])
        out = capsys.readouterr().out
        assert code == 0 and "evaluations=101" in out
        assert (ran.count(RELAY_DECODING), ran.count(COMBINING)) == (1, 100)

    def test_a_repeated_curve_runs_no_kernel(self, monkeypatch, draw_calls):
        ran = _parts_run(monkeypatch)
        first = theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.DF_PARALLEL, MC, grid_step=0.1)
        kept = relayrates.rates._last_moments
        assert kept[:2] == (MC, np.geterr()) and len(kept[2]) == len(ran) == 22
        assert all(len(moments) == 2 for moments in kept[2].values())
        ran.clear()
        draw_calls.clear()
        again = theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.DF_PARALLEL, MC, grid_step=0.1)
        assert ran == [] and draw_calls == []
        assert [(t, _bits(r)) for t, r in again] == [(t, _bits(r)) for t, r in first]

    def test_parts_repeated_within_a_quadrature_curve_run_once(self, monkeypatch):
        ran = _parts_run(monkeypatch)
        cfg = SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1,
                           scheme=Scheme.DF_REPETITION)
        curve = rate_curve([cfg] * 3, STATS, GL)
        assert ran == [RELAY_DECODING, COMBINING]
        assert [_bits(e) for e in curve] == [_bits(rate(cfg, STATS, GL))] * 3

    @pytest.mark.parametrize("between", ["new spec", "quadrature", "failed curve", "errstate"])
    def test_only_the_last_curve_of_a_spec_serves_the_next(self, monkeypatch, between):
        ran = _parts_run(monkeypatch)

        def sweep(spec=MC):
            return theta_sweep(100.0, STATS, 50, 0.1, 0.1, Scheme.DF_REPETITION, spec,
                               grid_step=0.1)

        def failing():
            yield SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1,
                               scheme=Scheme.DF_REPETITION)
            raise ValueError("no config 1")

        first = sweep()
        other = ExpectationSpec(dims=3, samples=2_000, seed=54)
        if between == "new spec":
            sweep(other)
            assert relayrates.rates._last_moments[0] == other
        elif between == "quadrature":
            sweep(GL)
            assert relayrates.rates._last_moments is None
        elif between == "failed curve":
            with pytest.raises(ValueError, match="^no config 1$"):
                rate_curve(failing(), STATS, MC)
            assert relayrates.rates._last_moments is None
        else:
            with np.errstate(under="raise"):
                sweep()
        ran.clear()
        again = sweep()
        assert (ran.count(RELAY_DECODING), ran.count(COMBINING)) == (11, 11)
        assert [(t, _bits(r)) for t, r in again] == [(t, _bits(r)) for t, r in first]


FAULT_PROBE = """
import resource
from relayrates import ChannelStats, ExpectationSpec, Scheme, rates, theta_sweep

stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
spec = ExpectationSpec(dims=3, samples=100_000, seed=53)
for scheme in Scheme:
    theta_sweep(100.0, stats, 50, 0.1, 0.1, scheme, spec, grid_step=0.05)
    rates._last_moments = None  # every part runs again, over the kept draws
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    curve = theta_sweep(100.0, stats, 50, 0.1, 0.1, scheme, spec, grid_step=0.05)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print(scheme.value, len(curve), after - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_sweep_points_reuse_their_scratch_pages():
    """A 10^5-sample sweep point must not fault its temporaries in afresh.

    Freed 800 KB temporaries go back to the OS, so a point that allocates
    them takes about a thousand minor faults; one that reuses the sweep's
    scratch takes a few dozen. The probe runs in a fresh interpreter with
    the allocator's tuning variables removed, so none can mask a regression.
    """
    pytest.importorskip("resource")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    package_root = str(Path(relayrates.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, check=True,
                           capture_output=True, text=True)
    for line in probe.stdout.splitlines():
        scheme, points, faults = line.split()
        assert int(points) == 21
        assert int(faults) / int(points) <= 200, line
