import math
import os
import platform
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
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
from relayrates.rates import (MAX_NODES, MAX_SAMPLES, MAX_WORKERS, THREADED_SAMPLES, DrawSet,
                              _concurrently, _over_parts, _worker_count, rate, rate_curve,
                              stream)
from conftest import _cpus
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
    return rate(_cfg(scheme=scheme, **cfg), _stats(sd, sr, rd, n0), spec)


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

    def test_back_to_back_draws_equal_fresh_streams(self):
        # each call re-keys the thread's one generator, so no odd-length draw, and no
        # half-used 64-bit word of another draw, leaks into the next call's bits
        keys = [(0, W_SD), (9, W_SR), (2**64 - 1, W_RD), (12345, 2**64 - 1)]
        for n in (0, 1, 3, 5, 8191, 10**6):
            for seed, tag in keys:
                expected = -np.log1p(-stream(seed, tag).random(n))
                assert exp_draws(seed, tag, n).tobytes() == expected.tobytes(), (seed, tag, n)
                relayrates.rates._thread.gen.integers(0, 2**32, 1, dtype=np.uint32)

    def test_each_thread_draws_its_own_serial_bits(self):
        # four threads, each drawing its own odd-length stream, under a short switch interval
        keys = [(3, W_SR), (4, W_RD), (5, W_SD), (2**64 - 1, W_SR)]
        expected = [{exp_draws(seed, tag, 257).tobytes()} for seed, tag in keys]
        got = [set() for _ in keys]
        barrier = threading.Barrier(len(keys))

        def draw(i):
            barrier.wait()
            for _ in range(500):
                got[i].add(exp_draws(*keys[i], 257).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(keys))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_a_warm_rate_call_builds_no_generator(self, monkeypatch, scheme):
        spec = ExpectationSpec(dims=3, samples=10_000, seed=4)
        rate(_cfg(scheme=scheme), _stats(), spec)
        built, philox = [], np.random.Philox

        def counted(*args, **kwargs):
            built.append(args + tuple(kwargs.items()))
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        for seed in range(3):
            rate(_cfg(scheme=scheme), _stats(), replace(spec, seed=seed))
        assert built == []
        fresh = threading.Thread(target=lambda: [rate(_cfg(scheme=scheme), _stats(), spec)
                                                 for _ in range(2)])
        fresh.start()
        fresh.join(timeout=60)
        assert not fresh.is_alive() and len(built) == 1  # a new thread builds its own generator once

    def test_stream_still_builds_a_generator_per_call(self):
        first, second = stream(3, W_SR), stream(3, W_SR)
        assert first is not second and first.bit_generator is not second.bit_generator
        assert first.random(3).tobytes() == second.random(3).tobytes()
        assert first.random(5).tobytes() == second.random(5).tobytes()

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
        draws = DrawSet(spec)  # the vectors every set of the curve below shares
        before = [vector.tobytes() for vector in draws.w]
        curve = rate_curve([_cfg(scheme=scheme)] * 3, _stats(), spec)
        assert [vector.tobytes() for vector in draws.w] == before
        alone = rate(_cfg(scheme=scheme), _stats(), spec)
        for shared in curve:
            assert (shared.value, shared.std_error, shared.parts) == (
                alone.value, alone.std_error, alone.parts)


@pytest.mark.parametrize("scheme, limit, samples", [
    (Scheme.AF, 3.3e6, 100_000), (Scheme.DF_REPETITION, 1.7e6, 100_000),
    (Scheme.DF_PARALLEL, 1.7e6, 100_000),
    # the point workload's size, at the same limit per float
    (Scheme.AF, 3.3e5, 10_000), (Scheme.DF_REPETITION, 1.7e5, 10_000),
    (Scheme.DF_PARALLEL, 1.7e5, 10_000),
])
def test_peak_memory_of_a_standalone_call(scheme, limit, samples):
    # 10^5 floats are 0.8 MB: AF holds its three scaled draws and one denominator,
    # DF its two combining draws, and no call copies a draw or its deviations
    spec = ExpectationSpec(dims=3, samples=samples, seed=1)
    rate(_cfg(scheme=scheme), _stats(), spec)
    tracemalloc.start()
    try:
        rate(_cfg(scheme=scheme), _stats(), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


CURVE_SPEC = ExpectationSpec(dims=3, samples=2_000, seed=7)


def _powers(count):
    """AF configs told apart by their source power, so each has its own gains."""
    return [_cfg(p_s=10.0 + i) for i in range(count)]


def _fail_kernels(monkeypatch, cfgs, stats, bad, before=lambda i: None):
    """Make the kernels of the points at the indices ``bad`` raise an error naming the point;
    each kernel first calls ``before`` with the index of its point."""
    index = {tuple(relayrates.rates._gains(cfg, stats)): i for i, cfg in enumerate(cfgs)}
    original = relayrates.rates._kernels

    def kernels(terms, spec, draws):
        i = index.get(tuple(terms[0][2]))
        before(i)
        if i in bad:
            raise ArithmeticError(f"kernel {i}")
        return original(terms, spec, draws)

    monkeypatch.setattr(relayrates.rates, "_kernels", kernels)


def _joining(monkeypatch) -> threading.Event:
    """An event set as soon as any thread is joined, before the join waits."""
    joining, original = threading.Event(), threading.Thread.join

    def join(thread, timeout=None):
        joining.set()
        return original(thread, timeout)

    monkeypatch.setattr(threading.Thread, "join", join)
    return joining


def _raised(call):
    with pytest.raises(Exception) as excinfo:
        call()
    return type(excinfo.value), str(excinfo.value)


class TestRateCurve:
    """``rate_curve`` runs the points' kernels on k threads, and gives what a loop of
    ``rate`` calls gives: the same estimates, or the same first error."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("samples", [1, THREADED_SAMPLES - 1, THREADED_SAMPLES, 100_000,
                                         MAX_SAMPLES // 2, MAX_SAMPLES // 2 + 1, MAX_SAMPLES])
    @pytest.mark.parametrize("points", [0, 1, 101])
    def test_worker_count(self, monkeypatch, cpus, samples, points):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        workers = _worker_count(samples, points)
        threaded = samples >= THREADED_SAMPLES
        assert workers == (max(1, min(cpus, points, 2, MAX_SAMPLES // samples)) if threaded
                           else 1)
        assert workers <= MAX_WORKERS == 2  # a sweep's scratch does not grow with the host
        assert workers * samples <= MAX_SAMPLES  # nor beyond one serial sweep's at the cap

    @pytest.mark.parametrize("cpu_count, workers", [(3, 2), (None, 1)])
    def test_worker_count_without_affinity(self, monkeypatch, cpu_count, workers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert _worker_count(100_000, 101) == workers

    def test_one_worker_starts_no_thread(self, monkeypatch, thread_starts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # each MC curve drops the last one's moments first, so its every point has a kernel
        rate_curve(_powers(5), _stats(), CURVE_SPEC)  # below THREADED_SAMPLES
        _cpus(monkeypatch, 1)
        monkeypatch.setattr(relayrates.rates, "_last_moments", None)
        rate_curve(_powers(5), _stats(), CURVE_SPEC)
        gl = ExpectationSpec(dims=2, method=Method.GAUSS_LAGUERRE, nodes=16)
        _cpus(monkeypatch, 4)
        rate_curve([_cfg(scheme=Scheme.DF_PARALLEL, p_s=10.0 + i) for i in range(5)], _stats(),
                   gl)
        assert thread_starts == []
        monkeypatch.setattr(relayrates.rates, "_last_moments", None)
        rate_curve(_powers(3), _stats(), CURVE_SPEC)  # the caller is the other worker
        assert len(thread_starts) == 1 and not any(t.is_alive() for t in thread_starts)

    @pytest.mark.parametrize("where", ["kernel", "join"])
    def test_an_interrupt_stops_the_threads(self, monkeypatch, thread_starts, where):
        # the worker thread takes 10 ms a point; the caller is interrupted in its
        # own kernel or, done with its points, while it waits for the worker
        _cpus(monkeypatch, 2)
        cfgs, stats = _powers(40), _stats()
        caller, worker = threading.get_ident(), []
        original_kernels, original_join = relayrates.rates._kernels, threading.Thread.join

        def kernels(terms, spec, draws):
            if threading.get_ident() != caller:
                worker.append(terms)
                time.sleep(0.01)
            elif where == "kernel":
                raise KeyboardInterrupt
            return original_kernels(terms, spec, draws)

        def join(thread, timeout=None):
            if where == "join" and thread_starts[-1] is thread and not join.interrupted:
                join.interrupted = True
                raise KeyboardInterrupt
            return original_join(thread, timeout)

        join.interrupted = False
        monkeypatch.setattr(relayrates.rates, "_kernels", kernels)
        monkeypatch.setattr(threading.Thread, "join", join)
        with pytest.raises(KeyboardInterrupt):
            rate_curve(cfgs, stats, CURVE_SPEC)
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
        assert len(worker) < 10  # of its 20 points

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_points_equal_standalone_calls_on_every_thread(self, monkeypatch, scheme):
        _cpus(monkeypatch, 4)
        cfgs = [_cfg(scheme=scheme, p_s=10.0 + i) for i in range(9)]
        curve = rate_curve(iter(cfgs), _stats(), CURVE_SPEC)
        assert curve == [rate(cfg, _stats(), CURVE_SPEC) for cfg in cfgs]

    # with 2 workers, point i runs on thread i % 2, the caller's when i is even
    @pytest.mark.parametrize("bad", [{2, 5}, {5, 2, 7}, {3, 6}, {7}, {0, 1}, {4, 1}])
    def test_first_failing_kernel_in_grid_order(self, monkeypatch, bad):
        _cpus(monkeypatch, 4)
        cfgs, stats = _powers(8), _stats()
        _fail_kernels(monkeypatch, cfgs, stats, bad)
        with pytest.raises(ArithmeticError, match=f"^kernel {min(bad)}$"):
            rate_curve(cfgs, stats, CURVE_SPEC)

    @pytest.mark.parametrize("bad", [2, 3, 4, 5])
    def test_no_point_after_a_failed_one_starts(self, monkeypatch, thread_starts, bad):
        # with 2 workers the other thread holds point bad - 1; its kernel waits until the
        # failing thread is done with its points (the caller joins, or the worker ends),
        # and then no thread starts a point after bad
        _cpus(monkeypatch, 2)
        cfgs, stats = _powers(9), _stats()
        started, joining = [], _joining(monkeypatch)

        def before(i):
            started.append(i)
            if i == bad - 1 and bad % 2:  # on the caller's thread, the worker failing
                thread_starts[0].join(10)
            elif i == bad - 1:
                assert joining.wait(10)

        _fail_kernels(monkeypatch, cfgs, stats, {bad}, before)
        with pytest.raises(ArithmeticError, match=f"^kernel {bad}$"):
            rate_curve(cfgs, stats, CURVE_SPEC)
        assert sorted(started) == list(range(bad + 1)) and not thread_starts[0].is_alive()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_concurrently_deals_call_i_to_thread_i_mod_k(self, thread_starts, workers):
        ran_on = {}

        def call(i):
            ran_on[i] = threading.current_thread()
            return i * i

        assert _concurrently([partial(call, i) for i in range(7)], workers) == [
            i * i for i in range(7)]
        assert len(thread_starts) == workers - 1
        assert not any(thread.is_alive() for thread in thread_starts)
        threads = [threading.current_thread(), *thread_starts]
        assert all(ran_on[i] is threads[i % workers] for i in range(7))
        assert _concurrently([], workers) == [] and len(thread_starts) == workers - 1

    def test_concurrently_under_a_short_switch_interval(self, thread_starts):
        # 4 threads on fewer cores, switching every microsecond: each call runs once and
        # keeps its result, and with failures every call before the first one still runs
        runs, bad = [], set()

        def call(i):
            runs.append(i)
            if i in bad:
                raise ValueError(i)
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _concurrently([partial(call, i) for i in range(2000)], 4) == list(range(2000))
            assert sorted(runs) == list(range(2000))
            runs.clear()
            bad.update({1203, 1201, 1500})
            with pytest.raises(ValueError, match="^1201$"):
                _concurrently([partial(call, i) for i in range(2000)], 4)
        finally:
            sys.setswitchinterval(interval)
        assert set(range(1202)) <= set(runs) and len(runs) == len(set(runs))
        assert len(thread_starts) == 6 and not any(t.is_alive() for t in thread_starts)

    def test_concurrently_starts_no_call_after_an_interrupt(self, monkeypatch, thread_starts):
        # the caller is interrupted in call 4 while the other thread holds call 1, which
        # returns once the caller joins: call 3 comes before 4, yet it never starts
        started, joining = [], _joining(monkeypatch)

        def call(i):
            started.append(i)
            if i == 1:
                assert joining.wait(10)
            elif i == 4:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _concurrently([partial(call, i) for i in range(9)], 2)
        assert sorted(started) == [0, 1, 2, 4] and not thread_starts[0].is_alive()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 3, 10**5])
    def test_over_parts_runs_part_j_on_thread_j(self, monkeypatch, thread_starts, cpus, n):
        # k consecutive slices that cover range(n) exactly once, k = _worker_count(n, 2)
        _cpus(monkeypatch, cpus)
        k = _worker_count(n, 2)
        assert k == (1 if cpus == 1 or n == 0 else 2)
        ran_on = []

        def part(piece: slice) -> range:
            ran_on.append((piece, threading.current_thread()))
            return range(n)[piece]

        pieces = _over_parts(part, n)
        assert [i for piece in pieces for i in piece] == list(range(n)) and len(pieces) == k
        assert len(thread_starts) == k - 1 and not any(t.is_alive() for t in thread_starts)
        threads = [threading.current_thread(), *thread_starts]
        assert sorted(ran_on, key=lambda run: (run[0].start, run[0].stop)) == [
            (slice(n * j // k, n * (j + 1) // k), threads[j]) for j in range(k)]

    @pytest.mark.parametrize("failing", [{0}, {1}, {0, 1}])
    def test_over_parts_raises_what_concurrently_raises(self, monkeypatch, failing):
        _cpus(monkeypatch, 2)

        def part(piece: slice) -> None:
            if piece.start // 5 in failing:
                raise ValueError(f"part {piece.start // 5}")

        with pytest.raises(ValueError, match=f"^part {min(failing)}$"):
            _over_parts(part, 10)

    @pytest.mark.parametrize("source", ["config", "iterator"])
    @pytest.mark.parametrize("kernel, caller", [(5, 2), (1, 4), (3, 6), (6, 0), (2, 3)])
    def test_a_failure_raises_what_a_loop_of_rate_calls_raises(self, monkeypatch, source,
                                                               kernel, caller):
        # a point fails on a kernel thread, and another on the caller's thread: in
        # its gain check, or as an error from the iterator of configs
        _cpus(monkeypatch, 4)
        cfgs, stats = _powers(8), _stats()
        _fail_kernels(monkeypatch, cfgs, stats, {kernel})
        if source == "config":
            cfgs[caller] = _cfg(p_s=1e305)  # b*b overflows in the sd gain

        def configs():
            for i, cfg in enumerate(cfgs):
                if source == "iterator" and i == caller:
                    raise ValueError(f"no config {i}")
                yield cfg

        serial = _raised(lambda: [rate(cfg, stats, CURVE_SPEC) for cfg in configs()])
        assert _raised(lambda: rate_curve(configs(), stats, CURVE_SPEC)) == serial
        assert ("kernel" in serial[1]) == (kernel < caller)

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_threads_run_under_the_callers_errstate(self, monkeypatch, index):
        # 10^-100 powers give gains near 10^-200, whose products underflow
        _cpus(monkeypatch, 4)
        cfgs, stats = _powers(4), _stats()
        cfgs[index] = _cfg(p_s=1e-100, p_r=1e-100)
        with np.errstate(under="raise"):
            serial = _raised(lambda: [rate(cfg, stats, CURVE_SPEC) for cfg in cfgs])
            assert _raised(lambda: rate_curve(cfgs, stats, CURVE_SPEC)) == serial
        assert serial == (FloatingPointError, "underflow encountered in multiply")
        with np.errstate(under="ignore"):
            assert rate_curve(cfgs, stats, CURVE_SPEC)[index] == rate(cfgs[index], stats,
                                                                      CURVE_SPEC)

    @pytest.mark.parametrize("first", [1, 2])
    def test_a_shared_part_fails_as_the_first_point_using_it(self, monkeypatch, first):
        # the points from ``first`` on share one relay-decoding part, whose squared
        # deviations underflow: point ``first`` evaluates it, on thread first % 2
        _cpus(monkeypatch, 4)
        stats = _stats()
        cfgs = [_cfg(scheme=Scheme.DF_REPETITION, p_s=1e-100 if i >= first else 60.0,
                     delta_r=0.05 * (i + 1)) for i in range(6)]
        with np.errstate(under="raise"):
            serial = _raised(lambda: [rate(cfg, stats, CURVE_SPEC) for cfg in cfgs])
            assert _raised(lambda: rate_curve(cfgs, stats, CURVE_SPEC)) == serial
            with pytest.raises(FloatingPointError):
                rate(cfgs[first], stats, CURVE_SPEC)
            rate(cfgs[first - 1], stats, CURVE_SPEC)
        assert serial == (FloatingPointError, "underflow encountered in multiply")
        with np.errstate(under="ignore"):
            assert rate_curve(cfgs, stats, CURVE_SPEC) == [rate(cfg, stats, CURVE_SPEC)
                                                            for cfg in cfgs]

    @pytest.mark.parametrize("index", [1, 3])
    def test_a_warning_made_an_error_propagates_from_a_thread(self, monkeypatch, index):
        _cpus(monkeypatch, 4)
        cfgs, stats = _powers(4), _stats()
        cfgs[index] = _cfg(p_s=1e-100, p_r=1e-100)
        with warnings.catch_warnings(), np.errstate(under="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="underflow"):
                rate_curve(cfgs, stats, CURVE_SPEC)


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

    @pytest.mark.parametrize("alias, own, other", [
        (alias, own, other)
        for alias, own in ((af_rate, Scheme.AF), (df_repetition_rate, Scheme.DF_REPETITION),
                           (df_parallel_rate, Scheme.DF_PARALLEL))
        for other in Scheme if other is not own], ids=lambda v: getattr(v, "value", None))
    def test_requires_matching_scheme_and_method(self, alias, own, other):
        # each alias of ``rate`` checks that the config is of its own scheme
        spec = ExpectationSpec(dims=3, samples=100, seed=0)
        message = f"config scheme is {other}, expected {own}"
        with pytest.raises(ValueError, match=re.escape(message)):
            alias(_cfg(scheme=other), _stats(), spec)
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
