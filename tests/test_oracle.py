import ast
import dataclasses
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import relayrates
from relayrates import (
    ChannelStats,
    ExpectationSpec,
    Method,
    Scheme,
    SystemConfig,
    af_rate,
    af_rate_logdet,
    closed_grid,
    data_symbol_energy,
    expect_over_exponentials,
    grid_argmax,
    logdet_integrand,
    max_identity_gap,
    mmse_quality,
    simulate_training_quality,
    snr_gain_g,
    snr_gain_g_coefficient,
    vector_channel_samples,
)
from relayrates import oracle
from relayrates.cli import AF_ORACLE_CONFIGS
from relayrates.rates import stream
from test_preset_bytes import recorded_build


def _cfg(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1):
    return SystemConfig(m=m, p_s=p_s, p_r=p_r, delta_s=delta_s, delta_r=delta_r,
                        scheme=Scheme.AF)


class TestTrainingSimulator:
    def test_no_pilot_leaves_prior_uncertainty(self):
        q = simulate_training_quality(2.0, 0.0, 50, 100.0, 1.0, trials=20_000, seed=4)
        assert q.var_estimate == 0.0
        assert abs(q.var_error - 4.0) <= 3.0 * 4.0 / math.sqrt(20_000)

    def test_matches_closed_form_reference(self):
        trials = 100_000
        q = simulate_training_quality(1.0, 0.1, 50, 100.0, 1.0, trials=trials, seed=8)
        expected = 1.0 / 501.0
        assert abs(q.var_error - expected) <= 3.0 * expected / math.sqrt(trials)

    def test_hand_evaluated_point(self):
        # sigma^2 = 4, pilot energy 0.5 * 10 * 1 = 5 -> error variance 4/21
        trials = 100_000
        q = simulate_training_quality(2.0, 0.5, 10, 1.0, 1.0, trials=trials, seed=9)
        expected = 4.0 / 21.0
        assert expected == pytest.approx(
            mmse_quality(2.0, 0.5, 10, 1.0, 1.0).var_error, rel=1e-12)
        assert abs(q.var_error - expected) <= 3.0 * expected / math.sqrt(trials)

    def test_agrees_with_closed_form_on_grid(self):
        trials = 50_000
        combos = [(s, d, m, p) for s in (0.5, 1.0, 2.0) for d in (0.05, 0.5)
                  for (m, p) in ((10, 1.0), (50, 100.0))]
        assert len(combos) >= 12
        for i, (sigma, delta, m, p) in enumerate(combos):
            expected = mmse_quality(sigma, delta, m, p, 1.0)
            measured = simulate_training_quality(sigma, delta, m, p, 1.0,
                                                 trials=trials, seed=100 + i)
            tol_err = 3.0 * expected.var_error / math.sqrt(trials)
            tol_est = 3.0 * max(expected.var_estimate, 1e-12) / math.sqrt(trials)
            assert abs(measured.var_error - expected.var_error) <= tol_err
            assert abs(measured.var_estimate - expected.var_estimate) <= tol_est

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_training_quality(1.0, 0.1, 50, 1.0, 0.0, trials=10, seed=0)
        with pytest.raises(ValueError):
            simulate_training_quality(1.0, 0.1, 50, 1.0, 1.0, trials=0, seed=0)


class TestRankOneDeterminant:
    def test_identity_on_random_draws(self):
        # det(I + p * a a^H M^-1) == 1 + p * a^H M^-1 a for any 2x1 a, PSD M
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            root = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = root @ root.conj().T + 1e-3 * np.eye(2)
            p = float(10.0 ** rng.uniform(-3, 3))
            lhs = np.linalg.det(np.eye(2) + p * np.outer(a, a.conj()) @ np.linalg.inv(m))
            rhs = 1.0 + p * (a.conj() @ np.linalg.inv(m) @ a)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


class TestLogdetOracle:
    def test_no_training_gives_zero(self):
        spec = ExpectationSpec(dims=3, samples=2_000, seed=2)
        rate = af_rate_logdet(_cfg(delta_s=0.0, delta_r=0.0), ChannelStats(1, 4, 4, 1), spec)
        assert rate.value == 0.0

    def test_dead_relay_destination_reduces_to_direct_link(self):
        spec = ExpectationSpec(dims=3, samples=200_000, seed=12)
        stats = ChannelStats(sigma_sd=1.0, sigma_sr=4.0, sigma_rd=1e-8, n0=1.0)
        from_matrix = af_rate_logdet(_cfg(), stats, spec)
        coefficient = snr_gain_g(0.1, 60.0, 1.0, 1.0, 50, 1.0)
        direct, _ = expect_over_exponentials(
            lambda x: np.log1p(coefficient * x),
            ExpectationSpec(dims=1, method=Method.GAUSS_LAGUERRE, nodes=64))
        assert from_matrix.value == pytest.approx(
            (50 - 2) / (2 * 50) * direct, abs=3.5 * from_matrix.std_error)

    @pytest.mark.parametrize("m,p_s,p_r,d_s,d_r,sigma,n0", [
        (50, 60.0, 40.0, 0.1, 0.1, (1.0, 4.0, 4.0), 1.0),
        (50, 50.0, 50.0, 0.1, 0.1, (1.0, 2.0, 1.0), 1.0),
        (50, 80.0, 20.0, 0.05, 0.3, (0.5, 5.0, 0.5), 1.0),
        (10, 30.0, 70.0, 0.2, 0.2, (2.0, 1.0, 3.0), 2.0),
        (100, 10.0, 90.0, 0.15, 0.05, (1.0, 10.0, 2.0), 0.5),
    ])
    def test_agrees_with_scalar_form(self, m, p_s, p_r, d_s, d_r, sigma, n0):
        stats = ChannelStats(*sigma, n0=n0)
        cfg = _cfg(m=m, p_s=p_s, p_r=p_r, delta_s=d_s, delta_r=d_r)
        spec = ExpectationSpec(dims=3, samples=100_000, seed=51)
        scalar = af_rate(cfg, stats, spec)
        matrix = af_rate_logdet(cfg, stats, spec)
        tolerance = 3.0 * math.hypot(scalar.std_error, matrix.std_error)
        assert abs(scalar.value - matrix.value) <= tolerance

    @pytest.mark.parametrize("cfg, spec, match", [
        (dataclasses.replace(_cfg(), scheme=Scheme.DF_PARALLEL),
         ExpectationSpec(dims=3, samples=100), "expected Scheme.AF"),
        (_cfg(), ExpectationSpec(dims=2, method=Method.GAUSS_LAGUERRE), "Monte Carlo only"),
    ])
    def test_requires_an_af_config_and_monte_carlo(self, cfg, spec, match):
        with pytest.raises(ValueError, match=match):
            af_rate_logdet(cfg, ChannelStats(1.0, 4.0, 4.0, 1.0), spec)

    def test_per_draw_identity(self):
        stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
        assert max_identity_gap(_cfg(), stats, seed=60, count=1_000) <= 1e-9

    def test_finite_and_agrees_at_high_power(self):
        # at P = 1e9 the non-Hermitian 2x2 determinant lost positivity on
        # most draws; the whitened form stays finite and exact
        stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
        cfg = _cfg(p_s=0.6e9, p_r=0.4e9)
        spec = ExpectationSpec(dims=3, samples=20_000, seed=0)
        scalar = af_rate(cfg, stats, spec)
        matrix = af_rate_logdet(cfg, stats, spec)
        assert math.isfinite(matrix.value) and math.isfinite(matrix.std_error)
        assert abs(scalar.value - matrix.value) <= 3.0 * math.hypot(scalar.std_error,
                                                                    matrix.std_error)
        assert max_identity_gap(cfg, stats, seed=0, count=1_000) <= 1e-9

    def test_indefinite_covariance_is_reported(self):
        sample = vector_channel_samples(_cfg(), ChannelStats(1.0, 4.0, 4.0, 1.0), seed=63,
                                        count=1)[0]
        broken = dataclasses.replace(sample, noise_cov=-sample.noise_cov)
        with pytest.raises(ArithmeticError, match="covariance"):
            logdet_integrand(broken, 1.0)

    def test_logdet_matches_slogdet_on_general_covariances(self):
        # the whitening must hold for any Hermitian positive-definite covariance,
        # not only the oracle's, whose off-diagonal is zero
        rng = np.random.default_rng(11)
        g = rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2))
        cov = g @ g.conj().transpose(0, 2, 1) + np.eye(2)
        a = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        assert np.min(np.abs(cov[:, 1, 0])) > 0.0
        outer = a[:, :, None] * a[:, None, :].conj()
        for energy in (0.5, 3.0, 30.0):
            product = np.eye(2) + energy * outer @ np.linalg.inv(cov)
            sign, reference = np.linalg.slogdet(product)
            np.testing.assert_allclose(sign, 1.0, atol=1e-12)
            np.testing.assert_allclose(oracle._logdet(energy, a, cov), reference, rtol=1e-12)

    @pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, 2.0]],
                                     [[1.0, 1j], [-1j, 1.0]],
                                     [[math.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, math.nan]],
                                     [[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]])
    def test_logdet_rejects_non_positive_definite_covariance(self, cov):
        with pytest.raises(ArithmeticError, match="positive definite"):
            oracle._logdet(1.0, np.ones((1, 2), dtype=complex), np.array([cov], dtype=complex))

    def test_zero_count_gives_no_samples(self):
        assert vector_channel_samples(_cfg(), ChannelStats(1.0, 4.0, 4.0, 1.0), seed=0,
                                      count=0) == []

    def test_peak_memory_of_one_call(self):
        # A, Cov and a few (n,) vectors are alive at once, never an (n, 2, 3) B
        spec = ExpectationSpec(dims=3, samples=100_000, seed=1)
        tracemalloc.start()
        try:
            af_rate_logdet(_cfg(), ChannelStats(1.0, 4.0, 4.0, 1.0), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6

    def test_vector_samples_respect_invariants(self):
        stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
        for sample in vector_channel_samples(_cfg(), stats, seed=61, count=50):
            diag = np.real(np.diag(sample.noise_cov))
            assert np.all(diag >= stats.n0 - 1e-12)
            assert sample.beta >= 0.0
            assert logdet_integrand(sample, 1.0) >= 0.0

    def test_batched_samples_match_per_draw_construction(self):
        # reference: beta, A and B D B^H built draw by draw from the estimates
        cfg, stats = _cfg(), ChannelStats(1.0, 4.0, 4.0, 1.0)
        q_sd = mmse_quality(stats.sigma_sd, cfg.delta_s, cfg.m, cfg.p_s, stats.n0)
        q_sr = mmse_quality(stats.sigma_sr, cfg.delta_s, cfg.m, cfg.p_s, stats.n0)
        q_rd = mmse_quality(stats.sigma_rd, cfg.delta_r, cfg.m, cfg.p_r, stats.n0)
        ex_s = data_symbol_energy(cfg.delta_s, cfg.m, cfg.p_s)
        ex_r = data_symbol_energy(cfg.delta_r, cfg.m, cfg.p_r)
        noise = np.diag([q_sr.var_error * ex_s + stats.n0, q_sd.var_error * ex_s + stats.n0,
                         q_rd.var_error * ex_r + stats.n0])
        for sample in vector_channel_samples(cfg, stats, seed=62, count=20):
            beta = math.sqrt(ex_r / (abs(sample.h_hat_sr) ** 2 * ex_s + noise[0, 0]))
            relayed = sample.h_hat_rd * beta
            b_mat = np.array([[0.0, 1.0, 0.0], [relayed, 0.0, 1.0]])
            assert sample.beta == pytest.approx(beta, rel=1e-14)
            np.testing.assert_allclose(sample.a_vec, [sample.h_hat_sd, relayed * sample.h_hat_sr],
                                       rtol=1e-14)
            np.testing.assert_allclose(sample.noise_cov, b_mat @ noise @ b_mat.conj().T,
                                       rtol=1e-14, atol=1e-14)


def _af_case(m, p_s, p_r, d_s, d_r, sigma, n0):
    return _cfg(m=m, p_s=p_s, p_r=p_r, delta_s=d_s, delta_r=d_r), ChannelStats(*sigma, n0=n0)


# the verify configs and one at P = 1e9
KERNEL_CONFIGS = AF_ORACLE_CONFIGS + ((50, 0.6e9, 0.4e9, 0.1, 0.1, (1.0, 4.0, 4.0), 1.0),)


class TestBitForBitKernels:
    """The hand-written kernels must match their plain numpy forms in every bit."""

    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    def test_covariance_is_batched_b_d_bh(self, config):
        cfg, stats = _af_case(*config)
        for seed in range(3):
            (_, _, h_rd), beta, _, cov, (_, _, ez_r, ez_d, ez_dr) = oracle._vector_channel(
                cfg, stats, seed, 20_000)
            b = np.zeros((len(beta), 2, 3), dtype=complex)
            b[:, 0, 1] = 1.0
            b[:, 1, 0] = h_rd * beta
            b[:, 1, 2] = 1.0
            expected = (b * np.array([ez_r, ez_d, ez_dr])) @ b.conj().transpose(0, 2, 1)
            assert cov.shape == expected.shape
            assert np.array_equal(cov.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    def test_logdet_matches_lapack_route(self, config):
        cfg, stats = _af_case(*config)
        for seed in range(3):
            _, _, a, cov, (ex_s, *_) = oracle._vector_channel(cfg, stats, seed, 20_000)
            chol = np.linalg.cholesky(cov)
            w0 = a[:, 0] / chol[:, 0, 0]
            w1 = (a[:, 1] - chol[:, 1, 0] * w0) / chol[:, 1, 1]
            energy = w0.real ** 2 + w0.imag ** 2 + (w1.real ** 2 + w1.imag ** 2)
            expected = np.log1p(ex_s * energy)
            got = oracle._logdet(ex_s, a, cov)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("variance", [0.0, 1e-300, 0.3, 1.0, 17.0, 1e12])
    def test_complex_normal_is_scaled_pair(self, variance):
        n = 10_001
        got = oracle._complex_normal(stream(5, 16), variance, n)
        gen = stream(5, 16)
        scale = math.sqrt(variance / 2.0)
        expected = scale * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
        assert got.dtype == complex and got.shape == (n,)
        if variance == 0.0:
            assert np.array_equal(got.view(np.uint64), np.zeros(2 * n, dtype=np.uint64))
        else:
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestGridArgmax:
    def test_constant_ties_to_left_endpoint(self):
        result = grid_argmax(lambda x: np.full(len(x), 0.7), 0.0, 1.0, 0.1)
        assert result.argument == 0.0
        assert result.rate.value == 0.7

    def test_quadratic_vertex(self):
        result = grid_argmax(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 1e-4)
        assert abs(result.argument - 0.3) <= 5e-5

    def test_snr_coefficient_argmax(self):
        result = grid_argmax(lambda a: snr_gain_g_coefficient(a, 100.0, 1.0, 1.0, 50),
                             0.0, 1.0, 1e-4)
        assert result.argument == pytest.approx(0.170, abs=1e-3)

    def test_endpoints_included(self):
        seen = []
        grid_argmax(lambda x: seen.extend(x) or np.zeros(len(x)), 0.0, 1.0, 0.1)
        assert seen[0] == 0.0 and seen[-1] == 1.0
        assert len(seen) == 11

    def test_uneven_step_still_reaches_upper_endpoint(self):
        seen = []
        grid_argmax(lambda x: seen.extend(x) or np.zeros(len(x)), 0.0, 1.0, 0.07)
        assert seen[0] == 0.0 and seen[-1] == 1.0

    def test_result_beats_neighbors(self):
        objective = lambda x: np.sin(5.0 * x) + 0.2 * x
        result = grid_argmax(objective, 0.0, 1.0, 0.01)
        step = 0.01
        left = max(0.0, result.argument - step)
        right = min(1.0, result.argument + step)
        assert objective(result.argument) >= objective(left)
        assert objective(result.argument) >= objective(right)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            grid_argmax(lambda x: x, 1.0, 0.0, 0.01)
        with pytest.raises(ValueError):
            grid_argmax(lambda x: x, 0.0, 1.0, 0.2)

    def test_non_finite_objective_aborts(self):
        with pytest.raises(ArithmeticError):
            grid_argmax(lambda x: np.where(x > 0.5, math.inf, 0.0), 0.0, 1.0, 0.1)

    def test_negative_maximum_is_named(self):
        with pytest.raises(ValueError, match=r"^objective maximum \(at 0\.3\) .* got -1\.0$"):
            grid_argmax(lambda x: -1.0 - (x - 0.3) ** 2, 0.0, 1.0, 0.1)

    def test_objective_called_once_with_the_whole_grid(self):
        calls = []
        result = grid_argmax(lambda x: calls.append(x) or -((x - 0.3) ** 2), 0.0, 1.0, 1e-4)
        assert len(calls) == 1
        grid = calls[0]
        assert isinstance(grid, np.ndarray) and grid.dtype == float
        assert grid.tolist() == closed_grid(0.0, 1.0, 1e-4)
        assert result.evaluations == grid.size == 10_001

    @pytest.mark.parametrize("objective", [lambda x: 0.7, lambda x: np.zeros(len(x) - 1),
                                           lambda x: np.zeros(len(x) + 1),
                                           lambda x: np.zeros((len(x), 1)), lambda x: []])
    def test_wrong_length_result_rejected(self, objective):
        with pytest.raises(ValueError, match="objective returned shape"):
            grid_argmax(objective, 0.0, 1.0, 0.1)


def _parse(module: str) -> ast.Module:
    return ast.parse((Path(relayrates.__file__).parent / f"{module}.py").read_text())


def _imported_modules(module: str) -> set[str]:
    """Last name component of every module a package source file imports."""
    tree = _parse(module)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)  # from . import optimize
    return names


def test_oracle_and_optimizer_do_not_import_each_other():
    # the oracle checks the optimizer, so it must not share code with it
    assert "optimize" not in _imported_modules("oracle")
    assert "oracle" not in _imported_modules("optimize")


def test_oracle_uses_no_linalg():
    # the oracle factors its 2x2 covariances itself, so its digests below do
    # not depend on the LAPACK that numpy links
    nodes = list(ast.walk(_parse("oracle")))
    names = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names |= {node.id for node in nodes if isinstance(node, ast.Name)}
    assert "linalg" not in names | _imported_modules("oracle")


def test_no_module_imports_threads():
    # theta_sweep has one serial path, so a sweep holds one draw set's memory
    # ("futures" is concurrent.futures)
    for path in Path(relayrates.__file__).parent.glob("*.py"):
        assert not {"threading", "futures"} & _imported_modules(path.stem), path.name


# SHA-256 per AF_ORACLE_CONFIGS entry over the float.hex of af_rate_logdet
# (value, SE) at 10^5 samples, max_identity_gap over 200 draws and
# simulate_training_quality (both variances, 10^5 trials, each of the three
# links), seeds 0-3. Recorded while _vector_channel still formed B D B^H with
# one batched matmul and _complex_normal returned scale * (x + 1j*y). The
# verify report prints only pass counts and a 4-digit gap, so these pin the
# last bit of the oracle. Like the preset digests they depend on numpy's
# Philox stream and log1p; the oracle factors its covariances without
# np.linalg, so they do not depend on the LAPACK that numpy links.
ORACLE_SHA256 = (
    "01ff064d712ba1e7f7f2d309daf10507135861d93fceb7243a6ad5b61de5551b",
    "854aea28f478d5c34c2fd8f8a61954e1bee00741f010e2db4434c4931575e2d8",
    "b81c0f27a94f2ac3736b607916d362731a65c9a65f0767cb49834588edde068b",
    "f90ae2d00c2629b88cbf0b6570499a7ba4591d1e1d8bb77ff629ff5244c8cd62",
    "e7de877742051e4197048b78ad7f82384603993c3dab2690c9aa11a38b2c1b50",
)


@recorded_build
@pytest.mark.parametrize("index", range(len(AF_ORACLE_CONFIGS)))
def test_oracle_outputs_are_pinned(index):
    m, p_s, p_r, d_s, d_r, sigma, n0 = AF_ORACLE_CONFIGS[index]
    cfg, stats = _af_case(*AF_ORACLE_CONFIGS[index])
    links = ((sigma[0], d_s, p_s), (sigma[1], d_s, p_s), (sigma[2], d_r, p_r))
    digest = hashlib.sha256()
    for seed in range(4):
        rate = af_rate_logdet(cfg, stats, ExpectationSpec(dims=3, samples=100_000, seed=seed))
        values = [rate.value, rate.std_error, max_identity_gap(cfg, stats, seed, 200)]
        for s, d, p in links:
            q = simulate_training_quality(s, d, m, p, n0, 100_000, seed)
            values += [q.var_estimate, q.var_error]
        digest.update(" ".join(v.hex() for v in values).encode() + b"\n")
    assert digest.hexdigest() == ORACLE_SHA256[index]
