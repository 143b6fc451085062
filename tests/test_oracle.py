import ast
import math
from pathlib import Path

import numpy as np
import pytest

import relayrates
from relayrates import (
    ChannelStats,
    ExpectationSpec,
    Method,
    Scheme,
    SearchMethod,
    SystemConfig,
    af_rate,
    af_rate_logdet,
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

    def test_per_draw_identity(self):
        stats = ChannelStats(1.0, 4.0, 4.0, 1.0)
        assert max_identity_gap(_cfg(), stats, seed=60, count=1_000) <= 1e-9

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


class TestGridArgmax:
    def test_constant_ties_to_left_endpoint(self):
        result = grid_argmax(lambda x: 0.7, 0.0, 1.0, 0.1)
        assert result.argument == 0.0
        assert result.rate.value == 0.7
        assert result.method is SearchMethod.GRID

    def test_quadratic_vertex(self):
        result = grid_argmax(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 1e-4)
        assert abs(result.argument - 0.3) <= 5e-5

    def test_snr_coefficient_argmax(self):
        result = grid_argmax(lambda a: float(snr_gain_g_coefficient(a, 100.0, 1.0, 1.0, 50)),
                             0.0, 1.0, 1e-4)
        assert result.argument == pytest.approx(0.170, abs=1e-3)

    def test_endpoints_included(self):
        seen = []
        grid_argmax(lambda x: seen.append(x) or 0.0, 0.0, 1.0, 0.1)
        assert seen[0] == 0.0 and seen[-1] == 1.0
        assert len(seen) == 11

    def test_uneven_step_still_reaches_upper_endpoint(self):
        seen = []
        grid_argmax(lambda x: seen.append(x) or 0.0, 0.0, 1.0, 0.07)
        assert seen[0] == 0.0 and seen[-1] == 1.0

    def test_result_beats_neighbors(self):
        objective = lambda x: math.sin(5.0 * x) + 0.2 * x
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
            grid_argmax(lambda x: math.inf if x > 0.5 else 0.0, 0.0, 1.0, 0.1)


def _imported_modules(module: str) -> set[str]:
    """Last name component of every module a package source file imports."""
    tree = ast.parse((Path(relayrates.__file__).parent / f"{module}.py").read_text())
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
