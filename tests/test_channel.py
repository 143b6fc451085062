import math

import pytest
from hypothesis import given, strategies as st

from relayrates import (
    ChannelStats,
    EstimationQuality,
    Scheme,
    SystemConfig,
    data_symbol_energy,
    mmse_quality,
)


class TestMmseQuality:
    def test_no_training_keeps_prior(self):
        q = mmse_quality(1.0, 0.0, 50, 100.0, 1.0)
        assert q.var_error == 1.0
        assert q.var_estimate == 0.0

    def test_zero_channel_is_deterministic(self):
        q = mmse_quality(0.0, 0.1, 50, 100.0, 1.0)
        assert q.var_error == 0.0
        assert q.var_estimate == 0.0

    def test_reference_point(self):
        # sigma^2 = 1, pilot energy 0.1 * 50 * 100 = 500
        q = mmse_quality(1.0, 0.1, 50, 100.0, 1.0)
        assert q.var_error == pytest.approx(1.0 / 501.0, rel=1e-12)
        assert q.var_estimate == pytest.approx(500.0 / 501.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [
        dict(sigma=-1.0), dict(n0=0.0), dict(n0=-2.0),
        dict(delta=-0.1), dict(delta=1.5), dict(p=-1.0), dict(m=4),
    ])
    def test_rejects_bad_inputs(self, bad):
        kwargs = dict(sigma=1.0, delta=0.1, m=50, p=100.0, n0=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            mmse_quality(**kwargs)

    @given(
        sigma=st.floats(0.01, 50.0),
        delta=st.floats(0.0, 1.0),
        m=st.integers(6, 500).map(lambda k: 2 * k),
        p=st.floats(0.0, 1e6),
        n0=st.floats(1e-6, 1e3),
    )
    def test_decomposition_recovers_prior_variance(self, sigma, delta, m, p, n0):
        q = mmse_quality(sigma, delta, m, p, n0)
        assert q.var_estimate + q.var_error == pytest.approx(sigma * sigma, rel=1e-12)
        assert q.var_error <= sigma * sigma * (1 + 1e-12)

    def test_error_variance_decreases_with_pilot_energy(self):
        errors = [mmse_quality(2.0, d, 50, 10.0, 1.0).var_error for d in (0.0, 0.1, 0.5, 1.0)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        estimates = [mmse_quality(2.0, d, 50, 10.0, 1.0).var_estimate for d in (0.0, 0.1, 0.5, 1.0)]
        assert all(a < b for a, b in zip(estimates, estimates[1:]))

    def test_matches_formula_under_joint_scaling(self):
        # scaling n0 and the pilot energy together must leave the exact
        # formula values unchanged while sigma stays fixed
        base = mmse_quality(1.5, 0.2, 50, 8.0, 0.5)
        scaled = mmse_quality(1.5, 0.2, 50, 8.0 * 7.0, 0.5 * 7.0)
        assert scaled.var_error == pytest.approx(base.var_error, rel=1e-12)
        assert scaled.var_estimate == pytest.approx(base.var_estimate, rel=1e-12)
        s2 = 1.5 ** 2
        energy = 0.2 * 50 * 8.0
        assert base.var_error == pytest.approx(s2 * 0.5 / (s2 * energy + 0.5), rel=1e-12)


class TestDataSymbolEnergy:
    def test_all_power_on_training(self):
        assert data_symbol_energy(1.0, 50, 100.0) == 0.0

    def test_smallest_block(self):
        assert data_symbol_energy(0.0, 6, 1.0) == 3.0

    def test_reference_point(self):
        assert data_symbol_energy(0.1, 50, 100.0) == pytest.approx(187.5, rel=1e-12)

    @given(
        delta=st.floats(0.0, 1.0),
        m=st.integers(3, 500).map(lambda k: 2 * k),
        p=st.floats(0.0, 1e6),
    )
    def test_block_energy_is_conserved(self, delta, m, p):
        per_symbol = data_symbol_energy(delta, m, p)
        total = delta * m * p + (m - 2) / 2 * per_symbol
        assert total == pytest.approx(m * p, rel=1e-12, abs=1e-12)

    def test_overflow_names_its_inputs(self):
        with pytest.raises(ValueError, match=r"overflows at delta=0\.0, m=6, p=1e\+308"):
            data_symbol_energy(0.0, 6, 1e308)

    @pytest.mark.parametrize("m", [3, 5, 7, 2, 0, 4])
    def test_rejects_odd_or_tiny_blocks(self, m):
        with pytest.raises(ValueError):
            data_symbol_energy(0.1, m, 1.0)


class TestTypes:
    def test_channel_stats_validation(self):
        with pytest.raises(ValueError):
            ChannelStats(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ChannelStats(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ChannelStats(1.0, math.inf, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [
        dict(m=5), dict(m=4), dict(m=49), dict(p_s=-1.0), dict(p_r=-0.5),
        dict(delta_s=-0.1), dict(delta_r=1.2), dict(scheme="af"),
    ])
    def test_system_config_validation(self, bad):
        kwargs = dict(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1,
                      scheme=Scheme.AF)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    def test_degenerate_training_fractions_are_legal(self):
        SystemConfig(m=6, p_s=0.0, p_r=0.0, delta_s=0.0, delta_r=1.0,
                     scheme=Scheme.DF_PARALLEL)

    def test_estimation_quality_rejects_negative(self):
        with pytest.raises(ValueError):
            EstimationQuality(var_estimate=-1e-9, var_error=0.5)
        with pytest.raises(ValueError):
            EstimationQuality(var_estimate=0.5, var_error=-1e-9)
