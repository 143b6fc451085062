"""Resource allocation: closed-form training fractions and power-split sweeps.

The relay's optimal training fraction maximizes the |w|^2 coefficient of the
per-link SNR gain; its closed form is exact to a few ulps for every m < 2^53.
The source fraction has none; two candidates (one per link) are evaluated.
The source/relay power split theta is swept on a grid with common random
numbers, free of sampling noise between grid points: a Monte Carlo sweep call
draws its three |w|^2 vectors once into a ``rates.DrawSet`` bound to its spec
(which states the memory), and every point rescales them into that set's
scratch. A quadrature sweep has no set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStats, Scheme, SystemConfig, check_int, check_real
from .rates import (
    RATE_FN,
    AllocationResult,
    DrawSet,
    ExpectationSpec,
    RateEstimate,
    _gain_coefficient,
    _grid_array,
    closed_grid,
    common_draws,
)


@dataclass(frozen=True)
class PowerSplit:
    """Total power and the fraction handed to the source."""

    total: float
    theta: float

    def __post_init__(self) -> None:
        check_real("total", self.total)
        check_real("theta", self.theta, hi=1.0)

    @property
    def p_s(self) -> float:
        return self.theta * self.total

    @property
    def p_r(self) -> float:
        # defined as the remainder so p_s + p_r == total exactly
        return self.total - self.p_s


# optimal_delta_r's cross-check grid, built once: it only checks the closed form
_DELTA_GRID = _grid_array(0.0, 1.0, 5e-4)
_DELTA_GRID.flags.writeable = False


def optimal_delta_r(m: int, p: float, sigma: float, n0: float) -> float:
    """Closed-form relay training fraction maximizing its SNR-gain coefficient.

    With s = m p sigma^2 / n0 the coefficient is a(1-a) / (1 + c a) times a
    factor free of a, where c = (m-4) / (2 + (m-2)/s) is in [0, (m-4)/2]; the
    root 1 / (1 + sqrt(1 + c)) runs from 1/2 (s -> 0) to 1 / (1 + sqrt((m-2)/2))
    (s -> inf). (m-2)/s is formed on frexp mantissas, so nothing overflows and
    every m < 2^53 gets its root to a few ulps. A grid search of the bounded
    a(1-a) / (1 + c a) checks each call; a gap beyond 1e-3, a fault, or an m
    too large for a float raises a ValueError that names the inputs.
    """
    check_int("m", m, 6, even=True)
    for name, value in (("p", p), ("sigma", sigma), ("n0", n0)):
        check_real(name, value, open_lo=True)

    delta = reference = math.nan
    try:
        # (m-2)/s = (m-2)/m * n0 / (p sigma^2); beyond 2^1020, 1 + c rounds to 1 anyway
        (fn, en), (fp, ep), (fs, es) = map(math.frexp, (n0, p, sigma))
        t = math.ldexp((m - 2) / m * fn / (fp * fs * fs), min(en - ep - 2 * es, 1020))
        c = (m - 4) / (2.0 + t)
        delta = 1.0 / (1.0 + math.sqrt(1.0 + c))
        objective = _DELTA_GRID * (1.0 - _DELTA_GRID) / (1.0 + c * _DELTA_GRID)
        reference = float(_DELTA_GRID[int(np.argmax(objective))])
    except ArithmeticError:  # m too large for a float; the value that failed stays NaN
        pass
    if not (0.0 < delta < 1.0 and abs(delta - reference) <= 1e-3):  # also where either is NaN
        raise ValueError(f"closed form {delta} is outside (0, 1) or off its grid reference "
                         f"{reference} for m={m}, p={p}, sigma={sigma}, n0={n0}")
    return delta


def snr_gain_g_coefficient(a, b: float, c: float, n0: float, m: int):
    """Coefficient of |w|^2 in the SNR gain, vectorized over the training fraction.

    Same formula as :func:`relayrates.rates.snr_gain_g` at |w|^2 = 1, without
    its input validation.
    """
    return _gain_coefficient(np.asarray(a, dtype=float), b, c, n0, m)


def suboptimal_delta_s(m: int, p_s: float, stats: ChannelStats) -> tuple[float, float]:
    """Source training fractions optimizing each outgoing link separately.

    Same closed form as :func:`optimal_delta_r`, evaluated once with the
    direct-link fading std and once with the source-relay one. Which of the
    two is better overall depends on the configuration; compare rates.
    """
    return (
        optimal_delta_r(m, p_s, stats.sigma_sd, n0=stats.n0),
        optimal_delta_r(m, p_s, stats.sigma_sr, n0=stats.n0),
    )


def _rate_at(theta: float, total_power: float, stats: ChannelStats, m: int,
             delta_s: float, delta_r: float, scheme: Scheme,
             spec: ExpectationSpec, draws: DrawSet | None) -> RateEstimate:
    split = PowerSplit(total=total_power, theta=theta)
    cfg = SystemConfig(m=m, p_s=split.p_s, p_r=split.p_r,
                       delta_s=delta_s, delta_r=delta_r, scheme=scheme)
    return RATE_FN[scheme](cfg, stats, spec, draws=draws)


def theta_sweep(total_power: float, stats: ChannelStats, m: int, delta_s: float,
                delta_r: float, scheme: Scheme, spec: ExpectationSpec,
                grid_step: float = 0.01) -> list[tuple[float, RateEstimate]]:
    """Rate at every theta on the closed grid [0, 1], common random numbers.

    The three |w|^2 vectors of ``spec`` are drawn once per call
    (``common_draws``); each point rescales them into the set's scratch and
    equals a standalone rate call bit for bit.
    """
    check_real("grid_step", grid_step, hi=1.0, open_lo=True)
    thetas = closed_grid(0.0, 1.0, grid_step)
    draws = common_draws(spec)
    return [(theta, _rate_at(theta, total_power, stats, m, delta_s, delta_r, scheme, spec, draws))
            for theta in thetas]


def optimize_theta(total_power: float, stats: ChannelStats, m: int, delta_s: float,
                   delta_r: float, scheme: Scheme, spec: ExpectationSpec,
                   grid_step: float = 0.01) -> AllocationResult:
    """Best power split on the theta grid (ties to the smaller theta)."""
    check_real("grid_step", grid_step, hi=0.1, open_lo=True)
    curve = theta_sweep(total_power, stats, m, delta_s, delta_r, scheme, spec,
                        grid_step=grid_step)
    best_theta, best_rate = max(curve, key=lambda point: (point[1].value, -point[0]))
    return AllocationResult(argument=best_theta, rate=best_rate, evaluations=len(curve))


def joint_allocation(total_power: float, stats: ChannelStats, m: int, scheme: Scheme,
                     spec: ExpectationSpec, theta_step: float = 0.01,
                     ) -> tuple[float, float, float, RateEstimate]:
    """Training fractions by closed form, power split by sweep, jointly.

    For each candidate theta: the relay fraction comes from the closed form
    at its share of the power, and the better of the two source candidates is
    kept after evaluating both rates (common random numbers, drawn once per
    call, make the comparison exact). Returns (theta, delta_s, delta_r, rate)
    of the best triple; at the endpoints the powerless node's fraction is
    pinned to 0.
    """
    check_real("total_power", total_power, open_lo=True)
    thetas = closed_grid(0.0, 1.0, theta_step)
    draws = common_draws(spec)
    best: tuple[float, float, float, RateEstimate] | None = None
    for theta in thetas:
        split = PowerSplit(total=total_power, theta=theta)
        delta_r = optimal_delta_r(m, split.p_r, stats.sigma_rd, stats.n0) if split.p_r > 0.0 else 0.0
        if split.p_s > 0.0:
            candidates = set(suboptimal_delta_s(m, split.p_s, stats))
        else:
            candidates = {0.0}
        for delta_s in sorted(candidates):
            rate = _rate_at(theta, total_power, stats, m, delta_s, delta_r, scheme, spec, draws)
            if best is None or rate.value > best[3].value:
                best = (theta, delta_s, delta_r, rate)
    assert best is not None
    return best
