"""Resource allocation: closed-form training fractions and power-split sweeps.

The relay's optimal training fraction maximizes the coefficient of |w|^2 in
the per-link SNR gain and has a closed form. The source fraction has no
closed form; two candidates (one per outgoing link) are evaluated directly.
The source/relay power split theta is swept on a grid with common random
numbers, so comparisons between grid points are free of sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channel import ChannelStats, Scheme, SystemConfig
from .rates import (
    RATE_FN,
    AllocationResult,
    ExpectationSpec,
    RateEstimate,
    SearchMethod,
    _gain_coefficient,
    closed_grid,
)


@dataclass(frozen=True)
class PowerSplit:
    """Total power and the fraction handed to the source."""

    total: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.total) and self.total >= 0.0):
            raise ValueError(f"total power must be nonnegative, got {self.total}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")

    @property
    def p_s(self) -> float:
        return self.theta * self.total

    @property
    def p_r(self) -> float:
        # defined as the remainder so p_s + p_r == total exactly
        return self.total - self.p_s


def optimal_delta_r(m: int, p: float, sigma: float, n0: float) -> float:
    """Closed-form relay training fraction maximizing its SNR-gain coefficient.

    Cross-validated on every call against a cheap vectorized grid search of
    the coefficient itself; disagreement beyond 1e-3 raises, so a wrong root
    can never propagate silently into sweeps.
    """
    if m < 6:
        raise ValueError(f"m must be >= 6, got {m}")
    for name, value in (("p", p), ("sigma", sigma), ("n0", n0)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")

    s2 = sigma * sigma
    disc = (-4.0 * m**2 * p**2 * s2**2 - 2.0 * m**2 * p * s2 * n0 + m**2 * n0**2
            - 4.0 * m * n0**2 + 4.0 * n0**2 + 2.0 * m**3 * p**2 * s2**2 + m**3 * p * s2 * n0)
    if disc < 0.0:
        raise ValueError(f"negative discriminant for m={m}, p={p}, sigma={sigma}, n0={n0}")
    numerator = -4.0 * m * p * s2 - 2.0 * m * n0 + 4.0 * n0 + 2.0 * math.sqrt(disc)
    denominator = -4.0 * m * p * s2 + m * m * p * s2
    delta = 0.5 * numerator / denominator
    if not (0.0 < delta < 1.0):
        raise ValueError(
            f"closed form left (0, 1): delta={delta} for m={m}, p={p}, sigma={sigma}, n0={n0}"
        )

    grid = np.arange(0.0, 1.0 + 5e-4, 5e-4)
    coefficients = snr_gain_g_coefficient(grid, p, sigma, n0, m)
    reference = float(grid[int(np.argmax(coefficients))])
    if abs(delta - reference) > 1e-3:
        raise ArithmeticError(
            f"closed form {delta} disagrees with grid reference {reference} "
            f"for m={m}, p={p}, sigma={sigma}, n0={n0}"
        )
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
             spec: ExpectationSpec) -> RateEstimate:
    split = PowerSplit(total=total_power, theta=theta)
    cfg = SystemConfig(m=m, p_s=split.p_s, p_r=split.p_r,
                       delta_s=delta_s, delta_r=delta_r, scheme=scheme)
    return RATE_FN[scheme](cfg, stats, spec)


def theta_sweep(total_power: float, stats: ChannelStats, m: int, delta_s: float,
                delta_r: float, scheme: Scheme, spec: ExpectationSpec,
                grid_step: float = 0.01, workers: int = 1) -> list[tuple[float, RateEstimate]]:
    """Rate at every theta on the closed grid [0, 1], common random numbers.

    Every grid point reuses the same ExpectationSpec, hence the same |w|^2
    draws; the sweep is bit-identical for any worker count because each point
    is deterministic on its own.
    """
    if not (0.0 < grid_step <= 1.0):
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    thetas = closed_grid(0.0, 1.0, grid_step)

    def evaluate(theta: float) -> RateEstimate:
        return _rate_at(theta, total_power, stats, m, delta_s, delta_r, scheme, spec)

    if workers == 1:
        estimates = [evaluate(t) for t in thetas]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            estimates = list(pool.map(evaluate, thetas))
    return list(zip(thetas, estimates))


def optimize_theta(total_power: float, stats: ChannelStats, m: int, delta_s: float,
                   delta_r: float, scheme: Scheme, spec: ExpectationSpec,
                   grid_step: float = 0.01, workers: int = 1) -> AllocationResult:
    """Best power split on the theta grid (ties to the smaller theta)."""
    if not (0.0 < grid_step <= 0.1):
        raise ValueError(f"grid_step must be in (0, 0.1], got {grid_step}")
    curve = theta_sweep(total_power, stats, m, delta_s, delta_r, scheme, spec,
                        grid_step=grid_step, workers=workers)
    best_theta, best_rate = max(curve, key=lambda point: (point[1].value, -point[0]))
    return AllocationResult(argument=best_theta, rate=best_rate,
                            method=SearchMethod.GRID, evaluations=len(curve))


def joint_allocation(total_power: float, stats: ChannelStats, m: int, scheme: Scheme,
                     spec: ExpectationSpec, theta_step: float = 0.01,
                     ) -> tuple[float, float, float, RateEstimate]:
    """Training fractions by closed form, power split by sweep, jointly.

    For each candidate theta: the relay fraction comes from the closed form
    at its share of the power, and the better of the two source candidates is
    kept after evaluating both rates (common random numbers make the
    comparison exact). Returns (theta, delta_s, delta_r, rate) of the best
    triple; at the endpoints the powerless node's fraction is pinned to 0.
    """
    if not (math.isfinite(total_power) and total_power > 0.0):
        raise ValueError(f"total power must be positive, got {total_power}")
    best: tuple[float, float, float, RateEstimate] | None = None
    for theta in closed_grid(0.0, 1.0, theta_step):
        split = PowerSplit(total=total_power, theta=theta)
        delta_r = optimal_delta_r(m, split.p_r, stats.sigma_rd, stats.n0) if split.p_r > 0.0 else 0.0
        if split.p_s > 0.0:
            candidates = set(suboptimal_delta_s(m, split.p_s, stats))
        else:
            candidates = {0.0}
        for delta_s in sorted(candidates):
            rate = _rate_at(theta, total_power, stats, m, delta_s, delta_r, scheme, spec)
            if best is None or rate.value > best[3].value:
                best = (theta, delta_s, delta_r, rate)
    assert best is not None
    return best
