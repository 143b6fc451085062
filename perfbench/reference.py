"""Independent reference rates for checking the package's outputs.

Nothing here calls ``relayrates``. The gain coefficients are rebuilt from
the MMSE variance split, and the expectations over exponential(1) fading
are evaluated exactly or by converged quadrature:

* E[log(1 + cX)] = phi(c) = e^{1/c} E1(1/c), with an asymptotic series
  where e^{1/c} would overflow;
* E[log(1 + aX + bY)] = (a phi(a) - b phi(b)) / (a - b), with the a = b
  limit phi(a) + 1 - phi(a) / a;
* amplify-and-forward: the direct link is integrated in closed form,
  E_X[log(1 + F + aX)] = log(1 + F) + phi(a / (1 + F)), and the remaining
  expectation over (sr, rd) uses a tensor Gauss-Legendre rule in
  s = log(y), which spreads the sharp features near y ~ 1/c over O(1).

scipy is a test-only dependency of the project; only the benchmark imports
it. ``self_check`` is the reference's own agreement check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.optimize import minimize_scalar
from scipy.special import exp1

_ASYMPTOTIC_FROM = 600.0  # e^x E1(x) by series beyond this x
_LOG_LO, _LOG_HI = -45.0, 4.5  # s = log(y) range; the tails below e^-45 and above e^4.5 are < 1e-19
AF_NODES = 160


def psi(x):
    """e^x E1(x) for x > 0, elementwise."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= _ASYMPTOTIC_FROM
    out[small] = np.exp(x[small]) * exp1(x[small])
    large = x[~small]
    term = 1.0 / large
    total = term.copy()
    for k in range(1, 20):
        term = term * (-k / large)
        total += term
    out[~small] = total
    return out


def phi(c):
    """E[log(1 + cX)] for X ~ exponential(1), elementwise, c >= 0."""
    c = np.asarray(c, dtype=float)
    out = np.zeros_like(c)
    positive = c > 0.0
    out[positive] = psi(1.0 / c[positive])
    return out


def combining(a, b):
    """E[log(1 + aX + bY)] for independent exponential(1) X and Y."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # Near a = b the divided difference cancels; there the derivative of
    # t phi(t) at the midpoint is exact to O((a - b)^2).
    close = np.abs(a - b) <= 1e-5 * np.maximum(a, b)
    mid = 0.5 * (a + b)
    f_mid = phi(mid)
    with np.errstate(divide="ignore", invalid="ignore"):
        split = (a * phi(a) - b * phi(b)) / (a - b)
        equal = np.where(mid > 0.0, f_mid + 1.0 - f_mid / np.where(mid > 0.0, mid, 1.0), 0.0)
    return np.where(close, equal, split)


@lru_cache(maxsize=4)
def _log_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w with sum w h(y) ~ E[h(Y)], Y ~ exponential(1)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (_LOG_HI - _LOG_LO)
    s = half * x + 0.5 * (_LOG_HI + _LOG_LO)
    return np.exp(s), half * w * np.exp(s - np.exp(s))


def expect2(integrand, nodes: int = AF_NODES) -> float:
    """E[integrand(Y, Z)] over independent exponential(1) Y and Z."""
    y, w = _log_rule(nodes)
    return float(w @ integrand(y[:, None], y[None, :]) @ w)


def af_expectation(a: float, b: float, c: float, nodes: int = AF_NODES) -> float:
    """E[log(1 + aX + f(bY, cZ))] with f(x, y) = xy / (1 + x + y)."""

    def integrand(y, z):
        by, cz = b * y, c * z
        combined = by * cz / (1.0 + by + cz)
        return np.log1p(combined) + phi(a / (1.0 + combined))

    return expect2(integrand, nodes)


def training_variances(delta: float, power: float, sigma: float, n0: float,
                       m: int) -> tuple[float, float]:
    """(estimate, error) variances of the MMSE channel estimate.

    The pilot energy delta m P splits the prior variance sigma^2 in two.
    """
    s2 = sigma * sigma
    pilot = delta * m * power
    denom = s2 * pilot + n0
    return s2 * s2 * pilot / denom, s2 * n0 / denom


def gain(delta: float, power: float, sigma: float, n0: float, m: int) -> float:
    """Post-training SNR coefficient of one link, from the MMSE variance split.

    The data symbols carry 2 (1 - delta) m P / (m - 2) each. The SNR is data
    energy times estimate variance over (data energy times error variance
    plus noise).
    """
    var_estimate, var_error = training_variances(delta, power, sigma, n0, m)
    energy = 2.0 * (1.0 - delta) * m * power / (m - 2.0)
    return energy * var_estimate / (energy * var_error + n0)


def rate(scheme: str, m: int, p_s: float, p_r: float, delta_s: float, delta_r: float,
         sigma, n0: float, nodes: int = AF_NODES) -> float:
    """Reference rate in nats per channel use."""
    sigma_sd, sigma_sr, sigma_rd = sigma
    c_sd = gain(delta_s, p_s, sigma_sd, n0, m)
    c_sr = gain(delta_s, p_s, sigma_sr, n0, m)
    c_rd = gain(delta_r, p_r, sigma_rd, n0, m)
    prefactor = (m - 2.0) / (2.0 * m)
    if scheme == "af":
        return prefactor * af_expectation(c_sd, c_sr, c_rd, nodes)
    relay = float(phi(c_sr))
    if scheme == "df-rep":
        destination = float(combining(c_sd, c_rd))
    elif scheme == "df-par":
        destination = float(phi(c_sd) + phi(c_rd))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return prefactor * min(relay, destination)


def optimal_training(m: int, power: float, sigma: float, n0: float) -> float:
    """Training fraction maximizing the SNR coefficient, by bounded search."""
    found = minimize_scalar(lambda a: -gain(a, power, sigma, n0, m), bounds=(0.0, 1.0),
                            method="bounded", options={"xatol": 1e-12})
    return float(found.x)


def _quad_phi(c: float) -> float:
    value, _ = integrate.quad(lambda x: math.log1p(c * x) * math.exp(-x), 0.0, math.inf,
                              limit=200, epsabs=1e-13, epsrel=1e-12)
    return value


def self_check() -> list[tuple[str, bool, str]]:
    """The reference's own agreement checks, as (name, ok, detail) rows."""
    rows = []

    worst = max(abs(float(phi(c)) - _quad_phi(c)) / _quad_phi(c)
                for c in (1e-3, 1.0, 1e2, 1e4, 1e6))
    rows.append(("phi-vs-adaptive-quad", worst < 1e-9, f"max relative gap {worst:.2e}"))

    worst = 0.0
    for a, b in ((81.6, 872.5), (1.0, 1.0), (1e-2, 1e3), (5.0, 5.0 * (1 + 1e-7))):
        exact = float(combining(a, b))
        quad = expect2(lambda y, z: np.log1p(a * y + b * z), nodes=400)
        worst = max(worst, abs(exact - quad))
    rows.append(("combining-vs-2d-quad", worst < 1e-9, f"max abs gap {worst:.2e}"))

    worst = 0.0
    for a, b, c in ((81.6, 1308.9, 872.5), (1e-3, 1e5, 1e-2), (1e4, 3.0, 1e6)):
        worst = max(worst, abs(af_expectation(a, b, c) - af_expectation(a, b, c, 2 * AF_NODES)))
    rows.append(("af-quad-converged", worst < 1e-10, f"{AF_NODES} vs {2 * AF_NODES} nodes {worst:.2e}"))

    # Values measured independently at m=50, P_s=60, P_r=40, delta=0.1, sigma=(1,4,4).
    known = {"df-par": 3.170654, "af": 2.775349}
    worst = max(abs(rate(s, 50, 60.0, 40.0, 0.1, 0.1, (1.0, 4.0, 4.0), 1.0) - v)
                for s, v in known.items())
    rows.append(("recorded-values", worst < 1e-6, f"max abs gap {worst:.2e}"))
    return rows
