"""Physical link model: Rayleigh block-fading statistics, per-block power
accounting, and the estimation quality delivered by the pilot phase.

A coherence block spans ``m`` symbols. The first two carry one pilot each
(source, then relay); the remaining ``m - 2`` symbols are split into two
equal halves for the source and relay data phases, so each data vector has
``(m - 2) / 2`` entries. Every node always spends its full energy budget:
pilot energy ``delta * m * P`` plus expected data energy equals ``m * P``.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

# The one wording of a rejected argument: its name, its rule and repr(value).
_REJECTED = "{} must be {}, got {!r}"


def check_real(name: str, value, lo: float = 0.0, hi: float = math.inf, *,
               open_lo: bool = False) -> None:
    """Reject ``value`` unless it is finite and in [lo, hi], or in (lo, hi] with ``open_lo``."""
    if not ((lo < value if open_lo else lo <= value) and value <= hi and math.isfinite(value)):
        left, right = "(" if open_lo or lo == -math.inf else "[", "]" if hi < math.inf else ")"
        raise ValueError(_REJECTED.format(name, f"a real number in {left}{lo:g}, {hi:g}{right}",
                                          value))


def check_int(name: str, value, lo: int, hi: int | None = None, *, even: bool = False) -> None:
    """Reject ``value`` unless it is an integer, not a bool, in [lo, hi] (even with ``even``)."""
    # type() first: numbers.Integral is an ABC lookup, and a rate call makes about twenty checks
    ok = type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (ok and lo <= value and (hi is None or value <= hi) and not (even and value % 2)):
        kind = "an even integer" if even else "an integer"
        span = f"[{lo}, inf)" if hi is None else f"[{lo}, {hi}]"
        raise ValueError(_REJECTED.format(name, f"{kind} in {span}", value))


def _check_link(sigma, delta, m: int, p, n0, names=("sigma", "delta", "p")) -> None:
    # the inputs of one pilot-trained link: mmse_quality, its oracle and snr_gain_g
    check_real(names[0], sigma)
    check_real(names[1], delta, hi=1.0)
    check_real(names[2], p)
    check_real("n0", n0, open_lo=True)
    check_int("m", m, 6, 2**53, even=True)


class Scheme(enum.Enum):
    """Relaying strategy used in the data phase."""

    AF = "af"
    DF_REPETITION = "df-rep"
    DF_PARALLEL = "df-par"


@dataclass(frozen=True)
class ChannelStats:
    """Fading standard deviations of the three links and the noise level.

    ``sigma_xy`` is the standard deviation of the zero-mean complex Gaussian
    coefficient of link x->y; ``n0`` is the receiver noise variance.
    """

    sigma_sd: float
    sigma_sr: float
    sigma_rd: float
    n0: float

    def __post_init__(self) -> None:
        for name in ("sigma_sd", "sigma_sr", "sigma_rd", "n0"):
            check_real(name, getattr(self, name), open_lo=True)


@dataclass(frozen=True)
class SystemConfig:
    """Block length, per-node power budgets, training fractions and scheme.

    ``m`` must be even and at least 6 so the data phase is a nonempty pair of
    equal halves, and at most 2^53 so it is an exact float. ``delta_s``/``delta_r``
    may be 0 or 1; those degenerate splits simply drive the achievable rate to zero.
    """

    m: int
    p_s: float
    p_r: float
    delta_s: float
    delta_r: float
    scheme: Scheme

    def __post_init__(self) -> None:
        check_int("m", self.m, 6, 2**53, even=True)
        for name, hi in (("p_s", math.inf), ("p_r", math.inf), ("delta_s", 1.0), ("delta_r", 1.0)):
            check_real(name, getattr(self, name), hi=hi)
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme member, got {self.scheme!r}")


@dataclass(frozen=True)
class EstimationQuality:
    """Variance split of a fading coefficient after pilot-based MMSE estimation.

    ``var_estimate`` is the variance of the estimate, ``var_error`` the
    variance of the residual error; for the closed forms the two add up to
    the prior variance sigma^2 (orthogonal decomposition).
    """

    var_estimate: float
    var_error: float

    def __post_init__(self) -> None:
        check_real("var_estimate", self.var_estimate)
        check_real("var_error", self.var_error)


def mmse_quality(sigma: float, delta: float, m: int, p: float, n0: float) -> EstimationQuality:
    """Estimate/error variance split for a pilot of energy ``delta * m * p``.

    The receiver observes ``y = h * sqrt(delta*m*p) + n`` and forms the MMSE
    estimate of ``h ~ CN(0, sigma^2)``. Error variance is
    ``sigma^2 * n0 / (sigma^2 * delta*m*p + n0)``; estimate variance is the
    complement ``sigma^4 * delta*m*p / (sigma^2 * delta*m*p + n0)``.

    ``sigma = 0`` is accepted (deterministic zero channel, both variances 0);
    ``delta = 0`` means no pilot, so the estimate is the prior mean.
    """
    _check_link(sigma, delta, m, p, n0)

    s2 = sigma * sigma
    pilot_energy = delta * m * p
    denom = s2 * pilot_energy + n0
    var_error = s2 * n0 / denom
    var_estimate = s2 * s2 * pilot_energy / denom
    if not (math.isfinite(var_estimate) and math.isfinite(var_error)):
        raise ValueError(f"the variance split overflows at sigma={sigma!r}, delta={delta!r}, "
                         f"m={m!r}, p={p!r}, n0={n0!r}")
    return EstimationQuality(var_estimate=var_estimate, var_error=var_error)


def data_symbol_energy(delta: float, m: int, p: float) -> float:
    """Per-symbol energy of the (m-2)/2-dimensional data vector.

    Spending ``delta`` of the block budget on the pilot leaves
    ``(1 - delta) * m * p`` for the data half-block, i.e.
    ``2 * (1 - delta) * m * p / (m - 2)`` per symbol.
    """
    check_real("delta", delta, hi=1.0)
    check_real("p", p)
    check_int("m", m, 6, 2**53, even=True)
    energy = 2.0 * (1.0 - delta) * m * p / (m - 2.0)
    if not math.isfinite(energy):
        raise ValueError(f"data symbol energy overflows at delta={delta!r}, m={m!r}, p={p!r}")
    return energy
