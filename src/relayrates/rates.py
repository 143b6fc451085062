"""Worst-case achievable rates of the pilot-trained relay link.

Every rate is an expectation of ``log(1 + SNR)`` over the squared magnitudes
of normalized fading estimates: independent exponential(1) variables, each
scaled by its link's gain coefficient. One engine, ``_expectation``,
evaluates all of them: it draws (or places Gauss-Laguerre nodes for) ``c*X``
per link, applies the scheme's integrand over the gains and checks that the
mean is finite and lies within the sampled values. AF integrates
log(1 + g_sd + f(g_sr, g_rd)); both DF schemes take the min of the relay
decoding term log(1 + g_sr) and a combining term.

Monte Carlo draws come from counter-based Philox streams keyed by
(seed, role), so identical seeds give identical draws for every scheme and
every power split (common random numbers), independent of any parallelism
in the caller. Quadrature (whose weight is exactly the exponential density)
covers 1-D and 2-D expectations. The module also holds what the optimizer
and the oracles share: ``RATE_FN``, ``closed_grid`` and the search result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .channel import ChannelStats, Scheme, SystemConfig

# Stream tags for the three normalized fading magnitudes. Sharing a tag across
# schemes is what makes rate comparisons use common random numbers.
W_SD = 0
W_SR = 1
W_RD = 2

# Keys used in RateEstimate.parts for the two decode-and-forward constraints.
RELAY_DECODING = "relay_decoding"
COMBINING = "combining"

# numpy's Gauss-Laguerre rule overflows (NaN weights) from 187 nodes on.
MAX_NODES = 186
MAX_GRID_POINTS = 1_000_000


class Method(enum.Enum):
    """How a reported value was computed."""

    MONTE_CARLO = "mc"
    GAUSS_LAGUERRE = "gl"
    CLOSED_FORM = "closed"


@dataclass(frozen=True)
class ExpectationSpec:
    """Controls the expectation engine.

    ``dims`` is the number of independent exponential(1) variables the
    integrand takes. Quadrature is restricted to dims <= 2; the 3-D case
    (amplify-and-forward) is Monte Carlo only and is cross-checked against
    the matrix-form oracle instead of a tensor quadrature.
    """

    dims: int
    samples: int = 100_000
    seed: int = 0
    method: Method = Method.MONTE_CARLO
    nodes: int = 64

    def __post_init__(self) -> None:
        if self.dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2 or 3, got {self.dims}")
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
        if self.method is Method.GAUSS_LAGUERRE and self.dims > 2:
            raise ValueError("Gauss-Laguerre quadrature supports dims <= 2 only")
        if self.method is Method.CLOSED_FORM:
            raise ValueError("CLOSED_FORM tags results; it is not an expectation method")
        if not 8 <= self.nodes <= MAX_NODES:
            raise ValueError(f"nodes must lie in [8, {MAX_NODES}], got {self.nodes}")


@dataclass(frozen=True)
class RateEstimate:
    """A rate value in nats per channel use, with sampling metadata.

    ``parts`` carries the sub-rates of min-type expressions (the two
    decode-and-forward constraints) so callers can see which one binds.
    """

    value: float
    std_error: float
    samples: int
    method: Method
    parts: Mapping[str, "RateEstimate"] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"rate value must be nonnegative and finite, got {self.value}")
        if not (math.isfinite(self.std_error) and self.std_error >= 0.0):
            raise ValueError(f"std_error must be nonnegative, got {self.std_error}")
        if self.method is not Method.MONTE_CARLO and self.std_error != 0.0:
            raise ValueError("deterministic methods must report std_error = 0")

    @property
    def binding(self) -> str | None:
        """Name of the smallest sub-rate, or None when there are no parts."""
        if not self.parts:
            return None
        return min(self.parts, key=lambda k: self.parts[k].value)


class SearchMethod(enum.Enum):
    GRID = "grid"


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a scalar resource search: argument, value and bookkeeping."""

    argument: float
    rate: RateEstimate
    method: SearchMethod
    evaluations: int


def closed_grid(lo: float, hi: float, step: float) -> list[float]:
    """Grid lo, lo+step, ..., hi with both endpoints present exactly.

    Interior points are rounded to 10 decimals so decimal steps give clean
    values. The point count is checked against ``MAX_GRID_POINTS`` before
    any point is built.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(f"step {step} asks for {count} points on [{lo}, {hi}]; "
                         f"at most {MAX_GRID_POINTS} are allowed")
    grid = [round(lo + i * step, 10) for i in range(count)]
    grid[0] = lo
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid.append(hi)
    else:
        grid[-1] = hi
    return grid


def stream(seed: int, tag: int) -> np.random.Generator:
    """Counter-based generator for one (seed, role) pair."""
    key = np.array([seed, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def exp_draws(seed: int, tag: int, n: int) -> np.ndarray:
    """n draws of |w|^2 for w ~ CN(0, 1), i.e. exponential(1).

    Inversion sampling consumes exactly one uniform per draw, so sample i of
    a given (seed, tag) stream is the same value in every context.
    """
    return stream(seed, tag).standard_exponential(n, method="inv")


@lru_cache(maxsize=8)
def _laguerre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, w = np.polynomial.laguerre.laggauss(nodes)
    return x, w, np.outer(w, w)


def _expectation(integrand: Callable[..., np.ndarray], coefficients: Sequence[float],
                 tags: Sequence[int], spec: ExpectationSpec) -> tuple[float, float]:
    """Mean and standard error of ``integrand(c_1 X_1, ..., c_k X_k)``.

    The X_i are independent exponential(1) variables: Monte Carlo draws
    X_i from stream ``tags[i]`` (scaled as it is drawn); Gauss-Laguerre
    (k <= 2) evaluates the tensor rule. The mean must be finite and lie
    within the sampled values.
    """
    if spec.method is Method.MONTE_CARLO:
        n = spec.samples
        values = np.asarray(integrand(*[c * exp_draws(spec.seed, tag, n)
                                        for c, tag in zip(coefficients, tags)]), dtype=float)
        if values.shape != (n,):
            raise ValueError("integrand must map (n,) arrays to an (n,) array")
        mean = float(values.mean())
        std_error = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    else:
        x, w, w2 = _laguerre_rule(spec.nodes)
        if len(coefficients) == 1:
            values = np.asarray(integrand(coefficients[0] * x), dtype=float)
            mean = float(np.sum(w * values))
        else:
            shape = w2.shape
            c_i, c_j = coefficients
            values = np.asarray(integrand(np.broadcast_to(c_i * x[:, None], shape),
                                          np.broadcast_to(c_j * x[None, :], shape)), dtype=float)
            mean = float(np.sum(w2 * values))
        std_error = 0.0
    lo, hi = float(np.min(values)), float(np.max(values))
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (math.isfinite(mean) and lo - slack <= mean <= hi + slack):
        raise ArithmeticError(f"mean {mean} lies outside the sampled range [{lo}, {hi}]")
    return mean, std_error


def expect_over_exponentials(integrand: Callable[..., np.ndarray], spec: ExpectationSpec, *,
                             tags: tuple[int, ...] | None = None) -> tuple[float, float]:
    """Mean and standard error of ``integrand`` over exponential(1) inputs.

    The integrand receives ``spec.dims`` arrays and must evaluate
    elementwise. ``tags`` picks the Monte Carlo stream for each argument
    (defaults to 0..dims-1); quadrature ignores it.
    """
    if tags is None:
        tags = tuple(range(spec.dims))
    elif len(tags) != spec.dims:
        raise ValueError(f"expected {spec.dims} stream tags, got {len(tags)}")
    return _expectation(integrand, (1.0,) * spec.dims, tags, spec)


def _gain_coefficient(a, b, c, n0, m):
    # Coefficient of |w|^2 in the per-link SNR gain; ``a`` may be an array.
    c2 = c * c
    num = 2.0 * a * (1.0 - a) * m * m * b * b * c2 * c2
    den = 2.0 * (1.0 - a) * m * b * c2 * n0 + (m - 2.0) * (c2 * a * m * b + n0) * n0
    return num / den


def snr_gain_g(a: float, b: float, c: float, n0: float, m: int, w_sq) -> np.ndarray | float:
    """Effective post-training SNR of one link, as a multiple of |w|^2.

    ``a`` is the training fraction, ``b`` the node power, ``c`` the fading
    standard deviation. Equals the per-symbol data energy times the estimate
    variance, divided by (data energy times error variance plus noise):

        2 a (1-a) m^2 b^2 c^4 |w|^2
        ---------------------------------------------
        2 (1-a) m b c^2 n0 + (m-2) (c^2 a m b + n0) n0
    """
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"training fraction must lie in [0, 1], got {a}")
    if not (math.isfinite(b) and b >= 0.0):
        raise ValueError(f"power must be nonnegative and finite, got {b}")
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError(f"fading std must be nonnegative and finite, got {c}")
    if not (math.isfinite(n0) and n0 > 0.0):
        raise ValueError(f"n0 must be positive and finite, got {n0}")
    if m < 6:
        raise ValueError(f"m must be >= 6, got {m}")
    w_sq = np.asarray(w_sq, dtype=float)
    if np.any(w_sq < 0.0):
        raise ValueError("w_sq must be nonnegative")
    out = _gain_coefficient(a, b, c, n0, m) * w_sq
    return float(out) if out.ndim == 0 else out


def f_combiner(x, y):
    """End-to-end SNR of a two-hop amplified link: x*y / (1 + x + y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0.0) or np.any(y < 0.0):
        raise ValueError("f_combiner arguments must be nonnegative")
    out = x * y / (1.0 + x + y)
    return float(out) if out.ndim == 0 else out


def _gains(cfg: SystemConfig, stats: ChannelStats, gain_scale: float):
    """Per-link closed-form g evaluated at |w|^2 = 1 (coefficients)."""
    g_sd = snr_gain_g(cfg.delta_s, cfg.p_s, stats.sigma_sd, stats.n0, cfg.m, 1.0)
    g_sr = snr_gain_g(cfg.delta_s, cfg.p_s, stats.sigma_sr, stats.n0, cfg.m, 1.0)
    g_rd = snr_gain_g(cfg.delta_r, cfg.p_r, stats.sigma_rd, stats.n0, cfg.m, 1.0)
    return g_sd * gain_scale, g_sr * gain_scale, g_rd * gain_scale


def _rate(integrand, coefficients, tags, m: int, spec: ExpectationSpec) -> RateEstimate:
    # two pilot symbols plus half-duplex halving
    prefactor = (m - 2.0) / (2.0 * m)
    mean, std_error = _expectation(integrand, coefficients, tags, spec)
    samples = spec.samples if spec.method is Method.MONTE_CARLO else 0
    return RateEstimate(prefactor * mean, prefactor * std_error, samples, spec.method)


def _require(cfg: SystemConfig, spec: ExpectationSpec, scheme: Scheme) -> None:
    if cfg.scheme is not scheme:
        raise ValueError(f"config scheme is {cfg.scheme}, expected {scheme}")
    if spec.method is Method.MONTE_CARLO and spec.dims != 3:
        raise ValueError("rate evaluation integrates over three fading magnitudes; use dims=3")
    if spec.method is Method.GAUSS_LAGUERRE and scheme is Scheme.AF:
        raise ValueError("af_rate requires Monte Carlo (3-D expectation)")
    if spec.method is Method.GAUSS_LAGUERRE and spec.dims != 2:
        raise ValueError("quadrature DF evaluation is 2-D; use dims=2")


def af_rate(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec,
            *, gain_scale: float = 1.0) -> RateEstimate:
    """Worst-case amplify-and-forward rate.

    (m-2)/(2m) * E[ log(1 + g_sd + f(g_sr, g_rd)) ] over independent
    exponential draws of the three |w|^2 variables. Monte Carlo only; the
    3-D expectation has no quadrature route here (the matrix-form oracle is
    the cross-check). ``gain_scale`` multiplies every g and exists purely as
    a fault-injection hook for the verification harness.
    """
    _require(cfg, spec, Scheme.AF)
    return _rate(lambda g_sd, g_sr, g_rd: np.log1p(g_sd + f_combiner(g_sr, g_rd)),
                 _gains(cfg, stats, gain_scale), (W_SD, W_SR, W_RD), cfg.m, spec)


def _df_rate(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec,
             gain_scale: float, scheme: Scheme, combining) -> RateEstimate:
    """min of the relay-decoding and combining rates, both kept in ``parts``."""
    _require(cfg, spec, scheme)
    c_sd, c_sr, c_rd = _gains(cfg, stats, gain_scale)
    parts = {
        RELAY_DECODING: _rate(np.log1p, (c_sr,), (W_SR,), cfg.m, spec),
        COMBINING: _rate(combining, (c_sd, c_rd), (W_SD, W_RD), cfg.m, spec),
    }
    return replace(min(parts.values(), key=lambda r: r.value), parts=parts)


def df_repetition_rate(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec,
                       *, gain_scale: float = 1.0) -> RateEstimate:
    """Decode-and-forward rate when the relay repeats the source codeword.

    min of the relay-decoding rate and the destination rate
    (m-2)/(2m) * E[ log(1 + g_sd + g_rd) ]; both appear in ``parts``.
    """
    return _df_rate(cfg, stats, spec, gain_scale, Scheme.DF_REPETITION,
                    lambda g_sd, g_rd: np.log1p(g_sd + g_rd))


def df_parallel_rate(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec,
                     *, gain_scale: float = 1.0) -> RateEstimate:
    """Decode-and-forward rate with an independent relay codeword.

    The destination constraint becomes
    (m-2)/(2m) * E[ log(1 + g_sd) + log(1 + g_rd) ]. Dominates the
    repetition scheme sample by sample, since (1 + x)(1 + y) >= 1 + x + y.
    """
    return _df_rate(cfg, stats, spec, gain_scale, Scheme.DF_PARALLEL,
                    lambda g_sd, g_rd: np.log1p(g_sd) + np.log1p(g_rd))


RATE_FN = {
    Scheme.AF: af_rate,
    Scheme.DF_REPETITION: df_repetition_rate,
    Scheme.DF_PARALLEL: df_parallel_rate,
}
