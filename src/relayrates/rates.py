"""Worst-case achievable rates of the pilot-trained relay link.

Every rate is an expectation of ``log(1 + SNR)`` over the squared magnitudes
of normalized fading estimates: independent exponential(1) variables, each
scaled by its link's gain coefficient. One engine, ``_expectation``,
evaluates all of them: it draws (or places Gauss-Laguerre nodes for) ``c*X``
per link, applies the scheme's integrand over the gains and checks that the
mean is finite and lies within the sampled values. AF integrates
log(1 + g_sd + f(g_sr, g_rd)); both DF schemes take the min of the relay
decoding term log(1 + g_sr) and a combining term.

Monte Carlo draws invert counter-based Philox uniforms keyed by
(seed, role) through numpy's vectorized ``log1p``, one uniform per draw, so
sample i is the same in every context and identical seeds give identical
draws for every scheme and every power split (common random numbers). A
sweep draws its three vectors once into a ``DrawSet`` bound to its spec
(``common_draws``); every grid point rescales them by its own gains into the
set's scratch, where the integrands compute in place, bit for bit what a
standalone call computes. A standalone call, or one handed the set of
another spec, scales fresh draws in place and holds 4 arrays of samples
floats (AF) or 2 (DF). Quadrature (weight: the exponential density) is one
tensor Gauss-Laguerre rule over 1-D or 2-D expectations. The module also
holds what the optimizer and the oracles share: ``RATE_FN``, ``closed_grid``
and the search result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from .channel import ChannelStats, Scheme, SystemConfig, _check_link, check_int, check_real

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
# A standalone Monte Carlo call holds 4 (AF) or 2 (DF) float64 arrays of this length;
# DrawSet states what a sweep holds.
MAX_SAMPLES = 10**7
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
        gl = self.method is Method.GAUSS_LAGUERRE
        check_int("Gauss-Laguerre dims" if gl else "dims", self.dims, 1, 2 if gl else 3)
        check_int("samples", self.samples, 1, MAX_SAMPLES)
        check_int("seed", self.seed, 0, 2**64 - 1)
        if self.method is Method.CLOSED_FORM:
            raise ValueError("CLOSED_FORM tags results; it is not an expectation method")
        check_int("nodes", self.nodes, 8, MAX_NODES)


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
        check_real("value", self.value)
        sampled = self.method is Method.MONTE_CARLO
        check_real("std_error" if sampled else "std_error of a deterministic method",
                   self.std_error, hi=math.inf if sampled else 0.0)

    @property
    def binding(self) -> str | None:
        """Name of the smallest sub-rate, or None when there are no parts."""
        if not self.parts:
            return None
        return min(self.parts, key=lambda k: self.parts[k].value)


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a grid search: argument, value and number of evaluations."""

    argument: float
    rate: RateEstimate
    evaluations: int


def closed_grid(lo: float, hi: float, step: float) -> list[float]:
    """Grid lo, lo+step, ..., hi with both endpoints present exactly.

    Interior points ``lo + i*step`` are rounded to 10 decimals, bit for bit
    as ``round(x, 10)``, so decimal steps give clean values. The array route
    computes ``rint(x * 1e10) / 1e10``: 1e10 is exact and the division is
    correctly rounded, so this is ``round(x, 10)`` unless the rounding error
    of ``x * 1e10`` may cross a .5 tie. Points within one ulp of a tie, which
    includes every point with ``|x| * 1e10 >= 2**51``, take the scalar
    ``round``. The point count is checked against ``MAX_GRID_POINTS`` before
    any point is built.
    """
    return _grid_array(lo, hi, step).tolist()


def _grid_array(lo: float, hi: float, step: float) -> np.ndarray:
    """``closed_grid`` as a float array."""
    check_real("lo", lo, -math.inf)
    check_real("hi", hi, lo, open_lo=True)
    check_real("step", step, open_lo=True)
    steps = (hi - lo) / step + 1e-9  # inf for a tiny step, so compared before int()
    if not steps < MAX_GRID_POINTS:
        raise ValueError(f"step {step} asks for {steps + 1:.0f} points on [{lo}, {hi}]; "
                         f"at most {MAX_GRID_POINTS} are allowed")
    points = lo + np.arange(int(math.floor(steps)) + 1) * step
    with np.errstate(over="ignore", invalid="ignore"):  # an inf product falls back below
        scaled = points * 1e10
        grid = np.rint(scaled)
        # |x*1e10 - exact| <= ulp/2, so a distance to the tie above one ulp
        # leaves the exact product on the same side of it
        off_tie = 0.5 - np.abs(scaled - grid) > np.spacing(np.abs(scaled))
    grid /= 1e10
    for i in np.flatnonzero(~off_tie):
        grid[i] = round(float(points[i]), 10)
    grid[0] = lo
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid = np.append(grid, hi)
    else:
        grid[-1] = hi
    return grid


def stream(seed: int, tag: int) -> np.random.Generator:
    """Counter-based generator for one (seed, role) pair, both unsigned 64-bit integers."""
    check_int("seed", seed, 0, 2**64 - 1)
    check_int("tag", tag, 0, 2**64 - 1)
    key = np.array([seed, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def exp_draws(seed: int, tag: int, n: int) -> np.ndarray:
    """n draws of |w|^2 for w ~ CN(0, 1), i.e. exponential(1).

    Inversion of the stream's uniforms, -log1p(-u), through numpy's
    vectorized ``log1p`` in place: exactly one uniform per draw, so sample i
    of a given (seed, tag) stream is the same value in every context.
    """
    check_int("n", n, 0, MAX_SAMPLES)
    u = stream(seed, tag).random(n)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


class DrawSet:
    """The three link streams of one Monte Carlo spec, drawn once for a whole sweep.

    ``w[tag]`` is ``exp_draws(spec.seed, tag, spec.samples)``, read-only. A rate
    call with this very ``spec`` rescales the vectors it needs into the four
    ``scratch`` buffers, so a sweep faults its temporaries in once; a call with
    any other spec draws afresh. The set saves work but never changes a value.
    It holds 3 + 4 arrays of samples floats, which is all a sweep holds: 5.6 MB
    at 10^5 samples, 560 MB at MAX_SAMPLES.
    """

    def __init__(self, spec: ExpectationSpec):
        self.spec = spec
        self.w = [exp_draws(spec.seed, tag, spec.samples) for tag in (W_SD, W_SR, W_RD)]
        for vector in self.w:
            vector.flags.writeable = False
        self.scratch = [np.empty(spec.samples) for _ in range(4)]


def common_draws(spec: ExpectationSpec) -> DrawSet | None:
    """The ``DrawSet`` of ``spec`` for a sweep; None unless ``spec`` is Monte Carlo."""
    return DrawSet(spec) if spec.method is Method.MONTE_CARLO else None


@lru_cache(maxsize=16)  # a 1-D and a 2-D rule for each of 8 node counts
def _laguerre_rule(nodes: int, dims: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Node grids (read-only views of the nodes along each axis) and weights of
    the ``dims``-fold tensor rule: ``[x]`` and ``w`` in 1-D, ``outer(w, w)`` in 2-D."""
    x, w = np.polynomial.laguerre.laggauss(nodes)
    axes = np.meshgrid(*[x] * dims, indexing="ij", sparse=True)
    grids = [np.broadcast_to(a, (nodes,) * dims) for a in axes]
    return grids, reduce(np.multiply.outer, [w] * dims)


def _expectation(integrand: Callable[..., np.ndarray], coefficients: Sequence[float],
                 tags: Sequence[int], spec: ExpectationSpec,
                 draws: DrawSet | None = None) -> tuple[float, float]:
    """Mean and standard error of ``integrand(c_1 X_1, ..., c_k X_k)``.

    The X_i are independent exponential(1) variables: Monte Carlo takes
    X_i from stream ``tags[i]`` and scales it by c_i, into the scratch of a
    ``draws`` set bound to this very spec, else in place into a fresh draw.
    Gauss-Laguerre (k <= 2) evaluates the tensor rule. The integrand may
    overwrite its arrays, and the engine writes only into arrays it made.
    The mean must be finite and within the samples.
    """
    if spec.method is Method.MONTE_CARLO:
        n = spec.samples
        shared = draws is not None and draws.spec == spec
        args = [np.multiply(c, draws.w[tag], out=draws.scratch[i]) if shared
                else np.multiply(c, fresh := exp_draws(spec.seed, tag, n), out=fresh)
                for i, (c, tag) in enumerate(zip(coefficients, tags))]
        values = np.asarray(integrand(*args), dtype=float)
        if values.shape != (n,):
            raise ValueError("integrand must map (n,) arrays to an (n,) array")
        lo, hi = float(np.min(values)), float(np.max(values))
        # numpy's mean and std(ddof=1), ufunc for ufunc, with the deviations in
        # args[0]: the engine's own array, which values may be but need not be
        mean, std_error = float(np.add.reduce(values) / n), 0.0
        if n > 1:
            dev = np.subtract(values, mean, out=args[0])
            dev *= dev
            std_error = math.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n)
    else:
        grids, weights = _laguerre_rule(spec.nodes, len(coefficients))
        values = np.asarray(integrand(*(c * g for c, g in zip(coefficients, grids))), dtype=float)
        mean, std_error = float(np.sum(weights * values)), 0.0
        lo, hi = float(np.min(values)), float(np.max(values))
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (math.isfinite(mean) and lo - slack <= mean <= hi + slack):
        raise ArithmeticError(f"mean {mean} lies outside the sampled range [{lo}, {hi}]")
    return mean, std_error


def expect_over_exponentials(integrand: Callable[..., np.ndarray],
                             spec: ExpectationSpec) -> tuple[float, float]:
    """Mean and standard error of ``integrand`` over exponential(1) inputs.

    The integrand receives ``spec.dims`` arrays and must evaluate
    elementwise. Under Monte Carlo, argument i is drawn from stream i.
    """
    return _expectation(integrand, (1.0,) * spec.dims, range(spec.dims), spec)


def _gain_coefficient(a, b, c, n0, m):
    # Coefficient of |w|^2 in the per-link SNR gain; ``a`` may be an array.
    c2 = c * c
    num = 2.0 * a * (1.0 - a) * m * m * b * b * c2 * c2
    den = 2.0 * (1.0 - a) * m * b * c2 * n0 + (m - 2.0) * (c2 * a * m * b + n0) * n0
    return num / den


def _finite_gain(a, b, c, n0, m, names: tuple[str, str, str], link: str) -> float:
    # the coefficient at scalar inputs; a ValueError names them where it is not finite
    try:
        gain = _gain_coefficient(a, b, c, n0, m)
    except ZeroDivisionError:  # the denominator underflowed to 0
        gain = math.nan
    if not math.isfinite(gain):
        raise ValueError(f"{link} gain is not finite at {names[0]}={a!r}, {names[1]}={b!r}, "
                         f"{names[2]}={c!r}, n0={n0!r}, m={m!r}")
    return gain


def _check_each(name: str, values: np.ndarray, ok, hi: float = math.inf) -> None:
    # an array's check_real(name, v, 0, hi), on the first v failing the caller's test ``ok``
    if not np.all(ok):
        check_real(name, float(values[~ok].flat[0]), 0.0, hi)


def snr_gain_g(a: float, b: float, c: float, n0: float, m: int, w_sq) -> np.ndarray | float:
    """Effective post-training SNR of one link, as a multiple of |w|^2.

    ``a`` is the training fraction, ``b`` the node power, ``c`` the fading
    standard deviation. Equals the per-symbol data energy times the estimate
    variance, divided by (data energy times error variance plus noise):

        2 a (1-a) m^2 b^2 c^4 |w|^2
        ---------------------------------------------
        2 (1-a) m b c^2 n0 + (m-2) (c^2 a m b + n0) n0
    """
    _check_link(c, a, m, b, n0, names=("c", "a", "b"))
    gain = _finite_gain(a, b, c, n0, m, ("a", "b", "c"), "snr")
    hi = np.finfo(float).max / max(gain, 1.0)  # keeps gain * w_sq finite
    w_sq = np.asarray(w_sq, dtype=float)
    _check_each("w_sq", w_sq, (w_sq >= 0.0) & (w_sq <= hi), hi)
    out = gain * w_sq
    return float(out) if out.ndim == 0 else out


def _combine(x: np.ndarray, y: np.ndarray, out=None, spare=None):
    # f_combiner's formula, unchecked, into ``out`` with the denominator in ``spare``:
    # the AF integrand's gains times exponential draws are finite and nonnegative
    den = np.add(x, y, out=spare)
    den += 1.0  # in place into an array; rebinds the numpy scalar of 0-d inputs
    return np.divide(np.multiply(x, y, out=out), den, out=out)


def f_combiner(x, y):
    """End-to-end SNR of a two-hop amplified link: x*y / (1 + (x + y)).

    ``x + y`` is summed first so that the result is symmetric in its
    arguments bit for bit.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    _check_each("x", x, np.isfinite(x))
    _check_each("y", y, np.isfinite(y))
    _check_each("x", x, x >= 0.0)
    _check_each("y", y, y >= 0.0)
    out = _combine(x, y)
    return float(out) if out.ndim == 0 else out


def _gains(cfg: SystemConfig, stats: ChannelStats):
    """Per-link gain coefficients (sd, sr, rd); the config and stats validated the inputs."""
    links = (("sd", "delta_s", "p_s"), ("sr", "delta_s", "p_s"), ("rd", "delta_r", "p_r"))
    return tuple(_finite_gain(getattr(cfg, fraction), getattr(cfg, power),
                              getattr(stats, f"sigma_{link}"), stats.n0, cfg.m,
                              (fraction, power, f"sigma_{link}"), f"{link} link")
                 for link, fraction, power in links)


def _rate(integrand, coefficients, tags, m: int, spec: ExpectationSpec,
          draws: DrawSet | None) -> RateEstimate:
    # two pilot symbols plus half-duplex halving
    prefactor = (m - 2.0) / (2.0 * m)
    mean, std_error = _expectation(integrand, coefficients, tags, spec, draws)
    samples = spec.samples if spec.method is Method.MONTE_CARLO else 0
    return RateEstimate(prefactor * mean, prefactor * std_error, samples, spec.method)


def _require(cfg: SystemConfig, spec: ExpectationSpec, scheme: Scheme) -> None:
    if cfg.scheme is not scheme:
        raise ValueError(f"config scheme is {cfg.scheme}, expected {scheme}")
    if spec.method is Method.GAUSS_LAGUERRE and scheme is Scheme.AF:
        raise ValueError("af_rate requires Monte Carlo (3-D expectation)")
    dims = 3 if spec.method is Method.MONTE_CARLO else 2  # all three magnitudes, or DF's two
    check_int(f"dims of a {spec.method.value} rate", spec.dims, dims, dims)


def af_rate(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec, *,
            draws: DrawSet | None = None) -> RateEstimate:
    """Worst-case amplify-and-forward rate.

    (m-2)/(2m) * E[ log(1 + g_sd + f(g_sr, g_rd)) ] over independent
    exponential draws of the three |w|^2 variables. Monte Carlo only; the
    3-D expectation has no quadrature route here (the matrix-form oracle is
    the cross-check). ``draws`` (from ``common_draws``) lets a sweep skip
    the draw and reuse its scratch; the value is the same without it.
    """
    _require(cfg, spec, Scheme.AF)
    spare = draws.scratch[3] if draws is not None and draws.spec == spec else None
    return _rate(lambda g_sd, g_sr, g_rd: np.log1p(
                     np.add(g_sd, _combine(g_sr, g_rd, g_sr, spare), out=g_sd), out=g_sd),
                 _gains(cfg, stats), (W_SD, W_SR, W_RD), cfg.m, spec, draws)


def _df_rate(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec,
             scheme: Scheme, combining, draws: DrawSet | None) -> RateEstimate:
    """min of the relay-decoding and combining rates, both kept in ``parts``."""
    _require(cfg, spec, scheme)
    c_sd, c_sr, c_rd = _gains(cfg, stats)
    parts = {
        RELAY_DECODING: _rate(lambda g: np.log1p(g, out=g), (c_sr,), (W_SR,), cfg.m, spec, draws),
        COMBINING: _rate(combining, (c_sd, c_rd), (W_SD, W_RD), cfg.m, spec, draws),
    }
    return replace(min(parts.values(), key=lambda r: r.value), parts=parts)


def df_repetition_rate(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec, *,
                       draws: DrawSet | None = None) -> RateEstimate:
    """Decode-and-forward rate when the relay repeats the source codeword.

    min of the relay-decoding rate and the destination rate
    (m-2)/(2m) * E[ log(1 + g_sd + g_rd) ]; both appear in ``parts``.
    """
    return _df_rate(cfg, stats, spec, Scheme.DF_REPETITION,
                    lambda g_sd, g_rd: np.log1p(np.add(g_sd, g_rd, out=g_sd), out=g_sd), draws)


def df_parallel_rate(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec, *,
                     draws: DrawSet | None = None) -> RateEstimate:
    """Decode-and-forward rate with an independent relay codeword.

    The destination constraint becomes
    (m-2)/(2m) * E[ log(1 + g_sd) + log(1 + g_rd) ]. Dominates the
    repetition scheme sample by sample, since (1 + x)(1 + y) >= 1 + x + y.
    """
    return _df_rate(cfg, stats, spec, Scheme.DF_PARALLEL,
                    lambda g_sd, g_rd: np.add(np.log1p(g_sd, out=g_sd), np.log1p(g_rd, out=g_rd),
                                              out=g_sd), draws)


RATE_FN = {
    Scheme.AF: af_rate,
    Scheme.DF_REPETITION: df_repetition_rate,
    Scheme.DF_PARALLEL: df_parallel_rate,
}
