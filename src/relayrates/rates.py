"""Worst-case achievable rates of the pilot-trained relay link.

Every rate is an expectation of ``log(1 + SNR)`` over the squared magnitudes
of normalized fading estimates: independent exponential(1) variables, each
scaled by its link's gain coefficient. ``PARTS`` lists each scheme's parts and
``rate`` returns the least of them, each evaluated by one engine,
``_expectation``: it draws (or places Gauss-Laguerre nodes for) ``c*X`` per
link, applies the part's integrand over the gains and checks that the mean is
finite and lies within the sampled values. AF's one part combines at the
destination, log(1 + g_sd + f(g_sr, g_rd)); each DF scheme takes the min of
its own combining part and the relay decoding part log(1 + g_sr).

Monte Carlo draws invert counter-based Philox uniforms keyed by
(seed, role) through numpy's vectorized ``log1p``, one uniform per draw, so
sample i is the same in every context and identical seeds give identical
draws for every scheme and every power split (common random numbers).
``exp_draws`` re-keys its thread's one Philox generator on every call, about
a ninth of the cost of building one; ``stream`` still builds a new generator
per call, because a caller such as the oracle holds two at once and hands them
to other threads.
Threads and memory: ``_concurrently`` is the one place the package starts
threads. It deals call i to thread i % k, the caller's thread among them: the
point kernels of ``rate_curve`` and the oracle's stages, with k =
``_worker_count`` <= MAX_WORKERS. The process keeps the three read-only vectors
of the last Monte Carlo spec drawn, shared by every ``DrawSet`` of that spec,
so the sweeps and joint allocations of one spec share one draw. Each kernel
thread rescales them into its own set's 4 scratch arrays, where the integrands
compute in place, bit for bit what a standalone ``rate`` computes in its own
4 arrays (AF) or 2 (DF). A sweep so holds 3 + 4k arrays of samples floats,
never more than 3 + 4 of MAX_SAMPLES since k <= MAX_SAMPLES // samples, and
keeps the 3 vectors after it returns. The process also keeps the moments (two
floats) of each distinct part of the last Monte Carlo curve, which
``rate_curve`` evaluates once per curve, so a DF curve after the other DF
scheme's, over one spec and equal source links, evaluates no relay decoding.
Quadrature (weight: the exponential density) is one tensor Gauss-Laguerre
rule over 1-D or 2-D expectations. The module also holds what the optimizer
and the oracles share: ``rate``, ``closed_grid``, the search result and the
gain formula.
"""

from __future__ import annotations

import contextvars
import enum
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .channel import ChannelStats, Scheme, SystemConfig, _check_link, check_int, check_real

# Stream tags for the three normalized fading magnitudes. Sharing a tag across
# schemes is what makes rate comparisons use common random numbers.
W_SD = 0
W_SR = 1
W_RD = 2

# Part names: every destination combines the direct and relayed signals, and
# decode-and-forward also needs the relay to decode.
RELAY_DECODING = "relay_decoding"
COMBINING = "combining"

# numpy's Gauss-Laguerre rule overflows (NaN weights) from 187 nodes on.
MAX_NODES = 186
MAX_SAMPLES = 10**7
MAX_GRID_POINTS = 1_000_000
# _worker_count's bounds on the threads of _concurrently
MAX_WORKERS = 2
THREADED_SAMPLES = 30_000


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


# Each thread's one Philox generator, re-keyed by every exp_draws call on that thread.
_thread = threading.local()
_ZEROS = (0, 0, 0, 0)


def exp_draws(seed: int, tag: int, n: int) -> np.ndarray:
    """n draws of |w|^2 for w ~ CN(0, 1), i.e. exponential(1).

    Inversion of the uniforms of ``stream(seed, tag)``, -log1p(-u), through
    numpy's vectorized ``log1p`` in place: exactly one uniform per draw, so
    sample i of a given (seed, tag) stream is the same value in every context.
    """
    check_int("n", n, 0, MAX_SAMPLES)
    check_int("seed", seed, 0, 2**64 - 1)
    check_int("tag", tag, 0, 2**64 - 1)
    gen = getattr(_thread, "gen", None)
    if gen is None:  # the thread's first draw
        gen = _thread.gen = np.random.Generator(np.random.Philox(key=0))
    # the state stream(seed, tag) starts in: counter 0 and an empty buffer of 4 words
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _ZEROS, "key": (seed, tag)},
                               "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    u = gen.random(n)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


# The last Monte Carlo curve's part moments and what they hold under, which the next
# curve of that spec reuses: (spec, np.geterr(), {part: (mean, std_error)}), or None.
_last_moments: tuple[ExpectationSpec, dict, dict] | None = None

# The last Monte Carlo spec drawn in this process and its three read-only vectors, which
# every DrawSet of that spec shares: (spec, [w_sd, w_sr, w_rd]), or None before any draw.
_last_draws: tuple[ExpectationSpec, list[np.ndarray]] | None = None


class DrawSet:
    """The three link streams of one Monte Carlo spec, shared with its other sets.

    ``w[tag]`` is ``exp_draws(spec.seed, tag, spec.samples)``, read-only and kept
    in the process for the last spec drawn; a set of a new spec first drops the
    kept vectors, then draws its own. A kernel handed the set rescales the vectors
    it needs into the set's own four ``scratch`` buffers. The set saves work but
    never changes a value. A quadrature spec's set holds nothing and leaves the
    kept vectors be. Only this module makes sets.
    """

    def __init__(self, spec: ExpectationSpec):
        global _last_draws
        self.spec = spec
        mc = spec.method is Method.MONTE_CARLO
        last = _last_draws
        if mc and (last is None or last[0] != spec):
            _last_draws = last = None  # drops the old vectors before the new ones exist
            w = [exp_draws(spec.seed, tag, spec.samples) for tag in (W_SD, W_SR, W_RD)]
            for vector in w:
                vector.flags.writeable = False
            _last_draws = last = (spec, w)
        # views of a read-only base cannot be made writeable again, so no set can
        # change the vectors every other set of its spec reads
        self.w = [vector.view() for vector in last[1]] if mc else []
        self.scratch = [np.empty(spec.samples) for _ in range(4 if mc else 0)]


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
    ``draws`` set of this spec, else in place into a fresh draw.
    Gauss-Laguerre (k <= 2) evaluates the tensor rule. The integrand may
    overwrite its arrays, and the engine writes only into arrays it made.
    The mean must be finite and within the samples.
    """
    if spec.method is Method.MONTE_CARLO:
        n = spec.samples
        args = [np.multiply(c, draws.w[tag], out=draws.scratch[i]) if draws is not None
                else np.multiply(c, fresh := exp_draws(spec.seed, tag, n), out=fresh)
                for i, (c, tag) in enumerate(zip(coefficients, tags))]
        values = np.asarray(integrand(*args), dtype=float)
        if values.shape != (n,):
            raise ValueError("integrand must map (n,) arrays to an (n,) array")
        lo, hi = float(np.minimum.reduce(values)), float(np.maximum.reduce(values))
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
        # np.sum, np.min and np.max over every axis, ufunc for ufunc
        mean, std_error = float(np.add.reduce(weights * values, axis=None)), 0.0
        lo = float(np.minimum.reduce(values, axis=None))
        hi = float(np.maximum.reduce(values, axis=None))
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


def snr_gain_g_coefficient(a, b: float, c: float, n0: float, m: int):
    """Coefficient of |w|^2 in the SNR gain; ``a`` is a float or an ndarray.

    The formula of :func:`snr_gain_g` at |w|^2 = 1, which is its checked form;
    this one validates nothing.
    """
    c2 = c * c
    num = 2.0 * a * (1.0 - a) * m * m * b * b * c2 * c2
    den = 2.0 * (1.0 - a) * m * b * c2 * n0 + (m - 2.0) * (c2 * a * m * b + n0) * n0
    return num / den


def _finite_gain(a, b, c, n0, m, names: tuple[str, str, str], link: str) -> float:
    # the coefficient at scalar inputs; a ValueError names them where it is not finite
    try:
        gain = snr_gain_g_coefficient(a, b, c, n0, m)
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


# Each link's (training fraction, power, fading) field names and its name in errors,
# in stream-tag order
_LINKS = tuple(((fraction, power, f"sigma_{link}"), f"{link} link") for link, fraction, power
               in (("sd", "delta_s", "p_s"), ("sr", "delta_s", "p_s"), ("rd", "delta_r", "p_r")))


def _gains(cfg: SystemConfig, stats: ChannelStats):
    """Per-link gain coefficients (sd, sr, rd); the config and stats validated the inputs."""
    return tuple(_finite_gain(getattr(cfg, names[0]), getattr(cfg, names[1]),
                              getattr(stats, names[2]), stats.n0, cfg.m, names, link)
                 for names, link in _LINKS)


# Each scheme's rate is the least of its parts, (name, link tags, integrand). An
# integrand takes a spare buffer of the draws' length (or None) and the links'
# scaled draws, which it may overwrite, and returns log(1 + SNR) per sample.
_RELAY_DECODING = (RELAY_DECODING, (W_SR,), lambda spare, g_sr: np.log1p(g_sr, out=g_sr))
PARTS = {
    Scheme.AF: [(COMBINING, (W_SD, W_SR, W_RD), lambda spare, g_sd, g_sr, g_rd: np.log1p(
        np.add(g_sd, _combine(g_sr, g_rd, g_sr, spare), out=g_sd), out=g_sd))],
    Scheme.DF_REPETITION: [_RELAY_DECODING, (COMBINING, (W_SD, W_RD), lambda spare, g_sd, g_rd:
        np.log1p(np.add(g_sd, g_rd, out=g_sd), out=g_sd))],
    Scheme.DF_PARALLEL: [_RELAY_DECODING, (COMBINING, (W_SD, W_RD), lambda spare, g_sd, g_rd:
        np.add(np.log1p(g_sd, out=g_sd), np.log1p(g_rd, out=g_rd), out=g_sd))],
}


def _terms(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec) -> list:
    """Checks ``cfg`` under ``spec`` and returns its parts as (name, integrand,
    gains, link tags): all of a rate that runs before its kernels. A part is
    hashable, and equal parts have equal moments under one spec: a gain is never
    -0.0, since each factor of the formula is >= +0.0, so equal gains are equal bits."""
    mc = spec.method is Method.MONTE_CARLO
    if not mc and cfg.scheme is Scheme.AF:
        raise ValueError("an AF rate needs Monte Carlo; Gauss-Laguerre covers only the DF schemes")
    dims = 3 if mc else 2  # all three magnitudes, or DF's two
    check_int(f"dims of a {spec.method.value} rate", spec.dims, dims, dims)
    gains = _gains(cfg, stats)
    return [(name, integrand, tuple(gains[tag] for tag in links), links)
            for name, links, integrand in PARTS[cfg.scheme]]


def _kernels(terms: list, spec: ExpectationSpec, draws: DrawSet | None) -> list:
    """(mean, std_error) of each part, rescaled into ``draws``' scratch if it has any."""
    spare = draws.scratch[3] if draws is not None and draws.scratch else None
    return [_expectation(partial(integrand, spare), gains, links, spec, draws)
            for _, integrand, gains, links in terms]


def _estimate(cfg: SystemConfig, spec: ExpectationSpec, terms: list,
              moments: list) -> RateEstimate:
    """The least part's estimate, carrying every part when there are two."""
    prefactor = (cfg.m - 2.0) / (2.0 * cfg.m)  # two pilot symbols plus half-duplex halving
    samples = spec.samples if spec.method is Method.MONTE_CARLO else 0
    parts = {name: RateEstimate(prefactor * mean, prefactor * std_error, samples, spec.method)
             for (name, *_), (mean, std_error) in zip(terms, moments)}
    least = min(parts.values(), key=lambda r: r.value)
    if len(parts) == 1:
        return least
    return RateEstimate(least.value, least.std_error, samples, spec.method, parts)


def rate(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec) -> RateEstimate:
    """Worst-case rate of ``cfg.scheme``: the least of its ``PARTS``.

    Each part is (m-2)/(2m) * E[ integrand ] over the exponential draws of the
    links it reads, scaled by their gains. A Monte Carlo spec has dims 3, a
    quadrature spec dims 2, so AF, whose one part reads all three links, is
    Monte Carlo only (the matrix-form oracle is its cross-check). A DF rate
    carries its parts; AF carries none. The call draws afresh; ``rate_curve``
    gives the same value for each of many configs from one shared draw.
    """
    terms = _terms(cfg, stats, spec)
    return _estimate(cfg, spec, terms, _kernels(terms, spec, None))


def _worker_count(samples: int, tasks: int) -> int:
    """Threads for ``tasks`` independent jobs over ``samples`` draws each: min(usable
    CPUs, tasks, MAX_WORKERS, MAX_SAMPLES // samples) from THREADED_SAMPLES samples on,
    else 1. Usable CPUs are the affinity mask, not a cgroup quota. README.md's threading
    paragraph and CHANGES.md hold the timings behind both constants."""
    if samples < THREADED_SAMPLES:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, tasks, MAX_WORKERS, MAX_SAMPLES // samples))


def _concurrently(calls: Sequence[Callable[[], object]], workers: int) -> list:
    """The results of ``calls``, in order. Call i runs on thread i % ``workers``: thread 0
    is the caller's, each other one runs in a copy of the caller's context (so under its
    ``np.errstate``). No thread starts a call that comes after a failed call, or after
    the caller is interrupted, and every thread is joined before this returns. A failure
    raises that of the first failing call, in call order."""
    results, errors = [None] * len(calls), {}
    last, lock = len(calls), threading.Lock()  # no call from index last on starts

    def run(worker: int) -> None:
        nonlocal last
        for i in range(worker, len(calls), workers):
            if i >= last:
                return
            try:
                results[i] = calls[i]()
            # an interrupt of the caller's own call stops every thread below
            except Exception if worker == 0 else BaseException as exc:
                with lock:
                    errors[i], last = exc, min(last, i)
                return

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, worker))
               for worker in range(1, min(workers, len(calls)))]
    try:
        for thread in threads:
            thread.start()
        run(0)
        for thread in threads:
            thread.join()
    except BaseException:
        with lock:
            last = -1
        for thread in threads:
            if thread.is_alive():
                thread.join()
        raise
    if errors:
        raise errors[min(errors)]
    return results


def _over_parts(fn: Callable[[slice], object], n: int) -> list:
    """``fn`` of each of k = ``_worker_count(n, 2)`` consecutive slices that cover
    range(n), through ``_concurrently``: part j runs on thread j."""
    k = _worker_count(n, 2)
    return _concurrently([partial(fn, slice(n * j // k, n * (j + 1) // k)) for j in range(k)], k)


def rate_curve(cfgs: Iterable[SystemConfig], stats: ChannelStats,
               spec: ExpectationSpec) -> list[RateEstimate]:
    """``rate`` of each config, in order, over one shared draw of ``spec``.

    The caller's thread reads ``cfgs``, checks each config and computes its
    gains. It assigns each distinct part, a ``_terms`` entry, to the first point
    that needs it, unless the last Monte Carlo curve of ``spec`` under the same
    ``np.errstate`` holds its moments. If any part is left, it makes one
    ``DrawSet`` per kernel thread and ``_concurrently`` deals the points' kernels
    to k = ``_worker_count`` threads, point i with set i % k. Every estimate
    equals its standalone ``rate`` bit for bit, and a failure raises what a loop
    of ``rate`` calls raises: that of the first failing point, where an error
    from iterating ``cfgs`` counts as the point it would have yielded. A Monte
    Carlo curve that returns keeps its parts' moments for the next; any other
    curve keeps none.
    """
    global _last_moments
    points, failure = [], None
    try:
        for cfg in cfgs:
            points.append((cfg, _terms(cfg, stats, spec)))
    except Exception as exc:  # raised after the points before it are evaluated
        failure = exc
    errstate, last = np.geterr(), _last_moments
    _last_moments = None
    kept = last[2] if last is not None and last[:2] == (spec, errstate) else {}
    moments, assigned = {}, []  # every part's (mean, std_error); each point's new parts
    for _, terms in points:
        assigned.append([])
        for term in terms:
            if term not in moments:
                moments[term] = kept.get(term)
                if moments[term] is None:
                    assigned[-1].append(term)
    mc = spec.method is Method.MONTE_CARLO
    if any(assigned):
        workers = _worker_count(spec.samples, len(points)) if mc else 1
        sets = [DrawSet(spec) for _ in range(workers)]
        calls = [partial(_kernels, new, spec, sets[i % workers]) for i, new in enumerate(assigned)]
        for new, got in zip(assigned, _concurrently(calls, workers)):
            moments.update(zip(new, got))
    estimates = [_estimate(cfg, spec, terms, [moments[term] for term in terms])
                 for cfg, terms in points]
    if failure is not None:
        raise failure
    if mc:
        _last_moments = (spec, errstate, moments)
    return estimates


def _require_scheme(cfg: SystemConfig, scheme: Scheme) -> None:
    if cfg.scheme is not scheme:
        raise ValueError(f"config scheme is {cfg.scheme}, expected {scheme}")


def af_rate(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec) -> RateEstimate:
    """``rate`` of an amplify-and-forward config: E[ log(1 + g_sd + f(g_sr, g_rd)) ]."""
    _require_scheme(cfg, Scheme.AF)
    return rate(cfg, stats, spec)


def df_repetition_rate(cfg: SystemConfig, stats: ChannelStats,
                       spec: ExpectationSpec) -> RateEstimate:
    """``rate`` of a decode-and-forward config whose relay repeats the source codeword:
    the min of relay decoding and the combining rate E[ log(1 + g_sd + g_rd) ]."""
    _require_scheme(cfg, Scheme.DF_REPETITION)
    return rate(cfg, stats, spec)


def df_parallel_rate(cfg: SystemConfig, stats: ChannelStats,
                     spec: ExpectationSpec) -> RateEstimate:
    """``rate`` of a decode-and-forward config with an independent relay codeword: the
    min of relay decoding and E[ log(1 + g_sd) + log(1 + g_rd) ]. Dominates the
    repetition scheme sample by sample, since (1 + x)(1 + y) >= 1 + x + y."""
    _require_scheme(cfg, Scheme.DF_PARALLEL)
    return rate(cfg, stats, spec)
