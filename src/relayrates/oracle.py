"""Independent evaluators used to validate the closed forms.

Nothing here reuses the scalar rate formulas: the training simulator works
at symbol level on raw pilot observations, and the amplify-and-forward
evaluator goes through the 2x1 vector channel (signal vector A, noise mixing
matrix B, explicit amplification beta) and the matrix log-determinant
log det(I + E A A^H Cov^-1). Cov = B D B^H is summed over B's three columns,
entry by entry, in the order of a batched matmul, so it is that product bit
for bit, though B is never formed. The log-det is evaluated in whitened
Hermitian form, log(1 + E ||L^-1 A||^2) with Cov = L L^H (an explicit 2x2
Cholesky factor, no LAPACK), which has no cancellation at high power; a
covariance that is not positive definite is an error.
Agreement between the two routes is the primary correctness check of the
package; disagreement beyond sampling noise is a bug by definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelStats, EstimationQuality, Scheme, SystemConfig, _check_link,
                      check_int, check_real, data_symbol_energy, mmse_quality)
from .rates import (
    MAX_SAMPLES,
    AllocationResult,
    ExpectationSpec,
    Method,
    RateEstimate,
    _grid_array,
    f_combiner,
    stream,
)

# Stream tags disjoint from the |w|^2 tags in rates: the oracle must sample
# independently from the closed-form evaluator it checks.
EST_SD = 8
EST_SR = 9
EST_RD = 10
TRAIN_CHANNEL = 16
TRAIN_NOISE = 17


@dataclass(frozen=True)
class VectorChannelSample:
    """One draw of the 2x1 vector channel seen by the destination.

    ``a_vec`` stacks the direct and relayed signal coefficients; ``noise_cov``
    is the 2x2 covariance of the mixed noise after amplification. ``beta`` is
    the relay gain at its power limit.
    """

    h_hat_sd: complex
    h_hat_sr: complex
    h_hat_rd: complex
    beta: float
    a_vec: np.ndarray
    noise_cov: np.ndarray


def _complex_normal(gen: np.random.Generator, variance: float, n: int) -> np.ndarray:
    if variance == 0.0:
        return np.zeros(n, dtype=complex)
    scale = math.sqrt(variance / 2.0)
    out = np.empty(n, dtype=complex)
    np.multiply(gen.standard_normal(n), scale, out=out.real)
    np.multiply(gen.standard_normal(n), scale, out=out.imag)
    return out


def simulate_training_quality(sigma: float, delta: float, m: int, p: float, n0: float,
                              trials: int, seed: int) -> EstimationQuality:
    """Empirical estimate/error variances from raw pilot observations.

    Draws ``h ~ CN(0, sigma^2)``, observes ``y = h * sqrt(delta*m*p) + n``,
    applies the linear MMSE weight and measures the variances directly. The
    returned pair is empirical; it matches :func:`relayrates.channel.mmse_quality`
    only within sampling error (about var/sqrt(trials)).
    """
    check_int("trials", trials, 1, MAX_SAMPLES)
    _check_link(sigma, delta, m, p, n0)

    s2 = sigma * sigma
    pilot = math.sqrt(delta * m * p)
    h = _complex_normal(stream(seed, TRAIN_CHANNEL), s2, trials)
    noise = _complex_normal(stream(seed, TRAIN_NOISE), n0, trials)
    y = h * pilot + noise
    h_hat = (s2 * pilot / (s2 * delta * m * p + n0)) * y
    var_estimate = float(np.mean(np.abs(h_hat) ** 2))
    var_error = float(np.mean(np.abs(h - h_hat) ** 2))
    return EstimationQuality(var_estimate=var_estimate, var_error=var_error)


def _vector_channel(cfg: SystemConfig, stats: ChannelStats, seed: int, n: int):
    """n draws of the vector channel, batched.

    Returns the estimates (h_sd, h_sr, h_rd), the relay gain beta at its
    power limit, A (n, 2), the mixed-noise covariance (n, 2, 2) and the
    energy moments (ex_s, ex_r, ez_r, ez_d, ez_dr).
    """
    check_int("count", n, 0, MAX_SAMPLES)
    q_sd = mmse_quality(stats.sigma_sd, cfg.delta_s, cfg.m, cfg.p_s, stats.n0)
    q_sr = mmse_quality(stats.sigma_sr, cfg.delta_s, cfg.m, cfg.p_s, stats.n0)
    q_rd = mmse_quality(stats.sigma_rd, cfg.delta_r, cfg.m, cfg.p_r, stats.n0)
    h_sd = _complex_normal(stream(seed, EST_SD), q_sd.var_estimate, n)
    h_sr = _complex_normal(stream(seed, EST_SR), q_sr.var_estimate, n)
    h_rd = _complex_normal(stream(seed, EST_RD), q_rd.var_estimate, n)

    ex_s = data_symbol_energy(cfg.delta_s, cfg.m, cfg.p_s)
    ex_r = data_symbol_energy(cfg.delta_r, cfg.m, cfg.p_r)
    ez_r = q_sr.var_error * ex_s + stats.n0
    ez_d = q_sd.var_error * ex_s + stats.n0
    ez_dr = q_rd.var_error * ex_r + stats.n0

    beta = np.sqrt(ex_r / (np.abs(h_sr) ** 2 * ex_s + ez_r))
    relayed = h_rd * beta
    a = np.stack([h_sd, relayed * h_sr], axis=1)

    # B = [[0, 1, 0], [relayed, 0, 1]], D = diag(ez_r, ez_d, ez_dr). Each product of
    # (B D) B^H is a complex constant or an (n,) vector built from `relayed`, summed
    # over B's three columns in matmul's order, one (n,) entry of Cov at a time.
    rows = ((0j, 1 + 0j, 0j), (relayed, 0j, 1 + 0j))
    bd = [[np.multiply(x, dk) for x, dk in zip(row, (ez_r, ez_d, ez_dr))] for row in rows]
    bh = [[np.conj(x) for x in row] for row in rows]
    cov = np.empty((n, 2, 2), dtype=complex)
    for i, j in np.ndindex(2, 2):
        entry = cov[:, i, j]
        np.multiply(bd[i][0], bh[j][0], out=entry)
        for k in (1, 2):
            entry += bd[i][k] * bh[j][k]
    return (h_sd, h_sr, h_rd), beta, a, cov, (ex_s, ex_r, ez_r, ez_d, ez_dr)


def _pivot_sqrt(pivot: np.ndarray) -> np.ndarray:
    if not np.all(pivot > 0.0):  # also false for NaN
        raise ArithmeticError("noise covariance of the log-det integrand is not "
                              "positive definite")
    return np.sqrt(pivot)


def _logdet(signal_energy: float, a: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log det(I + E|x|^2 * A A^H * Cov^-1) per draw, for (n, 2) A and (n, 2, 2) Cov.

    A A^H has rank one, so this is log(1 + E|x|^2 * ||L^-1 a||^2) with Cov = L L^H.
    L is the lower Cholesky factor of any Hermitian positive-definite Cov, in LAPACK's
    operation order, so it is LAPACK's factor bit for bit where c10 = 0 (the oracle's).
    """
    l00 = _pivot_sqrt(cov[:, 0, 0].real)
    l10 = cov[:, 1, 0] * (1.0 / l00)
    l11 = _pivot_sqrt(cov[:, 1, 1].real - (l10.real ** 2 + l10.imag ** 2))
    # L is lower triangular: forward substitution gives w = L^-1 a
    w0 = a[:, 0] / l00
    w1 = (a[:, 1] - l10 * w0) / l11
    energy = w0.real ** 2 + w0.imag ** 2 + (w1.real ** 2 + w1.imag ** 2)
    return np.log1p(signal_energy * energy)


def vector_channel_samples(cfg: SystemConfig, stats: ChannelStats, seed: int,
                           count: int) -> list[VectorChannelSample]:
    """Materialize ``count`` draws of the vector channel for inspection."""
    (h_sd, h_sr, h_rd), beta, a, cov, _ = _vector_channel(cfg, stats, seed, count)
    return [VectorChannelSample(complex(h_sd[i]), complex(h_sr[i]), complex(h_rd[i]),
                                float(beta[i]), a[i], cov[i]) for i in range(count)]


def logdet_integrand(sample: VectorChannelSample, signal_energy: float) -> float:
    """log det(I + E|x|^2 * A A^H * Cov^-1) for one vector-channel draw."""
    check_real("signal_energy", signal_energy)
    return float(_logdet(signal_energy, sample.a_vec[None], sample.noise_cov[None])[0])


def af_rate_logdet(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec) -> RateEstimate:
    """Amplify-and-forward rate through the vector channel's log-determinant.

    Draws the three channel estimates at their closed-form variances, builds
    A and the mixed-noise covariance B D B^H per draw with the relay gain at its
    power limit, and averages log det(I + E|x_s|^2 A A^H (B D B^H)^-1).
    Must agree with :func:`relayrates.rates.af_rate` within sampling error.
    """
    if cfg.scheme is not Scheme.AF:
        raise ValueError(f"config scheme is {cfg.scheme}, expected Scheme.AF")
    if spec.method is not Method.MONTE_CARLO:
        raise ValueError("the log-det oracle is Monte Carlo only")
    n = spec.samples
    _, _, a, cov, (ex_s, *_) = _vector_channel(cfg, stats, spec.seed, n)
    logs = _logdet(ex_s, a, cov)

    pref = (cfg.m - 2.0) / (2.0 * cfg.m)
    mean = float(logs.mean())
    se = float(logs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if not (0.0 <= mean <= float(logs.max()) + 1e-12):
        raise ArithmeticError("log-det mean violates its sample bound")
    return RateEstimate(pref * mean, pref * se, n, Method.MONTE_CARLO)


def max_identity_gap(cfg: SystemConfig, stats: ChannelStats, seed: int, count: int) -> float:
    """Largest relative gap between the log-det integrand and its scalar form.

    For every draw, log det(I + E|x_s|^2 A A^H Cov^-1) must equal
    log(1 + SNR_sd + f(SNR_sr, SNR_rd)) with the per-link SNR ratios built
    from the same estimate draws. The gap is pure floating-point noise; it
    does not shrink with averaging, so a handful of draws suffices.
    """
    (h_sd, h_sr, h_rd), _, a, cov, (ex_s, ex_r, ez_r, ez_d, ez_dr) = _vector_channel(
        cfg, stats, seed, count)
    snr_sd = ex_s * np.abs(h_sd) ** 2 / ez_d
    snr_sr = ex_s * np.abs(h_sr) ** 2 / ez_r
    snr_rd = ex_r * np.abs(h_rd) ** 2 / ez_dr
    scalar = np.log1p(snr_sd + f_combiner(snr_sr, snr_rd))
    matrix = _logdet(ex_s, a, cov)
    return float(np.max(np.abs(matrix - scalar) / np.maximum(np.abs(scalar), 1e-300),
                        initial=0.0))


def grid_argmax(objective, lo: float, hi: float, step: float) -> AllocationResult:
    """Maximize a vectorized objective on the closed grid lo, lo+step, ..., hi.

    ``objective`` is called once, with the whole grid as a float ndarray, and
    must return one value per grid point; any other shape is a ValueError.
    Ties resolve to the smallest argument. Non-finite objective values abort
    with the offending argument in the message. The objective must be
    nonnegative: a negative maximum is a ValueError naming it and its argument.
    """
    grid = _grid_array(lo, hi, step)
    check_real("step", step, hi=(hi - lo) / 10.0, open_lo=True)

    values = np.asarray(objective(grid), dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"objective returned shape {values.shape} for a grid of "
                         f"{grid.size} points; expected ({grid.size},)")
    if not np.all(np.isfinite(values)):
        bad = float(grid[int(np.argmin(np.isfinite(values)))])
        raise ArithmeticError(f"objective is non-finite at {bad}")
    best = int(np.argmax(values))
    check_real(f"objective maximum (at {float(grid[best])!r})", float(values[best]))
    estimate = RateEstimate(float(values[best]), 0.0, 0, Method.CLOSED_FORM)
    return AllocationResult(argument=float(grid[best]), rate=estimate, evaluations=len(grid))
