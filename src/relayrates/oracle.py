"""Independent evaluators used to validate the closed forms.

Nothing here reuses the scalar rate formulas: the training simulator works
at symbol level on raw pilot observations, and the amplify-and-forward
evaluator goes through the 2x1 vector channel (signal vector A, noise mixing
matrix B, explicit amplification beta) and a genuine matrix log-determinant.
Agreement between the two routes is the primary correctness check of the
package; disagreement beyond sampling noise is a bug by definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStats, EstimationQuality, Scheme, SystemConfig, data_symbol_energy, mmse_quality
from .rates import (
    AllocationResult,
    ExpectationSpec,
    Method,
    RateEstimate,
    SearchMethod,
    closed_grid,
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
    return scale * (gen.standard_normal(n) + 1j * gen.standard_normal(n))


def simulate_training_quality(sigma: float, delta: float, m: int, p: float, n0: float,
                              trials: int, seed: int) -> EstimationQuality:
    """Empirical estimate/error variances from raw pilot observations.

    Draws ``h ~ CN(0, sigma^2)``, observes ``y = h * sqrt(delta*m*p) + n``,
    applies the linear MMSE weight and measures the variances directly. The
    returned pair is empirical; it matches :func:`relayrates.channel.mmse_quality`
    only within sampling error (about var/sqrt(trials)).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    if not (math.isfinite(n0) and n0 > 0.0):
        raise ValueError(f"n0 must be positive and finite, got {n0}")
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if not (math.isfinite(p) and p >= 0.0):
        raise ValueError(f"p must be nonnegative and finite, got {p}")

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

    a = np.empty((n, 2), dtype=complex)
    a[:, 0] = h_sd
    a[:, 1] = relayed * h_sr

    b = np.zeros((n, 2, 3), dtype=complex)
    b[:, 0, 1] = 1.0
    b[:, 1, 0] = relayed
    b[:, 1, 2] = 1.0
    d = np.diag([ez_r, ez_d, ez_dr]).astype(complex)
    cov = b @ d @ b.conj().transpose(0, 2, 1)
    return (h_sd, h_sr, h_rd), beta, a, cov, (ex_s, ex_r, ez_r, ez_d, ez_dr)


def _logdet(signal_energy: float, a: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log det(I + E|x|^2 * A A^H * Cov^-1) per draw, for (n, 2) A and (n, 2, 2) Cov."""
    outer = signal_energy * a[:, :, None] * a.conj()[:, None, :]
    k = np.eye(2, dtype=complex)[None, :, :] + outer @ np.linalg.inv(cov)
    sign, logs = np.linalg.slogdet(k)
    if np.any(np.abs(sign - 1.0) > 1e-9):
        raise ArithmeticError("log-det integrand lost positivity")
    return logs


def vector_channel_samples(cfg: SystemConfig, stats: ChannelStats, seed: int,
                           count: int) -> list[VectorChannelSample]:
    """Materialize ``count`` draws of the vector channel for inspection."""
    (h_sd, h_sr, h_rd), beta, a, cov, _ = _vector_channel(cfg, stats, seed, count)
    return [VectorChannelSample(complex(h_sd[i]), complex(h_sr[i]), complex(h_rd[i]),
                                float(beta[i]), a[i], cov[i]) for i in range(count)]


def logdet_integrand(sample: VectorChannelSample, signal_energy: float) -> float:
    """log det(I + E|x|^2 * A A^H * Cov^-1) for one vector-channel draw."""
    return float(_logdet(signal_energy, sample.a_vec[None], sample.noise_cov[None])[0])


def af_rate_logdet(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec) -> RateEstimate:
    """Amplify-and-forward rate through the vector channel's log-determinant.

    Draws the three channel estimates at their closed-form variances, builds
    A, B and the mixed-noise covariance per draw with the relay gain at its
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


def max_identity_gap(cfg: SystemConfig, stats: ChannelStats, seed: int, count: int,
                     *, gain_scale: float = 1.0) -> float:
    """Largest relative gap between the log-det integrand and its scalar form.

    For every draw, log det(I + E|x_s|^2 A A^H Cov^-1) must equal
    log(1 + SNR_sd + f(SNR_sr, SNR_rd)) with the per-link SNR ratios built
    from the same estimate draws. The gap is pure floating-point noise; it
    does not shrink with averaging, so a handful of draws suffices.
    ``gain_scale`` multiplies the scalar-side SNRs (verify-harness fault
    injection, mirroring the hook on the rate functions).
    """
    (h_sd, h_sr, h_rd), _, a, cov, (ex_s, ex_r, ez_r, ez_d, ez_dr) = _vector_channel(
        cfg, stats, seed, count)
    snr_sd = gain_scale * ex_s * np.abs(h_sd) ** 2 / ez_d
    snr_sr = gain_scale * ex_s * np.abs(h_sr) ** 2 / ez_r
    snr_rd = gain_scale * ex_r * np.abs(h_rd) ** 2 / ez_dr
    scalar = np.log1p(snr_sd + f_combiner(snr_sr, snr_rd))
    matrix = _logdet(ex_s, a, cov)
    return float(np.max(np.abs(matrix - scalar) / np.maximum(np.abs(scalar), 1e-300),
                        initial=0.0))


def grid_argmax(objective, lo: float, hi: float, step: float) -> AllocationResult:
    """Maximize a scalar function on the closed grid lo, lo+step, ..., hi.

    Ties resolve to the smallest argument. Non-finite objective values abort
    with the offending argument in the message.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not (0.0 < step <= (hi - lo) / 10.0):
        raise ValueError(f"step must be in (0, (hi-lo)/10], got {step}")
    grid = closed_grid(lo, hi, step)

    values = np.array([float(objective(x)) for x in grid])
    if not np.all(np.isfinite(values)):
        bad = grid[int(np.argmin(np.isfinite(values)))]
        raise ArithmeticError(f"objective is non-finite at {bad}")
    best = int(np.argmax(values))
    estimate = RateEstimate(float(values[best]), 0.0, 0, Method.CLOSED_FORM)
    return AllocationResult(argument=float(grid[best]), rate=estimate,
                            method=SearchMethod.GRID, evaluations=len(grid))
