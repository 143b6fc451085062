"""Independent evaluators used to validate the closed forms.

Nothing here reuses the scalar rate formulas: the training simulator works
at symbol level on raw pilot observations, and the amplify-and-forward
evaluator goes through the 2x1 vector channel (signal vector A, noise mixing
matrix B, explicit amplification beta) and the matrix log-determinant
log det(I + E A A^H Cov^-1), in two batched kernels. vector_channel_samples
draws A and Cov = B D B^H, summed over B's three columns entry by entry in the
order of a batched matmul, so it is that product bit for bit, though B is never
formed. logdet_integrand evaluates the log-det in whitened Hermitian form,
log(1 + E ||L^-1 A||^2) with Cov = L L^H (an explicit 2x2 Cholesky factor, no
LAPACK), which has no cancellation at high power; a covariance that is not
positive definite is an error. Agreement between the two routes is the primary
correctness check of the package; disagreement beyond sampling noise is a bug.

The stages that ``rates._concurrently`` deals to threads draw independent
(seed, role) streams, or work elementwise on the consecutive parts of the
sample axis that ``rates._over_parts`` cuts, one part a thread. Every reduction
(each mean, the standard error, the max and each positive-definite verdict) is
one whole-array call, so every output bit is what one thread gives. The traced
public functions run on the caller's thread.

Each per-draw step of the training simulator and the log-det route writes into
an array the function already owns: an output, a draw it no longer needs or one
buffer per part, never a fresh temporary per numpy step. It applies the ufuncs
of the plain expression it stands for, in that expression's order and operand
order, so every output bit is the plain expression's (``tests/test_oracle.py``
checks each stage against it). max_identity_gap's scalar form, over a few
hundred draws, stays plain.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .channel import (ChannelStats, EstimationQuality, Scheme, SystemConfig, _check_link,
                      check_int, check_real, data_symbol_energy, mmse_quality)
from .rates import (
    MAX_SAMPLES,
    AllocationResult,
    ExpectationSpec,
    Method,
    RateEstimate,
    _concurrently,
    _grid_array,
    _over_parts,
    _worker_count,
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


def _complex_normal(gen: np.random.Generator, variance: float, n: int) -> np.ndarray:
    if variance == 0.0:
        return np.zeros(n, dtype=complex)
    scale = math.sqrt(variance / 2.0)
    out, draw = np.empty(n, dtype=complex), np.empty(n)
    np.multiply(gen.standard_normal(n, out=draw), scale, out=out.real)
    np.multiply(gen.standard_normal(n, out=draw), scale, out=out.imag)
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
    workers = _worker_count(trials, 2)
    h, noise = _concurrently([partial(_complex_normal, stream(seed, tag), var, trials)
                              for tag, var in ((TRAIN_CHANNEL, s2), (TRAIN_NOISE, n0))], workers)
    y = np.multiply(h, pilot)
    y += noise
    h_hat = np.multiply(s2 * pilot / (s2 * delta * m * p + n0), y, out=y)

    def variance(x: np.ndarray) -> float:  # np.mean(np.abs(x) ** 2)
        magnitude = np.abs(x)
        return float(np.mean(np.square(magnitude, out=magnitude)))

    estimate, error = _concurrently([partial(variance, h_hat),
                                     lambda: variance(np.subtract(h, h_hat, out=noise))],
                                    workers)
    return EstimationQuality(var_estimate=estimate, var_error=error)


def vector_channel_samples(cfg: SystemConfig, stats: ChannelStats, seed: int, count: int):
    """``count`` draws of the vector channel of an AF config, batched.

    Returns the tuple ``((h_sd, h_sr, h_rd), beta, a, cov, (ex_s, ex_r, ez_r,
    ez_d, ez_dr))``: the three (count,) estimates, the relay gain beta at its
    power limit, A (count, 2), the mixed-noise covariance (count, 2, 2) and the
    energy moments.
    """
    if cfg.scheme is not Scheme.AF:
        raise ValueError(f"config scheme is {cfg.scheme}, expected Scheme.AF")
    check_int("count", count, 0, MAX_SAMPLES)
    q_sd = mmse_quality(stats.sigma_sd, cfg.delta_s, cfg.m, cfg.p_s, stats.n0)
    q_sr = mmse_quality(stats.sigma_sr, cfg.delta_s, cfg.m, cfg.p_s, stats.n0)
    q_rd = mmse_quality(stats.sigma_rd, cfg.delta_r, cfg.m, cfg.p_r, stats.n0)
    h_sd, h_sr, h_rd = _concurrently(
        [partial(_complex_normal, stream(seed, tag), q.var_estimate, count)
         for tag, q in ((EST_SD, q_sd), (EST_SR, q_sr), (EST_RD, q_rd))], _worker_count(count, 3))

    ex_s = data_symbol_energy(cfg.delta_s, cfg.m, cfg.p_s)
    ex_r = data_symbol_energy(cfg.delta_r, cfg.m, cfg.p_r)
    ez_r = q_sr.var_error * ex_s + stats.n0
    ez_d = q_sd.var_error * ex_s + stats.n0
    ez_dr = q_rd.var_error * ex_r + stats.n0

    beta = np.empty(count)
    a = np.empty((count, 2), dtype=complex)
    cov = np.empty((count, 2, 2), dtype=complex)

    def fill(part: slice) -> None:  # beta, A and Cov of the draws in part
        gain = np.abs(h_sr[part], out=beta[part])  # sqrt(ex_r / (|h_sr|^2 ex_s + ez_r))
        np.square(gain, out=gain)
        gain *= ex_s
        gain += ez_r
        np.sqrt(np.divide(ex_r, gain, out=gain), out=gain)
        relayed = h_rd[part] * gain
        a[part, 0] = h_sd[part]
        np.multiply(relayed, h_sr[part], out=a[part, 1])
        # B = [[0, 1, 0], [relayed, 0, 1]], D = diag(ez_r, ez_d, ez_dr). Each product of
        # (B D) B^H is a complex constant or a vector built from `relayed`, summed over
        # B's three columns in matmul's order, one entry of Cov at a time, summed in a
        # contiguous buffer and stored once: Cov's entries are 64 bytes apart.
        # B D scales `relayed` in place once B^H holds its conjugate.
        rows = ((0j, 1 + 0j, 0j), (relayed, 0j, 1 + 0j))
        bh = [[np.conj(x) for x in row] for row in rows]
        bd = [[np.multiply(x, dk, out=x if x is relayed else None)
               for x, dk in zip(row, (ez_r, ez_d, ez_dr))] for row in rows]
        entry = np.empty(len(relayed), dtype=complex)
        for i, j in np.ndindex(2, 2):
            np.multiply(bd[i][0], bh[j][0], out=entry)
            for k in (1, 2):
                entry += bd[i][k] * bh[j][k]
            cov[part, i, j] = entry

    _over_parts(fill, count)
    return (h_sd, h_sr, h_rd), beta, a, cov, (ex_s, ex_r, ez_r, ez_d, ez_dr)


def _pivot_sqrt(pivot: np.ndarray) -> np.ndarray:
    if not np.all(pivot > 0.0):  # also false for NaN
        raise ArithmeticError("noise covariance of the log-det integrand is not "
                              "positive definite")
    return np.sqrt(pivot)


def logdet_integrand(signal_energy: float, a: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log det(I + E|x|^2 * A A^H * Cov^-1) per draw, for (n, 2) A and (n, 2, 2) Cov.

    A A^H has rank one, so this is log(1 + E|x|^2 * ||L^-1 a||^2) with Cov = L L^H.
    L is the lower Cholesky factor of any Hermitian positive-definite Cov, in LAPACK's
    operation order, so it is LAPACK's factor bit for bit where c10 = 0 (the oracle's).
    """
    check_real("signal_energy", signal_energy)
    n = len(cov)
    if a.shape != (n, 2) or cov.shape != (n, 2, 2):
        raise ValueError(f"A of shape {a.shape} and Cov of shape {cov.shape} are not "
                         f"(n, 2) and (n, 2, 2)")
    l00 = _pivot_sqrt(cov[:, 0, 0].real)
    l10, pivot, out = np.empty(n, dtype=complex), np.empty(n), np.empty(n)

    def lower(part: slice) -> None:  # out[part] is scratch until whitened writes it
        l10p, piv, t = l10[part], pivot[part], out[part]
        np.multiply(cov[part, 1, 0], np.divide(1.0, l00[part], out=piv), out=l10p)
        np.add(np.square(l10p.real, out=piv), np.square(l10p.imag, out=t), out=piv)
        np.subtract(cov[part, 1, 1].real, piv, out=piv)

    def whitened(part: slice) -> None:
        # L is lower triangular: forward substitution gives w = L^-1 a
        w0 = np.divide(a[part, 0], l00[part])
        w1 = np.multiply(l10[part], w0)
        np.divide(np.subtract(a[part, 1], w1, out=w1), l11[part], out=w1)
        # energy = (w0.real^2 + w0.imag^2) + (w1.real^2 + w1.imag^2), in that sum order
        energy, t = out[part], np.empty(len(w0))
        np.add(np.square(w0.real, out=energy), np.square(w0.imag, out=t), out=energy)
        np.add(np.square(w1.real, out=t), np.square(w1.imag, out=w1.imag), out=t)
        energy += t
        np.log1p(np.multiply(signal_energy, energy, out=energy), out=energy)

    _over_parts(lower, n)
    l11 = _pivot_sqrt(pivot)  # each verdict is one whole-array check, as on one thread
    _over_parts(whitened, n)
    return out


def af_rate_logdet(cfg: SystemConfig, stats: ChannelStats, spec: ExpectationSpec) -> RateEstimate:
    """Amplify-and-forward rate through the vector channel's log-determinant.

    Draws the three channel estimates at their closed-form variances, builds
    A and the mixed-noise covariance B D B^H per draw with the relay gain at its
    power limit, and averages log det(I + E|x_s|^2 A A^H (B D B^H)^-1).
    Must agree with :func:`relayrates.rates.af_rate` within sampling error.
    """
    if spec.method is not Method.MONTE_CARLO:
        raise ValueError("the log-det oracle is Monte Carlo only")
    n = spec.samples
    _, _, a, cov, (ex_s, *_) = vector_channel_samples(cfg, stats, spec.seed, n)
    logs = logdet_integrand(ex_s, a, cov)

    pref = (cfg.m - 2.0) / (2.0 * cfg.m)
    # numpy's mean, max and std(ddof=1), ufunc for ufunc, with the deviations in logs
    mean, top, se = float(np.add.reduce(logs) / n), float(np.maximum.reduce(logs)), 0.0
    if n > 1:
        dev = np.subtract(logs, mean, out=logs)
        dev *= dev
        se = math.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n)
    if not (0.0 <= mean <= top + 1e-12):
        raise ArithmeticError("log-det mean violates its sample bound")
    return RateEstimate(pref * mean, pref * se, n, Method.MONTE_CARLO)


def max_identity_gap(cfg: SystemConfig, stats: ChannelStats, seed: int, count: int) -> float:
    """Largest relative gap between the log-det integrand and its scalar form.

    For every draw, log det(I + E|x_s|^2 A A^H Cov^-1) must equal
    log(1 + SNR_sd + f(SNR_sr, SNR_rd)) with the per-link SNR ratios built
    from the same estimate draws. The gap is pure floating-point noise; it
    does not shrink with averaging, so a handful of draws suffices.
    """
    (h_sd, h_sr, h_rd), _, a, cov, (ex_s, ex_r, ez_r, ez_d, ez_dr) = vector_channel_samples(
        cfg, stats, seed, count)
    snr_sd = ex_s * np.abs(h_sd) ** 2 / ez_d
    snr_sr = ex_s * np.abs(h_sr) ** 2 / ez_r
    snr_rd = ex_r * np.abs(h_rd) ** 2 / ez_dr
    scalar = np.log1p(snr_sd + f_combiner(snr_sr, snr_rd))
    matrix = logdet_integrand(ex_s, a, cov)
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
