"""Workload inputs, generated from the workload seed alone.

Nothing here imports ``relayrates``: the parent process builds the inputs,
writes them to a JSON file, and the worker hands them to the package. The
same seed always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("sweep", "point", "verify")

# sweep-theta presets, one per scheme, at each total power P.
SWEEP_PRESETS = {
    100.0: {"af": "fig2", "df-rep": "fig3", "df-par": "fig4"},
    1.0: {"af": "fig5", "df-rep": "fig6", "df-par": "fig7"},
}
SWEEP_CURVES = 4
SWEEP_THETA_POINTS = 101
JOINT_THETA_STEP = 0.05

# point: a fixed mix of single library calls per repetition.
POINT_MIX = {"mc": 1200, "gl": 900, "delta": 900}
POINT_MC_SAMPLES = 10_000
POINT_GL_NODES = 64
POINT_P_RANGE = (0.1, 1000.0)
POINT_SIGMA_RANGE = (0.3, 10.0)
POINT_FRACTION_RANGE = (0.01, 0.99)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def sweep_inputs(seed: int) -> dict:
    """One P level, one preset curve and one Monte Carlo seed."""
    rng = np.random.default_rng([seed, 1])
    power = float(rng.choice(sorted(SWEEP_PRESETS)))
    return {
        "power": power,
        "presets": SWEEP_PRESETS[power],
        "curve": int(rng.integers(1, SWEEP_CURVES + 1)),
        "mc_seed": int(rng.integers(0, 2**31)),
        "joint_theta_step": JOINT_THETA_STEP,
    }


def point_inputs(seed: int) -> dict:
    """About 3000 independent calls; every Monte Carlo call has its own seed."""
    rng = np.random.default_rng([seed, 2])
    kinds = [kind for kind, count in POINT_MIX.items() for _ in range(count)]
    rng.shuffle(kinds)
    mc_seeds = rng.choice(2**62, size=POINT_MIX["mc"], replace=False)
    calls = []
    next_seed = iter(int(s) for s in mc_seeds)
    for kind in kinds:
        m = 2 * int(rng.integers(5, 101))
        power = _log_uniform(rng, *POINT_P_RANGE)
        sigma = [_log_uniform(rng, *POINT_SIGMA_RANGE) for _ in range(3)]
        theta, delta_s, delta_r = (float(rng.uniform(*POINT_FRACTION_RANGE)) for _ in range(3))
        call = {"kind": kind, "m": m, "p": power, "sigma": sigma, "n0": 1.0}
        if kind == "mc":
            call.update(scheme=str(rng.choice(["af", "df-rep", "df-par"])),
                        theta=theta, delta_s=delta_s, delta_r=delta_r,
                        samples=POINT_MC_SAMPLES, seed=next(next_seed))
        elif kind == "gl":
            call.update(scheme=str(rng.choice(["df-rep", "df-par"])),
                        theta=theta, delta_s=delta_s, delta_r=delta_r,
                        nodes=POINT_GL_NODES)
        else:
            call["function"] = str(rng.choice(["optimal_delta_r", "suboptimal_delta_s"]))
        calls.append(call)
    return {"calls": calls}


def verify_inputs(seed: int) -> dict:
    """``relayrates verify --seed`` takes the workload seed as it is."""
    return {"seed": seed}


def make_inputs(workload: str, seed: int) -> dict:
    return {"sweep": sweep_inputs, "point": point_inputs, "verify": verify_inputs}[workload](seed)


def sweep_call_model(inputs: dict) -> dict[str, int]:
    """Traced call counts of one sweep repetition at the recorded commit.

    Per 101-point curve: one rate call per theta, three ``exp_draws`` per
    rate call, three ``snr_gain_g`` per AF call and six per DF call (the
    relay-decoding term recomputes the gains). ``joint_allocation`` on a grid
    of n thetas makes 1 + 2(n-2) + 2 rate calls and 1 + 3(n-2) + 2
    ``optimal_delta_r`` calls, because both source candidates differ for
    every preset curve. Later changes may legitimately move these counts;
    the benchmark reports a mismatch but does not fail on it.
    """
    n = int(round(1.0 / inputs["joint_theta_step"])) + 1
    joint_rates = 1 + 2 * (n - 2) + 2
    joint_delta_r = 1 + 3 * (n - 2) + 2
    per_scheme = SWEEP_THETA_POINTS + joint_rates
    return {
        "cli.main": 3,
        "optimize.theta_sweep": 3,
        "optimize.joint_allocation": 3,
        "rates.af_rate": per_scheme,
        "rates.df_repetition_rate": per_scheme,
        "rates.df_parallel_rate": per_scheme,
        "rates.exp_draws": 3 * 3 * per_scheme,
        "rates.snr_gain_g": 3 * per_scheme + 2 * 6 * per_scheme,
        "rates.f_combiner": per_scheme,
        "optimize.optimal_delta_r": 3 * joint_delta_r,
        "optimize.snr_gain_g_coefficient": 3 * joint_delta_r,
        "optimize.suboptimal_delta_s": 3 * (n - 1),
    }
