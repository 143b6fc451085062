"""Achievable rates and resource allocation for pilot-trained relay links.

The library evaluates worst-case rate lower bounds of a three-node
(source, relay, destination) Rayleigh block-fading link whose channels are
known only through pilot-based MMSE estimates, for amplify-and-forward and
both decode-and-forward coding styles, and optimizes the training and power
allocations. Everything is deterministic under a seed; independent oracle
evaluators (symbol-level simulation, matrix log-determinant) validate the
closed forms and are wired into the ``relayrates verify`` CLI command.
"""

from .channel import (
    ChannelStats,
    EstimationQuality,
    Scheme,
    SystemConfig,
    data_symbol_energy,
    mmse_quality,
)
from .oracle import (
    af_rate_logdet,
    grid_argmax,
    logdet_integrand,
    max_identity_gap,
    simulate_training_quality,
    vector_channel_samples,
)
from .optimize import (
    PowerSplit,
    joint_allocation,
    optimal_delta_r,
    optimize_theta,
    snr_gain_g_coefficient,
    suboptimal_delta_s,
    theta_sweep,
)
from .rates import (
    COMBINING,
    RELAY_DECODING,
    W_RD,
    W_SD,
    W_SR,
    AllocationResult,
    ExpectationSpec,
    Method,
    RateEstimate,
    af_rate,
    closed_grid,
    df_parallel_rate,
    df_repetition_rate,
    exp_draws,
    expect_over_exponentials,
    f_combiner,
    snr_gain_g,
)

__version__ = "0.1.0"

