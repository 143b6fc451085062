"""Command-line front end: single-point rates, sweep CSVs and verification.

Subcommands
    rate             evaluate one configuration and print a single result line
    sweep-theta      rate vs. power split, written as CSV
    sweep-sigma-rd   optimal relay training fraction vs. link quality, CSV
    optimal-training closed-form training fractions for one configuration
    verify           cross-check closed forms against the independent oracles

A bundled preset (``--preset``) is spelled out as flags ahead of the command
line. After the command, ``@FILE`` reads flags from FILE where it stands,
each line split like a shell line with ``#`` comments. The last value of a
repeated flag wins, and argparse parses, type-checks and requires every
value once. All CSV output is deterministic: same flags, same bytes.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from dataclasses import dataclass, field

from .channel import ChannelStats, Scheme, SystemConfig, check_int, mmse_quality
from .oracle import (
    af_rate_logdet,
    grid_argmax,
    max_identity_gap,
    simulate_training_quality,
)
from .optimize import (
    PowerSplit,
    optimal_delta_r,
    snr_gain_g_coefficient,
    suboptimal_delta_s,
    theta_sweep,
)
from .rates import (
    COMBINING,
    RATE_FN,
    RELAY_DECODING,
    ExpectationSpec,
    Method,
    RateEstimate,
    af_rate,
    closed_grid,
    common_draws,
)

LN2 = math.log(2.0)

THETA_CSV_HEADER = ["theta", "rate_nats", "std_error", "scheme", "sigma_sd", "sigma_sr",
                    "sigma_rd", "P", "m", "delta_s", "delta_r", "seed"]
SIGMA_RD_CSV_HEADER = ["sigma_rd", "delta_r_opt", "P_r", "m"]

# verify's cases, shared with the acceptance tests: AF configurations
# (m, p_s, p_r, delta_s, delta_r, sigma triple, n0) for the log-det oracle,
# and (m, snr) pairs for the closed-form relay training fraction.
AF_ORACLE_CONFIGS = (
    (50, 60.0, 40.0, 0.1, 0.1, (1.0, 4.0, 4.0), 1.0),
    (50, 50.0, 50.0, 0.1, 0.1, (1.0, 2.0, 1.0), 1.0),
    (50, 80.0, 20.0, 0.05, 0.3, (0.5, 5.0, 0.5), 1.0),
    (10, 30.0, 70.0, 0.2, 0.2, (2.0, 1.0, 3.0), 2.0),
    (100, 10.0, 90.0, 0.15, 0.05, (1.0, 10.0, 2.0), 0.5),
)
DELTA_R_CASES = tuple((m, snr) for m in (6, 10, 50, 200) for snr in (1e-2, 1.0, 1e2, 1e4, 1e6))


@dataclass(frozen=True)
class Preset:
    """Bundled parameter set for one figure-style sweep."""

    command: str
    comment: str
    params: dict = field(default_factory=dict)
    sigma_triples: tuple = ()

    def flags(self) -> list[str]:
        """The params as command-line tokens; tuples are joined with commas."""
        tokens = []
        for key, value in self.params.items():
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            tokens += [f"--{key.replace('_', '-')}", text]
        return tokens


_FIG_COMMENT = "m = 50 assumed (block length is not pinned down for this sweep family)"
_FIG_TRIPLES = ((1.0, 10.0, 2.0), (1.0, 6.0, 3.0), (1.0, 4.0, 4.0), (1.0, 2.0, 1.0))


def _theta_preset(scheme: str, p: float) -> Preset:
    params = {"scheme": scheme, "p": p, "m": 50, "n0": 1.0, "delta_s": 0.1, "delta_r": 0.1}
    return Preset("sweep-theta", _FIG_COMMENT, params, _FIG_TRIPLES)


PRESETS = {
    "fig1": Preset(
        command="sweep-sigma-rd",
        comment="optimal relay training fraction vs. sigma_rd at m = 50",
        params={"m": 50, "pr": (1.0, 10.0, 100.0), "lo": 0.5, "hi": 5.0,
                "step": 0.1, "n0": 1.0},
    ),
    "fig2": _theta_preset("af", 100.0),
    "fig3": _theta_preset("df-rep", 100.0),
    "fig4": _theta_preset("df-par", 100.0),
    "fig5": _theta_preset("af", 1.0),
    "fig6": _theta_preset("df-rep", 1.0),
    "fig7": _theta_preset("df-par", 1.0),
}


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _parse_sigma(text: str) -> tuple[float, float, float]:
    if text.count(",") != 2:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    return _parse_float_list(text)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    # rows are fully computed before the file is opened, so a failure never leaves
    # a partial file behind; csv writes str(x), which is repr(x) for a float
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *rows])


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: no prefix matching, and ``@FILE`` reads flags from FILE."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, fromfile_prefix_chars="@", **kwargs)

    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        import shlex  # only an argument file needs it
        try:
            return shlex.split(arg_line, comments=True)
        except ValueError as exc:
            raise ValueError(f"argument file line {arg_line!r}: {exc}") from None


def _expand(argv: list[str]) -> list[str]:
    """Read each ``@FILE`` once and put the ``--preset`` flags ahead of all others.

    A pipe can be read only once. A file may name the preset; the last value wins.
    """
    if not argv:
        return argv
    pre = _CommandParser(prog=f"relayrates {argv[0]}", usage=argparse.SUPPRESS, add_help=False)
    pre.add_argument("--preset")
    known, rest = pre.parse_known_args(argv[1:])
    preset = PRESETS.get(known.preset)
    preset_args = preset.flags() if preset is not None and preset.command == argv[0] else []
    named = [] if known.preset is None else [f"--preset={known.preset}"]  # argparse checks it
    return argv[:1] + preset_args + rest + named


def _expectation_spec(args) -> ExpectationSpec:
    method = Method.MONTE_CARLO if args.method == "mc" else Method.GAUSS_LAGUERRE
    dims = 3 if method is Method.MONTE_CARLO else 2
    return ExpectationSpec(dims=dims, samples=args.samples, seed=args.seed,
                           method=method, nodes=args.nodes)


def _rate_tokens(rate: RateEstimate, bits: bool) -> list[str]:
    unit = "bits" if bits else "nats"
    scale = 1.0 / LN2 if bits else 1.0
    tokens = [f"rate_{unit}={rate.value * scale!r}",
              f"std_error={rate.std_error * scale!r}"]
    if rate.parts:
        tokens.append(f"binding={rate.binding}")
        for name in (RELAY_DECODING, COMBINING):
            tokens.append(f"{name}_{unit}={rate.parts[name].value * scale!r}")
    return tokens


def cmd_rate(args) -> int:
    if None not in (args.p, args.theta) and args.ps is None and args.pr is None:
        split = PowerSplit(total=args.p, theta=args.theta)
        p_s, p_r = split.p_s, split.p_r
    elif None not in (args.ps, args.pr) and args.p is None and args.theta is None:
        p_s, p_r = args.ps, args.pr
    else:
        raise ValueError("give either --ps and --pr, or --p together with --theta")
    scheme = Scheme(args.scheme)
    stats = ChannelStats(*args.sigma[:3], n0=args.n0)
    cfg = SystemConfig(m=args.m, p_s=p_s, p_r=p_r, delta_s=args.delta_s,
                       delta_r=args.delta_r, scheme=scheme)
    rate = RATE_FN[scheme](cfg, stats, _expectation_spec(args))
    tokens = [f"scheme={args.scheme}"] + _rate_tokens(rate, args.bits)
    tokens += [f"samples={rate.samples}", f"seed={args.seed}", f"method={args.method}"]
    print(" ".join(tokens))
    return 0


def _preset(args) -> Preset | None:
    if args.preset is None:
        return None
    print(f"note: preset {args.preset}: {PRESETS[args.preset].comment}")
    return PRESETS[args.preset]


def cmd_sweep_theta(args) -> int:
    preset = _preset(args)
    scheme = Scheme(args.scheme)
    if args.sigma is not None or preset is None:
        if args.curve is not None:
            raise ValueError("--curve picks a --preset curve; it needs a preset and no --sigma")
        if args.sigma is None:
            raise ValueError("missing required value --sigma")
        triples = [args.sigma]
    else:
        triples = list(preset.sigma_triples)
        if args.curve is not None:
            check_int("--curve", args.curve, 1, len(triples))
            triples = [triples[args.curve - 1]]

    spec = _expectation_spec(args)
    outputs = []
    for triple in triples:
        stats = ChannelStats(*triple, n0=args.n0)
        curve = theta_sweep(args.p, stats, args.m, args.delta_s, args.delta_r, scheme, spec,
                            grid_step=args.theta_step)
        rows = [[theta, est.value, est.std_error, args.scheme, *triple, args.p, args.m,
                 args.delta_s, args.delta_r, args.seed]
                for theta, est in curve]
        outputs.append(rows)

    if len(outputs) == 1:
        paths = [args.out]
    else:
        stem, ext = os.path.splitext(args.out)
        paths = [f"{stem}_c{i + 1}{ext}" for i in range(len(outputs))]
    for path, rows in zip(paths, outputs):
        _write_csv(path, THETA_CSV_HEADER, rows)
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_sweep_sigma_rd(args) -> int:
    _preset(args)
    rows = [[sigma_rd, optimal_delta_r(args.m, p_r, sigma_rd, args.n0), p_r, args.m]
            for p_r in args.pr for sigma_rd in closed_grid(args.lo, args.hi, args.step)]

    _write_csv(args.out, SIGMA_RD_CSV_HEADER, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_optimal_training(args) -> int:
    delta_r = optimal_delta_r(args.m, args.pr, args.sigma_rd, args.n0)
    lines = [f"delta_r_opt={delta_r!r} m={args.m} P_r={args.pr!r} "
             f"sigma_rd={args.sigma_rd!r} n0={args.n0!r}"]
    if args.ps is not None:
        if args.sigma_sd is None or args.sigma_sr is None:
            raise ValueError("--ps needs --sigma-sd and --sigma-sr for the source candidates")
        stats = ChannelStats(sigma_sd=args.sigma_sd, sigma_sr=args.sigma_sr,
                             sigma_rd=args.sigma_rd, n0=args.n0)
        d1, d2 = suboptimal_delta_s(args.m, args.ps, stats)
        lines.append(f"delta_s_via_direct={d1!r} delta_s_via_relay={d2!r} P_s={args.ps!r}")
    if args.global_delta:
        if args.ps is None or args.scheme is None:
            raise ValueError("--global-delta needs --scheme and --ps")
        scheme = Scheme(args.scheme)
        spec = ExpectationSpec(dims=3, samples=args.samples, seed=args.seed)
        draws = common_draws(spec)

        def full_rate(delta: float) -> float:
            cfg = SystemConfig(m=args.m, p_s=args.ps, p_r=args.pr,
                               delta_s=args.delta_s, delta_r=delta, scheme=scheme)
            return RATE_FN[scheme](cfg, stats, spec, draws=draws).value

        found = grid_argmax(lambda g: [full_rate(float(d)) for d in g], 0.0, 1.0,
                            args.delta_step)
        lines.append(f"delta_r_grid={found.argument!r} rate_nats={found.rate.value!r} "
                     f"evaluations={found.evaluations}")
    print("\n".join(lines))  # only once every check has passed
    return 0


def _check(name: str, ok: bool, detail: str, lines: list[str]) -> bool:
    lines.append(f"{'pass' if ok else 'FAIL':<7}{name:<35}{detail}")
    return ok


def cmd_verify(args) -> int:
    samples, seed = args.samples, args.seed
    # built first, so that --samples and --seed are checked before any allocation
    specs = [ExpectationSpec(dims=3, samples=samples, seed=seed + i)
             for i in range(len(AF_ORACLE_CONFIGS))]
    started = time.monotonic()
    lines: list[str] = []
    all_ok = True

    # 1. symbol-level pilot simulation vs. the closed-form variance split
    combos = [(s2, d, m, p) for s2 in (0.25, 1.0, 4.0) for d in (0.05, 0.3)
              for (m, p) in ((10, 1.0), (50, 100.0))]
    bad = 0
    for i, (s2, d, m, p) in enumerate(combos):
        sigma = math.sqrt(s2)
        expected = mmse_quality(sigma, d, m, p, 1.0)
        measured = simulate_training_quality(sigma, d, m, p, 1.0, samples, seed + i)
        tol = 3.0 * expected.var_error / math.sqrt(samples)
        if abs(measured.var_error - expected.var_error) > tol:
            bad += 1
    all_ok &= _check("training-sim-vs-closed-form", bad == 0,
                     f"{len(combos) - bad}/{len(combos)} combos within 3 SE", lines)

    # 2. scalar rate vs. matrix log-det route, and the per-draw identity
    bad = 0
    worst_gap = 0.0
    for (m, ps, pr, ds, dr, sigma, n0), spec in zip(AF_ORACLE_CONFIGS, specs):
        stats = ChannelStats(*sigma, n0=n0)
        cfg = SystemConfig(m=m, p_s=ps, p_r=pr, delta_s=ds, delta_r=dr, scheme=Scheme.AF)
        scalar = af_rate(cfg, stats, spec)
        matrix = af_rate_logdet(cfg, stats, spec)
        tol = 3.0 * math.hypot(scalar.std_error, matrix.std_error)
        if abs(scalar.value - matrix.value) > tol:
            bad += 1
        worst_gap = max(worst_gap, max_identity_gap(cfg, stats, spec.seed, 200))
    all_ok &= _check("logdet-vs-scalar-af", bad == 0,
                     f"{len(specs) - bad}/{len(specs)} configs within 3 SE", lines)
    all_ok &= _check("per-draw-identity", worst_gap <= 1e-9,
                     f"max relative gap {worst_gap:.3e}", lines)

    # 3. closed-form training fraction vs. brute-force grid search
    bad = 0
    for m, snr in DELTA_R_CASES:
        closed = optimal_delta_r(m, snr, 1.0, 1.0)
        gridded = grid_argmax(
            lambda a, m=m, snr=snr: snr_gain_g_coefficient(a, snr, 1.0, 1.0, m),
            0.0, 1.0, 1e-4,
        )
        if abs(closed - gridded.argument) > 1e-3:
            bad += 1
    all_ok &= _check("delta-r-closed-vs-grid", bad == 0,
                     f"{len(DELTA_R_CASES) - bad}/{len(DELTA_R_CASES)} cases within 1e-3", lines)

    print(f"{'status':<7}{'check':<35}detail")
    for line in lines:
        print(line)
    print(f"verify {'passed' if all_ok else 'FAILED'} in {time.monotonic() - started:.1f}s "
          f"(samples={samples}, seed={seed})")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayrates",
        description="Achievable rates and resource allocation for pilot-trained relay links. "
                    "After the command, @FILE reads flags in its place; a flag's last value wins.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    schemes = [scheme.value for scheme in Scheme]

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)

    def add_rate_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--method", choices=["mc", "gl"], default="mc")
        p.add_argument("--nodes", type=int, default=64)

    p_rate = sub.add_parser("rate", help="evaluate one configuration")
    p_rate.add_argument("--scheme", choices=schemes, required=True)
    p_rate.add_argument("--m", type=int, required=True)
    p_rate.add_argument("--sigma", type=_parse_sigma, required=True,
                        help="sd,sr,rd fading standard deviations")
    p_rate.add_argument("--n0", type=float, default=1.0)
    p_rate.add_argument("--ps", type=float)
    p_rate.add_argument("--pr", type=float)
    p_rate.add_argument("--p", type=float, help="total power (with --theta)")
    p_rate.add_argument("--theta", type=float, help="source share of --p")
    p_rate.add_argument("--delta-s", type=float, required=True)
    p_rate.add_argument("--delta-r", type=float, required=True)
    add_common(p_rate)
    add_rate_common(p_rate)
    p_rate.add_argument("--bits", action="store_true", help="report bits instead of nats")
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep-theta", help="rate vs. power split, CSV output")
    p_sweep.add_argument("--preset", choices=[k for k, v in PRESETS.items()
                                              if v.command == "sweep-theta"])
    p_sweep.add_argument("--curve", type=int, help="pick one preset curve (1-based)")
    p_sweep.add_argument("--scheme", choices=schemes, required=True)
    p_sweep.add_argument("--p", type=float, required=True, help="total power")
    p_sweep.add_argument("--m", type=int, required=True)
    p_sweep.add_argument("--sigma", type=_parse_sigma, help="needed unless --preset is given")
    p_sweep.add_argument("--n0", type=float, default=1.0)
    p_sweep.add_argument("--delta-s", type=float, required=True)
    p_sweep.add_argument("--delta-r", type=float, required=True)
    p_sweep.add_argument("--theta-step", type=float, default=0.01)
    p_sweep.add_argument("--out", required=True)
    add_common(p_sweep)
    add_rate_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep_theta)

    p_srd = sub.add_parser("sweep-sigma-rd",
                           help="optimal relay training fraction vs. sigma_rd, CSV output")
    p_srd.add_argument("--preset", choices=[k for k, v in PRESETS.items()
                                            if v.command == "sweep-sigma-rd"])
    p_srd.add_argument("--m", type=int, required=True)
    p_srd.add_argument("--pr", type=_parse_float_list, required=True,
                       help="comma-separated relay powers")
    p_srd.add_argument("--lo", type=float, required=True)
    p_srd.add_argument("--hi", type=float, required=True)
    p_srd.add_argument("--step", type=float, required=True)
    p_srd.add_argument("--n0", type=float, default=1.0)
    p_srd.add_argument("--out", required=True)
    p_srd.set_defaults(func=cmd_sweep_sigma_rd)

    p_opt = sub.add_parser("optimal-training", help="closed-form training fractions")
    p_opt.add_argument("--m", type=int, required=True)
    p_opt.add_argument("--pr", type=float, required=True)
    p_opt.add_argument("--sigma-rd", type=float, required=True)
    p_opt.add_argument("--n0", type=float, default=1.0)
    p_opt.add_argument("--ps", type=float)
    p_opt.add_argument("--sigma-sd", type=float)
    p_opt.add_argument("--sigma-sr", type=float)
    p_opt.add_argument("--global-delta", action="store_true",
                       help="also grid-search delta_r against the full rate")
    p_opt.add_argument("--scheme", choices=schemes)
    p_opt.add_argument("--delta-s", type=float, default=0.1)
    p_opt.add_argument("--delta-step", type=float, default=0.01)
    add_common(p_opt)
    p_opt.set_defaults(func=cmd_optimal_training)

    p_verify = sub.add_parser("verify", help="run the oracle cross-check suite")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_expand(argv))
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
