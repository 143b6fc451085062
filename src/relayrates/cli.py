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
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelStats, Scheme, SystemConfig, check_int, check_real, mmse_quality
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
    MAX_SAMPLES,
    ExpectationSpec,
    Method,
    RateEstimate,
    af_rate,
    closed_grid,
    rate,
    rate_curve,
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


def _out_paths(out: str, files: int) -> list[str]:
    """The paths of ``files`` CSVs named by ``--out``: ``out`` itself for one file, else
    ``out`` with ``_c1``, ``_c2``, ... ahead of its extension. They are checked before
    any rate, so a path that cannot be a file costs no sweep and leaves no file."""
    stem, ext = os.path.splitext(out)
    paths = [out] if files == 1 else [f"{stem}_c{i + 1}{ext}" for i in range(files)]
    for path in [out, *paths]:
        directory = os.path.dirname(path) or os.curdir
        if not path or os.path.isdir(path):
            raise ValueError(f"--out: {path!r} is a directory" if path else "--out is empty")
        if not os.path.isdir(directory):
            raise ValueError(f"--out: directory {directory!r} of {path!r} does not exist")
    return paths


def _write_csvs(header: list[str], outputs: dict[str, list[list]], preset: str | None) -> None:
    """Write each ``outputs`` path's rows under ``header``, or no file at all.

    Each CSV goes to a temporary file beside its target (through a symlink, as
    ``open(path, "w")`` writes), created as that open would create it and given an
    existing target's mode. Only once every file is written are they moved into
    place and the preset's note and the ``wrote`` lines printed; a failure removes
    the temporary files and prints nothing. csv writes str(x), repr(x) for a float.
    """
    moves = []
    try:
        for path, rows in outputs.items():
            target = os.path.realpath(path)
            with open(f"{target}.{os.getpid()}.tmp", "x", newline="") as handle:
                moves.append((handle.name, target))
                csv.writer(handle, lineterminator="\n").writerows([header, *rows])
            if os.path.exists(target):
                shutil.copymode(target, handle.name)
        for temp, target in moves:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in moves:
            if os.path.exists(temp):
                os.remove(temp)
        raise
    if preset is not None:
        print(f"note: preset {preset}: {PRESETS[preset].comment}")
    for path, rows in outputs.items():
        print(f"wrote {path} ({len(rows)} rows)")


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


def _check_samples(samples) -> None:
    # one sample has no standard error, so a Monte Carlo result would claim an error of 0
    check_int("--samples", samples, 2, MAX_SAMPLES)


def _expectation_spec(args) -> ExpectationSpec:
    method = Method.MONTE_CARLO if args.method == "mc" else Method.GAUSS_LAGUERRE
    if method is Method.MONTE_CARLO:  # Gauss-Laguerre ignores --samples
        _check_samples(args.samples)
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
        for name, part in rate.parts.items():
            tokens.append(f"{name}_{unit}={part.value * scale!r}")
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
    estimate = rate(cfg, stats, _expectation_spec(args))
    tokens = [f"scheme={args.scheme}"] + _rate_tokens(estimate, args.bits)
    tokens += [f"samples={estimate.samples}", f"seed={args.seed}", f"method={args.method}"]
    print(" ".join(tokens))
    return 0


def cmd_sweep_theta(args) -> int:
    preset = PRESETS.get(args.preset)
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
    check_real("--theta-step", args.theta_step, hi=1.0, open_lo=True)
    try:
        closed_grid(0.0, 1.0, args.theta_step)
    except ValueError as exc:  # the grid's own message names its step, not the flag
        raise ValueError(f"--theta-step: {exc}") from None
    outputs = {}
    for path, triple in zip(_out_paths(args.out, len(triples)), triples):
        stats = ChannelStats(*triple, n0=args.n0)
        curve = theta_sweep(args.p, stats, args.m, args.delta_s, args.delta_r, scheme, spec,
                            grid_step=args.theta_step)
        outputs[path] = [[theta, est.value, est.std_error, args.scheme, *triple, args.p,
                          args.m, args.delta_s, args.delta_r, args.seed]
                         for theta, est in curve]
    _write_csvs(THETA_CSV_HEADER, outputs, args.preset)
    return 0


def cmd_sweep_sigma_rd(args) -> int:
    _out_paths(args.out, 1)
    rows = [[sigma_rd, optimal_delta_r(args.m, p_r, sigma_rd, args.n0), p_r, args.m]
            for p_r in args.pr for sigma_rd in closed_grid(args.lo, args.hi, args.step)]
    _write_csvs(SIGMA_RD_CSV_HEADER, {args.out: rows}, args.preset)
    return 0


def cmd_optimal_training(args) -> int:
    # the search flags are checked whether or not --scheme runs the search
    _check_samples(args.samples)
    spec = ExpectationSpec(dims=3, samples=args.samples, seed=args.seed)
    check_real("--delta-s", args.delta_s, hi=1.0)
    check_real("--delta-step", args.delta_step, hi=0.1, open_lo=True)
    try:
        deltas = closed_grid(0.0, 1.0, args.delta_step)
    except ValueError as exc:  # the grid's own message names its step, not the flag
        raise ValueError(f"--delta-step: {exc}") from None
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
    if args.scheme is not None:
        if args.ps is None:
            raise ValueError("--scheme needs --ps")
        scheme = Scheme(args.scheme)
        cfgs = (SystemConfig(m=args.m, p_s=args.ps, p_r=args.pr, delta_s=args.delta_s,
                             delta_r=delta, scheme=scheme) for delta in deltas)
        curve = list(zip(deltas, rate_curve(cfgs, stats, spec)))
        best_delta, best_rate = max(curve, key=lambda point: point[-1].value)
        lines.append(f"delta_r_grid={best_delta!r} rate_nats={best_rate.value!r} "
                     f"evaluations={len(curve)}")
    print("\n".join(lines))  # only once every check has passed
    return 0


def cmd_verify(args) -> int:
    samples, seed = args.samples, args.seed
    combos = [(math.sqrt(s2), d, m, p) for s2 in (0.25, 1.0, 4.0) for d in (0.05, 0.3)
              for (m, p) in ((10, 1.0), (50, 100.0))]
    # checked before any sampling: case i of a check runs at seed + i, which must still
    # be a 64-bit seed
    _check_samples(samples)
    check_int("--seed", seed, 0, 2**64 - max(len(combos), len(AF_ORACLE_CONFIGS)))
    specs = [ExpectationSpec(dims=3, samples=samples, seed=seed + i)
             for i in range(len(AF_ORACLE_CONFIGS))]
    started = time.monotonic()

    def counted(name: str, misses: list[bool], within: str) -> tuple[str, bool, str]:
        # the row of a check over cases, which passes if no case misses its tolerance
        return name, not any(misses), f"{len(misses) - sum(misses)}/{len(misses)} {within}"

    # 1. symbol-level pilot simulation vs. the closed-form variance split
    # Sidak (1967): the z that gives a correct build a 1e-3 chance of a FAIL in 17 comparisons
    from statistics import NormalDist  # only verify needs it
    z = NormalDist().inv_cdf((1.0 + (1.0 - 1e-3) ** (1.0 / (len(combos) + len(specs)))) / 2.0)
    trained = []
    for i, (sigma, d, m, p) in enumerate(combos):
        expected = mmse_quality(sigma, d, m, p, 1.0)
        measured = simulate_training_quality(sigma, d, m, p, 1.0, samples, seed + i)
        trained.append(abs(measured.var_error - expected.var_error)
                       > z * expected.var_error / math.sqrt(samples))

    # 2. scalar rate vs. matrix log-det route, and the per-draw identity
    routes, gaps = [], []
    for (m, ps, pr, ds, dr, sigma, n0), spec in zip(AF_ORACLE_CONFIGS, specs):
        stats = ChannelStats(*sigma, n0=n0)
        cfg = SystemConfig(m=m, p_s=ps, p_r=pr, delta_s=ds, delta_r=dr, scheme=Scheme.AF)
        scalar, matrix = af_rate(cfg, stats, spec), af_rate_logdet(cfg, stats, spec)
        routes.append(abs(scalar.value - matrix.value)
                      > z * math.hypot(scalar.std_error, matrix.std_error))
        gaps.append(max_identity_gap(cfg, stats, spec.seed, 200))

    # 3. closed-form training fraction vs. brute-force grid search
    searched = []
    for m, snr in DELTA_R_CASES:
        closed = optimal_delta_r(m, snr, 1.0, 1.0)
        gridded = grid_argmax(lambda a, m=m, snr=snr: snr_gain_g_coefficient(a, snr, 1.0, 1.0, m),
                              0.0, 1.0, 1e-4)
        searched.append(abs(closed - gridded.argument) > 1e-3)

    worst_gap = float(np.max(gaps))  # NaN if any gap is
    rows = [counted("training-sim-vs-closed-form", trained, f"combos within {z:.2f} SE"),
            counted("logdet-vs-scalar-af", routes, f"configs within {z:.2f} SE"),
            ("per-draw-identity", worst_gap <= 1e-9, f"max relative gap {worst_gap:.3e}"),
            counted("delta-r-closed-vs-grid", searched, "cases within 1e-3")]
    passed = all(ok for _, ok, _ in rows)
    print(f"{'status':<7}{'check':<35}detail")
    for name, ok, detail in rows:
        print(f"{'pass' if ok else 'FAIL':<7}{name:<35}{detail}")
    print(f"verify {'passed' if passed else 'FAILED'} in {time.monotonic() - started:.1f}s "
          f"(samples={samples}, seed={seed})")
    return 0 if passed else 1


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
    p_opt.add_argument("--scheme", choices=schemes,
                       help="also grid-search delta_r against the full rate")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader stopped early; the run itself did not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # so the exit-time flush is silent
        return 141  # 128 + SIGPIPE, what a shell reports for a writer the signal ended
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
