"""Command-line front end: single-point rates, sweep CSVs and verification.

Subcommands
    rate             evaluate one configuration and print a single result line
    sweep-theta      rate vs. power split, written as CSV
    sweep-sigma-rd   optimal relay training fraction vs. link quality, CSV
    optimal-training closed-form training fractions for one configuration
    verify           cross-check closed forms against the independent oracles

Flags may also come from a plain-text config file (``--config``, one
``key=value`` per line, ``#`` comments, keys named like the long options);
explicit flags win. All CSV output is deterministic: same flags, same bytes,
whatever the worker count. Set ``RELAYRATES_OUTDIR`` to prefix relative
output paths.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from dataclasses import dataclass, field

from .channel import ChannelStats, Scheme, SystemConfig, mmse_quality
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
)

LN2 = math.log(2.0)

_SCHEMES = {
    "af": Scheme.AF,
    "df-rep": Scheme.DF_REPETITION,
    "df-par": Scheme.DF_PARALLEL,
}

THETA_CSV_HEADER = ["theta", "rate_nats", "std_error", "scheme", "sigma_sd", "sigma_sr",
                    "sigma_rd", "P", "m", "delta_s", "delta_r", "seed"]
SIGMA_RD_CSV_HEADER = ["sigma_rd", "delta_r_opt", "P_r", "m"]


@dataclass(frozen=True)
class Preset:
    """Bundled parameter set for one figure-style sweep."""

    command: str
    comment: str
    params: dict = field(default_factory=dict)
    sigma_triples: tuple = ()


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


def _fmt(value) -> str:
    """Full-precision, locale-independent cell formatting."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_sigma(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--sigma expects three comma-separated values, got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _resolve_out(path: str) -> str:
    outdir = os.environ.get("RELAYRATES_OUTDIR")
    if outdir and not os.path.isabs(path):
        os.makedirs(outdir, exist_ok=True)
        return os.path.join(outdir, path)
    return path


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    # rows are fully computed before the file is opened, so a validation or
    # evaluation failure never leaves a partial file behind
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _load_config_file(path: str) -> list[str]:
    """Turn key=value lines into an argv prefix (explicit flags override)."""
    extra: list[str] = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    extra.append(f"--{key}")
            else:
                extra.extend([f"--{key}", value])
    return extra


def _apply_config(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        return argv  # argparse will report the missing value
    file_args = _load_config_file(argv[at + 1])
    # insert after the subcommand so file values act as overridable defaults
    return argv[:1] + file_args + argv[1:]


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
    scheme = _SCHEMES[args.scheme]
    stats = ChannelStats(*args.sigma[:3], n0=args.n0)
    cfg = SystemConfig(m=args.m, p_s=p_s, p_r=p_r, delta_s=args.delta_s,
                       delta_r=args.delta_r, scheme=scheme)
    rate = RATE_FN[scheme](cfg, stats, _expectation_spec(args))
    tokens = [f"scheme={args.scheme}"] + _rate_tokens(rate, args.bits)
    tokens += [f"samples={rate.samples}", f"seed={args.seed}", f"method={args.method}"]
    print(" ".join(tokens))
    return 0


def _preset(args, command: str) -> Preset | None:
    if not args.preset:
        return None
    preset = PRESETS.get(args.preset)
    if preset is None or preset.command != command:
        raise ValueError(f"unknown {command} preset {args.preset!r}")
    print(f"note: preset {args.preset}: {preset.comment}")
    return preset


def _preset_value(args, preset: Preset | None, key: str, default=None):
    flag = getattr(args, key)
    if flag is not None:
        return flag
    if preset is not None and key in preset.params:
        return preset.params[key]
    if default is not None:
        return default
    raise ValueError(f"missing required value --{key.replace('_', '-')}")


def cmd_sweep_theta(args) -> int:
    preset = _preset(args, "sweep-theta")

    scheme_name = _preset_value(args, preset, "scheme")
    total_p = _preset_value(args, preset, "p")
    m = _preset_value(args, preset, "m")
    n0 = _preset_value(args, preset, "n0", 1.0)
    delta_s = _preset_value(args, preset, "delta_s")
    delta_r = _preset_value(args, preset, "delta_r")
    scheme = _SCHEMES[scheme_name]

    if args.sigma is not None:
        triples = [args.sigma]
    elif preset is not None:
        triples = list(preset.sigma_triples)
        if args.curve is not None:
            if not 1 <= args.curve <= len(triples):
                raise ValueError(f"--curve must be in 1..{len(triples)}")
            triples = [triples[args.curve - 1]]
    else:
        raise ValueError("missing required value --sigma")

    spec = _expectation_spec(args)
    outputs = []
    for triple in triples:
        stats = ChannelStats(*triple, n0=n0)
        curve = theta_sweep(total_p, stats, m, delta_s, delta_r, scheme, spec,
                            grid_step=args.theta_step, workers=args.workers)
        rows = [[theta, est.value, est.std_error, scheme_name, triple[0], triple[1],
                 triple[2], total_p, m, delta_s, delta_r, args.seed]
                for theta, est in curve]
        outputs.append(rows)

    out = _resolve_out(args.out)
    if len(outputs) == 1:
        paths = [out]
    else:
        stem, ext = os.path.splitext(out)
        paths = [f"{stem}_c{i + 1}{ext}" for i in range(len(outputs))]
    for path, rows in zip(paths, outputs):
        _write_csv(path, THETA_CSV_HEADER, rows)
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_sweep_sigma_rd(args) -> int:
    preset = _preset(args, "sweep-sigma-rd")

    m = _preset_value(args, preset, "m")
    prs = _preset_value(args, preset, "pr")
    lo = _preset_value(args, preset, "lo")
    hi = _preset_value(args, preset, "hi")
    step = _preset_value(args, preset, "step")
    n0 = _preset_value(args, preset, "n0", 1.0)

    rows = []
    for p_r in prs:
        for sigma_rd in closed_grid(lo, hi, step):
            rows.append([sigma_rd, optimal_delta_r(m, p_r, sigma_rd, n0), p_r, m])

    path = _resolve_out(args.out)
    _write_csv(path, SIGMA_RD_CSV_HEADER, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_optimal_training(args) -> int:
    delta_r = optimal_delta_r(args.m, args.pr, args.sigma_rd, args.n0)
    print(f"delta_r_opt={delta_r!r} m={args.m} P_r={args.pr!r} "
          f"sigma_rd={args.sigma_rd!r} n0={args.n0!r}")
    if args.ps is not None:
        if args.sigma_sd is None or args.sigma_sr is None:
            raise ValueError("--ps needs --sigma-sd and --sigma-sr for the source candidates")
        stats = ChannelStats(sigma_sd=args.sigma_sd, sigma_sr=args.sigma_sr,
                             sigma_rd=args.sigma_rd, n0=args.n0)
        d1, d2 = suboptimal_delta_s(args.m, args.ps, stats)
        print(f"delta_s_via_direct={d1!r} delta_s_via_relay={d2!r} P_s={args.ps!r}")
    if args.global_delta:
        if args.sigma is None or args.ps is None or args.scheme is None:
            raise ValueError("--global-delta needs --scheme, --sigma and --ps")
        scheme = _SCHEMES[args.scheme]
        stats = ChannelStats(*args.sigma, n0=args.n0)
        spec = ExpectationSpec(dims=3, samples=args.samples, seed=args.seed)

        def full_rate(delta: float) -> float:
            cfg = SystemConfig(m=args.m, p_s=args.ps, p_r=args.pr,
                               delta_s=args.delta_s, delta_r=delta, scheme=scheme)
            return RATE_FN[scheme](cfg, stats, spec).value

        found = grid_argmax(full_rate, 0.0, 1.0, args.delta_step)
        print(f"delta_r_grid={found.argument!r} rate_nats={found.rate.value!r} "
              f"evaluations={found.evaluations}")
    return 0


def _check(name: str, ok: bool, detail: str, lines: list[str]) -> bool:
    lines.append(f"{'pass' if ok else 'FAIL':<7}{name:<35}{detail}")
    return ok


def cmd_verify(args) -> int:
    samples = 10_000 if args.quick else args.samples
    seed = args.seed
    scale = 1.0 + args.perturb
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
    configs = [
        (50, 60.0, 40.0, 0.1, 0.1, (1.0, 4.0, 4.0), 1.0),
        (50, 50.0, 50.0, 0.1, 0.1, (1.0, 2.0, 1.0), 1.0),
        (50, 80.0, 20.0, 0.05, 0.3, (0.5, 5.0, 0.5), 1.0),
        (10, 30.0, 70.0, 0.2, 0.2, (2.0, 1.0, 3.0), 2.0),
        (100, 10.0, 90.0, 0.15, 0.05, (1.0, 10.0, 2.0), 0.5),
    ]
    bad = 0
    worst_gap = 0.0
    for i, (m, ps, pr, ds, dr, sigma, n0) in enumerate(configs):
        stats = ChannelStats(*sigma, n0=n0)
        cfg = SystemConfig(m=m, p_s=ps, p_r=pr, delta_s=ds, delta_r=dr, scheme=Scheme.AF)
        spec = ExpectationSpec(dims=3, samples=samples, seed=seed + i)
        scalar = af_rate(cfg, stats, spec, gain_scale=scale)
        matrix = af_rate_logdet(cfg, stats, spec)
        tol = 3.0 * math.hypot(scalar.std_error, matrix.std_error)
        if abs(scalar.value - matrix.value) > tol:
            bad += 1
        worst_gap = max(worst_gap,
                        max_identity_gap(cfg, stats, seed + i, 200, gain_scale=scale))
    all_ok &= _check("logdet-vs-scalar-af", bad == 0,
                     f"{len(configs) - bad}/{len(configs)} configs within 3 SE", lines)
    all_ok &= _check("per-draw-identity", worst_gap <= 1e-9,
                     f"max relative gap {worst_gap:.3e}", lines)

    # 3. closed-form training fraction vs. brute-force grid search
    bad = 0
    cases = [(m, snr) for m in (6, 10, 50, 200) for snr in (1e-2, 1.0, 1e2, 1e4, 1e6)]
    for m, snr in cases:
        closed = optimal_delta_r(m, snr, 1.0, 1.0)
        gridded = grid_argmax(
            lambda a, m=m, snr=snr: float(snr_gain_g_coefficient(a, snr, 1.0, 1.0, m)),
            0.0, 1.0, 1e-4,
        )
        if abs(closed - gridded.argument) > 1e-3:
            bad += 1
    all_ok &= _check("delta-r-closed-vs-grid", bad == 0,
                     f"{len(cases) - bad}/{len(cases)} cases within 1e-3", lines)

    print(f"{'status':<7}{'check':<35}detail")
    for line in lines:
        print(line)
    print(f"verify {'passed' if all_ok else 'FAILED'} in {time.monotonic() - started:.1f}s "
          f"(samples={samples}, seed={seed}, perturb={args.perturb!r})")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayrates",
        description="Achievable rates and resource allocation for pilot-trained relay links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value defaults file; explicit flags win")
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)

    def add_rate_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--method", choices=["mc", "gl"], default="mc")
        p.add_argument("--nodes", type=int, default=64)
        p.add_argument("--bits", action="store_true", help="report bits instead of nats")

    p_rate = sub.add_parser("rate", help="evaluate one configuration")
    p_rate.add_argument("--scheme", choices=sorted(_SCHEMES), required=True)
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
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep-theta", help="rate vs. power split, CSV output")
    p_sweep.add_argument("--preset", choices=[k for k, v in PRESETS.items()
                                              if v.command == "sweep-theta"])
    p_sweep.add_argument("--curve", type=int, help="pick one preset curve (1-based)")
    p_sweep.add_argument("--scheme", choices=sorted(_SCHEMES))
    p_sweep.add_argument("--p", type=float, help="total power")
    p_sweep.add_argument("--m", type=int)
    p_sweep.add_argument("--sigma", type=_parse_sigma)
    p_sweep.add_argument("--n0", type=float)
    p_sweep.add_argument("--delta-s", type=float)
    p_sweep.add_argument("--delta-r", type=float)
    p_sweep.add_argument("--theta-step", type=float, default=0.01)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", required=True)
    add_common(p_sweep)
    add_rate_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep_theta)

    p_srd = sub.add_parser("sweep-sigma-rd",
                           help="optimal relay training fraction vs. sigma_rd, CSV output")
    p_srd.add_argument("--preset", choices=[k for k, v in PRESETS.items()
                                            if v.command == "sweep-sigma-rd"])
    p_srd.add_argument("--m", type=int)
    p_srd.add_argument("--pr", type=_parse_float_list, help="comma-separated relay powers")
    p_srd.add_argument("--lo", type=float)
    p_srd.add_argument("--hi", type=float)
    p_srd.add_argument("--step", type=float)
    p_srd.add_argument("--n0", type=float)
    p_srd.add_argument("--out", required=True)
    add_common(p_srd)
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
    p_opt.add_argument("--scheme", choices=sorted(_SCHEMES))
    p_opt.add_argument("--sigma", type=_parse_sigma)
    p_opt.add_argument("--delta-s", type=float, default=0.1)
    p_opt.add_argument("--delta-step", type=float, default=0.01)
    add_common(p_opt)
    p_opt.set_defaults(func=cmd_optimal_training)

    p_verify = sub.add_parser("verify", help="run the oracle cross-check suite")
    p_verify.add_argument("--quick", action="store_true", help="10^4 samples")
    p_verify.add_argument("--perturb", type=float, default=0.0,
                          help="scale the closed-form gains by 1+x (harness self-test)")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
