"""relayrates benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,point,verify} --seed N \
        --seconds S --trace {0,1}

Each repetition of the workload runs in a fresh worker process (one thread,
BLAS pinned to one thread), in a closed loop: the next repetition starts
when the previous one has ended, until ``--seconds`` have passed. The
package is imported from ``src/`` and receives only the inputs generated
from ``--seed``. After the timed loop the outputs are checked against the
independent reference in ``reference.py`` and against each other (same
seed, same outputs).

``--trace 0`` reports the end-to-end metrics: set-up time (median over
several fresh imports), wall time and peak memory of one repetition
(medians over repetitions). ``--trace 1`` alternates untraced and traced
repetitions and reports per-layer calls and self time of the public
functions of ``channel``, ``rates``, ``optimize``, ``oracle`` and ``cli``,
plus the tracing overhead; one more traced repetition, with a profile hook
on, checks that every call was traced.

Times are reported at a nominal machine speed (see ``calibrate.py``): the
worker runs a fixed reference kernel after its imports and between groups
of operations, and each measured time is scaled by how much slower or
faster than nominal that kernel ran next to it. Unscaled medians are
printed as well.

Every metric the run measures is printed by name with its unit; the last
line of standard output is the result object. Outputs and spans go to
``.perfbench_out/`` under the repository root. ``baseline.json`` holds the
recorded numbers, the reasons for each workload and the predicted-flat
pairings.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import inputs as workload_inputs
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 10
WORKER_TIMEOUT_S = 60.0  # a repetition takes under 10 s; keeps a hung run within 180 s
SE_LIMIT = 5.0  # an MC rate farther than this many standard errors from the reference fails
DELTA_TOLERANCE = 1e-6
AF_SWEEP_THETAS = {round(0.1 * i, 10) for i in range(11)}  # AF rows checked in a sweep
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THETA_CSV_HEADER = ["theta", "rate_nats", "std_error", "scheme", "sigma_sd", "sigma_sr",
                    "sigma_rd", "P", "m", "delta_s", "delta_r", "seed"]

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- environment

def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RELAYRATES_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, env: dict[str, str]) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: env[name] for name in THREAD_ENV},
        "worker_processes": 1,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
    }


# -------------------------------------------------------------------- workers

class Runner:
    """Starts one worker process at a time and waits for it to end."""

    def __init__(self, workload: str, inputs_path: Path, env: dict[str, str]) -> None:
        self.workload = workload
        self.inputs_path = inputs_path
        self.env = env
        self.count = 0

    def run(self, mode: str) -> dict:
        self.count += 1
        outdir = OUT / f"{mode}-{self.count:03d}"
        outdir.mkdir(parents=True)
        job = outdir / "job.json"
        job.write_text(json.dumps({"workload": self.workload, "mode": mode,
                                   "inputs": str(self.inputs_path), "outdir": str(outdir)}))
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job)],
                                  capture_output=True, text=True, env=self.env, cwd=ROOT,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"mode": mode, "error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"mode": mode, "error": f"worker exit {proc.returncode}: {tail[0]}"}
        result = json.loads(lines[-1])
        result.update(mode=mode, error=None, outdir=str(outdir))
        # Times at nominal machine speed, from the reference kernel probes
        # the worker took right after its imports and between segments.
        probes = result["machine_s"]
        result["setup_s"] = result["ready"] - spawned
        result["setup_nominal_s"] = result["setup_s"] * calibrate.NOMINAL_S / probes[0]
        if mode != "setup":
            result["wall_nominal_s"] = calibrate.nominal(result["segments_s"], probes)
            result["factor"] = result["wall_nominal_s"] / result["wall_s"]
        return result


def run_repetitions(runner: Runner, seconds: float, traced: bool) -> list[dict]:
    runner.run("setup")  # untimed: fills the bytecode cache, which users pay once
    reps = [runner.run("setup") for _ in range(SETUP_PROBES)]
    modes = ("plain", "traced") if traced else ("plain",)
    started = time.monotonic()
    i = 0
    while i < len(modes) or time.monotonic() - started < seconds:
        reps.append(runner.run(modes[i % len(modes)]))
        i += 1
    if traced:
        reps.append(runner.run("count"))
    return reps


# --------------------------------------------------------------------- checks

class Check:
    """Per-operation failures and the largest reference gap of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.max_abs_err_nats = 0.0
        self.max_abs_err_delta = 0.0
        self.rates_checked = 0
        self.max_gap_se = 0.0

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def compare_rate(self, label: str, value, std_error, expected: float, monte_carlo: bool) -> bool:
        if value is None or not (math.isfinite(value) and math.isfinite(std_error)):
            self.problem(f"{label}: non-finite rate {value!r} +- {std_error!r}")
            return False
        self.rates_checked += 1
        gap = abs(value - expected)
        self.max_abs_err_nats = max(self.max_abs_err_nats, gap)
        if monte_carlo:
            self.max_gap_se = max(self.max_gap_se, gap / max(std_error, 1e-300))
        if monte_carlo and gap > SE_LIMIT * std_error + 1e-12:
            self.problem(f"{label}: {value!r} is {gap / max(std_error, 1e-300):.1f} SE "
                         f"from the reference {expected!r}")
            return False
        return True


def file_digest(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def check_sweep_rows(path: str, check: Check, ref) -> bool:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != THETA_CSV_HEADER or len(rows) != 1 + workload_inputs.SWEEP_THETA_POINTS:
        check.problem(f"{path}: unexpected header or row count {len(rows) - 1}")
        return False
    ok = True
    for row in rows[1:]:
        theta, value, std_error = float(row[0]), float(row[1]), float(row[2])
        scheme = row[3]
        if scheme == "af" and round(theta, 10) not in AF_SWEEP_THETAS:
            continue
        sigma = tuple(float(x) for x in row[4:7])
        power, m = float(row[7]), int(row[8])
        p_s = theta * power
        # the CSV carries no n0; every sweep-theta preset uses n0 = 1
        expected = ref.rate(scheme, m, p_s, power - p_s, float(row[9]), float(row[10]), sigma, 1.0)
        ok &= check.compare_rate(f"{Path(path).name} theta={theta}", value, std_error, expected, True)
    return ok


def sweep_reference(result: dict, check: Check, ref) -> list[bool]:
    ok = []
    for op in result["outputs"]["ops"]:
        if op["error"] is not None:
            ok.append(False)
        elif op["op"].startswith("sweep-theta"):
            preset = op["op"].split()[1]
            ok.append(check_sweep_rows(result["outputs"]["files"][preset], check, ref))
        else:
            p_s = op["theta"] * op["p"]
            expected = ref.rate(op["scheme"], op["m"], p_s, op["p"] - p_s, op["delta_s"],
                                op["delta_r"], op["sigma"], op["n0"])
            ok.append(check.compare_rate(op["op"], op["value"], op["std_error"], expected, True))
    return ok


def point_reference(result: dict, inputs: dict, check: Check, ref) -> list[bool]:
    ok = []
    for i, (call, op) in enumerate(zip(inputs["calls"], result["outputs"]["ops"])):
        if op["error"] is not None:
            ok.append(False)
            continue
        if call["kind"] == "delta":
            if call["function"] == "optimal_delta_r":
                expected = [ref.optimal_training(call["m"], call["p"], call["sigma"][2], call["n0"])]
            else:
                expected = [ref.optimal_training(call["m"], call["p"], s, call["n0"])
                            for s in call["sigma"][:2]]
            gap = max(abs(a - b) for a, b in zip(op["value"], expected))
            check.max_abs_err_delta = max(check.max_abs_err_delta, gap)
            good = len(op["value"]) == len(expected) and gap <= DELTA_TOLERANCE
            if not good:
                check.problem(f"call {i} {call['function']}: {op['value']} vs {expected}")
            ok.append(good)
            continue
        p_s = call["theta"] * call["p"]
        expected = ref.rate(call["scheme"], call["m"], p_s, call["p"] - p_s, call["delta_s"],
                            call["delta_r"], call["sigma"], call["n0"])
        value, std_error = op["value"]
        ok.append(check.compare_rate(f"call {i} {call['kind']} {call['scheme']}", value, std_error,
                                     expected, call["kind"] == "mc"))
    return ok


# verify checks whose 3-SE comparison of two Monte Carlo estimates can fire by
# chance, with the recorded estimators behind each. Its other checks are
# deterministic and must pass.
VERIFY_STATISTICAL = {"training-sim-vs-closed-form": ("simulate_training_quality",),
                      "logdet-vs-scalar-af": ("af_rate", "af_rate_logdet")}


def verify_estimate(estimate: dict, check: Check, ref) -> bool:
    """One estimate verify computed, against the exact reference at SE_LIMIT."""
    name = estimate["function"]
    if name == "simulate_training_quality":
        # |h_hat|^2 and |h - h_hat|^2 are exponential, so each mean has an SE
        # of its expected value over sqrt(trials).
        expected = ref.training_variances(estimate["delta"], estimate["p"], estimate["sigma"],
                                          estimate["n0"], estimate["m"])
        ok = True
        for key, value in zip(("var_estimate", "var_error"), expected):
            ok &= check.compare_rate(f"verify {name} {key}", estimate[key],
                                     value / math.sqrt(estimate["trials"]), value, True)
        return ok
    if estimate["gain_scale"] != 1.0:
        check.problem(f"verify {name}: gain_scale {estimate['gain_scale']!r} has no reference")
        return False
    expected = ref.rate("af", estimate["m"], estimate["p_s"], estimate["p_r"], estimate["delta_s"],
                        estimate["delta_r"], estimate["sigma"], estimate["n0"])
    return check.compare_rate(f"verify {name}", estimate["value"], estimate["std_error"],
                              expected, True)


def verify_reference(result: dict, check: Check, ref) -> list[bool]:
    """verify must run, print a consistent report, and compute correct estimates.

    A FAIL line of a statistical check is a failure unless every estimate
    behind it lies within SE_LIMIT standard errors of the exact reference;
    then it is reported as a chance 3-SE event. Any other FAIL line fails.
    """
    op = result["outputs"]["ops"][0]
    if op["error"] is not None:
        check.problem(f"verify: {op['error']}")
        return [False]
    lines = op["stdout"].splitlines()
    checks = [line.split()[:2] for line in lines if line.startswith(("pass", "FAIL"))]
    failed = [name for status, name in checks if status == "FAIL"]
    verdict = "verify FAILED" if failed else "verify passed"
    good = bool(checks) and op["exit_code"] == (1 if failed else 0) and any(
        line.startswith(verdict) for line in lines)
    if not good:
        check.problem(f"verify: exit {op['exit_code']}, report inconsistent: "
                      + " | ".join(" ".join(c) for c in checks))
    estimates_ok = {}
    for estimate in op["estimates"]:
        ok = verify_estimate(estimate, check, ref)
        estimates_ok[estimate["function"]] = estimates_ok.get(estimate["function"], True) and ok
    for name, functions in VERIFY_STATISTICAL.items():
        if not all(fn in estimates_ok for fn in functions):
            check.problem(f"verify {name}: no estimate of {', '.join(functions)} recorded")
            good = False
    for name in failed:
        functions = VERIFY_STATISTICAL.get(name)
        if functions is not None and all(estimates_ok.get(fn, False) for fn in functions):
            check.notes.append(f"verify printed FAIL {name}, but every estimate behind it is "
                               f"within {SE_LIMIT:g} SE of the exact reference: a chance 3-SE event")
        else:
            check.problem(f"verify: FAIL {name}")
            good = False
    return [good and all(estimates_ok.values())]


def fingerprint(workload: str, result: dict) -> list:
    """What must be identical between repetitions of one seed, per operation."""
    ops = result["outputs"]["ops"]
    if workload == "sweep":
        files = result["outputs"]["files"]
        return [file_digest(files[op["op"].split()[1]]) if op["op"].startswith("sweep-theta")
                else json.dumps(op, sort_keys=True) for op in ops]
    if workload == "verify":
        return [[[line for line in op["stdout"].splitlines() if not line.startswith("verify ")],
                 op["estimates"]] for op in ops]
    return [json.dumps(op, sort_keys=True) for op in ops]


def check_outputs(workload: str, reps: list[dict], inputs: dict, check: Check, ref) -> None:
    runs = [r for r in reps if r["mode"] != "setup"]
    ops_per_rep = {"sweep": 6, "point": len(inputs.get("calls", ())), "verify": 1}[workload]
    check.attempted = ops_per_rep * len(runs)
    good = [r for r in runs if r["error"] is None]
    for r in runs:
        if r["error"] is not None:
            check.failed += ops_per_rep
            check.problem(f"{r['mode']} repetition: {r['error']}")
    if not good:
        return
    first = good[0]
    if workload == "sweep":
        ok = sweep_reference(first, check, ref)
    elif workload == "point":
        ok = point_reference(first, inputs, check, ref)
    else:
        ok = verify_reference(first, check, ref)
    reference_print = fingerprint(workload, first)
    for r in good:
        same = [a == b for a, b in zip(fingerprint(workload, r), reference_print)]
        if not all(same):
            check.problem(f"{r['mode']} repetition in {r['outdir']}: outputs differ from the first")
        check.failed += sum(1 for o, s in zip(ok, same) if not (o and s))


def check_trace(reps: list[dict], inputs: dict, workload: str) -> tuple[bool, list[str]]:
    """Traced counts must equal the profiled counts and agree between repetitions."""
    notes = []
    traced = [r for r in reps if r["mode"] in ("traced", "count") and r["error"] is None]
    count_rep = next((r for r in traced if r["mode"] == "count"), None)
    if count_rep is None:
        return False, ["no traced count repetition finished"]
    totals = {name: v["calls"] for name, v in count_rep["trace"]["totals"].items()}
    profiled = count_rep["profiled_calls"]
    missed = {name: (totals[name], profiled.get(name, 0)) for name in totals
              if totals[name] != profiled.get(name, 0)}
    for name, (seen, actual) in sorted(missed.items()):
        notes.append(f"trace count mismatch: {name} traced {seen}, called {actual}")
    for r in traced:
        if {n: v["calls"] for n, v in r["trace"]["totals"].items()} != totals:
            notes.append(f"{r['mode']} repetition traced other call counts than the count run")
    ok = not notes
    if ok:
        notes.append(f"trace counts: all {len(totals)} traced functions match the profile hook")
    if workload == "sweep":
        model = workload_inputs.sweep_call_model(inputs)
        diff = {n: (totals[n], c) for n, c in model.items() if totals[n] != c}
        notes.append("sweep call model: " + ("matches" if not diff else
                     "differs (traced, model): " + json.dumps(diff)))
    return ok, notes


# -------------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else float("nan")


def tail_latencies(values: list[float], tail: int = 10) -> list[tuple[str, float, int]]:
    """p99, and p99.9 when at least ``tail`` samples lie beyond it."""
    ordered = sorted(values)
    out = []
    for q in (99.0, 99.9):
        k = math.ceil(q / 100.0 * len(ordered)) - 1
        beyond = len(ordered) - 1 - k
        if q == 99.0 or beyond >= tail:
            out.append((f"{q:g}", ordered[k], beyond))
    return out


def end_to_end(workload: str, reps: list[dict], check: Check) -> tuple[dict, list[str]]:
    done = [r for r in reps if r["error"] is None]
    plain = [r for r in done if r["mode"] == "plain"]
    metrics = {
        "setup_s": median([r["setup_nominal_s"] for r in done]),
        "wall_s": median([r["wall_nominal_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    info = [f"set-up samples {len(done)}, timed repetitions {len(plain)}",
            f"unscaled medians: setup {median([r['setup_s'] for r in done]):.6g} s, "
            f"wall {median([r['wall_s'] for r in plain]):.6g} s; reference kernel "
            f"{median([p for r in done for p in r['machine_s']]) * 1e3:.4g} ms "
            f"(nominal {calibrate.NOMINAL_S * 1e3:g} ms)"]
    if workload == "sweep":
        rows = workload_inputs.SWEEP_THETA_POINTS * 3
        rates = [rows / (r["outputs"]["sweep_s"] * r["factor"]) for r in plain]
        info.append(f"sweep_points_per_s = {median(rates):.6g} theta points/s")
    if workload == "point":
        latencies = [t * r["factor"] * 1e3 for r in plain for t in r["outputs"]["latencies"]]
        info.append(f"point_latency_ms_p50 = {median(latencies):.6g} ms ({len(latencies)} samples)")
        for q, value, beyond in tail_latencies(latencies):
            info.append(f"point_latency_ms_p{q} = {value:.6g} ms ({beyond} samples beyond)")
    if workload in ("sweep", "point"):
        info.append(f"max_abs_err_nats = {check.max_abs_err_nats:.6g} nats "
                    f"({check.rates_checked} rates checked)")
    if workload == "point":
        info.append(f"max_abs_err_delta = {check.max_abs_err_delta:.3g} fraction (training fractions)")
    if workload == "verify":
        info.append(f"verify estimates: {check.rates_checked} checked against the exact reference, "
                    f"largest gap {check.max_gap_se:.3g} SE (limit {SE_LIMIT:g})")
    info.append(f"failed_share = {check.failed / max(check.attempted, 1):.6g} ratio "
                f"({check.failed} of {check.attempted})")
    return metrics, info


def per_layer(workload: str, reps: list[dict]) -> tuple[dict, dict]:
    plain = [r for r in reps if r["mode"] == "plain" and r["error"] is None]
    traced = [r for r in reps if r["mode"] == "traced" and r["error"] is None]
    metrics, units = {}, {}
    first = traced[0]["trace"]
    for name, value in first["totals"].items():
        metrics[f"{name}.calls"], units[f"{name}.calls"] = value["calls"], "count"
        metrics[f"{name}.self_s"] = median([r["trace"]["totals"][name]["self_s"] * r["factor"]
                                            for r in traced])
        units[f"{name}.self_s"] = "s"
    metrics["rates.exp_draws.draws"], units["rates.exp_draws.draws"] = first["draws"], "count"
    metrics["rates.exp_draws.redundant_share"] = first["redundant_draws"] / max(first["draws"], 1)
    units["rates.exp_draws.redundant_share"] = "ratio"
    metrics["oracle.grid_argmax.evaluations"] = first["evaluations"]
    units["oracle.grid_argmax.evaluations"] = "count"
    csv_bytes = 0
    if workload == "sweep":
        csv_bytes = sum(Path(p).stat().st_size for p in traced[0]["outputs"]["files"].values())
    metrics["cli.csv_bytes"], units["cli.csv_bytes"] = csv_bytes, "bytes"
    for module in tracing.MODULES:
        metrics[f"{module}.errors"] = first["errors"].get(module, 0)
        units[f"{module}.errors"] = "count"
    metrics["trace.overhead_s"] = (median([r["wall_nominal_s"] for r in traced])
                                   - median([r["wall_nominal_s"] for r in plain]))
    units["trace.overhead_s"] = "s"
    return metrics, units


def layer_breakdown(reps: list[dict]) -> list[str]:
    traced = next(r for r in reps if r["mode"] == "traced" and r["error"] is None)
    rows = sorted(traced["trace"]["by_parent"], key=lambda e: -e[4])
    return [f"  {name:<36} under {parent:<32} calls {calls:>7}  total {total:.4f} s  self {self_s:.4f} s"
            " (unscaled)"
            for name, parent, calls, total, self_s in rows]


# ----------------------------------------------------------------------- main

def describe_inputs(workload: str, inputs: dict) -> str:
    if workload == "sweep":
        return (f"P={inputs['power']:g} curve={inputs['curve']} mc_seed={inputs['mc_seed']} "
                f"presets={','.join(inputs['presets'].values())}")
    if workload == "point":
        kinds = [c["kind"] for c in inputs["calls"]]
        return f"{len(kinds)} calls: " + ", ".join(f"{k} {kinds.count(k)}" for k in sorted(set(kinds)))
    return f"verify --seed {inputs['seed']}"


def recorded_csv_hashes(seed: int) -> dict | None:
    try:
        baseline = json.loads((HERE / "baseline.json").read_text())
    except (OSError, ValueError):
        return None
    return baseline.get("sweep_csv_sha256", {}).get(str(seed))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "relayrates" / "__init__.py").is_file():
        fail(f"no relayrates package under {ROOT / 'src'}; run from a full checkout")
    try:
        import reference as ref
    except ImportError as exc:
        fail(f"the reference needs scipy: {exc}")

    env = worker_env()
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    inputs = workload_inputs.make_inputs(args.workload, args.seed)
    inputs_path = OUT / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args, env)))
    print("inputs " + describe_inputs(args.workload, inputs))
    runner = Runner(args.workload, inputs_path, env)
    reps = run_repetitions(runner, args.seconds, bool(args.trace))
    (OUT / "repetitions.json").write_text(json.dumps(reps))
    needed = ("plain", "traced") if args.trace else ("plain",)
    if not all(any(r["mode"] == m and r["error"] is None for r in reps) for m in needed):
        errors = sorted({r["error"] for r in reps if r["error"] is not None})
        fail("no timed repetition finished: " + "; ".join(errors))

    self_check = ref.self_check()
    check = Check()
    check_outputs(args.workload, reps, inputs, check, ref)
    correct = all(ok for _, ok, _ in self_check)
    for name, ok, detail in self_check:
        print(f"reference {'pass' if ok else 'FAIL'} {name}: {detail}")

    e2e, info = end_to_end(args.workload, reps, check)
    if args.trace:
        trace_ok, notes = check_trace(reps, inputs, args.workload)
        correct &= trace_ok
        info += notes
        metrics, units = per_layer(args.workload, reps)
        info += ["per-layer breakdown (function, parent) of the first traced repetition:"]
        info += layer_breakdown(reps)
    else:
        metrics, units = e2e, END_TO_END_UNITS
        for name, value in e2e.items():
            print(f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]}")

    if args.workload == "sweep":
        first = next((r for r in reps if r["mode"] != "setup" and r["error"] is None), None)
        if first is not None:
            hashes = {Path(p).name: file_digest(p) for p in first["outputs"]["files"].values()}
            for name, digest in sorted(hashes.items()):
                print(f"csv {name} sha256 {digest}")
            recorded = recorded_csv_hashes(args.seed)
            if recorded is None:
                print(f"csv_files_changed = n/a (no hashes recorded for seed {args.seed})")
            else:
                changed = sum(1 for n, d in hashes.items() if recorded.get(n) != d)
                print(f"csv_files_changed = {changed} of {len(hashes)}")
    for line in info:
        print(line)
    for text in check.notes:
        print(f"note: {text}")
    for text in check.problems:
        print(f"problem: {text}")
    correct &= check.failed == 0 and check.attempted > 0
    if args.trace:
        for name, value in metrics.items():
            print(f"metric {name} = {value:.6g} {units[name]}")
    result = {
        "correct": bool(correct),
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
