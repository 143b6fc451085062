"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/worker.py JOB.json

The job names the workload, the inputs file, the output directory and the
mode: ``setup`` (import and exit), ``plain`` (untraced), ``traced`` or
``count`` (traced, and every traced call also counted by a profile hook).
The last line of standard output is one JSON object with the timings and
the outputs the parent checks.
"""

import time

import relayrates
import relayrates.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imports after the set-up clock on purpose)
import functools  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_sweep(inputs: dict, outdir: str) -> dict:
    curve = inputs["curve"]
    seed = inputs["mc_seed"]
    ops, files = [], {}
    sweep_s = 0.0
    for scheme, preset in inputs["presets"].items():
        path = os.path.join(outdir, f"{preset}.csv")
        started = time.perf_counter()
        try:
            code = relayrates.cli.main(["sweep-theta", "--preset", preset, "--curve", str(curve),
                                        "--seed", str(seed), "--out", path])
            ops.append({"op": f"sweep-theta {preset}", "error": None if code == 0 else f"exit {code}"})
        except Exception as exc:  # one failed call must not hide the others
            ops.append({"op": f"sweep-theta {preset}", "error": _failure(exc)})
        sweep_s += time.perf_counter() - started
        files[preset] = path
        yield
    for scheme, preset in inputs["presets"].items():
        params = relayrates.cli.PRESETS[preset].params
        sigma = relayrates.cli.PRESETS[preset].sigma_triples[curve - 1]
        stats = relayrates.ChannelStats(*sigma, n0=params["n0"])
        # the sample count sweep-theta uses by default
        spec = relayrates.ExpectationSpec(dims=3, samples=100_000, seed=seed)
        op = {"op": f"joint_allocation {scheme}", "error": None, "scheme": scheme,
              "m": params["m"], "p": params["p"], "sigma": list(sigma), "n0": params["n0"]}
        try:
            theta, delta_s, delta_r, rate = relayrates.joint_allocation(
                params["p"], stats, params["m"], relayrates.Scheme(scheme), spec,
                theta_step=inputs["joint_theta_step"])
            op.update(theta=theta, delta_s=delta_s, delta_r=delta_r,
                      value=rate.value, std_error=rate.std_error)
        except Exception as exc:
            op["error"] = _failure(exc)
        ops.append(op)
        yield
    return {"ops": ops, "files": files, "sweep_s": sweep_s}


_RATE_FN = {"af": "af_rate", "df-rep": "df_repetition_rate", "df-par": "df_parallel_rate"}


def _point_call(call: dict):
    kind = call["kind"]
    stats = relayrates.ChannelStats(*call["sigma"], n0=call["n0"])
    if kind == "delta":
        if call["function"] == "optimal_delta_r":
            return [relayrates.optimal_delta_r(call["m"], call["p"], call["sigma"][2], call["n0"])]
        return list(relayrates.suboptimal_delta_s(call["m"], call["p"], stats))
    scheme = relayrates.Scheme(call["scheme"])
    p_s = call["theta"] * call["p"]
    cfg = relayrates.SystemConfig(m=call["m"], p_s=p_s, p_r=call["p"] - p_s,
                                  delta_s=call["delta_s"], delta_r=call["delta_r"], scheme=scheme)
    if kind == "mc":
        spec = relayrates.ExpectationSpec(dims=3, samples=call["samples"], seed=call["seed"])
    else:
        spec = relayrates.ExpectationSpec(dims=2, method=relayrates.Method.GAUSS_LAGUERRE,
                                          nodes=call["nodes"])
    # looked up at call time, so a traced run reaches the wrapper
    rate = getattr(relayrates, _RATE_FN[call["scheme"]])(cfg, stats, spec)
    return [rate.value, rate.std_error]


POINT_SEGMENT = 500  # calls between two reference-kernel probes


def run_point(inputs: dict, outdir: str) -> dict:
    clock = time.perf_counter
    ops, latencies = [], []
    for i, call in enumerate(inputs["calls"], start=1):
        started = clock()
        try:
            ops.append({"value": _point_call(call), "error": None})
        except Exception as exc:
            ops.append({"value": None, "error": _failure(exc)})
        latencies.append(clock() - started)
        if i % POINT_SEGMENT == 0:
            yield
    return {"ops": ops, "latencies": latencies}


def _describe_estimate(name: str, arguments: dict, result) -> dict:
    if name == "simulate_training_quality":
        record = {k: arguments[k] for k in ("sigma", "delta", "m", "p", "n0", "trials")}
        record.update(var_estimate=result.var_estimate, var_error=result.var_error)
    else:
        cfg, stats = arguments["cfg"], arguments["stats"]
        record = {"m": cfg.m, "p_s": cfg.p_s, "p_r": cfg.p_r, "delta_s": cfg.delta_s,
                  "delta_r": cfg.delta_r, "sigma": [stats.sigma_sd, stats.sigma_sr, stats.sigma_rd],
                  "n0": stats.n0, "gain_scale": arguments.get("gain_scale", 1.0),
                  "value": result.value, "std_error": result.std_error}
    record["function"] = name
    return record


# verify's statistical checks compare two Monte Carlo estimates at 3 SE, so a
# correct program prints a chance FAIL on a few seeds in a hundred. The
# estimates behind those checks are recorded, so that the parent can judge
# each one against the exact reference.
VERIFY_ESTIMATES = ("simulate_training_quality", "af_rate", "af_rate_logdet")


def _record_estimates(estimates: list) -> None:
    """Wrap verify's bindings of the estimators so each result is kept."""
    for name in VERIFY_ESTIMATES:
        fn = getattr(relayrates.cli, name)
        signature = inspect.signature(inspect.unwrap(fn))

        @functools.wraps(fn)
        def recorded(*args, _name=name, _fn=fn, _signature=signature, **kwargs):
            result = _fn(*args, **kwargs)
            bound = _signature.bind(*args, **kwargs)
            estimates.append(_describe_estimate(_name, bound.arguments, result))
            return result

        setattr(relayrates.cli, name, recorded)


def run_verify(inputs: dict, outdir: str) -> dict:
    yield from ()
    estimates: list = []
    _record_estimates(estimates)
    text = io.StringIO()
    code = error = None
    try:
        with contextlib.redirect_stdout(text):
            code = relayrates.cli.main(["verify", "--seed", str(inputs["seed"])])
    except Exception as exc:
        error = _failure(exc)
    return {"ops": [{"op": "verify", "error": error, "exit_code": code,
                     "stdout": text.getvalue(), "estimates": estimates}]}


WORKLOADS = {"sweep": run_sweep, "point": run_point, "verify": run_verify}


def run_segments(steps):
    """Run a workload generator, probing machine speed between its segments.

    Each workload yields between groups of operations. The reference kernel
    runs before the first segment and after every segment, outside the
    timed segments, so each segment's time can be scaled by the machine
    speed measured on both sides of it.
    """
    segments, probes = [], [calibrate.machine_seconds()]
    outputs = done = None
    while not done:
        started = time.perf_counter()
        try:
            next(steps)
        except StopIteration as stop:
            outputs, done = stop.value, True
        segments.append(time.perf_counter() - started)
        probes.append(calibrate.machine_seconds())
    return outputs, segments, probes


def _trace_report(tracer: tracing.Tracer) -> dict:
    return {
        "totals": tracer.totals(),
        "by_parent": [[name, parent, *entry] for (name, parent), entry in
                      sorted(tracer.aggregates.items())],
        "errors": dict(tracer.errors),
        "draws": tracer.draws,
        "redundant_draws": tracer.redundant_draws,
        "evaluations": tracer.evaluations,
    }


def main(job_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    result = {"ready": READY}
    calibrate.machine_seconds(1)  # untimed: the kernel's first run is slower
    if job["mode"] == "setup":
        result["machine_s"] = [calibrate.machine_seconds()]
        print(json.dumps(result))
        return 0
    with open(job["inputs"]) as handle:
        inputs = json.load(handle)
    outdir = job["outdir"]
    workload = WORKLOADS[job["workload"]]

    tracer = counter = None
    if job["mode"] in ("traced", "count"):
        tracer = tracing.Tracer()
        originals = tracing.originals()
        tracing.install(tracer)
        if job["mode"] == "count":
            counter = tracing.CallCounter(originals)

    with counter if counter is not None else contextlib.nullcontext():
        outputs, segments, probes = run_segments(workload(inputs, outdir))
    result.update(wall_s=sum(segments), segments_s=segments, machine_s=probes,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  outputs=outputs)
    if tracer is not None:
        result["trace"] = _trace_report(tracer)
        with open(os.path.join(outdir, "spans.json"), "w") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": tracer.spans}, handle)
    if counter is not None:
        result["profiled_calls"] = dict(counter.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
