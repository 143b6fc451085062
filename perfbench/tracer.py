"""Spans around the public functions of ``relayrates``, recorded from outside.

The tracer wraps each listed function and replaces every binding of it the
package holds: module attributes, names other modules imported directly,
and module-level dicts such as the scheme-to-rate-function tables. Spans
stay in memory and are written out when the run ends. Functions called
hundreds of thousands of times are aggregated per (function, parent)
instead of being stored one span per call.

``CallCounter`` is the independent check that the wrapping is complete: a
profile hook counts every call of each original code object, whatever
binding it was reached through, and the traced counts must equal those.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) pairs that are traced, by short module name.
TRACED = (
    ("channel", "mmse_quality"),
    ("rates", "exp_draws"),
    ("rates", "snr_gain_g"),
    ("rates", "f_combiner"),
    ("rates", "af_rate"),
    ("rates", "df_repetition_rate"),
    ("rates", "df_parallel_rate"),
    ("optimize", "snr_gain_g_coefficient"),
    ("optimize", "optimal_delta_r"),
    ("optimize", "suboptimal_delta_s"),
    ("optimize", "theta_sweep"),
    ("optimize", "joint_allocation"),
    ("oracle", "simulate_training_quality"),
    ("oracle", "vector_channel_samples"),
    ("oracle", "logdet_integrand"),
    ("oracle", "af_rate_logdet"),
    ("oracle", "max_identity_gap"),
    ("oracle", "grid_argmax"),
    ("cli", "main"),
)
MODULES = ("channel", "rates", "optimize", "oracle", "cli")

# Aggregated only: no per-call span is kept for these.
HIGH_FREQUENCY = frozenset({
    "optimize.snr_gain_g_coefficient",
    "rates.snr_gain_g",
    "rates.f_combiner",
    "oracle.logdet_integrand",
})

ROOT = "bench"


class _Frame:
    __slots__ = ("name", "span_id", "start", "child")

    def __init__(self, name: str, span_id: int, start: float):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child = 0.0


class Tracer:
    """Single-threaded span recorder with per-(function, parent) aggregates."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._stack = [_Frame(ROOT, 0, self._clock())]
        self._next_id = 1
        self.aggregates: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.errors: Counter = Counter()
        self._raised: list[BaseException] = []
        self.draws = 0
        self.redundant_draws = 0
        self._streams: set = set()
        self.evaluations = 0

    def _exit(self, frame: _Frame, end: float, exc: BaseException | None) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - frame.start
        parent.child += duration
        entry = self.aggregates.setdefault((frame.name, parent.name), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child
        if frame.name not in HIGH_FREQUENCY:
            self.spans.append((frame.span_id, frame.name, frame.start, end, parent.span_id))
        if exc is not None and not any(exc is seen for seen in self._raised):
            self._raised.append(exc)
            self.errors[frame.name.split(".", 1)[0]] += 1

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = self._clock
        observe = {"rates.exp_draws": self._observe_draws,
                   "oracle.grid_argmax": self._observe_grid}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(name, self._next_id, clock())
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(frame, clock(), exc)
                raise
            self._exit(frame, clock(), None)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_draws(self, args, kwargs, result) -> None:
        key = args + tuple(sorted(kwargs.items()))
        self.draws += len(result)
        if key in self._streams:
            self.redundant_draws += len(result)
        else:
            self._streams.add(key)

    def _observe_grid(self, args, kwargs, result) -> None:
        self.evaluations += result.evaluations

    def totals(self) -> dict[str, dict[str, float]]:
        """calls and self_s per function, summed over parents."""
        out = {f"{module}.{fn}": {"calls": 0, "self_s": 0.0} for module, fn in TRACED}
        for (name, _parent), (calls, _total, self_s) in self.aggregates.items():
            out[name]["calls"] += calls
            out[name]["self_s"] += self_s
        return out


def _package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "relayrates" or name.startswith("relayrates."))]


def originals() -> dict[str, object]:
    modules = {name: sys.modules[f"relayrates.{name}"] for name in MODULES}
    return {f"{module}.{fn}": getattr(modules[module], fn) for module, fn in TRACED}


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function with its wrapper."""
    replacement = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in originals().items()}

    def swap(value):
        hit = replacement.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            new = swap(value)
            if new is not None:
                setattr(module, attr, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    new = swap(item)
                    if new is not None:
                        value[key] = new


class CallCounter:
    """Context manager counting calls of each original traced function."""

    def __init__(self, functions: dict[str, object]) -> None:
        self._names = {fn.__code__: name for name, fn in functions.items()}
        self.counts: Counter = Counter()

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            name = self._names.get(frame.f_code)
            if name is not None:
                self.counts[name] += 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
