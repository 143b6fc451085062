"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts by up to half
over a minute as neighbours come and go (measured on a 2-vCPU VM). Timings
are therefore reported at a nominal machine speed: each measured time is
multiplied by NOMINAL_S over the kernel's time measured next to it. The
kernel mixes, in about equal parts, the kinds of work the package does:
counter-based exponential draws and ``log1p`` on 10^5-element arrays (the
sweep), the same on 10^4-element arrays (single calls), and small Python
objects with scalar numpy calls (validation and the oracles' scalar
loops). It never calls the package, so its time moves with the machine,
not with the code under test.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_S = 0.010  # the kernel's time on a quiet 2-vCPU Xeon VM

_BIG = np.linspace(0.0, 50.0, 100_000)
_SMALL = np.linspace(0.0, 50.0, 10_000)


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a >= 0.0 and self.b >= 0.0):
            raise ValueError("negative")


def _draws(tag: int, n: int) -> np.ndarray:
    return np.random.Generator(np.random.Philox(key=[7, tag])).standard_exponential(n, method="inv")


def _kernel() -> float:
    started = time.perf_counter()
    total = float(np.log1p(_BIG * _draws(0, _BIG.size)).sum())
    for tag in range(10):
        total += float(np.log1p(_SMALL * _draws(tag, _SMALL.size)).sum())
    for i in range(2000):
        total += float(np.asarray(_Pair(float(i), 1.0).a) * 0.5)
    return time.perf_counter() - started


def machine_seconds(repeats: int = 3) -> float:
    """Median time of the reference kernel, in seconds."""
    return statistics.median(_kernel() for _ in range(repeats))


def nominal(segments: list[float], probes: list[float]) -> float:
    """Total time of consecutive segments at nominal machine speed.

    ``probes[i]`` and ``probes[i + 1]`` are the kernel times measured just
    before and just after ``segments[i]``.
    """
    return sum(seconds * NOMINAL_S / (0.5 * (before + after))
               for seconds, before, after in zip(segments, probes, probes[1:]))
