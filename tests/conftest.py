import os
import sys
import threading

import pytest

from relayrates import optimize, rates


def _rebind(monkeypatch, original, replacement) -> None:
    # every binding the package holds, as the benchmark's tracer swaps them
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "relayrates" or name.startswith("relayrates.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _cpus(monkeypatch, count) -> None:
    # rate_curve sizes its threads by the CPUs the process may run on; the small
    # specs of the tests that call this thread too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(rates, "THREADED_SAMPLES", 1)


@pytest.fixture(autouse=True)
def no_kept_moments(monkeypatch):
    """Each test starts with no curve's part moments kept in the process, so no
    test's kernel counts or failures depend on the tests run before it."""
    monkeypatch.setattr(rates, "_last_moments", None)


@pytest.fixture
def draw_calls(monkeypatch):
    """Count ``rates.exp_draws`` through every binding the package holds.

    Returns the list of ``(args, result)`` pairs, one per call, so a test
    can check both how often the streams were drawn and what was handed out.
    The test starts with no draws kept in the process, so it counts every
    stream its own calls need.
    """
    monkeypatch.setattr(rates, "_last_draws", None)
    original = rates.exp_draws
    calls = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args + tuple(sorted(kwargs.items())), result))
        return result

    _rebind(monkeypatch, original, counted)
    return calls


@pytest.fixture
def gain_calls(monkeypatch):
    """Record the arguments of each ``optimize.snr_gain_g_coefficient`` call,
    through every binding the package holds."""
    original = optimize.snr_gain_g_coefficient
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    _rebind(monkeypatch, original, counted)
    return calls


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs, in order."""
    original = threading.Thread.start
    started = []

    def start(thread):
        started.append(thread)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started
