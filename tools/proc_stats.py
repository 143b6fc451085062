"""Run one ``relayrates`` command in a fresh interpreter and print its own costs.

    python tools/proc_stats.py ARGS...

runs ``python -m relayrates ARGS`` from this checkout's ``src/`` and prints, one
``name value`` pair a line: the command, its exit status, the wall time from
spawn to exit, the resident high-water mark (``ru_maxrss``) and the minor and
major page faults (``ru_minflt``, ``ru_majflt``) of that process alone, as
``wait4`` reports them. The command's own stdout goes to stderr, so stdout holds
only these lines. The exit status is the command's.

These are the program's numbers: a benchmark worker's ``ru_maxrss`` also carries
the high-water mark of the process that spawned it, which this tool never grows.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

FIELDS = ("command", "exit", "wall_s", "maxrss_mb", "minflt", "majflt")


def measure(args: list[str]) -> dict[str, object]:
    """The ``FIELDS`` of one run of ``relayrates args``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "relayrates", *args], env=env,
                             stdout=sys.stderr.fileno())
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"command": " ".join(["relayrates", *args]), "exit": child.returncode,
            "wall_s": f"{wall:.4f}", "maxrss_mb": f"{usage.ru_maxrss / 1024:.2f}",
            "minflt": usage.ru_minflt, "majflt": usage.ru_majflt}


def main(argv: list[str]) -> int:
    stats = measure(argv)
    for name in FIELDS:
        print(f"{name:<10}{stats[name]}")
    return int(stats["exit"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
