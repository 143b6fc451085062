import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fields_of_a_quick_verify():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "proc_stats.py"), "verify",
                           "--samples", "10000"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fields = dict(line.split(maxsplit=1) for line in proc.stdout.splitlines())
    assert list(fields) == ["command", "exit", "wall_s", "maxrss_mb", "minflt", "majflt"]
    assert fields["command"] == "relayrates verify --samples 10000"
    assert fields["exit"] == "0"
    # an interpreter with numpy imported is tens of MB and takes thousands of faults
    assert 0.0 < float(fields["wall_s"]) < 60.0
    assert 10.0 < float(fields["maxrss_mb"]) < 1000.0
    assert 1000 < int(fields["minflt"]) and int(fields["majflt"]) >= 0
    # the command's own report goes to stderr, whole
    assert "verify passed in " in proc.stderr.splitlines()[-1]


def test_the_exit_status_is_the_commands():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "proc_stats.py"), "verify",
                           "--samples", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "exit      1\n" in proc.stdout
    assert "error: --samples must be an integer" in proc.stderr
