import argparse
import hashlib
import inspect
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import relayrates.cli
import relayrates.oracle
import relayrates.rates
from relayrates import (
    ChannelStats,
    ExpectationSpec,
    Method,
    Scheme,
    SystemConfig,
    af_rate,
    df_parallel_rate,
    joint_allocation,
    optimal_delta_r,
)
from relayrates.cli import THETA_CSV_HEADER, _expand, _write_csvs, build_parser, main
from relayrates.rates import rate
from conftest import _rebind
from test_preset_bytes import recorded_build

RATE_ARGS = ["rate", "--scheme", "af", "--m", "50", "--ps", "60", "--pr", "40",
             "--delta-s", "0.1", "--delta-r", "0.1", "--sigma", "1,4,4",
             "--n0", "1", "--samples", "100000", "--seed", "7"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRateCommand:
    def test_single_line_matches_library_value(self, capsys):
        code, out, _ = run(capsys, *RATE_ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        expected = af_rate(
            SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1,
                         scheme=Scheme.AF),
            ChannelStats(1.0, 4.0, 4.0, 1.0),
            ExpectationSpec(dims=3, samples=100_000, seed=7),
        )
        assert lines[0] == (f"scheme=af rate_nats={expected.value!r} "
                            f"std_error={expected.std_error!r} "
                            f"samples=100000 seed=7 method=mc")

    def test_package_runs_as_a_module(self):
        # python -m relayrates from a checkout, with the source directory on the path
        package_root = str(Path(relayrates.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "relayrates", *RATE_ARGS[:-4],
                               "--samples", "2000", "--seed", "7"], env=env,
                              capture_output=True, text=True, timeout=60)
        expected = af_rate(SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1,
                                        scheme=Scheme.AF),
                           ChannelStats(1.0, 4.0, 4.0, 1.0),
                           ExpectationSpec(dims=3, samples=2000, seed=7))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (f"scheme=af rate_nats={expected.value!r} "
                               f"std_error={expected.std_error!r} "
                               f"samples=2000 seed=7 method=mc\n")

    def test_parallel_reports_at_least_repetition(self, capsys):
        base = RATE_ARGS[1:]
        _, out_rep, _ = run(capsys, "rate", "--scheme", "df-rep", *base[2:])
        _, out_par, _ = run(capsys, "rate", "--scheme", "df-par", *base[2:])
        rep = float(out_rep.split("rate_nats=")[1].split()[0])
        par = float(out_par.split("rate_nats=")[1].split()[0])
        assert par >= rep
        assert "binding=" in out_rep

    def test_gauss_laguerre_matches_library_value(self, capsys):
        # quadrature ignores --samples, so even one sample, which Monte Carlo rejects
        code, out, _ = run(capsys, "rate", "--scheme", "df-par", *RATE_ARGS[3:],
                           "--method", "gl", "--nodes", "32", "--samples", "1")
        assert code == 0
        fields = dict(token.split("=") for token in out.split())
        expected = df_parallel_rate(
            SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1, delta_r=0.1,
                         scheme=Scheme.DF_PARALLEL),
            ChannelStats(1.0, 4.0, 4.0, 1.0),
            ExpectationSpec(dims=2, method=Method.GAUSS_LAGUERRE, nodes=32),
        )
        assert fields["rate_nats"] == repr(expected.value)
        assert (fields["std_error"], fields["samples"], fields["method"]) == ("0.0", "0", "gl")

    def test_bits_flag_rescales_output(self, capsys):
        _, out_nats, _ = run(capsys, *RATE_ARGS)
        _, out_bits, _ = run(capsys, *RATE_ARGS, "--bits")
        nats = float(out_nats.split("rate_nats=")[1].split()[0])
        bits = float(out_bits.split("rate_bits=")[1].split()[0])
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-12)

    def test_total_power_form(self, capsys):
        code, out, _ = run(capsys, "rate", "--scheme", "af", "--m", "50",
                           "--p", "100", "--theta", "0.6", "--delta-s", "0.1",
                           "--delta-r", "0.1", "--sigma", "1,4,4", "--samples", "1000")
        assert code == 0 and "rate_nats=" in out

    def test_missing_required_flag_is_usage_error(self, capsys):
        cases = [
            (["rate", "--scheme", "af", "--m", "50"], []),
            (["sweep-theta", "--out", "x.csv"],
             ["--scheme", "--p", "--m", "--delta-s", "--delta-r"]),
            (["sweep-sigma-rd", "--out", "x.csv"], ["--m", "--pr", "--lo", "--hi", "--step"]),
        ]
        for argv, named in cases:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert all(flag in err for flag in named)

    def test_conflicting_power_flags(self, capsys):
        code, _, err = run(capsys, "rate", "--scheme", "af", "--m", "50",
                           "--ps", "60", "--p", "100", "--theta", "0.5",
                           "--delta-s", "0.1", "--delta-r", "0.1", "--sigma", "1,4,4")
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_sigma_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        cases = [
            (["rate", *RATE_ARGS[1:13], "--sigma", "1,4"],
             "argument --sigma: expected three comma-separated numbers, got '1,4'"),
            (["rate", *RATE_ARGS[1:13], "--sigma", "1,4,x"],
             "argument --sigma: expected comma-separated numbers, got '1,4,x'"),
            (["sweep-sigma-rd", "--preset", "fig1", "--pr", "1,x", "--out", str(out)],
             "argument --pr: expected comma-separated numbers, got '1,x'"),
        ]
        for argv, message in cases:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {message}")
        assert not out.exists()

    def test_semantic_validation_is_single_line_error(self, capsys):
        common = ["rate", "--scheme", "af", "--m", "50", "--delta-s", "0.1", "--delta-r", "0.1"]
        cases = [
            (["--ps", "60", "--pr", "40", "--sigma", "1,4,-4"], None),
            (["--p", "100", "--theta", "1.5", "--sigma", "1,4,4"], "theta"),
            (["--ps", "60", "--pr", "40", "--sigma", "1,4,4", "--samples", "10000000000"],
             "samples"),
            # b*b overflows in the gain coefficient
            (["--p", "1e300", "--theta", "0.5", "--sigma", "1,4,4"], "p_s=5e+299"),
            # AF is a 3-D expectation, so Monte Carlo only; 186 is the most nodes
            (["--ps", "60", "--pr", "40", "--sigma", "1,4,4", "--method", "gl"],
             "an AF rate needs Monte Carlo; Gauss-Laguerre covers only the DF schemes"),
            (["--ps", "60", "--pr", "40", "--sigma", "1,4,4", "--nodes", "187"], "nodes"),
            # a block length beyond the exact floats is named, not a float conversion error
            (["--m", str(10**400), "--ps", "60", "--pr", "40", "--sigma", "1,4,4"],
             "m must be an even integer in [6, 9007199254740992], got 1000"),
        ]
        for extra, named in cases:
            code, _, err = run(capsys, *common, *extra)
            assert code == 1
            assert err.startswith("error:") and err.count("\n") == 1
            if named is not None:
                assert named in err


class TestSweepTheta:
    def test_coarse_grid_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep-theta", "--scheme", "af", "--p", "100",
                         "--m", "50", "--sigma", "1,4,4", "--delta-s", "0.1",
                         "--delta-r", "0.1", "--theta-step", "0.5",
                         "--samples", "500", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(THETA_CSV_HEADER)
        thetas = [line.split(",")[0] for line in lines[1:]]
        assert thetas == ["0.0", "0.5", "1.0"]

    # --bits rescales the printed line of ``rate``, and a sweep's CSV is in nats;
    # a sweep's kernel threads follow the usable CPUs, so there is no --workers
    # to set; flags are read from a file with @FILE, not --config
    @pytest.mark.parametrize("flag", [["--bits"], ["--workers", "2"], ["--config", "x"]])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-theta", "--preset", "fig2", "--curve", "1", *flag,
                  "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_gauss_laguerre_rows_have_no_std_error(self, tmp_path, capsys):
        out = tmp_path / "gl.csv"
        code, _, _ = run(capsys, "sweep-theta", "--scheme", "df-rep", "--p", "100",
                         "--m", "50", "--sigma", "1,4,4", "--delta-s", "0.1",
                         "--delta-r", "0.1", "--theta-step", "0.25", "--method", "gl",
                         "--samples", "1", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 5
        assert {row.split(",")[2] for row in rows} == {"0.0"}

    def test_bit_identical_across_runs(self, tmp_path, capsys):
        blobs = []
        for i in range(3):
            out = tmp_path / f"run{i}.csv"
            code, _, _ = run(capsys, "sweep-theta", "--scheme", "df-par", "--p", "100",
                             "--m", "50", "--sigma", "1,4,4", "--delta-s", "0.1",
                             "--delta-r", "0.1", "--theta-step", "0.1",
                             "--samples", "2000", "--seed", "5", "--out", str(out))
            assert code == 0
            blobs.append(out.read_bytes())
        assert len(set(blobs)) == 1

    def test_preset_expands_to_four_curves(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code, stdout, _ = run(capsys, "sweep-theta", "--preset", "fig2",
                              "--theta-step", "0.5", "--samples", "200", "--out", str(out))
        assert code == 0
        for i in (1, 2, 3, 4):
            assert (tmp_path / f"fig2_c{i}.csv").exists()
        assert "note: preset fig2" in stdout

    def test_preset_curves_share_one_draw(self, tmp_path, capsys, draw_calls):
        # four curves of one spec draw the three streams once, not once per curve
        code, _, _ = run(capsys, "sweep-theta", "--preset", "fig2",
                         "--out", str(tmp_path / "fig2.csv"))
        assert code == 0
        assert sorted(args for args, _ in draw_calls) == [(0, tag, 100_000) for tag in range(3)]

    def test_preset_single_curve(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        code, _, _ = run(capsys, "sweep-theta", "--preset", "fig5", "--curve", "3",
                         "--theta-step", "0.5", "--samples", "200", "--out", str(out))
        assert code == 0
        body = out.read_text().splitlines()
        assert body[1].split(",")[3:8] == ["af", "1.0", "4.0", "4.0", "1.0"]

    def test_unwritable_output_leaves_no_partial_file(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run(capsys, "sweep-theta", "--scheme", "af", "--p", "100",
                           "--m", "50", "--sigma", "1,4,4", "--delta-s", "0.1",
                           "--delta-r", "0.1", "--theta-step", "0.5",
                           "--samples", "100", "--out", str(target))
        assert code == 1
        assert err.startswith("error:")
        assert not target.exists()

    def test_invalid_config_produces_no_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        common = ["sweep-theta", "--scheme", "af", "--p", "100", "--delta-s", "0.1",
                  "--delta-r", "0.1", "--samples", "100", "--out", str(target)]
        cases = [
            (["--m", "49", "--sigma", "1,4,4"], None),
            (["--m", "50"], "error: missing required value --sigma"),
            # --curve picks a preset curve: with --sigma, or without a preset,
            # there is none to pick
            (["--m", "50", "--sigma", "1,4,4", "--curve", "2"], "--curve"),
            (["--preset", "fig2", "--sigma", "1,4,4", "--curve", "2"], "--curve"),
            # the point count overflows to inf; the budget check must still catch it
            (["--m", "50", "--sigma", "1,4,4", "--theta-step", "5e-324"], "step 5e-324"),
        ]
        for extra, named in cases:
            code, _, err = run(capsys, *common, *extra)
            assert code == 1 and not target.exists()
            if named is not None:
                assert err.startswith("error:") and err.count("\n") == 1 and named in err

    def test_a_gain_that_overflows_names_its_point(self, tmp_path, capsys):
        # the caller's thread checks each point's gains before any kernel runs
        target = tmp_path / "out.csv"
        code, out, err = run(capsys, "sweep-theta", "--scheme", "af", "--p", "1e305",
                             "--m", "50", "--sigma", "1,4,4", "--delta-s", "0.1",
                             "--delta-r", "0.1", "--samples", "1000", "--out", str(target))
        assert (code, out) == (1, "") and not target.exists()
        assert err == ("error: rd link gain is not finite at delta_r=0.1, p_r=1e+305, "
                       "sigma_rd=4.0, n0=1.0, m=50\n")

    def test_grid_budget_fails_before_any_point_is_built(self, tmp_path, capsys, monkeypatch):
        # a 1e-9 step asks for 10^9 + 1 grid points; the budget check must
        # reject it before the grid builder computes a single point
        def no_points(*args):
            raise AssertionError("grid points were built")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "relayrates":
                monkeypatch.setattr(module, "round", no_points, raising=False)
        for argv, flag in ((["sweep-theta", "--scheme", "af", "--p", "100", "--m", "50",
                             "--sigma", "1,4,4", "--delta-s", "0.1", "--delta-r", "0.1",
                             "--theta-step", "1e-9"], "--theta-step: "),
                           (["sweep-sigma-rd", "--m", "50", "--pr", "10", "--lo", "0.5",
                             "--hi", "1.5", "--step", "1e-9"], "")):
            out = tmp_path / "fine.csv"
            code, _, err = run(capsys, *argv, "--out", str(out))
            assert code == 1
            assert err.startswith(f"error: {flag}step 1e-09") and err.count("\n") == 1
            assert not out.exists()


class TestSweepSigmaRd:
    def test_single_point(self, tmp_path, capsys):
        out = tmp_path / "point.csv"
        code, _, _ = run(capsys, "sweep-sigma-rd", "--m", "50", "--pr", "100",
                         "--lo", "1.0", "--hi", "2.0", "--step", "1.0",
                         "--out", str(out))
        assert code == 0
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(0.1698, abs=1e-3)

    def test_zero_power_rejected(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code, _, err = run(capsys, "sweep-sigma-rd", "--m", "50", "--pr", "0",
                           "--lo", "0.5", "--hi", "5.0", "--step", "0.1",
                           "--out", str(out))
        assert code == 1 and err.startswith("error:") and not out.exists()

    def test_preset_fig1_monotone_per_power(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "sweep-sigma-rd", "--preset", "fig1", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_power = {}
        for sigma_rd, delta, p_r, m in rows:
            by_power.setdefault(float(p_r), []).append(float(delta))
        assert set(by_power) == {1.0, 10.0, 100.0}
        for fractions in by_power.values():
            assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_repeat_runs_are_bit_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run(capsys, "sweep-sigma-rd", "--m", "50", "--pr", "1,10",
                "--lo", "0.5", "--hi", "2.0", "--step", "0.1", "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv, named", [
    (["optimal-training", "--m", "7", "--pr", "10", "--sigma-rd", "1"], "m must be"),
    (["sweep-sigma-rd", "--m", "7", "--pr", "10", "--lo", "0.5", "--hi", "1.5", "--step", "0.5",
      "--out", "out.csv"], "m must be"),
    (["optimal-training", "--m", "50", "--pr", "0", "--sigma-rd", "1"], "p must be"),
    # misuse found after the relay fraction is known still prints no result line
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--scheme", "af"],
     "--scheme needs"),
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--ps", "10"],
     "--ps needs"),
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--ps", "10",
      "--sigma-sd", "-1", "--sigma-sr", "1"], "sigma_sd must be"),
    # the search flags are checked without --scheme too, each under its flag's name
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--samples", "0"],
     "samples must be"),
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--seed", "-3"],
     "seed must be"),
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--delta-s", "9"],
     "--delta-s must be"),
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--delta-step", "7"],
     "--delta-step must be"),
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--ps", "10",
      "--sigma-sd", "1", "--sigma-sr", "1", "--scheme", "af", "--delta-step", "7"],
     "--delta-step must be"),
    # a step whose grid has more points than closed_grid allows
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--delta-step", "1e-9"],
     "--delta-step: step 1e-09 asks for"),
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--ps", "10",
      "--sigma-sd", "1", "--sigma-sr", "1", "--scheme", "af", "--delta-step", "1e-9"],
     "--delta-step: step 1e-09 asks for"),
])
def test_invalid_training_input_is_one_error_line(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and named in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("form", [
    ["--scheme", "af", "--p", "100", "--m", "50", "--sigma", "1,4,4", "--delta-s", "0.1",
     "--delta-r", "0.1"],
    ["--preset", "fig4"],  # its note is printed only once every value has passed
], ids=["flags", "preset"])
@pytest.mark.parametrize("step, named", [
    ("0", "--theta-step must be"),
    ("2", "--theta-step must be"),
    ("1e-9", "--theta-step: step 1e-09 asks for"),
])
def test_invalid_theta_step_is_one_error_line(tmp_path, capsys, monkeypatch, step, named,
                                              form):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "sweep-theta", *form, "--theta-step", step, "--out", "x.csv")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and named in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sweep-theta", "--scheme", "af", "--p", "100", "--m", "50", "--sigma", "1,4,4",
     "--delta-s", "0.1", "--delta-r", "0.1"],
    ["sweep-theta", "--preset", "fig4"],
    ["sweep-theta", "--preset", "fig4", "--curve", "2"],
    ["sweep-sigma-rd", "--preset", "fig1"],
])
def test_missing_out_directory_is_one_error_line_before_any_rate(tmp_path, capsys,
                                                                  monkeypatch, argv):
    # so is an --out that is empty or a directory, whichever names the files
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    for original in (relayrates.rates.exp_draws, relayrates.cli.optimal_delta_r):
        _rebind(monkeypatch, original, forbidden)
    missing, folder = tmp_path / "missing", tmp_path / "folder"
    folder.mkdir()
    monkeypatch.chdir(folder)
    for directory in (str(folder), ".", "/"):
        code, out, err = run(capsys, *argv, "--out", directory)
        assert (code, out, err) == (1, "", f"error: --out: {directory!r} is a directory\n")
    code, out, err = run(capsys, *argv, "--out", "")
    assert (code, out, err) == (1, "", "error: --out is empty\n")
    code, out, err = run(capsys, *argv, "--out", str(missing / "x.csv"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --out: directory {str(missing)!r} of ")
    assert err.endswith(" does not exist\n") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [folder] and list(folder.iterdir()) == []


def test_a_later_curve_path_that_is_a_directory_is_one_error_line_before_any_rate(
        tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    _rebind(monkeypatch, relayrates.rates.exp_draws, forbidden)
    (tmp_path / "x_c3.csv").mkdir()
    code, out, err = run(capsys, "sweep-theta", "--preset", "fig2", "--out",
                         str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err == f"error: --out: {str(tmp_path / 'x_c3.csv')!r} is a directory\n"
    assert [path.name for path in tmp_path.iterdir()] == ["x_c3.csv"]


def test_a_failed_write_leaves_no_file_and_prints_nothing(tmp_path, capsys, monkeypatch):
    # the third of four curves fails to write after the first two are written: no
    # curve is moved into place, every temporary file is removed and stdout stays empty
    opened = []

    def failing_open(file, *args, **kwargs):
        opened.append(os.path.basename(file))
        if "x_c3.csv" in opened[-1]:
            raise OSError(f"cannot write {file}")
        return open(file, *args, **kwargs)

    monkeypatch.setattr(relayrates.cli, "open", failing_open, raising=False)
    argv = ["sweep-theta", "--preset", "fig2", "--samples", "2000", "--theta-step", "0.1",
            "--out", str(tmp_path / "x.csv")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert [name.split(".")[0] for name in opened] == ["x_c1", "x_c2", "x_c3"]
    assert list(tmp_path.iterdir()) == []
    # and a file the failed run would have replaced keeps its bytes
    (tmp_path / "x_c1.csv").write_text("kept\n")
    assert run(capsys, *argv)[:2] == (1, "")
    assert [(path.name, path.read_text()) for path in tmp_path.iterdir()] == [
        ("x_c1.csv", "kept\n")]


def test_files_are_written_with_the_mode_open_gives(tmp_path, capsys):
    # a new file as open(path, "w") creates it, and an existing one keeps its mode
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("stale\n")
    old.chmod(0o640)
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    _write_csvs(["h"], {str(old): [[1]], str(new): [[2]]}, None)
    assert capsys.readouterr().out == f"wrote {old} (1 rows)\nwrote {new} (1 rows)\n"
    assert (old.read_text(), new.read_text()) == ("h\n1\n", "h\n2\n")
    assert old.stat().st_mode == reference.stat().st_mode & ~0o777 | 0o640
    assert new.stat().st_mode == reference.stat().st_mode
    assert sorted(path.name for path in tmp_path.iterdir()) == ["new.csv", "old.csv",
                                                                "reference"]
    # as open(path, "w") does, a symlink's target gets the rows and the link stays
    link = tmp_path / "link.csv"
    link.symlink_to(old)
    _write_csvs(["h"], {str(link): [[3]]}, None)
    assert link.is_symlink() and old.read_text() == "h\n3\n"
    assert old.stat().st_mode == reference.stat().st_mode & ~0o777 | 0o640


TRAINING_ARGS = ["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1"]


# one Monte Carlo sample has no standard error, so its result claimed an error of 0
@pytest.mark.parametrize("argv", [
    [*RATE_ARGS, "--samples", "1"],
    ["rate", "--scheme", "df-par", *RATE_ARGS[3:], "--samples", "1"],
    ["sweep-theta", "--preset", "fig4", "--samples", "1", "--out", "x.csv"],
    ["sweep-theta", "--scheme", "df-rep", "--p", "100", "--m", "50", "--sigma", "1,4,4",
     "--delta-s", "0.1", "--delta-r", "0.1", "--samples", "1", "--out", "x.csv"],
    [*TRAINING_ARGS, "--samples", "1"],
    [*TRAINING_ARGS, "--ps", "10", "--sigma-sd", "1", "--sigma-sr", "1", "--scheme", "df-par",
     "--samples", "1"],
])
def test_one_monte_carlo_sample_is_one_error_line_before_any_draw(tmp_path, capsys,
                                                                   monkeypatch, argv):
    def forbidden(*args):
        raise AssertionError("drew before checking --samples")

    _rebind(monkeypatch, relayrates.rates.exp_draws, forbidden)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and "wrote" not in out and "rate_nats" not in out
    assert err == "error: --samples must be an integer in [2, 10000000], got 1\n"
    assert list(tmp_path.iterdir()) == []


class TestOptimalTraining:
    def test_reports_closed_form(self, capsys):
        code, out, _ = run(capsys, "optimal-training", "--m", "50", "--pr", "100",
                           "--sigma-rd", "1", "--n0", "1")
        assert code == 0
        value = float(out.split("delta_r_opt=")[1].split()[0])
        assert value == optimal_delta_r(50, 100.0, 1.0, 1.0)

    def test_high_snr_limit(self, capsys):
        code, out, _ = run(capsys, "optimal-training", "--m", "50", "--pr", "1e300",
                           "--sigma-rd", "1")
        assert code == 0
        value = float(out.split("delta_r_opt=")[1].split()[0])
        limit = 1.0 / (1.0 + math.sqrt(24.0))
        assert abs(value - limit) <= 2 * math.ulp(limit)

    def test_source_candidates(self, capsys):
        code, out, _ = run(capsys, "optimal-training", "--m", "50", "--pr", "100",
                           "--sigma-rd", "1", "--ps", "100", "--sigma-sd", "1",
                           "--sigma-sr", "4")
        assert code == 0
        assert "delta_s_via_direct=" in out and "delta_s_via_relay=" in out

    def test_global_delta_grid(self, capsys):
        code, out, _ = run(capsys, "optimal-training", "--m", "50", "--pr", "40",
                           "--sigma-rd", "4", "--ps", "60", "--sigma-sd", "1",
                           "--sigma-sr", "4", "--scheme", "af",
                           "--samples", "2000", "--delta-step", "0.05")
        assert code == 0
        assert "delta_r_grid=" in out and "rate_nats=" in out

    @pytest.mark.parametrize("scheme, sigma_sd, sigma_sr, tie", [
        (Scheme.AF, "1", "4", None),
        # relay decoding binds at every delta_r, so all 21 rates are equal bit for bit:
        # the search keeps the first, at the smallest delta_r
        (Scheme.DF_REPETITION, "4", "1", (0.0, 1.885964027425504)),
    ])
    def test_global_delta_searches_at_sigma_rd(self, capsys, scheme, sigma_sd, sigma_sr, tie):
        code, out, _ = run(capsys, "optimal-training", "--m", "50", "--pr", "40",
                           "--sigma-rd", "1", "--ps", "60", "--sigma-sd", sigma_sd,
                           "--sigma-sr", sigma_sr, "--scheme", scheme.value,
                           "--samples", "2000", "--delta-step", "0.05")
        assert code == 0
        fields = dict(token.split("=") for token in out.split() if "=" in token)
        cfg = SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1,
                           delta_r=float(fields["delta_r_grid"]), scheme=scheme)
        stats = ChannelStats(float(sigma_sd), float(sigma_sr), 1.0, 1.0)
        spec = ExpectationSpec(dims=3, samples=2000, seed=0)
        expected = rate(cfg, stats, spec)
        assert float(fields["rate_nats"]) == expected.value
        if tie is not None:
            # the last grid point ties too, so only the tie rule picks the first
            assert rate(replace(cfg, delta_r=1.0), stats, spec).value == expected.value
            # the value was recorded with numpy 2.4.6 on AVX-512, where np.log1p's last
            # bit can differ from other builds
            assert float(fields["delta_r_grid"]) == tie[0]
            assert float(fields["rate_nats"]) == pytest.approx(tie[1], rel=1e-12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_global_delta_draws_once_and_reports_a_standalone_rate(self, capsys, draw_calls,
                                                                   scheme):
        code, out, _ = run(capsys, "optimal-training", "--m", "50", "--pr", "40",
                           "--sigma-rd", "1", "--ps", "60", "--sigma-sd", "1",
                           "--sigma-sr", "4", "--scheme", scheme.value,
                           "--samples", "2000", "--delta-step", "0.05", "--seed", "5")
        assert code == 0
        assert sorted(args for args, _ in draw_calls) == [(5, tag, 2000) for tag in range(3)]
        fields = dict(token.split("=") for token in out.split() if "=" in token)
        assert fields["evaluations"] == "21"
        cfg = SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1,
                           delta_r=float(fields["delta_r_grid"]), scheme=scheme)
        expected = rate(cfg, ChannelStats(1.0, 4.0, 1.0, 1.0),
                        ExpectationSpec(dims=3, samples=2000, seed=5))
        assert fields["rate_nats"] == repr(expected.value)

    def test_searches_never_call_the_oracle(self, monkeypatch, capsys):
        # the oracle only checks: verify calls it, and no allocation search does
        def forbidden(*args, **kwargs):
            raise AssertionError("an allocation search called the oracle")

        public = [name for name, value in vars(relayrates.oracle).items()
                  if inspect.isfunction(value) and value.__module__ == "relayrates.oracle"
                  and not name.startswith("_")]
        for name in public:
            for module in (relayrates.oracle, relayrates.cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        for scheme in Scheme:
            code, out, _ = run(capsys, "optimal-training", "--m", "50", "--pr", "40",
                               "--sigma-rd", "1", "--ps", "60", "--sigma-sd", "1",
                               "--sigma-sr", "4", "--scheme", scheme.value,
                               "--samples", "2000", "--delta-step", "0.05")
            assert code == 0 and "delta_r_grid=" in out
        theta, _, _, best = joint_allocation(100.0, ChannelStats(1.0, 4.0, 4.0, 1.0), 50,
                                             Scheme.DF_PARALLEL,
                                             ExpectationSpec(dims=3, samples=2000),
                                             theta_step=0.1)
        assert 0.0 <= theta <= 1.0 and best.value > 0.0
        with pytest.raises(AssertionError, match="called the oracle"):
            main(["verify", "--samples", "1000"])

    def test_global_delta_is_a_removed_flag(self, capsys):
        # --scheme alone turns the grid search on
        with pytest.raises(SystemExit) as excinfo:
            main(["optimal-training", "--m", "50", "--pr", "40", "--sigma-rd", "1",
                  "--ps", "60", "--sigma-sd", "1", "--sigma-sr", "4", "--global-delta",
                  "--scheme", "af"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--global-delta" in captured.err


class TestAbbreviations:
    """Every flag has one spelling: a prefix is rejected, not expanded."""

    def usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        return capsys.readouterr()

    def test_abbreviated_preset_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        captured = self.usage_error(capsys, "sweep-theta", "--scheme", "af", "--p", "100",
                                    "--m", "50", "--sigma", "1,4,4", "--delta-s", "0.1",
                                    "--delta-r", "0.1", "--theta-step", "0.5",
                                    "--samples", "100", "--pres", "fig2", "--out", str(out))
        assert "unrecognized arguments: --pres fig2" in captured.err
        assert not out.exists()


class TestArgumentFile:
    """``@FILE`` after the command reads flags from FILE in its place."""

    def write(self, tmp_path, text: str) -> str:
        path = tmp_path / "flags.args"
        path.write_text(text)
        return f"@{path}"

    def test_file_supplies_every_flag(self, tmp_path, capsys):
        pairs = [" ".join(RATE_ARGS[i:i + 2]) for i in range(1, len(RATE_ARGS), 2)]
        code, from_file, _ = run(capsys, "rate", self.write(tmp_path, "\n".join(pairs)))
        assert code == 0
        assert from_file == run(capsys, *RATE_ARGS)[1]

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_a_pipe_is_read_once(self, capsys):
        # what the shell hands over for @<(...)
        read_end, write_end = os.pipe()
        os.write(write_end, " ".join(RATE_ARGS[1:]).encode())
        os.close(write_end)
        try:
            code, from_pipe, _ = run(capsys, "rate", f"@/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert code == 0
        assert from_pipe == run(capsys, *RATE_ARGS)[1]

    def test_last_value_wins(self, tmp_path, capsys):
        flags = self.write(tmp_path, " ".join(RATE_ARGS[1:]))  # --seed 7
        _, after, _ = run(capsys, "rate", flags, "--seed", "8")
        _, before, _ = run(capsys, "rate", "--seed", "8", flags)
        assert after == run(capsys, *RATE_ARGS[:-1], "8")[1] and "seed=8" in after
        assert before == run(capsys, *RATE_ARGS)[1]

    def test_comments_blank_lines_and_quoting(self, tmp_path, capsys):
        out = tmp_path / "first curve.csv"
        flags = self.write(tmp_path, "# figure 2, coarse grid\n"
                                     "\n"
                                     "--preset fig2 --curve 1   # sigma = 1,10,2\n"
                                     "--theta-step 0.5 --samples 200\n"
                                     f"--out {shlex.quote(str(out))}\n")
        code, stdout, _ = run(capsys, "sweep-theta", flags)
        assert code == 0 and f"wrote {out} (3 rows)" in stdout
        typed = tmp_path / "typed.csv"
        run(capsys, "sweep-theta", "--preset", "fig2", "--curve", "1", "--theta-step", "0.5",
            "--samples", "200", "--out", str(typed))
        assert out.read_bytes() == typed.read_bytes()

    def test_unknown_token_and_unclosed_quote(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*RATE_ARGS, self.write(tmp_path, "scheme=af\n")])  # the old key=value form
        assert excinfo.value.code == 2
        assert "unrecognized arguments: scheme=af" in capsys.readouterr().err
        code, out, err = run(capsys, *RATE_ARGS, self.write(tmp_path, "--seed '8\n"))
        assert (code, out) == (1, "")
        assert err == "error: argument file line \"--seed '8\": No closing quotation\n"

    def test_file_that_reads_itself_is_one_error_line(self, tmp_path, capsys):
        flags = tmp_path / "loop.args"
        flags.write_text(f"--seed 8 @{flags}\n")
        # argparse opens the file again at each level, so the interpreter's
        # recursion limit (exit 1) or, below about 1000 descriptors, the limit
        # on open files (a usage error) ends it
        try:
            code = main([*RATE_ARGS, f"@{flags}"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert (code, captured.err.split(":")[0]) in {
            (1, "error"), (2, "relayrates rate")}, captured.err

    def test_bits_line(self, tmp_path, capsys):
        code, out, _ = run(capsys, *RATE_ARGS, "--samples", "1000",
                           self.write(tmp_path, "--bits\n"))
        assert code == 0 and "rate_bits=" in out

    def test_precedence_preset_then_file_then_later_flag(self, tmp_path, capsys):
        flags = self.write(tmp_path, "--preset fig5\n--p 3\n")
        common = ["--curve", "1", "--theta-step", "0.5", "--samples", "200"]
        # the file overrides the preset's P = 1, a later flag overrides the
        # file and an earlier one is overridden by it; every other value is
        # the preset's
        for before, after, expected_p in (([], [], "3.0"), ([], ["--p", "7"], "7.0"),
                                          (["--p", "7"], [], "3.0")):
            out = tmp_path / f"p{expected_p}{len(before)}.csv"
            code, stdout, _ = run(capsys, "sweep-theta", *before, flags, *common, *after,
                                  "--out", str(out))
            assert code == 0 and "note: preset fig5" in stdout
            rows = {tuple(line.split(",")[3:11]) for line in out.read_text().splitlines()[1:]}
            assert rows == {("af", "1.0", "10.0", "2.0", expected_p, "50", "0.1", "0.1")}

    def test_missing_file_and_file_before_command_are_usage_errors(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        whole = self.write(tmp_path, f"sweep-theta --preset fig2 --curve 1 --out {out}\n")
        for argv, message in (
            (["sweep-theta", f"@{tmp_path / 'missing.args'}", "--preset", "fig2",
              "--out", str(out)], "No such file or directory"),
            ([whole], f"invalid choice: '{whole}'"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert message in capsys.readouterr().err
        assert not out.exists()

    def test_no_command_takes_config(self):
        for command, parser in _commands().items():
            assert "--config" not in parser._option_string_actions, command


def test_csv_cells_are_repr_per_float_and_str_otherwise(tmp_path, capsys):
    row = [5e-324, 1e-20, 0.30000000000000004, 1.2345678901234568e+17, 1e+300, 1.0, 7, "af"]
    path = tmp_path / "cells.csv"
    _write_csvs(["h"], {str(path): [row]}, None)
    assert capsys.readouterr().out == f"wrote {path} (1 rows)\n"
    expected = ",".join([*map(repr, row[:6]), "7", "af"])
    assert expected == "5e-324,1e-20,0.30000000000000004,1.2345678901234568e+17,1e+300,1.0,7,af"
    assert path.read_bytes() == f"h\n{expected}\n".encode()


def _handler_source(handler) -> str:
    """A handler's source plus that of every cli helper it passes ``args`` to."""
    source = inspect.getsource(handler)
    for name in re.findall(r"(\w+)\(args\)", source):
        helper = getattr(relayrates.cli, name, None)
        if inspect.isfunction(helper):
            source += inspect.getsource(helper)
    return source


def _commands() -> dict[str, argparse.ArgumentParser]:
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_every_option_is_read():
    # an option no handler reads is accepted and silently ignored
    for command, parser in _commands().items():
        source = _handler_source(parser.get_default("func"))
        dests = {action.dest for action in parser._actions if action.option_strings}
        unread = sorted(dest for dest in dests - {"help"}
                        if not re.search(rf"\bargs\.{dest}\b", source))
        assert not unread, f"{command} never reads {unread}"


def _readme_commands() -> list[str]:
    """Every ``relayrates ...`` command of README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("relayrates "):
                commands.append(line)
    return commands


def test_readme_commands_parse(tmp_path, monkeypatch):
    # parsed only, not run: every flag the README shows must still exist, and
    # the argument file it shows is written where its command reads it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    name, content = re.search(r"`(\w+\.args)`:\n\n```text\n(.*?)```", text, flags=re.S).groups()
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(content)
    commands = _readme_commands()
    assert len(commands) >= 9 and any(f"@{name}" in command for command in commands)
    for command in commands:
        args = build_parser().parse_args(_expand(shlex.split(command, comments=True)[1:]))
        assert callable(args.func)


def test_readme_python_examples_run():
    # every python block of README runs as shown, in a namespace of its own
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


class TestVerifyCommand:
    def test_quick_run_passes_within_budget(self, capsys):
        import time
        started = time.monotonic()
        code, out, _ = run(capsys, "verify", "--samples", "10000", "--seed", "1")
        elapsed = time.monotonic() - started
        assert code == 0
        assert "verify passed" in out
        assert out.count("pass") >= 4
        assert elapsed < 10.0

    # per check, a binding biased to fail it and no other: a 2x error variance,
    # a 1.5x log-det rate, a relay fraction off by 0.01 and a 1% bias in the
    # oracle's scalar combiner
    BIASES = {
        "training-sim-vs-closed-form": (relayrates.cli, "simulate_training_quality",
                                        lambda q: replace(q, var_error=2.0 * q.var_error)),
        "logdet-vs-scalar-af": (relayrates.cli, "af_rate_logdet",
                                lambda r: replace(r, value=1.5 * r.value)),
        "per-draw-identity": (relayrates.oracle, "f_combiner", lambda f: 1.01 * f),
        "delta-r-closed-vs-grid": (relayrates.cli, "optimal_delta_r", lambda d: d + 0.01),
    }

    @pytest.mark.parametrize("check", list(BIASES))
    def test_perturbation_is_detected(self, capsys, monkeypatch, check):
        module, name, bias = self.BIASES[check]
        exact = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: bias(exact(*args)))
        code, out, _ = run(capsys, "verify", "--samples", "10000", "--seed", "1")
        assert code == 1
        status = {line.split()[1]: line.split()[0] for line in out.splitlines()[1:-1]}
        assert status == {c: "FAIL" if c == check else "pass" for c in self.BIASES}
        assert out.splitlines()[-1].startswith("verify FAILED in ")

    def test_a_nan_gap_fails_the_identity_check(self, capsys, monkeypatch):
        # a NaN scalar form makes max_identity_gap NaN; the estimates of the other
        # checks are result types, which reject NaN
        monkeypatch.setattr(relayrates.oracle, "f_combiner", lambda *args: math.nan)
        code, out, _ = run(capsys, "verify", "--samples", "10000", "--seed", "1")
        assert code == 1
        _, *rows, verdict = out.splitlines()
        assert [row.split()[0] for row in rows] == ["pass", "pass", "FAIL", "pass"]
        assert rows[2] == f"{'FAIL':<7}{'per-draw-identity':<35}max relative gap nan"
        assert verdict.startswith("verify FAILED in ")

    # one sample has no standard error, so a correct build failed at tolerance 0; case i
    # of a check runs at seed + i for i < 12, so 2^64 - 12 is the largest seed
    @pytest.mark.parametrize("flag, value, allowed", [
        ("--samples", "1", "[2, 10000000]"), ("--samples", "0", "[2, 10000000]"),
        ("--seed", str(2**64 - 11), f"[0, {2**64 - 12}]"),
        ("--seed", str(2**64 - 6), f"[0, {2**64 - 12}]"),
        ("--seed", "-1", f"[0, {2**64 - 12}]"),
    ])
    def test_bad_samples_or_seed_is_one_error_line_before_any_draw(self, capsys, monkeypatch,
                                                                    flag, value, allowed):
        def forbidden(*args):
            raise AssertionError("verify drew before checking its flags")

        _rebind(monkeypatch, relayrates.rates.stream, forbidden)
        code, out, err = run(capsys, "verify", flag, value)
        assert (code, out) == (1, "")
        assert err == f"error: {flag} must be an integer in {allowed}, got {value}\n"

    def test_largest_seed_and_fewest_samples_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "2", "--seed", str(2**64 - 12))
        assert code == 0 and out.splitlines()[-1].startswith("verify passed in ")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_is_not_a_failure(self, unbuffered):
        # a reader that stops early ends the run with 128 + SIGPIPE and no error line
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        package_root = str(Path(relayrates.cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "relayrates.cli", "verify",
                                 "--samples", "2000"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")

    # SHA-256 of ``verify --samples 10000 --seed N`` stdout without its final
    # timing line; every status is "pass". Like the preset digests, they
    # depend on numpy's Philox stream and log1p.
    VERIFY_SHA256 = {
        0: "e98afd980189432b74c2556260a78dee40678095af803daf75257ca3a8b4c7a7",
        1: "5a370ee5f38ec1a8749f4774f0a48e7c3a38ca00a5ab23808fa998fd9e3637bd",
        2: "48db0b931117079fbdcfc6a1c8b316b84541afe91169a59b6ed1a90810dd5481",
    }

    @recorded_build
    @pytest.mark.parametrize("seed", sorted(VERIFY_SHA256))
    def test_report_bytes_are_pinned(self, capsys, seed):
        code, out, _ = run(capsys, "verify", "--samples", "10000", "--seed", str(seed))
        assert code == 0
        *report, timing = out.splitlines(keepends=True)
        assert timing.startswith("verify passed in ")
        assert hashlib.sha256("".join(report).encode()).hexdigest() == self.VERIFY_SHA256[seed]
