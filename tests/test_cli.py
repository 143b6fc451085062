import argparse
import hashlib
import inspect
import math
import os
import re
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import relayrates.cli
import relayrates.oracle
from relayrates import (
    ChannelStats,
    ExpectationSpec,
    Scheme,
    SystemConfig,
    af_rate,
    optimal_delta_r,
)
from relayrates.cli import THETA_CSV_HEADER, _expand, _write_csv, build_parser, main
from relayrates.rates import RATE_FN
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

    def test_parallel_reports_at_least_repetition(self, capsys):
        base = RATE_ARGS[1:]
        _, out_rep, _ = run(capsys, "rate", "--scheme", "df-rep", *base[2:])
        _, out_par, _ = run(capsys, "rate", "--scheme", "df-par", *base[2:])
        rep = float(out_rep.split("rate_nats=")[1].split()[0])
        par = float(out_par.split("rate_nats=")[1].split()[0])
        assert par >= rep
        assert "binding=" in out_rep

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
    # a sweep runs one serial path, so there is no --workers to set; flags are
    # read from a file with @FILE, not --config
    @pytest.mark.parametrize("flag", [["--bits"], ["--workers", "2"], ["--config", "x"]])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-theta", "--preset", "fig2", "--curve", "1", *flag,
                  "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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

    def test_grid_budget_fails_before_any_point_is_built(self, tmp_path, capsys, monkeypatch):
        # a 1e-9 step asks for 10^9 + 1 grid points; the budget check must
        # reject it before the grid builder computes a single point
        def no_points(*args):
            raise AssertionError("grid points were built")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "relayrates":
                monkeypatch.setattr(module, "round", no_points, raising=False)
        for argv in (["sweep-theta", "--scheme", "af", "--p", "100", "--m", "50",
                      "--sigma", "1,4,4", "--delta-s", "0.1", "--delta-r", "0.1",
                      "--theta-step", "1e-9"],
                     ["sweep-sigma-rd", "--m", "50", "--pr", "10", "--lo", "0.5",
                      "--hi", "1.5", "--step", "1e-9"]):
            out = tmp_path / "fine.csv"
            code, _, err = run(capsys, *argv, "--out", str(out))
            assert code == 1
            assert err.startswith("error: step 1e-09") and err.count("\n") == 1
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
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--global-delta"],
     "--global-delta needs"),
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--ps", "10"],
     "--ps needs"),
    (["optimal-training", "--m", "50", "--pr", "10", "--sigma-rd", "1", "--ps", "10",
      "--sigma-sd", "-1", "--sigma-sr", "1"], "sigma_sd must be"),
])
def test_invalid_training_input_is_one_error_line(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and named in err
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
                           "--sigma-sr", "4", "--global-delta", "--scheme", "af",
                           "--samples", "2000", "--delta-step", "0.05")
        assert code == 0
        assert "delta_r_grid=" in out and "rate_nats=" in out

    def test_global_delta_searches_at_sigma_rd(self, capsys):
        code, out, _ = run(capsys, "optimal-training", "--m", "50", "--pr", "40",
                           "--sigma-rd", "1", "--ps", "60", "--sigma-sd", "1",
                           "--sigma-sr", "4", "--global-delta", "--scheme", "af",
                           "--samples", "2000", "--delta-step", "0.05")
        assert code == 0
        fields = dict(token.split("=") for token in out.split() if "=" in token)
        cfg = SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1,
                           delta_r=float(fields["delta_r_grid"]), scheme=Scheme.AF)
        expected = af_rate(cfg, ChannelStats(1.0, 4.0, 1.0, 1.0),
                           ExpectationSpec(dims=3, samples=2000, seed=0))
        assert float(fields["rate_nats"]) == expected.value

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_global_delta_draws_once_and_reports_a_standalone_rate(self, capsys, draw_calls,
                                                                   scheme):
        code, out, _ = run(capsys, "optimal-training", "--m", "50", "--pr", "40",
                           "--sigma-rd", "1", "--ps", "60", "--sigma-sd", "1",
                           "--sigma-sr", "4", "--global-delta", "--scheme", scheme.value,
                           "--samples", "2000", "--delta-step", "0.05", "--seed", "5")
        assert code == 0
        assert sorted(args for args, _ in draw_calls) == [(5, tag, 2000) for tag in range(3)]
        fields = dict(token.split("=") for token in out.split() if "=" in token)
        assert fields["evaluations"] == "21"
        cfg = SystemConfig(m=50, p_s=60.0, p_r=40.0, delta_s=0.1,
                           delta_r=float(fields["delta_r_grid"]), scheme=scheme)
        expected = RATE_FN[scheme](cfg, ChannelStats(1.0, 4.0, 1.0, 1.0),
                                   ExpectationSpec(dims=3, samples=2000, seed=5))
        assert fields["rate_nats"] == repr(expected.value)


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


def test_csv_cells_are_repr_per_float_and_str_otherwise(tmp_path):
    row = [5e-324, 1e-20, 0.30000000000000004, 1.2345678901234568e+17, 1e+300, 1.0, 7, "af"]
    path = tmp_path / "cells.csv"
    _write_csv(str(path), ["h"], [row])
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

    # SHA-256 of ``verify --samples 10000 --seed N`` stdout without its final
    # timing line, recorded while grid_argmax still called its objective once
    # per grid point and the log-det oracle whitened through np.linalg.solve.
    # Like the preset digests, they depend on numpy's Philox stream and log1p.
    VERIFY_SHA256 = {
        0: "562ecabcae7c720495f94efdb925d28fc1caa7f12cbf9bc70578a6130561f502",
        1: "a0c4d18edb899c48224081f8ed4cd454de771c43b326da196a6c58096378f306",
        2: "0763ef297ed439e49509da9beaff6f73b1984949306efc9dee09fb9b89d6a35d",
    }

    @recorded_build
    @pytest.mark.parametrize("seed", sorted(VERIFY_SHA256))
    def test_report_bytes_are_pinned(self, capsys, seed):
        code, out, _ = run(capsys, "verify", "--samples", "10000", "--seed", str(seed))
        assert code == 0
        *report, timing = out.splitlines(keepends=True)
        assert timing.startswith("verify passed in ")
        assert hashlib.sha256("".join(report).encode()).hexdigest() == self.VERIFY_SHA256[seed]
