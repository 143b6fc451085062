import math
import sys

import pytest

from relayrates import (
    ChannelStats,
    ExpectationSpec,
    Scheme,
    SystemConfig,
    af_rate,
    optimal_delta_r,
)
from relayrates.cli import THETA_CSV_HEADER, main

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
        with pytest.raises(SystemExit) as excinfo:
            main(["rate", "--scheme", "af", "--m", "50"])
        assert excinfo.value.code == 2

    def test_conflicting_power_flags(self, capsys):
        code, _, err = run(capsys, "rate", "--scheme", "af", "--m", "50",
                           "--ps", "60", "--p", "100", "--theta", "0.5",
                           "--delta-s", "0.1", "--delta-r", "0.1", "--sigma", "1,4,4")
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_sigma_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["rate", "--scheme", "af", "--m", "50", "--ps", "60", "--pr", "40",
                  "--delta-s", "0.1", "--delta-r", "0.1", "--sigma", "1,4"])
        assert excinfo.value.code == 2

    def test_semantic_validation_is_single_line_error(self, capsys):
        common = ["rate", "--scheme", "af", "--m", "50", "--delta-s", "0.1", "--delta-r", "0.1"]
        cases = [
            (["--ps", "60", "--pr", "40", "--sigma", "1,4,-4"], None),
            (["--p", "100", "--theta", "1.5", "--sigma", "1,4,4"], "theta"),
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

    def test_bit_identical_across_runs_and_workers(self, tmp_path, capsys):
        blobs = []
        for i, workers in enumerate((1, 2, 8, 1)):
            out = tmp_path / f"run{i}.csv"
            code, _, _ = run(capsys, "sweep-theta", "--scheme", "df-par", "--p", "100",
                             "--m", "50", "--sigma", "1,4,4", "--delta-s", "0.1",
                             "--delta-r", "0.1", "--theta-step", "0.1",
                             "--samples", "2000", "--seed", "5",
                             "--workers", str(workers), "--out", str(out))
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
        code, _, err = run(capsys, "sweep-theta", "--scheme", "af", "--p", "100",
                           "--m", "49", "--sigma", "1,4,4", "--delta-s", "0.1",
                           "--delta-r", "0.1", "--samples", "100", "--out", str(target))
        assert code == 1 and not target.exists()

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


class TestOptimalTraining:
    def test_reports_closed_form(self, capsys):
        code, out, _ = run(capsys, "optimal-training", "--m", "50", "--pr", "100",
                           "--sigma-rd", "1", "--n0", "1")
        assert code == 0
        value = float(out.split("delta_r_opt=")[1].split()[0])
        assert value == optimal_delta_r(50, 100.0, 1.0, 1.0)

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
                           "--sigma", "1,4,4", "--samples", "2000",
                           "--delta-step", "0.05")
        assert code == 0
        assert "delta_r_grid=" in out and "rate_nats=" in out


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# base configuration\n"
            "scheme=af\n"
            "m=50\n"
            "ps=60\n"
            "pr=40\n"
            "delta-s=0.1\n"
            "delta_r=0.1\n"
            "sigma=1,4,4\n"
            "samples=1000\n"
            "seed=7\n"
        )
        code, out_file, _ = run(capsys, "rate", "--config", str(config))
        assert code == 0
        code, out_override, _ = run(capsys, "rate", "--config", str(config),
                                    "--seed", "8")
        assert code == 0
        assert "seed=7" in out_file
        assert "seed=8" in out_override
        assert out_file != out_override

    def test_bad_line_is_reported(self, tmp_path, capsys):
        config = tmp_path / "broken.cfg"
        config.write_text("scheme af\n")
        code, _, err = run(capsys, "rate", "--config", str(config))
        assert code == 1 and "expected key=value" in err

    def test_boolean_values(self, tmp_path, capsys):
        config = tmp_path / "bits.cfg"
        config.write_text("bits=true\n")
        code, out, _ = run(capsys, *RATE_ARGS[:1], "--config", str(config),
                           *RATE_ARGS[1:], "--samples", "1000")
        assert code == 0 and "rate_bits=" in out


class TestOutputDirEnv:
    def test_relative_paths_land_in_outdir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELAYRATES_OUTDIR", str(tmp_path / "results"))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "sweep-sigma-rd", "--m", "50", "--pr", "10",
                         "--lo", "1.0", "--hi", "2.0", "--step", "0.5",
                         "--out", "inner.csv")
        assert code == 0
        assert (tmp_path / "results" / "inner.csv").exists()

    def test_absolute_paths_ignore_outdir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELAYRATES_OUTDIR", str(tmp_path / "results"))
        target = tmp_path / "direct.csv"
        code, _, _ = run(capsys, "sweep-sigma-rd", "--m", "50", "--pr", "10",
                         "--lo", "1.0", "--hi", "2.0", "--step", "0.5",
                         "--out", str(target))
        assert code == 0 and target.exists()


class TestVerifyCommand:
    def test_quick_run_passes_within_budget(self, capsys):
        import time
        started = time.monotonic()
        code, out, _ = run(capsys, "verify", "--quick", "--seed", "1")
        elapsed = time.monotonic() - started
        assert code == 0
        assert "verify passed" in out
        assert out.count("pass") >= 4
        assert elapsed < 10.0

    def test_perturbation_is_detected(self, capsys):
        code, out, _ = run(capsys, "verify", "--quick", "--seed", "1",
                           "--perturb", "1e-2")
        assert code == 1
        assert "FAIL" in out
