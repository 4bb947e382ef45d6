import json
import math

import pytest

from qmarkov import cli, contractivity
from qmarkov.cli import main


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


class TestVerify:
    def test_defaults_pass(self, tmp_path, capsys):
        code = run(["verify", "--out", str(tmp_path), "--grid", "40",
                    "--probes", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verification passed" in out
        assert out.count("[PASS]") == 5
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert summary["passed"] is True
        assert summary["failing"] == []
        assert (tmp_path / "verify_scan.csv").exists()

    def test_theta_below_window_fails_contractivity(self, tmp_path, capsys):
        code = run(["verify", "--theta", "1.2", "--out", str(tmp_path),
                    "--grid", "40", "--probes", "20"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] contractivity-closed-form" in out
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert "contractivity-closed-form" in summary["failing"]

    def test_right_angle_inconclusive_witness(self, tmp_path, capsys):
        code = run(["verify", "--theta", str(math.pi / 2), "--out",
                    str(tmp_path), "--grid", "40", "--probes", "20"])
        capsys.readouterr()
        assert code == 1
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert summary["checks"]["divisibility"]["status"] == "inconclusive"
        assert "divisibility" in summary["failing"]

    def test_smooth_variant_passes(self, tmp_path, capsys):
        code = run(["verify", "--theta", "1.55", "--delta", "1.05", "--out",
                    str(tmp_path), "--grid", "40", "--probes", "20"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert "derivative-continuity" in summary["checks"]
        assert summary["checks"]["derivative-continuity"]["passed"] is True

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("theta = 1.45\n")
        code = run(["verify", "--config", str(cfg), "--out",
                    str(tmp_path / "out"), "--grid", "40", "--probes", "20"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads(
            (tmp_path / "out" / "verify_summary.json").read_text())
        assert summary["theta"] == 1.45

    @pytest.mark.parametrize("flag", ["--theta", "--delta"])
    def test_config_conflicts_with_explicit_parameter(self, tmp_path, capsys,
                                                      flag):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("theta = 1.45\n")
        code = run(["bounds", "--config", str(cfg), flag, "1.2", "--out",
                    str(tmp_path / "out")])
        assert "--config" in capsys.readouterr().err
        assert code == 2
        assert not (tmp_path / "out").exists()


class TestScan:
    def test_writes_outputs(self, tmp_path, capsys):
        code = run(["scan", "--out", str(tmp_path), "--grid", "30",
                    "--probes", "10"])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "scan.csv").exists()
        summary = json.loads((tmp_path / "scan_summary.json").read_text())
        assert summary["passed"] is True
        assert "note" not in summary

    def test_csv_deterministic_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["scan", "--out", str(out), "--grid", "20", "--probes", "5",
                 "--seed", "7"])
        capsys.readouterr()
        assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()

    def test_ancilla_scan_labelled_exploratory(self, tmp_path, capsys):
        run(["scan", "--k", "2", "--out", str(tmp_path), "--grid", "20",
             "--probes", "5"])
        capsys.readouterr()
        summary = json.loads((tmp_path / "scan_summary.json").read_text())
        assert summary["k"] == 2
        assert "exploratory" in summary["note"]


class TestDivisibility:
    def test_counterexample_verdicts(self, tmp_path, capsys):
        code = run(["divisibility", "--out", str(tmp_path), "--grid", "9"])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(
            (tmp_path / "divisibility_summary.json").read_text())
        assert summary["verdicts"]["not-CP"] >= 1
        assert summary["forcing_witness"]["status"] == "not-P-divisible"
        assert summary["forcing_witness"]["discrepancy"] == pytest.approx(
            2 * abs(math.cos(1.5)), abs=1e-8)
        assert "not-P-divisible" in out
        csv_lines = (tmp_path / "divisibility.csv").read_text().splitlines()
        assert csv_lines[0] == "s,t,definedness,residual,choi_min_eig,verdict"
        assert len(csv_lines) == 9  # header + 8 intervals

    def test_right_angle_inconclusive_witness(self, tmp_path, capsys):
        code = run(["divisibility", "--theta", str(math.pi / 2), "--out",
                    str(tmp_path), "--grid", "9"])
        out = capsys.readouterr().out
        assert code == 1
        summary = json.loads(
            (tmp_path / "divisibility_summary.json").read_text())
        assert summary["forcing_witness"]["status"] == "inconclusive"
        assert "witness: inconclusive" in out


class TestSweep:
    def test_window_partition(self, tmp_path, capsys):
        code = run(["sweep", "--out", str(tmp_path), "--theta-min", "1.3",
                    "--theta-max", "1.6", "--theta-step", "0.1"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert any(abs(v - 1.3) < 1e-9 for v in summary["violations"])
        assert any(abs(v - 1.5) < 1e-9 for v in summary["clean"])

    def test_violation_inside_window_exits_one(self, tmp_path, capsys,
                                               monkeypatch):
        sweep = contractivity.theta_window_sweep

        def flag_one_five(thetas, *grids):
            rows = sweep(thetas, *grids)
            for row in rows:
                row["violation"] |= abs(row["theta"] - 1.5) < 1e-9
            return rows

        monkeypatch.setattr(contractivity, "theta_window_sweep", flag_one_five)
        code = run(["sweep", "--out", str(tmp_path), "--theta-min", "1.3",
                    "--theta-max", "1.6", "--theta-step", "0.1"])
        assert "differ from the window" in capsys.readouterr().out
        assert code == 1


class TestBounds:
    def test_pass_at_default(self, tmp_path, capsys):
        code = run(["bounds", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pass" in out
        summary = json.loads((tmp_path / "bounds_summary.json").read_text())
        assert summary["chain_ok"] and summary["lambda_monotone"]

    def test_fail_below_window(self, tmp_path, capsys):
        code = run(["bounds", "--theta", "1.2", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 1
        summary = json.loads((tmp_path / "bounds_summary.json").read_text())
        assert summary["polynomial_nonpositive"] is False


    def test_right_angle_skips_singular_point(self, tmp_path, capsys):
        # at theta = pi/2 the tau = 1, lam = 1 grid point is the closed
        # form's singular point; it is skipped, not a crash
        code = run(["bounds", "--theta", str(math.pi / 2), "--out", str(tmp_path)])
        assert "pass" in capsys.readouterr().out
        assert code == 0
        summary = json.loads((tmp_path / "bounds_summary.json").read_text())
        assert summary["singular_points_skipped"] >= 1
        assert summary["chain_ok"] and summary["polynomial_nonpositive"]


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run(["verify", "--nope"]) == 2
        capsys.readouterr()

    def test_bad_rate_choice(self, capsys):
        assert run(["scan", "--rate", "exotic"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["verify", "--rate", "default-pole"],
        ["verify", "--k", "2"],
        ["scan", "--theta-min", "1.0"],
        ["divisibility", "--seed", "1"],
        ["divisibility", "--probes", "5"],
        ["divisibility", "--k", "2"],
        ["divisibility", "--slack", "1e-6"],
        ["sweep", "--seed", "1"],
        ["sweep", "--theta", "1.5"],
        ["sweep", "--config", "params.cfg"],
        ["bounds", "--grid", "5"],
        ["bounds", "--seed", "1"],
        ["bounds", "--probes", "5"],
        ["bounds", "--k", "2"],
        ["bounds", "--slack", "1e-6"],
    ], ids=" ".join)
    def test_flag_not_read_by_subcommand(self, argv, capsys):
        assert run(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["scan", "--grid", "0"],
        ["scan", "--grid", "1"],
        ["scan", "--probes", "0"],
        ["scan", "--k", "0"],
        ["verify", "--grid", "1"],
        ["verify", "--probes", "0"],
        ["divisibility", "--grid", "1"],
        ["sweep", "--theta-step", "0"],
        ["sweep", "--theta-step", "-0.1"],
        ["sweep", "--theta-step", "inf"],
        ["sweep", "--theta-min", "1.7", "--theta-max", "1.0"],
        ["scan", "--theta", "-1"],
        ["verify", "--delta", "0.5"],
        ["bounds", "--theta", "2.0"],
        ["sweep", "--theta-min", "nan"],
        ["scan", "--slack", "nan"],
        ["scan", "--slack", "-1"],
    ], ids=" ".join)
    def test_out_of_range_value(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestStrictJson:
    def test_every_summary_is_strict(self, tmp_path, capsys):
        runs = [
            ["verify", "--grid", "20", "--probes", "5"],
            ["verify", "--theta", "1.55", "--delta", "1.05", "--grid", "20",
             "--probes", "5"],
            ["scan", "--grid", "20", "--probes", "5"],
            ["scan", "--k", "2", "--grid", "20", "--probes", "5"],
            ["divisibility", "--grid", "9"],
            ["divisibility", "--theta", str(math.pi / 2), "--grid", "9"],
            ["sweep", "--theta-min", "1.3", "--theta-max", "1.6"],
            ["bounds"],
        ]
        for i, argv in enumerate(runs):
            out = tmp_path / str(i)
            run(argv + ["--out", str(out)])
            for path in out.glob("*_summary.json"):
                json.loads(path.read_text(), parse_constant=_reject_constant)
        capsys.readouterr()
        assert len(list(tmp_path.glob("*/*_summary.json"))) == len(runs)

    def test_exact_zero_derivative_gap_has_null_exponent(self, monkeypatch):
        ladder = cli.CONTINUITY_LADDER
        report = {name: {"eps": ladder, "gap": (1e-2, 1e-3, 1e-4),
                         "derivative_gap": (1e-3, 1e-5, 0.0)}
                  for name in ("t1", "t2", "t3")}
        monkeypatch.setattr(cli, "continuity_report",
                            lambda *args, **kwargs: report)
        result = cli.check_continuity(None, derivative=True)
        assert result["passed"] is True
        assert all(e["fitted_exponent"] is None for e in result["report"].values())
        json.dumps(result, allow_nan=False)
