import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmarkov
from qmarkov import cli, contractivity, qutrit_family
from qmarkov.cli import main
from qmarkov.qutrit_family import MapParams, family
from qmarkov.superops import choi_min_eigenvalue, tp_error
from qmarkov.tolerances import JUNCTION_GAP


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

    @pytest.mark.parametrize("text", ["theta = 1.5\ntheta = 1.2\n",
                                      "delta = 1.05\ndelta = 1.05\n"],
                             ids=["theta", "delta"])
    def test_config_key_repeated(self, text, tmp_path, capsys):
        """A repeated key is a usage error, not a silent override."""
        cfg = tmp_path / "params.cfg"
        cfg.write_text(text)
        assert run(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "repeated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_rate_key_is_unknown(self, tmp_path, capsys):
        """The family has one dephasing rate, so no config key names it."""
        cfg = tmp_path / "params.cfg"
        cfg.write_text("theta = 1.5\nrate = default-pole\n")
        assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "unknown config key 'rate'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


class TestCpTp:
    @pytest.mark.parametrize("points", [2, 200, 301])
    def test_matches_per_map_extremes(self, points):
        params = MapParams(theta=1.55, delta=1.05)
        maps = [family(params)(t) for t in np.linspace(0.0, params.t4, points)]
        result = cli.check_cp_tp(params, points)
        assert result["min_choi_eig"] == min(choi_min_eigenvalue(S) for S in maps)
        assert result["max_trace_error"] == max(tp_error(S) for S in maps)
        assert result["passed"] is True


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

    def test_verify_writes_the_same_scan(self, tmp_path, capsys, monkeypatch):
        """verify's contractivity check is the scan that scan runs: the two
        reports hold the same rows, byte for byte."""
        flags = ["--grid", "20", "--probes", "5", "--seed", "7"]
        reports, real = [], contractivity.norm_derivative_scan

        def spy(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(contractivity, "norm_derivative_scan", spy)
        run(["verify", "--out", str(tmp_path / "v")] + flags)
        run(["scan", "--out", str(tmp_path / "s")] + flags)
        capsys.readouterr()
        verify, scan = reports
        assert verify.rows.tobytes() == scan.rows.tobytes()

    @pytest.mark.parametrize("theta, fails", [("1.5", False), ("0.8", True)])
    def test_verify_csv_holds_the_verdict_rows(self, tmp_path, capsys, theta, fails):
        """verify_scan.csv has scan.csv's header and exactly its fail lines,
        or, where none fails, its worst line: the first maximum of rderiv."""
        flags = ["--theta", theta, "--grid", "20", "--probes", "5", "--seed", "7"]
        run(["verify", "--out", str(tmp_path / "v")] + flags)
        run(["scan", "--out", str(tmp_path / "s")] + flags)
        capsys.readouterr()
        header, *lines = (tmp_path / "s" / "scan.csv").read_bytes().split(b"\r\n")[:-1]
        expected = [line for line in lines if line.endswith(b",fail")]
        assert bool(expected) == fails
        if not fails:
            rderiv = [float(line.split(b",")[4]) for line in lines]
            expected = [lines[rderiv.index(max(rderiv))]]
        assert (tmp_path / "v" / "verify_scan.csv").read_bytes() == \
            b"".join(line + b"\r\n" for line in [header] + expected)

    def test_csv_deterministic_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["scan", "--out", str(out), "--grid", "20", "--probes", "5",
                 "--seed", "7"])
        capsys.readouterr()
        assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()

    @pytest.mark.parametrize("command", ["scan", "verify"])
    def test_nan_row_written_as_null(self, tmp_path, capsys, monkeypatch, command):
        """A NaN right derivative fails the run with exit 1, and the summary
        is strict JSON: max_rderiv is null and its location is the NaN row."""
        real = contractivity._norm_rderiv

        def one_nan(fam, chain, s, ts, k):
            norm, rderiv = real(fam, chain, s, ts, k)
            if 2.0 in ts:
                rderiv[list(ts).index(2.0), 1] = math.nan
            return norm, rderiv

        def refuse(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        monkeypatch.setattr(contractivity, "_norm_rderiv", one_nan)
        code = run([command, "--out", str(tmp_path), "--grid", "4", "--probes", "2"])
        capsys.readouterr()
        assert code == 1
        summary = json.loads((tmp_path / f"{command}_summary.json").read_text(),
                             parse_constant=refuse)
        if command == "scan":
            assert (summary["max_rderiv"], summary["argmax_t"],
                    summary["argmax_probe"]) == (None, 2.0, 1)
        else:
            check = summary["checks"]["contractivity"]
            assert (check["max_rderiv"], check["argmax_t"]) == (None, 2.0)
            # the NaN row is the one failing row, written as scan.csv writes it
            run(["scan", "--out", str(tmp_path / "s"), "--grid", "4", "--probes", "2"])
            capsys.readouterr()
            header, *lines = (tmp_path / "s" / "scan.csv").read_bytes().split(b"\r\n")[:-1]
            (nan_line,) = [line for line in lines if line.startswith(b"2,1,1,")]
            assert b",nan,fail" in nan_line
            assert (tmp_path / "verify_scan.csv").read_bytes() == \
                header + b"\r\n" + nan_line + b"\r\n"

    @pytest.mark.parametrize("command", ["scan", "verify"])
    @pytest.mark.parametrize("theta", ["1.5", "0.8"])
    def test_report_reads_each_fact_once(self, tmp_path, capsys, monkeypatch, command,
                                         theta):
        """One run takes the argmax of rderiv once and compares verdict once,
        however many facts its summary, its stdout line and its exit code
        state (θ = 0.8 fails on 9 rows of this grid, θ = 1.5 on none), and
        those facts are the rows' own: the first maximum of rderiv, its t
        and probe, and whether any row reads "fail"."""
        reads, reports, real = [], [], contractivity.norm_derivative_scan

        class Field(np.ndarray):
            """A field of the rows that logs an argmax or a ufunc call on it."""
            def __array_finalize__(self, obj):
                self.name = getattr(obj, "name", None)

            def argmax(self, *args, **kwargs):
                reads.append((self.name, "argmax"))
                return self.view(np.ndarray).argmax(*args, **kwargs)

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                reads.append((self.name, ufunc.__name__))
                inputs = [x.view(np.ndarray) if isinstance(x, Field) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        class Rows(np.recarray):
            def __getattribute__(self, attr):
                value = super().__getattribute__(attr)
                if attr in ("rderiv", "verdict"):
                    value = value.view(Field)
                    value.name = attr
                return value

        def spy(*args, **kwargs):
            report = real(*args, **kwargs)
            reports.append(dataclasses.replace(report, rows=report.rows.view(Rows)))
            return reports[-1]

        monkeypatch.setattr(contractivity, "norm_derivative_scan", spy)
        code = run([command, "--theta", theta, "--grid", "20", "--probes", "5", "--seed", "7",
                    "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert sorted(reads) == [("rderiv", "argmax"), ("verdict", "equal")]

        rows = reports[0].rows.view(np.recarray)
        rderiv = rows["rderiv"].tolist()
        worst = rderiv.index(max(rderiv))
        passed = "fail" not in rows["verdict"].tolist()
        assert passed == (theta == "1.5")
        facts = {"passed": passed, "max_rderiv": rderiv[worst], "argmax_t": rows["t"][worst]}
        summary = json.loads((tmp_path / f"{command}_summary.json").read_text())
        if command == "scan":
            assert code == (0 if passed else 1)
            assert summary == {**summary, **facts, "argmax_probe": rows["probe_id"][worst]}
            assert out == (f"max right-derivative {rderiv[worst]:.3e} at t={rows['t'][worst]}"
                           f" (probe {rows['probe_id'][worst]}); "
                           f"{'pass' if passed else 'fail'}\n")
        else:
            assert summary["checks"]["contractivity"] == facts

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
        assert csv_lines[0] == ("s,t,certificate,definedness,residual,choi_min_eig,tp_error,"
                                "verdict")
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
        ["sweep", "--theta-step", "1e-300"],  # numpy refuses the grid's size
        ["scan", "--theta", "-1"],
        ["verify", "--delta", "0.5"],
        ["bounds", "--theta", "2.0"],
        ["sweep", "--theta-min", "nan"],
        ["scan", "--slack", "nan"],
        ["scan", "--slack", "-1"],
        ["scan", "--seed", "-1"],
        ["verify", "--seed", "-1"],
    ], ids=" ".join)
    def test_out_of_range_value(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["verify", "scan", "divisibility", "bounds"])
    @pytest.mark.parametrize("t4", ["inf", "1e400"])
    def test_non_finite_junction_time(self, command, t4, tmp_path, capsys):
        cfg = tmp_path / "params.cfg"
        cfg.write_text(f"theta = 1.5\nt4 = {t4}\n")
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "t4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["scan", "divisibility"])
    def test_out_is_not_a_directory(self, command, under, tmp_path, capsys):
        """--out naming a file, or a path under one, is a usage error, and
        the file is left as it was."""
        path = tmp_path / "taken"
        path.write_bytes(b"kept\n")
        assert run([command, "--grid", "4", "--out", str(path / under)]) == 2
        err = capsys.readouterr().err
        assert "error: --out" in err and "Traceback" not in err
        assert path.read_bytes() == b"kept\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["taken"]


class TestOneParser:
    """main parses every call with the one parser build_parser makes on first
    use; no call's values or errors reach the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        first = ["scan", "--k", "2", "--theta", "1.6", "--probes", "5", "--grid", "8"]
        assert run(first + ["--out", str(tmp_path / "first")]) in (0, 1)
        assert run(["scan", "--probes", "5", "--grid", "8", "--out", str(tmp_path / "second")]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "second" / "scan_summary.json").read_text())
        assert summary["k"] == 1 and summary["theta"] == 1.5
        assert "note" not in summary

    def test_usage_error_then_a_call_reads_as_a_fresh_process(self, tmp_path, capsys):
        argv = ["scan", "--probes", "20", "--grid", "40"]
        assert run(["scan", "--slack", "1", "--out", str(tmp_path / "refused")]) == 2
        assert "--slack" in capsys.readouterr().err
        assert run(argv + ["--out", str(tmp_path / "here")]) == 0
        here = capsys.readouterr().out
        src = str(Path(qmarkov.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from qmarkov.cli import main; sys.exit(main())",
             *argv, "--out", str(tmp_path / "fresh")],
            env=env, capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0 and fresh.stdout == here
        assert not (tmp_path / "refused").exists()
        assert ((tmp_path / "here" / "scan.csv").read_bytes()
                == (tmp_path / "fresh" / "scan.csv").read_bytes())
        summaries = [json.loads((tmp_path / side / "scan_summary.json").read_text())
                     for side in ("here", "fresh")]
        for summary in summaries:
            del summary["generated_at"]
        assert summaries[0] == summaries[1]


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

    def test_derivative_continuity_report_is_strict(self):
        result = cli.check_continuity(MapParams(delta=1.05), derivative=True)
        assert result["passed"] is True
        json.dumps(result, allow_nan=False)


# The key paths, dotted, of each summary that bench/oracle.py reads.
ORACLE_KEYS = {
    "verify": ("passed", "failing", "theta", "checks.cp-tp.min_choi_eig",
               "checks.cp-tp.max_trace_error", "checks.divisibility.status",
               "checks.divisibility.discrepancy", "checks.contractivity.passed",
               "checks.contractivity.max_rderiv", "checks.contractivity.argmax_t",
               "checks.contractivity-closed-form.max_closed_form_derivative"),
    "scan": ("passed", "slack", "k", "max_rderiv", "argmax_t", "argmax_probe"),
    "divisibility": ("intervals", "verdicts", "forcing_witness.status",
                     "forcing_witness.discrepancy"),
    "sweep": ("violations", "clean"),
    "bounds": ("passed", "chain_ok", "polynomial_nonpositive"),
}


class TestResultPath:
    """Every subcommand's summary reaches main, which alone writes it as
    <command>_summary.json and exits on its boolean ``passed``: one passing
    and one failing run of each."""

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--grid", "20", "--probes", "5"], 0),
        (["verify", "--theta", "1.6", "--grid", "20", "--probes", "5"], 1),
        (["scan", "--grid", "20", "--probes", "5"], 0),
        (["scan", "--k", "2", "--grid", "20", "--probes", "20"], 1),
        (["divisibility", "--grid", "9"], 0),
        (["divisibility", "--theta", str(math.pi / 2), "--grid", "9"], 1),
        (["sweep", "--theta-min", "1.4", "--theta-max", "1.6"], 0),
        (["sweep", "--theta-min", "1.414", "--theta-max", "1.4143", "--theta-step", "1e-4"], 1),
        (["bounds"], 0),
        (["bounds", "--theta", "1.3"], 1),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
    def test_summary_decides_exit_code(self, argv, code, tmp_path, capsys, monkeypatch):
        written, write = [], cli._write_json
        monkeypatch.setattr(cli, "_write_json",
                            lambda path, payload: (written.append(path), write(path, payload)))
        assert run(argv + ["--out", str(tmp_path)]) == code
        capsys.readouterr()
        assert written == [tmp_path / f"{argv[0]}_summary.json"]
        summary = json.loads(written[0].read_text())
        assert summary["command"] == argv[0]
        assert summary["passed"] is (code == 0)
        for path in ORACLE_KEYS[argv[0]]:
            value = summary
            for key in path.split("."):
                assert key in value, path
                value = value[key]


class TestMapContinuity:
    """The junction check compares the exact one-sided values of Lambda_t."""

    @pytest.mark.parametrize("params", [
        MapParams(), MapParams(delta=1.05), MapParams(delta=110.0),
        MapParams(t1=0.7, t2=1.9, t3=2.3, t4=5.1),
        MapParams(delta=1.05, t1=0.7, t2=1.9, t3=2.3, t4=5.1),
        MapParams(delta=110.0, t1=0.7, t2=1.9, t3=2.3, t4=5.1)],
        ids=["delta=1", "delta=1.05", "delta=110", "t=0.7/1.9/2.3/5.1, delta=1",
             "t=0.7/1.9/2.3/5.1, delta=1.05", "t=0.7/1.9/2.3/5.1, delta=110"])
    def test_gaps_are_exactly_zero(self, params):
        result = cli.check_continuity(params)
        assert result["passed"] is True
        assert [e["gap"] for e in result["report"].values()] == [0.0] * 3
        assert [e["t"] for e in result["report"].values()] == [params.t1, params.t2, params.t3]

    def test_jump_in_a_stage_weight_fails(self, monkeypatch):
        # stage 3's weight w times (1 - 1e-9): at tau = 0 it starts 5e-10 off
        # E2 E1, where stage 2 ends, and at tau = 1 it still reaches E3 E2 E1;
        # the epsilon ladder of continuity_report still shrinks below 1e-3
        weights = qutrit_family._weights
        monkeypatch.setattr(qutrit_family, "_weights", lambda i, taus, dot: (
            weights(i, taus, dot) * (1.0 - 1e-9 if i == 3 else 1.0)))
        result = cli.check_continuity(MapParams())
        assert result["passed"] is False
        assert result["report"]["t1"]["gap"] == 0.0
        assert result["report"]["t2"]["gap"] > JUNCTION_GAP
        assert result["report"]["t3"]["gap"] == 0.0
        ladder = qutrit_family.continuity_report()["t2"]["gap"]
        assert ladder == tuple(sorted(ladder, reverse=True)) and ladder[-1] < 1e-3

    def test_verify_passes_at_large_delta(self, tmp_path, capsys):
        # the epsilon ladder's t3 rungs underflow to 0.0 here
        code = run(["verify", "--delta", "110", "--out", str(tmp_path),
                    "--grid", "40", "--probes", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] continuity" in out


class TestDerivativeContinuity:
    """The junction check compares the one-sided derivatives themselves."""

    @pytest.mark.parametrize("delta", [1.01, 1.02, 1.05])
    def test_smooth_variant_gaps_are_exactly_zero(self, delta):
        result = cli.check_continuity(MapParams(delta=delta), derivative=True)
        assert result["passed"] is True
        assert [e["gap"] for e in result["report"].values()] == [0.0] * 3

    def test_kink_at_t3_without_smoothing(self):
        result = cli.check_continuity(MapParams(), derivative=True)
        assert result["passed"] is False
        gaps = {name: e["gap"] for name, e in result["report"].items()}
        assert gaps == {"t1": 0.0, "t2": 0.0, "t3": 0.75}

    @pytest.mark.parametrize("delta", ["1.01", "1.02"])
    def test_verify_passes_just_above_delta_1(self, delta, tmp_path, capsys):
        code = run(["verify", "--delta", delta, "--out", str(tmp_path),
                    "--grid", "40", "--probes", "20"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert summary["checks"]["derivative-continuity"]["passed"] is True


def _module_members(kind):
    """Every object passing ``kind`` (inspect.isfunction, inspect.isclass)
    that is defined at the top of a ``qmarkov`` module, the module-private
    ones included."""
    return {obj for info in pkgutil.iter_modules(qmarkov.__path__)
            for obj in vars(importlib.import_module(f"qmarkov.{info.name}")).values()
            if kind(obj) and obj.__module__.startswith("qmarkov.")}


def _public_functions():
    """Every public function of every ``qmarkov`` module, and the public
    methods of their classes."""
    found = set(_module_members(inspect.isfunction))
    for cls in _module_members(inspect.isclass):
        found.update(fn for _, fn in inspect.getmembers(cls, inspect.isfunction))
    return {fn for fn in found
            if fn.__module__.startswith("qmarkov.") and not fn.__name__.startswith("_")}


def _constructor_names(cls):
    """The parameters of ``cls.__init__`` and, for a dataclass, its fields."""
    names = set(inspect.signature(cls.__init__).parameters)
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return names


KNOB = r"tol|cutoff|slack|tol_.*"


def _knobs(functions):
    return {f"{fn.__module__}.{fn.__qualname__}({name})"
            for fn in functions for name in inspect.signature(fn).parameters
            if re.fullmatch(KNOB, name)}


class TestNoThresholdKnob:
    """Verdict thresholds live in ``tolerances`` and are read by name: no
    function parameter, constructor field or flag can set one."""

    def test_no_tolerance_parameter(self):
        functions = _public_functions()
        # every module that defines a public function is walked, not only
        # those ``qmarkov.__all__`` reaches
        assert {fn.__module__ for fn in functions} == {
            f"qmarkov.{name}" for name in ("cli", "contractivity", "divisibility", "operators",
                                           "qutrit_family", "superops", "tables")}
        knobs = _knobs(functions)
        # kept: the acceptance test sets it
        assert knobs == {"qmarkov.contractivity.lambda_reflection_check(tol)"}
        assert _knobs(_module_members(inspect.isfunction)) == knobs
        assert not [flag for flag in cli.FLAGS if re.search(r"tol|cutoff|slack", flag)]

    def test_no_tolerance_field(self):
        """No class of the package takes a threshold in its constructor or
        keeps one as a dataclass field."""
        classes = _module_members(inspect.isclass)
        assert {cls.__name__ for cls in classes} >= {"ScanReport", "MapParams", "ProbeSet"}
        fields = {f"{cls.__module__}.{cls.__qualname__}({name})" for cls in classes
                  for name in _constructor_names(cls) if re.fullmatch(KNOB, name)}
        assert fields == set()

    @pytest.mark.parametrize("argv", [["verify", "--slack", "1e-6"],
                                      ["scan", "--slack", "1"]], ids=" ".join)
    def test_slack_flag_is_rejected(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "--slack" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_package_exports():
    """``qmarkov.__all__`` names what the command line, the benchmark, the
    acceptance test or the README use, and no module object."""
    assert qmarkov.__all__ == [
        "ScanReport", "bound_chain_check", "gamma4_derivative_closed_form",
        "lambda_reflection_check", "norm_derivative_scan", "theta_window_sweep",
        "cp_divisibility_scan", "intermediate_map", "positive_forcing_witness",
        "ProbeSet", "random_probes", "trace_norm",
        "MapParams", "continuity_report", "family", "gamma_family", "lambda_t",
        "load_params", "make_E",
        "SuperOp", "apply_to_extended", "from_kraus", "image_rank",
        "is_image_nonincreasing", "superop_from_action", "to_choi",
    ]
