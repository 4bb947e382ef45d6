"""Every CSV qmarkov writes, byte for byte against a ``csv.writer`` reference
with ``f"{v:.15g}"`` float fields (``.12g`` for the scan's t), on values that
stress the formatting: signed zeros, infinities, NaN, subnormals and +-1e300,
and on row counts on both sides of a CSV_ROWS batch."""

import csv
import io
import math

import numpy as np
import pytest

from qmarkov import cli, contractivity, divisibility
from qmarkov.contractivity import CSV_ROWS, ScanReport, norm_derivative_scan
from qmarkov.operators import random_probes
from qmarkov.qutrit_family import family

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308 / 3, 1e300, -1e300, 1 / 3, -2.5e-7,
           123456789012345678.0, 1.0]


def _reference(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


def _g15(v) -> str:
    return f"{v:.15g}"


def _flag(v) -> str:
    return str(bool(v)).lower()


def _scan_reference(report: ScanReport) -> bytes:
    return _reference(report.rows.dtype.names,
                      [[f"{r.t:.12g}", int(r.probe_id), int(r.k), _g15(r.norm),
                        _g15(r.rderiv), str(r.verdict)] for r in report.rows])


def _synthetic_report(points: int, probes: int, k: int = 1) -> ScanReport:
    """A report whose t, norm and rderiv columns cycle through SPECIAL."""
    n = points * probes
    cycle = np.resize(np.array(SPECIAL), n + 3)
    t = np.tile(np.resize(np.array(SPECIAL), points), probes)
    rows = np.rec.fromarrays(
        [t, np.repeat(np.arange(probes), points), np.full(n, k), cycle[:n],
         cycle[3:], np.where(cycle[3:] > 0, "fail", "ok")],
        names=("t", "probe_id", "k", "norm", "rderiv", "verdict"))
    return ScanReport(rows=rows, seed=0)


class TestScanWriter:
    # (points, probes): one row, one short batch, exactly one batch, one row
    # past it, a few batches, and point counts that do not divide CSV_ROWS
    @pytest.mark.parametrize("points,probes", [(1, 1), (14, 3), (8, CSV_ROWS // 8),
                                               (1, CSV_ROWS + 1), (8, 2049),
                                               (3, 5462), (7, 2341)])
    def test_special_values(self, tmp_path, points, probes):
        report = _synthetic_report(points, probes, k=2)
        report.to_csv(tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_bytes() == _scan_reference(report)

    @pytest.mark.parametrize("points,probes", [(8, 2049), (7, 2341)])
    def test_real_scan_across_a_batch(self, tmp_path, points, probes):
        assert points * probes > CSV_ROWS
        grid = np.linspace(0.0, 4.0, points, endpoint=False)
        report = norm_derivative_scan(family(), random_probes(3, probes, 20210907), grid)
        report.to_csv(tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_bytes() == _scan_reference(report)


def test_divisibility_writer(tmp_path, monkeypatch):
    kinds = ["exact", "image-restricted", "inconsistent"]
    verdicts = ["CP", "not-CP", "undefined-off-image"]
    n = len(SPECIAL)
    header = ["s", "t", "definedness", "residual", "choi_min_eig", "verdict"]
    rows = np.rec.fromarrays(
        [SPECIAL, SPECIAL[::-1], np.resize(kinds, n), np.roll(SPECIAL, -4),
         np.roll(SPECIAL, -7), np.resize(verdicts, n)], names=header)
    monkeypatch.setattr(divisibility, "cp_divisibility_scan", lambda fam, grid: rows)
    cli.main(["divisibility", "--grid", "5", "--out", str(tmp_path)])
    expected = _reference(header, [[_g15(r.s), _g15(r.t), r.definedness,
                                    _g15(r.residual), _g15(r.choi_min_eig),
                                    r.verdict] for r in rows])
    assert (tmp_path / "divisibility.csv").read_bytes() == expected


def test_sweep_writer(tmp_path, monkeypatch):
    # theta stays finite: the summary lists the thetas in strict JSON
    thetas = [v for v in SPECIAL if math.isfinite(v)]
    n = len(thetas)
    rows = np.rec.fromarrays(
        [thetas, np.roll(SPECIAL, -2)[:n], np.roll(SPECIAL, -5)[:n],
         np.roll(SPECIAL, -9)[:n], np.arange(n) % 2 == 0, np.zeros(n, dtype=int)],
        names=("theta", "max_deriv", "arg_lambda", "arg_tau", "violation",
               "singular_points_skipped"))
    monkeypatch.setattr(contractivity, "theta_window_sweep", lambda *grids: rows)
    cli.main(["sweep", "--out", str(tmp_path)])
    header = ["theta", "max_deriv", "arg_lambda", "arg_tau", "violation"]
    expected = _reference(header, [[_g15(r.theta), _g15(r.max_deriv),
                                    _g15(r.arg_lambda), _g15(r.arg_tau),
                                    _flag(r.violation)] for r in rows])
    assert (tmp_path / "sweep.csv").read_bytes() == expected


def test_bounds_writer(tmp_path, monkeypatch):
    real = contractivity.bound_chain_check(1.5, [0.5])
    names = real["rows"].dtype.names
    n = len(SPECIAL)
    columns = [np.roll(SPECIAL, i) if real["rows"][name].dtype.kind == "f"
               else np.arange(n) % (i + 2) == 0 for i, name in enumerate(names)]
    fake = dict(real, rows=np.rec.fromarrays(columns, names=names))
    monkeypatch.setattr(contractivity, "bound_chain_check", lambda theta, tau: fake)
    cli.main(["bounds", "--out", str(tmp_path)])
    expected = _reference(names, [[_g15(v) if isinstance(v, float) else _flag(v)
                                   for v in row] for row in fake["rows"].tolist()])
    assert (tmp_path / "bounds.csv").read_bytes() == expected


@pytest.mark.parametrize("total", [0, 1, CSV_ROWS - 1, CSV_ROWS, CSV_ROWS + 1,
                                   2 * CSV_ROWS + 5])
def test_write_csv_batches(tmp_path, total):
    """Lists and arrays mixed, across batch edges."""
    values = np.resize(np.array(SPECIAL), total)
    labels = [f"r{i}" for i in range(total)]
    contractivity.write_csv(tmp_path / "x.csv", ("a", "b", "c"), "%.15g,%s,%d",
                            [values, labels, np.arange(total)])
    expected = _reference(["a", "b", "c"], [[_g15(v), s, i] for i, (v, s)
                                            in enumerate(zip(values.tolist(), labels))])
    assert (tmp_path / "x.csv").read_bytes() == expected
