"""Every CSV qmarkov writes, byte for byte against a ``csv.writer`` reference
with ``f"{v:.15g}"`` float fields (``.12g`` for the scan's t), on values that
stress the formatting: signed zeros, infinities, NaN, subnormals and +-1e300,
on row counts on both sides of a CSV_ROWS batch, and on any float64 bit
pattern.  No encoder step may raise a numpy RuntimeWarning."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov import cli, contractivity, divisibility
from qmarkov.contractivity import CSV_ROWS, ScanReport, norm_derivative_scan
from qmarkov.operators import random_probes
from qmarkov.qutrit_family import family

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
    contractivity.write_csv(tmp_path / "x.csv", ("a", "b", "c"),
                            [values, labels, np.arange(total)])
    expected = _reference(["a", "b", "c"], [[_g15(v), s, i] for i, (v, s)
                                            in enumerate(zip(values.tolist(), labels))])
    assert (tmp_path / "x.csv").read_bytes() == expected


def _encoded(tmp_path, values) -> tuple:
    """The %.15g fields ``write_csv`` writes for ``values`` and the %.12g t
    fields ``ScanReport.to_csv`` writes for them, one probe with ``values``
    as its grid."""
    n = len(values)
    contractivity.write_csv(tmp_path / "x.csv", ("x",), [values])
    rows = np.rec.fromarrays(
        [values, np.zeros(n, dtype=int), np.ones(n, dtype=int), np.zeros(n),
         np.zeros(n), np.full(n, "ok")],
        names=("t", "probe_id", "k", "norm", "rderiv", "verdict"))
    ScanReport(rows=rows, seed=0).to_csv(tmp_path / "scan.csv")
    lines = [(tmp_path / name).read_bytes().decode().split("\r\n")[1:-1]
             for name in ("x.csv", "scan.csv")]
    return lines[0], [line.split(",")[0] for line in lines[1]]


_BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(_BIT_PATTERNS, st.floats(-1e15, 1e15)),
                       min_size=1, max_size=64))
def test_float_fields_match_python(tmp_path_factory, values):
    """Any bit pattern (both signs, subnormals, NaN payloads and +-inf), and
    values in the encoder's exact range, which few bit patterns reach."""
    values = np.array(values, dtype=np.float64)
    g15, g12 = _encoded(tmp_path_factory.mktemp("bits"), values)
    assert g15 == [format(v, ".15g") for v in values.tolist()]
    assert g12 == [format(v, ".12g") for v in values.tolist()]


def test_log_uniform_fields_match_python(tmp_path):
    """20,000 magnitudes log-uniform over 1e-31 .. 1e15, across the exact
    range's edges: at 15 digits about 1 % of them round differently when the
    second scale factor's product error is dropped."""
    rng = np.random.default_rng(20210907)
    values = 10.0 ** rng.uniform(-31, 15, 20000) * rng.choice([-1.0, 1.0], 20000)
    g15, g12 = _encoded(tmp_path, values)
    assert g15 == [format(v, ".15g") for v in values.tolist()]
    assert g12 == [format(v, ".12g") for v in values.tolist()]


# (value, its %.15g text, whether Python's formatter writes it)
PINNED = [(12345678901234.25, "12345678901234.2", True),  # exact ties, half to even
          (12345678901234.75, "12345678901234.8", True),
          (9.9999999999999995e-5, "0.0001", False),  # carries across the switch
          (99999999999999.95, "100000000000000", False),
          (999999999999999.5, "1e+15", True),
          (5e-324, "4.94065645841247e-324", True),
          (1e-30, "1e-30", False),
          (-0.0, "-0", False)]


@pytest.mark.parametrize("value,text,python", PINNED, ids=[p[1] for p in PINNED])
def test_pinned_float_fields(tmp_path, monkeypatch, value, text, python):
    formatted = []

    def spy(v, spec):
        formatted.append((v, spec))
        return format(v, spec)

    monkeypatch.setattr(contractivity, "format", spy, raising=False)
    g15, g12 = _encoded(tmp_path, np.array([value]))
    assert g15 == [text] == [format(value, ".15g")]
    assert g12 == [format(value, ".12g")]
    assert ((value, ".15g") in formatted) == python


def test_empty_table_writes_the_header(tmp_path):
    rows = np.rec.fromarrays([np.empty(0), np.empty(0, dtype=bool), np.empty(0, dtype="<U4")],
                             names=("a", "b", "c"))
    cli._write_rows(tmp_path / "x.csv", rows)
    assert (tmp_path / "x.csv").read_bytes() == b"a,b,c\r\n"


@pytest.mark.parametrize("column,error", [(["caf\u00e9"], ValueError),
                                          ([1j], TypeError)])
def test_unencodable_columns_are_refused(tmp_path, column, error):
    with pytest.raises(error):
        contractivity.write_csv(tmp_path / "x.csv", ("x",), [column])
