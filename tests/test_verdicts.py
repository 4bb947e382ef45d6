"""The verdicts of the paper's mathematics as a truth table, one cell per
invocation, run in process through ``qmarkov.cli.main``.

A cell the code gets right today is a plain assert, so a regression fails
it.  A cell the code gets wrong today is marked
``xfail(strict=True, reason=<ROADMAP item that fixes it>)``: tier-1 reports
it as xfailed, and a fix, planned or not, fails tier-1 until the PR that
makes it removes the marker.  A wrong verdict found later gets a new
strict-xfail cell here.
"""

import csv
import json
import math

import numpy as np
import pytest

from qmarkov import contractivity
from qmarkov.cli import main
from qmarkov.operators import ProbeSet
from qmarkov.qutrit_family import MapParams, family

JUNCTIONS = MapParams()  # t1, t2, t3, t4 of the default family
# The TOL_DERIV comment's bound on rounding and the kernel over-read.
ROUNDING = 1e-11


def wrong_today(item: str):
    return pytest.mark.xfail(strict=True, reason=item, raises=AssertionError)


def run(argv, out):
    """(exit code, summary) of one in-process invocation writing into ``out``."""
    code = main(argv + ["--out", str(out)])
    (path,) = out.glob("*_summary.json")
    return code, json.loads(path.read_text())


def rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("argv, code", [
    pytest.param(["verify", "--theta", str(math.sqrt(2))], 0, id="verify-sqrt2"),
    pytest.param(["verify"], 0, id="verify-1.5"),
    # the forcing witness reads 2|cos(pi/2)|, rounding, and is inconclusive
    pytest.param(["verify", "--theta", str(math.pi / 2)], 0, id="verify-pi/2",
                 marks=wrong_today("item 10")),
    pytest.param(["verify", "--theta", "1.6"], 1, id="verify-1.6"),
    # 1.4142 < sqrt(2), and |0><0| - |1><1| grows just after t3
    pytest.param(["verify", "--theta", "1.4142"], 1, id="verify-1.4142",
                 marks=wrong_today("item 17")),
    pytest.param(["scan", "--theta", "1.6", "--grid", "1000"], 1, id="scan-1.6-grid1000"),
    # the backflow outside the window shows only near t4, which the
    # default grid stops short of
    *(pytest.param(["scan", "--theta", theta], 1, id=f"scan-{theta}",
                   marks=wrong_today("item 6")) for theta in ("1.6", "1.58", "1.5708")),
    pytest.param(["divisibility"], 0, id="divisibility-1.5"),
])
def test_exit_code(argv, code, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == code


@wrong_today("item 6")
def test_verify_scan_fails_outside_the_window(tmp_path, capsys):
    # verify exits 1 at theta = 1.6, but on its closed-form check alone
    _, summary = run(["verify", "--theta", "1.6"], tmp_path)
    assert not summary["checks"]["contractivity"]["passed"]


def test_ancilla_scan_finds_stage4_backflow(tmp_path, capsys):
    code, summary = run(["scan", "--k", "2", "--probes", "500", "--grid", "40",
                         "--seed", "1"], tmp_path)
    assert code == 1
    assert summary["max_rderiv"] == pytest.approx(2.5e-2, rel=0.05)
    assert summary["argmax_t"] > JUNCTIONS.t3


@wrong_today("item 17")
def test_sweep_clean_thetas_are_the_window(tmp_path, capsys):
    # of the sweep's 1.414, 1.4141, 1.4142 and 1.4143 only the last lies in
    # the window, and the mesh reads 1.4142 clean too
    code, summary = run(["sweep", "--theta-min", "1.414", "--theta-max", "1.4143",
                         "--theta-step", "1e-4"], tmp_path)
    assert summary["clean"] == [1.4143]
    assert code == 0


@pytest.fixture(scope="module")
def divisibility_rows(tmp_path_factory):
    """divisibility.csv at the defaults, its s and t as floats."""
    out = tmp_path_factory.mktemp("divisibility")
    main(["divisibility", "--out", str(out)])
    return [{**row, "s": float(row["s"]), "t": float(row["t"])}
            for row in rows(out / "divisibility.csv")]


def test_stages_1_2_intervals_are_cp(divisibility_rows):
    labels = {row["verdict"] for row in divisibility_rows if row["t"] <= JUNCTIONS.t2}
    assert labels == {"CP"}


def test_stage3_intervals_are_cp(divisibility_rows):
    # a CPTP intermediate map exists on every interval of [0, t3]
    labels = {row["verdict"] for row in divisibility_rows
              if JUNCTIONS.t2 <= row["s"] and row["t"] <= JUNCTIONS.t3}
    assert labels == {"CP"}


def test_fine_divisibility_is_cp_by_closed_form_up_to_t3(tmp_path, capsys):
    # every interval that ends by t3 has its CPTP intermediate map in
    # closed form
    code, _ = run(["divisibility", "--grid", "1000"], tmp_path)
    early = [(row["verdict"], row["certificate"]) for row in rows(tmp_path / "divisibility.csv")
             if float(row["t"]) <= JUNCTIONS.t3]
    assert code == 0 and len(early) == 749
    assert set(early) == {("CP", "closed-form")}


def test_coarse_divisibility_is_cp_by_closed_form(tmp_path, capsys):
    # on [0, 2, 4] Lambda_2 = E2 E1, so Lambda_4 is itself a CPTP
    # intermediate map on (2, 4), as Lambda_2 is on (0, 2)
    code, summary = run(["divisibility", "--grid", "3"], tmp_path)
    cells = [(row["verdict"], row["certificate"], float(row["tp_error"]))
             for row in rows(tmp_path / "divisibility.csv")]
    assert code == 0 and cells == [("CP", "closed-form", 0.0)] * 2
    assert summary["certificates"] == {"closed-form": 2, "completion": 0}


@wrong_today("items 3, 10")
def test_stage4_intervals_are_not_p(divisibility_rows):
    # no positive TP intermediate map exists on any stage-4 interval
    labels = {row["verdict"] for row in divisibility_rows if row["s"] >= JUNCTIONS.t3}
    assert labels == {"not-P"}


@wrong_today("item 19")
def test_state_difference_grows_below_the_window():
    # at theta = 1.4142 the norm of |0><0| - |1><1| grows by about 5e-8 a
    # unit of t just after t3, below TOL_DERIV
    params = MapParams(theta=1.4142)
    grid = np.linspace(params.t3, params.t3 + 0.004, 9)[1:]
    probe = ProbeSet(np.diag([1.0, -1.0, 0.0])[None], seed=0)
    assert not contractivity.norm_derivative_scan(family(params), probe, grid).passed


@wrong_today("item 19")
def test_fine_scan_reads_rounding_before_t3(tmp_path, capsys):
    # Lambda_t is CP-divisible on [0, t3]; the stage-2 rows near t = 1.968
    # read about 1.4e-10
    run(["scan", "--probes", "2", "--grid", "1000", "--seed", "1"], tmp_path)
    rderiv = [float(row["rderiv"]) for row in rows(tmp_path / "scan.csv")
              if float(row["t"]) < JUNCTIONS.t3]
    assert max(rderiv) <= ROUNDING
