"""Property tests of the algebraic identities behind the family and Choi code,
and of the array-expression grid checks against the loops they replaced."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qmarkov
from qmarkov import contractivity
from qmarkov.contractivity import (_chain_applies, _norm_rderiv, bound_chain_check,
                                   gamma4_derivative_closed_form,
                                   norm_derivative_scan, theta_window_sweep)
from qmarkov.operators import OperandError, random_probes
from qmarkov.qutrit_family import (D1, D2, D3, E1, E2, E2_E1, E3, E3_E2_E1, K2,
                                   MapParams, _stages, family, gamma_family,
                                   lambda_t, make_E)
from qmarkov.superops import (SuperOp, choi_min_eigenvalue, compose, from_kraus, to_choi,
                              tp_error)
from qmarkov.tolerances import TOL_CLOSED_FORM, TOL_DERIV, TOL_PSD

from oracles import right_derivative

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def _choi_by_definition(S: SuperOp) -> np.ndarray:
    """sum_ij S(|i><j|) kron |i><j|, one matrix unit at a time."""
    d = S.dim
    C = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            C += np.kron(S.apply(unit), unit)
    return C


def _superop_matrices(d: int):
    entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                 allow_infinity=False)
    return arrays(np.complex128, (d * d, d * d), elements=entries)


@PROPERTY_SETTINGS
@given(st.sampled_from([2, 3]).flatmap(
    lambda d: _superop_matrices(d).map(SuperOp)))
def test_choi_reshuffle_matches_definition(S):
    assert np.array_equal(to_choi(S), _choi_by_definition(S))


def _ket_bra(a: int, b: int) -> np.ndarray:
    m = np.zeros((3, 3))
    m[a, b] = 1.0
    return m


# E1..E3 from their Kraus operators; E3 sends X to x00 rho_A + x11 rho_B.
KRAUS_E1 = from_kraus([np.eye(3) / 2, D1 / 2, D2 / 2, D3 / 2])
KRAUS_E2 = from_kraus([K2])
KRAUS_E3 = from_kraus([_ket_bra(a, b) / math.sqrt(2)
                       for a, b in ((0, 0), (2, 0), (1, 1), (2, 1))])


@st.composite
def family_points(draw):
    steps = [draw(st.floats(0.1, 2.0)) for _ in range(4)]
    t1, t2, t3, t4 = np.cumsum(steps)
    params = MapParams(theta=draw(st.floats(math.sqrt(2.0), math.pi / 2)),
                       t1=t1, t2=t2, t3=t3, t4=t4,
                       delta=draw(st.floats(1.0, 1.2)))
    return params, draw(st.floats(0.0, 1.0)) * t4


@PROPERTY_SETTINGS
@given(family_points())
def test_lambda_t_is_stage_composition(point):
    p, t = point
    if t < p.t1:
        expected = gamma_family(1, t / p.t1, p)
    elif t < p.t2:
        expected = compose(gamma_family(2, (t - p.t1) / (p.t2 - p.t1), p),
                           KRAUS_E1)
    elif t < p.t3:
        expected = compose(gamma_family(3, (t - p.t2) / (p.t3 - p.t2), p),
                           compose(KRAUS_E2, KRAUS_E1))
    else:
        expected = compose(gamma_family(4, (t - p.t3) / (p.t4 - p.t3), p),
                           compose(KRAUS_E3, compose(KRAUS_E2, KRAUS_E1)))
    S = lambda_t(t, p)
    assert np.allclose(S.matrix, expected.matrix, rtol=0.0, atol=1e-12)
    assert choi_min_eigenvalue(S) >= -TOL_PSD and tp_error(S) <= TOL_PSD


UNEQUAL = dict(theta=1.55, t1=0.7, t2=1.9, t3=2.5, t4=4.2)


# Every stage at its start and inside, except stage 4 at tau = 0 for delta > 1,
# where s = tau^delta leaves no difference quotient that converges fast
# enough; the next test pins that point.
@pytest.mark.parametrize("stage,tau,delta", [
    (stage, tau, delta) for stage in (1, 2, 3, 4) for tau in (0.0, 0.35, 0.8)
    for delta in (1.0, 1.05) if (stage, tau) != (4, 0.0) or delta == 1.0])
def test_lambda_t_dot_matches_right_derivative(stage, tau, delta):
    p = MapParams(delta=delta, **UNEQUAL)
    starts = (0.0, p.t1, p.t2, p.t3, p.t4)
    t = starts[stage - 1] + tau * (starts[stage] - starts[stage - 1])
    exact = family(p).dot_stack([t])[0]
    for idx in np.ndindex(exact.shape):
        for part in (np.real, np.imag):
            oracle = right_derivative(lambda s: part(lambda_t(s, p).matrix[idx]), t)
            assert part(exact[idx]) == pytest.approx(oracle, abs=1e-7)


def test_lambda_t_dot_vanishes_at_third_junction_when_smoothed():
    assert not np.any(family(MapParams(delta=1.05, **UNEQUAL)).dot_stack([UNEQUAL["t3"]])[0])
    assert np.any(family(MapParams(delta=1.0, **UNEQUAL)).dot_stack([UNEQUAL["t3"]])[0])


@pytest.mark.parametrize("i", [1, 2, 3])
def test_elementary_maps_are_read_only(i):
    with pytest.raises(ValueError):
        make_E(i).matrix[0, 0] = 2.0


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal in every bit that a comparison can see, signed zeros included."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


@st.composite
def family_grids(draw):
    """Unequal junction times and a shuffled grid holding t1..t4 exactly, 0,
    and points drawn anywhere in [0, t4]."""
    steps = [draw(st.floats(0.1, 2.0)) for _ in range(4)]
    t1, t2, t3, t4 = np.cumsum(steps).tolist()
    params = MapParams(theta=draw(st.sampled_from([1.3, 1.5, math.pi / 2])),
                       t1=t1, t2=t2, t3=t3, t4=t4,
                       delta=draw(st.sampled_from([1.0, 1.05, 2.0])))
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=70))
    grid = [0.0, t1, t2, t3, t4] + [u * t4 for u in inner]
    return params, draw(st.permutations(grid))


@PROPERTY_SETTINGS
@given(family_grids())
@example((MapParams(), list(np.linspace(0.0, 4.0, 200))))
@example((MapParams(delta=1.05), list(np.linspace(3.0, 4.0, 401))))
def test_stack_is_one_point_stacks(point):
    """A grid's stack is bit-equal to its points' one-point stacks, so the
    batched prefix matmul agrees with the per-matrix one, and ``lambda_t`` is
    the one-point stack."""
    p, grid = point
    fam = family(p)
    for stack in (fam.stack, fam.dot_stack):
        assert _bit_equal(stack(grid), np.concatenate([stack([t]) for t in grid]))
    assert _bit_equal(np.stack([lambda_t(t, p).matrix for t in grid]), fam.stack(grid))


@pytest.mark.parametrize("bad", [-1e-300, -0.5, 4.0 + 1e-12, 9.0, math.nan])
def test_stack_rejects_points_outside_domain(bad):
    fam = family()
    for evaluate in (fam.stack, fam.dot_stack):
        with pytest.raises(OperandError):
            evaluate([0.5, bad, 3.5])
    with pytest.raises(OperandError):
        lambda_t(bad)


def test_stack_is_fresh_writable_memory():
    """Writing into a returned stack leaves the constant maps and the next
    evaluation as they were."""
    fam = family(MapParams(delta=1.05))
    grid = np.linspace(0.0, 4.0, 41)
    constants = (E1, E2, E3, E2_E1, E3_E2_E1)
    before = [S.matrix.copy() for S in constants]
    # [0.5]: stage 1 alone, which takes no prefix matmul
    points = (grid, [0.5])
    expected = [stack(ts) for stack in (fam.stack, fam.dot_stack) for ts in points]
    for stack in (fam.stack, fam.dot_stack):
        for ts in points:
            out = stack(ts)
            assert out.flags.writeable
            out[...] = 7.0
    assert all(np.array_equal(S.matrix, m) for S, m in zip(constants, before))
    again = [stack(ts) for stack in (fam.stack, fam.dot_stack) for ts in points]
    assert all(_bit_equal(a, b) for a, b in zip(again, expected))
    for i in (1, 2, 3):
        assert not make_E(i).matrix.flags.writeable


def test_import_leaves_scipy_unloaded():
    src = str(Path(qmarkov.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, qmarkov; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.strip() == "False"


def _scan_csv_by_rows(fam, probes, grid, k):
    """The scan as it was written with one row object per (probe, t) and
    csv.writer, on the scan's own per-grid-point numbers; returns (row
    count, CSV text)."""
    stack, chain = probes.probes, _chain_applies(probes.probes, k)
    per_t = [_norm_rderiv(fam, chain, s, [t], k) for s, t in zip(_stages(grid, fam.params), grid)]
    rows = []
    for pid in range(len(stack)):
        for t, (norm, rderiv) in zip(grid, per_t):
            rd = float(rderiv[0, pid])
            rows.append((float(t), pid, k, float(norm[0, pid]), rd,
                         "fail" if not rd <= TOL_DERIV else "ok"))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t", "probe_id", "k", "norm", "rderiv", "verdict"])
    for t, pid, kk, norm, rd, verdict in rows:
        writer.writerow([f"{t:.12g}", pid, kk, f"{norm:.15g}", f"{rd:.15g}", verdict])
    return len(rows), buf.getvalue()


@settings(max_examples=25, deadline=None)
@given(n_probes=st.integers(1, 6), k=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 32 - 1),
       grid=st.lists(st.floats(0.0, 3.99), min_size=1, max_size=8,
                     unique=True).map(sorted))
def test_scan_csv_matches_row_writer(tmp_path_factory, n_probes, k, seed, grid):
    probes = random_probes(3 * k, n_probes, seed)
    report = norm_derivative_scan(family(), probes, grid, k=k)
    path = tmp_path_factory.mktemp("scan") / "scan.csv"
    report.to_csv(path)
    n_rows, text = _scan_csv_by_rows(family(), probes, grid, k)
    assert len(report.rows) == n_rows == n_probes * len(grid)
    assert path.read_bytes() == text.encode()


@settings(max_examples=25, deadline=None)
@given(n_probes=st.integers(1, 6), k=st.sampled_from([1, 2]),
       theta=st.sampled_from([1.3, 1.5, 1.6]), seed=st.integers(0, 2 ** 32 - 1),
       grid=st.lists(st.floats(0.0, 3.99), min_size=1, max_size=8,
                     unique=True).map(sorted))
def test_scan_report_reads_its_rows(n_probes, k, theta, seed, grid):
    """Every fact of a ScanReport and of its summary, recomputed from its
    rows and from the grid the scan was given: the worst row is the first
    NaN, else the first maximum, in probe-major order."""
    probes = random_probes(3 * k, n_probes, seed)
    report = norm_derivative_scan(family(MapParams(theta=theta)), probes, grid, k=k)
    rds = report.rows.rderiv.tolist()
    nans = [i for i, rd in enumerate(rds) if math.isnan(rd)]
    worst = nans[0] if nans else rds.index(max(rds))
    passed = all(rd <= TOL_DERIV for rd in rds)
    assert report.rows.verdict.tolist() == ["ok" if rd <= TOL_DERIV else "fail"
                                            for rd in rds]
    assert report.seed == seed and report.k == k and report.passed is passed
    rest = {"argmax_t": grid[worst % len(grid)], "argmax_probe": worst // len(grid),
            "passed": passed, "slack": TOL_DERIV, "seed": seed, "k": k,
            "grid": {"points": len(grid), "t_min": grid[0], "t_max": grid[-1]}}
    assert (report.argmax_t, report.argmax_probe) == (rest["argmax_t"], rest["argmax_probe"])
    summary = report.summary()
    assert list(summary) == ["max_rderiv", *rest]
    assert {key: summary[key] for key in rest} == rest
    assert np.array_equal([report.max_rderiv, summary["max_rderiv"]], [rds[worst]] * 2,
                          equal_nan=True)


# A scan batch budget (SCAN_CHUNK_ENTRIES) of 64 qutrit probe entries, small
# enough that every stack below splits the grids of the test into several
# batches, and (k, probes) for each k on both sides of its two-point mark:
# some draws batch up to 64 grid points, 2 at the mark, and 1 beyond it.
SMALL_BUDGET = 64 * 9
BUDGET_SIDES = [(1, 1), (1, 2), (1, 7), (1, 32), (1, 33), (2, 1), (2, 3),
                (2, 8), (2, 9)]


@settings(max_examples=10, deadline=None)
@given(shape=st.sampled_from(BUDGET_SIDES), seed=st.integers(0, 2 ** 32 - 1),
       extra=st.lists(st.floats(0.0, 3.99), min_size=65, max_size=110,
                      unique=True))
@example(shape=(1, 2), seed=0, extra=list(np.linspace(0.0, 4.0, 140, endpoint=False)))
@example(shape=(2, 3), seed=1, extra=list(np.linspace(0.0, 4.0, 129, endpoint=False)))
def test_scan_rows_match_point_at_a_time(shape, seed, extra):
    """The batched scan's rows are bit-equal to its one-point chunk
    ``_norm_rderiv(fam, chain, s, [t], k)`` one grid point at a time, on grids
    that contain the junctions t1 to t3, with t = 2.0's kernel rows, and
    that SMALL_BUDGET splits into several batches: more than the 64 points
    of its largest batch (mostly not a multiple of a batch)."""
    k, n_probes = shape
    grid = sorted(set(extra) | {1.0, 2.0, 3.0})
    assert len(grid) > 64
    probes = random_probes(3 * k, n_probes, seed)
    with mock.patch.object(contractivity, "SCAN_CHUNK_ENTRIES", SMALL_BUDGET):
        report = norm_derivative_scan(family(), probes, grid, k=k)
    chain = _chain_applies(probes.probes, k)
    per_t = [_norm_rderiv(family(), chain, s, [t], k)
             for s, t in zip(_stages(grid, MapParams()), grid)]
    norm = np.array([n[0] for n, _ in per_t]).T.ravel()
    rderiv = np.array([d[0] for _, d in per_t]).T.ravel()
    assert np.array_equal(report.rows.norm, norm)
    assert np.array_equal(report.rows.rderiv, rderiv)


def _theta_sweep_per_lambda(theta_grid, tau, lam):
    """The sweep as it was written: one closed-form call per lambda."""
    rows = []
    for theta in theta_grid:
        best, best_lam, best_tau, skipped = -np.inf, None, None, 0
        for lv in lam:
            root = np.sqrt(1 + lv ** 2 + 2 * lv * np.cos(2 * theta * tau))
            keep = root > 1e-12
            skipped += int(np.sum(~keep))
            if not np.any(keep):
                continue
            vals = gamma4_derivative_closed_form(
                np.full(int(keep.sum()), lv), tau[keep], theta)
            idx = int(np.argmax(vals))
            if vals[idx] > best:
                best, best_lam, best_tau = (float(vals[idx]), float(lv),
                                            float(tau[keep][idx]))
        rows.append({"theta": float(theta), "max_deriv": best,
                     "arg_lambda": best_lam, "arg_tau": best_tau,
                     "violation": best > TOL_CLOSED_FORM,
                     "singular_points_skipped": skipped})
    return rows


def _assert_sweep_matches(rows, expected):
    """The record array ``rows`` equals the dict rows ``expected`` field by
    field and bit for bit."""
    assert rows.dtype.names == tuple(expected[0])
    for name in rows.dtype.names:
        assert np.array_equal(rows[name], [r[name] for r in expected]), name


@PROPERTY_SETTINGS
@given(thetas=st.lists(st.floats(1.0, 1.7), min_size=1, max_size=4),
       n_tau=st.integers(1, 41))
@example(thetas=[math.pi / 2], n_tau=11)
@example(thetas=[math.pi / 2], n_tau=1)
def test_theta_sweep_matches_per_lambda_loop(thetas, n_tau):
    # n_tau = 1 gives tau = [1.0]: at theta = pi/2 the lam = 1 point is singular
    tau = np.linspace(0.0, 1.0, n_tau) if n_tau > 1 else np.array([1.0])
    thetas = thetas + [math.pi / 2]
    _assert_sweep_matches(theta_window_sweep(thetas, tau),
                          _theta_sweep_per_lambda(thetas, tau,
                                                  np.arange(0.0, 10.0 + 1e-9, 0.1)))


def _bound_chain_scalar(theta, tau, lam):
    """The bound-chain ledger as it was written: one scalar row per tau,
    skipping the singular points (lam = 1, 2 theta tau = pi)."""
    tol = 1e-10
    rows = []
    skipped = 0

    def singular(lv, tv):
        nonlocal skipped
        if math.sqrt(1 + lv ** 2 + 2 * lv * math.cos(2 * theta * tv)) > 1e-12:
            return False
        skipped += 1
        return True

    for tv in tau:
        sup = max((float(gamma4_derivative_closed_form(lv, tv, theta))
                   for lv in lam if not singular(lv, tv)), default=-math.inf)
        bound_a = (tv * math.sqrt(max(2 + 2 * math.cos(2 * theta * tv), 0.0))
                   - (1 + tv * tv) * (theta / 2) * math.sin(2 * theta * tv))
        bracket = 2 * tv - (1 + tv * tv) * theta * math.sin(theta * tv)
        bound_b = math.cos(theta * tv) * bracket
        poly = (2 - theta ** 2) * tv - (theta ** 2 - theta ** 4 / 3) * tv ** 3
        rows.append({"tau": float(tv), "sup_derivative": sup,
                     "bound_sqrt": bound_a, "bound_cos": bound_b,
                     "bracket": bracket, "polynomial": poly,
                     "link1": sup <= bound_a + tol,
                     "link2": abs(bound_a - bound_b) <= tol,
                     "link3": bracket <= poly + tol, "link4": poly <= tol})
    mono_ok, worst_mono = True, -np.inf
    for lv in np.linspace(1.0, 10.0, 37):
        for tv in tau:
            if singular(lv, tv):
                continue
            c = math.cos(2 * theta * tv)
            val = -1 + (lv + c) / math.sqrt(1 + lv * lv + 2 * lv * c)
            worst_mono = max(worst_mono, val)
            mono_ok = mono_ok and not val > tol
    return {"rows": rows,
            "chain_ok": all(r["link1"] and r["link2"] and r["link3"] for r in rows),
            "polynomial_nonpositive": all(r["link4"] for r in rows),
            "lambda_monotone": mono_ok,
            "worst_lambda_derivative": float(worst_mono),
            "singular_points_skipped": skipped}


@PROPERTY_SETTINGS
@given(theta=st.one_of(st.floats(math.sqrt(2.0), math.pi / 2), st.just(1.3)),
       tau=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
@example(theta=1.3, tau=list(np.arange(0.005, 1.0 + 1e-9, 0.005)))
@example(theta=math.pi / 2, tau=list(np.arange(0.005, 1.0 + 1e-9, 0.005)))
def test_bound_chain_matches_scalar_ledger(theta, tau):
    """Against the scalar ledger on the chain's lambda grid 1, 2, ..., 10."""
    tau = np.asarray(tau)
    expected = _bound_chain_scalar(theta, tau, [float(lv) for lv in range(1, 11)])
    out = bound_chain_check(theta, tau)
    for name in out["rows"].dtype.names:
        assert out["rows"][name].tolist() == [r[name] for r in expected["rows"]]
    for key in ("chain_ok", "polynomial_nonpositive", "lambda_monotone",
                "worst_lambda_derivative", "singular_points_skipped"):
        assert out[key] == expected[key]
