"""Property tests of the algebraic identities behind the family and Choi code,
and of the array-expression grid checks against the loops they replaced."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qmarkov
from qmarkov.contractivity import (bound_chain_check,
                                   gamma4_derivative_closed_form,
                                   norm_derivative_scan, norm_rderiv_at,
                                   theta_window_sweep)
from qmarkov.operators import random_probes, right_derivative
from qmarkov.qutrit_family import (D1, D2, D3, K2, MapParams, family,
                                   gamma_family, lambda_t, lambda_t_dot,
                                   make_E)
from qmarkov.superops import (SuperOp, compose, from_kraus, is_cp, is_tp,
                              to_choi)
from qmarkov.tolerances import TOL_CLOSED_FORM, TOL_DERIV

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
    lambda d: _superop_matrices(d).map(lambda m: SuperOp(dim=d, matrix=m))))
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
    assert is_cp(S) and is_tp(S)


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
    exact = lambda_t_dot(t, p).matrix
    for idx in np.ndindex(exact.shape):
        for part in (np.real, np.imag):
            oracle = right_derivative(lambda s: part(lambda_t(s, p).matrix[idx]), t)
            assert part(exact[idx]) == pytest.approx(oracle, abs=1e-7)


def test_lambda_t_dot_vanishes_at_third_junction_when_smoothed():
    assert not np.any(lambda_t_dot(UNEQUAL["t3"], MapParams(delta=1.05, **UNEQUAL)).matrix)
    assert np.any(lambda_t_dot(UNEQUAL["t3"], MapParams(delta=1.0, **UNEQUAL)).matrix)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_elementary_maps_are_read_only(i):
    with pytest.raises(ValueError):
        make_E(i).matrix[0, 0] = 2.0


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
    stack = probes.stacked()
    per_t = [norm_rderiv_at(fam, stack, t, k) for t in grid]
    rows = []
    for pid in range(len(stack)):
        for t, (norm, rderiv) in zip(grid, per_t):
            rd = float(rderiv[pid])
            rows.append((float(t), pid, k, float(norm[pid]), rd,
                         "fail" if rd > TOL_DERIV else "ok"))
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


@PROPERTY_SETTINGS
@given(thetas=st.lists(st.floats(1.0, 1.7), min_size=1, max_size=4),
       n_tau=st.integers(1, 41), lam_max=st.sampled_from([1.0, 2.5, 10.0]),
       lam_step=st.sampled_from([0.1, 0.25, 0.5]))
@example(thetas=[math.pi / 2], n_tau=11, lam_max=1.0, lam_step=0.5)
@example(thetas=[math.pi / 2], n_tau=1, lam_max=1.0, lam_step=0.5)
def test_theta_sweep_matches_per_lambda_loop(thetas, n_tau, lam_max, lam_step):
    # n_tau = 1 gives tau = [1.0]: at theta = pi/2 every lam = 1 point is singular
    tau = np.linspace(0.0, 1.0, n_tau) if n_tau > 1 else np.array([1.0])
    lam = np.arange(0.0, lam_max + 1e-9, lam_step)
    thetas = thetas + [math.pi / 2]
    assert theta_window_sweep(thetas, tau, lam) == \
        _theta_sweep_per_lambda(thetas, tau, lam)


def test_theta_sweep_all_points_singular():
    expected = _theta_sweep_per_lambda([math.pi / 2], np.array([1.0]),
                                       np.array([1.0]))
    assert expected[0]["arg_lambda"] is None
    assert theta_window_sweep([math.pi / 2], [1.0], [1.0]) == expected


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
       tau=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       lam=st.lists(st.floats(1.0, 12.0), min_size=1, max_size=12))
@example(theta=1.3, tau=list(np.arange(0.005, 1.0 + 1e-9, 0.005)),
         lam=list(np.arange(1.0, 11.0)))
@example(theta=math.pi / 2, tau=list(np.arange(0.005, 1.0 + 1e-9, 0.005)),
         lam=list(np.arange(1.0, 11.0)))
def test_bound_chain_matches_scalar_ledger(theta, tau, lam):
    tau, lam = np.asarray(tau), np.asarray(lam)
    expected = _bound_chain_scalar(theta, tau, lam)
    out = bound_chain_check(theta, tau, lam)
    for name in out["rows"].dtype.names:
        assert out["rows"][name].tolist() == [r[name] for r in expected["rows"]]
    for key in ("chain_ok", "polynomial_nonpositive", "lambda_monotone",
                "worst_lambda_derivative", "singular_points_skipped"):
        assert out[key] == expected[key]
