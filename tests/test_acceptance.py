"""Acceptance gate: one check per headline property of the toolkit.

Each test prints a single pass/fail line for its criterion; the suite as a
whole certifies the qutrit counterexample family (CPTP validity, closed-form
endpoints, non-P-divisibility, monotone trace-norm contractivity, the
tightness window, the analytic bound chain, oracle equivalences, the smooth
variant and the image structure).
"""

import math

import numpy as np
from scipy.linalg import expm

from qmarkov.cli import check_continuity
from qmarkov.contractivity import (bound_chain_check,
                                   gamma4_derivative_closed_form,
                                   lambda_reflection_check,
                                   norm_derivative_scan)
from qmarkov.divisibility import positive_forcing_witness
from qmarkov.operators import random_probes, trace_norm
from qmarkov.qutrit_family import (MapParams, continuity_report,
                                   dephasing_generator, family, gamma_family,
                                   lambda_t, rotated_ket)
from qmarkov.superops import (choi_min_eigenvalue, image_inclusion_residual,
                              image_rank, is_image_nonincreasing)
from qmarkov.tolerances import DEFAULT_SEED


def _report(n: int, label: str, ok: bool) -> None:
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def unit(i, j):
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def _closed_form_grid_max(theta: float) -> float:
    lam = np.arange(0.0, 10.0 + 1e-9, 0.1)
    tau = np.arange(0.0, 1.0 + 1e-9, 0.01)
    worst = -math.inf
    for lv in lam:
        root = np.sqrt(1 + lv ** 2 + 2 * lv * np.cos(2 * theta * tau))
        keep = root > 1e-12
        vals = gamma4_derivative_closed_form(
            np.full(int(keep.sum()), lv), tau[keep], theta)
        worst = max(worst, float(np.max(vals)))
    return worst


def _scan_max(params: MapParams) -> float:
    probes = random_probes(3, 500, DEFAULT_SEED)
    grid = np.linspace(0.0, params.t4, 200, endpoint=False)
    return norm_derivative_scan(family(params), probes, grid, k=1).max_rderiv


def test_criterion_1_dynamical_map_validity():
    params = MapParams()
    fam = family(params)
    probes = random_probes(3, 50, DEFAULT_SEED).probes
    worst_choi = math.inf
    worst_tp = 0.0
    for t in np.linspace(0.0, 4.0, 200):
        S = fam(t)
        worst_choi = min(worst_choi, choi_min_eigenvalue(S))
        for X in probes:
            worst_tp = max(worst_tp,
                           abs(np.trace(S.apply(X)) - np.trace(X)))
    report = continuity_report(params, (1e-2, 1e-3, 1e-4))
    junctions_ok = all(
        entry["gap"][0] > entry["gap"][1] > entry["gap"][2]
        and entry["gap"][2] < 1e-3 for entry in report.values())
    _report(1, "dynamical-map validity",
            worst_choi >= -1e-10 and worst_tp <= 1e-10 and junctions_ok)


def test_criterion_2_closed_form_endpoints():
    theta = 1.5
    ok = True
    for i in range(3):
        for j in range(3):
            X = unit(i, j)
            exp1 = X if i == j else np.zeros((3, 3))
            exp2 = np.diag([X[0, 0], X[1, 1] + X[2, 2], 0.0])
            exp3 = np.diag([X[0, 0], X[1, 1] + X[2, 2],
                            X[0, 0] + X[1, 1] + X[2, 2]]) / 2
            ok &= np.max(np.abs(lambda_t(1.0).apply(X) - exp1)) < 1e-12
            ok &= np.max(np.abs(lambda_t(2.0).apply(X) - exp2)) < 1e-12
            ok &= np.max(np.abs(lambda_t(3.0).apply(X) - exp3)) < 1e-12
    ket = rotated_ket(theta)
    ok &= np.max(np.abs(lambda_t(4.0).apply(unit(0, 0))
                        - np.diag([1.0, 0.0, 0.0]))) < 1e-12
    ok &= np.max(np.abs(lambda_t(4.0).apply(unit(1, 1))
                        - np.outer(ket, ket.conj()))) < 1e-12
    _report(2, "closed-form endpoints", bool(ok))


def test_criterion_3_non_p_divisibility():
    w = positive_forcing_witness(family(), 3.0, 4.0)
    ket = rotated_ket(1.5)
    oracle = trace_norm(np.diag([1.0, 0.0, 0.0]) - np.outer(ket, ket.conj()))
    ok = (w is not None
          and abs(abs(w.shared_vector[2]) - 1.0) < 1e-8
          and abs(w.discrepancy - 2 * abs(math.cos(1.5))) < 1e-9
          and abs(w.discrepancy - oracle) < 1e-9)
    w2 = positive_forcing_witness(
        family(MapParams(theta=math.pi / 2 - 1e-3)), 3.0, 4.0)
    ok = ok and w2 is not None and abs(w2.discrepancy - 2e-3) < 0.1 * 2e-3
    _report(3, "non-P-divisibility witness", ok)


def test_criterion_4_monotone_contractivity():
    scan_max = _scan_max(MapParams())
    closed_max = _closed_form_grid_max(1.5)
    _report(4, "monotone contractivity",
            scan_max <= 1e-6 and closed_max <= 1e-12)


def test_criterion_5_window_tightness():
    high = gamma4_derivative_closed_form(1.0, 1.0, 1.6)
    expected_high = 2 * abs(math.cos(1.6)) + 2 * 1.6 * math.sin(1.6)
    low = gamma4_derivative_closed_form(1.0, 0.01, 1.3)
    expected_low = (2 - 1.3 ** 2) * 0.01
    ok = (high > 0 and abs(high - expected_high) < 0.05 * expected_high
          and low > 0 and abs(low - expected_low) < 0.2 * expected_low)
    _report(5, "tightness of the contractive window", ok)


def test_criterion_6_bound_chain():
    out = bound_chain_check(1.5, np.arange(0.005, 1.0 + 1e-9, 0.005))
    ok = out["chain_ok"] and out["polynomial_nonpositive"]
    ok = ok and out["lambda_monotone"] and out["worst_lambda_derivative"] <= 1e-10
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(50):
        lam = float(rng.uniform(0.01, 0.99))
        tau = float(rng.uniform(0.0, 1.0))
        ok = ok and lambda_reflection_check(lam, tau, 1.5, tol=1e-10)
    _report(6, "analytic bound chain and reflection", ok)


def test_criterion_7_dephasing_oracle_equivalence():
    params = MapParams()
    L0 = dephasing_generator().matrix
    ok = True
    for tau in np.arange(0.1, 0.95, 0.1):
        g = -math.log1p(-tau)
        dense = expm(g * L0)
        ok &= np.max(np.abs(gamma_family(1, tau).matrix - dense)) < 1e-10
    _report(7, "first-stage oracle equivalence", bool(ok))


def test_criterion_8_smooth_variant():
    params = MapParams(theta=1.55, delta=1.05)
    cont = check_continuity(params, derivative=True)
    scan_max = _scan_max(params)
    closed_max = _closed_form_grid_max(1.55)
    _report(8, "smooth variant",
            cont["passed"] and scan_max <= 1e-6 and closed_max <= 1e-12)


def test_criterion_9_image_structure():
    fam = family()
    ranks_ok = (image_rank(fam(0.99)) == 9
                and image_rank(fam(1.0)) == 3
                and image_rank(fam(2.0)) == 2
                and image_rank(fam(3.0)) == 2
                and image_rank(fam(4.0)) == 2)
    inclusion_fails = not is_image_nonincreasing(fam, [3.0, 4.0])
    residual = image_inclusion_residual(fam(3.0), fam(4.0))
    _report(9, "image structure",
            ranks_ok and inclusion_fails and residual > 0.01)
