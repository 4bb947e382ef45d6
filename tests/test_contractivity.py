import math

import numpy as np
import pytest

from qmarkov.contractivity import (SingularPointError, bound_chain_check,
                                   gamma4_derivative_closed_form,
                                   gamma4_norm_closed_form,
                                   gamma4_norm_numeric, lambda_probe,
                                   lambda_reflection_check,
                                   norm_derivative_scan, theta_window_sweep)
from qmarkov.operators import (OperandError, ProbeSet, random_probes,
                               right_derivative, trace_norm)
from qmarkov.qutrit_family import RHO_A, RHO_B, MapParams, family
from qmarkov.superops import apply_to_extended
from qmarkov.tolerances import DEFAULT_H0

SEED = 17
THETA = 1.5


class TestClosedFormNorm:
    def test_endpoints(self):
        # tau = 0: ||rho_A - lam rho_B||_1 = (|lam - 1| + 1 + lam) / 2
        for lam in (0.0, 0.5, 1.0, 2.0, 7.0):
            expected = 0.5 * (abs(lam - 1) + 1 + lam)
            assert gamma4_norm_closed_form(lam, 0.0, THETA) == pytest.approx(
                expected, abs=1e-14)

    def test_lam_zero_is_constant_one(self):
        for tau in np.linspace(0.0, 1.0, 11):
            assert gamma4_norm_closed_form(0.0, tau, THETA) == pytest.approx(
                1.0, abs=1e-14)

    def test_matches_matrix_oracle_on_grid(self):
        for lam in (0.0, 0.3, 1.0, 1.7, 4.0):
            for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert gamma4_norm_closed_form(lam, tau, THETA) == pytest.approx(
                    gamma4_norm_numeric(lam, tau, THETA), abs=1e-10)

    def test_vectorized(self):
        lam = np.array([0.5, 1.0, 2.0])
        out = gamma4_norm_closed_form(lam, 0.5, THETA)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(gamma4_norm_closed_form(1.0, 0.5, THETA))

    def test_domain(self):
        with pytest.raises(OperandError):
            gamma4_norm_closed_form(-0.1, 0.5, THETA)
        with pytest.raises(OperandError):
            gamma4_norm_closed_form(1.0, 1.5, THETA)


class TestClosedFormDerivative:
    def test_matches_finite_differences(self):
        for lam in (0.3, 1.0, 2.5):
            for tau in (0.1, 0.4, 0.8):
                f = lambda s: gamma4_norm_closed_form(lam, s, THETA)
                fd = (f(tau + 1e-6) - f(tau - 1e-6)) / 2e-6
                assert gamma4_derivative_closed_form(lam, tau, THETA) == \
                    pytest.approx(fd, abs=1e-5)

    def test_matches_right_derivative_of_matrix_route(self):
        for lam in (0.5, 1.0, 3.0):
            f = lambda s: gamma4_norm_numeric(lam, s, THETA)
            assert right_derivative(f, 0.5) == pytest.approx(
                gamma4_derivative_closed_form(lam, 0.5, THETA), abs=1e-5)

    def test_nonpositive_in_window(self):
        taus = np.linspace(0.0, 1.0, 101)
        for theta in (math.sqrt(2), 1.5, math.pi / 2 - 1e-9):
            for lam in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
                root = np.sqrt(1 + lam ** 2 + 2 * lam * np.cos(2 * theta * taus))
                keep = root > 1e-12
                vals = gamma4_derivative_closed_form(
                    np.full(int(keep.sum()), float(lam)), taus[keep], theta)
                assert np.max(vals) <= 1e-12

    def test_positive_below_window(self):
        # theta = 1.3 < sqrt(2): small-tau slope is (2 - theta^2) tau > 0
        tau = 0.01
        val = gamma4_derivative_closed_form(1.0, tau, 1.3)
        assert val > 0
        assert val == pytest.approx((2 - 1.3 ** 2) * tau, rel=1e-2)

    def test_singular_point_raises(self):
        theta = math.pi / 2
        with pytest.raises(SingularPointError):
            gamma4_derivative_closed_form(1.0, 1.0, theta)

    def test_zero_at_origin(self):
        assert gamma4_derivative_closed_form(2.0, 0.0, THETA) == pytest.approx(
            0.0, abs=1e-14)


class TestReflection:
    def test_identity_on_grid(self):
        for lam in (0.1, 0.3, 0.7, 0.99):
            for tau in (0.1, 0.5, 0.9):
                assert lambda_reflection_check(lam, tau, THETA)

    def test_random_grid(self):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            lam = float(rng.uniform(0.01, 0.99))
            tau = float(rng.uniform(0.0, 1.0))
            theta = float(rng.uniform(0.1, math.pi / 2 - 0.05))
            assert lambda_reflection_check(lam, tau, theta)

    def test_domain(self):
        with pytest.raises(OperandError):
            lambda_reflection_check(1.5, 0.5, THETA)


class TestThetaWindow:
    TAUS = np.linspace(0.0, 1.0, 201)
    LAMS = np.arange(0.0, 10.1, 0.5)

    def test_inside_window_clean(self):
        rows = theta_window_sweep([1.45, 1.5, 1.55], self.TAUS, self.LAMS)
        assert all(not r["violation"] for r in rows)

    def test_below_window_violates(self):
        rows = theta_window_sweep([1.2, 1.3], self.TAUS, self.LAMS)
        assert all(r["violation"] for r in rows)
        assert rows[0]["max_deriv"] > 0.01

    def test_boundary(self):
        rows = theta_window_sweep([math.sqrt(2)], self.TAUS, self.LAMS)
        assert not rows[0]["violation"]
        # and just below the boundary the sweep flips
        rows = theta_window_sweep([math.sqrt(2) - 0.01], self.TAUS, self.LAMS)
        assert rows[0]["violation"]

    def test_singular_points_counted(self):
        # lam = 1 with 2 theta tau = pi falls on this grid at theta = pi/2
        taus = np.linspace(0.0, 1.0, 11)
        rows = theta_window_sweep([math.pi / 2], taus, [1.0])
        assert rows[0]["singular_points_skipped"] == 1


class TestBoundChain:
    def test_holds_at_default_theta(self):
        out = bound_chain_check(1.5, np.linspace(0.0, 1.0, 101))
        assert out["chain_ok"]
        assert out["polynomial_nonpositive"]
        assert out["lambda_monotone"]
        assert out["worst_lambda_derivative"] <= 1e-10

    def test_threshold_at_sqrt2(self):
        ok = bound_chain_check(math.sqrt(2), np.linspace(0.0, 1.0, 101))
        assert ok["chain_ok"] and ok["polynomial_nonpositive"]
        low = bound_chain_check(1.3, np.linspace(0.01, 1.0, 100))
        assert low["chain_ok"]  # links 1-3 are theta-independent inequalities
        assert not low["polynomial_nonpositive"]

    def test_domain(self):
        with pytest.raises(OperandError):
            bound_chain_check(2.0, [0.5])
        with pytest.raises(OperandError):
            bound_chain_check(1.5, [0.5], lam_grid=[0.5])


class TestScan:
    def test_psd_probe_norm_constant(self):
        # a trace-preserving family keeps ||rho||_1 = 1 exactly
        probes = type(random_probes(3, 1, SEED))(
            probes=(np.eye(3) / 3,), seed=SEED, kind="random-hermitian")
        grid = np.linspace(0.0, 4.0, 21, endpoint=False)
        report = norm_derivative_scan(family(), probes, grid)
        assert report.passed
        for row in report.rows:
            assert row.norm == pytest.approx(1.0, abs=1e-10)
            assert abs(row.rderiv) < 1e-7

    def test_negative_lambda_probe_constant(self):
        # for lam <= 0 the probe stays PSD up to sign, so the norm is the
        # trace 1 - lam at every time
        probes = type(random_probes(3, 1, SEED))(
            probes=(lambda_probe(-0.5),), seed=SEED, kind="random-hermitian")
        report = norm_derivative_scan(family(), probes,
                                      np.linspace(3.0, 4.0, 11, endpoint=False))
        for row in report.rows:
            assert row.norm == pytest.approx(1.5, abs=1e-12)

    def test_default_family_contracts_on_random_probes(self):
        probes = random_probes(3, 50, SEED, "state-difference")
        grid = np.linspace(0.0, 4.0, 81, endpoint=False)
        report = norm_derivative_scan(family(), probes, grid)
        assert report.passed
        assert report.max_rderiv <= 1e-6

    def test_backflow_detected_below_window(self):
        probes = type(random_probes(3, 1, SEED))(
            probes=(lambda_probe(1.0),), seed=SEED, kind="random-hermitian")
        fam = family(MapParams(theta=1.2))
        report = norm_derivative_scan(fam, probes, np.linspace(3.0, 3.5, 26))
        assert not report.passed
        assert report.max_rderiv > 1e-3
        assert 3.0 <= report.argmax_t <= 3.5

    def test_failure_near_end_for_large_theta_lam_one(self):
        # theta = 1.6 > pi/2: the lam = 1 probe norm turns upward before tau = 1
        probes = type(random_probes(3, 1, SEED))(
            probes=(lambda_probe(1.0),), seed=SEED, kind="random-hermitian")
        fam = family(MapParams(theta=1.6))
        report = norm_derivative_scan(fam, probes, np.linspace(3.9, 3.999, 12))
        assert not report.passed

    def test_matches_closed_form_on_segment4(self):
        # the first three stages map rho_A - lam rho_B to
        # (rho_A - (2 lam - 1) rho_B) / 2 before the fourth family acts
        lam = 2.0
        lam_eff = 2 * lam - 1
        probes = type(random_probes(3, 1, SEED))(
            probes=(lambda_probe(lam),), seed=SEED, kind="random-hermitian")
        grid = [3.1, 3.4, 3.7]
        report = norm_derivative_scan(family(), probes, grid)
        for row in report.rows:
            tau = row.t - 3.0
            assert row.norm == pytest.approx(
                0.5 * gamma4_norm_closed_form(lam_eff, tau, THETA), abs=1e-10)
            assert row.rderiv == pytest.approx(
                0.5 * gamma4_derivative_closed_form(lam_eff, tau, THETA), abs=1e-5)

    def test_csv_deterministic(self, tmp_path):
        probes = random_probes(3, 5, SEED, "state-difference")
        grid = np.linspace(0.0, 4.0, 9, endpoint=False)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        norm_derivative_scan(family(), probes, grid).to_csv(p1)
        norm_derivative_scan(family(), probes, grid).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "t,probe_id,k,norm,rderiv,verdict"

    def test_grid_validation(self):
        probes = random_probes(3, 2, SEED)
        with pytest.raises(OperandError):
            norm_derivative_scan(family(), probes, [1.0, 0.5])
        with pytest.raises(OperandError):
            norm_derivative_scan(family(), probes, [0.0, 1.0], k=0)

    def test_ancilla_scan_runs(self):
        probes = random_probes(6, 3, SEED, "state-difference")
        report = norm_derivative_scan(family(), probes, [0.1, 0.5], k=2)
        assert report.k == 2
        assert all(row.k == 2 for row in report.rows)


def _stencil_eigenvalues(fam, X, t, k):
    """Eigenvalues of (Lambda_s tensor Id_k)(X) at s = t, t + h0/4, t + h0/2, t + h0."""
    return [np.linalg.eigvalsh(apply_to_extended(fam(s), X, k))
            for s in (t, t + DEFAULT_H0 / 4, t + DEFAULT_H0 / 2, t + DEFAULT_H0)]


def _no_sign_change(stencil) -> bool:
    """No eigenvalue changes sign on [t, t + h0]; one that is zero at t may
    leave zero (the right derivative sees only s > t)."""
    scale = max(float(np.abs(lam).max()) for lam in stencil)
    signs = [np.where(np.abs(lam) <= 1e-9 * scale, 0, np.sign(lam)) for lam in stencil]
    first, *later = signs
    return (all(np.array_equal(s, later[-1]) for s in later)
            and bool(np.all((first == 0) | (first == later[-1]))))


# In stage 1 the probe's eigenvalue 1 - 2(1 - tau)^4 crosses 0 upwards at
# tau* = 1 - 2^(-1/4) (t1 = 1, so t = tau); the others are 1 + 2(1 - tau)^4
# and 1, and the norm is smooth on either side of tau*.
KINK_PROBE = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
KINK_T = 1.0 - 2.0 ** -0.25


class TestExactDerivative:
    @pytest.mark.parametrize("seed,k,kind", [(3, 1, "random-hermitian"),
                                             (4, 1, "state-difference"),
                                             (5, 2, "random-hermitian"),
                                             (6, 2, "state-difference")])
    def test_matches_richardson_oracle_off_kinks(self, seed, k, kind):
        fam = family(MapParams(theta=1.55, delta=1.05))
        probes = random_probes(3 * k, 4, seed, kind)
        grid = np.linspace(0.0, 4.0, 37, endpoint=False) + 0.013
        report = norm_derivative_scan(fam, probes, grid, k=k)
        checked = 0
        for row in report.rows:
            X = probes.probes[row.probe_id]
            if not _no_sign_change(_stencil_eigenvalues(fam, X, row.t, k)):
                continue
            f = lambda s: trace_norm(apply_to_extended(fam(s), X, k))
            assert row.rderiv == pytest.approx(right_derivative(f, row.t), abs=1e-6)
            checked += 1
        assert checked >= 0.9 * len(report.rows)

    def test_kink_inside_stencil(self):
        # t lies less than h0 before tau*: the stencil [t, t + h0] straddles
        # the kink, but the right derivative at t is that of the left branch,
        # where |1 - 2(1 - t)^4| and 1 + 2(1 - t)^4 both fall at 8(1 - t)^3.
        t = KINK_T - DEFAULT_H0 / 2
        probes = ProbeSet(probes=(KINK_PROBE,), seed=0, kind="random-hermitian")
        assert not _no_sign_change(_stencil_eigenvalues(family(), KINK_PROBE, t, 1))
        (row,) = norm_derivative_scan(family(), probes, [t]).rows
        assert row.rderiv == pytest.approx(-16.0 * (1.0 - t) ** 3, abs=1e-9)

    def test_kernel_term_at_the_kink(self):
        # At tau* the crossing eigenvalue is in the kernel: ||P0 Xdot P0||_1
        # = 8(1 - tau*)^3 cancels the -8(1 - tau*)^3 of the largest one.
        probes = ProbeSet(probes=(KINK_PROBE,), seed=0, kind="random-hermitian")
        (row,) = norm_derivative_scan(family(), probes, [KINK_T]).rows
        assert abs(row.rderiv) <= 1e-12
        assert row.norm == pytest.approx(1.0 + 2.0 * (1.0 - KINK_T) ** 4 + 1.0, abs=1e-12)


def test_lambda_probe_values():
    assert np.allclose(lambda_probe(0.0), RHO_A)
    assert np.allclose(lambda_probe(1.0), RHO_A - RHO_B)
    assert trace_norm(lambda_probe(1.0)) == pytest.approx(1.0)
