import math
import re

import numpy as np
import pytest

from qmarkov import contractivity, qutrit_family
from qmarkov.contractivity import (SingularPointError, _chain_applies, bound_chain_check,
                                   gamma4_derivative_closed_form,
                                   gamma4_norm_closed_form,
                                   lambda_reflection_check,
                                   norm_derivative_scan, theta_window_sweep)
from qmarkov.operators import PROBE_KINDS, OperandError, ProbeSet, random_probes, trace_norm
from qmarkov.qutrit_family import RHO_A, RHO_B, Family, MapParams, family
from qmarkov.superops import apply_to_extended
from qmarkov.tolerances import TOL_DERIV

from oracles import DEFAULT_H0, gamma4_norm_numeric, right_derivative, scan_by_maps

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

    def test_inside_window_clean(self):
        rows = theta_window_sweep([1.45, 1.5, 1.55], self.TAUS)
        assert all(not r["violation"] for r in rows)

    def test_below_window_violates(self):
        rows = theta_window_sweep([1.2, 1.3], self.TAUS)
        assert all(r["violation"] for r in rows)
        assert rows[0]["max_deriv"] > 0.01

    def test_boundary(self):
        rows = theta_window_sweep([math.sqrt(2)], self.TAUS)
        assert not rows[0]["violation"]
        # and just below the boundary the sweep flips
        rows = theta_window_sweep([math.sqrt(2) - 0.01], self.TAUS)
        assert rows[0]["violation"]

    def test_singular_points_counted(self):
        # lam = 1 with 2 theta tau = pi falls on this grid at theta = pi/2
        taus = np.linspace(0.0, 1.0, 11)
        rows = theta_window_sweep([math.pi / 2], taus)
        assert rows[0]["singular_points_skipped"] == 1


class TestMeshRoots:
    """Each closed-form mesh takes its square root once, in the closed form
    itself, and a second time, with the masked mesh, only when it holds the
    singular point."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"root": 0, "closed_form": 0}
        root, closed_form = contractivity._root, contractivity.gamma4_derivative_closed_form

        def counting_root(*args):
            calls["root"] += 1
            return root(*args)

        def counting_closed_form(*args):
            calls["closed_form"] += 1
            return closed_form(*args)
        monkeypatch.setattr(contractivity, "_root", counting_root)
        monkeypatch.setattr(contractivity, "gamma4_derivative_closed_form", counting_closed_form)
        return calls

    def test_sweep(self, calls):
        theta_window_sweep([1.45, 1.5], np.linspace(0.0, 1.0, 201))
        assert calls == {"root": 2, "closed_form": 2}
        calls.update(root=0, closed_form=0)
        rows = theta_window_sweep([math.pi / 2], np.linspace(0.0, 1.0, 11))
        # the raising call, the mask and the call on the masked mesh
        assert calls == {"root": 3, "closed_form": 2}
        assert rows[0]["singular_points_skipped"] == 1

    def test_bound_chain(self, calls):
        out = bound_chain_check(1.5, np.linspace(0.0, 1.0, 101))
        assert calls == {"root": 2, "closed_form": 1}
        assert out["singular_points_skipped"] == 0
        calls.update(root=0, closed_form=0)
        out = bound_chain_check(math.pi / 2, np.linspace(0.0, 1.0, 11))
        # both meshes hold lam = 1 at 2 theta tau = pi
        assert calls == {"root": 6, "closed_form": 2}
        assert out["singular_points_skipped"] == 2
        assert out["lambda_monotone"] and math.isfinite(out["worst_lambda_derivative"])


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


class TestScan:
    def test_psd_probe_norm_constant(self):
        # a trace-preserving family keeps ||rho||_1 = 1 exactly
        probes = type(random_probes(3, 1, SEED))(
            probes=(np.eye(3) / 3,), seed=SEED)
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
            probes=(RHO_A - (-0.5) * RHO_B,), seed=SEED)
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
            probes=(RHO_A - RHO_B,), seed=SEED)
        fam = family(MapParams(theta=1.2))
        report = norm_derivative_scan(fam, probes, np.linspace(3.0, 3.5, 26))
        assert not report.passed
        assert report.max_rderiv > 1e-3
        assert 3.0 <= report.argmax_t <= 3.5

    def test_nan_row_fails(self, monkeypatch):
        """A NaN right derivative reads "fail", fails the scan and is the
        worst row, wherever it sits among finite ones."""
        real = contractivity._norm_rderiv

        def one_nan(fam, chain, s, ts, k):
            norm, rderiv = real(fam, chain, s, ts, k)
            if 2.5 in ts:  # the batch of stage 3
                rderiv[list(ts).index(2.5), 1] = math.nan
            return norm, rderiv

        monkeypatch.setattr(contractivity, "_norm_rderiv", one_nan)
        grid = np.linspace(0.0, 4.0, 8, endpoint=False)
        report = norm_derivative_scan(family(), random_probes(3, 3, SEED), grid)
        row = 1 * len(grid) + 5  # probe 1, t = 2.5, in probe-major order
        assert np.flatnonzero(report.rows.verdict == "fail").tolist() == [row]
        assert math.isnan(report.rows.rderiv[row])
        assert not report.passed
        assert math.isnan(report.max_rderiv)
        assert (report.argmax_t, report.argmax_probe) == (2.5, 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_rows_match_fromarrays_form(self, monkeypatch, k):
        """The rows, filled in place, have the dtype and the bytes of
        ``np.rec.fromarrays`` over the tiled grid, repeated probe ids and the
        columns, with a NaN row reading "fail"."""
        real = contractivity._norm_rderiv

        def one_nan(fam, chain, s, ts, k):
            norm, rderiv = real(fam, chain, s, ts, k)
            if s == 0:  # the first batch
                rderiv[0, 1] = math.nan
            return norm, rderiv

        grid = np.linspace(0.0, 4.0, 8, endpoint=False)
        probes = random_probes(3 * k, 3, SEED)
        chain = _chain_applies(probes.probes, k)
        norm, rderiv = (np.concatenate(column).T.ravel() for column in zip(
            *(one_nan(family(), chain, s, grid[2 * s:2 * s + 2], k) for s in range(4))))
        monkeypatch.setattr(contractivity, "_norm_rderiv", one_nan)
        report = norm_derivative_scan(family(), probes, grid, k=k)
        expected = np.rec.fromarrays(
            [np.tile(grid, 3), np.repeat(np.arange(3), 8), np.full(24, k), norm, rderiv,
             np.where(rderiv <= TOL_DERIV, "ok", "fail")],
            names=("t", "probe_id", "k", "norm", "rderiv", "verdict"))
        assert type(report.rows) is np.recarray
        assert report.rows.dtype == expected.dtype
        assert report.rows.tobytes() == expected.tobytes()
        assert report.rows.verdict.tolist().count("fail") == 1

    def test_failure_near_end_for_large_theta_lam_one(self):
        # theta = 1.6 > pi/2: the lam = 1 probe norm turns upward before tau = 1
        probes = type(random_probes(3, 1, SEED))(
            probes=(RHO_A - RHO_B,), seed=SEED)
        fam = family(MapParams(theta=1.6))
        report = norm_derivative_scan(fam, probes, np.linspace(3.9, 3.999, 12))
        assert not report.passed

    def test_matches_closed_form_on_segment4(self):
        # the first three stages map rho_A - lam rho_B to
        # (rho_A - (2 lam - 1) rho_B) / 2 before the fourth family acts
        lam = 2.0
        lam_eff = 2 * lam - 1
        probes = type(random_probes(3, 1, SEED))(
            probes=(RHO_A - lam * RHO_B,), seed=SEED)
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
        for grid in ([1.0, 0.5], [0.5, 0.5], [], np.array([0.0, 2.0, 2.0, 3.0])):
            with pytest.raises(OperandError, match="grid must be non-empty and ascending"):
                norm_derivative_scan(family(), probes, grid)
        # a NaN compares false either way: the stage split refuses it
        with pytest.raises(OperandError, match=re.escape("t = nan outside [0, 4.0]")):
            norm_derivative_scan(family(), probes, [0.5, math.nan, 1.0])
        with pytest.raises(OperandError):
            norm_derivative_scan(family(), probes, [0.0, 1.0], k=0)

    def test_ancilla_scan_runs(self):
        probes = random_probes(6, 3, SEED, "state-difference")
        report = norm_derivative_scan(family(), probes, [0.1, 0.5], k=2)
        assert report.k == 2
        assert all(row.k == 2 for row in report.rows)


# Junctions with stage lengths other than 1, as in the CI's stretched config.
STRETCHED = {"t1": 0.7, "t2": 1.9, "t3": 2.3, "t4": 5.1}


def _chain_grid(params):
    """41 points over [0, t4] and the junctions t1, t2 and t3."""
    return sorted({*np.linspace(0.0, params.t4, 41).tolist(), params.t1, params.t2, params.t3})


class TestScanOnTheChain:
    """The scan applies each map of the chain Id, E1, E2 E1, E3 E2 E1 to the
    probes once and builds every point's X and Xdot from those applies; its
    rows hold to the scan as it was written, from a map stack per batch
    (``oracles.scan_by_maps``)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_needs_no_map_stack(self, monkeypatch, k):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan built a map stack")

        for owner, name in ((Family, "stack"), (Family, "dot_stack"),
                            (qutrit_family, "_lambda_stack")):
            monkeypatch.setattr(owner, name, refuse)
        for params in (MapParams(), MapParams(delta=1.05, **STRETCHED)):
            grid = _chain_grid(params)
            report = norm_derivative_scan(family(params), random_probes(3 * k, 4, SEED), grid, k=k)
            assert len(report.rows) == 4 * len(grid)

    @pytest.mark.parametrize("n_probes,points", [(1, 1), (2, 1000), (200, 40), (2000, 5)])
    def test_applies_each_chain_map_once(self, monkeypatch, n_probes, points):
        """Three applies per scan, one per map E1, E2 E1 and E3 E2 E1, for a
        one-batch grid as for one batch per point."""
        shapes, real = [], contractivity.apply_to_extended

        def counting(S, X, k):
            shapes.append(np.shape(S))
            return real(S, X, k)

        monkeypatch.setattr(contractivity, "apply_to_extended", counting)
        norm_derivative_scan(family(), random_probes(3, n_probes, SEED),
                             np.linspace(0.0, 4.0, points, endpoint=False))
        assert shapes == [(9, 9)] * 3

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("times", [{}, STRETCHED], ids=["unit", "stretched"])
    @pytest.mark.parametrize("delta", [1.0, 1.05, 110.0])
    @pytest.mark.parametrize("theta", [math.sqrt(2), 1.5, math.pi / 2, 1.6])
    def test_rows_match_map_stack_scan(self, theta, delta, times, k):
        """In every stage and at every junction the rows differ from the
        map-stack scan's by rounding alone: the norm by at most 1e-14 of
        max(1, norm) and rderiv by at most 1e-13 of max(1, |rderiv|), with
        an equal verdict column.  Over this set they read at most 1.1e-15
        and 8.4e-15 (8.9e-15 and 1.4e-12 absolute, the latter at
        delta = 110, where the stage-4 rates reach about 100)."""
        params = MapParams(theta=theta, delta=delta, **times)
        grid = _chain_grid(params)
        for kind in PROBE_KINDS:
            probes = random_probes(3 * k, 6, SEED, kind)
            rows = norm_derivative_scan(family(params), probes, grid, k=k).rows
            norm, rderiv = (a.ravel() for a in scan_by_maps(family(params), probes.probes,
                                                            grid, k))
            assert np.all(np.abs(rows.norm - norm) <= 1e-14 * np.maximum(1.0, norm))
            assert np.all(np.abs(rows.rderiv - rderiv)
                          <= 1e-13 * np.maximum(1.0, np.abs(rderiv)))
            assert rows.verdict.tolist() == np.where(rderiv <= TOL_DERIV, "ok", "fail").tolist()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_derivative_rows(self, k):
        """At t1 and t2 dw/dtau is 0, and at t3 for delta > 1 so is ds/dtau:
        Xdot = 0 there, and every row reads rderiv = +0.0, whatever kernel
        eigenvalue X has (at t2 the |2> block of E2 E1 is 0).  The norms are
        the map-stack scan's: bit for bit at k = 1, where both read the
        diagonal, and to rounding at k = 2 and 3."""
        for params, still in ((MapParams(), [1.0, 2.0]),
                              (MapParams(delta=1.05, **STRETCHED), [0.7, 1.9, 2.3])):
            grid = _chain_grid(params)
            probes = random_probes(3 * k, 6, SEED)
            rows = norm_derivative_scan(family(params), probes, grid, k=k).rows
            norm, rderiv = (a.ravel() for a in scan_by_maps(family(params), probes.probes,
                                                            grid, k))
            at = np.isin(rows.t, still)
            assert at.sum() == 6 * len(still)
            assert np.all(rows.rderiv[at] == 0.0) and not np.signbit(rows.rderiv[at]).any()
            assert np.all(rderiv[at] == 0.0)
            if k == 1:
                assert np.array_equal(rows.norm[at], norm[at])
            assert np.all(np.abs(rows.norm[at] - norm[at]) <= 1e-14 * np.maximum(1.0, norm[at]))


    def test_zero_derivative_row_with_a_refused_closed_form(self, monkeypatch):
        """At k = 3 and t1 a block-diagonal probe is its own X.  Its |0> block
        diag(1, 1 + 1e-9, 3) has eigenvalues too close for the 3 x 3 closed
        form (TRIPLE_GAP), which refuses them, so the row takes one eigh even
        though Xdot = 0; it reads rderiv = +0.0 and eigh's norm."""
        probe = np.diag([1.0, 1.0 + 1e-9, 3.0, 2.0, 5.0, 7.0, 4.0, 6.0, 8.0]).astype(complex)
        calls, eigh = [], np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        rows = norm_derivative_scan(family(), ProbeSet(probes=(probe,), seed=SEED),
                                    [1.0], k=3).rows
        assert calls == [(1, 9, 9)]
        assert rows.rderiv[0] == 0.0 and not np.signbit(rows.rderiv[0])
        assert rows.norm[0] == trace_norm(probe)


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
        probes = ProbeSet(probes=(KINK_PROBE,), seed=0)
        assert not _no_sign_change(_stencil_eigenvalues(family(), KINK_PROBE, t, 1))
        (row,) = norm_derivative_scan(family(), probes, [t]).rows
        assert row.rderiv == pytest.approx(-16.0 * (1.0 - t) ** 3, abs=1e-9)

    def test_kernel_term_at_the_kink(self):
        # At tau* the crossing eigenvalue is in the kernel: ||P0 Xdot P0||_1
        # = 8(1 - tau*)^3 cancels the -8(1 - tau*)^3 of the largest one.
        probes = ProbeSet(probes=(KINK_PROBE,), seed=0)
        (row,) = norm_derivative_scan(family(), probes, [KINK_T]).rows
        assert abs(row.rderiv) <= 1e-12
        assert row.norm == pytest.approx(1.0 + 2.0 * (1.0 - KINK_T) ** 4 + 1.0, abs=1e-12)


def test_lambda_probe_values():
    assert trace_norm(RHO_A - RHO_B) == pytest.approx(1.0)
