"""Information-flow analysis via trace-norm contractivity.

Exact right-derivative scans of t -> ||Lambda_t(X)||_1 over probe ensembles
(optionally with an ancilla of dimension k), the closed-form norm and
derivative of the fourth interpolating family on probes rho_A - lambda*rho_B,
the theta-window tightness sweep, the analytic bound chain and the
lambda <-> 1/lambda reflection identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import OperandError, ProbeSet
from .qutrit_family import RHO_A, RHO_B, MapParams, gamma_family
from .superops import apply_to_extended
from .tolerances import KERNEL_CUTOFF, TOL_CLOSED_FORM, TOL_DERIV


class SingularPointError(ValueError):
    """Closed-form derivative evaluated at its vanishing-denominator point."""


def lambda_probe(lam: float) -> np.ndarray:
    """The probe rho_A - lam * rho_B (trace 1 - lam)."""
    return RHO_A - lam * RHO_B


@dataclass(frozen=True)
class ScanReport:
    """``rows``: record array ``t, probe_id, k, norm, rderiv, verdict`` in
    probe-major order; ``verdict`` is "fail" where ``rderiv`` > ``slack``."""

    rows: np.recarray
    max_rderiv: float
    argmax_t: float
    argmax_probe: int
    passed: bool
    slack: float
    seed: int
    k: int
    grid_spec: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Write the rows as CSV with CRLF line ends, one probe block at a time."""
        block = self.grid_spec["points"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.rows.dtype.names) + "\r\n")
            for start in range(0, len(self.rows), block):
                columns = (self.rows[name][start:start + block].tolist()
                           for name in self.rows.dtype.names)
                fh.writelines(f"{t:.12g},{p},{k},{n:.15g},{d:.15g},{v}\r\n"
                              for t, p, k, n, d, v in zip(*columns))

    def summary(self) -> dict:
        return {
            "schema_version": 1,
            "max_rderiv": self.max_rderiv,
            "argmax_t": self.argmax_t,
            "argmax_probe": self.argmax_probe,
            "passed": self.passed,
            "slack": self.slack,
            "seed": self.seed,
            "k": self.k,
            "grid": self.grid_spec,
        }


def norm_rderiv_at(fam, stack: np.ndarray, t: float, k: int = 1):
    """Trace norms ||X||_1 of X = (Lambda_t tensor Id_k)(probe) for a stack of
    probes, and their exact right time-derivatives.

    With X = sum_i lam_i |v_i><v_i| and Xdot = (dLambda_t/dt tensor Id_k)(probe),
    the right derivative is (Kato, Perturbation Theory, ch. II)

        sum_{lam_i != 0} sign(lam_i) <v_i|Xdot|v_i> + ||P0 Xdot P0||_1,

    P0 the projector onto the kernel of X, which is the eigenvalues with
    |lam| <= KERNEL_CUTOFF * max |lam| of each probe.  ``fam`` is a callable
    t -> SuperOp with a ``dot(t)`` method giving the right derivative.
    Returns the arrays (norm, rderiv), one entry per probe.
    """
    X = apply_to_extended(fam(t), stack, k)
    Xdot = apply_to_extended(fam.dot(t), stack, k)
    lam, V = np.linalg.eigh((X + np.conj(np.swapaxes(X, -1, -2))) / 2)
    mag = np.abs(lam)
    kernel = mag <= KERNEL_CUTOFF * mag.max(axis=-1, keepdims=True)
    XdotV = Xdot @ V
    rates = np.einsum("...ji,...ji->...i", V.conj(), XdotV).real  # <v_i|Xdot|v_i>
    rderiv = np.where(kernel, 0.0, np.sign(lam) * rates).sum(axis=-1)
    rows = np.flatnonzero(kernel.any(axis=-1))
    if rows.size:
        inner = np.conj(np.swapaxes(V[rows], -1, -2)) @ XdotV[rows]
        mask = kernel[rows, :, None] & kernel[rows, None, :]
        block = np.where(mask, (inner + np.conj(np.swapaxes(inner, -1, -2))) / 2, 0.0)
        rderiv[rows] += np.abs(np.linalg.eigvalsh(block)).sum(axis=-1)
    return mag.sum(axis=-1), rderiv


def norm_derivative_scan(fam, probes: ProbeSet, grid, k: int = 1,
                         slack: float = TOL_DERIV) -> ScanReport:
    """Right-derivative scan of ||(Lambda_t tensor Id_k)(X)||_1.

    ``fam`` is a callable t -> SuperOp on the system factor with a ``dot(t)``
    method for its right derivative (as ``qutrit_family.family`` returns);
    for k > 1 the probes must live on the product space.  Each grid point is
    one batched eigendecomposition of all probes (``norm_rderiv_at``), and
    the derivatives are exact.  Rows are sorted by (probe, t); a row fails
    when its right derivative exceeds ``slack``.
    """
    grid = list(grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise OperandError("grid must be non-empty and ascending")
    if k < 1:
        raise OperandError("k must be >= 1")
    stack = probes.stacked()
    n = stack.shape[0]

    norm_rows = np.empty((len(grid), n))
    deriv_rows = np.empty((len(grid), n))
    for gi, t in enumerate(grid):
        norm_rows[gi], deriv_rows[gi] = norm_rderiv_at(fam, stack, t, k)

    flat = deriv_rows.T  # (probe, grid)
    rderiv = flat.ravel()
    rows = np.rec.fromarrays(
        [np.tile(np.asarray(grid, dtype=float), n), np.repeat(np.arange(n), len(grid)),
         np.full(rderiv.size, k), norm_rows.T.ravel(), rderiv,
         np.where(rderiv > slack, "fail", "ok")],
        names=("t", "probe_id", "k", "norm", "rderiv", "verdict"))
    pmax, gmax = np.unravel_index(np.argmax(flat), flat.shape)
    max_rd = float(flat[pmax, gmax])
    return ScanReport(rows=rows, max_rderiv=max_rd,
                      argmax_t=float(grid[gmax]), argmax_probe=int(pmax),
                      passed=max_rd <= slack, slack=slack, seed=probes.seed, k=k,
                      grid_spec={"points": len(grid), "t_min": float(grid[0]),
                                 "t_max": float(grid[-1])})


def gamma4_norm_closed_form(lam, tau, theta):
    """||Gamma^(4)_tau(rho_A - lam rho_B)||_1 for lam >= 0 (vectorized)."""
    lam = np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(lam < 0) or np.any(tau < 0) or np.any(tau > 1):
        raise OperandError("need lam >= 0 and tau in [0, 1]")
    root = np.sqrt(1 + lam ** 2 + 2 * lam * np.cos(2 * theta * tau))
    out = 0.5 * ((1 - tau ** 2) * np.abs(lam - 1) + (1 + tau ** 2) * root)
    return float(out) if out.ndim == 0 else out


def gamma4_derivative_closed_form(lam, tau, theta):
    """d/dtau of the closed-form norm above (vectorized, lam >= 0).

    Raises SingularPointError when the square-root denominator vanishes
    (lam = 1 with 2*theta*tau = pi), a measure-zero configuration that grid
    sweeps skip and report.
    """
    lam = np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(lam < 0) or np.any(tau < 0) or np.any(tau > 1):
        raise OperandError("need lam >= 0 and tau in [0, 1]")
    root = np.sqrt(1 + lam ** 2 + 2 * lam * np.cos(2 * theta * tau))
    if np.any(root <= 1e-12):
        raise SingularPointError("vanishing denominator at lam = 1, 2*theta*tau = pi")
    out = (tau * (-np.abs(lam - 1) + root)
           - lam * theta * (1 + tau ** 2) * np.sin(2 * theta * tau) / root)
    return float(out) if out.ndim == 0 else out


def gamma4_norm_numeric(lam: float, tau: float, theta: float) -> float:
    """Full matrix-evaluation oracle for the closed-form norm."""
    from .operators import trace_norm
    params = MapParams(theta=theta)
    return trace_norm(gamma_family(4, tau, params).apply(lambda_probe(lam)))


def _root(lam, tau, theta):
    """sqrt(1 + lam^2 + 2 lam cos(2 theta tau)), the closed forms' square root."""
    return np.sqrt(1 + lam ** 2 + 2 * lam * np.cos(2 * theta * tau))


def _closed_form_mesh(lam, tau, theta):
    """Closed-form derivative on the broadcast (lam, tau) mesh, with -inf at
    its singular points (lam = 1, 2*theta*tau = pi); returns (values, number
    of singular points)."""
    lam, tau = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                   np.asarray(tau, dtype=float))
    keep = _root(lam, tau, theta) > 1e-12
    vals = np.full(keep.shape, -math.inf)
    if keep.any():
        vals[keep] = gamma4_derivative_closed_form(lam[keep], tau[keep], theta)
    return vals, int(keep.size - keep.sum())


def theta_window_sweep(theta_grid, tau_grid, lam_grid) -> list:
    """Locate the worst (lam, tau) of the closed-form derivative per theta.

    Rows report the maximum, its location (the first maximum in lam-major
    order) and a violation flag; singular grid points are skipped and
    counted.
    """
    tau = np.asarray(list(tau_grid), dtype=float)
    lam = np.asarray(list(lam_grid), dtype=float)
    lam_mesh, tau_mesh = np.meshgrid(lam, tau, indexing="ij")
    rows = []
    for theta in theta_grid:
        vals, skipped = _closed_form_mesh(lam_mesh, tau_mesh, theta)
        best, best_lam, best_tau = -math.inf, None, None
        if skipped < vals.size:
            i, j = np.unravel_index(np.argmax(vals), vals.shape)
            best, best_lam, best_tau = float(vals[i, j]), float(lam[i]), float(tau[j])
        rows.append({"theta": float(theta), "max_deriv": best,
                     "arg_lambda": best_lam, "arg_tau": best_tau,
                     "violation": best > TOL_CLOSED_FORM,
                     "singular_points_skipped": skipped})
    return rows


def bound_chain_check(theta: float, tau_grid, lam_grid=None) -> dict:
    """Pointwise ledger for the analytic bound chain at a given theta.

    Per tau (for lam >= 1):
      link1: sup over the lam grid of the closed-form derivative <= bound_a,
             where bound_a = tau*sqrt(2 + 2cos(2 theta tau))
                             - (1 + tau^2) (theta/2) sin(2 theta tau);
      link2: bound_a == cos(theta tau) * [2 tau - (1 + tau^2) theta sin(theta tau)]
             (half-angle rewrite, theta in [0, pi/2]);
      link3: the bracketed term <= (2 - theta^2) tau - (theta^2 - theta^4/3) tau^3;
      link4 (only meaningful for theta >= sqrt(2)): the polynomial <= 0.
    ``rows`` is a NumPy record array with one row per tau.  Also checks that
    the bracketed part of the derivative is monotonically decreasing in lam,
    via its lam-derivative on a (lam, theta*tau) grid.  Both lam x tau meshes
    skip the closed forms' singular points (lam = 1, 2*theta*tau = pi, where
    the square root vanishes) and count them in ``singular_points_skipped``.
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise OperandError("bound chain is stated for theta in [0, pi/2]")
    tau = np.asarray(list(tau_grid), dtype=float)
    lam = np.asarray(list(lam_grid) if lam_grid is not None else np.arange(1.0, 11.0))
    if np.any(lam < 1.0):
        raise OperandError("bound chain covers lam >= 1")
    tol = 1e-10
    vals, skipped = _closed_form_mesh(lam[:, None], tau, theta)
    sup = vals.max(axis=0)
    bound_a = (tau * np.sqrt(np.maximum(2 + 2 * np.cos(2 * theta * tau), 0.0))
               - (1 + tau * tau) * (theta / 2) * np.sin(2 * theta * tau))
    bracket = 2 * tau - (1 + tau * tau) * theta * np.sin(theta * tau)
    bound_b = np.cos(theta * tau) * bracket
    # float_power is the scalar pow; the array `tau ** 3` takes a SIMD power
    # that can differ in the last bit, which would move printed digits.
    poly = (2 - theta ** 2) * tau - (theta ** 2 - theta ** 4 / 3) * np.float_power(tau, 3)
    rows = np.rec.fromarrays(
        [tau, sup, bound_a, bound_b, bracket, poly, sup <= bound_a + tol,
         np.abs(bound_a - bound_b) <= tol, bracket <= poly + tol, poly <= tol],
        names=("tau", "sup_derivative", "bound_sqrt", "bound_cos", "bracket",
               "polynomial", "link1", "link2", "link3", "link4"))
    # lam-monotonicity of the bracketed term: its lam-derivative is
    # -1 + (lam + cos(2 theta tau)) / sqrt(1 + lam^2 + 2 lam cos(2 theta tau)) <= 0.
    mono_lam, mono_tau = np.broadcast_arrays(np.linspace(1.0, 10.0, 37)[:, None], tau)
    root = _root(mono_lam, mono_tau, theta)
    keep = root > 1e-12
    mono = np.full(keep.shape, -math.inf)
    mono[keep] = -1 + (mono_lam[keep] + np.cos(2 * theta * mono_tau[keep])) / root[keep]
    skipped += int(keep.size - keep.sum())
    return {"theta": theta, "rows": rows, "singular_points_skipped": skipped,
            "chain_ok": bool(np.all(rows.link1 & rows.link2 & rows.link3)),
            "polynomial_nonpositive": bool(np.all(rows.link4)),
            "lambda_monotone": not np.any(mono > tol),
            "worst_lambda_derivative": float(np.max(mono, initial=-math.inf))}


def lambda_reflection_check(lam: float, tau: float, theta: float,
                            tol: float = 1e-10) -> bool:
    """Reflection identity d(lam) = lam * d(1/lam) for 0 < lam < 1."""
    if not 0.0 < lam < 1.0:
        raise OperandError("reflection check covers 0 < lam < 1")
    lhs = gamma4_derivative_closed_form(lam, tau, theta)
    rhs = lam * gamma4_derivative_closed_form(1.0 / lam, tau, theta)
    return abs(lhs - rhs) <= tol
