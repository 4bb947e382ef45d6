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
from .qutrit_family import RHO_A, RHO_B
from .superops import GRID_CHUNK, apply_to_extended
from .tolerances import (KERNEL_CUTOFF, SINGULAR_ROOT, TOL_BOUND_CHAIN,
                         TOL_CLOSED_FORM, TOL_DERIV, TOL_REFLECTION)


class SingularPointError(ValueError):
    """Closed-form derivative evaluated at its vanishing-denominator point."""


def lambda_probe(lam: float) -> np.ndarray:
    """The probe rho_A - lam * rho_B (trace 1 - lam)."""
    return RHO_A - lam * RHO_B


# Rows per batch of CSV lines, each formatted by one % operation.  Speed is
# flat from 2048 to 16384 rows, while the heap a batch's temporaries take
# (about 250 bytes a row) grows with it: 16384-row batches raised the peak
# RSS of a run of 100k-row scans by 1.5 MB.
CSV_ROWS = 1 << 12


def write_csv(path, header, fmt: str, columns) -> None:
    """Write equal-length ``columns`` (lists or arrays) as CSV with CRLF line
    ends, one row per index; ``fmt`` is the %-format of one row without its
    line end.  Each batch of up to CSV_ROWS rows is one ``(fmt * n) % values``
    on the batch's values interleaved row by row."""
    width, total = len(columns), len(columns[0])
    row = fmt + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, total, CSV_ROWS):
            n = min(CSV_ROWS, total - i)
            values = [None] * (n * width)
            for j, column in enumerate(columns):
                part = column[i:i + n]
                values[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
            fh.write((row * n) % tuple(values))


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
        """Write the rows with ``write_csv``; the lead ``t,probe_id,k,`` of a
        row is formatted once per grid point and once per probe."""
        rows, points = self.rows, self.grid_spec["points"]
        ts = [f"{t:.12g}," for t in rows.t[:points].tolist()]
        ids = [f"{p},{k}," for p, k in zip(rows.probe_id[::points].tolist(),
                                           rows.k[::points].tolist())]
        write_csv(path, rows.dtype.names, "%s%s%.15g,%.15g,%s",
                  [ts * len(ids), [p for p in ids for _ in ts],
                   rows.norm, rows.rderiv, rows.verdict])

    def summary(self) -> dict:
        return {
            "max_rderiv": self.max_rderiv,
            "argmax_t": self.argmax_t,
            "argmax_probe": self.argmax_probe,
            "passed": self.passed,
            "slack": self.slack,
            "seed": self.seed,
            "k": self.k,
            "grid": self.grid_spec,
        }


# A scan batch holds the probes at up to GRID_CHUNK grid points, so one
# apply per map kind and at most one eigh serve the whole batch.  It also
# holds at most SCAN_CHUNK_ENTRIES complex entries of evolved probes (about
# 2048 qutrit probes), and at least one grid point: a probe stack that fills
# the budget alone (2000 probes, or 500 at k = 2) keeps one point per batch,
# where batching saves no per-call overhead worth the memory.
SCAN_CHUNK_ENTRIES = 2048 * 9


# Vectorized indices j*3 + i of the off-diagonal qutrit matrix units |i><j|:
# a map whose rows there are all 0 has diagonal output.
_OFF_DIAGONAL = [1, 2, 3, 5, 6, 7]


def _eigh_norm_rderiv(X: np.ndarray, Xdot: np.ndarray):
    """Trace norms and exact right derivatives (see ``norm_rderiv_at``) of a
    stack (..., n, n) of operators X with derivatives Xdot, from one batched
    eigh: the general path of ``_norm_rderiv``."""
    lam, V = np.linalg.eigh((X + np.conj(np.swapaxes(X, -1, -2))) / 2)
    mag = np.abs(lam)
    # eigh sorts lam ascending, so the largest |lam| sits at one end
    kernel = mag <= KERNEL_CUTOFF * np.maximum(mag[..., :1], mag[..., -1:])
    XdotV = Xdot @ V
    rates = np.einsum("...ji,...ji->...i", V.conj(), XdotV).real  # <v_i|Xdot|v_i>
    rderiv = np.where(kernel, 0.0, np.sign(lam) * rates).sum(axis=-1)
    rows = np.nonzero(kernel.any(axis=-1))
    if rows[0].size:
        inner = np.conj(np.swapaxes(V[rows], -1, -2)) @ XdotV[rows]
        mask = kernel[rows][:, :, None] & kernel[rows][:, None, :]
        block = np.where(mask, (inner + np.conj(np.swapaxes(inner, -1, -2))) / 2, 0.0)
        rderiv[rows] += np.abs(np.linalg.eigvalsh(block)).sum(axis=-1)
    return mag.sum(axis=-1), rderiv


def _dephased_norm_rderiv(X: np.ndarray, Xdot: np.ndarray, dephased: np.ndarray):
    """``_eigh_norm_rderiv`` of qutrit stacks X, Xdot (points, probes, 3, 3)
    whose X is exactly diagonal at the points marked in ``dephased``.

    There the eigenvalues of X are its real diagonal sorted ascending, and
    each <v_i|Xdot|v_i> is the matching diagonal entry of Xdot, so a row
    skips eigh unless it has a kernel eigenvalue or two equal diagonal
    entries; the norm and sign sum are then reduced as eigh's path reduces
    them, to the same bits.  (LAPACK rescales a matrix whose largest entry
    lies outside about [1e-146, 1e146] and then rounds even a diagonal; the
    shortcut keeps the exact diagonal there.)  Every other row goes through
    one batched eigh.
    """
    lam = np.diagonal(X, axis1=-2, axis2=-1)[dephased].real
    order = np.argsort(lam, axis=-1)
    lam = np.take_along_axis(lam, order, axis=-1)
    # eigh's path sums each rate from +0.0, so a zero rate is +0.0 there too;
    # the sign sum below then matches whatever value a reduction starts from
    rates = np.take_along_axis(np.diagonal(Xdot, axis1=-2, axis2=-1)[dephased].real,
                               order, axis=-1) + 0.0
    mag = np.abs(lam)
    norm, rderiv = np.empty(X.shape[:2]), np.empty(X.shape[:2])
    norm[dephased] = mag.sum(axis=-1)
    rderiv[dephased] = (np.sign(lam) * rates).sum(axis=-1)
    # rows with a kernel eigenvalue or a tie, and rows off the dephased
    # points, take eigh; NaN and inf fail both comparisons and take it too
    slow = np.ones(X.shape[:2], dtype=bool)
    slow[dephased] = ~((mag.min(axis=-1) > KERNEL_CUTOFF * mag.max(axis=-1))
                       & (lam[..., 1:] > lam[..., :-1]).all(axis=-1))
    if slow.any():
        norm[slow], rderiv[slow] = _eigh_norm_rderiv(X[slow], Xdot[slow])
    return norm, rderiv


def _norm_rderiv(fam, stack: np.ndarray, ts, k: int):
    """Trace norms and exact right derivatives at the grid points ``ts``:
    two arrays (len(ts), probes), from one apply per map kind.

    For k = 1, the points whose Lambda_t has diagonal output (its rows at
    ``_OFF_DIAGONAL`` are exactly 0, as after the complete dephasing E1 on
    [t1, t3]) map every probe to a diagonal X, and take the shortcut of
    ``_dephased_norm_rderiv``.  All other rows, and every row for k > 1, go
    through one batched eigh (``_eigh_norm_rderiv``).  The test is per
    point and both paths give the same bits on a row, so neither the
    shortcut nor the chunking moves a result.
    """
    maps = fam.stack(ts)
    X = apply_to_extended(maps, stack, k)
    Xdot = apply_to_extended(fam.dot_stack(ts), stack, k)
    dephased = ~maps[:, _OFF_DIAGONAL].any(axis=(-2, -1))
    if k > 1 or not dephased.any():
        return _eigh_norm_rderiv(X, Xdot)
    return _dephased_norm_rderiv(X, Xdot, dephased)


def norm_rderiv_at(fam, stack: np.ndarray, t: float, k: int = 1):
    """Trace norms ||X||_1 of X = (Lambda_t tensor Id_k)(probe) for a stack of
    probes, and their exact right time-derivatives.

    With X = sum_i lam_i |v_i><v_i| and Xdot = (dLambda_t/dt tensor Id_k)(probe),
    the right derivative is (Kato, Perturbation Theory, ch. II)

        sum_{lam_i != 0} sign(lam_i) <v_i|Xdot|v_i> + ||P0 Xdot P0||_1,

    P0 the projector onto the kernel of X, which is the eigenvalues with
    |lam| <= KERNEL_CUTOFF * max |lam| of each probe.  ``fam`` is a
    ``qutrit_family.Family``, whose grids ``stack``/``dot_stack`` are used.
    Returns the arrays (norm, rderiv), one entry per probe: the one-point
    batch of ``norm_derivative_scan``.
    """
    norm, rderiv = _norm_rderiv(fam, stack, [t], k)
    return norm[0], rderiv[0]


def norm_derivative_scan(fam, probes: ProbeSet, grid, k: int = 1,
                         slack: float = TOL_DERIV) -> ScanReport:
    """Right-derivative scan of ||(Lambda_t tensor Id_k)(X)||_1.

    ``fam`` is a ``qutrit_family.Family`` on the system factor; for k > 1 the
    probes must live on the product space.  The grid goes in consecutive
    batches of grid points (see SCAN_CHUNK_ENTRIES), each one ``fam.stack``
    and ``fam.dot_stack`` call and at most one batched eigendecomposition of
    its points and probes, and the derivatives are exact (``norm_rderiv_at``).
    For k = 1, points where Lambda_t has diagonal output ([t1, t3], after
    the complete dephasing E1) read eigenvalues and rates off the diagonals
    instead; rows with a kernel eigenvalue or a repeated diagonal entry fall
    back to eigh.  Neither the shortcut nor the batching changes any bit of
    a result.  Rows are sorted by (probe, t); a row fails when its right
    derivative exceeds ``slack``.
    """
    grid = list(grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise OperandError("grid must be non-empty and ascending")
    if k < 1:
        raise OperandError("k must be >= 1")
    stack = probes.stacked()
    n = stack.shape[0]
    chunk = max(1, min(GRID_CHUNK, SCAN_CHUNK_ENTRIES // stack.size))

    norm_rows = np.empty((len(grid), n))
    deriv_rows = np.empty((len(grid), n))
    for i in range(0, len(grid), chunk):
        part = slice(i, i + chunk)
        norm_rows[part], deriv_rows[part] = _norm_rderiv(fam, stack, grid[part], k)

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


def _root(lam, tau, theta):
    """sqrt(1 + lam^2 + 2 lam cos(2 theta tau)), the closed forms' square root."""
    return np.sqrt(1 + lam ** 2 + 2 * lam * np.cos(2 * theta * tau))


def gamma4_norm_closed_form(lam, tau, theta):
    """||Gamma^(4)_tau(rho_A - lam rho_B)||_1 for lam >= 0 (vectorized)."""
    lam = np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(lam < 0) or np.any(tau < 0) or np.any(tau > 1):
        raise OperandError("need lam >= 0 and tau in [0, 1]")
    root = _root(lam, tau, theta)
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
    root = _root(lam, tau, theta)
    if np.any(root <= SINGULAR_ROOT):
        raise SingularPointError("vanishing denominator at lam = 1, 2*theta*tau = pi")
    out = (tau * (-np.abs(lam - 1) + root)
           - lam * theta * (1 + tau ** 2) * np.sin(2 * theta * tau) / root)
    return float(out) if out.ndim == 0 else out


def _closed_form_mesh(fn, lam, tau, theta):
    """``fn(lam, tau, theta)`` on the broadcast (lam, tau) mesh, with -inf at
    the closed forms' singular points (lam = 1, 2*theta*tau = pi, where
    ``_root`` vanishes); returns (values, number of singular points)."""
    lam, tau = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                   np.asarray(tau, dtype=float))
    keep = _root(lam, tau, theta) > SINGULAR_ROOT
    vals = np.full(keep.shape, -math.inf)
    if keep.any():
        vals[keep] = fn(lam[keep], tau[keep], theta)
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
        vals, skipped = _closed_form_mesh(gamma4_derivative_closed_form,
                                          lam_mesh, tau_mesh, theta)
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
    vals, skipped = _closed_form_mesh(gamma4_derivative_closed_form,
                                      lam[:, None], tau, theta)
    sup = vals.max(axis=0)
    bound_a = (tau * np.sqrt(np.maximum(2 + 2 * np.cos(2 * theta * tau), 0.0))
               - (1 + tau * tau) * (theta / 2) * np.sin(2 * theta * tau))
    bracket = 2 * tau - (1 + tau * tau) * theta * np.sin(theta * tau)
    bound_b = np.cos(theta * tau) * bracket
    # float_power is the scalar pow; the array `tau ** 3` takes a SIMD power
    # that can differ in the last bit, which would move printed digits.
    poly = (2 - theta ** 2) * tau - (theta ** 2 - theta ** 4 / 3) * np.float_power(tau, 3)
    rows = np.rec.fromarrays(
        [tau, sup, bound_a, bound_b, bracket, poly,
         sup <= bound_a + TOL_BOUND_CHAIN, np.abs(bound_a - bound_b) <= TOL_BOUND_CHAIN,
         bracket <= poly + TOL_BOUND_CHAIN, poly <= TOL_BOUND_CHAIN],
        names=("tau", "sup_derivative", "bound_sqrt", "bound_cos", "bracket",
               "polynomial", "link1", "link2", "link3", "link4"))
    # lam-monotonicity of the bracketed term: its lam-derivative is
    # -1 + (lam + cos(2 theta tau)) / sqrt(1 + lam^2 + 2 lam cos(2 theta tau)) <= 0.
    mono, mono_skipped = _closed_form_mesh(
        lambda lam, tau, theta: -1 + (lam + np.cos(2 * theta * tau)) / _root(lam, tau, theta),
        np.linspace(1.0, 10.0, 37)[:, None], tau, theta)
    skipped += mono_skipped
    return {"theta": theta, "rows": rows, "singular_points_skipped": skipped,
            "chain_ok": bool(np.all(rows.link1 & rows.link2 & rows.link3)),
            "polynomial_nonpositive": bool(np.all(rows.link4)),
            "lambda_monotone": not np.any(mono > TOL_BOUND_CHAIN),
            "worst_lambda_derivative": float(np.max(mono, initial=-math.inf))}


def lambda_reflection_check(lam: float, tau: float, theta: float,
                            tol: float = TOL_REFLECTION) -> bool:
    """Reflection identity d(lam) = lam * d(1/lam) for 0 < lam < 1."""
    if not 0.0 < lam < 1.0:
        raise OperandError("reflection check covers 0 < lam < 1")
    lhs = gamma4_derivative_closed_form(lam, tau, theta)
    rhs = lam * gamma4_derivative_closed_form(1.0 / lam, tau, theta)
    return abs(lhs - rhs) <= tol
