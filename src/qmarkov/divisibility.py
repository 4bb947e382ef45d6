"""Intermediate-map construction and divisibility certification.

Given a family t -> Lambda_t, the intermediate map V on an interval (s, t)
is the minimum-norm solution of V Lambda_s = Lambda_t.  On invertible
stretches V is the unique propagator and its Choi spectrum decides CP; when
Lambda_s is rank deficient V is only pinned down on the image, which the
result flags honestly.  Non-P-divisibility is certified separately by a
pure-state forcing argument that quantifies over all extensions and never
relies on the off-image completion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import OperandError, trace_norm
from .superops import GRID_CHUNK, SuperOp, choi_min_eigenvalue
from .tolerances import PURITY_TOL, RANK_CUTOFF, RESIDUAL_TOL, TOL_PSD


@dataclass(frozen=True)
class IntermediateMap:
    s: float
    t: float
    map: SuperOp
    residual: float
    definedness: str  # "exact" | "image-restricted" | "inconsistent"


@dataclass(frozen=True)
class ForcingWitness:
    """Certificate that no positive TP intermediate map exists on (s, t).

    ``shared_vector`` is a unit vector lying in the supports of two mixed
    image states whose targets under Lambda_t are pure; positivity plus
    trace preservation forces its projector onto both targets at once, so a
    discrepancy above tolerance rules every extension out.
    """

    shared_vector: np.ndarray
    forced_targets: tuple
    discrepancy: float


def _intermediate_maps(Ls: np.ndarray, Lt: np.ndarray, tol: float):
    """V = Lt pinv(Ls) for stacks (c, n, n) of map matrices, with a
    rank-revealing pseudoinverse; one batched SVD and matmul each.

    The pseudoinverse takes np.linalg.pinv(Ls, rcond=tol)'s steps, so V is
    bit-equal to it, and the rank is read off the same singular values.
    Returns the arrays (V, residual, definedness), one entry per interval.
    """
    n = Ls.shape[-1]
    u, sv, vh = np.linalg.svd(Ls.conj(), full_matrices=False)
    large = sv > tol * sv[:, :1]
    inv = np.divide(1, sv, out=np.zeros_like(sv), where=large)
    V = Lt @ (np.swapaxes(vh, -1, -2) @ (inv[..., None] * np.swapaxes(u, -1, -2)))
    residual = np.abs(V @ Ls - Lt).max(axis=(-2, -1))
    definedness = np.where(large.sum(axis=-1) == n, "exact",
                           np.where(residual < RESIDUAL_TOL, "image-restricted",
                                    "inconsistent"))
    return V, residual, definedness


def _maps(family, ts) -> np.ndarray:
    """Matrices of ``family`` at ``ts``, stacked: one ``family.stack(ts)`` call
    when it has one (``qutrit_family.Family``), else one call per point."""
    stack = getattr(family, "stack", None)
    return stack(ts) if stack else np.stack([family(t).matrix for t in ts])


def intermediate_map(family, s: float, t: float, tol: float = RANK_CUTOFF) -> IntermediateMap:
    """V = Lambda_t pinv(Lambda_s), with rank-revealing pseudoinverse: the
    one-interval batch of ``cp_divisibility_scan``."""
    if s >= t:
        raise OperandError("need s < t")
    Ls, Lt = family(s), family(t)
    V, residual, definedness = _intermediate_maps(Ls.matrix[None], Lt.matrix[None], tol)
    return IntermediateMap(s=s, t=t, map=SuperOp(dim=Ls.dim, matrix=V[0]),
                           residual=float(residual[0]), definedness=str(definedness[0]))


def cp_divisibility_scan(family, grid, tol: float = TOL_PSD) -> list:
    """Per-interval CP verdicts for consecutive grid pairs.

    Each row carries the interval, definedness, residual, Choi minimum
    eigenvalue of the (minimum-norm completed) intermediate map and a
    verdict in {"CP", "not-CP", "undefined-off-image"}.  The not-CP verdict
    on rank-deficient intervals refers to the completion; the forcing
    witness is the extension-independent certificate.  ``family`` is any
    callable t -> SuperOp, evaluated once per grid point (through its
    ``stack`` when it has one), and the intervals go in batches of GRID_CHUNK
    through one SVD, pinv and Choi eigvalsh each; the batching does not
    change any result.
    """
    grid = list(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise OperandError("grid must be ascending")
    rows, maps = [], None
    for i in range(0, len(grid) - 1, GRID_CHUNK):
        stop = min(i + GRID_CHUNK, len(grid) - 1)
        fresh = _maps(family, grid[i + (maps is not None):stop + 1])
        # the previous batch's last map heads the next one
        maps = fresh if maps is None else np.concatenate([maps[-1:], fresh])
        V, residual, definedness = _intermediate_maps(maps[:-1], maps[1:], RANK_CUTOFF)
        lowest = choi_min_eigenvalue(V)
        for s, t, res, kind, lo in zip(grid[i:stop], grid[i + 1:stop + 1],
                                       residual, definedness, lowest):
            row = {"s": s, "t": t, "definedness": str(kind), "residual": float(res)}
            if kind == "inconsistent":
                row.update(choi_min_eig=float("nan"), verdict="undefined-off-image")
            else:
                row.update(choi_min_eig=float(lo), verdict="CP" if lo >= -tol else "not-CP")
            rows.append(row)
    return rows


def _support_projector(rho: np.ndarray, cutoff: float = RANK_CUTOFF) -> np.ndarray:
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    keep = vals > cutoff
    return vecs[:, keep] @ vecs[:, keep].conj().T


def _support_intersection(P1: np.ndarray, P2: np.ndarray,
                          cutoff: float = RANK_CUTOFF) -> np.ndarray | None:
    """Unit vector in Ran(P1) intersect Ran(P2), via the kernel of P1perp + P2perp."""
    d = P1.shape[0]
    gap = (np.eye(d) - P1) + (np.eye(d) - P2)
    vals, vecs = np.linalg.eigh(gap)
    if vals[0] < cutoff:
        return vecs[:, 0]
    return None


def positive_forcing_witness(family, s: float, t: float,
                             tol: float = PURITY_TOL) -> ForcingWitness | None:
    """Search for a pure-state forcing configuration on (s, t).

    Candidate inputs (computational-basis projectors plus a few seeded
    random pure states) are kept when Lambda_s sends them to a mixed state
    sigma while Lambda_t sends them to a pure target pi.  For each pair of
    candidates whose sigma supports intersect, the shared vector's projector
    is forced onto both targets; the best (largest trace-norm discrepancy)
    configuration is returned, or None when no configuration exists.
    """
    if s >= t:
        raise OperandError("need s < t")
    Ls, Lt = family(s), family(t)
    d = Ls.dim
    inputs = [np.outer(np.eye(d)[:, i], np.eye(d)[:, i]) for i in range(d)]
    rng = np.random.default_rng(7)
    for _ in range(2 * d):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        inputs.append(np.outer(psi, psi.conj()))

    candidates = []
    for state in inputs:
        sigma = Ls.apply(state)
        target = Lt.apply(state)
        tr = np.trace(sigma).real
        if tr <= tol:
            continue
        sigma = sigma / tr
        target = target / tr
        purity_target = float(np.trace(target @ target).real)
        purity_sigma = float(np.trace(sigma @ sigma).real)
        if purity_target > 1.0 - tol and purity_sigma < 1.0 - tol:
            candidates.append((sigma, target))

    best = None
    for a in range(len(candidates)):
        for b in range(a + 1, len(candidates)):
            sig1, pi1 = candidates[a]
            sig2, pi2 = candidates[b]
            shared = _support_intersection(_support_projector(sig1),
                                           _support_projector(sig2))
            if shared is None:
                continue
            disc = trace_norm(pi1 - pi2)
            if best is None or disc > best.discrepancy:
                best = ForcingWitness(shared_vector=shared,
                                      forced_targets=(pi1, pi2),
                                      discrepancy=disc)
    return best
