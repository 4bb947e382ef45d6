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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operators import OperandError, trace_norm
from .superops import GRID_CHUNK, SuperOp, choi_min_eigenvalue
from .tolerances import RANK_CUTOFF, RESIDUAL_TOL, TOL_PSD


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


def _intermediate_maps(Ls: np.ndarray, Lt: np.ndarray):
    """V = Lt pinv(Ls) for stacks (c, n, n) of map matrices, with a
    rank-revealing pseudoinverse; one batched SVD and matmul each.

    The pseudoinverse takes np.linalg.pinv(Ls, rcond=RANK_CUTOFF)'s steps, so
    V is bit-equal to it, and the rank is read off the same singular values.
    Returns the arrays (V, residual, definedness), one entry per interval.
    """
    n = Ls.shape[-1]
    u, sv, vh = np.linalg.svd(Ls.conj(), full_matrices=False)
    large = sv > RANK_CUTOFF * sv[:, :1]
    inv = np.divide(1, sv, out=np.zeros_like(sv), where=large)
    V = Lt @ (np.swapaxes(vh, -1, -2) @ (inv[..., None] * np.swapaxes(u, -1, -2)))
    residual = np.abs(V @ Ls - Lt).max(axis=(-2, -1))
    definedness = np.where(large.sum(axis=-1) == n, "exact",
                           np.where(residual < RESIDUAL_TOL, "image-restricted",
                                    "inconsistent"))
    return V, residual, definedness


def intermediate_map(family, s: float, t: float) -> IntermediateMap:
    """V = Lambda_t pinv(Lambda_s), with rank-revealing pseudoinverse: the
    one-interval batch of ``cp_divisibility_scan``."""
    if s >= t:
        raise OperandError("need s < t")
    Ls, Lt = family.stack([s, t])
    V, residual, kind = _intermediate_maps(Ls[None], Lt[None])
    return IntermediateMap(s=s, t=t, map=SuperOp(V[0]),
                           residual=float(residual[0]), definedness=str(kind[0]))


def cp_divisibility_scan(family, grid) -> np.recarray:
    """Per-interval CP verdicts for consecutive grid pairs.

    A record array ``s, t, definedness, residual, choi_min_eig, verdict``,
    one row per interval: its definedness, residual, the Choi minimum
    eigenvalue of the (minimum-norm completed) intermediate map and a
    verdict in {"CP", "not-CP", "undefined-off-image"}.  The not-CP verdict
    on rank-deficient intervals refers to the completion; the forcing
    witness is the extension-independent certificate.  ``family`` is read
    only through one ``family.stack(grid)`` (none for fewer than two
    points), and the intervals go in batches of GRID_CHUNK through one SVD,
    pinv and Choi eigvalsh each; the batching does not change any result.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if (grid[1:] <= grid[:-1]).any():  # NaN is left to family.stack
        raise OperandError("grid must be ascending")
    n = max(len(grid) - 1, 0)
    residual, lowest, definedness = np.empty(n), np.empty(n), np.empty(n, dtype="U16")
    maps = family.stack(grid) if n else None
    for i in range(0, n, GRID_CHUNK):
        stop = min(i + GRID_CHUNK, n)
        V, residual[i:stop], definedness[i:stop] = _intermediate_maps(
            maps[i:stop], maps[i + 1:stop + 1])
        lowest[i:stop] = choi_min_eigenvalue(V)
    inconsistent = definedness == "inconsistent"
    return np.rec.fromarrays(
        [grid[:-1], grid[1:], definedness, residual, np.where(inconsistent, np.nan, lowest),
         np.where(inconsistent, "undefined-off-image",
                  np.where(lowest >= -TOL_PSD, "CP", "not-CP"))],
        names=("s", "t", "definedness", "residual", "choi_min_eig", "verdict"))


def positive_forcing_witness(family, s: float, t: float) -> ForcingWitness | None:
    """Pure-state forcing configuration on (s, t), from the basis inputs.

    Lambda_s and Lambda_t come from one ``family.stack([s, t])`` call, and the
    inputs are the basis projectors |i><i|, whose images are columns i(d + 1)
    of the two map matrices.  Input i is a candidate when Lambda_t sends it to
    a rank-1 target pi while Lambda_s sends it to a sigma of higher rank, with
    ranks counted above RANK_CUTOFF; an input whose sigma has trace at most
    RANK_CUTOFF is dropped.  For each pair of candidates whose sigma supports
    intersect, the shared vector's projector is forced onto both targets; the
    best (largest trace-norm discrepancy) configuration is returned, or None
    when no configuration exists.
    """
    if s >= t:
        raise OperandError("need s < t")
    maps = family.stack([s, t])
    d = math.isqrt(maps.shape[-1])
    # column i(d + 1) is vec(Lambda(|i><i|)); its entry col*d + row splits
    # into (col, row), so [map, i] below is Lambda(|i><i|)
    images = maps[:, :, ::d + 1].reshape(2, d, d, d).transpose(0, 3, 2, 1)
    tr = np.trace(images[0], axis1=-2, axis2=-1).real
    images = images[:, tr > RANK_CUTOFF] / tr[tr > RANK_CUTOFF, None, None]
    vals, vecs = np.linalg.eigh((images + np.swapaxes(images, -1, -2).conj()) / 2)
    rank = (vals > RANK_CUTOFF).sum(axis=-1)
    candidates = np.flatnonzero((rank[1] == 1) & (rank[0] > 1))
    # I minus the support projector of each candidate's sigma
    off_support = {}
    for i in candidates:
        support = vecs[0, i][:, vals[0, i] > RANK_CUTOFF]
        off_support[i] = np.eye(d) - support @ support.conj().T

    best = None
    for a, b in itertools.combinations(candidates, 2):
        gap, shared = np.linalg.eigh(off_support[a] + off_support[b])
        if gap[0] >= RANK_CUTOFF:
            continue
        disc = trace_norm(images[1, a] - images[1, b])
        if best is None or disc > best.discrepancy:
            best = ForcingWitness(shared_vector=shared[:, 0],
                                  forced_targets=(images[1, a], images[1, b]),
                                  discrepancy=disc)
    return best
