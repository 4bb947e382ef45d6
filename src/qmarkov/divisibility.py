"""Intermediate-map construction and divisibility certification.

Given a family t -> Lambda_t, an intermediate map V on an interval (s, t)
solves V Lambda_s = Lambda_t.  For the qutrit ``Family`` every interval
with s < t3 has one in closed form: inside stage i <= 3 a pencil a V0 +
(1 - a) V1 of two channels, and from stage 1 or 2 into a later stage
Lambda_t itself.  Such a V is CPTP by construction, and each row records
how well it reproduces Lambda_t, its Choi minimum eigenvalue and its trace
error.  Every other interval, and every interval of any other family, takes
the minimum-norm completion Lambda_t pinv(Lambda_s): on invertible stretches
the unique propagator, and where Lambda_s is rank deficient pinned down
only on its image, which the result flags honestly.  Non-P-divisibility is
certified separately by a pure-state forcing argument that quantifies over
all extensions and never relies on the off-image completion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operators import OperandError, trace_norm
from .qutrit_family import _CHAIN, Family, _blend, _stages, _weights
from .superops import GRID_CHUNK, SuperOp, choi_min_eigenvalue, tp_error
from .tolerances import RANK_CUTOFF, RESIDUAL_TOL, TOL_PSD


@dataclass(frozen=True)
class IntermediateMap:
    s: float
    t: float
    map: SuperOp
    residual: float
    definedness: str  # "exact" | "image-restricted" | "inconsistent"
    certificate: str  # "closed-form" | "completion"


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


# M(X) = Tr X |2><2|, the map that prepares |2><2|.
_TRACE_TO_2 = np.zeros((9, 9))
_TRACE_TO_2[8, ::4] = 1.0
_TRACE_TO_2.flags.writeable = False

# The closed-form intermediate maps V = a V0 + (1 - a) V1 for s < t in one
# stage i <= 3, (V0, V1) per stage.  There Lambda = w P_{i-1} + (1 - w) P_i
# (qutrit_family's chain P0 = Id, P1 = E1, P2 = E2 E1, P3 = E3 E2 E1).
# Stages 1 and 2 take (P_{i-1}, P_i) with a = w_t / w_s, since P_i
# P_{i-1} = P_{i-1} P_i = P_i P_i = P_i.  Stage 3 takes (E1, M) with a =
# (1 + w_t) / (1 + w_s): P3 = (P2 + M) / 2, so Lambda_s = (1 + w_s) / 2 P2 +
# (1 - w_s) / 2 M, which E1 fixes and M sends to M.  For a in [0, 1] each V
# is a convex combination of two channels, so CPTP.
_PENCILS = ((_CHAIN[0], _CHAIN[1]), (_CHAIN[1], _CHAIN[2]), (_CHAIN[1], _TRACE_TO_2))


def _closed_forms(family, grid: np.ndarray):
    """(pencil, a, invertible) per interval (grid[i], grid[i + 1]) of an
    ascending grid, with s's stage from the right and t's from the left
    (``_stages``), so t = t_j closes the stage before it: pencil k in 0..2
    where V = a V0 + (1 - a) V1 of ``_PENCILS[k]`` (s and t in stage k + 1),
    3 where V = Lambda_t (s in stage 1 or 2 and t in a later one, as
    P_j Lambda_s = P_j for every chain map P_j after s's stage), and -1
    where only the completion applies (s in stage 3 and t after t3, s in
    stage 4, or a family that is not a ``Family``); ``invertible`` holds
    where Lambda_s is (stage 1).  Where w_s underflows to 0, Lambda_s and
    Lambda_t are both P_i, and a = 0 gives V = P_i."""
    s, t = grid[:-1], grid[1:]
    pencil, a = np.full(len(s), -1), np.zeros(len(s))
    if not isinstance(family, Family):
        return pencil, a, np.zeros(len(s), dtype=bool)
    params = family.params
    stage_s, stage_t = _stages(s, params), _stages(t, params, left=True)
    starts = (0.0, params.t1, params.t2, params.t3)
    for i in range(3):
        at = (stage_s == i) & (stage_t == i)
        length = starts[i + 1] - starts[i]
        w_s, w_t = (_weights(i + 1, (x[at] - starts[i]) / length, False).ravel()
                    for x in (s, t))
        if i == 2:
            w_s, w_t = 1.0 + w_s, 1.0 + w_t
        a[at] = np.divide(w_t, w_s, out=np.zeros_like(w_t), where=w_s > 0)
        pencil[at] = i
    pencil[(stage_s < 2) & (stage_t > stage_s)] = 3
    return pencil, a, stage_s == 0


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


def _interval_maps(Ls: np.ndarray, Lt: np.ndarray, pencil, a, invertible):
    """(V, residual max |V Ls - Lt|, definedness) of a batch of intervals,
    as ``_closed_forms`` plans them: a pencil row is built from its a, a
    pencil-3 row copies Lt, and only the completion rows take the SVD of
    ``_intermediate_maps``, which also decides their definedness.  A
    closed-form row whose residual is not below RESIDUAL_TOL, which rounding
    never gives, reads "inconsistent" as a completion row would.  V has the
    stacks' dtype, and each row depends on its own interval alone."""
    V = np.empty_like(Lt)
    definedness = np.where(invertible, "exact", "image-restricted")
    for k in set(pencil.tolist()):
        at = pencil == k
        if k < 0:
            V[at], _, definedness[at] = _intermediate_maps(Ls[at], Lt[at])
        elif k == 3:
            V[at] = Lt[at]
        else:
            V[at] = _blend(a[at][:, None, None], *_PENCILS[k], False)
    residual = np.abs(V @ Ls - Lt).max(axis=(-2, -1))
    definedness[(pencil >= 0) & ~(residual < RESIDUAL_TOL)] = "inconsistent"
    return V, residual, definedness


def intermediate_map(family, s: float, t: float) -> IntermediateMap:
    """An intermediate map on (s, t), the one-interval batch of
    ``cp_divisibility_scan``: its closed form where the scan has one, else
    V = Lambda_t pinv(Lambda_s) with a rank-revealing pseudoinverse."""
    if s >= t:
        raise OperandError("need s < t")
    grid = np.array([s, t], dtype=float)
    pencil, a, invertible = _closed_forms(family, grid)
    Ls, Lt = family.stack([s, t])
    V, residual, kind = _interval_maps(Ls[None], Lt[None], pencil, a, invertible)
    return IntermediateMap(s=s, t=t, map=SuperOp(V[0]), residual=float(residual[0]),
                           definedness=str(kind[0]),
                           certificate="closed-form" if pencil[0] >= 0 else "completion")


def cp_divisibility_scan(family, grid) -> np.recarray:
    """Per-interval CP verdicts for consecutive grid pairs.

    A record array ``s, t, certificate, definedness, residual, choi_min_eig,
    tp_error, verdict``, one row per interval.  ``certificate`` names the
    intermediate map V: ``closed-form`` for a qutrit ``Family`` on every
    interval with s < t3 except the one across t3 (``_closed_forms``), else
    ``completion``, the minimum-norm Lambda_t pinv(Lambda_s).  Each row
    records V's residual max |V Lambda_s - Lambda_t|, its Choi minimum
    eigenvalue and its trace error (``superops.tp_error``).  The verdict is
    in {"CP", "not-CP", "undefined-off-image"}: a closed-form row reads CP
    when its Choi minimum is at least -TOL_PSD and its trace error at most
    TOL_PSD, a completion row on its Choi minimum alone.  A closed-form
    row's definedness comes from its stage: ``exact`` where Lambda_s is
    invertible (stage 1), else ``image-restricted``.  A completion row's
    comes from the rank and residual of its SVD, and the not-CP verdict on a
    rank-deficient interval refers to the completion; the forcing witness is
    the extension-independent certificate.  ``family`` is read only through
    one ``family.stack(grid)`` (none for fewer than two points); the stages
    and weights are read once per grid, and the intervals go in batches of
    GRID_CHUNK through one Choi eigvalsh, one trace error and, for the
    completion rows, one SVD each.  The batching does not change any result.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if (grid[1:] <= grid[:-1]).any():  # NaN is left to the stages and family.stack
        raise OperandError("grid must be ascending")
    n = max(len(grid) - 1, 0)
    pencil, a, invertible = _closed_forms(family, grid)
    residual, lowest, trace_error = np.empty(n), np.empty(n), np.empty(n)
    definedness = np.empty(n, dtype="U16")
    maps = family.stack(grid) if n else None
    for i in range(0, n, GRID_CHUNK):
        part = slice(i, min(i + GRID_CHUNK, n))
        V, residual[part], definedness[part] = _interval_maps(
            maps[part], maps[part.start + 1:part.stop + 1], pencil[part], a[part],
            invertible[part])
        lowest[part], trace_error[part] = choi_min_eigenvalue(V), tp_error(V)
    closed = pencil >= 0
    inconsistent = definedness == "inconsistent"
    cp = (lowest >= -TOL_PSD) & ~(closed & (trace_error > TOL_PSD))
    return np.rec.fromarrays(
        [grid[:-1], grid[1:], np.where(closed, "closed-form", "completion"), definedness,
         residual, np.where(inconsistent, np.nan, lowest),
         np.where(inconsistent, np.nan, trace_error),
         np.where(inconsistent, "undefined-off-image", np.where(cp, "CP", "not-CP"))],
        names=("s", "t", "certificate", "definedness", "residual", "choi_min_eig",
               "tp_error", "verdict"))


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
