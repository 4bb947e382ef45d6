"""Superoperator algebra in the column-stacking convention.

A linear map on d x d operators is stored as its d^2 x d^2 matrix acting on
column-stacked vectorizations, vec(|i><j|) sitting at index j*d + i.  All
Choi/Kraus formulas below are written against this single convention.
Also here: CP read off the Choi matrix and TP off the map's rows, S tensor
Id_k on a product space, and image bases with the image-inclusion check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import OperandError
from .tolerances import RANK_CUTOFF


# Maps per batched linear-algebra call on the maps of a time grid (the
# divisibility scan slices one stack of its whole grid, 648 KB at 1000 points,
# and builds each slice's intermediate maps, their Choi spectra and trace
# errors; the CP/TP check stacks this many at a time): enough to make
# per-call overhead small, few enough to keep peak memory flat.  On a 2-vCPU
# Xeon the float64 divisibility scan of 1000 points, then all of it through
# the SVD, took 6.6-6.7 ms of CPU a call at 64, 6.4-6.5 ms at 128 to 1024 and
# 7.7 ms at 32; 1024 raised the peak RSS of a process running it and a
# 2-probe scan from 39.5 to 43.2 MB.  With the closed-form maps, one slice
# of the whole grid raised that process's peak from 40.1-40.3 to 42.1 MB.  The
# contractivity scan stacks no maps: it applies each chain map to its probes
# once and batches points by its probe stack (contractivity.SCAN_CHUNK_ENTRIES).
GRID_CHUNK = 64


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape(d, d, order="F")


def _map_array(m) -> np.ndarray:
    """A map matrix, a stack of them or a Kraus operator as an array: a
    real one stays float64 and anything else is complex128."""
    return np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)


@dataclass(frozen=True)
class SuperOp:
    """Linear map on d x d operators, represented by its d^2 x d^2
    vectorized-action matrix; d is read off the matrix, which is float64
    for a real map and complex128 otherwise (``_map_array``)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _map_array(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or math.isqrt(len(m)) ** 2 != len(m):
            raise OperandError(f"superoperator matrix must be d^2 x d^2, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return math.isqrt(len(self.matrix))

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        if X.shape != (self.dim, self.dim):
            raise OperandError("operand dimension mismatch")
        return unvec(self.matrix @ vec(X))


def superop_from_action(action, d: int) -> SuperOp:
    """Build the matrix of a map from its action on the real matrix units
    |i><j| = unvec(e_(j*d + i)), in the dtype the action returns."""
    return SuperOp(np.stack([vec(action(unvec(e))) for e in np.eye(d * d)], axis=1))


def compose(S2: SuperOp, S1: SuperOp) -> SuperOp:
    """The map X -> S2(S1(X))."""
    if S2.dim != S1.dim:
        raise OperandError("superoperator dimension mismatch")
    return SuperOp(S2.matrix @ S1.matrix)


def from_kraus(kraus_ops) -> SuperOp:
    """Superoperator of X -> sum_a K_a X K_a^dag.

    vec(K X K^dag) = (conj(K) kron K) vec(X) in column stacking, so the
    matrix is sum_a conj(K_a) kron K_a; the resulting map is CP by
    construction, and real for real K_a.
    """
    ops = [_map_array(K) for K in kraus_ops]
    if not ops:
        raise OperandError("empty Kraus set")
    d = ops[0].shape[0]
    for K in ops:
        if K.shape != (d, d):
            raise OperandError("Kraus operators must be square with uniform dimension")
    return SuperOp(sum(np.kron(K.conj(), K) for K in ops))


def _matrices(S) -> tuple[np.ndarray, int]:
    """(matrix, d) of a SuperOp or of a stack (..., d^2, d^2) of superoperator
    matrices, in the dtype of ``_map_array``."""
    if isinstance(S, SuperOp):
        return S.matrix, S.dim
    m = _map_array(S)
    return m, math.isqrt(m.shape[-1])


def to_choi(S) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij S(|i><j|) kron |i><j| (trace d for TP maps).

    ``S`` is a SuperOp or a stack (..., d^2, d^2) of superoperator matrices,
    and the result has its shape and dtype.  S(|i><j|)[a, b] sits at
    matrix[b*d + a, j*d + i], i.e. at index [b, a, j, i] of the reshaped
    (d, d, d, d) array, and the Choi entry [(a, i), (b, j)] is that index
    reshuffled.
    """
    m, d = _matrices(S)
    lead, n = m.shape[:-2], m.ndim - 2
    return (m.reshape(lead + (d, d, d, d))
            .transpose(tuple(range(n)) + (n + 1, n + 3, n, n + 2))
            .reshape(lead + (d * d, d * d)))


def choi_min_eigenvalue(S):
    """Smallest eigenvalue of the Hermitised Choi matrix: a float for one map,
    an array over the stack for a stack of matrices (one batched eigvalsh)."""
    C = to_choi(S)
    out = np.linalg.eigvalsh((C + np.conj(np.swapaxes(C, -1, -2))) / 2).min(axis=-1)
    return float(out) if out.ndim == 0 else out


def tp_error(S):
    """Largest |Tr S(|i><j|) - delta_ij|, 0 iff S preserves trace: column
    j*d + i summed over the output-diagonal rows 0, d + 1, ..., d^2 - 1, with
    no Choi matrix.  A float for one map, an array over a stack of matrices."""
    m, d = _matrices(S)
    out = np.abs(m[..., ::d + 1, :].sum(axis=-2) - np.eye(d).reshape(-1)).max(axis=-1)
    return float(out) if out.ndim == 0 else out


def apply_to_extended(S, X: np.ndarray, k: int) -> np.ndarray:
    """Apply S tensor Id_k to an operator on the d*k-dimensional product space.

    Works for a single (dk, dk) operand or a stacked batch (..., dk, dk).
    ``S`` is a SuperOp, with a result shaped like ``X``, or a stack
    (..., d^2, d^2) of superoperator matrices, with a result
    (..., *X.shape): every map applied to every operand, one matmul per map.
    """
    m, d = _matrices(S)
    X = np.asarray(X, dtype=complex)
    if X.shape[-2:] != (d * k, d * k):
        raise OperandError("operand dimension mismatch for ancilla application")
    # X[n, i, a, j, b] -> rows [n, a, b, (j, i)]: the column-stacked system
    # operator of each ancilla pair, so each map is one matmul by its matrix.T.
    rows = X.reshape(-1, d, k, d, k).transpose(0, 2, 4, 3, 1).reshape(-1, d * d)
    Y = (rows @ np.swapaxes(m, -1, -2)).reshape(-1, k, k, d, d)  # [n, a, b, q, p]
    return Y.transpose(0, 4, 1, 3, 2).reshape(m.shape[:-2] + X.shape)


def _image_basis(S: SuperOp) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of Im(S), shape (rank, d, d).

    Rank-revealing SVD with the relative singular-value cutoff RANK_CUTOFF.
    """
    u, s, _ = np.linalg.svd(S.matrix)
    if s[0] == 0:
        return np.zeros((0, S.dim, S.dim), dtype=u.dtype)
    rank = int(np.sum(s > RANK_CUTOFF * s[0]))
    return np.stack([unvec(u[:, i]) for i in range(rank)])


def image_rank(S: SuperOp) -> int:
    return _image_basis(S).shape[0]


def image_inclusion_residual(S_earlier: SuperOp, S_later: SuperOp) -> float:
    """Largest residual of Im(S_later) basis vectors projected onto Im(S_earlier)."""
    E, L = (_image_basis(S).reshape(-1, S.dim ** 2).T for S in (S_earlier, S_later))
    return float(np.linalg.norm(L - E @ (E.conj().T @ L), axis=0).max(initial=0.0))


def is_image_nonincreasing(family, grid) -> bool:
    """Check Im decreasing along an ascending time grid.

    ``family`` is a callable t -> SuperOp.  Each later image must sit inside
    the previous one up to a projection residual of RANK_CUTOFF, which is
    also the relative rank cutoff of each image basis.
    """
    sampled = [family(t) for t in grid]
    for earlier, later in zip(sampled, sampled[1:]):
        if image_inclusion_residual(earlier, later) > RANK_CUTOFF:
            return False
    return True
