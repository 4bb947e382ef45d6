"""Superoperator algebra in the column-stacking convention.

A linear map on d x d operators is stored as its d^2 x d^2 matrix acting on
column-stacked vectorizations, vec(|i><j|) sitting at index j*d + i.  All
Choi/Kraus formulas below are written against this single convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import OperandError, check_density
from .tolerances import RANK_CUTOFF, TOL_PSD


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape(d, d, order="F")


@dataclass(frozen=True)
class SuperOp:
    """Linear map on operators, represented by its vectorized-action matrix."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim ** 2, self.dim ** 2):
            raise OperandError(f"superoperator matrix must be {self.dim**2} x {self.dim**2}")
        object.__setattr__(self, "matrix", m)

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        if X.shape != (self.dim, self.dim):
            raise OperandError("operand dimension mismatch")
        return unvec(self.matrix @ vec(X))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.apply(X)


def identity_superop(d: int) -> SuperOp:
    return SuperOp(dim=d, matrix=np.eye(d * d, dtype=complex))


def superop_from_action(action, d: int) -> SuperOp:
    """Build the matrix of a map from its action on matrix units."""
    m = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            m[:, j * d + i] = vec(np.asarray(action(unit), dtype=complex))
    return SuperOp(dim=d, matrix=m)


def compose(S2: SuperOp, S1: SuperOp) -> SuperOp:
    """The map X -> S2(S1(X))."""
    if S2.dim != S1.dim:
        raise OperandError("superoperator dimension mismatch")
    return SuperOp(dim=S1.dim, matrix=S2.matrix @ S1.matrix)


def from_kraus(kraus_ops) -> SuperOp:
    """Superoperator of X -> sum_a K_a X K_a^dag.

    vec(K X K^dag) = (conj(K) kron K) vec(X) in column stacking, so the
    matrix is sum_a conj(K_a) kron K_a; the resulting map is CP by
    construction.
    """
    ops = [np.asarray(K, dtype=complex) for K in kraus_ops]
    if not ops:
        raise OperandError("empty Kraus set")
    d = ops[0].shape[0]
    for K in ops:
        if K.shape != (d, d):
            raise OperandError("Kraus operators must be square with uniform dimension")
    m = sum(np.kron(K.conj(), K) for K in ops)
    return SuperOp(dim=d, matrix=m)


def to_choi(S: SuperOp) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij S(|i><j|) kron |i><j| (trace d for TP maps).

    S(|i><j|)[a, b] sits at matrix[b*d + a, j*d + i], i.e. at index
    [b, a, j, i] of the reshaped (d, d, d, d) array, and the Choi entry
    [(a, i), (b, j)] is that index reshuffled.
    """
    d = S.dim
    return S.matrix.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def choi_min_eigenvalue(S: SuperOp) -> float:
    C = to_choi(S)
    C = (C + C.conj().T) / 2
    return float(np.linalg.eigvalsh(C).min())


def is_cp(S: SuperOp, tol: float = TOL_PSD) -> bool:
    """Complete positivity: Choi matrix PSD up to ``tol``."""
    return choi_min_eigenvalue(S) >= -tol


def tp_error(S: SuperOp) -> float:
    """Largest entry of |Tr_out C - I|, C the Choi matrix; 0 iff S preserves trace."""
    d = S.dim
    reduced = np.einsum("kikj->ij", to_choi(S).reshape(d, d, d, d))
    return float(np.max(np.abs(reduced - np.eye(d))))


def is_tp(S: SuperOp, tol: float = TOL_PSD) -> bool:
    """Trace preservation: Choi partial trace over the output factor is the identity."""
    return tp_error(S) <= tol


def positivity_sample(S: SuperOp, n: int, seed: int, tol: float = TOL_PSD):
    """Sample positivity of S on random pure states.

    Returns (min_eig, witness): the minimum output eigenvalue over n
    Gaussian-normalized pure inputs and, when it dips below -tol, the worst
    input state as a witness.  A negative result certifies non-positivity; a
    nonnegative one is evidence only (positivity is not decidable by
    sampling).
    """
    if n < 1:
        raise OperandError("n must be >= 1")
    rng = np.random.default_rng(seed)
    min_eig = np.inf
    witness = None
    for _ in range(n):
        psi = rng.standard_normal(S.dim) + 1j * rng.standard_normal(S.dim)
        psi /= np.linalg.norm(psi)
        state = np.outer(psi, psi.conj())
        out = S.apply(state)
        lo = float(np.linalg.eigvalsh((out + out.conj().T) / 2).min())
        if lo < min_eig:
            min_eig = lo
            if lo < -tol:
                witness = check_density(state)
    return min_eig, witness


def apply_to_extended(S: SuperOp, X: np.ndarray, k: int) -> np.ndarray:
    """Apply S tensor Id_k to an operator on the d*k-dimensional product space.

    Works for a single (dk, dk) operand or a stacked batch (..., dk, dk).
    """
    d = S.dim
    X = np.asarray(X, dtype=complex)
    if X.shape[-2:] != (d * k, d * k):
        raise OperandError("operand dimension mismatch for ancilla application")
    # X[n, i, a, j, b] -> rows [n, a, b, (j, i)]: the column-stacked system
    # operator of each ancilla pair, so the map is one matmul by S.matrix.T.
    rows = X.reshape(-1, d, k, d, k).transpose(0, 2, 4, 3, 1).reshape(-1, d * d)
    Y = (rows @ S.matrix.T).reshape(-1, k, k, d, d)  # [n, a, b, q, p]
    return Y.transpose(0, 4, 1, 3, 2).reshape(X.shape)


def image_basis(S: SuperOp, tol: float = RANK_CUTOFF) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of Im(S), shape (rank, d, d).

    Rank-revealing SVD with a relative singular-value cutoff.
    """
    u, s, _ = np.linalg.svd(S.matrix)
    if s[0] == 0:
        return np.zeros((0, S.dim, S.dim), dtype=complex)
    rank = int(np.sum(s > tol * s[0]))
    return np.stack([unvec(u[:, i]) for i in range(rank)])


def image_rank(S: SuperOp, tol: float = RANK_CUTOFF) -> int:
    return image_basis(S, tol).shape[0]


def image_inclusion_residual(S_earlier: SuperOp, S_later: SuperOp,
                             tol: float = RANK_CUTOFF) -> float:
    """Largest residual of Im(S_later) basis vectors projected onto Im(S_earlier)."""
    b_early = image_basis(S_earlier, tol)
    b_late = image_basis(S_later, tol)
    if b_late.shape[0] == 0:
        return 0.0
    E = b_early.reshape(b_early.shape[0], -1).T if b_early.shape[0] else None
    worst = 0.0
    for op in b_late:
        v = op.reshape(-1)
        if E is not None:
            v = v - E @ (E.conj().T @ v)
        worst = max(worst, float(np.linalg.norm(v)))
    return worst


def is_image_nonincreasing(family, grid, tol: float = RANK_CUTOFF) -> bool:
    """Check Im decreasing along an ascending time grid.

    ``family`` is either a callable t -> SuperOp or a sequence of SuperOps
    aligned with ``grid``.  Each later image must sit inside the previous one
    up to a projection residual of ``tol``.
    """
    sampled = [family(t) for t in grid] if callable(family) else list(family)
    for earlier, later in zip(sampled, sampled[1:]):
        if image_inclusion_residual(earlier, later, tol) > tol:
            return False
    return True
