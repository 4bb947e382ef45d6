"""Dense Hermitian-operator arithmetic.

Hermiticity validation, the trace norm and seeded probe ensembles.
Everything here is a pure function of immutable inputs; matrices are plain
complex numpy arrays validated on entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import TOL_HERM

PROBE_KINDS = ("random-hermitian", "state-difference")


class OperandError(ValueError):
    """Input operand violates a structural precondition."""


def as_hermitian(X) -> np.ndarray:
    """Validate that the matrix, or stack (..., n, n) of matrices, ``X`` is
    finite and Hermitian (within TOL_HERM), and return it as complex."""
    X = np.asarray(X, dtype=complex)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2] or 0 in X.shape:
        raise OperandError(f"expected a square matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise OperandError("matrix has a NaN or infinite entry")
    if np.max(np.abs(X - np.conj(np.swapaxes(X, -1, -2)))) > TOL_HERM:
        raise OperandError("matrix is not Hermitian within tolerance")
    return X


def trace_norm(X):
    """Sum of absolute eigenvalues of Hermitian ``X``: a float, or for a
    stack (..., n, n) an array of one sum per matrix."""
    norms = np.abs(np.linalg.eigvalsh(as_hermitian(X))).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


@dataclass(frozen=True)
class ProbeSet:
    """Deterministic seeded collection of Hermitian probe operators, held as
    one C-contiguous (count, d, d) complex array and validated on
    construction: finite, and Hermitian within TOL_HERM."""

    probes: np.ndarray
    seed: int

    def __post_init__(self):
        X = np.ascontiguousarray(self.probes, dtype=complex)
        if X.ndim != 3 or X.shape[1] != X.shape[2] or 0 in X.shape:
            raise OperandError(f"expected a non-empty (count, d, d) stack, got {X.shape}")
        object.__setattr__(self, "probes", as_hermitian(X))

    @property
    def dim(self) -> int:
        return self.probes.shape[1]

    def __len__(self) -> int:
        return len(self.probes)


def _random_state(rng, dim: int) -> np.ndarray:
    if rng.random() < 0.5:
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_probes(dim: int, count: int, seed: int,
                  kind: str = "random-hermitian") -> ProbeSet:
    """Seeded probe ensemble.

    ``random-hermitian``: Ginibre draw Hermitized as (A + A^dag)/2, which has
    full support almost surely.  ``state-difference`` draws p1*rho1 - p2*rho2
    with random pure/mixed states and random bias p1 in [0, 1], covering
    biased discrimination problems.
    """
    if count < 1:
        raise OperandError("count must be >= 1")
    if kind not in PROBE_KINDS:
        raise OperandError(f"unknown probe kind {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "random-hermitian":
        g = rng.standard_normal((count, 2, dim, dim))  # a loop's stream, in one draw
        a = g[:, 0] + 1j * g[:, 1]
        # summed into a C-ordered array, which ProbeSet then keeps as it is
        h = np.add(a, np.conj(np.swapaxes(a, -1, -2)), out=np.empty_like(a))
        h /= 2
        return ProbeSet(probes=h, seed=seed)
    probes = []
    for _ in range(count):
        p1 = rng.random()
        probes.append(p1 * _random_state(rng, dim) - (1 - p1) * _random_state(rng, dim))
    return ProbeSet(probes=probes, seed=seed)
