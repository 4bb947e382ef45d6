"""Dense Hermitian-operator arithmetic.

Trace norm, tensor products, partial traces, seeded probe generation and a
right-sided derivative estimator.  Everything here is a pure function of
immutable inputs; matrices are plain complex numpy arrays validated on
entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT_H0, TOL_HERM, TOL_PSD

PROBE_KINDS = ("random-hermitian", "state-difference", "image-restricted")


class OperandError(ValueError):
    """Input operand violates a structural precondition."""


def as_hermitian(X, tol: float = TOL_HERM) -> np.ndarray:
    """Validate Hermiticity of ``X`` (within ``tol``) and return it as complex."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] < 1:
        raise OperandError(f"expected a square matrix, got shape {X.shape}")
    if np.max(np.abs(X - X.conj().T)) > tol:
        raise OperandError("matrix is not Hermitian within tolerance")
    return X


def check_density(rho, tol_trace: float = TOL_HERM, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD up to ``tol_psd``."""
    rho = as_hermitian(rho)
    if abs(np.trace(rho).real - 1.0) > tol_trace or abs(np.trace(rho).imag) > tol_trace:
        raise OperandError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -tol_psd:
        raise OperandError("density matrix has a negative eigenvalue beyond tolerance")
    return rho


def trace_norm(X, tol: float = TOL_HERM) -> float:
    """Sum of absolute eigenvalues of Hermitian ``X``."""
    X = as_hermitian(X, tol)
    return float(np.sum(np.abs(np.linalg.eigvalsh(X))))


def tensor(A, B) -> np.ndarray:
    """Kronecker product of two validated Hermitian operators."""
    return np.kron(as_hermitian(A), as_hermitian(B))


def partial_trace(X, dims: tuple[int, int], keep: str = "first") -> np.ndarray:
    """Partial trace of ``X`` on a ``dims = (dA, dB)`` bipartition."""
    X = as_hermitian(X)
    dA, dB = dims
    if dA * dB != X.shape[0]:
        raise OperandError(f"dims {dims} incompatible with matrix of size {X.shape[0]}")
    X4 = X.reshape(dA, dB, dA, dB)
    if keep == "first":
        return np.einsum("ikjk->ij", X4)
    if keep == "second":
        return np.einsum("kikj->ij", X4)
    raise OperandError(f"keep must be 'first' or 'second', got {keep!r}")


def _richardson(d):
    """Extrapolate forward differences d = [D(h), D(h/2), D(h/4)] to h -> 0.

    Two Richardson levels remove the O(h) and O(h^2) error terms.  When the
    two first-level extrapolants disagree strongly the stencil straddles a
    kink of f; extrapolation is then meaningless and the smallest-step plain
    difference (a faithful one-sided estimate) is returned instead.
    """
    d0, d1, d2 = d
    a1 = 2.0 * d1 - d0
    a2 = 2.0 * d2 - d1
    rich = (4.0 * a2 - a1) / 3.0
    scale = np.maximum(np.maximum(np.abs(d0), np.abs(d1)), np.abs(d2))
    bad = np.abs(a2 - a1) > 0.1 * scale + 1e-9
    return np.where(bad, d2, rich)


def right_derivative(f, t: float, h0: float = DEFAULT_H0) -> float:
    """One-sided derivative lim_{h -> 0+} [f(t+h) - f(t)] / h.

    Forward differences at steps h0, h0/2, h0/4 with Richardson
    extrapolation; evaluations never leave [t, t + h0], so only the
    right-limit behaviour of ``f`` matters.
    """
    if h0 <= 0:
        raise OperandError("h0 must be positive")
    f0 = f(t)
    diffs = [(f(t + h) - f0) / h for h in (h0, h0 / 2, h0 / 4)]
    return float(_richardson(np.asarray(diffs)))


@dataclass(frozen=True)
class ProbeSet:
    """Deterministic seeded collection of Hermitian probe operators."""

    probes: tuple
    seed: int
    kind: str

    @property
    def dim(self) -> int:
        return self.probes[0].shape[0]

    def __len__(self) -> int:
        return len(self.probes)

    def stacked(self) -> np.ndarray:
        return np.stack(self.probes)


def _random_state(rng, dim: int) -> np.ndarray:
    if rng.random() < 0.5:
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_probes(dim: int, count: int, seed: int, kind: str = "random-hermitian",
                  basis=None) -> ProbeSet:
    """Seeded probe ensemble.

    ``random-hermitian``: Ginibre draw Hermitized as (A + A^dag)/2, which has
    full support almost surely.  ``state-difference`` draws p1*rho1 - p2*rho2
    with random pure/mixed states and random bias p1 in [0, 1], covering
    biased discrimination problems.  ``image-restricted`` draws real random
    combinations of a supplied operator ``basis``.
    """
    if count < 1:
        raise OperandError("count must be >= 1")
    if kind not in PROBE_KINDS:
        raise OperandError(f"unknown probe kind {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "random-hermitian":
        g = rng.standard_normal((count, 2, dim, dim))  # a loop's stream, in one draw
        a = g[:, 0] + 1j * g[:, 1]
        return ProbeSet(probes=tuple((a + np.conj(np.swapaxes(a, -1, -2))) / 2),
                        seed=seed, kind=kind)
    probes = []
    for _ in range(count):
        if kind == "state-difference":
            p1 = rng.random()
            probes.append(p1 * _random_state(rng, dim) - (1 - p1) * _random_state(rng, dim))
        else:
            if basis is None:
                raise OperandError("image-restricted probes need a basis")
            coeffs = rng.standard_normal(len(basis))
            X = sum(c * b for c, b in zip(coeffs, basis))
            probes.append((X + X.conj().T) / 2)
    return ProbeSet(probes=tuple(probes), seed=seed, kind=kind)
