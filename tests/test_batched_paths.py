"""The one-call paths against the loops and library calls they replaced: the
probe ensemble drawn in one call, the intermediate maps from one SVD per
batch, and the bound on what the scan's kernel cutoff can over-read."""

import numpy as np
import pytest

from qmarkov.contractivity import norm_derivative_scan
from qmarkov.divisibility import RESIDUAL_TOL, _intermediate_maps
from qmarkov.operators import random_probes
from qmarkov.qutrit_family import family
from qmarkov.superops import apply_to_extended
from qmarkov.tolerances import KERNEL_CUTOFF, RANK_CUTOFF, TOL_DERIV


def _probes_by_loop(dim, count, seed):
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(count):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        probes.append((a + a.conj().T) / 2)
    return probes


@pytest.mark.parametrize("seed", [0, 1, 5, 20210907])
@pytest.mark.parametrize("count", [1, 2, 200, 2000])
@pytest.mark.parametrize("dim", [3, 6])
def test_random_probes_bit_equal_to_loop(dim, count, seed):
    probes = random_probes(dim, count, seed)
    expected = _probes_by_loop(dim, count, seed)
    assert len(probes) == count and probes.dim == dim
    assert all(p.tobytes() == e.tobytes() for p, e in zip(probes.probes, expected))
    assert probes.stacked().tobytes() == np.stack(expected).tobytes()


def _old_definedness(Ls, Lt, tol):
    """The rank rule and V of np.linalg.pinv, as the divisibility scan had them."""
    n = Ls.shape[-1]
    sv = np.linalg.svd(Ls, compute_uv=False)
    rank = np.where(sv[:, 0] > 0, np.sum(sv > tol * sv[:, :1], axis=-1), 0)
    V = Lt @ np.linalg.pinv(Ls, rcond=tol)
    residual = np.abs(V @ Ls - Lt).max(axis=(-2, -1))
    return V, np.where(rank == n, "exact",
                       np.where(residual < RESIDUAL_TOL, "image-restricted",
                                "inconsistent"))


def _stacks():
    rng = np.random.default_rng(11)
    fam = family()
    full = rng.standard_normal((6, 9, 9)) + 1j * rng.standard_normal((6, 9, 9))
    late = fam.stack(np.linspace(2.0, 4.0, 41))  # stages 3 and 4: rank deficient
    edge = np.diag([1.0] * 5 + [2e-8, 1e-8, 5e-9, 0.0]).astype(complex)
    jump = np.stack([fam(3.5).matrix, np.eye(9, dtype=complex),
                     1e-32 * np.eye(9, dtype=complex), edge,
                     np.zeros((9, 9), dtype=complex), fam(1.5).matrix])
    return {
        "full-rank": (full[:-1], full[1:]),
        "stages-3-4": (late[:-1], late[1:]),
        "zero": (np.zeros((3, 9, 9), dtype=complex), full[:3]),
        "rank-jump": (jump[:-1], jump[1:]),
    }


@pytest.mark.parametrize("name", ["full-rank", "stages-3-4", "zero", "rank-jump"])
def test_intermediate_maps_match_pinv(name):
    Ls, Lt = _stacks()[name]
    V, residual, definedness = _intermediate_maps(Ls, Lt, RANK_CUTOFF)
    V_ref, definedness_ref = _old_definedness(Ls, Lt, RANK_CUTOFF)
    assert V.tobytes() == V_ref.tobytes()
    assert definedness.tolist() == definedness_ref.tolist()
    assert residual.tobytes() == np.abs(V_ref @ Ls - Lt).max(axis=(-2, -1)).tobytes()


def test_stacks_cover_every_definedness():
    seen = set()
    for Ls, Lt in _stacks().values():
        seen.update(_intermediate_maps(Ls, Lt, RANK_CUTOFF)[2].tolist())
    assert seen == {"exact", "image-restricted", "inconsistent"}


# A right derivative at most this far above 0 is rounding, not over-read.
ROUNDING = 1e-14


def test_kernel_over_read_is_bounded():
    """On the 2-probe, 1000-point scan, every row above rounding sits where
    the probe has eigenvalues 0 < |lam| <= KERNEL_CUTOFF * max |lam|, and
    reads at most twice the largest |<v|Xdot|v>| over them: counting such
    an eigenvalue as kernel swaps -|rate| for +|rate|, nothing more."""
    fam = family()
    probes = random_probes(3, 2, 20210907)
    grid = np.linspace(0.0, 4.0, 1000, endpoint=False)
    rderiv = norm_derivative_scan(fam, probes, grid).rows.rderiv.reshape(2, -1).T
    stack = probes.stacked()
    X = apply_to_extended(fam.stack(grid), stack, 1)
    Xdot = apply_to_extended(fam.dot_stack(grid), stack, 1)
    lam, V = np.linalg.eigh((X + np.conj(np.swapaxes(X, -1, -2))) / 2)
    mag = np.abs(lam)
    small = (mag > 0) & (mag <= KERNEL_CUTOFF * mag.max(axis=-1, keepdims=True))
    rates = np.einsum("...ji,...ji->...i", V.conj(), Xdot @ V).real
    bound = 2 * np.where(small, np.abs(rates), 0.0).max(axis=-1)

    above = rderiv > ROUNDING
    assert above.any()
    assert np.all(small.any(axis=-1)[above])
    assert np.all(rderiv[above] <= bound[above] + ROUNDING)
    assert bound.max() < 1e-11 < TOL_DERIV
