"""The one-call paths against the loops and library calls they replaced: the
probe ensemble drawn in one call, the intermediate maps from one SVD per
batch, the scan's diagonal shortcut against its eigh path, and the bound on
what the scan's kernel cutoff can over-read."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmarkov.contractivity import (_OFF_DIAGONAL, _dephased_norm_rderiv,
                                   _eigh_norm_rderiv, _norm_rderiv,
                                   norm_derivative_scan)
from qmarkov.divisibility import RESIDUAL_TOL, _intermediate_maps
from qmarkov.operators import random_probes
from qmarkov.qutrit_family import MapParams, family
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


def _assert_same_bits(got, expected):
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


# Signed zeros, ties and magnitudes from 1e-6 to 1e3.  A matrix whose
# largest entry is below about 1e-146 (or above 1e146) is rescaled inside
# LAPACK's eigh, which then rounds even a diagonal; the shortcut keeps the
# exact diagonal there, so the two agree only inside that range.
SIGNED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.builds(lambda x, sign: sign * x, st.floats(1e-6, 1e3), st.sampled_from([1.0, -1.0])))


def _tied_probe(draw):
    """A Hermitian qutrit probe with two or three equal diagonal entries."""
    a, b = draw(SIGNED_FLOATS), draw(SIGNED_FLOATS)
    diag = draw(st.permutations([a, a, draw(st.sampled_from([a, b]))]))
    off = draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    probe = np.diag(np.asarray(diag, dtype=complex))
    for (i, j), re, im in zip([(0, 1), (0, 2), (1, 2)], off[::2], off[1::2]):
        probe[i, j], probe[j, i] = complex(re, im), complex(re, -im)
    return probe


@st.composite
def _dephased_scans(draw):
    """(params, grid, probes): the junctions t1, t2, t3, points dense at the
    end of stage 2 (where kernel rows sit) and points anywhere in stages
    2-3, with random-hermitian or state-difference probes, tied-diagonal
    probes and the zero probe."""
    times = draw(st.sampled_from([{}, {"t1": 0.7, "t2": 1.9, "t3": 2.3, "t4": 5.1}]))
    params = MapParams(delta=draw(st.sampled_from([1.0, 1.05])), **times)
    t1, t2, t3 = params.t1, params.t2, params.t3
    end = draw(st.lists(st.floats(0.96, 1.0, exclude_max=True), min_size=1, max_size=12))
    inside = draw(st.lists(st.floats(t1, t3), max_size=6))
    grid = sorted({t1, t2, t3, *inside, *(t1 + u * (t2 - t1) for u in end)})
    kind = draw(st.sampled_from(["random-hermitian", "state-difference"]))
    probes = list(random_probes(3, draw(st.integers(1, 8)),
                                draw(st.integers(0, 2 ** 32 - 1)), kind).probes)
    probes += [_tied_probe(draw) for _ in range(draw(st.integers(0, 3)))]
    probes.append(np.zeros((3, 3), dtype=complex))
    return params, grid, np.stack(draw(st.permutations(probes)))


@settings(max_examples=60, deadline=None)
@given(_dephased_scans())
def test_dephased_shortcut_bit_equal_to_eigh(scan):
    """Where Lambda_t has diagonal output, the scan's rows (shortcut or
    eigh fallback) are bit-equal, sign of zero included, to the eigh path on
    the same X and Xdot."""
    params, grid, stack = scan
    fam = family(params)
    maps = fam.stack(grid)
    assert not maps[:, _OFF_DIAGONAL].any()  # the whole grid dephases
    X = apply_to_extended(maps, stack, 1)
    Xdot = apply_to_extended(fam.dot_stack(grid), stack, 1)
    _assert_same_bits(_norm_rderiv(fam, stack, grid, 1), _eigh_norm_rderiv(X, Xdot))


@settings(max_examples=100, deadline=None)
@given(diag=st.integers(1, 6).flatmap(lambda n: arrays(np.float64, (n, 3), elements=SIGNED_FLOATS)),
       rates=arrays(np.float64, (6, 3, 3), elements=SIGNED_FLOATS))
@example(diag=np.array([[0.2, 0.3, 0.5], [-0.2, -0.3, -0.5]]), rates=np.full((6, 3, 3), -0.0))
@example(diag=np.array([[2.0, 2.0, 1.0]]), rates=np.diag([0.1, 0.2, 0.3])[None].repeat(6, 0))
def test_shortcut_matches_eigh_on_signed_zeros_and_ties(diag, rates):
    """On exactly diagonal X with arbitrary Xdot, signed zeros and ties
    included, the shortcut gives eigh's bits.  A tie must take eigh: for
    diag(2, 2, 1) LAPACK orders the eigenvectors e2, e1, e0, a stable sort
    e2, e0, e1, and the rates 0.3 + 0.2 + 0.1 and 0.3 + 0.1 + 0.2 differ in
    the last bit."""
    X = np.zeros((1, len(diag), 3, 3), dtype=complex)
    X[0, :, [0, 1, 2], [0, 1, 2]] = diag.T
    Xdot = rates[None, :len(diag)].astype(complex)
    _assert_same_bits(_dephased_norm_rderiv(X, Xdot, np.array([True])),
                      _eigh_norm_rderiv(X, Xdot))


def _eigh_matrices(monkeypatch, scan):
    """Matrices ``scan()`` passes to np.linalg.eigh."""
    count, eigh = [0], np.linalg.eigh

    def counting(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    scan()
    return count[0]


def test_shortcut_takes_stages_2_3_at_k1_only(monkeypatch):
    """The default verify scan (200 probes x 200 points) sends 20,200 of its
    40,000 rows to eigh: every row at the 99 points of stages 1 and 4 other
    than t3, and at t = 1.98 and t = 2.0, where stage 2's weight (about
    1e-21) or E2 E1 leaves every X a kernel eigenvalue.  A k = 2 scan never
    takes the shortcut."""
    grid = np.linspace(0.0, 4.0, 200, endpoint=False)
    probes = random_probes(3, 200, 20210907)
    assert _eigh_matrices(monkeypatch, lambda: norm_derivative_scan(
        family(), probes, grid)) == 20200
    probes = random_probes(6, 500, 20210907)
    assert _eigh_matrices(monkeypatch, lambda: norm_derivative_scan(
        family(), probes, np.linspace(0.0, 4.0, 40, endpoint=False), k=2)) == 20000
