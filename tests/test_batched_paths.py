"""The one-call paths against the loops and library calls they replaced: the
probe ensemble drawn in one call, the intermediate maps from one SVD per
batch, the scan's block kernel against its full eigh path and, bit for bit,
against its sort-based form, and the bound on what the scan's kernel cutoff
can over-read."""

import collections
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmarkov.contractivity import (_block_entries, _block_norm_rderiv, _chain_applies,
                                   _eigh_norm_rderiv, _norm_rderiv, _pair_codes,
                                   _triple_spectrum, norm_derivative_scan)
from qmarkov.divisibility import RESIDUAL_TOL, _intermediate_maps
from qmarkov.operators import ProbeSet, random_probes
from qmarkov.qutrit_family import MapParams, _stage_images, _stages, family
from qmarkov.superops import apply_to_extended
from qmarkov.tolerances import (KERNEL_CUTOFF, RANK_CUTOFF, TOL_DERIV, TRIPLE_FLOOR,
                                TRIPLE_GAP)

from oracles import block_norm_rderiv_sorted, output_codes


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
    assert probes.probes.tobytes() == np.stack(expected).tobytes()


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
    V, residual, definedness = _intermediate_maps(Ls, Lt)
    V_ref, definedness_ref = _old_definedness(Ls, Lt, RANK_CUTOFF)
    assert V.tobytes() == V_ref.tobytes()
    assert definedness.tolist() == definedness_ref.tolist()
    assert residual.tobytes() == np.abs(V_ref @ Ls - Lt).max(axis=(-2, -1)).tobytes()


def test_stacks_cover_every_definedness():
    seen = set()
    for Ls, Lt in _stacks().values():
        seen.update(_intermediate_maps(Ls, Lt)[2].tolist())
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
    stack = probes.probes
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


def _chain_operators(params, stack, grid, k):
    """The scan's X, Xdot and output codes on an ascending grid, and its
    norms and right derivatives (``_norm_rderiv``), stage by stage
    (``_stage_images`` of the chain's applies), joined."""
    chain, grid = _chain_applies(stack, k), np.asarray(grid, dtype=float)
    stages, parts = _stages(grid, params), []
    for s in sorted(set(stages.tolist())):
        ts = grid[stages == s]
        X, support = _stage_images(chain, s, ts, params, False)
        Xdot, _ = _stage_images(chain, s, ts, params, True)
        parts.append((X, Xdot, _pair_codes(support),
                      *_norm_rderiv(family(params), chain, s, ts, k)))
    return tuple(np.concatenate(column) for column in zip(*parts))


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
    X, Xdot, codes, *scan_columns = _chain_operators(params, stack, grid, 1)
    assert not codes.any()  # the whole grid dephases
    _assert_same_bits(scan_columns, _eigh_norm_rderiv(X, Xdot))


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
    _assert_same_bits(_block_norm_rderiv(X, Xdot, np.array([0]), 1),
                      _eigh_norm_rderiv(X, Xdot))


def _eigh_matrices(monkeypatch, scan):
    """Matrices ``scan()`` passes to np.linalg.eigh, counted by size."""
    count, eigh = collections.Counter(), np.linalg.eigh

    def counting(a, *args, **kwargs):
        count[np.shape(a)[-1]] += int(np.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    scan()
    return dict(count)


def test_eigh_takes_stage_1_kernel_rows_and_stage_4_blocks(monkeypatch):
    """The default verify scan (200 probes x 200 points) sends 253 of its
    40,000 rows to eigh, all 3 x 3: every row at t = 1.98, where stage 2's
    weight (about 1e-21) leaves every X a kernel eigenvalue and Xdot is not
    0, and the 53 of stage 1's 10,000 rows that fail the closed 3 x 3
    form's trust test (17 with neighbouring eigenvalues closer than
    TRIPLE_GAP, 36 with a pair of opposite signs closer than
    sqrt(TRIPLE_GAP)); stage 4 takes the closed 2 x 2 form.  The rows at
    t = 2.0 have a kernel eigenvalue too (the |2> block of E2 E1 is 0), but
    Xdot = 0 there (dw/dtau = 0 at tau = 0), so they need no eigh.  The
    k = 2 scan (500 probes x 40 points) sends 5,000 6 x 6 matrices (the one
    block of the 10 points of stage 1) and 4,500 4 x 4 blocks
    span{|0>, |1>} x C^2 (the 9 points of stage 4 after t3).  The k = 3
    scan (20 probes x 40 points) sends those blocks alone, 200 9 x 9 and
    180 6 x 6: its rows at t = 2.0 read the all-zero |2> block in closed
    form and need no full 9 x 9 eigh."""
    grid = np.linspace(0.0, 4.0, 200, endpoint=False)
    probes = random_probes(3, 200, 20210907)
    assert _eigh_matrices(monkeypatch, lambda: norm_derivative_scan(
        family(), probes, grid)) == {3: 253}
    probes = random_probes(6, 500, 20210907)
    assert _eigh_matrices(monkeypatch, lambda: norm_derivative_scan(
        family(), probes, np.linspace(0.0, 4.0, 40, endpoint=False), k=2)) == {6: 5000, 4: 4500}
    probes = random_probes(9, 20, 20210907)
    assert _eigh_matrices(monkeypatch, lambda: norm_derivative_scan(
        family(), probes, np.linspace(0.0, 4.0, 40, endpoint=False), k=3)) == {9: 200, 6: 180}


def test_scan_sorts_nothing(monkeypatch):
    """Each block's values come out ascending and the kernel merges them: a
    scan at k = 1, 2, 3 calls no sort and no gather along a sort order."""
    def refuse(*args, **kwargs):
        raise AssertionError("the scan sorted")

    for name in ("argsort", "sort", "take_along_axis"):
        monkeypatch.setattr(np, name, refuse)
    grid = np.linspace(0.0, 4.0, 40, endpoint=False)
    for k in (1, 2, 3):
        norm_derivative_scan(family(), random_probes(3 * k, 5, 1), grid, k=k)


@st.composite
def _block_scans(draw):
    """(params, grid, k, probes): the junctions t1..t4, one point inside
    each stage and points near the end of stage 2 (where kernel rows sit),
    with k in {1, 2, 3}, random-hermitian or state-difference probes, and
    the zero probe."""
    times = draw(st.sampled_from([{}, {"t1": 0.7, "t2": 1.9, "t3": 2.3, "t4": 5.1}]))
    params = MapParams(theta=draw(st.sampled_from([math.sqrt(2), 1.5, math.pi / 2])),
                       delta=draw(st.sampled_from([1.0, 1.05])), **times)
    starts = [0.0, params.t1, params.t2, params.t3, params.t4]
    inside = [a + draw(st.floats(0.0, 1.0, exclude_max=True)) * (b - a)
              for a, b in zip(starts, starts[1:])]
    end = draw(st.lists(st.floats(0.96, 1.0, exclude_max=True), max_size=4))
    grid = sorted({*starts[1:], *inside,
                   *(params.t1 + u * (params.t2 - params.t1) for u in end)})
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random-hermitian", "state-difference"]))
    probes = list(random_probes(3 * k, draw(st.integers(1, 6)),
                                draw(st.integers(0, 2 ** 32 - 1)), kind).probes)
    probes.append(np.zeros((3 * k, 3 * k), dtype=complex))
    return params, grid, k, np.stack(draw(st.permutations(probes)))


def _assert_close(got, expected):
    """The bounds on the block kernel's rounding against the full eigh."""
    (norm, rderiv), (norm_ref, rderiv_ref) = got, expected
    assert np.all(np.abs(norm - norm_ref) <= 1e-14 * np.maximum(1.0, norm_ref))
    assert np.all(np.abs(rderiv - rderiv_ref) <= 1e-13)
    assert np.array_equal(rderiv > TOL_DERIV, rderiv_ref > TOL_DERIV)


@settings(max_examples=60, deadline=None)
@given(_block_scans())
def test_block_kernel_matches_eigh(scan):
    """In every stage and at every junction, for k = 1, 2, 3, the block
    kernel's norms and right derivatives agree with the full eigh of the same
    X and Xdot to rounding, and give the same verdicts."""
    params, grid, k, stack = scan
    X, Xdot, _, *scan_columns = _chain_operators(params, stack, grid, k)
    _assert_close(scan_columns, _eigh_norm_rderiv(X, Xdot))


def _outcomes(X, Xdot, codes, k):
    """The bytes of the block kernel's (norm, rderiv) and of the sort-based
    kernel's, or the type of the error each raised."""
    def run(kernel):
        try:
            return [a.tobytes() for a in kernel(X, Xdot, codes, k)]
        except np.linalg.LinAlgError as err:
            return type(err)
    return run(_block_norm_rderiv), run(block_norm_rderiv_sorted)


@settings(max_examples=60, deadline=None)
@given(_block_scans())
def test_block_kernel_keeps_the_sorted_kernels_bits(scan):
    """In every stage and at every junction, for k = 1, 2, 3 and with the
    zero probe, merging the block values and summing them column by column
    give the bits of the kernel that sorted them and summed along the short
    axis: a changed order of summation would move digits of the scan CSV."""
    params, grid, k, stack = scan
    fam = family(params)
    maps = fam.stack(grid)
    X = apply_to_extended(maps, stack, k)
    Xdot = apply_to_extended(fam.dot_stack(grid), stack, k)
    got, expected = _outcomes(X, Xdot, output_codes(maps), k)
    assert got == expected


def _constructed_rows(code, k):
    """Rows (1, 7, 3k, 3k) of X block diagonal for the output ``code``, with
    a full Hermitian Xdot: a random row, two negative definite rows with
    rates of +0.0 and of -0.0 (each term sign(lam) * rate is then a zero, so
    only where a sum starts decides the sign of the result), a tie, a -0.0
    eigenvalue, a NaN rate and a row of distinct eigenvalues."""
    rng = np.random.default_rng(31 * code + k)
    n = 3 * k
    inside = np.zeros((n, n), dtype=bool)
    for _, rows, cols in _block_entries(code, k):
        inside[rows, cols] = True
    g = rng.standard_normal((2, 7, n, n)) + 1j * rng.standard_normal((2, 7, n, n))
    g = g + np.conj(np.swapaxes(g, -1, -2))
    X, Xdot = np.where(inside, g[0], 0.0), g[1]
    for row, zero in ((1, 0.0), (2, -0.0)):
        X[row] = -(X[row] @ X[row].conj().T + np.eye(n))
        Xdot[row] = zero
    levels = np.arange(1.0, n + 1.0)
    X[3] = np.diag(np.where(levels == n, 1.0, levels))
    X[4] = np.diag(np.where(levels == 1, -0.0, levels))
    Xdot[5, 0, 0] = np.nan
    X[6] = np.diag(-levels[::-1])
    return X[None], Xdot[None]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("code", [0, 1, 7], ids=["diagonal", "stage-4", "full"])
def test_block_kernel_bits_on_constructed_rows(code, k):
    """On random, negative definite zero-rate, tied, signed-zero and NaN
    rows the merge kernel gives the sort-based kernel's bits, and on a NaN
    entry of X its error or its bits."""
    X, Xdot = _constructed_rows(code, k)
    codes = np.array([code])
    got, expected = _outcomes(X, Xdot, codes, k)
    assert got == expected
    X[0, 0, 0, 0] = np.nan
    got, expected = _outcomes(X[:, :1], Xdot[:, :1], codes, k)
    assert got == expected


def _stage4_rows(pairs, last, rates):
    """Rows (1, len(pairs), 3, 3) of stage-4 shape: the 2 x 2 blocks ``pairs``
    on span{|0>, |1>} and ``last`` on |2>, with derivatives ``rates``."""
    X = np.zeros((1, len(pairs), 3, 3), dtype=complex)
    X[0, :, :2, :2], X[0, :, 2, 2] = pairs, last
    return X, np.broadcast_to(rates, X.shape).astype(complex)


def _rotated(lam, angle=0.3, phase=0.7):
    """The 2 x 2 Hermitian matrix with eigenvalues ``lam`` in a complex basis."""
    U = np.array([[math.cos(angle), -math.sin(angle) * np.exp(-1j * phase)],
                  [math.sin(angle) * np.exp(1j * phase), math.cos(angle)]])
    return U @ np.diag(lam) @ U.conj().T


RATES = np.array([[0.3, 0.1 - 0.2j, 0.5j], [0.1 + 0.2j, -0.7, 0.2],
                  [-0.5j, 0.2, 0.4]])


def _assert_second_row_takes_eigh(monkeypatch, X, Xdot, code):
    """Of two rows X, Xdot (1, 2, 3, 3) at a point of output ``code``, only
    the second goes to eigh, and gives its bits; the first agrees with eigh
    to rounding."""
    rows = {}
    assert _eigh_matrices(monkeypatch, lambda: rows.update(
        got=_block_norm_rderiv(X, Xdot, np.array([code]), 1))) == {3: 1}
    expected = _eigh_norm_rderiv(X, Xdot)
    _assert_close(rows["got"], expected)
    _assert_same_bits([v[:, 1] for v in rows["got"]], [v[:, 1] for v in expected])


def test_pair_closed_form_near_the_kernel_cutoff(monkeypatch):
    """A 2 x 2 block eigenvalue 5 % above KERNEL_CUTOFF times the row's
    largest |lam| stays in the closed form; 5 % below, it is kernel, and the
    row takes eigh."""
    X, Xdot = _stage4_rows([_rotated([1.0, 1.05 * KERNEL_CUTOFF]),
                            _rotated([1.0, 0.95 * KERNEL_CUTOFF])], 0.5, RATES)
    _assert_second_row_takes_eigh(monkeypatch, X, Xdot, 1)


def _outcome(fn):
    """``fn()``'s arrays, or the type of the error it raised: LAPACK may fail
    to converge on a NaN entry, and then eigh raises LinAlgError."""
    try:
        return fn()
    except np.linalg.LinAlgError as err:
        return type(err)


def _assert_row_takes_eigh(monkeypatch, X, Xdot, code):
    """The one row X, Xdot (1, 1, 3, 3) at a point of output ``code`` goes
    to eigh, and gives its bits (or its error)."""
    rows = {}
    assert _eigh_matrices(monkeypatch, lambda: rows.update(
        got=_outcome(lambda: _block_norm_rderiv(X, Xdot, np.array([code]), 1)))) == {3: 1}
    got, expected = rows["got"], _outcome(lambda: _eigh_norm_rderiv(X, Xdot))
    if isinstance(expected, type):
        assert got is expected
        return
    for a, b in zip(got, expected):
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("pair,last", [
    (0.7 * np.eye(2), 0.2),  # r = 0: a tie inside the block
    (np.diag([0.4, 0.9]), 0.4),  # a tie across blocks
    (np.array([[-0.0, -0.0], [-0.0, 1.0]]), -0.5),  # a signed-zero eigenvalue
    (np.zeros((2, 2)), -0.0),  # the zero row
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), 0.5),
    (np.array([[1.0, np.nan], [np.nan, 2.0]]), 0.5),
    (np.diag([1.0, 2.0]), np.nan),
], ids=["r=0", "cross-tie", "signed-zero", "zero", "inf", "nan", "nan-1x1"])
@pytest.mark.parametrize("rates", [RATES, np.full((3, 3), -0.0)], ids=["rates", "zero-rates"])
def test_pair_fallbacks_take_eigh(monkeypatch, pair, last, rates):
    """Ties, zero eigenvalues (signed zeros included) and non-finite entries
    take eigh, and give its bits (or its error); none raises a
    RuntimeWarning, which this suite turns into an error."""
    _assert_row_takes_eigh(monkeypatch, *_stage4_rows([pair], last, rates), 1)


def test_non_finite_rates_take_eigh(monkeypatch):
    """A NaN in a block's derivative leaves its eigenvalues finite but its
    rates NaN; the row takes eigh."""
    X, Xdot = _stage4_rows([_rotated([1.0, -2.0])], 0.5, RATES)
    Xdot[0, 0, 0, 1] = np.nan
    rows = {}
    assert _eigh_matrices(monkeypatch, lambda: rows.update(
        got=_block_norm_rderiv(X, Xdot, np.array([1]), 1))) == {3: 1}
    for a, b in zip(rows["got"], _eigh_norm_rderiv(X, Xdot)):
        assert np.array_equal(a, b, equal_nan=True)


def _unitary(seed):
    """A Haar-random 3 x 3 unitary (QR of a Ginibre draw, phases fixed)."""
    g = np.random.default_rng(seed).standard_normal((2, 3, 3))
    q, r = np.linalg.qr(g[0] + 1j * g[1])
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _spectral(lams, seed=7):
    """Rows (1, len(lams), 3, 3) X = U diag(lam) U^dag in complex bases U,
    with RATES as derivative: stage-1 rows, one 3 x 3 block each."""
    U = np.stack([_unitary(seed + i) for i in range(len(lams))])
    X = U @ (np.asarray(lams, dtype=float)[..., None] * np.conj(np.swapaxes(U, -1, -2)))
    return X[None], np.broadcast_to(RATES, X[None].shape).astype(complex), U


@pytest.mark.parametrize("lam", [
    [-2.0, 0.5, 3.0], [0.1, 0.2, 0.7], [-3.0, -1.0, -0.25], [1e-3, 1.0, 2.0],
    [-40.0, 1.0, 60.0], [1e-120, 2e-120, 4e-120], [1e120, 3e120, 5e120]],
    ids=["mixed", "state", "negative", "small", "wide", "tiny", "huge"])
def test_triple_spectrum_reads_constructed_spectra(lam):
    """For X = U diag(lam) U^dag the closed form returns lam ascending and the
    rates <u_i|Xdot|u_i>, to rounding of the block's scale."""
    X, Xdot, U = _spectral([lam])
    got_lam, got_rates = _triple_spectrum(X[0], Xdot[0])
    rates = np.einsum("...ji,jk,...ki->...i", U.conj(), RATES, U).real
    scale = max(abs(lam[0]), abs(lam[-1]))
    assert np.all(np.abs(got_lam - lam) <= 1e-14 * scale)
    assert np.all(np.abs(got_rates - rates) <= 1e-13)


@pytest.mark.parametrize("m", [0.0, 0.5, -2.5])
def test_triple_spectrum_reads_a_zero_spread_block_exactly(m):
    """A block m I whose diagonal mean rounds to m (p = 0) reads its
    eigenvalue m three times, exactly, and the diagonal of Bdot as its
    rates: 0 where Bdot = 0, so a row whose Xdot is 0 there needs no eigh
    (the |2> block at t2 is 0).  The kernel calls it under errstate, as
    here: q reads 0/0 before it is replaced."""
    B = (m * np.eye(3, dtype=complex))[None]
    Bdot = np.diag([0.25, -1.0, 2.0]).astype(complex)[None]
    for derivative, rates in ((Bdot, [0.25, -1.0, 2.0]), (0 * Bdot, [0.0, 0.0, 0.0])):
        with np.errstate(all="ignore"):
            lam, got_rates = _triple_spectrum(B, derivative)
        assert lam.tolist() == [[m, m, m]]
        assert got_rates.tolist() == [rates]


@pytest.mark.parametrize("lams", [
    lambda f: [0.5, 0.5 + f * TRIPLE_GAP, 1.0],
    lambda f: [-f * math.sqrt(TRIPLE_GAP) / 2, f * math.sqrt(TRIPLE_GAP) / 2, 1.0],
    lambda f: [f * TRIPLE_FLOOR, -0.5, 1.0],
], ids=["same-sign-gap", "opposite-sign-gap", "floor"])
def test_triple_closed_form_near_its_trust_edges(monkeypatch, lams):
    """A 3 x 3 block 5 % inside the closed form's trust test (gap, gap of a
    pair of opposite signs, smallest |lam|) stays in the closed form; 5 %
    outside, its row takes eigh."""
    X, Xdot, _ = _spectral([lams(1.05), lams(0.95)])
    _assert_second_row_takes_eigh(monkeypatch, X, Xdot, 7)


@pytest.mark.parametrize("block", [
    0.7 * np.eye(3),  # a triple tie: p = 0
    np.diag([0.4, 0.9, 0.4]),  # a double tie
    np.zeros((3, 3)),  # the zero block
    np.diag([-0.0, -0.0, 1.0]),  # signed zeros
    # kernel or not by a 5 % margin, far under TRIPLE_FLOOR: eigh decides
    _spectral([[1.05 * KERNEL_CUTOFF, -0.5, 1.0]])[0][0, 0],
    _spectral([[0.95 * KERNEL_CUTOFF, -0.5, 1.0]])[0][0, 0],
    np.diag([1.0, np.inf, -1.0]),
    np.diag([np.nan, 0.5, 0.5]),
    np.array([[1.0, np.nan, 0.0], [np.nan, 2.0, 0.0], [0.0, 0.0, 3.0]]),
    np.array([[1e200, 1.0, 0.0], [1.0, -1e200, 0.0], [0.0, 0.0, 3.0]]),  # p overflows
], ids=["triple-tie", "tie", "zero", "signed-zero", "above-kernel-cutoff",
        "below-kernel-cutoff", "inf", "nan", "nan-off", "overflow"])
@pytest.mark.parametrize("rates", [RATES, np.full((3, 3), -0.0)], ids=["rates", "zero-rates"])
def test_triple_fallbacks_take_eigh(monkeypatch, block, rates):
    """Ties, zero or near-kernel eigenvalues (signed zeros included),
    non-finite entries and an overflowing spread take eigh, and give its
    bits (or its error); none raises a RuntimeWarning, which this suite
    turns into an error."""
    X = block[None, None].astype(complex)
    _assert_row_takes_eigh(monkeypatch, X, np.broadcast_to(rates, X.shape).astype(complex), 7)


@pytest.mark.parametrize("k,n_probes", [(1, 2000), (2, 500)])
def test_scan_rows_at_the_budget_match_point_at_a_time(k, n_probes):
    """At the package's own SCAN_CHUNK_ENTRIES, where the benchmark's
    probe-heavy scans (2000 qutrit probes, and 500 at k = 2, on 40 points)
    take several points a batch, every row is bit-equal to its one-point
    batch ``_norm_rderiv(fam, chain, s, [t], k)``.  The property test of
    this runs at a small budget."""
    fam, grid = family(), np.linspace(0.0, 4.0, 40, endpoint=False)
    probes = random_probes(3 * k, n_probes, 1)
    rows = norm_derivative_scan(fam, probes, grid, k=k).rows
    chain = _chain_applies(probes.probes, k)
    per_t = [_norm_rderiv(fam, chain, s, [t], k)
             for s, t in zip(_stages(grid, fam.params), grid)]
    for name, column in zip(("norm", "rderiv"), zip(*per_t)):
        assert rows[name].tobytes() == np.concatenate(column).T.ravel().tobytes()


def test_scan_rows_do_not_hang_on_the_probe_count():
    """A row's bits do not depend on how many probes share its batch: the
    one-point stage-1 batches of 20,000 qutrit probes, whose 3 x 3 closed
    form works on arrays past numpy's 256 KiB threshold for reusing a
    temporary, read the rows of the 2000-probe scans of their parts."""
    fam, grid = family(), [0.1, 0.4, 0.7]
    probes = random_probes(3, 20000, 1)
    rows = norm_derivative_scan(fam, probes, grid).rows
    parts = [norm_derivative_scan(fam, ProbeSet(probes.probes[i:i + 2000], 1), grid).rows
             for i in range(0, 20000, 2000)]
    for name in ("norm", "rderiv"):
        assert rows[name].tobytes() == np.concatenate([p[name] for p in parts]).tobytes()
