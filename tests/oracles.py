"""Test-only oracles: a Richardson finite-difference right derivative, a
full matrix evaluation of the closed-form norm, the scan's output blocks
gathered from whole X and Xdot as the block kernel once took them, the
block kernel as it was written, with a sort, Lambda_t as it was written,
each stage's Gamma^(i) followed by a matmul by its prefix map, the family's
coefficients (rates, weights, s = tau^delta, kets) one float expression per
tau as they were written, and the scan's batches as they were written, from
a map stack per batch.

The package computes these quantities exactly (Kato's formula in the scan,
the closed forms in ``contractivity``); the tests check it against these
independent routes, the kernel and the family against their earlier forms
bit for bit, and the scan against its map-stack form to rounding.
"""

import bisect
import functools
import math

import numpy as np

from qmarkov import qutrit_family
from qmarkov.contractivity import (SCAN_CHUNK_ENTRIES, _block_norm_rderiv, _eigh_norm_rderiv,
                                   _eigh_spectrum, _pair_spectrum, _triple_spectrum)
from qmarkov.operators import OperandError, trace_norm
from qmarkov.qutrit_family import (E1, E2_E1, E3_E2_E1, RHO_A, RHO_B, MapParams,
                                   gamma_family, make_E)
from qmarkov.superops import apply_to_extended
from qmarkov.tolerances import KERNEL_CUTOFF

# Default initial step of the finite-difference right-derivative estimator
# (right_derivative), the oracle the exact scan is tested against; two
# Richardson halvings on top of this pass closed-form checks at 1e-5
# without catastrophic cancellation at the 1e-12 matrix tolerance floor.
DEFAULT_H0 = 1e-4


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


def gamma4_norm_numeric(lam: float, tau: float, theta: float) -> float:
    """Full matrix-evaluation oracle for the closed-form norm."""
    params = MapParams(theta=theta)
    return trace_norm(gamma_family(4, tau, params).apply(RHO_A - lam * RHO_B))


@functools.lru_cache(maxsize=None)
def block_entries(code, k):
    """The output blocks of Lambda_t tensor Id_k for an output code, as
    ((size, rows, cols), ...): X[..., rows, cols] of an operator stack
    (..., 3k, 3k) is the stack (..., blocks, size, size) of its size x size
    blocks, one per qutrit block B, which spans B tensor C^k.  Two linked
    pairs join all three levels in one block."""
    linked = [pair for bit, pair in enumerate([(0, 1), (0, 2), (1, 2)]) if code >> bit & 1]
    if len(linked) > 1:
        blocks = [(0, 1, 2)]
    elif linked:
        blocks = [linked[0], (3 - sum(linked[0]),)]
    else:
        blocks = [(0,), (1,), (2,)]
    by_size = {}
    for block in blocks:
        q = [i * k + a for i in block for a in range(k)]
        by_size.setdefault(len(q), []).append(q)
    return tuple((size, np.array(qs)[:, :, None], np.array(qs)[:, None, :])
                 for size, qs in sorted(by_size.items()))


def block_norm_rderiv_whole(X, Xdot, codes, k, still=None):
    """``contractivity._block_norm_rderiv`` on whole stacks X, Xdot (points,
    probes, 3k, 3k), as the kernel read them before it took blocks: each
    code's blocks gathered from X and Xdot (``block_entries``), and the
    whole rows at the points the kernel asks for."""
    def blocks(code, at):
        return tuple((np.moveaxis(X[at][..., rows, cols], 2, 1),
                      np.moveaxis(Xdot[at][..., rows, cols], 2, 1))
                     for _, rows, cols in block_entries(code, k))

    return _block_norm_rderiv(codes, blocks, lambda points: (X[points], Xdot[points]), still)


def block_norm_rderiv_sorted(X, Xdot, codes, k):
    """``contractivity._block_norm_rderiv`` as it was written: each row's block
    values concatenated, argsorted and gathered, then reduced along the
    short last axis by numpy's own ``sum``."""
    norm, rderiv = np.empty(X.shape[:2]), np.empty(X.shape[:2])
    slow = np.ones(X.shape[:2], dtype=bool)
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        at = codes == code
        at = slice(None) if at.all() else at
        Xg, Xdotg = X[at], Xdot[at]
        lam, rates = [], []
        with np.errstate(all="ignore"):
            for size, rows, cols in block_entries(code, k):
                B, Bdot = Xg[..., rows, cols], Xdotg[..., rows, cols]
                if size == 1:
                    values = B[..., 0, 0].real, Bdot[..., 0, 0].real
                elif size == 2:
                    values = _pair_spectrum(B, Bdot)
                elif size == 3:
                    values = _triple_spectrum(B, Bdot)
                else:
                    block_lam, _, _, block_rates = _eigh_spectrum(B, Bdot)
                    values = block_lam, block_rates
                lam.append(values[0].reshape(Xg.shape[:2] + (-1,)))
                rates.append(values[1].reshape(Xg.shape[:2] + (-1,)))
            lam, rates = np.concatenate(lam, axis=-1), np.concatenate(rates, axis=-1)
            order = np.argsort(lam, axis=-1)
            lam = np.take_along_axis(lam, order, axis=-1)
            rates = np.take_along_axis(rates, order, axis=-1) + 0.0
            mag = np.abs(lam)
            norm[at] = mag.sum(axis=-1)
            rderiv[at] = (np.sign(lam) * rates).sum(axis=-1)
            smallest = functools.reduce(np.minimum, np.moveaxis(mag, -1, 0))
            rising = functools.reduce(np.logical_and,
                                      np.moveaxis(lam[..., 1:] > lam[..., :-1], -1, 0))
            slow[at] = ~((smallest > KERNEL_CUTOFF * np.maximum(mag[..., 0], mag[..., -1]))
                         & rising & np.isfinite(rderiv[at]))
    if slow.all():
        return _eigh_norm_rderiv(X, Xdot)
    if slow.any():
        norm[slow], rderiv[slow] = _eigh_norm_rderiv(X[slow], Xdot[slow])
    return norm, rderiv


def rate_f_by_point(tau):
    """f(tau) = tau^2 / (1 - tau) for one float tau, as it was written."""
    if not 0.0 <= tau <= 1.0:
        raise OperandError("tau must lie in [0, 1]")
    return math.inf if tau == 1.0 else tau * tau / (1.0 - tau)


def rate_g_by_point(tau):
    """g(tau) = -ln(1 - tau) for one float tau, as it was written."""
    if not 0.0 <= tau <= 1.0:
        raise OperandError("tau must lie in [0, 1]")
    return math.inf if tau == 1.0 else -math.log1p(-tau)


def weights_by_point(i, taus, dot):
    """``qutrit_family._weights`` as it was written: one float expression per
    tau of the list ``taus``, a (len(taus), 1, 1) column."""
    if i == 1:
        w = ([-4.0 * (1.0 - tau) ** 3 for tau in taus] if dot else
             [0.0 if math.isinf(g) else math.exp(-4.0 * g) for g in map(rate_g_by_point, taus)])
    elif dot:
        w = [0.0 if math.isinf(f) else -(tau * (2.0 - tau) / (1.0 - tau) ** 2) * math.exp(-f)
             for tau, f in zip(taus, map(rate_f_by_point, taus))]
    else:
        w = [0.0 if math.isinf(f) else math.exp(-f) for f in map(rate_f_by_point, taus)]
    return np.array(w)[:, None, None]


def gamma4_by_point(taus, params, dot):
    """``qutrit_family._gammas(4, ...)`` as it was written: s = tau^delta, the
    kets and ds/dtau one float expression per tau of the list ``taus``."""
    delta, theta = params.delta, params.theta
    sigma = np.array([tau ** delta for tau in taus])
    kets = np.array([(math.sin(a), math.cos(a), 0.0) for a in (theta * sigma).tolist()])
    vec_proj, up = qutrit_family._vec_outer(kets, kets), 1.0 + sigma * sigma
    if not dot:
        return qutrit_family._gamma4(up, up[:, None] * vec_proj, 1.0 - sigma * sigma)
    ds = [delta * tau ** (delta - 1.0) if tau > 0.0 else float(delta == 1.0) for tau in taus]
    dkets = np.zeros_like(kets)
    dkets[:, 0], dkets[:, 1] = theta * kets[:, 1], theta * -kets[:, 0]
    c11 = ((2.0 * sigma)[:, None] * vec_proj
           + up[:, None] * (qutrit_family._vec_outer(dkets, kets)
                            + qutrit_family._vec_outer(kets, dkets)))
    return np.array(ds)[:, None, None] * qutrit_family._gamma4(2.0 * sigma, c11, -2.0 * sigma)


def _gamma_stack(i, taus, params, dot):
    """Gamma^(i) (its tau-derivative with ``dot``) at each tau of ``taus`` as
    it was written: stage 1 by index writes of its dephasing coefficient,
    stages 2 and 3 as w I + (1 - w) E_i with the package's E_i as a complex
    array, and Gamma^(4) (``gamma4_by_point``) as a complex array, so a stage
    length divides each stage by numpy's complex division."""
    if i == 1:
        m = np.zeros((len(taus), 81), dtype=complex)
        m[:, ::10] = weights_by_point(1, taus, dot)[:, :, 0]  # the matrix diagonal
        m[:, ::40] = 0.0 if dot else 1.0  # |i><i| sits at index 4i
        return m.reshape(-1, 9, 9)
    if i == 4:
        return gamma4_by_point(taus, params, dot).astype(complex)
    target, w = make_E(i).matrix.astype(complex), weights_by_point(i, taus, dot)
    if not dot:
        return w * np.eye(9) + (1.0 - w) * target
    m = w * (np.eye(9) - target)
    m[np.isinf([rate_f_by_point(tau) for tau in taus])] = 0.0
    return m


def lambda_stack_prefixed(ts, params: MapParams, dot: bool, left: bool = False):
    """``Family.stack`` (``dot_stack`` with ``dot``) as it was written: stages
    assigned point by point with ``bisect``, each stage's Gamma^(i) over the
    stage length for a derivative, then one batched matmul by the prefix map
    of stage i, E_{i-1} ... E1 (none for stage 1)."""
    starts = (0.0, params.t1, params.t2, params.t3, params.t4)
    prefixes = (None, E1, E2_E1, E3_E2_E1)
    find = bisect.bisect_left if left else bisect.bisect_right
    stages = {}  # stage i - 1: [(position, tau), ...]
    ts = np.asarray(ts, dtype=float).reshape(-1).tolist()
    for j, t in enumerate(ts):
        s = find(starts, t, 1, 4) - 1
        stages.setdefault(s, []).append((j, (t - starts[s]) / (starts[s + 1] - starts[s])))
    out = np.empty((len(ts), 9, 9), dtype=complex)
    for s, points in stages.items():
        at, taus = map(list, zip(*points))
        m = _gamma_stack(s + 1, taus, params, dot)
        if dot:
            m /= starts[s + 1] - starts[s]
        out[at] = m if prefixes[s] is None else m @ prefixes[s].matrix
    return out


# Vectorized rows (j*3 + i and i*3 + j) of the output entries |i><j| and
# |j><i| that link qutrit output pairs (0, 1), (0, 2) and (1, 2), the bits 1,
# 2 and 4 of a point's output code.
_PAIR_ROWS = np.array([[1, 3], [2, 6], [5, 7]])


def output_codes(maps):
    """Per map of a stack (points, 9, 9), the bits of the output pairs whose
    rows are not all exactly 0, as the scan read them point by point: 0 for
    diagonal output (on [t1, t3]), 1 for span{|0>, |1>} plus |2> (stage 4),
    7 for a full qutrit (stage 1)."""
    return np.any(maps, axis=-1)[:, _PAIR_ROWS].any(axis=-1) @ np.array([1, 2, 4])


def norm_rderiv_by_maps(fam, stack, ts, k):
    """The scan's batch as it was written: Lambda_t and its derivative at the
    points ``ts`` from ``Family.stack`` and ``dot_stack``, each applied to
    every probe, each point's output code read off its map's rows, and the
    block kernel; two arrays (len(ts), probes)."""
    maps = fam.stack(ts)
    X, codes = apply_to_extended(maps, stack, k), output_codes(maps)
    Xdot = apply_to_extended(fam.dot_stack(ts), stack, k)
    return block_norm_rderiv_whole(X, Xdot, codes, k)


def scan_by_maps(fam, stack, grid, k):
    """(norm, rderiv), each (probes, points): the scan's columns as it
    computed them, in batches of as many grid points as SCAN_CHUNK_ENTRIES
    of probe entries allow, each from ``norm_rderiv_by_maps``."""
    chunk = max(1, SCAN_CHUNK_ENTRIES // stack.size)
    parts = [norm_rderiv_by_maps(fam, stack, grid[i:i + chunk], k)
             for i in range(0, len(grid), chunk)]
    return tuple(np.concatenate([part[j] for part in parts]).T for j in range(2))
