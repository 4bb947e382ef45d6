"""Test-only oracles: a Richardson finite-difference right derivative, a
full matrix evaluation of the closed-form norm, the scan's block kernel as
it was written, with a sort, Lambda_t as it was written, each stage's
Gamma^(i) followed by a matmul by its prefix map, and the scan's batches as
they were written, from a map stack per batch.

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
from qmarkov.contractivity import (SCAN_CHUNK_ENTRIES, _block_entries, _block_norm_rderiv,
                                   _eigh_norm_rderiv, _eigh_spectrum, _pair_spectrum,
                                   _triple_spectrum)
from qmarkov.operators import OperandError, trace_norm
from qmarkov.qutrit_family import (E1, E2_E1, E3_E2_E1, RHO_A, RHO_B, MapParams,
                                   gamma_family, make_E, rate_f, rate_g)
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
            for size, rows, cols in _block_entries(code, k):
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


def _gamma_stack(i, taus, params, dot):
    """Gamma^(i) (its tau-derivative with ``dot``) at each tau of ``taus`` as
    it was written: stage 1 by index writes of its dephasing coefficient,
    stages 2 and 3 as w I + (1 - w) E_i with the package's E_i as a complex
    array, and the package's own Gamma^(4) as a complex array, so a stage
    length divides each stage by numpy's complex division."""
    if i == 1:
        coefficients = ([-4.0 * (1.0 - tau) ** 3 for tau in taus] if dot else
                        [0.0 if math.isinf(g) else math.exp(-4.0 * g) for g in map(rate_g, taus)])
        m = np.zeros((len(taus), 81), dtype=complex)
        m[:, ::10] = np.array(coefficients)[:, None]  # the matrix diagonal
        m[:, ::40] = 0.0 if dot else 1.0  # |i><i| sits at index 4i
        return m.reshape(-1, 9, 9)
    if i == 4:
        return qutrit_family._gammas(4, taus, params, dot).astype(complex)
    target, fs = make_E(i).matrix.astype(complex), [rate_f(tau) for tau in taus]
    if not dot:
        w = np.array([0.0 if math.isinf(f) else math.exp(-f) for f in fs])[:, None, None]
        return w * np.eye(9) + (1.0 - w) * target
    rate = [0.0 if math.isinf(f) else -(tau * (2.0 - tau) / (1.0 - tau) ** 2) * math.exp(-f)
            for tau, f in zip(taus, fs)]
    m = np.array(rate)[:, None, None] * (np.eye(9) - target)
    m[np.isinf(fs)] = 0.0
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
    return _block_norm_rderiv(X, Xdot, codes, k)


def scan_by_maps(fam, stack, grid, k):
    """(norm, rderiv), each (probes, points): the scan's columns as it
    computed them, in batches of as many grid points as SCAN_CHUNK_ENTRIES
    of probe entries allow, each from ``norm_rderiv_by_maps``."""
    chunk = max(1, SCAN_CHUNK_ENTRIES // stack.size)
    parts = [norm_rderiv_by_maps(fam, stack, grid[i:i + chunk], k)
             for i in range(0, len(grid), chunk)]
    return tuple(np.concatenate([part[j] for part in parts]).T for j in range(2))
