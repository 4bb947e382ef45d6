"""Information-flow analysis via trace-norm contractivity.

Exact right-derivative scans of t -> ||Lambda_t(X)||_1 over probe ensembles
(optionally with an ancilla of dimension k), the closed-form norm and
derivative of the fourth interpolating family on probes rho_A - lambda*rho_B,
the theta-window tightness sweep, the analytic bound chain and the
lambda <-> 1/lambda reflection identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import OperandError, ProbeSet
from .qutrit_family import _CHAIN, _stage_images, _stages
from .superops import apply_to_extended
from .tables import write_scan_csv
from .tolerances import (KERNEL_CUTOFF, SINGULAR_ROOT, TOL_BOUND_CHAIN, TOL_CLOSED_FORM,
                         TOL_DERIV, TOL_REFLECTION, TRIPLE_FLOOR, TRIPLE_GAP)


class SingularPointError(ValueError):
    """Closed-form derivative evaluated at its vanishing-denominator point."""


@dataclass(frozen=True)
class ScanReport:
    """``rows``: record array ``t, probe_id, k, norm, rderiv, verdict`` in
    probe-major order, ``verdict`` "ok" only where ``rderiv`` <= TOL_DERIV (a
    NaN reads "fail"); ``seed``: the probes' seed.  The rest is read off the
    rows: the worst row is the first maximum of ``rderiv`` (a NaN is one),
    so a report without rows, which has no worst row, is refused."""

    rows: np.recarray
    seed: int

    def __post_init__(self):
        if len(self.rows) == 0:
            raise OperandError("a scan report needs at least one row")

    @property
    def _points(self) -> int:
        return len(self.rows) // (int(self.rows.probe_id[-1]) + 1)

    # Each fact below reads a strided field of every row, so it is read once:
    # a cached_property writes the instance __dict__, which a frozen
    # dataclass leaves open.
    @functools.cached_property
    def _worst(self) -> int:
        return int(np.argmax(self.rows.rderiv))

    @functools.cached_property
    def _fails(self) -> np.ndarray:
        return np.flatnonzero(self.rows.verdict == "fail")

    @property
    def verdict_rows(self) -> np.ndarray:
        """Indices of the rows the verdict rests on, ascending: every row that
        reads "fail", or the worst row when none does."""
        return self._fails if self._fails.size else np.array([self._worst])

    @property
    def max_rderiv(self) -> float:
        return float(self.rows.rderiv[self._worst])

    @property
    def argmax_t(self) -> float:
        return float(self.rows.t[self._worst])

    @property
    def argmax_probe(self) -> int:
        return int(self.rows.probe_id[self._worst])

    @property
    def passed(self) -> bool:
        return not self._fails.size

    @property
    def k(self) -> int:
        return int(self.rows.k[0])

    def to_csv(self, path, index=slice(None)) -> None:
        """Write the rows as ``tables.write_scan_csv`` does, or only the rows
        ``index`` picks in scan order (``verdict_rows``, say), each line the
        same bytes as in the full file."""
        write_scan_csv(path, self.rows, self._points, index)

    def summary(self) -> dict:
        return {
            "max_rderiv": self.max_rderiv,
            "argmax_t": self.argmax_t,
            "argmax_probe": self.argmax_probe,
            "passed": self.passed,
            "slack": TOL_DERIV,
            "seed": self.seed,
            "k": self.k,
            "grid": {"points": self._points, "t_min": float(self.rows.t[0]),
                     "t_max": float(self.rows.t[self._points - 1])},
        }


# A scan batch holds the probes at as many grid points as fit in
# SCAN_CHUNK_ENTRIES complex probe entries, and at least one, so one blend
# (or stage-4 block build) and one kernel call serve each stage of it: 2
# qutrit probes take up to 2048 points, the default 200 take 20, and 2000
# qutrit probes or 500 at k = 2 take 2.  X and Xdot then take at most about
# 0.6 MB each, or one probe stack where the stack alone is larger; the
# chain's applies hold three probe stacks beside the probes for the whole
# scan.  Each batch pays a fixed numpy cost (a one-probe, one-point batch
# takes 165, 69, 66 and 134 us on stages 1-4), and a larger batch pays in
# page faults instead: its temporaries go back to the system and fault in
# again batch by batch.  Swept on a 2-vCPU Xeon, one BLAS thread, at 2048,
# 4096, 6144, 8192 and 10240 x 9:
# - scan CPU alone, medians of 21 alternating calls: 2000 x 40 18.1, 15.6,
#   14.5, 14.6, 13.3 ms; 500 x 40 at k = 2 50.4, 48.0, 47.0, 46.0, 45.3 ms;
#   200 x 200 9.3, 8.3, 7.8, 8.3, 7.8 ms.  Its tracemalloc peak at
#   2000 x 40: 6.9, 8.4, 9.9, 11.4, 13.2 MB;
# - minor page faults per `scan` call: 2000 x 40 10, 8, 1738, 5, 2529;
#   200 x 200 7, 9, 1325, 3682, 6524 (the allocator's thresholds move with
#   the sizes it has freed, so the count does not grow evenly);
# - end to end, bench/run.py round_s.p50, medians of 3 runs of 8 s:
#   probe-heavy 0.248, 0.236, 0.239, 0.235, 0.235 s (peak_rss_mb 100.2,
#   100.8, 102.5, 98.2, 99.6); certify 0.114, 0.114, 0.114, 0.121, 0.133 s;
#   grid-heavy 0.040 s at each.
# 8192 and 10240 x 9 slow certify by 7 and 16 %.  Of the rest, 4096 x 9
# beat 6144 x 9 on probe-heavy, 0.236 against 0.239 s over 5 runs each,
# with 1.7 MB less peak RSS.
SCAN_CHUNK_ENTRIES = 4096 * 9

# The fields of ``ScanReport.rows``, packed in this order.
_SCAN_ROW = np.dtype([("t", float), ("probe_id", int), ("k", int), ("norm", float),
                      ("rderiv", float), ("verdict", "U4")])


def _pair_codes(nonzero: np.ndarray) -> np.ndarray:
    """Output codes of masks (..., 3, 3) of a map's nonzero output entries
    |i><j| (``qutrit_family._stage_images``): the bits 1, 2 and 4 of the
    linked qutrit pairs (0, 1), (0, 2) and (1, 2).  0 is diagonal output
    (after the complete dephasing E1, on [t1, t3]), 1 is span{|0>, |1>} plus
    |2> (stage 4), 7 a full qutrit."""
    linked = nonzero | np.swapaxes(nonzero, -1, -2)
    return linked[..., 0, 1] * 1 + linked[..., 0, 2] * 2 + linked[..., 1, 2] * 4


@functools.lru_cache(maxsize=None)
def _block_entries(code: int, k: int):
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


def _eigh_spectrum(X: np.ndarray, Xdot: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors V of the Hermitised stack X
    (..., n, n) from one batched eigh, Xdot @ V, and the Kato rates
    <v_i|Xdot|v_i>.  An infinite entry makes its matrix NaN: halving it is a
    complex division, whose inf * 0 would otherwise warn."""
    with np.errstate(invalid="ignore"):
        X = (X + np.conj(np.swapaxes(X, -1, -2))) / 2
    lam, V = np.linalg.eigh(X)
    XdotV = Xdot @ V
    return lam, V, XdotV, np.einsum("...ji,...ji->...i", V.conj(), XdotV).real


def _eigh_norm_rderiv(X: np.ndarray, Xdot: np.ndarray):
    """Trace norms and exact right derivatives (see ``_norm_rderiv``) of a
    stack (..., n, n) of operators X with derivatives Xdot, from one batched
    eigh: the full-space path of ``_block_norm_rderiv``."""
    lam, V, XdotV, rates = _eigh_spectrum(X, Xdot)
    mag = np.abs(lam)
    # eigh sorts lam ascending, so the largest |lam| sits at one end
    kernel = mag <= KERNEL_CUTOFF * np.maximum(mag[..., :1], mag[..., -1:])
    rderiv = np.where(kernel, 0.0, np.sign(lam) * rates).sum(axis=-1)
    rows = np.nonzero(kernel.any(axis=-1))
    if rows[0].size:
        inner = np.conj(np.swapaxes(V[rows], -1, -2)) @ XdotV[rows]
        mask = kernel[rows][:, :, None] & kernel[rows][:, None, :]
        block = np.where(mask, (inner + np.conj(np.swapaxes(inner, -1, -2))) / 2, 0.0)
        rderiv[rows] += np.abs(np.linalg.eigvalsh(block)).sum(axis=-1)
    return mag.sum(axis=-1), rderiv


def _hermitised(M: np.ndarray, i: int, j: int):
    """Entry (i, j) of the Hermitised matrices of a stack M (..., n, n)."""
    return (M[..., i, j] + M[..., j, i].conj()) / 2


def _re_dot(x, y):
    """Re(x conj(y)), elementwise."""
    return x.real * y.real + x.imag * y.imag


def _pair_spectrum(B: np.ndarray, Bdot: np.ndarray):
    """Eigenvalues m -+ r of the Hermitised 2 x 2 matrices of a stack B
    (..., 2, 2), and their Kato rates mdot -+ rdot with Bdot, in closed
    form: m = (a + d)/2, r = |((a - d)/2, b)| for B = [[a, b], [b*, d]].
    A row with r = 0 (a tie) reads NaN rates."""
    a, d, b = B[..., 0, 0].real, B[..., 1, 1].real, _hermitised(B, 0, 1)
    ad, dd, bd = Bdot[..., 0, 0].real, Bdot[..., 1, 1].real, _hermitised(Bdot, 0, 1)
    m, h = 0.5 * a + 0.5 * d, 0.5 * a - 0.5 * d
    r = np.hypot(h, np.abs(b))
    mdot = 0.5 * ad + 0.5 * dd
    rdot = (h * (0.5 * ad - 0.5 * dd) + b.real * bd.real + b.imag * bd.imag) / r
    return np.stack([m - r, m + r], axis=-1), np.stack([mdot - rdot, mdot + rdot], axis=-1)


# arccos(q)/3 plus these angles gives the cubic's roots in ascending order
_TRIPLE_ANGLES = (2 * math.pi / 3, 4 * math.pi / 3, 0.0)


def _triple_spectrum(B: np.ndarray, Bdot: np.ndarray):
    """Eigenvalues (ascending) of the Hermitised 3 x 3 matrices of a stack B
    (..., 3, 3), and their Kato rates with Bdot, in closed form: the
    trigonometric roots of the characteristic cubic (Smith, Commun. ACM 4,
    168, 1961).  With m = tr B / 3, p = sqrt(tr (B - m)^2 / 6) and q =
    det((B - m)/p) / 2, lam_j = m + 2p cos(arccos(q)/3 + 2 pi j/3).  The rate
    of lam_i is Tr(P_i Bdot), with P_i = (B - lam_j)(B - lam_k) / ((lam_i -
    lam_j)(lam_i - lam_k)) the spectral projector, from Tr Bdot, Tr (B - m)
    Bdot and Tr (B - m)^2 Bdot.

    The roots lose digits near a double root (Kopp, Int. J. Mod. Phys. C
    19, 523, 2008), so a row reads NaN rates, and takes eigh, where
    neighbouring eigenvalues lie closer than TRIPLE_GAP times its largest
    |lam| (sqrt(TRIPLE_GAP) for a pair of opposite signs) or its smallest
    |lam| is at most TRIPLE_FLOOR times it; ties and non-finite rows fail
    the same tests, except a row with p = 0, which is m I exactly: its
    eigenvalues read m and its rates the diagonal of Bdot, all 0 where
    Bdot = 0.  Its tie sends the row to eigh unless Xdot = 0 there."""
    d0, d1, d2 = B[..., 0, 0].real, B[..., 1, 1].real, B[..., 2, 2].real
    m = (d0 + d1 + d2) / 3
    d0, d1, d2 = d0 - m, d1 - m, d2 - m
    b01, b02, b12 = _hermitised(B, 0, 1), _hermitised(B, 0, 2), _hermitised(B, 1, 2)
    s01, s02, s12 = _re_dot(b01, b01), _re_dot(b02, b02), _re_dot(b12, b12)
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2 * (s01 + s02 + s12)) / 6)
    # det((B - m)/p) / 2 from the scaled entries, so that no power of p overflows
    n0, n1, n2, c01, c02, c12 = d0 / p, d1 / p, d2 / p, b01 / p, b02 / p, b12 / p
    q = (n0 * n1 * n2 + 2 * _re_dot(c01 * c12, c02) - n0 * _re_dot(c12, c12)
         - n1 * _re_dot(c02, c02) - n2 * _re_dot(c01, c01)) / 2
    phi = np.arccos(np.clip(q, -1.0, 1.0)) / 3
    mu = [2 * p * np.cos(phi + angle) for angle in _TRIPLE_ANGLES]

    e0, e1, e2 = Bdot[..., 0, 0].real, Bdot[..., 1, 1].real, Bdot[..., 2, 2].real
    f01, f02, f12 = _hermitised(Bdot, 0, 1), _hermitised(Bdot, 0, 2), _hermitised(Bdot, 1, 2)
    t0 = e0 + e1 + e2
    t1 = d0 * e0 + d1 * e1 + d2 * e2 + 2 * (_re_dot(b01, f01) + _re_dot(b02, f02)
                                            + _re_dot(b12, f12))
    # (B - m)^2: its diagonal, and its entries (0, 1), (0, 2), (1, 2).  In
    # `b02 * b12.conj()` numpy would reuse the temporary conj from 256 KiB on
    # and multiply it by b02, and its complex multiply does not commute bit
    # for bit, so a row's bits would hang on its batch's size.
    t2 = ((d0 * d0 + s01 + s02) * e0 + (d1 * d1 + s01 + s12) * e1
          + (d2 * d2 + s02 + s12) * e2
          + 2 * (_re_dot((d0 + d1) * b01 + np.multiply(b02, b12.conj()), f01)
                 + _re_dot((d0 + d2) * b02 + b01 * b12, f02)
                 + _re_dot((d1 + d2) * b12 + b01.conj() * b02, f12)))
    rates = [(t2 - (mj + mk) * t1 + mj * mk * t0) / ((mi - mj) * (mi - mk))
             for mi, mj, mk in (mu, mu[1:] + mu[:1], mu[2:] + mu[:2])]

    lo, mid, hi = (m + v for v in mu)
    scale = np.maximum(np.abs(lo), np.abs(hi))
    trusted = np.minimum(np.abs(lo), np.minimum(np.abs(mid), np.abs(hi))) > TRIPLE_FLOOR * scale
    for a, b in ((lo, mid), (mid, hi)):
        gap = (b - a) / scale
        # a pair of opposite signs enters through its rates' difference: eps/gap^2
        trusted &= np.where(a * b < 0, gap * gap, gap) >= TRIPLE_GAP
    lam = np.stack([lo, mid, hi], axis=-1)
    rates = np.where(trusted[..., None], np.stack(rates, axis=-1), np.nan)
    zero = p == 0
    if zero.any():  # B = m I, where the cubic reads 0/0
        lam[zero] = m[zero][:, None]
        rates[zero] = np.stack([e0, e1, e2], axis=-1)[zero]
    return lam, rates


def _merge_runs(lam: list, rates: list) -> None:
    """Sort the columns ``lam`` ascending row by row, ``rates`` along, where
    each block's run of columns ascends: each column is inserted by
    compare-exchange steps, up to the first step where no row swaps (every
    row is sorted below it).  Ties and non-finite values need not order as
    a sort would: their rows take eigh."""
    for i in range(1, len(lam)):
        for j in range(i, 0, -1):
            swap = lam[j] < lam[j - 1]
            if not swap.any():
                break
            for c in lam, rates:
                c[j - 1], c[j] = np.where(swap, c[j], c[j - 1]), np.where(swap, c[j - 1], c[j])


def _row_sum(columns: list) -> np.ndarray:
    """The bits of ``.sum(axis=-1)`` over the columns stacked as (..., n):
    numpy adds fewer than 8 values in sequence from +0.0, so a zero term's
    sign never shows, and 8 or more pairwise.  The sequential adds skip the
    stack and the short-axis reduction: on a shared 2-vCPU host, certify
    rounds read 0.165 s against 0.173 s with the stacked sum at every n
    (10 of 10 alternating pairs).  A bit test against the sort-based kernel
    pins both paths to numpy's own sum."""
    if len(columns) < 8:
        return functools.reduce(np.add, columns, 0.0)
    return np.stack(columns, axis=-1).sum(axis=-1)


def _block_norm_rderiv(X: np.ndarray, Xdot: np.ndarray, codes: np.ndarray, k: int,
                       still: np.ndarray | None = None):
    """``_eigh_norm_rderiv`` of stacks X, Xdot (points, probes, 3k, 3k)
    where X = (Lambda_t tensor Id_k)(probe) and ``codes`` holds each point's
    output code (``_pair_codes``): X is then block diagonal, with zero
    entries exactly where Lambda_t's output rows are.

    Per block the eigenvalues and Kato rates <v_i|Xdot|v_i> are read off the
    diagonal (1 x 1), in closed form (2 x 2, ``_pair_spectrum``; 3 x 3,
    ``_triple_spectrum``) or from one batched eigh per larger block size;
    only a block's own entries of Xdot enter them.  Each block's values
    ascend, so a row's values, one column each, are merged rather than
    sorted (``_merge_runs``) and reduced in the order of eigh's path
    (``_row_sum``): a row of 1 x 1 blocks gives eigh's bits.  (LAPACK
    rescales a matrix whose largest entry lies outside about [1e-146,
    1e146] and then rounds even a diagonal; the blocks keep the exact
    diagonal there.)  A row with a kernel eigenvalue needs the cross-block
    entries of Xdot in ||P0 Xdot P0||_1, and a row with a tie has no
    well-ordered pairing of values and rates; both take one batched eigh of
    the full X, as do rows with NaN or inf, which fail the comparisons or
    the finiteness test, and rows whose 3 x 3 closed form fails its trust
    test (near-degenerate eigenvalues, or one near 0), which read NaN rates.

    ``still`` marks the points where Xdot is exactly 0.  Kato's formula is
    then 0 whatever the kernel and the ties, so those rows read +0.0 and
    take eigh only for a non-finite norm or a refused 3 x 3 closed form;
    eigh's sum of the terms sign(lam) * 0 starts from +0.0 and reads +0.0.
    """
    norm, rderiv = np.empty(X.shape[:2]), np.empty(X.shape[:2])
    slow = np.ones(X.shape[:2], dtype=bool)
    # the codes present; np.unique would do, but its first call costs 1.6 MB of RSS
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        at = codes == code
        at = slice(None) if at.all() else at
        Xg, Xdotg = X[at], Xdot[at]
        still_rows = None if still is None or not still[at].any() else still[at][:, None]
        lam, rates, refused = [], [], np.zeros(Xg.shape[:2], dtype=bool)
        # non-finite entries and ties only raise flags in rows that take eigh
        with np.errstate(all="ignore"):
            for size, rows, cols in _block_entries(code, k):
                if size == 3 * k:  # one block spans the matrix: a view, not a gather
                    B, Bdot = Xg[..., None, :, :], Xdotg[..., None, :, :]
                else:
                    B, Bdot = Xg[..., rows, cols], Xdotg[..., rows, cols]
                if size == 1:
                    values = B[..., 0, 0].real, Bdot[..., 0, 0].real
                elif size == 2:
                    values = _pair_spectrum(B, Bdot)
                elif size == 3:
                    values = _triple_spectrum(B, Bdot)
                    if still_rows is not None:
                        refused |= np.isnan(values[1]).reshape(Xg.shape[:2] + (-1,)).any(axis=-1)
                else:
                    block_lam, _, _, block_rates = _eigh_spectrum(B, Bdot)
                    values = block_lam, block_rates
                lam.extend(np.moveaxis(values[0].reshape(Xg.shape[:2] + (-1,)), -1, 0))
                rates.extend(np.moveaxis(values[1].reshape(Xg.shape[:2] + (-1,)), -1, 0))
            _merge_runs(lam, rates)
            mag = [np.abs(c) for c in lam]
            norm[at] = _row_sum(mag)
            rderiv[at] = _row_sum([np.sign(c) * r for c, r in zip(lam, rates)])
            smallest = functools.reduce(np.minimum, mag)
            rising = functools.reduce(np.logical_and, [b > a for a, b in zip(lam, lam[1:])])
            # the values ascend, so the largest |lam| sits at one end
            fast = ((smallest > KERNEL_CUTOFF * np.maximum(mag[0], mag[-1]))
                    & rising & np.isfinite(rderiv[at]))
            if still_rows is not None:
                fast = np.where(still_rows, np.isfinite(norm[at]) & ~refused, fast)
                rderiv[at] = np.where(still_rows, 0.0, rderiv[at])
            slow[at] = ~fast
    if slow.all():
        norm, rderiv = _eigh_norm_rderiv(X, Xdot)
    elif slow.any():
        norm[slow], rderiv[slow] = _eigh_norm_rderiv(X[slow], Xdot[slow])
    return norm, rderiv


def _chain_applies(stack: np.ndarray, k: int) -> tuple:
    """A_j = (P_j tensor Id_k)(probe) for each probe of ``stack`` and each map
    P_j of the chain Id, E1, E2 E1, E3 E2 E1, as four C-contiguous
    (probes, 3k, 3k) arrays, so that each flattens without a copy: A_0 is
    the stack itself (a ``ProbeSet``'s is C-contiguous), and the other three
    take one ``apply_to_extended`` each."""
    return tuple(np.ascontiguousarray(A) for A in
                 (stack, *(apply_to_extended(P, stack, k) for P in _CHAIN[1:])))


def _norm_rderiv(fam, chain: tuple, s: int, ts, k: int):
    """Trace norms ||X||_1 of X = (Lambda_t tensor Id_k)(probe) at the points
    ``ts`` of stage s (0..3, as ``qutrit_family._stages`` assigns) for a
    stack of probes, given as its chain's applies (``_chain_applies``), and
    their exact right derivatives: two arrays (len(ts), probes), from the
    stage's X and Xdot (``qutrit_family._stage_images``) and one call of
    ``_block_norm_rderiv``, with the points where Xdot is exactly 0.

    With X = sum_i lam_i |v_i><v_i| and Xdot = (dLambda_t/dt tensor Id_k)(probe),
    the right derivative is (Kato, Perturbation Theory, ch. II)

        sum_{lam_i != 0} sign(lam_i) <v_i|Xdot|v_i> + ||P0 Xdot P0||_1,

    P0 the projector onto the kernel of X, which is the eigenvalues with
    |lam| <= KERNEL_CUTOFF * max |lam| of each probe.

    The output blocks of each point are read off Lambda_t's output entries
    alone (its derivative can link blocks that Lambda_t keeps apart, as at
    t3): one 3 x 3 block in stage 1, three 1 x 1 blocks on [t1, t3] after
    the complete dephasing E1, and span{|0>, |1>} plus |2> in stage 4 (only
    |0> and |2> at t3, where the ket is |1>), each tensored with the
    ancilla.  A row's result depends on no other point or probe, so the
    batching moves no result.
    """
    X, support = _stage_images(chain, s, ts, fam.params, False)
    Xdot, moving = _stage_images(chain, s, ts, fam.params, True)
    return _block_norm_rderiv(X, Xdot, _pair_codes(support), k, ~moving.any(axis=(1, 2)))


def norm_derivative_scan(fam, probes: ProbeSet, grid, k: int = 1) -> ScanReport:
    """Right-derivative scan of ||(Lambda_t tensor Id_k)(X)||_1.

    ``fam`` is a ``qutrit_family.Family`` on the system factor; for k > 1 the
    probes must live on the product space.  Each map of the chain Id, E1,
    E2 E1, E3 E2 E1 is applied to the probes once (``_chain_applies``), and
    every point's X and Xdot are built from those applies: the scan builds
    no map stack.  The grid goes in consecutive batches of as many points
    as SCAN_CHUNK_ENTRIES of probe entries allow, and at least one (2 qutrit
    probes: 2048 points), within one stage: the grid is split at the
    junctions once, each t in the stage ``Family.stack`` assigns it.  Each
    batch takes one call of the block kernel (``_block_norm_rderiv``).  The
    derivatives are exact (``_norm_rderiv``), and the batching changes no
    bit of a result.  Rows are sorted by (probe, t); a row reads "ok" only
    where its right derivative is at most TOL_DERIV, so a NaN row fails.
    """
    grid = list(grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise OperandError("grid must be non-empty and ascending")
    if k < 1:
        raise OperandError("k must be >= 1")
    stack = probes.probes
    n, points = stack.shape[0], len(grid)
    chunk = max(1, SCAN_CHUNK_ENTRIES // stack.size)
    chain = _chain_applies(stack, k)
    # the first grid index of each stage, and the end of the grid
    bounds = np.searchsorted(_stages(grid, fam.params), range(5)).tolist()

    # filled column by column; each (probes, points) view is a field's rows
    rows = np.recarray(n * points, dtype=_SCAN_ROW)
    t, probe_id, norm, rderiv = (rows[name].reshape(n, points)
                                 for name in ("t", "probe_id", "norm", "rderiv"))
    t[:] = grid
    probe_id[:] = np.arange(n)[:, None]
    rows["k"] = k
    for s, (first, stop) in enumerate(zip(bounds, bounds[1:])):
        for i in range(first, stop, chunk):
            part = slice(i, min(i + chunk, stop))
            batch_norm, batch_rderiv = _norm_rderiv(fam, chain, s, grid[part], k)
            norm[:, part], rderiv[:, part] = batch_norm.T, batch_rderiv.T
    rows["verdict"] = np.where(rows["rderiv"] <= TOL_DERIV, "ok", "fail")
    return ScanReport(rows=rows, seed=probes.seed)


def _root(lam, tau, theta):
    """sqrt(1 + lam^2 + 2 lam cos(2 theta tau)), the closed forms' square root."""
    return np.sqrt(1 + lam ** 2 + 2 * lam * np.cos(2 * theta * tau))


def gamma4_norm_closed_form(lam, tau, theta):
    """||Gamma^(4)_tau(rho_A - lam rho_B)||_1 for lam >= 0 (vectorized)."""
    lam = np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(lam < 0) or np.any(tau < 0) or np.any(tau > 1):
        raise OperandError("need lam >= 0 and tau in [0, 1]")
    root = _root(lam, tau, theta)
    out = 0.5 * ((1 - tau ** 2) * np.abs(lam - 1) + (1 + tau ** 2) * root)
    return float(out) if out.ndim == 0 else out


def gamma4_derivative_closed_form(lam, tau, theta):
    """d/dtau of the closed-form norm above (vectorized, lam >= 0).

    Raises SingularPointError when the square-root denominator vanishes
    (lam = 1 with 2*theta*tau = pi), a measure-zero configuration that grid
    sweeps skip and report.
    """
    lam = np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(lam < 0) or np.any(tau < 0) or np.any(tau > 1):
        raise OperandError("need lam >= 0 and tau in [0, 1]")
    root = _root(lam, tau, theta)
    if np.any(root <= SINGULAR_ROOT):
        raise SingularPointError("vanishing denominator at lam = 1, 2*theta*tau = pi")
    out = (tau * (-np.abs(lam - 1) + root)
           - lam * theta * (1 + tau ** 2) * np.sin(2 * theta * tau) / root)
    return float(out) if out.ndim == 0 else out


# The sweep's lam grid; it holds lam != 1, so no theta is singular everywhere.
_SWEEP_LAMBDAS = np.arange(0.0, 10.0 + 1e-9, 0.1)


def _regular_mesh(lam, tau, theta):
    """The (lam, tau) mesh as a lam column against the tau row, on which the
    closed forms broadcast and take cos and sin once per tau: the column,
    with lam read as 0 at the singular points (lam = 1, 2*theta*tau = pi,
    where ``_root`` vanishes), and the mask of the other points."""
    lam = np.asarray(lam, dtype=float)[:, None]
    keep = _root(lam, tau, theta) > SINGULAR_ROOT
    # a mesh-shaped lam costs the default sweep 11-14 ms against 7-9 ms
    return (lam if keep.all() else np.where(keep, lam, 0.0)), keep


def _closed_form_mesh(lam, tau, theta):
    """``gamma4_derivative_closed_form`` on the (lam, tau) mesh of
    ``_regular_mesh``, with -inf at the singular points; returns (values,
    number of singular points)."""
    lam, keep = _regular_mesh(lam, tau, theta)
    return (np.where(keep, gamma4_derivative_closed_form(lam, tau, theta), -math.inf),
            int(keep.size - keep.sum()))


def theta_window_sweep(theta_grid, tau_grid) -> np.recarray:
    """Locate the worst (lam, tau) of the closed-form derivative per theta,
    over lam = 0, 0.1, ..., 10 and ``tau_grid``.

    A record array ``theta, max_deriv, arg_lambda, arg_tau, violation,
    singular_points_skipped``, one row per theta: the maximum, its location
    (the first maximum in lam-major order) and a violation flag.  Each
    theta's mesh is one call of the closed form on a lam column against the
    tau row, so cos(2 theta tau) and sin(2 theta tau) are taken once per
    tau; singular grid points are skipped and counted (``_closed_form_mesh``).
    """
    tau = np.asarray(list(tau_grid), dtype=float)
    thetas = np.asarray(list(theta_grid), dtype=float)
    best, where = np.empty(len(thetas)), np.empty((2, len(thetas)))
    skipped = np.zeros(len(thetas), dtype=int)
    for n, theta in enumerate(thetas):
        vals, skipped[n] = _closed_form_mesh(_SWEEP_LAMBDAS, tau, theta)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best[n], where[:, n] = vals[i, j], (_SWEEP_LAMBDAS[i], tau[j])
    return np.rec.fromarrays([thetas, best, *where, best > TOL_CLOSED_FORM, skipped],
                             names=("theta", "max_deriv", "arg_lambda", "arg_tau",
                                    "violation", "singular_points_skipped"))


def bound_chain_check(theta: float, tau_grid) -> dict:
    """Pointwise ledger for the analytic bound chain at a given theta.

    Per tau (for lam >= 1):
      link1: sup over lam = 1..10 of the closed-form derivative <= bound_a,
             where bound_a = tau*sqrt(2 + 2cos(2 theta tau))
                             - (1 + tau^2) (theta/2) sin(2 theta tau);
      link2: bound_a == cos(theta tau) * [2 tau - (1 + tau^2) theta sin(theta tau)]
             (half-angle rewrite, theta in [0, pi/2]);
      link3: the bracketed term <= (2 - theta^2) tau - (theta^2 - theta^4/3) tau^3;
      link4 (only meaningful for theta >= sqrt(2)): the polynomial <= 0.
    ``rows`` is a NumPy record array with one row per tau.  Also checks that
    the bracketed part of the derivative is monotonically decreasing in lam,
    via its lam-derivative on a (lam, theta*tau) grid.  Both lam x tau meshes
    skip the closed forms' singular points (lam = 1, 2*theta*tau = pi, where
    the square root vanishes) and count them in ``singular_points_skipped``.
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise OperandError("bound chain is stated for theta in [0, pi/2]")
    tau = np.asarray(list(tau_grid), dtype=float)
    vals, skipped = _closed_form_mesh(np.arange(1.0, 11.0), tau, theta)
    sup = vals.max(axis=0)
    bound_a = (tau * np.sqrt(np.maximum(2 + 2 * np.cos(2 * theta * tau), 0.0))
               - (1 + tau * tau) * (theta / 2) * np.sin(2 * theta * tau))
    bracket = 2 * tau - (1 + tau * tau) * theta * np.sin(theta * tau)
    bound_b = np.cos(theta * tau) * bracket
    # float_power is the scalar pow; the array `tau ** 3` takes a SIMD power
    # that can differ in the last bit, which would move printed digits.
    poly = (2 - theta ** 2) * tau - (theta ** 2 - theta ** 4 / 3) * np.float_power(tau, 3)
    rows = np.rec.fromarrays(
        [tau, sup, bound_a, bound_b, bracket, poly,
         sup <= bound_a + TOL_BOUND_CHAIN, np.abs(bound_a - bound_b) <= TOL_BOUND_CHAIN,
         bracket <= poly + TOL_BOUND_CHAIN, poly <= TOL_BOUND_CHAIN],
        names=("tau", "sup_derivative", "bound_sqrt", "bound_cos", "bracket",
               "polynomial", "link1", "link2", "link3", "link4"))
    # lam-monotonicity of the bracketed term: its lam-derivative is
    # -1 + (lam + cos(2 theta tau)) / sqrt(1 + lam^2 + 2 lam cos(2 theta tau)) <= 0.
    lam, keep = _regular_mesh(np.linspace(1.0, 10.0, 37), tau, theta)
    mono = np.where(keep, -1 + (lam + np.cos(2 * theta * tau)) / _root(lam, tau, theta),
                    -math.inf)
    skipped += int(keep.size - keep.sum())
    return {"theta": theta, "rows": rows, "singular_points_skipped": skipped,
            "chain_ok": bool(np.all(rows.link1 & rows.link2 & rows.link3)),
            "polynomial_nonpositive": bool(np.all(rows.link4)),
            "lambda_monotone": not np.any(mono > TOL_BOUND_CHAIN),
            "worst_lambda_derivative": float(np.max(mono, initial=-math.inf))}


def lambda_reflection_check(lam: float, tau: float, theta: float,
                            tol: float = TOL_REFLECTION) -> bool:
    """Reflection identity d(lam) = lam * d(1/lam) for 0 < lam < 1."""
    if not 0.0 < lam < 1.0:
        raise OperandError("reflection check covers 0 < lam < 1")
    lhs = gamma4_derivative_closed_form(lam, tau, theta)
    rhs = lam * gamma4_derivative_closed_form(1.0 / lam, tau, theta)
    return abs(lhs - rhs) <= tol
