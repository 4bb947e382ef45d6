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
from .qutrit_family import RHO_A, RHO_B
from .superops import GRID_CHUNK, apply_to_extended
from .tolerances import (CSV_TIE_BAND, KERNEL_CUTOFF, SINGULAR_ROOT,
                         TOL_BOUND_CHAIN, TOL_CLOSED_FORM, TOL_DERIV, TOL_REFLECTION,
                         TRIPLE_FLOOR, TRIPLE_GAP)


class SingularPointError(ValueError):
    """Closed-form derivative evaluated at its vanishing-denominator point."""


def lambda_probe(lam: float) -> np.ndarray:
    """The probe rho_A - lam * rho_B (trace 1 - lam)."""
    return RHO_A - lam * RHO_B


# Rows per batch of CSV lines, each batch one byte matrix.  A row of the
# default scan takes 129 bytes of that matrix (two 40-byte %.15g fields and
# the 34-byte %.12g t among them), and the encoder's temporaries peak at
# about 640 bytes a row (tracemalloc: 2.6 MB for a 4096-row batch, 20 MB
# for the 40,000-row scan in one batch).
CSV_ROWS = 1 << 12

# The float encoder's exact range is 1e-30 <= |x| < 10**(P - 1): there the
# scale 10**s taking |x| to P integer digits, s = P - 1 - floor(log10 |x|),
# lies in [0, 44], a product of two exact doubles 10**(s - b) and 10**b with
# b = min(s, 22) (5**22 < 2**53).  Python's formatter writes the rest: zero
# excepted, smaller magnitudes, larger ones (%g switches to e+ notation at
# 10**P), non-finite values and near-ties (CSV_TIE_BAND).
_EXACT_EXP = -30
_POW10 = np.array([float(10 ** i) for i in range(23)])


def _split(a):
    """Dekker's split a = hi + lo of doubles into halves of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _two_product(a, i):
    """(p, err) with p + err = a * 10**i exactly (Dekker's two-product)."""
    p = a * _POW10[i]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[i], _POW10_LO[i]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _scaled(a, s):
    """(hi, lo): a * 10**s = hi + lo to within 1e-16 absolute where that is
    below 1e15, with hi the rounded product, for integers s in [0, 44]."""
    b = np.minimum(s, 22)
    h1, l1 = _two_product(a, s - b)
    h2, l2 = _two_product(h1, b)
    return h2, l2 + l1 * _POW10[b]


def _g_bytes(x, precision: int) -> np.ndarray:
    """The bytes of f"{v:.{precision}g}" for each v of the float array x, as
    a NUL-padded matrix (len(x), 2 precision + 10), precision <= 15.

    In the exact range the P = precision digits are M = round(|x| 10**s),
    rounded half to even from the double-double |x| 10**s = hi + lo: M0 =
    rint(hi), and the remainder r = (hi - M0) + lo, which errs by under
    1e-16, moves M0 by one past +-1/2.  An M of 10**P carries into the
    exponent.  M < 2**53, so its digit prefixes floor(M / 10**k) are exact.
    The text is laid out in fixed slots: sign, "0." and three zeros (for
    exponents -4 to -1), each digit followed by a "." slot, and "e-dd"."""
    x = np.asarray(x, dtype=float)
    P, n = precision, len(x)
    ax = np.abs(x)
    exact = (ax >= 10.0 ** _EXACT_EXP) & (ax < _POW10[P - 1])
    zero = ax == 0
    # zeros and the values Python's formatter writes are laid out as 1 and
    # rewritten at the end
    a = np.where(exact, ax, 1.0)
    # log10 can be one off near a power of ten; the clamp keeps s <= 44
    e = np.maximum(np.floor(np.log10(a)), _EXACT_EXP)
    hi, lo = _scaled(a, (P - 1 - e).astype(np.intp))
    off = (hi >= _POW10[P]) * 1.0 - (hi < _POW10[P - 1])
    # most batches need no second scaling, which costs 10-15 % of to_csv
    if off.any():
        e += off
        hi, lo = _scaled(a, (P - 1 - e).astype(np.intp))
    m = np.rint(hi)
    r = (hi - m) + lo
    exact &= ((hi >= _POW10[P - 1]) & (hi < _POW10[P])
              & (np.abs(np.abs(r) - 0.5) > CSV_TIE_BAND))
    m += (r > 0.5) * 1.0 - (r < -0.5)
    carry = m == _POW10[P]
    m[carry] = _POW10[P - 1]
    e += carry

    digits = np.floor(m / _POW10[P - 1::-1, None])  # (P, n): leading j + 1 digits
    digits[1:] -= 10 * digits[:-1]
    digits = digits.astype(np.uint8)
    j = np.arange(P, dtype=np.int8)[:, None]
    # the point follows digit `point` if a nonzero digit follows it, and the
    # digits up to it and up to the last nonzero one are shown
    sci = e < -4
    point = np.where(sci, 0, e).astype(np.int8)
    last = ((digits != 0) * j).max(axis=0)
    text = np.zeros((2 * P + 10, n), dtype=np.uint8)
    text[0] = np.signbit(x) * ord("-")
    small = (e < 0) & ~sci
    text[1], text[2] = small * ord("0"), small * ord(".")
    for k in range(3):
        text[3 + k] = (small & (e < -1 - k)) * ord("0")
    digits += ord("0")
    np.multiply(digits, j <= np.maximum(point, last), out=text[6:2 * P + 6:2])
    dotted = np.flatnonzero((point >= 0) & (point < last))
    text[7 + 2 * point[dotted], dotted] = ord(".")
    tens = np.floor(e * -0.1)
    text[2 * P + 6], text[2 * P + 7] = sci * ord("e"), sci * ord("-")
    text[2 * P + 8] = sci * (ord("0") + tens)
    text[2 * P + 9] = sci * (ord("0") - e - 10 * tens)
    text[6, zero] = ord("0")
    for i in np.flatnonzero(~exact & ~zero).tolist():
        value = format(float(x[i]), f".{P}g").encode()
        text[:, i] = 0
        text[:len(value), i] = np.frombuffer(value, dtype=np.uint8)
    return text.T


def _text_bytes(text: np.ndarray) -> np.ndarray:
    """The NUL-padded bytes (len(text), width) of an ASCII str array, read
    through its UCS-4 code points."""
    codes = np.ascontiguousarray(text).view(np.uint32).reshape(len(text), -1)
    if codes.max(initial=0) > 127:
        raise ValueError("CSV text must be ASCII")
    return codes.astype(np.uint8)


def _field_bytes(column: np.ndarray) -> np.ndarray:
    """The NUL-padded CSV bytes of a column, by its dtype: floats as %.15g,
    booleans as true/false, integers and ASCII text as they are."""
    kind = column.dtype.kind
    if kind == "f":
        return _g_bytes(column, 15)
    if kind == "b":
        column = np.where(column, "true", "false")
    elif kind in "iu":
        column = column.astype(str)
    elif kind != "U":
        raise TypeError(f"no CSV encoding for dtype {column.dtype}")
    return _text_bytes(column)


_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)


def _write_fields(path, header, total: int, fields) -> None:
    """Write ``total`` rows as CSV with CRLF line ends; each of ``fields``
    maps a slice of rows to their NUL-padded bytes.  A batch of up to
    CSV_ROWS rows is one row-major byte matrix of its fields, commas and
    line ends, compacted in one pass that deletes its NULs: CSV text holds
    none."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, total, CSV_ROWS):
            part = slice(start, min(start + CSV_ROWS, total))
            blocks = [field(part) for field in fields]
            out = np.empty((part.stop - start, sum(b.shape[1] + 1 for b in blocks) + 1),
                           dtype=np.uint8)
            end = 0
            for block in blocks:
                out[:, end:end + block.shape[1]] = block
                end += block.shape[1] + 1
                out[:, end - 1] = ord(",")
            out[:, end - 1:] = _CRLF
            fh.write(out.tobytes().translate(None, b"\0"))


def write_csv(path, header, columns) -> None:
    """Write equal-length ``columns`` (array-likes) as CSV with CRLF line
    ends, one row per index, each column encoded by its dtype (see
    ``_field_bytes``): the bytes ``csv.writer`` gives for f"{v:.15g}" floats,
    true/false booleans and plain integers, with text written unquoted."""
    columns = [np.asarray(column) for column in columns]
    _write_fields(path, header, len(columns[0]),
                  [lambda part, c=c: _field_bytes(c[part]) for c in columns])


@dataclass(frozen=True)
class ScanReport:
    """``rows``: record array ``t, probe_id, k, norm, rderiv, verdict`` in
    probe-major order, ``verdict`` "ok" only where ``rderiv`` <= TOL_DERIV (a
    NaN reads "fail"); ``seed``: the probes' seed.  The rest is read off the
    rows: the worst row is the first maximum of ``rderiv`` (a NaN is one)."""

    rows: np.recarray
    seed: int

    @property
    def _points(self) -> int:
        return len(self.rows) // (int(self.rows.probe_id[-1]) + 1)

    @property
    def _worst(self):
        return self.rows[np.argmax(self.rows.rderiv)]

    @property
    def max_rderiv(self) -> float:
        return float(self._worst.rderiv)

    @property
    def argmax_t(self) -> float:
        return float(self._worst.t)

    @property
    def argmax_probe(self) -> int:
        return int(self._worst.probe_id)

    @property
    def passed(self) -> bool:
        return not np.any(self.rows.verdict == "fail")

    @property
    def k(self) -> int:
        return int(self.rows.k[0])

    def to_csv(self, path) -> None:
        """Write the rows as ``write_csv`` does, t as %.12g; the bytes of t
        are encoded once per grid point and those of ``probe_id,k`` once per
        probe."""
        rows, points = self.rows, self._points
        t = np.ascontiguousarray(_g_bytes(rows.t[:points], 12))
        ids = _text_bytes(np.array([f"{p},{k}" for p, k in zip(
            rows.probe_id[::points].tolist(), rows.k[::points].tolist())]))
        _write_fields(path, rows.dtype.names, len(rows), [
            lambda part: t[np.arange(part.start, part.stop) % points],
            lambda part: ids[np.arange(part.start, part.stop) // points],
            *(lambda part, c=rows[name]: _field_bytes(c[part])
              for name in ("norm", "rderiv", "verdict"))])

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


# A scan batch holds the probes at up to GRID_CHUNK grid points, so one
# apply per map kind and at most one eigh serve the whole batch.  It also
# holds at most SCAN_CHUNK_ENTRIES complex entries of evolved probes (about
# 2048 qutrit probes), and at least one grid point: a probe stack that fills
# the budget alone (2000 probes, or 500 at k = 2) keeps one point per batch,
# where batching saves no per-call overhead worth the memory.
SCAN_CHUNK_ENTRIES = 2048 * 9


# Vectorized rows (j*3 + i and i*3 + j) of the output entries |i><j| and
# |j><i| that link qutrit output pairs (0, 1), (0, 2) and (1, 2), the bits 1,
# 2 and 4 of a point's output code.
_PAIR_ROWS = [[1, 3], [2, 6], [5, 7]]


def _output_codes(maps: np.ndarray) -> np.ndarray:
    """Per map of a stack (points, 9, 9), the bits of the output pairs whose
    rows are not all exactly 0: 0 for diagonal output (after the complete
    dephasing E1, on [t1, t3]), 1 for span{|0>, |1>} plus |2> (stage 4), 7
    for a full qutrit (stage 1)."""
    return maps[:, _PAIR_ROWS].any(axis=(-2, -1)) @ np.array([1, 2, 4])


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
    |lam| is at most TRIPLE_FLOOR times it; ties, the zero block and
    non-finite rows fail the same tests."""
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
    # (B - m)^2: its diagonal, and its entries (0, 1), (0, 2), (1, 2)
    t2 = ((d0 * d0 + s01 + s02) * e0 + (d1 * d1 + s01 + s12) * e1
          + (d2 * d2 + s02 + s12) * e2
          + 2 * (_re_dot((d0 + d1) * b01 + b02 * b12.conj(), f01)
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
    return (np.stack([lo, mid, hi], axis=-1),
            np.where(trusted[..., None], np.stack(rates, axis=-1), np.nan))


def _block_norm_rderiv(X: np.ndarray, Xdot: np.ndarray, codes: np.ndarray, k: int):
    """``_eigh_norm_rderiv`` of stacks X, Xdot (points, probes, 3k, 3k)
    where X = (Lambda_t tensor Id_k)(probe) and ``codes`` holds each point's
    ``_output_codes``: X is then block diagonal, with zero entries exactly
    where Lambda_t's output rows are.

    Per block the eigenvalues and Kato rates <v_i|Xdot|v_i> are read off the
    diagonal (1 x 1), in closed form (2 x 2, ``_pair_spectrum``; 3 x 3,
    ``_triple_spectrum``) or from one batched eigh per larger block size;
    only a block's own entries of Xdot enter them.  A row's values are
    sorted ascending and reduced as eigh's path reduces them, so a row of
    1 x 1 blocks gives eigh's bits.  (LAPACK
    rescales a matrix whose largest entry lies outside about [1e-146,
    1e146] and then rounds even a diagonal; the blocks keep the exact
    diagonal there.)  A row with a kernel eigenvalue needs the cross-block
    entries of Xdot in ||P0 Xdot P0||_1, and a row with a tie has no
    well-ordered pairing of values and rates; both take one batched eigh of
    the full X, as do rows with NaN or inf, which fail the comparisons or
    the finiteness test, and rows whose 3 x 3 closed form fails its trust
    test (near-degenerate eigenvalues, or one near 0), which read NaN rates.
    """
    norm, rderiv = np.empty(X.shape[:2]), np.empty(X.shape[:2])
    slow = np.ones(X.shape[:2], dtype=bool)
    # the codes present; np.unique would do, but its first call costs 1.6 MB of RSS
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        at = codes == code
        at = slice(None) if at.all() else at
        Xg, Xdotg = X[at], Xdot[at]
        lam, rates = [], []
        # non-finite entries and ties only raise flags in rows that take eigh
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
            # eigh's path sums each rate from +0.0, so a zero rate is +0.0 there
            # too; the sign sum below then matches whatever a reduction starts from
            rates = np.take_along_axis(rates, order, axis=-1) + 0.0
            mag = np.abs(lam)
            norm[at] = mag.sum(axis=-1)
            rderiv[at] = (np.sign(lam) * rates).sum(axis=-1)
            # reduced column by column: numpy reduces short rows one at a time
            smallest = functools.reduce(np.minimum, np.moveaxis(mag, -1, 0))
            rising = functools.reduce(np.logical_and,
                                      np.moveaxis(lam[..., 1:] > lam[..., :-1], -1, 0))
            # the values are sorted, so the largest |lam| sits at one end
            slow[at] = ~((smallest > KERNEL_CUTOFF * np.maximum(mag[..., 0], mag[..., -1]))
                         & rising & np.isfinite(rderiv[at]))
    if slow.all():
        return _eigh_norm_rderiv(X, Xdot)
    if slow.any():
        norm[slow], rderiv[slow] = _eigh_norm_rderiv(X[slow], Xdot[slow])
    return norm, rderiv


def _norm_rderiv(fam, stack: np.ndarray, ts, k: int):
    """Trace norms ||X||_1 of X = (Lambda_t tensor Id_k)(probe) at the points
    ``ts`` for a stack of probes, and their exact right derivatives: two arrays
    (len(ts), probes), from one apply per map kind and ``_block_norm_rderiv``.

    With X = sum_i lam_i |v_i><v_i| and Xdot = (dLambda_t/dt tensor Id_k)(probe),
    the right derivative is (Kato, Perturbation Theory, ch. II)

        sum_{lam_i != 0} sign(lam_i) <v_i|Xdot|v_i> + ||P0 Xdot P0||_1,

    P0 the projector onto the kernel of X, which is the eigenvalues with
    |lam| <= KERNEL_CUTOFF * max |lam| of each probe.

    The output blocks of each point are read off the rows of its Lambda_t
    alone (its derivative can link blocks that Lambda_t keeps apart, as at
    t3): one 3 x 3 block in stage 1, three 1 x 1 blocks on [t1, t3] after
    the complete dephasing E1, and span{|0>, |1>} plus |2> in stage 4, each
    tensored with the ancilla.  A row's result does not depend on the other
    points or probes of its batch, so the chunking moves no result.
    """
    maps = fam.stack(ts)
    X = apply_to_extended(maps, stack, k)
    Xdot = apply_to_extended(fam.dot_stack(ts), stack, k)
    return _block_norm_rderiv(X, Xdot, _output_codes(maps), k)


def norm_derivative_scan(fam, probes: ProbeSet, grid, k: int = 1) -> ScanReport:
    """Right-derivative scan of ||(Lambda_t tensor Id_k)(X)||_1.

    ``fam`` is a ``qutrit_family.Family`` on the system factor; for k > 1 the
    probes must live on the product space.  The grid goes in consecutive
    batches of grid points (see SCAN_CHUNK_ENTRIES), each one ``fam.stack``
    and ``fam.dot_stack`` call, and the derivatives are exact
    (``_norm_rderiv``).  Each point's X splits into the output blocks of
    its Lambda_t tensored with C^k: one block in stage 1, three on [t1, t3]
    and two in stage 4.  1 x 1 blocks are read off the diagonal, 2 x 2 and
    3 x 3 blocks in closed form and larger ones by one batched eigh per
    block size; the rows with a kernel eigenvalue, a tie, a non-finite
    value or a 3 x 3 block too near degenerate for its closed form
    (TRIPLE_GAP, TRIPLE_FLOOR) take one batched eigh of the whole X.  A row
    of 1 x 1 blocks gives eigh's bits, and the batching changes no bit of a
    result.  Rows are sorted by (probe, t); a row reads "ok" only where its
    right derivative is at most TOL_DERIV, so a NaN row fails.
    """
    grid = list(grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise OperandError("grid must be non-empty and ascending")
    if k < 1:
        raise OperandError("k must be >= 1")
    stack = probes.probes
    n = stack.shape[0]
    chunk = max(1, min(GRID_CHUNK, SCAN_CHUNK_ENTRIES // stack.size))

    norm_rows = np.empty((len(grid), n))
    deriv_rows = np.empty((len(grid), n))
    for i in range(0, len(grid), chunk):
        part = slice(i, i + chunk)
        norm_rows[part], deriv_rows[part] = _norm_rderiv(fam, stack, grid[part], k)

    rderiv = deriv_rows.T.ravel()
    rows = np.rec.fromarrays(
        [np.tile(np.asarray(grid, dtype=float), n), np.repeat(np.arange(n), len(grid)),
         np.full(rderiv.size, k), norm_rows.T.ravel(), rderiv,
         np.where(rderiv <= TOL_DERIV, "ok", "fail")],
        names=("t", "probe_id", "k", "norm", "rderiv", "verdict"))
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


def _closed_form_mesh(fn, lam, tau, theta):
    """``fn(lam, tau, theta)`` on the broadcast (lam, tau) mesh, with -inf at
    the closed forms' singular points (lam = 1, 2*theta*tau = pi, where
    ``_root`` vanishes); returns (values, number of singular points)."""
    lam, tau = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                   np.asarray(tau, dtype=float))
    keep = _root(lam, tau, theta) > SINGULAR_ROOT
    vals = np.full(keep.shape, -math.inf)
    if keep.any():
        vals[keep] = fn(lam[keep], tau[keep], theta)
    return vals, int(keep.size - keep.sum())


def theta_window_sweep(theta_grid, tau_grid) -> np.recarray:
    """Locate the worst (lam, tau) of the closed-form derivative per theta,
    over lam = 0, 0.1, ..., 10 and ``tau_grid``.

    A record array ``theta, max_deriv, arg_lambda, arg_tau, violation,
    singular_points_skipped``, one row per theta: the maximum, its location
    (the first maximum in lam-major order) and a violation flag.  Singular
    grid points are skipped and counted.
    """
    tau = np.asarray(list(tau_grid), dtype=float)
    lam_mesh, tau_mesh = np.meshgrid(_SWEEP_LAMBDAS, tau, indexing="ij")
    thetas = np.asarray(list(theta_grid), dtype=float)
    best, where = np.empty(len(thetas)), np.empty((2, len(thetas)))
    skipped = np.zeros(len(thetas), dtype=int)
    for n, theta in enumerate(thetas):
        vals, skipped[n] = _closed_form_mesh(gamma4_derivative_closed_form,
                                             lam_mesh, tau_mesh, theta)
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
    vals, skipped = _closed_form_mesh(gamma4_derivative_closed_form,
                                      np.arange(1.0, 11.0)[:, None], tau, theta)
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
    mono, mono_skipped = _closed_form_mesh(
        lambda lam, tau, theta: -1 + (lam + np.cos(2 * theta * tau)) / _root(lam, tau, theta),
        np.linspace(1.0, 10.0, 37)[:, None], tau, theta)
    skipped += mono_skipped
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
