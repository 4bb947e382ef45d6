"""The CSV format of every table qmarkov writes.

``write_csv`` writes a record array, each column encoded by its dtype, and
``write_scan_csv`` writes a contractivity scan's rows, t as %.12g.  Both
give the bytes ``csv.writer`` gives for the same fields with CRLF line
ends: floats as Python's %.15g, formed here in NumPy from exact digit
arithmetic, true/false booleans, plain integers and unquoted ASCII text.
"""

from __future__ import annotations

import numpy as np

from .tolerances import CSV_TIE_BAND

# Rows per batch of CSV lines, each batch one byte matrix.  A row of the
# default scan takes 102 bytes of that matrix (two 40-byte %.15g fields and
# the 7 slots of its %.12g t that are not all NUL among them), and the
# writer's temporaries peak at about 520 bytes a row (tracemalloc: 2.1 MB
# in 4096-row batches, 16 MB for the 40,000-row scan in one batch; a
# 4096-value %.15g column's encoding peaks at 0.76 MB of it).
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

# the four ASCII digits of each of 0000 to 9999, as one uint32 apiece
_GROUPS = (np.arange(10000, dtype=np.uint16)[:, None]
           // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
           + ord("0")).astype(np.uint8).view(np.uint32).ravel()


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
    exponent.  M < 2**53, so its 4-digit groups are exact integers.
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

    # m < 10**15: its parts above and below 10**8 are exact integers, each
    # cut into two 4-digit groups whose ASCII digits _GROUPS holds; the
    # (P, n) digit rows are copied C-ordered, so that the reductions over
    # a value's digits below run along rows
    top = np.floor(m / 1e8)
    low = (m - top * 1e8).astype(np.int32)
    top = top.astype(np.int32)
    groups = np.stack([top // 10000, top % 10000, low // 10000, low % 10000], axis=-1)
    digits = np.take(_GROUPS, groups).view(np.uint8)[:, 16 - P:].T.copy()
    j = np.arange(P, dtype=np.int8)[:, None]
    # the point follows digit `point` if a nonzero digit follows it, and the
    # digits up to it and up to the last nonzero one are shown
    sci = e < -4
    point = np.where(sci, 0, e).astype(np.int8)
    last = ((digits != ord("0")) * j).max(axis=0)
    text = np.zeros((2 * P + 10, n), dtype=np.uint8)
    text[0] = np.signbit(x) * ord("-")
    small = (e < 0) & ~sci
    text[1], text[2] = small * ord("0"), small * ord(".")
    for k in range(3):
        text[3 + k] = (small & (e < -1 - k)) * ord("0")
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


def write_csv(path, rows: np.ndarray) -> None:
    """Write the record array ``rows`` as CSV with CRLF line ends, a header of
    its field names and each column encoded by its dtype (see
    ``_field_bytes``): the bytes ``csv.writer`` gives for f"{v:.15g}" floats,
    true/false booleans and plain integers, with text written unquoted."""
    _write_fields(path, rows.dtype.names, len(rows),
                  [lambda part, c=rows[name]: _field_bytes(c[part])
                   for name in rows.dtype.names])


def write_scan_csv(path, rows: np.ndarray, points: int, index=slice(None)) -> None:
    """Write a scan's record array ``rows`` (``t, probe_id, k``, then any
    fields), probe-major over ``points`` grid points, as ``write_csv`` does
    with t as %.12g, or only the rows ``index`` picks, each line the same
    bytes as in the full file.  The bytes of t are encoded once per grid
    point and those of ``probe_id,k`` once per probe."""
    at, picked = np.arange(len(rows))[index], rows[index]
    t = _g_bytes(rows["t"][:points], 12)
    t = t[:, t.any(axis=0)]  # the all-NUL slots would be copied per row
    ids = _text_bytes(np.array([f"{p},{k}" for p, k in zip(
        rows["probe_id"][::points].tolist(), rows["k"][::points].tolist())]))
    _write_fields(path, rows.dtype.names, len(at), [
        lambda part: t[at[part] % points],
        lambda part: ids[at[part] // points],
        *(lambda part, c=picked[name]: _field_bytes(c[part])
          for name in rows.dtype.names[3:])])
