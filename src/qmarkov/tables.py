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

# Rows per batch of CSV lines, each batch one row-major byte matrix.  A row
# of the default scan takes 74 bytes of it for 47 bytes of text (two
# 26-byte %.15g fields, the 7 slots of its %.12g t that are not all NUL
# among them, 5 for probe_id,k, 4 for the verdict and 6 separators), and
# the writer's temporaries peak at about 240 bytes a row (tracemalloc:
# 0.95 MB in 4096-row batches, 9.3 MB for the 40,000-row scan in one).
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

# the four ASCII digits of each of 0000 to 9999, as one little-endian word
# apiece, and the number of its trailing zeros (4 for 0000)
_GROUPS = (np.arange(10000, dtype=np.uint16)[:, None]
           // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
           + ord("0")).astype(np.uint8).view(np.uint32).ravel().astype(np.uint64)
_ZEROS = sum(np.arange(10000) % 10 ** k == 0 for k in range(1, 5)).astype(np.uint8)


def _text_bytes(text: np.ndarray) -> np.ndarray:
    """The NUL-padded bytes (len(text), width) of an ASCII str array, read
    through its UCS-4 code points."""
    codes = np.ascontiguousarray(text).view(np.uint32).reshape(len(text), -1)
    if codes.max(initial=0) > 127:
        raise ValueError("CSV text must be ASCII")
    return codes.astype(np.uint8)


def _layout_table() -> np.ndarray:
    """The layout words of a %g float in the exact range, (8, keys), keyed
    by (e - _EXACT_EXP) * 32 + 2 z + sign: e its exponent, z the trailing
    zeros of the 16 digits d0 to d15 of _digit_words, so that d(15 - z) is
    its last nonzero one, and sign 1 if it is negative.  Those digits, d0
    in the low byte, form a 128-bit word X, and its text is the head word,
    then (X & keep) | (X & move) << 8 | dot, then the tail word.  keep holds
    the digits up to the point (or all shown ones), move the shown digits
    after it, which go up one byte, and dot the point in the byte they
    leave.  The head is the sign and, for exponents -4 to -1, "0." and
    zeros; the tail is "e-dd" below -4."""
    exponents = range(_EXACT_EXP, 16)
    e = np.array(exponents)[:, None, None]
    last = 15 - np.arange(16)[:, None]
    byte = np.arange(16)
    # the point follows digit `point` if a nonzero digit follows it, and the
    # digits up to it and up to the last nonzero one are shown
    point = np.where(e < -4, 0, e)
    shown = np.maximum(point, last)
    at = np.where((point >= 0) & (point < last), point + 1, 16)
    digits = np.concatenate([byte < np.minimum(at, shown + 1),
                             (byte >= at) & (byte <= shown),
                             byte == at], axis=-1) * np.repeat(np.uint8([255, 255, ord(".")]), 16)
    heads = _text_bytes(np.array([sign + ("0." + "0" * (-1 - k) if -4 <= k < 0 else "")
                                  for k in exponents for sign in ("", "-")], dtype="U8"))
    tails = _text_bytes(np.array([f"e-{-k:02d}" if k < -4 else "" for k in exponents],
                                 dtype="U8"))
    keys = (len(exponents), 16, 2)
    layout = np.concatenate([
        np.broadcast_to(heads.reshape(len(exponents), 1, 2, 8), keys + (8,)),
        np.broadcast_to(digits[:, :, None], keys + (48,)),
        np.broadcast_to(tails.reshape(len(exponents), 1, 1, 8), keys + (8,))], axis=-1)
    return layout.view("<u8").reshape(-1, 8).T.copy()


_LAYOUT = _layout_table()


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


def _word(out: np.ndarray, at: int, dtype) -> np.ndarray:
    """The little-endian words of ``dtype`` at byte ``at`` of the rows of
    the byte matrix ``out``, a view."""
    return out[:, at:at + np.dtype(dtype).itemsize].view(dtype)[:, 0]


def _decimal(ax, P: int):
    """(M, e, exact) for the magnitudes ax: in the exact range, where
    ``exact`` holds, ax rounds to M 10**(e - P + 1) at P digits, M < 10**P
    an integer; elsewhere M and e lay out a 1.

    M = round(ax 10**s) is rounded half to even from the double-double
    ax 10**s = hi + lo: M0 = rint(hi), and the remainder r = (hi - M0) +
    lo, which errs by under 1e-16, moves M0 by one past +-1/2.  An M of
    10**P carries into the exponent."""
    exact = (ax >= 10.0 ** _EXACT_EXP) & (ax < _POW10[P - 1])
    # zeros and the values Python's formatter writes are laid out as 1
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
    return m, e + carry, exact


def _digit_words(m, P: int):
    """(x0, x1, z): the P digits of each integer M < 10**P, at least
    10**(P - 1), and 16 - P zeros after them, as ASCII in the 128-bit
    word X = (x0, x1), d0 in the low byte, and z, the trailing zeros of X.

    d0 to d7 and d8 to d(P - 1), followed by the zeros, are exact 8-digit
    integers q and r, each two 4-digit groups whose ASCII words _GROUPS
    holds."""
    q = np.floor(m / _POW10[P - 8])
    r = ((m - q * _POW10[P - 8]) * _POW10[16 - P]).astype(np.intp)
    q = q.astype(np.intp)
    qa, ra = q // 10000, r // 10000
    qb, rb = q - 10000 * qa, r - 10000 * ra
    x0, x1 = _GROUPS[qa] | _GROUPS[qb] << 32, _GROUPS[ra] | _GROUPS[rb] << 32
    # most values end in a nonzero group; the others read on
    z = _ZEROS[rb]
    more = np.flatnonzero(rb == 0)
    if more.size:
        qa, qb, ra = qa[more], qb[more], ra[more]
        z[more] += _ZEROS[ra] + (ra == 0) * (_ZEROS[qb] + (qb == 0) * _ZEROS[qa])
    return x0, x1, z


def _g_bytes(x, precision: int, out=None) -> np.ndarray:
    """The bytes of f"{v:.{precision}g}" for each v of the float array x,
    written NUL-padded into the rows of the byte matrix ``out`` (len(x),
    precision + 11), a new one if None, and returned; 12 <= precision <= 15.

    A row holds the sign and "0.000" head in 6 bytes, the digits and the
    point in precision + 1 and "e-dd" in 4, each written as one word (see
    _layout_table); the head and digit words spill NULs into bytes that the
    next word writes.  Python's formatter writes the values outside the
    exact range (see _decimal)."""
    x = np.asarray(x, dtype=float)
    P = precision
    if out is None:
        out = np.empty((len(x), P + 11), dtype=np.uint8)
    ax = np.abs(x)
    zero = ax == 0
    m, e, exact = _decimal(ax, P)
    x0, x1, z = _digit_words(m, P)
    key = (e.astype(np.intp) - _EXACT_EXP) * 32 + 2 * z + np.signbit(x)
    head, keep0, keep1, move0, move1, dot0, dot1, tail = np.take(_LAYOUT, key, axis=1)
    moved = x0 & move0
    _word(out, 0, "<u8")[:] = head
    # a zero, laid out as a 1, is that digit less one
    np.subtract((x0 & keep0) | moved << 8 | dot0, zero, out=_word(out, 6, "<u8"))
    np.bitwise_or((x1 & keep1) | (x1 & move1) << 8 | moved >> 56, dot1,
                  out=_word(out, 14, "<u8"))
    _word(out, P + 7, "<u4")[:] = tail
    for i in np.flatnonzero(~exact & ~zero).tolist():
        value = format(float(x[i]), f".{P}g").encode()
        out[i] = 0
        out[i, :len(value)] = np.frombuffer(value, dtype=np.uint8)
    return out


def _field(column: np.ndarray):
    """The slots of a CSV column by its dtype: floats as %.15g, booleans as
    true/false, integers and ASCII text as they are; see ``_write_fields``."""
    kind = column.dtype.kind
    if kind == "f":
        return 15 + 11, lambda part, dest: _g_bytes(column[part], 15, dest)
    if kind not in "biuU":
        raise TypeError(f"no CSV encoding for dtype {column.dtype}")

    def text(part):
        return (np.where(column[part], "true", "false") if kind == "b"
                else column[part].astype(str))
    return (text(slice(0)).dtype.itemsize // 4,
            lambda part, dest: np.copyto(dest, _text_bytes(text(part))))


_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)


def _write_fields(path, header, total: int, fields) -> None:
    """Write ``total`` rows as CSV with CRLF line ends.  Each of ``fields``
    is a pair (width, write), with write(part, dest) filling the byte matrix
    dest (rows, width) with the NUL-padded bytes of the rows of the slice
    ``part``.  A batch of up to CSV_ROWS rows is one row-major byte matrix
    of its fields' slots, commas and line ends, the separators written once;
    one pass deletes its NULs: CSV text holds none."""
    ends = np.cumsum([width + 1 for width, _ in fields])
    rows, line = min(total, CSV_ROWS), int(ends[-1]) + 1
    buf = bytearray(rows * line)
    out = np.frombuffer(buf, dtype=np.uint8).reshape(rows, line)
    out[:, ends[:-1] - 1] = ord(",")
    out[:, -2:] = _CRLF
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, total, CSV_ROWS):
            part = slice(start, min(start + CSV_ROWS, total))
            n = part.stop - start
            for (width, write), end in zip(fields, ends):
                write(part, out[:n, end - 1 - width:end - 1])
            fh.write((buf if n == rows else buf[:n * line]).translate(None, b"\0"))


def write_csv(path, rows: np.ndarray) -> None:
    """Write the record array ``rows`` as CSV with CRLF line ends, a header of
    its field names and each column encoded by its dtype (see ``_field``):
    the bytes ``csv.writer`` gives for f"{v:.15g}" floats, true/false
    booleans and plain integers, with text written unquoted."""
    _write_fields(path, rows.dtype.names, len(rows),
                  [_field(rows[name]) for name in rows.dtype.names])


def _periodic(table: np.ndarray, every: int):
    """The slots of the rows of a probe-major scan whose row g holds
    table[g // every % len(table)]: t (every = 1) cycles through the grid,
    and probe_id,k (every = points) holds for a probe's rows.  A batch
    copies a slice of the cycled table, in runs of ``every`` rows."""
    width = table.shape[1]
    cycled = np.resize(table, (len(table) + CSV_ROWS // every + 1, width))

    def write(part, dest):
        q, r = divmod(part.start, every)
        q %= len(table)
        head = min(every - r, len(dest))
        dest[:head] = cycled[q]
        runs = (len(dest) - head) // every
        body = dest[head:head + runs * every]
        body.reshape(runs, every, width)[:] = cycled[q + 1:q + 1 + runs, None]
        dest[head + runs * every:] = cycled[q + 1 + runs]
    return width, write


def write_scan_csv(path, rows: np.ndarray, points: int, index=slice(None)) -> None:
    """Write a scan's record array ``rows`` (``t, probe_id, k``, then any
    fields), probe-major over ``points`` grid points, as ``write_csv`` does
    with t as %.12g, or only the rows ``index`` picks, each line the same
    bytes as in the full file.  The bytes of t are encoded once per grid
    point and those of ``probe_id,k`` once per probe: the full file copies
    them by the period of its probe-major rows, a pick gathers them."""
    picked = rows[index]
    t = _g_bytes(rows["t"][:points], 12)
    t = t[:, t.any(axis=0)]  # the all-NUL slots would be copied per row
    ids = _text_bytes(np.array([f"{p},{k}" for p, k in zip(
        rows["probe_id"][::points].tolist(), rows["k"][::points].tolist())]))
    if isinstance(index, slice) and index == slice(None):
        lead = [_periodic(t, 1), _periodic(ids, points)]
    else:
        at = np.arange(len(rows))[index]
        lead = [(t.shape[1], lambda part, dest: np.copyto(dest, t[at[part] % points])),
                (ids.shape[1], lambda part, dest: np.copyto(dest, ids[at[part] // points]))]
    _write_fields(path, rows.dtype.names, len(picked),
                  lead + [_field(picked[name]) for name in rows.dtype.names[3:]])
