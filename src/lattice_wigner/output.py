"""Deterministic CSV/JSON writers.

Every CSV is one table: a header row, then one row per index of equal-length
1-D columns.  A cell is repr() of the column's .tolist() value, so integer
columns stay integers and floats take the shortest form that round trips
(never more than 17 significant digits); every line ends in "\\n".  Runs with
identical configs must produce byte-identical files, so nothing here consults
the clock, the locale, or dict iteration order.

Cost model: the tables repeat values by construction (m, k and t columns,
entries of a product state that share a factor), so each block of rows costs
one np.unique per dtype and formats each distinct value of the block once.
Values are keyed on their bit patterns, so -0.0 and 0.0 stay apart, and each
dtype is keyed apart, so int 1 and float 1.0 do too.  The few distinct ints
take repr(), and so do the float64 values of a block with few of them.  The
distinct float64 values of the other blocks, nearly all of the work, go
through one vectorized kernel, _float_records, in place of one repr() call
each:

* Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
  2020) finds the shortest decimal that rounds back to the value, and of
  those the closest, ties to an even last digit: the contract of repr() (and
  of Ryu).  Its 126-bit multipliers g(k), k in [-324, 292], are built from
  Python ints at import; the 64 x 126-bit products run in uint64 arithmetic on
  32-bit limbs and round as Java's DoubleToDecimal does (rop).  Unlike Java,
  no value is forced to two digits, and the one-digit-shorter candidate is
  tried for every significand, so 5e-324 stays 5e-324.
* Layout: repr()'s format in a NUL-padded 24-byte record, a sign byte then
  the body: fixed notation when the decimal point sits in (-4, 16] (with ".0"
  on integral values), else d[.ddd]e+XX or e-XXX.  nan, inf and +-0.0 keep
  repr()'s own text.  A block's cells are gathered from the records into one
  reused buffer with the separators, and the NUL padding is dropped with one
  boolean mask before the bytes are written.

repr() is the oracle: tests/test_cli.py checks the kernel's bytes against it
on the float64 edge cases and on random bit patterns, and checks whole tables
against a writer that calls repr() per cell.  Formatting fig3's tables takes
0.47 s of CPU, against 1.43 s with one repr() per distinct value (2 cores,
numpy 2.4).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SPIN_HEADER = ("re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11")

# Rows formatted per block.  A block holds the table's one cell buffer and the
# kernel's temporaries for its distinct values, so a larger block raises a
# run's peak memory; a smaller one pays the kernel's fixed cost (some hundred
# numpy calls) and the per-block np.unique more often.  Measured on 2 cores
# with one BLAS thread, writer CPU for fig2 / fig3: 512 rows 0.53 / 0.54 s,
# 1024 rows 0.44 / 0.45 s, 2048 rows 0.39 / 0.40 s.  1024 is the best that
# keeps memory: cli_oracle's peak RSS is 38.7 MB at 1024 rows (39.7 MB with
# one repr() per value) and 40.7 MB at 2048.
_BLOCK_ROWS = 1024

# Fewest distinct float64 values of a block that the kernel formats; fewer go
# through repr().  The kernel costs some 0.2 ms a call at any size.  Median
# CPU per call on 2 cores, kernel against repr(): 64 values 0.21 / 0.02-0.09 ms,
# 256 values 0.25-0.27 / 0.09-0.38 ms, 512 values 0.28-0.30 / 0.16-0.70 ms
# (short decimals, normal draws and random bit patterns, in that order of
# repr()'s cost).  At 256 neither loses more than 0.11 ms.
_KERNEL_MIN_VALUES = 256

_RECORD = 24  # bytes in a cell's record: a sign byte and 23 for the longest body
_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)
_K_MIN = -324  # the smallest decimal exponent k of Schubfach's table


def _g_limbs() -> tuple:
    """Schubfach's g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1, in [2^125, 2^126),
    for k in [-324, 292]: split into bits 0-62 and 63-125, each as two 32-bit limbs."""
    g, p = [], 1
    for _ in range(-_K_MIN + 1):  # k = 0, -1, ..., -324: 10^-k shifted into place
        shift = 126 - p.bit_length()
        g.append(p << shift if shift >= 0 else p >> -shift)
        p *= 10
    g.reverse()
    p = 10
    for _ in range(292):  # k = 1, ..., 292
        g.append((1 << (125 + p.bit_length())) // p)
        p *= 10
    lo = np.array([(x + 1) & (2**63 - 1) for x in g], dtype=np.uint64)
    hi = np.array([(x + 1) >> 63 for x in g], dtype=np.uint64)
    return lo & _M32, lo >> _U(32), hi & _M32, hi >> _U(32)


def _suffixes() -> np.ndarray:
    """The exponent suffix of each decimal exponent x in [-324, 308], one row each:
    e, the sign, then two digits and a NUL, or three digits."""
    x = np.arange(-324, 309)
    ax, three = np.abs(x), np.abs(x) >= 100
    suffix = np.zeros((len(x), 5), dtype=np.uint8)
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    suffix[:, 2] = np.where(three, ax // 100, ax // 10) + ord("0")
    suffix[:, 3] = np.where(three, ax // 10, ax) % 10 + ord("0")
    suffix[:, 4] = np.where(three, ax % 10 + ord("0"), 0)
    return suffix


_G = _g_limbs()
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_PAIRS = np.stack(np.divmod(np.arange(100, dtype=np.uint8), np.uint8(10)), axis=1) + np.uint8(ord("0"))
_QUADS = np.concatenate([np.repeat(_PAIRS, 100, axis=0), np.tile(_PAIRS, (100, 1))], axis=1)  # "0000" to "9999"
_SUFFIX = _suffixes()
_BODY_POS = np.arange(_RECORD - 1, dtype=np.int8)[:, None]


def spin_columns(blocks) -> list:
    """(..., 2, 2) complex blocks -> the eight SPIN_HEADER columns, flattened in C order."""
    flat = np.asarray(blocks).reshape(-1, 4)
    return [part(flat[:, e]) for e in range(4) for part in (np.real, np.imag)]


def _mul(a0, a1, b0, b1):
    """Low and high 64-bit words of (a1 2^32 + a0)(b1 2^32 + b0), for limbs below 2^32."""
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = (p00 >> _U(32)) + (p01 & _M32) + (p10 & _M32)
    high = a1 * b1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
    return (p00 & _M32) | (mid << _U(32)), high


def _rop(cp, g):
    """Java's rop: cp g / 2^127 rounded to odd, from the high words of cp g's two halves."""
    c0, c1 = cp & _M32, cp >> _U(32)
    x1 = _mul(c0, c1, g[0], g[1])[1]
    y0, y1 = _mul(c0, c1, g[2], g[3])
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | ((z & _M63) != 0)


def _shortest(bits):
    """Schubfach on finite nonzero float64 bit patterns (the sign bit is ignored):
    (d, k), the shortest decimals d 10^k that round to the values, and of those the
    closest, ties to an even d."""
    biased = (bits >> _U(52) & _U(0x7FF)).astype(np.int64)
    frac = bits & _U(2**52 - 1)
    c = frac | (biased != 0).astype(np.uint64) << _U(52)  # the value is c 2^q
    q = np.maximum(biased, 1) - 1075
    irregular = (frac == 0) & (biased > 1)  # a normal power of two: its lower gap is half the upper
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10 of 2^q or 3/4 2^q)
    h = q + ((-k * 913124641741) >> 38) + 2  # q + floor(log2 10^-k) + 2, in [1, 4]
    g = [np.take(limb, k - _K_MIN) for limb in _G]
    h = h.astype(np.uint64)
    cb = c << _U(2)  # 4c and the ends of its rounding interval, scaled by 2^h
    vb = _rop(cb << h, g)
    vbl = _rop((cb - _U(2) + irregular) << h, g)
    vbr = _rop((cb + _U(2)) << h, g)
    odd = c & _U(1)  # an odd significand's interval excludes its ends
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    uin = vbl <= s << _U(2)
    win = (s << _U(2)) + _U(4) <= vbr
    mid = (s << _U(2)) + _U(2)
    pick_t = np.where(uin != win, win, (vb > mid) | ((vb == mid) & (s & _U(1)).astype(bool)))
    return np.where(upin != wpin, sp10 + _U(10) * wpin, s + pick_t), k


def _digit_rows(d, k):
    """(rows, point): ASCII digits of d, one column per value, with the decimal exponent
    point of each value 0.DIGITS x 10^point.

    Rows 1-17 hold d's digits left-aligned, rows 18-21 the spill and the rest '0':
    a value in fixed notation below 1 moves its digits down 1 - point more rows.
    """
    digits = np.searchsorted(_POW10, d, side="right")
    point = k + digits
    drop = np.where((point > -4) & (point <= 0), 1 - point, 0)
    d *= np.take(_POW10, 17 - digits)
    d, spill = np.divmod(d, np.take(_POW10, drop))
    spill *= np.take(_POW10, 4 - drop)
    rows = np.full((_RECORD, len(d)), ord("0"), dtype=np.uint8)
    top, rest = np.divmod(d, _U(10**16))
    rows[1] += top.astype(np.uint8)
    hi, lo = np.divmod(rest, _U(10**8))
    quads = (*np.divmod(hi, _U(10**4)), *np.divmod(lo, _U(10**4)), spill)
    for row, quad in zip(range(2, 22, 4), quads):
        rows[row : row + 4] = np.take(_QUADS, quad.astype(np.intp), axis=0).T
    return rows, point


def _body(rows, point) -> np.ndarray:
    """(23, n) record bodies in repr()'s format from _digit_rows: NUL after the last character."""
    sci = (point <= -4) | (point > 16)
    last = ((rows[1:22] != ord("0")) * np.arange(1, 22, dtype=np.uint8)[:, None]).max(axis=0).astype(np.int8)
    # Body position p shows digit row p + 1 before the point and row p after it.
    dot = np.where(sci, 1, np.maximum(point, 1)).astype(np.int8)
    length = np.where(sci, np.where(last > 1, last + 1, 1), np.maximum(last + 1, dot + 2)).astype(np.int8)
    before = rows[1:]
    body = before ^ rows[:-1]
    body &= _ones(_BODY_POS > dot)
    body ^= before
    body[dot, np.arange(len(dot))] = ord(".")
    body &= _ones(_BODY_POS < length)
    tail = body[18:]  # scientific mantissas end by position 17
    tail ^= (tail ^ np.take(_SUFFIX, point + 323, axis=0).T) & _ones(sci)
    return body


def _ones(mask):
    """A boolean mask, in place, as bytes 0xFF / 0x00 to select with xor and and."""
    ones = mask.view(np.uint8)
    return np.negative(ones, out=ones)


def _float_records(bits) -> np.ndarray:
    """repr() of each float64 bit pattern in bits (uint64) as a NUL-padded (n, 24) uint8 record."""
    special = (bits >> _U(52) & _U(0x7FF) == 0x7FF) | (bits << _U(1) == 0)  # nan, inf and +-0.0
    rows, point = _digit_rows(*_shortest(np.where(special, _U(1), bits)))
    records = np.empty((len(bits), _RECORD), dtype=np.uint8)
    records[:, 0] = (bits >> _U(63)).astype(np.uint8) * np.uint8(ord("-"))
    records[:, 1:] = _body(rows, point).T
    if special.any():
        records[special] = _repr_records(bits[special].view(np.float64))
    return records


def _repr_records(values) -> np.ndarray:
    """repr() of each value's .tolist() item as a NUL-padded (n, 24) uint8 record."""
    text = np.array(list(map(repr, values.tolist())), dtype=np.bytes_)
    if text.itemsize > _RECORD:
        raise ValueError(f"a {values.dtype} cell is wider than {_RECORD} bytes")
    return text.astype(f"S{_RECORD}").view(np.uint8).reshape(-1, _RECORD)


def _fill_block(cells, block) -> None:
    """Put each cell's record into cells[row, column, :24].

    Each distinct bit pattern of each dtype is formatted once: by the float
    kernel when a block holds at least _KERNEL_MIN_VALUES distinct float64
    values, else by repr().
    """
    rows = len(cells)
    by_dtype: dict = {}
    for i, col in enumerate(block):
        by_dtype.setdefault(col.dtype, []).append(i)
    for dtype, idx in by_dtype.items():
        keys = np.concatenate([block[i].view(f"u{dtype.itemsize}") for i in idx])
        distinct, inverse = np.unique(keys, return_inverse=True)
        if dtype == np.float64 and len(distinct) >= _KERNEL_MIN_VALUES:
            records = _float_records(distinct)
        else:
            records = _repr_records(distinct.view(dtype))
        for j, i in enumerate(idx):
            np.take(records, inverse[j * rows : (j + 1) * rows], axis=0, out=cells[:, i, :_RECORD])


def write_csv(path, header, columns) -> None:
    """Write equal-length 1-D numpy columns under a header of column names."""
    rows = len(columns[0])
    cells = np.empty((min(rows, _BLOCK_ROWS), len(columns), _RECORD + 1), dtype=np.uint8)
    cells[:, :, _RECORD] = ord(",")
    cells[:, -1, _RECORD] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, _BLOCK_ROWS):
            block = cells[: min(rows - start, _BLOCK_ROWS)]
            _fill_block(block, [c[start : start + len(block)] for c in columns])
            text = block.reshape(-1)
            fh.write(text[text != 0].tobytes())


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", newline="\n")
