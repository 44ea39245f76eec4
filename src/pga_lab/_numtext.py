"""Decimal text of float64 and int64 arrays, as serialize writes them, made
with array arithmetic and lookup tables instead of a Python str per cell,
and the gather that lays out any other column's distinct texts.

A cell is laid out in 64-bit words of bytes, NUL-padded: byte 0 of its
first word is the last byte of the separator that precedes it, and the text
of a matrix of cells is its bytes with the NULs dropped. So a block of rows
is one matrix, its columns of words side by side, and one bytes call.

A float64 cell has the text of serialize.fmt_float ("%.17g"). With k =
floor(log10 |x|) in [-4, 15], "%.17g" writes 17 significant digits in fixed
notation, and they are the digits of rint(D), D = |x| 10^(16 - k):

* D is formed in float64 as P + e exactly: 10^1 ... 10^20 are exact in a
  double, and Dekker's two-product (Numer. Math. 18, 1971) gives the rounded
  product P and its error e, using Veltkamp's split and no fused
  multiply-add. For D in [1e16, 1e17), P >= 2^53 is an even whole number and
  |e| <= 8, so rint(D) = P + rint(e), ties to even included. Where log10
  gave a wrong k, rint(D) falls outside (1e16, 1e17) and the cell is left
  unproven. A fast path that hands what it cannot prove to an exact slow
  one is the method of Grisu3 (Loitsch, "Printing Floating-Point Numbers
  Quickly and Accurately with Integers", PLDI 2010).
* rint(D) splits into a lead digit and four 4-digit groups. Their ASCII
  comes from tables that also drop the trailing zeros "%.17g" drops, while
  keeping the one digit after the point of a whole number ("5.0").
* The point goes after digit k by shifting the digits before it down one
  byte, into a spare byte of the cell's first word.

The cells the kernel cannot prove take _percent, one "%.17g" over their
distinct values: k outside [-4, 15] (exponent notation, and the whole
numbers from 1e16 up, which "%.17g" still writes in fixed notation but the
kernel leaves to it), rint(D) at a power of ten, +-0, NaN, +-inf and
subnormals. On a big-endian machine, where a word's first byte is not its
lowest, EXACT is False and every cell takes _percent. text_words lays out
each distinct text once and gathers the cells from that table, for _percent
and for serialize's columns of strings alike.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from .serialize import _whole

# the kernel's words lay out bytes lowest first
EXACT = sys.byteorder == "little"

# --- tables, built by array arithmetic when the module loads (about 1 ms)

_GROUP = np.arange(10_000)
_ASCII = (np.stack([_GROUP // 1000, _GROUP // 100 % 10, _GROUP // 10 % 10, _GROUP % 10], axis=1)
          + ord("0")).astype(np.uint8)
_PLACE = np.arange(4)


def _words32(keep: np.ndarray) -> np.ndarray:
    """One uint32 per 4-digit group: its ASCII digits, NUL where keep is False."""
    return np.ascontiguousarray(np.where(keep, _ASCII, 0), dtype=np.uint8).view(np.uint32).ravel()


# trailing and leading zeros of a group; 0000 has four of each
_TRAILING = ((_GROUP % 10 == 0).astype(np.intp) + (_GROUP % 100 == 0) + (_GROUP % 1000 == 0)
             + (_GROUP == 0))
_LEADING = (_GROUP < 1000).astype(np.intp) + (_GROUP < 100) + (_GROUP < 10) + (_GROUP == 0)

# _FRACTION[g]: group g without its trailing zeros; _FRACTION[10000 + g]: whole
_FRACTION = np.concatenate([_words32(_PLACE < 4 - _TRAILING[:, None]), _words32(_PLACE < 4)])
# _INTEGER[v * 10000 + g]: group g whole (v = 0), without its leading zeros
# (v = 1), or without them but keeping its last digit (v = 2, so 0 is "0")
_INTEGER = np.concatenate([_words32(_PLACE >= lead[:, None])
                           for lead in (0 * _LEADING, _LEADING, np.minimum(_LEADING, 3))])

# k runs over [-4, 15]; tables indexed by k are indexed by k + 4
_K = np.arange(-4, 16)
_SPLIT = 2.0**27 + 1  # Veltkamp's constant for a 53-bit significand


def _split(v: np.ndarray) -> tuple:
    """Veltkamp's split: v = high + low exactly, each half of at most 26
    significant bits, so a product of two halves is exact in a double."""
    t = v * _SPLIT
    high = t - (t - v)
    return high, v - high


# 10^p, exact in a double (each power up to 10^22 is), and its halves
_SCALE = np.array([float(10**p) for p in range(21)])
_SCALE_HIGH, _SCALE_LOW = _split(_SCALE)

# the first word of a float cell, by (sign, k, lead digit d0): byte 0 is the
# separator, byte 1 the sign; for k < 0, "0." and -k - 1 zeros, then d0 in
# byte 7; for k >= 0, d0 in byte 2, and for k = 0 the point in byte 3. Byte 7
# is where the digit after d0 goes when the point moves right of it (k > 0).
_lead = np.zeros((2, 20, 10, 8), np.uint8)
_lead[1, :, :, 1] = ord("-")
for _i, _k in enumerate(_K.tolist()):
    if _k < 0:
        _lead[:, _i, :, 2:4] = np.frombuffer(b"0.", np.uint8)
        _lead[:, _i, :, 4:3 - _k] = ord("0")
        _lead[:, _i, :, 7] = np.arange(10) + ord("0")
    else:
        _lead[:, _i, :, 2] = np.arange(10) + ord("0")
        _lead[:, _i, :, 3] = ord(".") if _k == 0 else 0
_LEAD = _lead.view(np.uint64).ravel()


def _byte_masks(select) -> np.ndarray:
    """A uint64 per k: 0xFF in each byte b for which select(b, k) holds."""
    b = np.arange(8)[None, :]
    return np.where(select(b, _K[:, None]), 0xFF, 0).astype(np.uint8).view(np.uint64).ravel()


# For k > 0 the digits d1 ... dk move down one byte and the point takes the
# place of dk. Byte 7 of the first word holds digit 0 of that 17-byte run
# (spare until then), words 1 and 2 its digits 1-8 and 9-16: in word 1, byte
# b is run digit b + 1, in word 2 run digit b + 9. A digit before k takes the
# shifted byte, digit k the point, the rest stay.
_MOVED0 = np.where(_K >= 1, np.uint64(0xFF << 56), np.uint64(0))
_MOVED1 = _byte_masks(lambda b, k: b + 1 < k)
_KEPT1 = _byte_masks(lambda b, k: b + 1 > k)
_POINT1 = _byte_masks(lambda b, k: b + 1 == k) & np.uint64(0x2E2E2E2E2E2E2E2E)
_MOVED2 = _byte_masks(lambda b, k: b + 9 < k)
_KEPT2 = _byte_masks(lambda b, k: b + 9 > k)
_POINT2 = _byte_masks(lambda b, k: b + 9 == k) & np.uint64(0x2E2E2E2E2E2E2E2E)

# "%.17g" keeps the digits up to d(k+1) even where they are zeros (with the
# ".0" of a whole number): "0" in those bytes of words 1 and 2, before the shift
_ZEROS1 = _byte_masks(lambda b, k: b + 1 <= k + 1) & np.uint64(0x3030303030303030)
_ZEROS2 = _byte_masks(lambda b, k: b + 9 <= k + 1) & np.uint64(0x3030303030303030)

_8, _56 = np.uint64(8), np.uint64(56)


def float_words(x: np.ndarray, sep: int, blank: Optional[np.ndarray]) -> np.ndarray:
    """(n, w) uint64: fmt_float of each value of the float64 array x, after
    the byte sep; where blank is True, the cell is sep alone. The kernel's
    unproven cells, and every cell where EXACT is False, take _percent."""
    words, fixed = _kernel(x, sep) if EXACT else (_percent(x, sep), np.ones(len(x), bool))
    if blank is not None:
        fixed |= blank
        words[blank] = 0
        words.view(np.uint8)[blank, 0] = sep
    rest = np.flatnonzero(~fixed)
    return overlay(words, rest, _percent(x[rest], sep))


def _kernel(x: np.ndarray, sep: int) -> tuple:
    """(n, 3) uint64, the kernel's cells of the float64 array x after the
    byte sep, and a mask that is True where a cell is proven; an unproven
    cell holds placeholder digits."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0, nan and inf fail `fixed`
        k = np.floor(np.log10(a))
        fixed = (k >= -4) & (k <= 15)
    k = np.where(fixed, k, 0).astype(np.intp)
    a = np.where(fixed, a, 1.0)  # so no product below overflows
    # D = product + error exactly (Dekker's two-product)
    power = 16 - k
    product = a * _SCALE[power]
    high, low = _split(a)
    scale_high, scale_low = _SCALE_HIGH[power], _SCALE_LOW[power]
    error = low * scale_low - (((product - high * scale_high) - low * scale_high)
                               - high * scale_low)
    digits = product.astype(np.int64) + np.rint(error).astype(np.int64)
    fixed &= (digits > 10**16) & (digits < 10**17)
    digits[~fixed] = 10**16 + 1  # any value the arithmetic below takes; replaced
    lead = digits // 10**16
    groups = np.empty((4, len(x)), np.intp)  # digits 1-4, 5-8, 9-12 and 13-16
    for i in range(3):
        np.floor_divide(digits, 10 ** (12 - 4 * i), out=groups[i])
    groups[3] = digits
    groups[1:] -= groups[:3] * 10_000
    groups[0] -= lead * 10_000
    at = k + 4
    # a group keeps its trailing zeros where a later group is nonzero
    later = groups[1:] != 0
    later[1] |= later[2]
    later[0] |= later[1]
    groups[:3] += later * 10_000
    pairs = np.take(_FRACTION, groups.T).view(np.uint64)
    first = np.take(_LEAD, ((x < 0) * 20 + at) * 10 + lead) | np.uint64(sep)
    second, third = pairs[:, 0], pairs[:, 1]
    if (k >= 0).any():
        second, third = second | _ZEROS1[at], third | _ZEROS2[at]
    if (k > 0).any():
        first |= (second << _56) & _MOVED0[at]
        second, third = (
            ((second >> _8) | (third << _56)) & _MOVED1[at] | second & _KEPT1[at] | _POINT1[at],
            (third >> _8) & _MOVED2[at] | third & _KEPT2[at] | _POINT2[at],
        )
    words = np.empty((len(x), 3), np.uint64)
    words[:, 0], words[:, 1], words[:, 2] = first, second, third
    return words, fixed


def _percent(values: np.ndarray, sep: int) -> np.ndarray:
    """(n, w) uint64: fmt_float of each value after the byte sep, by one "%"
    over the distinct values (text_words). Values are told apart by their
    bits, so -0.0 and 0.0, and NaNs of different payloads, are formatted
    each on their own. "%.17g" leaves out "." and "e" exactly for the
    values that are nan, inf, or whole and below 1e17 in size, and those
    take serialize._whole."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    cells = (b",".join([b"%.17g"] * len(distinct)) % tuple(distinct.tolist())).split(b",")
    size = np.abs(distinct)
    with np.errstate(invalid="ignore"):  # trunc flags a signaling NaN
        bare = ~(size < np.inf) | ((size < 1e17) & (np.trunc(distinct) == distinct))
    for i in np.flatnonzero(bare).tolist():
        cells[i] = _whole(cells[i].decode()).encode()
    # "%.17g" writes at most 24 bytes ("-2.2250738585072014e-308")
    return text_words(np.array(cells, dtype="S24"), inverse.ravel(), sep)


def text_words(texts: np.ndarray, inverse: np.ndarray, sep: int) -> np.ndarray:
    """(n, w) uint64: cell i is texts[inverse[i]] after the byte sep, where
    texts is a bytes ("S") array whose texts hold no NUL. Each text is laid
    out once, and the cells are gathered from that table."""
    laid = texts.view(np.uint8).reshape(len(texts), texts.itemsize)
    length = int(np.count_nonzero(laid.any(axis=0)))  # the longest text's
    table = np.zeros((len(texts), 1 + length // 8), np.uint64)
    cells = table.view(np.uint8)
    cells[:, 0] = sep
    cells[:, 1:1 + length] = laid[:, :length]
    return table[inverse]


def overlay(words: np.ndarray, rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """words with the cells at rows replaced by cells, the narrower of the
    two padded with NUL words: a replaced row keeps none of its old bytes."""
    if cells.shape[1] > words.shape[1]:
        words = np.hstack([words, np.zeros((len(words), cells.shape[1] - words.shape[1]),
                                           np.uint64)])
    words[rows, :cells.shape[1]] = cells
    words[rows, cells.shape[1]:] = 0
    return words


def int_words(v: np.ndarray, sep: int) -> np.ndarray:
    """(n, w) uint64: str of each value of the int64 array v, after the byte sep."""
    negative = v < 0
    size = np.where(negative, -v, v).view(np.uint64)  # -(-2**63) wraps to 2**63
    count = max(1, -(-len(str(int(size.max()) if len(v) else 0)) // 4))
    slots = 2 * ((count + 2) // 2)  # uint32 slots: separator and sign, then the groups
    cells = np.zeros((len(v), slots), np.uint32)
    head = cells.view(np.uint8)  # by bytes, so the layout holds on either byte order
    head[:, 0] = sep
    head[:, 1] = negative * ord("-")
    later = np.zeros(len(v), bool)
    for j in range(count):  # most significant group first
        group = (size // np.uint64(10 ** (4 * (count - 1 - j))) % np.uint64(10_000)).astype(np.intp)
        variant = np.where(later, 0, 1 if j < count - 1 else 2)
        cells[:, slots - count + j] = _INTEGER[variant * 10_000 + group]
        later |= group != 0
    return cells.view(np.uint64)
