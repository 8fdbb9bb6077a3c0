"""CSV rows of a float table, every value exactly the bytes of ``"%.17g" % v``.

The text is made a block of values at a time with array arithmetic:

* exponent -- e = floor(log10|x|) from the binary exponent, corrected by an
  exact comparison with the least double at or above 10^(e+1), so that
  10^16 <= |x| 10^(16-e) < 10^17;
* significand -- N = round(|x| 10^(16-e)) from Dekker's exact product
  (Numer. Math. 18 (1971) 224) of |x| with 10^(16-e) held as a double-double;
* digits -- read four at a time from a lookup table, and the trailing zeros
  that ``%g`` drops from the same four-digit chunks;
* layout -- each value fills a fixed-width byte row (sign, ``0.`` and up to
  three zeros, d0 and a point, d1..d16 packed, ``e±XXX``, separator).  A
  byte mask, read from a table by the sign, the exponent, the last digit
  kept and whether the point follows d0, turns every byte ``%.17g`` drops
  to NUL.  Where the point follows a later digit (``%f`` form with
  1 <= x <= 15 and a fraction digit kept) the digits after it shift one
  byte right, into the ``e`` byte ``%f`` form never prints, and the point
  goes in.  One ``bytes.translate`` pass deletes the NULs.  No kept byte
  is NUL: the row's text is printable ASCII, and a value Python formats
  has its row zeroed before its text goes in.

The powers of ten come from exact integers by correctly rounded int/int
division.  Values the arithmetic cannot settle exactly are formatted by
Python itself: non-finite ones, magnitudes outside [1e-200, 1e200], and
those within 1e-6 of a rounding tie.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: values per block: enough to amortise the per-call overhead, few enough
#: that a block's temporaries (about 300 bytes a value) stay in cache and
#: add little to the process's peak memory
BLOCK = 1 << 12
#: magnitudes the arithmetic route formats (zero too); others go to Python
_LO, _HI = 1e-200, 1e200
#: decimal exponents of the tables, a margin beyond those of [_LO, _HI]
_EMIN, _EMAX = -202, 202
#: Dekker's splitting factor 2^27 + 1
_SPLIT = 134217729.0

# A value's byte row, four little-endian words:
#   - 0 . 0 0 0 d0 .  | d1 d2 ... d8 | d9 ... d16 | e ± X X X sep pad pad
# d_j, j >= 1, sits at byte 7 + j.  The one point slot follows d0; a point
# after d_x, 1 <= x <= 15 (``%f`` form with a fraction digit kept), gets its
# byte by moving bytes 8 + x .. 23 to 9 + x .. 24, the last one the ``e``.
_WORDS = 4
_SEP = 29     # the separator's byte
_FORMS = 7    # x in 0..16, x = -1..-4, exponent of two or of three digits


def _pow10(k: int) -> tuple[float, float]:
    """10^k as hi + lo: hi the nearest double, lo the rest rounded."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    hi = num / den
    n, m = hi.as_integer_ratio()  # m is a power of two
    return hi, math.ldexp((num * m - n * den) / den, 1 - m.bit_length())


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes as one little-endian word each."""
    return np.ascontiguousarray(rows, np.uint8).view("<u8")


@lru_cache(maxsize=None)
def _tables() -> dict:
    """Lookup tables, built on first use.  Arrays over the exponent x are
    indexed by x - _EMIN.

    ``ceil`` -- the least double >= 10^x;
    ``hi``, ``lo`` -- 10^(16 - x) as the double-double hi + lo;
    ``lead``, ``quad``, ``exp`` -- the row's words for the leading digit,
    a four-digit chunk (its four bytes in the low half), and the exponent;
    ``last[i, c]`` -- the last nonzero digit's place if chunk i is c, else 0;
    ``form``, ``fixed``, ``point`` -- the layout of exponent x: its form's
    offset into ``mask``, its integer digits (x in ``%f`` form, else 0),
    and the digit the point follows (-1 for none);
    ``mask`` -- the row's bytes to keep (0xFF, else 0), by form, last digit
    kept, whether the point follows d0, and sign;
    ``tail``, ``dot`` -- by the digit x the point follows, the bytes that
    move to make room for it (those of d_{x+1}..d16) and the point in its
    byte, neither for x = 0.
    """
    hi, lo = np.array([_pow10(k) for k in range(_EMIN, _EMAX + 17)]).T
    x = np.arange(_EMIN, _EMAX + 1)
    ceil = np.where(lo > 0, np.nextafter(hi, np.inf), hi)[:x.size]
    hi, lo = hi[16 - x - _EMIN], lo[16 - x - _EMIN]

    dec = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # of 0..9999
    quad = np.ascontiguousarray(dec + ord("0")).view("<u4").astype("<u8")
    lead = np.tile(np.frombuffer(b"-0.000..", np.uint8), (10, 1))
    lead[:, 6] = np.arange(10) + ord("0")
    ax = np.abs(x)
    exp = np.zeros((x.size, 8), np.uint8)
    exp[:, 0] = ord("e")
    exp[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    exp[:, 2:5] = dec[ax, 1:] + ord("0")
    # the place of the last nonzero digit, 0 for none
    place = np.max((dec != 0) * np.arange(1, 5, dtype=np.uint8), axis=1)
    last = (np.arange(0, 16, 4, dtype=np.uint8)[:, None] + place) * (place > 0)

    small = (x < 0) & (x >= -4)
    form = np.select([(x >= 0) & (x < 17), small, ax < 100], [0, -x, 5], 6)
    fixed = np.where(form == 0, x, 0)
    first_point = np.where(small, -1, fixed)

    # mask[form, keep, point after d0, sign, byte], each index on its own axis
    f = np.arange(_FORMS)[:, None, None, None, None]
    keep = np.arange(17)[:, None, None, None]
    at_d0 = np.arange(2)[:, None, None]
    sign = np.arange(2)[:, None]
    mask = np.zeros((_FORMS, 17, 2, 2, 8 * _WORDS), bool)
    mask[..., :1] = sign == 1
    mask[..., 1:3] = (f >= 1) & (f <= 4)
    mask[..., 3:6] = (f - 1 > np.arange(3)) & (f <= 4)
    mask[..., 6] = True
    mask[..., 7:8] = at_d0 == 1
    mask[..., 8:24] = np.arange(1, 17) <= keep
    mask[..., 24:29] = f >= 5
    mask[..., 26:27] &= f == 6
    mask[..., _SEP] = True

    # by x in 0..15: the bytes that move (8 + x .. 23) and the point's
    # (8 + x), none for x = 0
    after = np.arange(16) - np.arange(16)[:, None]
    tail = np.zeros((16, 8 * _WORDS), bool)
    tail[1:, 8:24] = after[1:] >= 0
    dot = np.zeros((16, 8 * _WORDS), np.uint8)
    dot[1:, 8:24] = (after[1:] == 0) * np.uint8(ord("."))

    return {"ceil": ceil, "hi": hi, "lo": lo,
            "lead": _words(lead).ravel(), "quad": quad.ravel(),
            "exp": _words(exp).ravel(), "last": last,
            "form": form * (17 * 2 * 2), "fixed": fixed,
            "point": first_point,
            "mask": _words(mask * np.uint8(0xFF)).reshape(-1, _WORDS),
            "tail": _words(tail * np.uint8(0xFF)).reshape(-1, _WORDS),
            "dot": _words(dot).reshape(-1, _WORDS)}


def _decimal(v: np.ndarray, tab: dict):
    """(N, e - _EMIN, fallback) for the values ``v``: the 17-digit
    significand N and decimal exponent e with |v| ~ N 10^(e-16), and where
    the arithmetic cannot settle N exactly."""
    ax = np.abs(v)
    zero = ax == 0.0
    in_range = (ax >= _LO) & (ax <= _HI)
    a = np.where(in_range, ax, 1.0)

    # floor(e2 log10 2) for the binary exponent e2 of a, exact for |e2| < 1100
    e = ((a.view(np.int64) >> 52) - 1023) * 78913 >> 18
    e -= _EMIN
    e += a >= tab["ceil"].take(e + 1)

    # a 10^(16-e) = ph + (pl + a lo) to about 1e-14, and ph is an integer
    b = tab["hi"].take(e)
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    ph = a * b
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    r = pl + a * tab["lo"].take(e)
    r_floor = np.floor(r)
    frac = r - r_floor
    fallback = ~(in_range | zero) | (np.abs(frac - 0.5) < 1e-6)

    sig = ph.astype(np.int64) + r_floor.astype(np.int64) + (frac > 0.5)
    carry = sig >= 10 ** 17
    sig[carry] = 10 ** 16
    sig[zero] = 0
    e += carry
    return sig, e, fallback


def _layout(v: np.ndarray, sep: np.ndarray, tab: dict) -> np.ndarray:
    """Byte rows of the values ``v``, each row ending in its ``sep`` word
    (the separator byte in place), with every byte ``%.17g`` drops NUL."""
    sig, e, fallback = _decimal(v, tab)
    upper = sig // 10 ** 8
    lower = sig - upper * 10 ** 8
    lead = upper // 10 ** 8
    upper -= lead * 10 ** 8
    c1, c3 = upper // 10 ** 4, lower // 10 ** 4
    chunks = (c1, upper - c1 * 10 ** 4, c3, lower - c3 * 10 ** 4)

    buf = np.empty((v.size, _WORDS), "<u8")
    buf[:, 0] = tab["lead"].take(lead)
    last = np.zeros(v.size, np.uint8)
    for i, c in enumerate(chunks):
        np.maximum(last, tab["last"][i].take(c), out=last)
    for word, (first, second) in enumerate((chunks[:2], chunks[2:]), 1):
        high = tab["quad"].take(second)
        high <<= 32
        np.bitwise_or(tab["quad"].take(first), high, out=buf[:, word])
    buf[:, 3] = tab["exp"].take(e) | sep

    keep = np.maximum(last, tab["fixed"].take(e))
    point = tab["point"].take(e)
    point = np.where(keep > point, point, -1)
    code = (tab["form"].take(e) + (keep * 2 + (point == 0)) * 2
            + np.signbit(v))
    kept = tab["mask"].take(code, axis=0)
    buf &= kept

    # a point after d_x, x >= 1: the bytes from 8 + x on move one right
    # (mode "clip" reads point -1 as row 0, which moves nothing, and lets
    # take write into ``out`` unbuffered)
    if point.max() > 0:
        tail = np.take(tab["tail"], point, axis=0, out=kept, mode="clip")
        tail &= buf
        buf ^= tail
        buf.view(np.uint8).ravel()[1:] |= tail.view(np.uint8).ravel()[:-1]
        buf |= np.take(tab["dot"], point, axis=0, out=tail, mode="clip")

    out = buf.view(np.uint8)
    for i in np.flatnonzero(fallback):
        text = b"%.17g" % float(v[i])
        out[i, :_SEP] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def write_rows(fh, table: np.ndarray) -> None:
    """Write the 2-D ``table`` to the binary file ``fh``: one line per row,
    values separated by commas, each value the bytes of ``"%.17g" % v``."""
    table = np.asarray(table, dtype=np.float64)
    tab = _tables()
    n_rows, n_cols = table.shape
    rows = max(1, BLOCK // n_cols)
    row_end = np.arange(rows * n_cols) % n_cols == n_cols - 1
    sep = (np.where(row_end, ord("\n"), ord(",")).astype("<u8")
           << 8 * (_SEP % 8))
    for start in range(0, n_rows, rows):
        block = table[start:start + rows].ravel()
        fh.write(_layout(block, sep[:block.size], tab).tobytes()
                 .translate(None, b"\0"))
