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
  three zeros, the 17 digits with a point slot after each, ``e±XXX``,
  separator) and one boolean compaction keeps the bytes ``%.17g`` prints.
  The row's mask depends only on the sign, the exponent, the last digit kept
  and the point's place, so it is read from a table too.

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

# A value's byte row, six little-endian words:
#   - 0 . 0 0 0 d0 .  | d1 . d2 . d3 . d4 . | ... | d13 . ... d16 . |
#   e ± X X X sep pad pad
_WORDS = 6
_SEP = 45     # the separator's byte
_FORMS = 7    # x in 0..16, x = -1..-4, exponent of two or of three digits


def _pow10(k: int) -> tuple[float, float, float]:
    """(least double >= 10^k, nearest double hi, 10^k - hi rounded)."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    hi = num / den
    n, m = hi.as_integer_ratio()
    lo = (num * m - n * den) / (den * m)
    return (hi if n * den >= num * m else math.nextafter(hi, math.inf)), hi, lo


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes as one little-endian word each."""
    return np.ascontiguousarray(rows, np.uint8).view("<u8")


@lru_cache(maxsize=None)
def _tables() -> dict:
    """Lookup tables, built on first use.  Arrays over the exponent x are
    indexed by x - _EMIN.

    ``ceil`` -- the least double >= 10^x;
    ``hi``, ``lo`` -- 10^(16 - x) as the double-double hi + lo;
    ``lead``, ``chunk``, ``exp`` -- the row's words for the leading digit,
    a four-digit chunk, and the exponent;
    ``last[i, c]`` -- the last nonzero digit's place if chunk i is c, else 0;
    ``form``, ``fixed``, ``point`` -- the layout of exponent x: its form's
    offset into ``mask``, its integer digits (x in ``%f`` form, else 0),
    and the digit the point follows (-1 for none);
    ``mask`` -- the row's bytes to keep, by form, last digit kept, point
    place and sign.
    """
    pows = np.array([_pow10(k) for k in range(_EMIN, _EMAX + 17)])
    x = np.arange(_EMIN, _EMAX + 1)
    ceil = pows[:x.size, 0]
    hi, lo = pows[16 - x - _EMIN, 1:].T.copy()

    n = np.arange(10000, dtype=np.uint16)
    dec = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    chunk = np.full((10000, 8), ord("."), np.uint8)
    chunk[:, ::2] = dec + ord("0")
    lead = np.tile(np.frombuffer(b"-0.000..", np.uint8), (10, 1))
    lead[:, 6] = np.arange(10) + ord("0")
    ax = np.abs(x)
    exp = np.zeros((x.size, 8), np.uint8)
    exp[:, 0] = ord("e")
    exp[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    exp[:, 2:5] = ax[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    tz = sum(n % 10 ** j == 0 for j in range(1, 5))
    last = (4 * np.arange(4)[:, None] + 4 - tz).astype(np.uint8)
    last[:, 0] = 0

    small = (x < 0) & (x >= -4)
    form = np.select([(x >= 0) & (x < 17), small, ax < 100], [0, -x, 5], 6)
    fixed = np.where(form == 0, x, 0)
    first_point = np.where(small, -1, fixed)

    # mask[form, keep, point + 1, sign, byte], each index on its own axis
    f = np.arange(_FORMS)[:, None, None, None, None]
    keep = np.arange(17)[:, None, None, None]
    point = np.arange(-1, 16)[:, None, None]
    sign = np.arange(2)[:, None]
    digit = np.arange(17)
    mask = np.zeros((_FORMS, 17, 17, 2, 8 * _WORDS), bool)
    mask[..., :1] = sign == 1
    mask[..., 1:3] = (f >= 1) & (f <= 4)
    mask[..., 3:6] = (f - 1 > np.arange(3)) & (f <= 4)
    mask[..., 6:40:2] = digit <= keep
    mask[..., 7:41:2] = digit == point
    mask[..., 40:45] = f >= 5
    mask[..., 42:43] &= f == 6
    mask[..., _SEP] = True

    return {"ceil": ceil, "hi": hi, "lo": lo,
            "lead": _words(lead).ravel(), "chunk": _words(chunk).ravel(),
            "exp": _words(exp).ravel(), "last": last,
            "form": form * (17 * 17 * 2), "fixed": fixed,
            "point": first_point,
            "mask": mask.reshape(-1, 8 * _WORDS).view("<u8")}


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


def _layout(v: np.ndarray, sep: np.ndarray, tab: dict):
    """(byte rows, bytes to keep) of the values ``v``, each row ending in
    its ``sep`` word (the separator byte in place)."""
    sig, e, fallback = _decimal(v, tab)
    upper = sig // 10 ** 8
    lower = sig - upper * 10 ** 8
    lead = upper // 10 ** 8
    upper -= lead * 10 ** 8
    c1, c3 = upper // 10 ** 4, lower // 10 ** 4
    chunks = (c1, upper - c1 * 10 ** 4, c3, lower - c3 * 10 ** 4)

    buf = np.empty((v.size, _WORDS), "<u8")
    buf[:, 0] = tab["lead"].take(lead)
    last = np.zeros(v.size, np.intp)
    for i, c in enumerate(chunks):
        buf[:, 1 + i] = tab["chunk"].take(c)
        np.maximum(last, tab["last"][i].take(c), out=last)
    buf[:, 5] = tab["exp"].take(e) | sep

    keep = np.maximum(last, tab["fixed"].take(e))
    point = tab["point"].take(e)
    point = np.where(keep > point, point, -1)
    code = tab["form"].take(e) + (keep * 17 + point + 1) * 2 + np.signbit(v)
    mask = tab["mask"].take(code, axis=0)

    out, kept = buf.view(np.uint8), mask.view(bool)
    for i in np.flatnonzero(fallback):
        text = b"%.17g" % float(v[i])
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
        kept[i, :_SEP] = np.arange(_SEP) < len(text)
    return out, kept


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
        out, kept = _layout(block, sep[:block.size], tab)
        fh.write(np.compress(kept.ravel(), out.ravel()))
