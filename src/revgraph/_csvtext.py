"""CSV text of float64 tables, byte for byte what ``repr`` prints per value.

Each value is written as Python's ``repr(float)`` writes it: the shortest
decimal that reads back to the same double and, of the shortest ones, the
nearest (a tie goes to the even last digit).  Values with 1e-4 <= |x| < 1e16
are positional (``0.0001``, ``9999999999999998.0``), the rest take an
exponent of at least two digits (``1e-05``, ``1e+16``, ``-2.5e-308``).
Zeros keep their sign (``-0.0``), infinities read ``inf``/``-inf`` and a NaN
reads ``nan`` whatever its sign bit.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) in numpy ``uint64`` arithmetic, with a 617-entry table of
126-bit powers of ten.  Its Java form widens the two smallest subnormals to
two digits (``4.9E-324``, ``9.9E-324``); here every value takes the shortest
form, so they read ``5e-324`` and ``1e-323`` as ``repr`` has them.

A table is written in blocks of whole rows, at most 4096 values each unless
one row alone is longer.  A value's characters are gathered from a source row
(its digits, its exponent digits and the constant characters) through a
template keyed by sign, separator, digit count, and decimal-point position or
exponent sign and width; the separator (``,`` or the row's newline) is the
template's last character.  Templates are padded with NUL bytes, which one
boolean compress drops.  The tables are built on first use, not at import.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path

import numpy as np

_BLOCK_VALUES = 4096

# Source row of one value, in bytes.  Column 0 is the NUL pad.  The digits
# of its shortest decimal, most significant first and zero-padded to 17, sit
# in columns 3..19, the 16 low ones in four aligned 4-byte words.  Columns
# 20..23 hold its decimal exponent as four digits, the last three used.  The
# constant characters follow from column 24.
_PAD, _TOP, _EXPONENT = 0, 3, 20
_CONSTANTS = b"-.0e+,\nnaif"
_MINUS, _DOT, _ZERO, _E, _PLUS, _COMMA, _NEWLINE, _N, _A, _I, _F = range(24, 24 + len(_CONSTANTS))
_ROW = 36

_WIDTH = 25                     # '-' + 17 digits + '.' + 'e-308' + separator
_DIGITS = 17
_SLOTS = 24                     # 20 decimal-point positions, then 4 exponent forms
_SPECIAL = _DIGITS * _SLOTS     # then "0.0", "inf", "nan"
_LOCAL = _SPECIAL + 3

# Schubfach constants for binary64.
_Q_MIN = -1074
_K_MIN, _K_MAX = -324, 292
_C_MIN = np.uint64(1 << 52)
_T_MASK = np.uint64((1 << 52) - 1)
_M32 = np.uint64(0xFFFF_FFFF)
_M63 = np.uint64((1 << 63) - 1)
_POW10 = np.array([10 ** i for i in range(_DIGITS + 1)], dtype=np.uint64)
_INF_BITS = np.uint64(0x7FF0_0000_0000_0000)
_ONE_BITS = np.uint64(0x3FF0_0000_0000_0000)


def _flog2pow10(e):
    return (e * 913_124_641_741) >> 38


@cache
def _powers_of_ten() -> np.ndarray:
    """g = floor(10^-k / 2^r) + 1, r = floor(log2 10^-k) - 125, for K_MIN <= k <= K_MAX.

    Rows are g1, g0 and the 32-bit halves of each, g = g1 * 2^63 + g0.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = 10 ** max(-k, 0) << max(-r, 0), 10 ** max(k, 0) << max(r, 0)
        g.append(num // den + 1)
    words = np.frombuffer(b"".join(x.to_bytes(16, "little") for x in g), dtype=np.uint64)
    lo, hi = words[0::2], words[1::2]
    g1, g0 = (hi << np.uint64(1)) | (lo >> np.uint64(63)), lo & _M63
    return np.stack([g1, g0, g1 >> np.uint64(32), g1 & _M32, g0 >> np.uint64(32), g0 & _M32])


@cache
def _digit_words() -> np.ndarray:
    """The ASCII digits of 0..9999, zero-padded to four, one uint32 word each."""
    values = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((10_000, 4), dtype=np.uint8)
    for i, place in enumerate((1000, 100, 10, 1)):
        digits[:, i] = values // place % 10 + ord("0")
    return digits.view(np.uint32).ravel()


def _unsigned_template(n: int, slot: int) -> list[int]:
    """Source columns of the text of a positive value with n digits, in form ``slot``."""
    digits = list(range(_TOP, _TOP + n))
    if slot < 20:                       # positional, the value is 0.d1d2...dn * 10^p
        p = slot - 3
        if p <= 0:
            return [_ZERO, _DOT] + [_ZERO] * -p + digits
        if p < n:
            return digits[:p] + [_DOT] + digits[p:]
        return digits + [_ZERO] * (p - n) + [_DOT, _ZERO]
    negative, wide = divmod(slot - 20, 2)     # exponent below zero; three digits
    mantissa = digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
    exponent = list(range(_EXPONENT + 2 - wide, _EXPONENT + 4))
    return mantissa + [_E, _MINUS if negative else _PLUS] + exponent


@cache
def _templates() -> np.ndarray:
    """Source column of each output byte, shape (width, separator * sign * local).

    ``local`` is (digits - 1) * 24 + slot: slots 0..19 are positional with the
    decimal point at p = slot - 3 (the value is 0.d1d2... * 10^p), slots 20..23
    take an exponent (+XX, +XXX, -XX, -XXX); then "0.0", "inf" and "nan".
    """
    texts = [_unsigned_template(n, slot) for n in range(1, _DIGITS + 1) for slot in range(_SLOTS)]
    texts += [[_ZERO, _DOT, _ZERO], [_I, _N, _F], [_N, _A, _N]]
    table = np.full((2, 2, _LOCAL, _WIDTH), _PAD, dtype=np.uint8)   # (sep, sign, local, j)
    for local, text in enumerate(texts):
        for row, sep in enumerate((_COMMA, _NEWLINE)):
            table[row, 0, local, :len(text) + 1] = text + [sep]
            table[row, 1, local, :len(text) + 2] = [_MINUS] + text + [sep]
    table[:, 1, _SPECIAL + 2] = table[:, 0, _SPECIAL + 2]         # nan has no sign
    return np.ascontiguousarray(table.reshape(-1, _WIDTH).T)


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of a * b, from the 32-bit halves of each factor."""
    ll, lh, hl = a0 * b0, a0 * b1, a1 * b0
    mid = (ll >> np.uint64(32)) + (lh & _M32) + (hl & _M32)
    return a1 * b1 + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (mid >> np.uint64(32))


def _round_to_odd(y1, y0, x1):
    """Schubfach's rop: about g * cp / 2^127, its last bit set when inexact.

    ``y1`` and ``y0`` are the high and low words of g1 * cp, ``x1`` the high
    word of g0 * cp, where g = g1 * 2^63 + g0.
    """
    z = (y0 >> np.uint64(1)) + x1
    vbp = y1 + (z >> np.uint64(63))
    return vbp | (((z & _M63) + _M63) >> np.uint64(63))


def _shifted(hi, lo, a, s, sign):
    """The high and low words of (hi * 2^64 + lo) + sign * a * 2^s, for 0 < s < 64."""
    a_hi, a_lo = a >> (np.uint64(64) - s), a << s
    if sign > 0:
        low = lo + a_lo
        return hi + a_hi + (low < a_lo), low
    return hi - a_hi - (lo < a_lo), lo - a_lo


def _ends(words, g1, g0, s, sign):
    """rop of g * (cp + sign * 2^s) from the words of the centre products g1 * cp and g0 * cp."""
    y1, y0, x1, x0 = words
    y1, y0 = _shifted(y1, y0, g1, s, sign)
    x1, _ = _shifted(x1, x0, g0, s, sign)
    return _round_to_odd(y1, y0, x1)


def _shortest(bits):
    """Digits f and exponent e of the shortest decimal f * 10^e of each finite, nonzero |x|."""
    bq = (bits >> np.uint64(52)).astype(np.int64)
    t = bits & _T_MASK
    normal = bq > 0
    c = np.where(normal, t | _C_MIN, t)
    q = np.where(normal, bq - 1075, _Q_MIN)
    irregular = normal & (t == 0) & (bq > 1)    # the gap below c * 2^q is half the gap above
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0, g1h, g1l, g0h, g0l = _powers_of_ten().take(k - _K_MIN, axis=1)
    # The centre is cp = 4c * 2^h; the interval's ends lie 2 * 2^h above it
    # and (2 - irregular) * 2^h below, so their products with g follow from
    # the centre's words by a shifted g and a carry.
    cp = c << (h + np.uint64(2))
    cph, cpl = cp >> np.uint64(32), cp & _M32
    words = (_mulhi(g1h, g1l, cph, cpl), g1 * cp, _mulhi(g0h, g0l, cph, cpl), g0 * cp)
    vb = _round_to_odd(*words[:3])
    vbl = _ends(words, g1, g0, h + np.uint64(1) - irregular.astype(np.uint64), -1)
    vbr = _ends(words, g1, g0, h + np.uint64(1), 1)
    out = c & np.uint64(1)                      # odd c: the interval's ends round away
    vbl += out
    vbr -= out

    s = vb >> np.uint64(2)
    s_up = s + np.uint64(1)
    near = np.where((vb < 4 * s + 2) | ((vb == 4 * s + 2) & (s & np.uint64(1) == 0)), s, s_up)
    uin, win = vbl <= s << np.uint64(2), s_up << np.uint64(2) <= vbr
    f = np.where(uin == win, near, np.where(uin, s, s_up))
    # One digit fewer: at most one multiple of ten lies in the interval.
    sp = s // np.uint64(10) * np.uint64(10)
    tp = sp + np.uint64(10)
    upin, wpin = vbl <= sp << np.uint64(2), tp << np.uint64(2) <= vbr
    f = np.where(upin == wpin, f, np.where(upin, sp, tp))
    return f, k


def _block(values, newline, source) -> np.ndarray:
    """The CSV bytes of one block of values."""
    bits = values.view(np.uint64)
    negative = (bits >> np.uint64(63)).astype(np.intp)
    magnitude = bits & ~np.uint64(1 << 63)
    finite = magnitude < _INF_BITS
    regular = finite & (magnitude != 0)
    f, e = _shortest(np.where(regular, magnitude, _ONE_BITS))  # 1.0 stands in for the rest

    # f scaled to exactly 17 digits fills the digit columns; the zeros after
    # its last nonzero digit are left out by the template.
    length = np.searchsorted(_POW10, f, side="right")
    f17 = f * _POW10[_DIGITS - length]
    point = e + length
    top = f17 // _POW10[16]
    rest = f17 - top * _POW10[16]
    high = (rest // _POW10[8]).astype(np.uint32)
    low = (rest - high.astype(np.uint64) * _POW10[8]).astype(np.uint32)
    words = source[:len(values)].view(np.uint32)
    table = _digit_words()
    words[:, 1] = table[high // 10_000]
    words[:, 2] = table[high % 10_000]
    words[:, 3] = table[low // 10_000]
    words[:, 4] = table[low % 10_000]
    words[:, 5] = table[np.abs(point - 1)]
    source[:len(values), _TOP] = top.astype(np.uint8) + ord("0")
    digits = _DIGITS - np.argmax(source[:len(values), _TOP + 16:_TOP - 1:-1] != ord("0"), axis=1)

    positional = (point > -4) & (point < 17)
    slot = np.where(positional, point + 3, 20 + 2 * (point < 1) + (np.abs(point - 1) >= 100))
    nan = magnitude > _INF_BITS
    local = np.where(regular, (digits - 1) * _SLOTS + slot,
                     np.where(finite, _SPECIAL, _SPECIAL + 1 + nan))
    negative[nan] = 0
    template = local + _LOCAL * (2 * newline[:len(values)] + negative)

    flat = source.ravel()
    base = np.arange(len(values)) * _ROW
    out = np.empty((_WIDTH, len(values)), dtype=np.uint8)
    index = np.empty(len(values), dtype=np.intp)
    for j, column in enumerate(_templates()):
        np.add(base, column[template], out=index)
        np.take(flat, index, out=out[j], mode="clip")
    text = out.T
    return text[text != _PAD]


def write_csv(path, header: str, table: np.ndarray) -> None:
    """Write ``header`` and the rows of the float64 (rows, columns) ``table`` to ``path``."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    n_rows, n_cols = table.shape
    rows = max(1, min(n_rows, _BLOCK_VALUES // n_cols))
    newline = np.tile(np.arange(n_cols) == n_cols - 1, rows).astype(np.intp)
    source = np.zeros((rows * n_cols, _ROW), dtype=np.uint8)
    source[:, _MINUS:_MINUS + len(_CONSTANTS)] = np.frombuffer(_CONSTANTS, dtype=np.uint8)
    with Path(path).open("wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, n_rows, rows):
            fh.write(_block(table[start:start + rows].ravel(), newline, source))
