"""Shortest round-trip text of float64 tables, byte for byte as ``repr``.

:func:`format_rows` prints a 2-D float64 array as ``"%r"`` prints each cell:
the shortest decimal digit string that reads back to the same double, the
one nearest the double when several are that short (ties to an even last
digit), in Python's ``'r'`` layout; cells are joined by one space and each
row ends in ``\\n``. Every cell must be finite. The array may have any
memory layout; the text is yielded one chunk of whole rows at a time, so a
writer holds one chunk's text, never a whole file's.

Digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020, as in the JDK's ``DoubleToDecimal``), run on whole arrays in
``np.uint64`` with 32-bit limb products. Two departures make it print
Python's digits rather than Java's, which keeps at least two: the
one-digit-shorter candidate is tried from ``s >= 10`` (not 100), and a
subnormal significand is used as it is (no ``C_TINY`` scaling).

Layout: with the digits ``d1...dn`` and ``decpt`` such that the value is
``0.d1...dn * 10**decpt``, a cell is in exponent form ``d1[.d2...dn]e±XX``
when ``decpt <= -4`` or ``decpt > 16``, and in fixed form otherwise, with at
least one digit on each side of the point. Each cell's bytes are gathered
from a 32-byte scratch row by a layout table indexed by ``(n, decpt)``;
slots a cell leaves unused hold zero bytes, which are dropped at the end.

Per cell, only ``uint64`` shifts, sums, products, minimum and maximum,
float64 division, casts, searches and table lookups run: comparisons,
bitwise operators and integer division are spelled with those. numpy's
loops for them would page in code that nothing else in the toolkit runs,
about 0.6 MB of resident memory in a ``generate`` then ``discover`` process
(numpy 2.4, x86-64). numpy promotes ``uint64`` mixed with ``int64`` to
float64, so every operand that meets a ``uint64`` array is ``np.uint64``.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

import numpy as np

_U = np.uint64
_ONE_BITS = _U(0x3FF0_0000_0000_0000)  # 1.0 stands in for ±0.0
_K_MIN, _K_MAX = -324, 292

# Cells per chunk. A chunk makes about 200 numpy calls, so a smaller one pays
# their fixed cost more often per cell; this one holds about 1 MB of live
# temporaries. The final gather runs in blocks, so that its int64 index (25
# slots per cell) stays near 200 KB: with one block, the transient raised the
# peak RSS of a `generate --rows 2000` process by 0.8 MB.
_CHUNK_CELLS = 4096
_GATHER_CELLS = 1024

_P10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_P5 = np.array([5.0**i for i in range(10)])
# ceil(2**62 / 5) in 32-bit limbs: see :func:`_div5`.
_INV5 = (1 << 62) // 5 + 1
_INV5_LO, _INV5_HI = _U(_INV5 & 0xFFFF_FFFF), _U(_INV5 >> 32)
# Whether to print s + 1 rather than s, by 4 * s_in + 2 * t_in + nearer_t:
# the one of them inside the rounding interval, else the nearer one.
_ROUND_UP = np.array([n if s_in == t_in else t_in
                      for s_in in (0, 1) for t_in in (0, 1) for n in (0, 1)], dtype=np.uint64)
_SPLIT = np.array([[4], [5]], dtype=np.uint64)  # d1-d8 at 4 digits, d9-d17 at 5
_P256 = np.array([256**i for i in range(8)], dtype=np.uint64)
_ZEROS8 = _U(0x3030_3030_3030_3030)  # eight ASCII '0's
_ZERO_ROW = 17  # the layout rows of significant-digit count 18 print ±0.0


def _g_table() -> np.ndarray:
    """For ``k`` from K_MIN to K_MAX, ``g = floor(10**-k * 2**(125 - r)) + 1``
    with ``r = floor(log2(10**-k))``, so that 2**125 < g < 2**126. Rows: the
    low and high 32-bit limbs of ``g mod 2**63``, the same of ``g1 = g >> 63``,
    and ``g1`` whole."""
    powers = [1]
    while len(powers) <= -_K_MIN:
        powers.append(powers[-1] * 10)
    rows = [[], [], [], [], []]
    for k in range(_K_MIN, _K_MAX + 1):
        shift = ((-k * 913_124_641_741) >> 38) - 125
        if k > 0:
            g = (1 << -shift) // powers[k]
        else:
            g = powers[-k] >> shift if shift >= 0 else powers[-k] << -shift
        g0, g1 = (g + 1) & ((1 << 63) - 1), (g + 1) >> 63
        for row, limb in zip(rows, (g0 & 0xFFFF_FFFF, g0 >> 32, g1 & 0xFFFF_FFFF, g1 >> 32, g1)):
            row.append(limb)
    return np.array(rows, dtype=np.uint64)


def _exponent_table() -> np.ndarray:
    """Per-exponent constants, indexed by ``e = bq + 2048 * (t == 0)`` for a
    double with biased exponent ``bq`` and fraction bits ``t``, packed as
    ``(k - K_MIN) << 8 | h << 1 | irregular``:

    - ``k``, the decimal exponent of the digits the kernel computes; ``k -
      K_MIN`` is also the column of ``k``'s :func:`_g_table` entry;
    - ``h``, the left shift turning ``4 * c`` into the scaled value;
    - ``irregular``, 1 at a power of two above the subnormals, where the lower
      gap of the rounding interval is half as wide.

    ``bq = 2047`` (no finite double) gets harmless entries.
    """
    bq = np.tile(np.arange(2048), 2)
    irregular = np.zeros(4096, dtype=np.int64)
    irregular[2048 + 2:] = 1
    q = np.maximum(bq, 1) - 1075
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = q + ((-k * 913_124_641_741) >> 38) + 2
    return (((k - _K_MIN) << 8) + (h << 1) + irregular).astype(np.uint64)


def _layout_table() -> np.ndarray:
    """Row ``(n - 1) * 22 + clip(decpt, -4, 17) + 4``: the scratch-row byte
    positions of a cell with ``n`` significant digits, padded with a zero
    byte's position; ``n = 18`` marks ±0.0, which runs as 1.0. Scratch row:
    digits d1..d17 at 0-16, the sign at 17 (zero byte if positive), '.' at
    18, '0' at 19, the separator at 20, zero bytes at 21-23, and 'e', the
    exponent's sign and digits (zero-padded) at 24-28."""
    digits = list(range(17))
    sign, point, zero, sep, nul = [17], [18], [19], [20], [21]
    exponent = list(range(24, 29))
    rows = []
    for n in range(1, 19):
        for decpt in range(-4, 18):
            if n == 18:
                body = zero + point + zero
            elif decpt in (-4, 17):
                body = digits[:1] + (point + digits[1:n] if n > 1 else []) + exponent
            elif decpt <= 0:
                body = zero + point + zero * -decpt + digits[:n]
            else:  # digits past the n-th are '0'
                body = digits[:decpt] + point + digits[decpt:max(n, decpt + 1)]
            rows.append(sign + body + sep + nul * (23 - len(body)))
    return np.array(rows, dtype=np.int64)


def _byte_words(rows) -> np.ndarray:
    """Each byte string of ``rows``, zero-padded to 8 bytes, as one
    ``uint64`` in the machine's byte order."""
    return np.frombuffer(b"".join(r.ljust(8, b"\0") for r in rows), dtype=np.uint64).copy()


class _Tables(NamedTuple):
    """The kernel's lookup tables; the functions that build three of them
    describe them."""

    exponent: np.ndarray
    g: np.ndarray
    digits: np.ndarray  # the four ASCII digits of 0000 to 9999, as little-endian uint32
    layout: np.ndarray
    tail: np.ndarray  # bytes 16-23 of a scratch row, by d17 + 10 * negative + 20 * last column
    powers: np.ndarray  # bytes 24-31 of a scratch row, by decimal exponent + 324


@functools.cache
def _tables() -> _Tables:
    """Built on the first call, so a process that writes no table pays
    neither the time nor the memory."""
    return _Tables(
        _exponent_table(),
        _g_table(),
        np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
        .reshape(10_000, 4).view("<u4").ravel(),
        _layout_table(),
        tail=_byte_words([bytes([48 + d, 45 * negative, 46, 48, (32, 10)[last]])
                          for last in (0, 1) for negative in (0, 1) for d in range(10)]),
        powers=_byte_words([b"e%+03d" % e for e in range(-324, 309)]),
    )


def format_rows(values: np.ndarray) -> Iterator[bytes]:
    """The ``"%r"`` text of a 2-D array of finite float64 cells, in any
    memory layout: one space between cells, ``\\n`` after each row, and
    ``\\n`` alone for no rows. It is yielded one chunk of whole rows at a
    time, so no more than one chunk's text is held at once."""
    rows, cols = values.shape
    if rows == 0:
        yield b"\n"
    elif cols == 0:
        yield b"\n" * rows
    else:
        step = max(1, _CHUNK_CELLS // cols)
        for lo in range(0, rows, step):
            chunk = np.ascontiguousarray(values[lo:lo + step], dtype=np.float64)
            yield _format_chunk(chunk.view(np.uint64))


def _le(a, b):
    """1 where ``a <= b``, else 0, for ``a`` and ``b`` below 2**63."""
    return (a - b - _U(1)) >> _U(63)


def _low_bits(x, bits: int):
    """``x mod 2**bits``."""
    return x << _U(64 - bits) >> _U(64 - bits)


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit limbs of
    ``a < 2**63`` and ``b < 2**60``: the middle sum cannot overflow."""
    mid = a_lo * b_lo
    mid >>= _U(32)
    mid += a_lo * b_hi
    mid += a_hi * b_lo
    mid >>= _U(32)
    mid += a_hi * b_hi
    return mid


def _div5(x):
    """``x // 5`` for ``x < 2**60``: ``4 * x * ceil(2**62 / 5) >> 64`` errs
    by less than 1/20 above ``x / 5``, whose fraction is at most 4/5."""
    x4 = x << _U(2)
    return _mulhi(_low_bits(x4, 32), x4 >> _U(32), _INV5_LO, _INV5_HI)


def _divmod(x, p):
    """``x // 10**p`` and ``x % 10**p``, for ``x >> p`` below 2**52 and ``p``
    a Python int or a ``uint64`` array: then float64 holds ``x >> p`` and
    ``5**p`` exactly, and a quotient that is not an integer is farther from
    the next one than its rounding error."""
    q = ((x >> p).astype(np.float64) / np.take(_P5, p)).astype(np.uint64)
    return q, x - q * np.take(_P10, p)


def _shortest(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits ``f`` and ``k - K_MIN`` with ``f * 10**k`` the shortest decimal
    that reads back as each positive double of bit pattern ``mag``."""
    tables = _tables()
    # Significand c and exponent-table index e.
    t = _low_bits(mag, 52)
    bq = mag >> _U(52)
    c = t + (np.minimum(bq, _U(1)) << _U(52))
    e = bq + ((_U(1) - np.minimum(t, _U(1))) << _U(11))
    fields = np.take(tables.exponent, e)
    k_index = fields >> _U(8)
    h = _low_bits(fields, 8) >> _U(1)

    # vb, vbl, vbr: the value and its rounding interval's ends, times
    # 4 * 10**-k, rounded to odd.
    cp = np.empty((3, c.size), dtype=np.uint64)
    cp[1] = c << _U(2)
    cp[0] = cp[1] - _U(2)
    cp[0] += _low_bits(fields, 1)
    cp[2] = cp[1] + _U(2)
    cp <<= h
    g = np.take(tables.g, k_index, axis=1)
    cp_lo, cp_hi = _low_bits(cp, 32), cp >> _U(32)
    z = g[4] * cp
    z >>= _U(1)
    z += _mulhi(g[0], g[1], cp_lo, cp_hi)
    v = _mulhi(g[2], g[3], cp_lo, cp_hi)
    v += z >> _U(63)
    # v | (z mod 2**63 != 0): v, or v with its last bit set when that is 0
    v = np.maximum(v, (v >> _U(1) << _U(1)) + np.minimum(z << _U(1), _U(1)))
    vbl, vb, vbr = v

    # The shortest candidate inside the interval (its ends count when c is
    # even): the multiple of 10 in it, when there is one and s >= 10; else
    # whichever of s and s + 1 is in it, the nearer one (ties to even) when
    # both are.
    odd = _low_bits(c, 1)
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    f10 = _div5((vbl + _U(39)) >> _U(3)) * _U(10)  # ceil(vbl / 40) * 10
    use10 = _le(f10 << _U(2), vbr) * _le(_U(10), s)
    s_in = _le(vbl, s << _U(2))
    t_in = _le((s + _U(1)) << _U(2), vbr)
    nearer_t = _le(_U(3), _low_bits(vb, 2) + _low_bits(s, 1))
    f = s + np.take(_ROUND_UP, (s_in << _U(2)) + (t_in << _U(1)) + nearer_t)
    f += use10 * (f10 - f)
    return f, k_index


def _format_chunk(bits: np.ndarray) -> bytes:
    rows, cols = bits.shape
    x = bits.ravel()
    n = x.size
    negative = x >> _U(63)
    mag = _low_bits(x, 63)
    is_zero = _U(1) - np.minimum(mag, _U(1))
    mag += is_zero * _ONE_BITS
    f, k_index = _shortest(mag)

    # 17 digits, left-aligned, and the decimal point position, less K_MIN.
    length = np.searchsorted(_P10, f, side="right").view(np.uint64)
    f *= np.take(_P10, _U(17) - length)
    decpt = k_index + length
    # The ASCII digits d1..d16 from four groups of four, and d17: f splits
    # into d1-d8 and d9-d17, those into d1-d4 and d5-d8, and d9-d12 and
    # d13-d17, and the last into d13-d16 and d17.
    halves = np.empty((2, n), dtype=np.uint64)
    halves[0], halves[1] = _divmod(f, 9)
    fours, rest = _divmod(halves, _SPLIT)
    d13_16, d17 = _divmod(rest[1], 1)
    tables = _tables()
    scratch = np.empty((n, 32), dtype=np.uint8)
    for j, group in enumerate((fours[0], rest[0], fours[1], d13_16)):
        scratch.view("<u4")[:, j] = np.take(tables.digits, group)

    # Significant digits: up to the last nonzero one of d1-d8 and of d9-d16,
    # the last nonzero byte of each as a little-endian number, or d17.
    last = np.searchsorted(_P256, scratch.view("<u8")[:, :2] - _ZEROS8, side="right").view(np.uint64)
    significant = np.maximum(last[:, 0], (last[:, 1] + _U(8)) * np.minimum(last[:, 1], _U(1)))
    significant = np.maximum(significant, np.minimum(d17, _U(1)) * _U(17))
    significant += is_zero * _U(_ZERO_ROW)

    words = scratch.view(np.uint64)
    tail = d17 + negative * _U(10)
    tail.reshape(rows, cols)[:, -1] += _U(20)
    words[:, 2] = np.take(tables.tail, tail)
    words[:, 3] = np.take(tables.powers, decpt - _U(1))

    key = significant * _U(22) + np.clip(decpt, _U(-4 - _K_MIN), _U(17 - _K_MIN)) - _U(22 - 4 - _K_MIN)
    flat = scratch.ravel()
    text = []
    for lo in range(0, n, _GATHER_CELLS):
        index = np.take(tables.layout, key[lo:lo + _GATHER_CELLS], axis=0)
        index += np.arange(32 * lo, 32 * min(n, lo + _GATHER_CELLS), 32)[:, None]
        text.append(flat.take(index).tobytes())
    return b"".join(text).translate(None, b"\0")
