"""Python's ``repr`` of many floats at once, as fixed-width byte fields.

``repr`` writes the shortest decimal string that reads back as the same
float and, among those, the one nearest to it (Steele & White 1990, Gay
1990).  For a float ``x = m 2^q`` written in fixed notation
(``1e-4 <= |x| < 1e16``) that string is found here with 64-bit integer
arithmetic alone, as Ryu (Adams 2018) showed it can be: scaled by ``10^k``,
``x`` lies in about ``[1e17, 1e18]``, and so does its rounding interval,
whose ends are exact as a floor and a remainder of the 102-bit product
``m 5^k``.  The digits are the multiple of the largest power of ten in the
interval nearest to ``x``.  Zeros have constant text.  Every other float
is written by ``repr`` itself: the rest of the range, NaN, the infinities,
exact powers of two (whose interval is not symmetric) and floats halfway
between two shortest candidates, all rare in sampled data.
"""

from __future__ import annotations

import functools

import numpy as np

# Bytes of one field: a sign, 16 integer digits, the point and 24 fraction
# digits, the bytes a field does not use set to 0.  The longest ``repr`` of
# a float has 24 bytes.
FIELD_BYTES = 42
_INT_DIGITS = 16
_QUADS = 10  # groups of 4 digits in a field
# Floats converted per pass.  A pass makes some 60 arrays of its length
# besides the scratch a writer keeps; at 4096 they stay in blocks the heap
# reuses from pass to pass, and longer passes gained little more.
PASS_VALUES = 4096

_MANTISSA = (1 << 52) - 1
_LOW26 = (1 << 26) - 1
# Bit patterns of non-negative floats order as the floats do, and NaN and
# the infinities lie above every finite one.
_FIXED_LOW, _FIXED_HIGH = np.array([1e-4, 1e16]).view(np.int64).tolist()
# Stands in for the floats a pass does not convert: a float of many digits,
# which the digit search passes in few turns.
_STAND_IN = int(np.array(1.0 / 3.0).view(np.int64))


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The ASCII digits of 0..9999 as one uint32 each; ``masks[16 * shown +
    lead]``, 0xFF on the digit bytes of a field whose integer digits start at
    ``lead`` and that shows ``shown`` fraction digits; 10^0..10^18; and,
    indexed by k: 5^k, 10^min(k, 18) and the divisor and the two multipliers
    that write a fraction of k digits as 8 and 16 digits.  Built on first
    use, so a process that writes no sample does not pay for them."""
    quads = np.frombuffer("".join(map("{:04d}".format, range(10_000))).encode(), np.uint32)
    places = np.arange(4 * _QUADS)
    shown = np.arange(4 * _QUADS - _INT_DIGITS + 1)[:, None, None]
    lead = np.arange(_INT_DIGITS)[None, :, None]
    keep = (places >= lead) & (places < _INT_DIGITS + shown)
    masks = (keep * 0xFF).astype(np.uint8).view(np.uint32).reshape(-1, _QUADS)
    p10 = 10 ** np.arange(19, dtype=np.int64)
    k = np.arange(22)
    cut = np.maximum(k - 8, 0)
    return (quads, masks, p10, 5**k, p10[np.minimum(k, 18)],
            p10[cut], p10[np.maximum(8 - k, 0)], p10[16 - cut])


def _write_quads(value: np.ndarray, out: np.ndarray) -> None:
    """The 2 or 4 groups of 4 decimal digits of ``value``, most significant
    first, into ``out[0]``, ``out[1]``, ..."""
    if len(out) == 4:
        high = value // 10**8
        _write_quads(high, out[:2])
        _write_quads(value - high * 10**8, out[2:])
    else:
        np.floor_divide(value, 10**4, out=out[0])
        np.subtract(value, out[0] * 10**4, out=out[1])


class ReprWriter:
    """Writes ``repr`` fields of arrays whose rows hold at most ``row_size``
    floats, ``PASS_VALUES`` floats or one row at a time, into scratch kept
    between passes."""

    def __init__(self, row_size: int):
        self._rows = max(1, PASS_VALUES // row_size)
        size = self._rows * row_size
        self._quads = np.empty((_QUADS, size), np.int64)
        self._columns = np.empty((_QUADS, size), np.uint32)
        self._text = np.empty((size, _QUADS), np.uint32)
        self._masks = np.empty((size, _QUADS), np.uint32)

    def write(self, values: np.ndarray, out: np.ndarray) -> None:
        """Write ``repr(float(v)).encode()`` of each of ``values`` (2-d,
        float64) into the matching row of ``out`` (``uint8``, shape
        ``values.shape + (FIELD_BYTES,)``), padded with 0 bytes that the
        reader is to drop."""
        for lo in range(0, len(values), self._rows):
            self._pass(values[lo : lo + self._rows], out[lo : lo + self._rows])

    def _pass(self, values: np.ndarray, out: np.ndarray) -> None:
        quads, masks, p10, p5, scales, cuts, heads, tails = _tables()
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        shape, size = bits.shape, bits.size
        mag = bits & np.int64(0x7FFF_FFFF_FFFF_FFFF)
        zero = mag == 0
        fast = (mag >= _FIXED_LOW) & (mag < _FIXED_HIGH) & (mag & _MANTISSA != 0)
        mag = np.where(fast, mag, _STAND_IN)

        # x = m 2^q and k = 17 - floor(log10 x), the logarithm one off at
        # worst next to a power of ten; k <= 21, so 5^k < 2^49.
        m = (mag & _MANTISSA) | (1 << 52)
        k = np.minimum(17 - np.floor(np.log10(mag.view(np.float64))).astype(np.int64), 21)
        # N = m 5^k = hi 2^52 + lo from 26-bit halves, lo < 2^53: no
        # partial product reaches 2^63.
        five = np.take(p5, k)
        mh, ml, fh, fl = m >> 26, m & _LOW26, five >> 26, five & _LOW26
        mid = mh * fl + ml * fh
        hi = mh * fh + (mid >> 26)
        lo8 = (((mid & _LOW26) << 26) + ml * fl) << 3
        # With r = 3 - q - k in [0, 49], x 10^k = 8N 2^-r, and the ends of
        # its rounding interval are (8N -+ 4 5^k) 2^-r.  An end, halfway
        # between two floats, has 54 significant bits and so no fewer
        # decimal digits than the shortest point inside, and is farther from
        # x: whether the interval holds its ends (round half to even) never
        # matters here, and it is taken closed.  ``low`` is the integer just
        # below it, ``most`` the last integer in it.
        r = 1078 - (mag >> 52) - k
        top = hi << (55 - r)
        unit = np.int64(1) << r
        floor_x, rem_x = top + (lo8 >> r), lo8 & (unit - 1)
        low = top + ((lo8 - (five << 2) - 1) >> r)
        most = top + ((lo8 + (five << 2)) >> r)

        # j: the largest power of ten with a multiple in [low + 1, most],
        # that is with most // 10^j > low // 10^j.
        j = np.zeros_like(m)
        high, below, wider = most // 10, low // 10, np.empty(shape, bool)
        while np.greater(high, below, out=wider).any():
            j += wider
            high //= 10
            below //= 10
        step = np.take(p10, j)
        rem = floor_x % step
        down = floor_x - rem
        up = down + step
        # The sign of (up - x) - (x - down), times 2^r; its integer part
        # beyond [-1, 2] does not change it.
        lean = np.clip(step - 2 * rem, -1, 2) * unit - 2 * rem_x
        down_in, up_in = down > low, up <= most
        digits = np.where(up_in & (~down_in | (lean < 0)), up, down)
        digits[zero] = 0
        tie = down_in & up_in & (lean == 0)

        # digits 10^-k = whole + frac 10^-k, and the 24 fraction digits are
        # frac 10^(24 - k) = head 10^16 + tail.
        scale = np.take(scales, k)
        whole = np.where(k > 18, 0, digits // scale)
        frac = digits - whole * scale
        cut = np.take(cuts, k)
        high = frac // cut
        quad = self._quads[:, :size].reshape(_QUADS, *shape)
        _write_quads(whole, quad[:4])
        _write_quads(high * np.take(heads, k), quad[4:6])
        _write_quads((frac - high * cut) * np.take(tails, k), quad[6:])
        columns = self._columns[:, :size].reshape(_QUADS, *shape)
        text = self._text[:size].reshape(*shape, _QUADS)
        np.copyto(text, np.moveaxis(np.take(quads, quad, out=columns), 0, -1))
        # Integer digits from the first nonzero one, the units digit always;
        # fraction digits up to the last nonzero one, the first always.
        lead = _INT_DIGITS - 1 - np.searchsorted(p10[1:_INT_DIGITS], whole, side="right")
        shown = np.maximum(k - j, 1)
        shown[zero] = 1
        mask = self._masks[:size].reshape(*shape, _QUADS)
        text &= np.take(masks, _INT_DIGITS * shown + lead, axis=0, out=mask)
        digit_bytes = text.view(np.uint8)

        out[..., 0] = np.where(bits < 0, ord("-"), 0)
        out[..., 1 : _INT_DIGITS + 1] = digit_bytes[..., :_INT_DIGITS]
        out[..., _INT_DIGITS + 1] = ord(".")
        out[..., _INT_DIGITS + 2 :] = digit_bytes[..., _INT_DIGITS:]
        slow = ~(fast | zero) | tie
        if slow.any():
            texts = np.array(list(map(repr, values[slow].tolist())), dtype=f"S{FIELD_BYTES}")
            out[slow] = texts.view(np.uint8).reshape(-1, FIELD_BYTES)
