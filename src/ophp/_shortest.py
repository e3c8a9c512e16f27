"""Python's ``repr`` of many floats at once, as byte fields sized to their pass.

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

A pass of floats is written at the width it needs: a sign byte if one of
them is negative, as many integer digits as its widest integer part, the
point, as many fraction digits as its longest shown fraction, and no fewer
bytes than its longest ``repr`` text.  Only the groups of 4 digits that
hold those digits are formed.
"""

from __future__ import annotations

import functools

import numpy as np

# The widest field: a sign, 16 integer digits, the point and 24 fraction
# digits.  The longest ``repr`` of a float has 24 bytes.
FIELD_BYTES = 42
_INT_DIGITS = 16
_INT_QUADS = 4  # groups of 4 digits before the point
_QUADS = 10  # groups of 4 digits in the widest field
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
    lead]``, 0xFF on the digit bytes of a widest field whose integer digits
    start at ``lead`` and that shows ``shown`` fraction digits; 10^0..10^18;
    and, indexed by k: the 26-bit halves of 5^k and 4 5^k; 10^k up to
    k = 18, beyond it a divisor above every digits value, so that their
    integer part is 0; and the divisor and the two multipliers that write a
    fraction of k digits as 8 and 16 digits.  Built on first use, so a
    process that writes no sample does not pay for them."""
    quads = np.frombuffer("".join(map("{:04d}".format, range(10_000))).encode(), np.uint32)
    places = np.arange(4 * _QUADS)
    shown = np.arange(4 * _QUADS - _INT_DIGITS + 1)[:, None, None]
    lead = np.arange(_INT_DIGITS)[None, :, None]
    keep = (places >= lead) & (places < _INT_DIGITS + shown)
    masks = (keep * 0xFF).astype(np.uint8).view(np.uint32).reshape(-1, _QUADS)
    p10 = 10 ** np.arange(19, dtype=np.int64)
    k = np.arange(22)
    cut = np.maximum(k - 8, 0)
    five = 5**k
    scales = np.where(k > 18, 4 * p10[18], p10[np.minimum(k, 18)])
    return (quads, masks, p10, five >> 26, five & _LOW26, five << 2, scales,
            p10[cut], p10[np.maximum(8 - k, 0)], p10[16 - cut])


def _split(value: np.ndarray, out: np.ndarray) -> None:
    """The groups of 4 decimal digits of ``value`` (below ``10^(4 g)`` for
    ``g = out.shape[1]``, at most 4), most significant first, into
    ``out[:, 0]``, ``out[:, 1]``, ..."""
    groups = out.shape[1]
    if groups == 1:
        np.copyto(out[:, 0], value)
    elif groups == 2:
        high = np.floor_divide(value, 10**4, out=out[:, 0])
        np.subtract(value, high * 10**4, out=out[:, 1])
    else:
        high = value // 10**8
        _split(high, out[:, :-2])
        _split(value - high * 10**8, out[:, -2:])


class ReprWriter:
    """Writes ``repr`` fields of a few 2-d arrays of floats, each array at
    the width its passes need.

    :meth:`convert` finds the digits of the arrays and returns the width of
    each array's fields, so that the caller can lay out where they go;
    :meth:`write` then writes them there.  Their digits are kept between
    the two calls for up to ``size`` floats, and a pass's scratch for
    ``PASS_VALUES`` floats or one row of ``row_size`` floats.
    """

    def __init__(self, size: int, row_size: int):
        self._whole = np.empty(size, np.int64)
        self._head = np.empty(size, np.int64)  # fraction digits 1..8
        self._tail = np.empty(size, np.int64)  # fraction digits 9..24
        self._shown = np.empty(size, np.int64)
        self._negative = np.empty(size, bool)
        self._slow = np.empty(size, bool)
        scratch = max(PASS_VALUES, row_size) * _QUADS
        self._quads = np.empty(scratch, np.int64)
        self._text = np.empty(scratch, np.uint32)
        self._masks = np.empty(scratch, np.uint32)
        self._passes: list[tuple] = []

    def convert(self, arrays) -> list[int]:
        """Find the digits of every float of ``arrays`` (2-d, float64, at
        most ``size`` floats in all), ``PASS_VALUES`` floats or one row at
        a time, and return the field width of each array: the widest of
        its passes."""
        self._passes, widths, start = [], [], 0
        for index, values in enumerate(arrays):
            step = max(1, PASS_VALUES // values.shape[1])
            width = 0
            for lo in range(0, len(values), step):
                rows = slice(lo, lo + step)
                layout = self._digits(values[rows], start)
                self._passes.append((index, rows, start, layout))
                start += values[rows].size
                width = max(width, layout[-1])
            widths.append(width)
        return widths

    def write(self, outs) -> None:
        """Write ``repr(float(v)).encode()`` of each float of the arrays
        last converted into the matching row of ``outs`` (``uint8``, each
        of shape ``values.shape + (width,)`` with that array's width),
        padded with 0 bytes that the reader is to drop."""
        for index, rows, start, layout in self._passes:
            self._render(outs[index][rows], start, *layout)

    def _digits(self, values: np.ndarray, start: int) -> tuple:
        """Keep the digits of one pass at ``start`` and return its layout:
        the sign bytes, integer and fraction digits, ``repr`` texts and
        their places, and its width."""
        _, _, p10, five_high, five_low, quad_five, scales, cuts, heads, tails = _tables()
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        stop = start + bits.size
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
        mh, ml, fh, fl = m >> 26, m & _LOW26, np.take(five_high, k), np.take(five_low, k)
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
        half = np.take(quad_five, k)
        low = top + ((lo8 - half - 1) >> r)
        most = top + ((lo8 + half) >> r)

        # j: the largest power of ten with a multiple in [low + 1, most],
        # that is with most // 10^j > low // 10^j.
        j = np.zeros_like(m)
        high, below, wider = most // 10, low // 10, np.empty(bits.shape, bool)
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
        lean = step - 2 * rem
        np.maximum(np.minimum(lean, 2, out=lean), -1, out=lean)
        lean *= unit
        lean -= 2 * rem_x
        down_in, up_in = down > low, up <= most
        digits = np.where(up_in & (~down_in | (lean < 0)), up, down)
        digits[zero] = 0
        slow = self._slow[start:stop].reshape(bits.shape)
        np.logical_or(~(fast | zero), down_in & up_in & (lean == 0), out=slow)

        # digits 10^-k = whole + frac 10^-k, and the 24 fraction digits are
        # frac 10^(24 - k) = head 10^16 + tail.  Integer digits from the
        # first nonzero one, the units digit always; fraction digits up to
        # the last nonzero one, the first always.
        scale = np.take(scales, k)
        whole = self._whole[start:stop].reshape(bits.shape)
        np.floor_divide(digits, scale, out=whole)
        frac = digits - whole * scale
        cut = np.take(cuts, k)
        high = frac // cut
        np.multiply(high, np.take(heads, k), out=self._head[start:stop].reshape(bits.shape))
        tail = self._tail[start:stop].reshape(bits.shape)
        np.multiply(frac - high * cut, np.take(tails, k), out=tail)
        shown = self._shown[start:stop].reshape(bits.shape)
        np.maximum(k - j, 1, out=shown)
        shown[zero] = 1
        negative = self._negative[start:stop].reshape(bits.shape)
        np.less(bits, 0, out=negative)

        texts, width = None, 0
        if slow.any():
            whole[slow] = 0
            shown[slow] = 1
            texts = np.array(list(map(repr, values[slow].tolist())), dtype=bytes)
            width = texts.itemsize
        sign = int(negative.any())
        int_digits = 1 + int(np.searchsorted(p10[1:_INT_DIGITS], whole.max(), side="right"))
        frac_digits = int(shown.max())
        width = max(width, sign + int_digits + 1 + frac_digits)
        return sign, int_digits, frac_digits, texts, width

    def _render(self, out: np.ndarray, start: int, sign: int, int_digits: int,
                frac_digits: int, texts: np.ndarray | None, width: int) -> None:
        """Write the fields of one pass, kept at ``start``, into ``out``."""
        quads, masks, p10 = _tables()[:3]
        shape = out.shape[:-1]
        size = shape[0] * shape[1]
        stop = start + size
        whole, head, tail, shown = (a[start:stop] for a in
                                    (self._whole, self._head, self._tail, self._shown))
        ints, fracs = -(-int_digits // 4), -(-frac_digits // 4)
        groups = ints + fracs

        # The groups in row order: the integer part's last ``ints``, then
        # the first ``fracs`` of the fraction's 6.
        values = self._quads[: size * groups].reshape(size, groups)
        _split(whole, values[:, :ints])
        if fracs == 1:
            np.floor_divide(head, 10**4, out=values[:, ints])
        else:
            _split(head, values[:, ints : ints + 2])
        if fracs > 2:
            _split(tail // 10 ** (4 * (6 - fracs)), values[:, ints + 2 :])
        text = self._text[: size * groups].reshape(size, groups)
        np.take(quads, values, out=text)
        # masks[16 * shown + lead], lead = 16 - (digits of whole).
        index = _INT_DIGITS * shown + (_INT_DIGITS - 1)
        if int_digits > 1:
            index -= np.searchsorted(p10[1:int_digits], whole, side="right")
        mask = self._masks[: size * groups].reshape(size, groups)
        table = masks[:, _INT_QUADS - ints : _INT_QUADS + fracs]
        text &= np.take(table, index, axis=0, out=mask)
        digit_bytes = text.view(np.uint8).reshape(*shape, 4 * groups)

        point = sign + int_digits
        if sign:
            np.multiply(self._negative[start:stop].reshape(shape), np.uint8(ord("-")),
                        out=out[..., 0])
        out[..., sign:point] = digit_bytes[..., 4 * ints - int_digits : 4 * ints]
        out[..., point] = ord(".")
        end = point + 1 + frac_digits
        out[..., point + 1 : end] = digit_bytes[..., 4 * ints : 4 * ints + frac_digits]
        out[..., end:] = 0
        if texts is not None:
            slow = self._slow[start:stop].reshape(shape)
            fields = np.zeros((len(texts), out.shape[-1]), np.uint8)
            fields[:, : texts.itemsize] = texts.view(np.uint8).reshape(len(texts), -1)
            out[slow] = fields
