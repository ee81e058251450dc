"""CSV text of doubles, each written as ``repr(float(x))`` writes it.

``block_bytes`` formats a block of rows at a time with numpy, in scratch
that each call allocates for its own rows, about 125 B per cell.  Its
shortest round-trip digits follow Ryu (U. Adams, PLDI 2018):

- scale |x| to y = |x| 10**k with 17 or 18 digits before the point, and
  the interval of reals that round to x alike;
- take, of the multiples of the largest power of ten inside the interval,
  the one nearest y; its digits, less their trailing zeros, are repr's.

y is held as an integer-valued double p plus a remainder r exact to about
1e-14: a Dekker product of |x| and 10**k, with 10**k as the sum of two
doubles.  k, those doubles and the interval's half-width all follow from
the binary exponent of |x|, so one table row per exponent holds them.  A
cell is certified only if the interval's ends lie more than ``_EPS`` from
an integer, and y more than ``_EPS`` / 2 steps from the midpoint of two
multiples.  Every other cell is written by ``repr`` itself, as is every
cell that is zero, subnormal, not finite or outside [1.01e-28, 9.9e16).

The chosen integer, cut to its first 17 digits S (an 18th is always 0),
becomes Z = S + (9 (S // 10**m) + 1) 10**m: S with a digit 1 put in m
digits from its end.  It stands where the text has its '.' (m = 17 -
decpt, decpt being where repr puts the point), after the first digit in
exponent form (m = 16), or, unshown, ahead of S below 1 (m = 17).  Each
cell is laid out in a fixed field of ``_FIELD`` bytes in which every byte
that is not part of the text is 0 or 1; deleting those bytes leaves the
rows:

- byte 0: '-' for a negative value;
- bytes 1-5: '0.000', the leading zeros of a positional number below 1;
- bytes 6-23: Z's 18 digits as byte values 0-9, from a table of 4-digit
  groups (and of 2 digits for Z's first two);
- bytes 24-27: in exponent form, 'e', the exponent's sign and two digits;
- byte 28: the delimiter after the cell, ',' or newline.

The field starts as the template row for decpt, Z's trailing zeros and the
sign, and Z's digits are added to it: the row holds '0' over each digit the
text shows, '.' less 1 over the digit 1 when the text shows a point, and
NUL elsewhere, so that a digit not shown stays 0 or 1.

The tables are built, and the cells formatted, with few kinds of numpy loop:
float arithmetic and comparisons, boolean and and not, int64 multiply,
add, floor-divide and minimum, uint32 add, casts between float, int64 and
bool, takes and masked puts.  Each other kind maps another 64 kB of numpy's
code into the process, about a third of the scratch itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_FIELD = 32
_DIGITS = 6                  # byte of Z's first digit
_DELIMITER = 28
_EPS = 1e-7                  # certified margin, in units of y's last digit
_LOG10_2 = 0.30102999566398120
_E_MIN, _E_MAX = 930, 1079   # biased binary exponents of [1.01e-28, 9.9e16)
_DECPT_MIN = -28             # decpt, where repr puts the point, is -27 to 18


class _Tables:
    """The formatter's constant tables (about 140 kB)."""

    def __init__(self):
        # Per binary exponent E: k, 10**k as hi + lo (exact since 5**44 <
        # 2**103), hi split into 26-bit halves (Veltkamp), half an ulp of a
        # double times hi, and 2**(E - 1023), the power of two below.
        e = range(_E_MIN - 1023, _E_MAX + 1 - 1023)
        k = [16 - math.floor(j * _LOG10_2) for j in e]
        exact = [10 ** j for j in k]
        hi = np.array([float(p) for p in exact])
        head = _split_head(hi)
        power_of_2 = np.array([math.ldexp(1.0, j) for j in e])
        self.ten_k = np.stack([hi, head, hi - head, [float(p - int(float(p))) for p in exact]],
                              axis=1)
        self.gap = np.stack([power_of_2 * 2.0 ** -53 * hi, power_of_2], axis=1)
        # decpt - _DECPT_MIN for 17 digits before the point: 17 - k.
        self.decpt_index = np.array([17 - _DECPT_MIN - j for j in k])
        # Factors for the multiples of 100 and of 10 at or below an integer.
        self.tenths, self.tens = np.array([[0.01], [0.1]]), np.array([[100.0], [10.0]])
        # 10**m for the point m digits from the end, by decpt: 17 - decpt
        # for a positional number, 17 (the point before S) below 1 and 16
        # (after S's first digit) in exponent form.
        self.point = np.array([10 ** (17 - d if 0 < d < 17 else 17 if -4 < d < 1 else 16)
                               for d in range(_DECPT_MIN, 19)], dtype=np.int64)
        # The digits of 0..9999 as byte values in a 4-byte word, and above it
        # twice the group's trailing zeros (of 99 for 0), then 10000 + t:
        # the two digits of t < 100 in the word's last bytes.
        digit = np.arange(10, dtype=np.uint8)
        groups = np.zeros((10100, 8), np.uint8)
        groups[:10000, :4] = np.stack([np.repeat(digit, 1000), np.tile(np.repeat(digit, 100), 10),
                                       np.tile(np.repeat(digit, 10), 100), np.tile(digit, 1000)],
                                      axis=1)
        groups[10000:, 2:4] = groups[:100, 2:4]
        for zeros in range(4):
            groups[:10000:10 ** zeros, 4] = 2 * zeros
        groups[0, 4] = 2 * 99
        self.groups = groups.view("<i8").ravel()
        # Template row 2 (17 (decpt - _DECPT_MIN) + t) + 1 if negative, where
        # Z's last nonzero digit is 17 - t.  The point is always shown in a
        # positional number, and in exponent form only before a further digit.
        rows = []
        for decpt in range(_DECPT_MIN, 19):
            head, tail = bytes(_DIGITS), bytes(_FIELD - _DIGITS - 18)
            if decpt < -3 or decpt > 16:
                tail = b"e%+03d" % (decpt - 1) + tail[4:]
            elif decpt < 1:
                head = bytes(1) + b"0." + b"0" * -decpt + head[3 - decpt:]
            for last in range(17, 0, -1):
                if decpt < -3 or decpt > 16:
                    first, point, shown = 0, 1, last > 1
                elif decpt < 1:
                    first, point, shown = 1, 0, False
                else:
                    first, point, shown, last = 0, decpt, True, max(last, decpt + 1)
                digits = bytearray(bytes(first) + b"0" * (last + 1 - first) + bytes(17 - last))
                digits[point] = ord(".") - 1 if shown else 0
                rows.append(head + digits + tail)
        template = np.frombuffer(b"".join(rows), np.uint8).reshape(-1, _FIELD).repeat(2, axis=0)
        template[1::2, 0] = ord("-")
        self.template = template


def _split_head(v):
    """The high 26 bits of each double in ``v`` (Veltkamp's split)."""
    t = v * 134217729.0
    return t - (t - v)


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def block_bytes(block: np.ndarray) -> bytearray:
    """The CSV rows of ``block``, a C-contiguous (rows, ncols) float array."""
    t = _tables()
    x = block.ravel()
    n = x.size
    # Eleven rows of 8-byte scratch, each read as float or int by stage,
    # and four of flags.
    f = np.empty((11, n))
    i = f.view(np.int64)
    flags = np.empty((4, n), bool)
    ok, b1 = flags[:2]

    # a = |x|; a cell outside the certified range (NaN compares false) is
    # computed as 1.0 and then written by repr.  Its binary exponent picks
    # its row of the tables, and k puts y = a 10**k in [1e16, 2e17).
    decpt, row, a = i[0], i[1], f[2]
    np.abs(x, out=a)
    np.greater_equal(a, 1.01e-28, out=ok)
    ok &= np.less(a, 9.9e16, out=b1)
    np.putmask(a, np.logical_not(ok, out=b1), 1.0)
    np.floor_divide(a.view(np.int64), 1 << 52, out=row)
    row += -_E_MIN
    ten_k = t.ten_k.take(row, axis=0, out=f[7:].reshape(n, 4), mode="clip")
    hi, hi_head, hi_tail, lo = ten_k.T

    # y = p + r.  p = fl(a hi) is an integer, as y > 2**53.  r = a hi - p,
    # exact by Dekker's product of a and hi split into heads and tails,
    # plus a lo.
    p, a_head, a_tail, r, product = f[3], f[4], f[5], f[6], f[0]
    np.multiply(a, hi, out=p)
    np.multiply(a, 134217729.0, out=a_head)
    np.subtract(a_head, np.subtract(a_head, a, out=a_tail), out=a_head)
    np.subtract(a, a_head, out=a_tail)
    np.multiply(a_head, hi_head, out=r)
    r -= p
    r += np.multiply(a_tail, hi_head, out=product)
    r += np.multiply(a_head, hi_tail, out=product)
    r += np.multiply(a_tail, hi_tail, out=product)
    r += np.multiply(a, lo, out=product)

    # The interval's ends relative to p: half the gap to the next double
    # above, and below (a quarter of that gap at a power of two), scaled.
    # Its last and first integers must be clear of the ends by _EPS.
    half_gap, power_of_2 = t.gap.take(row, axis=0, out=f[7:9].reshape(n, 2),
                                      mode="clip").T
    t.decpt_index.take(row, out=decpt, mode="clip")
    up, down, last, first, product = f[4], f[5], f[2], f[1], f[9]
    at_power_of_2 = np.equal(a, power_of_2, out=b1)
    np.copyto(down, half_gap)
    np.putmask(down, at_power_of_2, np.multiply(down, 0.5, out=product))
    np.add(r, half_gap, out=up)
    np.subtract(r, down, out=down)
    np.floor(np.subtract(up, _EPS, out=last), out=last)
    ok &= np.less(np.subtract(up, last, out=up), 1.0 - _EPS, out=b1)
    np.ceil(np.add(down, _EPS, out=first), out=first)
    ok &= np.less(np.subtract(first, down, out=down), 1.0 - _EPS, out=b1)

    # Go on relative to the multiple of 100 at or below p, in small exact
    # doubles.  The step is the largest of 100, 10 and 1 with a multiple
    # inside the interval; as the interval is 1.1 to 45 wide, one of 100
    # is the only one and has the most trailing zeros of any integer in
    # it.  The choice is the multiple of the step nearest y, or, outside,
    # the one beside it inside.  y within _EPS / 2 steps of the midpoint
    # of two multiples is a tie, left to repr.
    whole, hundreds, base = i[4], i[5], f[3]
    np.copyto(whole, p, casting="unsafe")
    np.floor_divide(whole, 100, out=hundreds)
    np.copyto(base, np.add(whole, np.multiply(hundreds, -100, out=i[7]), out=whole))
    last += base
    first += base
    y = np.add(r, base, out=r)
    step, chosen, low, high = f[3], f[4], f[8], f[9]
    multiples = f[8:10]
    np.floor(np.multiply(last, t.tenths, out=multiples), out=multiples)
    has100, has10 = np.greater_equal(np.multiply(multiples, t.tens, out=multiples), first,
                                     out=flags[2:])
    step[...] = 1.0
    np.putmask(step, has10, 10.0)
    np.putmask(step, has100, 100.0)
    np.multiply(np.ceil(np.divide(first, step, out=low), out=low), step, out=low)
    np.multiply(np.floor(np.divide(last, step, out=high), out=high), step, out=high)
    half_up = np.add(np.divide(y, step, out=y), 0.5, out=y)
    np.floor(half_up, out=chosen)
    off_midpoint = np.subtract(np.subtract(half_up, chosen, out=last), 0.5, out=last)
    ok &= np.less(np.abs(off_midpoint, out=last), 0.5 - _EPS / 2, out=b1)
    chosen *= step
    np.minimum(np.maximum(chosen, low, out=chosen), high, out=chosen)

    # The chosen integer has 17 digits or, past 1e17, 18 of which the last
    # is 0 (the interval is then over 11 wide), which S drops.  Z as above.
    s, tens, long, point = i[1], i[3], i[5], i[6]
    np.copyto(s, chosen, casting="unsafe")
    s += np.multiply(hundreds, 100, out=i[7])
    np.floor_divide(s, 10 ** 17, out=long)
    decpt += long
    np.floor_divide(s, 10, out=tens)
    s += np.multiply(np.subtract(tens, s, out=tens), long, out=tens)
    t.point.take(decpt, out=point, mode="clip")
    z = np.floor_divide(s, point, out=tens)
    np.add(np.multiply(z, 9, out=z), 1, out=z)
    z *= point
    z += s

    # Z's digits as 4-digit groups: 10000 + its first two, then four.
    # Its trailing zeros t are those of the last group not all zero, at
    # most 16 (the digit 1 at the point, or Z's second digit, is not 0).
    # A group's table entry holds its own 2 t above its digit word, so
    # Z's 2 t is the high word of the least entry, each raised by 8 for
    # every group after it.
    groups, halves = i[6:11], i[4:6]
    np.floor_divide(z, 10 ** 8, out=halves[0])
    np.add(z, np.multiply(halves[0], -10 ** 8, out=halves[1]), out=halves[1])
    np.floor_divide(halves, 10 ** 4, out=groups[1::2])
    np.add(halves, np.multiply(groups[1::2], -10 ** 4, out=groups[2::2]), out=groups[2::2])
    np.floor_divide(groups[1], 10 ** 4, out=groups[0])
    groups[1] += np.multiply(groups[0], -10 ** 4, out=i[2])
    groups[0] += 10000
    digits, index = t.groups.take(groups, out=i[1:6], mode="clip"), i[6]
    np.minimum(digits[4], 32 << 32, out=index)
    for shift, group in zip((8, 16, 24), digits[3:0:-1]):
        np.minimum(index, np.add(group, shift << 32, out=group), out=index)
    np.floor_divide(index, 1 << 32, out=index)
    index += np.multiply(decpt, 34, out=decpt)
    index += np.signbit(x, out=b1)

    buffer = bytearray(n * _FIELD)
    fields = np.frombuffer(buffer, np.uint8).reshape(n, _FIELD)
    t.template.take(index, axis=0, out=fields, mode="clip")
    words = fields.view("<u4")
    for w, digit_word in enumerate(digits.view(np.uint32)[:, ::2], 1):
        words[:, w] += digit_word
    fallback = np.flatnonzero(np.logical_not(ok, out=b1))
    if fallback.size:
        # repr of a list of floats is the repr of each joined by ", ".
        reprs = repr(x[fallback].tolist())[1:-1].split(", ")
        fields[fallback, :_DELIMITER] = np.array(reprs, dtype=f"S{_DELIMITER}").view(
            np.uint8).reshape(-1, _DELIMITER)
    delimiters = fields[:, _DELIMITER].reshape(block.shape)
    delimiters[:, :-1] = ord(",")
    delimiters[:, -1] = ord("\n")
    return buffer.translate(None, b"\0\1")
