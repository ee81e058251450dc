"""CSV text of doubles, each written as ``repr(float(x))`` writes it.

``BlockText`` formats a block of rows at a time with numpy, in scratch that
every block of one file reuses, about 130 B per cell.  Its shortest
round-trip digits follow Ryu (U. Adams, PLDI 2018):

- scale |x| to y = |x| 10**k with 17 or 18 digits before the point, and
  the interval of reals that round to x alike;
- take, of the multiples of the largest power of ten inside the interval,
  the one nearest y; its digits, less their trailing zeros, are repr's.

y is held as an integer-valued double p plus a remainder r exact to about
1e-14: a Dekker product of |x| and 10**k, with 10**k as the sum of two
doubles.  A cell is certified only if the interval's ends and, when two
multiples are inside, their midpoint lie more than ``_EPS`` from an integer
or from y.  Every other cell is written by ``repr`` itself, as is every
cell that is zero, subnormal, not finite or outside [1.01e-28, 9.9e16).

Each cell is laid out in a fixed field of ``_FIELD`` bytes in which every
byte that is not part of the text is NUL; deleting the NULs leaves the rows.
The field, as 12 little-endian 4-byte words:

- word 0: the delimiter before the cell (',' or newline, none before a
  block's first cell), two NULs, then '-' for a negative value;
- words 1-4: the integer digits, right-aligned (one digit in exponent form);
- word 5: three NULs, then '.';
- words 6-10: the fraction digits, right-aligned, with their leading zeros;
- word 11: in exponent form, 'e', the exponent's sign and its two digits.

The digits come from a table of 4-digit groups as byte values 0-9.  The
template row for the cell's (integer digits, fraction digits) adds '0' to
the digit bytes the text shows and puts the '.', so a digit byte it does not
show stays NUL.

The tables are built, and the cells formatted, with few kinds of numpy loop:
float arithmetic and comparisons, int64 multiply, add, negate and divide,
casts between the two, takes and masked copies.  Each other kind maps
another 64 kB of numpy's code into the process, as much as the scratch
itself.
"""

from __future__ import annotations

import functools

import numpy as np

_FIELD = 48
_INT_END = 20                # one past the last integer digit
_DOT = 23
_FRAC_END = 44               # one past the last fraction digit
_EPS = 1e-7                  # certified margin, in units of y's last digit
_LOG10_2 = 0.30102999566398120


class _Tables:
    """The formatter's constant tables (about 80 kB)."""

    def __init__(self):
        # 10**k for k = 0..44 as the sum hi + lo of two doubles, exact since
        # 5**44 < 2**103, and hi split into two 26-bit halves (Veltkamp).
        exact = [10 ** k for k in range(45)]
        self.hi = np.array([float(p) for p in exact])
        self.lo = np.array([float(p - int(float(p))) for p in exact])
        self.hi_head = _split_head(self.hi)
        self.hi_tail = self.hi - self.hi_head
        # Half an ulp of a double, by its exponent bits (1 to 2046).
        self.half_ulp = np.multiply(np.arange(2048), 1 << 52).view(np.float64) * 2.0 ** -53
        # 10**min(s, 18) for s = 0..20, as a divisor or a factor.
        self.pow10 = np.array([10 ** min(s, 18) for s in range(21)], dtype=np.int64)
        # The digits of 0..9999 as byte values, one 4-byte word each.
        digit = np.arange(10, dtype=np.uint8)
        self.groups = np.stack([np.repeat(digit, 1000), np.tile(np.repeat(digit, 100), 10),
                                np.tile(np.repeat(digit, 10), 100), np.tile(digit, 1000)],
                               axis=1).view("<u4").ravel()
        # Word 11 by decimal-point position + 64: repr's exponent form is
        # for positions below -3 or above 16; the others have none.
        self.exponent = np.frombuffer(b"".join(
            b"e%+03d" % (decpt - 1) if decpt < -3 or decpt > 16 else bytes(4)
            for decpt in range(-64, 64)), np.uint8).view("<u4")
        # Template row 21 n_int + n_frac.  n_int = 0 is the exponent form,
        # whose integer is one digit and which has no '.' without a fraction;
        # a positional number shows at least one digit either side.
        ints = [bytes(_INT_END - m) + b"0" * m for m in [1, *range(1, 17)]]
        fracs = [[bytes(_DOT - _INT_END) + (b"." if m or positional else b"\0")
                  + bytes(_FRAC_END - _DOT - 1 - m) + b"0" * m + bytes(_FIELD - _FRAC_END)
                  for m in ([max(n, 1) for n in range(21)] if positional else range(21))]
                 for positional in (False, True)]
        self.template = np.frombuffer(b"".join(
            int_part + frac_part for n_int, int_part in enumerate(ints)
            for frac_part in fracs[n_int > 0]), np.uint8).reshape(-1, _FIELD)


def _split_head(v, out=None):
    """The high 26 bits of each double in ``v`` (Veltkamp's split)."""
    t = np.multiply(v, 134217729.0, out=out)
    return np.subtract(t, np.subtract(t, v), out=t)


@functools.cache
def _tables() -> _Tables:
    return _Tables()


class BlockText:
    """The CSV text of blocks of rows of ``ncols`` doubles.

    Its scratch is sized by the largest block formatted so far, so a file
    that ends within its first block holds scratch for its own rows only.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = 0

    def _allocate(self, rows: int):
        cells = rows * self.ncols
        self.rows = rows
        # One field more, for the '\n' that ends the last row.
        self.buffer = bytearray((cells + 1) * _FIELD)
        self.fields = np.frombuffer(self.buffer, np.uint8).reshape(cells + 1, _FIELD)
        self.delimiters = np.tile(np.frombuffer(b"\n" + b"," * (self.ncols - 1), np.uint8),
                                  rows)
        self.delimiters[0] = 0
        # Nine rows of 8-byte scratch, each read as float or int by stage,
        # and six of flags.
        self.scratch = np.empty((9, cells))
        self.flags = np.empty((6, cells), bool)

    def text(self, block: np.ndarray) -> str:
        """The CSV rows of ``block``, a C-contiguous (rows, ncols) float array."""
        if len(block) > self.rows:
            self._allocate(len(block))
        t = _tables()
        x = block.ravel()
        n = x.size
        f = self.scratch[:, :n]
        i = f.view(np.int64)
        ok, b1, b2, b3, b4, b5 = self.flags[:, :n]

        # a = |x|; a cell outside the certified range (NaN compares false) is
        # computed as 1.0 and then written by repr.  Its scale k = 16 -
        # floor(e log10 2), e its binary exponent, puts y = a 10**k in
        # [1e16, 2e17) and k in 0..44.
        a, k = f[0], i[1]
        np.abs(x, out=a)
        np.greater_equal(a, 1.01e-28, out=ok)
        ok &= np.less(a, 9.9e16, out=b1)
        np.copyto(a, 1.0, where=np.logical_not(ok, out=b1))
        bits, exponent, scale = a.view(np.int64), i[8], f[2]
        np.copyto(scale, np.floor_divide(bits, 1 << 52, out=exponent))
        np.floor(np.multiply(np.subtract(scale, 1023.0, out=scale), _LOG10_2, out=scale),
                 out=scale)
        np.copyto(k, np.subtract(16.0, scale, out=scale), casting="unsafe")

        # y = p + r.  p = fl(a hi) is an integer, as y > 2**53.  r = a hi - p,
        # exact by Dekker's product of a and hi split into heads and tails,
        # plus a lo.
        p, a_head, a_tail, hi_part, r, product = f[3], f[4], f[5], f[2], f[6], f[7]
        np.multiply(a, np.take(t.hi, k, out=hi_part), out=p)
        _split_head(a, out=a_head)
        np.subtract(a, a_head, out=a_tail)
        np.take(t.hi_head, k, out=hi_part)
        np.multiply(a_head, hi_part, out=r)
        r -= p
        r += np.multiply(a_tail, hi_part, out=product)
        np.take(t.hi_tail, k, out=hi_part)
        r += np.multiply(a_head, hi_part, out=product)
        r += np.multiply(a_tail, hi_part, out=product)
        r += np.multiply(a, np.take(t.lo, k, out=hi_part), out=product)

        # The interval's ends relative to p: half the gap to the next double
        # above, and below (a quarter of that gap at a power of two), scaled.
        # Its last and first integers must be clear of the ends by _EPS.
        up, down, last, first, hi_part = f[4], f[5], f[2], f[7], f[2]
        np.take(t.half_ulp, exponent, out=up)
        at_power_of_2 = np.equal(a, np.multiply(up, 2.0 ** 53, out=down), out=b1)
        up *= np.take(t.hi, k, out=hi_part)
        np.copyto(down, up)
        np.copyto(down, np.multiply(up, 0.5, out=f[7]), where=at_power_of_2)
        up += r
        np.subtract(r, down, out=down)
        np.floor(np.subtract(up, _EPS, out=last), out=last)
        ok &= np.equal(np.floor(np.add(up, _EPS, out=up), out=up), last, out=b1)
        np.ceil(np.add(down, _EPS, out=first), out=first)
        ok &= np.equal(np.ceil(np.subtract(down, _EPS, out=down), out=down), first, out=b1)

        # Go on relative to the multiple of 100 at or below p, in small exact
        # doubles.  The interval is 1.1 to 45 wide: it holds at most one
        # multiple of 100, which has the most trailing zeros of any integer
        # in it; failing that, the nearer of the multiples of 10 (or of 1)
        # either side of y that lie inside.  over17 + the choice is the
        # chosen integer less 1e17, exact where its sign is in doubt.
        whole, hundreds, base, over17 = i[0], i[4], f[5], p
        np.copyto(whole, p, casting="unsafe")
        np.floor_divide(whole, 100, out=hundreds)
        np.copyto(base, np.add(whole, np.multiply(hundreds, -100, out=i[8]), out=whole))
        over17 -= 1e17
        over17 -= base
        last += base
        first += base
        y = np.add(r, base, out=r)
        m100, step, below, above = f[0], f[5], f[8], f[7]
        np.multiply(np.floor(np.multiply(last, 0.01, out=m100), out=m100), 100.0, out=m100)
        has100 = np.greater_equal(m100, first, out=b2)
        np.multiply(np.floor(np.multiply(last, 0.1, out=step), out=step), 10.0, out=step)
        has10 = np.greater_equal(step, first, out=b3)
        step[...] = 1.0
        np.copyto(step, 10.0, where=has10)
        excess = np.divide(y, step, out=y)        # > 0 below: the multiple above is nearer
        np.floor(excess, out=below)
        np.subtract(np.multiply(np.subtract(excess, below, out=excess), 2.0, out=excess), 1.0,
                    out=excess)
        below *= step
        below_in = np.greater_equal(below, first, out=b1)
        above_in = np.less_equal(np.add(below, step, out=above), last, out=b4)
        tie = np.less_equal(np.abs(excess, out=last), _EPS, out=b5)
        tie &= below_in
        tie &= above_in
        ok &= np.logical_not(tie, out=tie)
        go_up = np.less(excess, 0.0, out=b5)
        go_up &= below_in
        np.logical_not(go_up, out=go_up)
        go_up &= above_in
        chosen = below
        np.copyto(chosen, above, where=go_up)
        np.copyto(chosen, m100, where=has100)

        # digits = 100 hundreds + chosen has n_digits = 17 or 18 digits (no
        # fewer: 10**16 is inside whenever anything below it is); decpt =
        # n_digits - k is where repr puts the point.  Its trailing zeros: 1
        # after a multiple of 10, 2 plus those of digits / 100 (< 2**53, so
        # exact as a double) after one of 100.  All of these are doubles.
        digits, n_digits, decpt = i[7], f[3], f[1]
        np.copyto(digits, chosen, casting="unsafe")
        digits += np.multiply(hundreds, 100, out=i[2])
        np.greater_equal(np.add(over17, chosen, out=over17), 0.0, out=b1)
        n_digits[...] = 17.0
        np.copyto(n_digits, 18.0, where=b1)
        np.copyto(f[2], k)
        np.subtract(n_digits, f[2], out=decpt)
        v, quotient, kept, zeros = f[2], f[4], f[5], f[0]
        np.copyto(v, hundreds)
        v += np.multiply(m100, 0.01, out=m100)
        np.copyto(v, 0.5, where=np.logical_not(has100, out=b1))   # 0.5: no zeros
        zeros[...] = 2.0
        for s in (8, 4, 2, 1):
            np.floor(np.divide(v, 10.0 ** s, out=quotient), out=kept)
            exact = np.equal(kept, quotient, out=b1)
            np.copyto(v, kept, where=exact)
            np.copyto(zeros, np.add(zeros, s, out=kept), where=exact)
        stripped = f[6]
        stripped[...] = 0.0
        np.copyto(stripped, 1.0, where=has10)
        np.copyto(stripped, zeros, where=has100)
        n_digits -= stripped
        np.copyto(i[5], stripped, casting="unsafe")
        digits //= np.take(t.pow10, i[5], out=i[4])
        np.copyto(digits, 0, where=np.logical_not(ok, out=b1))   # a cell left to repr

        # The integer and fraction parts as repr lays them out: exponent form
        # for decpt below -3 or above 16, else positional.
        exp_form = np.logical_or(np.less(decpt, -3.0, out=b1), np.greater(decpt, 16.0, out=b4),
                                 out=b1)
        n_frac, n_int, index = f[0], f[2], i[5]
        np.maximum(np.subtract(n_digits, decpt, out=n_frac), 0.0, out=n_frac)
        np.copyto(n_frac, np.subtract(n_digits, 1.0, out=n_int), where=exp_form)
        np.maximum(decpt, 1.0, out=n_int)
        np.copyto(n_int, 0.0, where=exp_form)
        np.copyto(index, np.add(np.multiply(n_int, 21.0, out=n_int), n_frac, out=n_int),
                  casting="unsafe")
        fields = self.fields[:n]
        np.take(t.template, index, axis=0, out=fields, mode="clip")
        words = fields.view("<u4")
        np.copyto(index, np.add(decpt, 64.0, out=n_int), casting="unsafe")
        np.take(t.exponent, index, out=words[:, 11], mode="clip")
        parts, divisor = i[6:8], i[4]
        np.copyto(index, n_frac, casting="unsafe")
        np.take(t.pow10, index, out=divisor, mode="clip")
        np.floor_divide(digits, divisor, out=parts[0])
        digits += np.multiply(parts[0], np.negative(divisor, out=divisor), out=divisor)  # parts[1]
        np.maximum(np.subtract(decpt, n_digits, out=n_int), 0.0, out=n_int)
        np.copyto(n_int, 0.0, where=exp_form)
        np.copyto(index, n_int, casting="unsafe")
        parts[0] *= np.take(t.pow10, index, out=divisor, mode="clip")

        # Four digits a step, last first: words 4 to 1 and 10 to 6 together.
        quotients, groups = i[2:4], i[4:6]
        group_words = f[0].view(np.uint32).reshape(2, n)
        for w in range(5):
            np.floor_divide(parts, 10000, out=quotients)
            np.add(parts, np.multiply(quotients, -10000, out=groups), out=groups)
            target = words[:, 4 - w:11 - w:6].T
            target += np.take(t.groups, groups, out=group_words)
            parts, quotients = quotients, parts
        np.copyto(fields[:, 3], ord("-"), where=np.signbit(x, out=b1))
        fallback = np.flatnonzero(np.logical_not(ok, out=b1))
        if fallback.size:
            # repr of a list of floats is the repr of each joined by ", ".
            reprs = repr(x[fallback].tolist())[1:-1].split(", ")
            fields[fallback, 1:] = np.array(reprs, dtype=f"S{_FIELD - 1}").view(
                np.uint8).reshape(-1, _FIELD - 1)

        fields[:, 0] = self.delimiters[:n]
        # The '\n' that ends the last row, then NULs in the fields this block
        # leaves unused, so that the whole buffer is translated, not a copy.
        self.fields[n:] = 0
        self.fields[n, 0] = ord("\n")
        return self.buffer.translate(None, b"\0").decode("ascii")
