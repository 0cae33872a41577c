"""JSON encoding conventions shared by the CLI and the report types.

Integers that fit a double exactly stay JSON numbers; anything bigger is
emitted as a decimal string so downstream consumers never truncate.

``str()`` of an int is quadratic in the number of digits (CPython 3.11).
Above ``DECIMAL_SPLIT_BITS`` the digits are made by binary splitting into
``decimal`` instead, the method of CPython 3.12's ``Lib/_pylong.py``: write
n = hi * 2^w + lo with w half the bit length, convert both halves the same
way, and combine them as hi * 2^w + lo in an exact decimal context, whose
multiplication is subquadratic.  The powers 2^w are made once per width.
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction

SAFE_INT = 2 ** 53

#: ints with fewer bits than this are printed by ``str()``, larger ones by
#: binary splitting.  Below it ``str()`` stays under the interpreter's default
#: 4300-digit limit on int-to-str conversion, so no caller needs to raise it;
#: on CPython 3.11 the two methods take about the same time from here to
#: 20 000 bits, and at 2^16 bits the split takes half the time of ``str()``
DECIMAL_SPLIT_BITS = 1 << 13

#: pieces of at most this many bits become Decimals directly
_LEAF_BITS = 1024


def decimal_str(n: int) -> str:
    """The decimal digits of n, as ``str(n)`` gives them (see the module
    docstring)."""
    if n.bit_length() < DECIMAL_SPLIT_BITS:
        return str(n)
    powers = {}

    def two_pow(w: int) -> decimal.Decimal:
        p = powers.get(w)
        if p is None:
            if w <= _LEAF_BITS:
                p = decimal.Decimal(1 << w)
            elif w - 1 in powers:
                p = powers[w - 1] * 2
            else:
                half = w >> 1
                p = two_pow(half) * two_pow(w - half)
            powers[w] = p
        return p

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= _LEAF_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(hi, w - half) * two_pow(half) + convert(m - (hi << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def encode_int(v: int):
    return v if -SAFE_INT < v < SAFE_INT else decimal_str(v)


def encode_fraction(q: Fraction) -> list:
    return [encode_int(q.numerator), encode_int(q.denominator)]


def dumps(obj) -> str:
    """Canonical serialization: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
