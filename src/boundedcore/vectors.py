"""Exact vectors and the ``p/q`` wire format.

Every value in this package is an exact rational, never a float (floats
are rejected at the parsing boundary so they cannot poison exact
comparisons), and one rule says which type holds it: an integral value is a
Python ``int``, and only a value whose denominator is greater than 1 needs a
:class:`fractions.Fraction`.  An int has ``numerator`` and ``denominator``,
hashes and compares equal to the same Fraction and mixes with Fractions
exactly, so every helper here takes either kind.  Two kinds of vector travel
through the package:

* :data:`IntVec`, a tuple of Python ints: the 0/1 rows of coalitions, every
  generator of a recession cone (extremal rays and lineality vectors are
  primitive integer vectors), the facet normals of a restricted Weber set,
  every integral polytope vertex, and the core bounds and marginal vectors
  of a game whose worths are all integers;
* :data:`Vector`, a tuple of exact rationals, some of them Fractions: a
  polytope vertex that is not integral (all Fractions), and the bounds and
  marginal vectors of a game with a fractional worth (differences of its
  worths, ints where both worths are ints).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import DocumentError

Vector = tuple[Fraction | int, ...]
IntVec = tuple[int, ...]

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")

# the 0/1 row of each byte value of a mask, lowest bit first; a 16-player row
# is the low byte's row followed by the high byte's
_BYTE_ROWS = tuple(tuple(byte >> i & 1 for i in range(8)) for byte in range(256))


def parse_rational(value) -> Fraction:
    """Parse an int or a ``p/q`` string into an exact rational."""
    return Fraction(exact_rational(value))


def exact_rational(value) -> Fraction | int:
    """:func:`parse_rational`'s value in its one exact form: an int when it is
    integral, a Fraction only when its denominator is greater than 1.  An
    integral string is read by ``int`` alone, with no Fraction made; a string
    of digits alone (``text.isdecimal()``) skips the pattern too.  Either
    way, more digits than ``int`` converts are refused as too long."""
    if isinstance(value, bool):
        raise DocumentError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if text.isdecimal():
                return int(text)
            if _RATIONAL.match(text):
                numerator, _, denominator = text.partition("/")
                if not denominator:
                    return int(numerator)
                q = Fraction(int(numerator), int(denominator))
                return q.numerator if q.denominator == 1 else q
        except ZeroDivisionError:
            raise DocumentError(f"zero denominator: {value!r}") from None
        except ValueError as exc:  # more digits than int() converts
            raise DocumentError(f"rational too long: {exc}") from None
    raise DocumentError(
        f"not an exact rational: {value!r} (use an integer or 'p/q'; decimals are rejected)"
    )


def format_rational(q: Fraction | int) -> str:
    """Render ``3`` or ``-3/2``; inverse of :func:`parse_rational`."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(c // g for c in v)


def integerized(v: Sequence[Fraction | int]) -> IntVec:
    """Scale a rational vector by a positive factor into a primitive integer one.

    An all-int vector needs no common denominator and goes to :func:`primitive`
    as it is.
    """
    for c in v:
        if type(c) is not int:
            scale = lcm(*[c.denominator for c in v])
            return primitive([c.numerator * (scale // c.denominator) for c in v])
    return primitive(v)


def is_transfer(v: Sequence[Fraction | int]) -> bool:
    """Is the vector proportional to ``+1`` at one player and ``-1`` at another,
    that is, has it exactly two nonzero entries, and are they opposite?"""
    nonzero = [c for c in v if c]
    return len(nonzero) == 2 and nonzero[0] == -nonzero[1]


def weight(v: Sequence, mask: int):
    """``v(S)``: the sum of v over the players of the coalition with this bitmask."""
    return sum(compress(v, indicator(mask, len(v))))


def indicator(mask: int, n: int) -> IntVec:
    """The 0/1 row of the coalition with this bitmask, so that ``x(S)`` is its dot product with x.

    Read off the two bytes of the mask, so n is at most 16 players.
    """
    if n <= 8:
        return _BYTE_ROWS[mask & 0xFF][:n]
    return (_BYTE_ROWS[mask & 0xFF] + _BYTE_ROWS[mask >> 8 & 0xFF])[:n]
