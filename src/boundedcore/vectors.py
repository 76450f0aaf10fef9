"""Exact vectors and the ``p/q`` wire format.

Two kinds of vector travel through this package, and neither is ever a
float (floats are rejected at the parsing boundary so they cannot poison
exact comparisons):

* :data:`IntVec`, a tuple of Python ints: the 0/1 rows of coalitions and
  every generator of a recession cone (extremal rays and lineality vectors
  are primitive integer vectors);
* :data:`Vector`, a tuple of :class:`fractions.Fraction`: whatever a game
  value enters, that is core bounds, polytope vertices and marginal vectors.

An int has ``numerator`` and ``denominator``, hashes and compares equal to
the same Fraction and mixes with Fractions exactly, so every helper here
takes either kind.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DocumentError

Vector = tuple[Fraction, ...]
IntVec = tuple[int, ...]

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(value) -> Fraction:
    """Parse an int or a ``p/q`` string into an exact rational."""
    if isinstance(value, bool):
        raise DocumentError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL.match(text):
            numerator, _, denominator = text.partition("/")
            try:
                return Fraction(int(numerator), int(denominator) if denominator else 1)
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


def vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(c // g for c in v)


def integerized(v: Sequence[Fraction | int]) -> IntVec:
    """Scale a rational vector by a positive factor into a primitive integer one."""
    scale = lcm(*[c.denominator for c in v])
    return primitive([c.numerator * (scale // c.denominator) for c in v])


def is_transfer(v: Sequence[Fraction | int]) -> bool:
    """Is the vector proportional to ``+1`` at one player and ``-1`` at another?"""
    return sorted(c for c in integerized(v) if c) == [-1, 1]


def weight(v: Sequence, mask: int):
    """``v(S)``: the sum of v over the players of the coalition with this bitmask."""
    return sum(c for i, c in enumerate(v) if mask >> i & 1)


def indicator(mask: int, n: int) -> IntVec:
    """The 0/1 row of the coalition with this bitmask, so that ``x(S)`` is its dot product with x."""
    return tuple(mask >> i & 1 for i in range(n))
