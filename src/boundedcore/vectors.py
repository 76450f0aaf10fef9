"""Exact rational vectors and the ``p/q`` wire format.

Every quantity in this package is a :class:`fractions.Fraction`; floats are
rejected at the parsing boundary so they cannot poison exact comparisons.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DocumentError

Vector = tuple[Fraction, ...]

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
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise DocumentError(f"zero denominator: {value!r}") from None
            except ValueError as exc:  # more digits than int() converts
                raise DocumentError(f"rational too long: {exc}") from None
    raise DocumentError(
        f"not an exact rational: {value!r} (use an integer or 'p/q'; decimals are rejected)"
    )


def format_rational(q: Fraction) -> str:
    """Render ``3`` or ``-3/2``; inverse of :func:`parse_rational`."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    if g <= 1:
        return tuple(v)
    return tuple(c // g for c in v)


def integerized(v: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor into a primitive integer one."""
    lcm = 1
    for c in v:
        d = c.denominator
        lcm = lcm * d // gcd(lcm, d)
    return primitive([c.numerator * (lcm // c.denominator) for c in v])


def is_transfer(v: Sequence[Fraction]) -> bool:
    """Is the vector proportional to ``+1`` at one player and ``-1`` at another?"""
    return sorted(c for c in integerized(v) if c) == [-1, 1]


def weight(v: Sequence, mask: int):
    """``v(S)``: the sum of v over the players of the coalition with this bitmask."""
    return sum(c for i, c in enumerate(v) if mask >> i & 1)


_ZERO, _ONE = Fraction(0), Fraction(1)


def indicator(mask: int, n: int) -> Vector:
    """The 0/1 row of the coalition with this bitmask, so that ``x(S)`` is its dot product with x."""
    return tuple(_ONE if mask >> i & 1 else _ZERO for i in range(n))
