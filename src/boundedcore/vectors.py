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


def pair_form(v: Sequence[Fraction]) -> tuple[int, int] | None:
    """Recognize a vector proportional to ``+1`` at one place and ``-1`` at another.

    Returns 1-based ``(plus, minus)`` positions, or None.
    """
    scaled = integerized(v)
    plus = minus = None
    for idx, c in enumerate(scaled):
        if c == 0:
            continue
        if c == 1 and plus is None:
            plus = idx + 1
        elif c == -1 and minus is None:
            minus = idx + 1
        else:
            return None
    if plus is None or minus is None:
        return None
    return plus, minus
