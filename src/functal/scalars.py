"""Exact scalars: arbitrary-precision rationals plus a float complex for root output."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# The scalar field of the whole library.  Structural computations are exact
# over Q; floats appear only in numeric root extraction and numeric identity
# checks (see ComplexApprox).
Rational = Fraction


def rat(x) -> Fraction:
    """Coerce ints, strings like '-3/2', and Fractions to a reduced Fraction; a
    bool is not taken for 0 or 1."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def input_rat(x, what: str) -> Fraction:
    """`rat` of a value read from outside the program; a value it refuses raises ValueError naming ``what``."""
    try:
        return rat(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer or a rational string, not {x!r}") from None


def rat_str(x: Fraction) -> str:
    """Canonical 'p/q' form (denominator omitted when 1, zero is '0')."""
    return str(Fraction(x))


@dataclass(frozen=True)
class ComplexApprox:
    """Double-precision complex value used for non-rational roots."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("ComplexApprox must be finite")

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexApprox":
        return cls(float(z.real), float(z.imag))

    def as_complex(self) -> complex:
        return complex(self.re, self.im)
