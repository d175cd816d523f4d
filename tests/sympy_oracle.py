"""sympy as the independent oracle for polynomials: expected values are
built and multiplied out by sympy, then read back as functal polynomials, so
no expected value comes from the code under test.  Each helper skips its
test when sympy is missing."""

from fractions import Fraction

import pytest

from functal.poly import BivariatePoly, UnivariatePoly


def fraction(c) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def poly(expr) -> BivariatePoly:
    """The BivariatePoly of a sympy expression in the symbols lam and mu."""
    sympy = pytest.importorskip("sympy")
    p = sympy.Poly(expr, *map(sympy.Symbol, BivariatePoly.variables))
    return BivariatePoly({e: fraction(c) for e, c in p.terms()})


def upoly(expr, x) -> UnivariatePoly:
    """The UnivariatePoly of a sympy expression in the symbol x."""
    sympy = pytest.importorskip("sympy")
    return UnivariatePoly([fraction(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())])


def expr(p: BivariatePoly):
    """The sympy expression of a functal polynomial."""
    sympy = pytest.importorskip("sympy")
    lam, mu = map(sympy.Symbol, p.variables)
    return sum((sympy.Rational(c.numerator, c.denominator) * lam**i * mu**j for (i, j), c in p.terms.items()), sympy.Integer(0))
