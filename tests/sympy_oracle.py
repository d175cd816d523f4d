"""sympy as the independent oracle for polynomials: expected values are
built and multiplied out by sympy, then read back as functal polynomials, so
no expected value comes from the arithmetic under test.  Each helper skips
its test when sympy is missing."""

from fractions import Fraction

import pytest

from functal.poly import MultivariatePoly, UnivariatePoly, make_poly


def fraction(c) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def poly(expr, variables=("lam", "mu")) -> MultivariatePoly:
    """The functal polynomial of a sympy expression in the named variables
    (a BivariatePoly over the default lam, mu)."""
    sympy = pytest.importorskip("sympy")
    p = sympy.Poly(expr, *map(sympy.Symbol, variables))
    return make_poly(variables, {e: fraction(c) for e, c in p.terms()})


def upoly(expr, x) -> UnivariatePoly:
    """The UnivariatePoly of a sympy expression in the symbol x."""
    sympy = pytest.importorskip("sympy")
    return UnivariatePoly([fraction(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())])


def expr(p: MultivariatePoly):
    """The sympy expression of a functal polynomial."""
    sympy = pytest.importorskip("sympy")
    xs = [sympy.Symbol(v) for v in p.variables]
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.prod([x**k for x, k in zip(xs, e)]) for e, c in p.terms.items()), sympy.Integer(0))
