"""Sparse exact polynomials: the pencil polynomial over Q, its univariate
specialization, roots.

The pencil polynomial det(lam*P + mu*Q), ``BivariatePoly``, is a dictionary
mapping exponent pairs (of lam, mu) to nonzero Fraction coefficients, in
graded lexicographic order, descending, for serialization, leading terms and
normalization.  It is computed, normalized, printed and dehomogenized; it has
no arithmetic.  ``pencil_det`` computes the integer slice
R(t) = det(t*dP + dQ) exactly and homogenizes it, dividing by d^n once at
the end.  Below a measured size it interpolates R over Z from Bareiss
determinants at nodes (for Q = P^T, R is palindromic and half the nodes
suffice); from `linalg.CRT_MIN_DIM` rows on, R comes as coefficients from one
Faddeev-LeVerrier characteristic polynomial per word-size prime (Faddeev
and Faddeeva, Computational Methods of Linear Algebra), rebuilt by CRT under
the Hadamard bound |R_k| <= prod_i sqrt(|P_i|^2 + 2|P_i.Q_i| + |Q_i|^2)
(`linalg.pencil_coefficients`).  That route is exact because every value is
an integer below 2**53 in float64: its primes are at most sqrt(2**51 / n),
so 2 n p^2 <= 2**52, which holds at any size by taking smaller primes as n
grows (above 2**21 for n < 256).  A univariate polynomial is only
evaluated, made monic and searched for roots.

From there to the roots the coefficients stay in Z: the squarefree
decomposition runs Yun's algorithm (SYMSAC '76) on the primitive integer
multiple, with gcds by heuristic GCD, PRS fallback (Char, Geddes and Gonnet,
J. Symbolic Comput. 7, 1989; Brown, J. ACM 18, 1971), and exact integer
division; rational roots are found by p-adic lifting, without integer
factorisation, and divided out exactly over Z before the remaining factor,
made monic, goes to a float root finder.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import linalg
from .errors import ZeroPolynomial
from .linalg import RatMatrix
from .scalars import ComplexApprox, rat, rat_str


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), exp)


class BivariatePoly:
    """Sparse polynomial in the pencil variables (lam, mu)."""

    __slots__ = ("terms",)
    variables = ("lam", "mu")

    def __init__(self, terms: Mapping[tuple[int, int], Fraction]):
        clean: dict[tuple[int, int], Fraction] = {}
        for exp, c in terms.items():
            c = rat(c)
            if c == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != 2 or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent pair {exp}")
            clean[exp] = c
        # store in canonical graded-lex descending order
        self.terms: dict[tuple[int, int], Fraction] = {e: clean[e] for e in sorted(clean, key=_grlex_key, reverse=True)}

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> tuple[tuple[int, int], Fraction]:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        exp = next(iter(self.terms))
        return exp, self.terms[exp]

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariatePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def canonical(self) -> "BivariatePoly":
        """Divide by the graded-lex leading coefficient (zero stays zero)."""
        if self.is_zero():
            return self
        _, c = self.leading()
        return BivariatePoly({e: v / c for e, v in self.terms.items()})

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for e, c in self.terms.items():
            mags = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.variables, e) if k > 0
            )
            sign = "-" if c < 0 else "+"
            a = abs(c)
            if not mags:
                body = rat_str(a)
            elif a == 1:
                body = mags
            else:
                body = f"{rat_str(a)}*{mags}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "terms": {",".join(str(k) for k in e): rat_str(c) for e, c in self.terms.items()},
        }

    def __repr__(self):
        return f"BivariatePoly({self.to_text()!r})"

    def dehomogenize(self) -> "UnivariatePoly":
        """p(x) = chi(x, -1): the pencil polynomial in one variable."""
        if self.is_zero():
            return UnivariatePoly([])
        coeffs = [Fraction(0)] * (max(i for i, _ in self.terms) + 1)
        for (i, j), c in self.terms.items():
            coeffs[i] += c * (-1) ** j
        return UnivariatePoly(coeffs)


class UnivariatePoly:
    """Dense univariate polynomial over Fraction, coefficients low to high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UnivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "UnivariatePoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return UnivariatePoly([c / lead for c in self.coeffs])

    def x_valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return 0

    def shift_down(self, k: int) -> "UnivariatePoly":
        """Divide by x^k (requires valuation >= k)."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError("not divisible by x^k")
        return UnivariatePoly(self.coeffs[k:])

    def __repr__(self):
        return f"UnivariatePoly({[str(c) for c in self.coeffs]})"


# Integer polynomials: lists of ints, low to high, with no trailing zero.


def _primitive(coeffs: Sequence) -> list[int]:
    """The primitive integer multiple, leading coefficient > 0, of nonzero rational coefficients."""
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (denom // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints] if ints[-1] > 0 else [-c // g for c in ints]


def _derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _eval(f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A remainder of lc(b)^k * a modulo b, for some k >= 0."""
    r, lead, nb = list(a), b[-1], len(b)
    while len(r) >= nb:
        c = r.pop()
        r = [lead * x for x in r]
        for i, y in enumerate(b[:-1], len(r) - nb + 1):
            r[i] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return r


_HEU_TRIES = 6


def _gcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a/g, b/g) for g the primitive gcd, leading coefficient > 0, of a
    nonzero a and any b.

    Heuristic GCD (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989):
    with a and b primitive and xi >= 2 min(|a|, |b|) + 2 in the max norm, the
    symmetric xi-adic digits of gcd(a(xi), b(xi)) give a candidate whose
    primitive part is the gcd if it divides both (Geddes, Czapor and Labahn,
    Algorithms for Computer Algebra, Thm 7.7).  Each failed check grows xi;
    after `_HEU_TRIES` tries the primitive PRS decides (`_prs_gcd`).  The
    quotients of that check are the cofactors, times the contents of a and b.
    """
    pa = _primitive(a)
    ca = a[-1] // pa[-1]
    if not b:
        return pa, [ca], []
    pb = _primitive(b)
    cb = b[-1] // pb[-1]
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 2
    for _ in range(_HEU_TRIES):
        h = math.gcd(_eval(pa, xi), _eval(pb, xi))
        digits = []
        while h:
            d = h % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        g = _primitive(digits)
        try:
            qa, qb = _quotient(pa, g), _quotient(pb, g)
            break
        except ArithmeticError:
            xi = xi * 73794 // 27011  # GCDHEU's growth, about 1 + sqrt(3)
    else:
        g = _prs_gcd(pa, pb)
        qa, qb = _quotient(pa, g), _quotient(pb, g)
    return g, [ca * x for x in qa], [cb * x for x in qb]


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd g of `_gcd` by the primitive PRS (Brown, J. ACM 18, 1971)."""
    if len(a) < len(b):
        a, b = b, a
    a = _primitive(a)
    while b:
        b = _primitive(b)
        a, b = b, _pseudo_remainder(a, b)
    return a


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b over the integers; raises ArithmeticError unless b divides a exactly."""
    r, lead, nb = list(a), b[-1], len(b)
    q = [0] * (len(a) - nb + 1)
    for k in reversed(range(len(q))):
        c, rem = divmod(r[k + nb - 1], lead)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        for i, y in enumerate(b, k):
            r[i] -= c * y
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def squarefree_decomposition(p: UnivariatePoly) -> list[tuple[UnivariatePoly, int]]:
    """[(factor, multiplicity)]: p = c * prod factor^multiplicity, factors squarefree and monic.

    Yun's algorithm (SYMSAC '76) on the primitive integer multiple f of p:
    with a = gcd(f, f'), b = f/a and c = f'/a, each step takes
    d = c - b', a = gcd(b, d) (the product of the factors of the next
    multiplicity), then b = b/a and c = d/a.  The gcds are by heuristic GCD,
    PRS fallback (`_gcd`), which returns both quotients with the gcd; by
    Gauss's lemma they are exact over the integers.  Multiplicities ascend.
    """
    if p.is_zero():
        raise ZeroPolynomial("squarefree decomposition of zero")
    if p.degree == 0:
        return []
    f = _primitive(p.coeffs)
    _, b, c = _gcd(f, _derivative(f))
    out: list[tuple[UnivariatePoly, int]] = []
    i = 1
    while len(b) > 1:
        d = [x - y for x, y in zip(c, _derivative(b), strict=True)]
        while d and d[-1] == 0:
            d.pop()
        a, b, c = _gcd(b, d)
        if len(a) > 1:
            out.append((UnivariatePoly(a).monic(), i))
        i += 1
    return out


def _factorize(n: int) -> dict[int, int]:
    """Prime factorisation {p: k} of |n|, by sympy; no library code calls it.

    perfbench/make_pools.py imports it to count the divisors of end
    coefficients; it goes when that script counts them itself.
    """
    from sympy import factorint

    return factorint(abs(n))


def _eval_mod(coeffs: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _rational_roots_of_squarefree(ints: list[int]) -> list[Fraction]:
    """All rational roots of a squarefree integer polynomial, found exactly by p-adic lifting.

    Let f = a_0 + ... + a_n x^n be the polynomial with x^k divided out
    (Loos 1983).  The prime q is the smallest one with q not dividing a_n
    and f'(r) != 0 mod q at every root r of f mod q; it exists because f is
    squarefree.  A rational root u/v in lowest terms has v | a_n,
    so it reduces to one of those simple roots mod q, which Newton lifting
    extends uniquely to a root mod q^(2^j) > 2|a_0||a_n|.  Rational
    reconstruction with |u| <= |a_0| and 0 < v <= |a_n| is unique under that
    bound, and a candidate is kept only if f(u/v) = 0 exactly.
    """
    roots: list[Fraction] = []
    v = 0
    while ints[v] == 0:
        v += 1
    if v:
        roots.append(Fraction(0))
        ints = ints[v:]
    if len(ints) <= 1:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])
    deriv = _derivative(ints)
    q = 1
    while True:
        q += 1
        if an % q == 0 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
            continue
        mod_roots = [r for r in range(q) if _eval_mod(ints, r, q) == 0]
        if all(_eval_mod(deriv, r, q) for r in mod_roots):
            break
    f = UnivariatePoly(ints)
    for r in mod_roots:
        m = q
        while m <= 2 * a0 * an:
            m *= m
            r = (r - _eval_mod(ints, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m
        # extended Euclid on (m, r), stopped at the first remainder <= |a_0|
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > a0:
            k = r0 // r1
            r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
        if 0 < abs(t1) <= an and f(Fraction(r1, t1)) == 0:
            roots.append(Fraction(r1, t1))
    return sorted(roots)


def uni_roots(p: UnivariatePoly) -> list[tuple[Fraction | ComplexApprox, int]]:
    """All roots with multiplicities; rational roots exact, the rest float.

    Multiplicities always sum to deg p.  Raises ZeroPolynomial on the zero
    polynomial.
    """
    if p.is_zero():
        raise ZeroPolynomial("roots of the zero polynomial")
    out: list[tuple[Fraction | ComplexApprox, int]] = []
    for factor, mult in squarefree_decomposition(p):
        rest = _primitive(factor.coeffs)
        for r in _rational_roots_of_squarefree(rest):
            rest = _quotient(rest, [-r.numerator, r.denominator])
            out.append((r, mult))
        if len(rest) > 1:
            cs = [float(c) for c in UnivariatePoly(rest).monic().coeffs]
            for z in np.roots(list(reversed(cs))):
                out.append((ComplexApprox.from_complex(complex(z)), mult))
    return out


def pencil_det(p: RatMatrix, q: RatMatrix) -> BivariatePoly:
    """Exact det(lam*P + mu*Q) for square rational P, Q of equal size.

    With d the common denominator of P and Q, R(t) = det(t*dP + dQ) is an
    integer polynomial of degree at most n, and
    chi(lam, mu) = sum R_k lam^k mu^(n-k) / d^n.  From `linalg.CRT_MIN_DIM`
    rows on, `linalg.pencil_coefficients` gives the R_k at once, from one
    characteristic polynomial per word-size prime.  Below it, one Bareiss
    `linalg.det` per node is faster, and R is interpolated.  A general
    pencil takes R at t = 0..n; forward differences, divided exactly by j at
    step j, give R in the falling-factorial basis, which expands to
    monomials over Z.  For Q = P^T, det(t*P + P^T) = t^n det(P/t + P^T)
    makes R palindromic (R_k = R_(n-k)), so its h+1 free coefficients,
    h = n//2, come from t = 0..h by one rref of the integer system
    [t^j + t^(n-j) | R(t)] (t^j alone when j = n-j).  A palindromic
    polynomial vanishing at 0..h also vanishes at 1/2..1/h, and at -1 for
    odd n, more roots than its degree allows, so that system is nonsingular.
    """
    if not (p.is_square() and q.is_square() and p.rows == q.rows):
        raise ValueError("pencil_det needs equal square matrices")
    n = p.rows
    if n == 0:
        return BivariatePoly({(0, 0): Fraction(1)})
    d = math.lcm(p.integer_form()[0], q.integer_form()[0])
    ip, iq = ([[x * (d // e) for x in row] for row in rows] for e, rows in (p.integer_form(), q.integer_form()))
    reciprocal = iq == [list(col) for col in zip(*ip)]
    h = n // 2 if reciprocal else n
    if n >= linalg.CRT_MIN_DIM:
        coeffs = linalg.pencil_coefficients(ip, iq, h + 1)
    else:
        r = [linalg.det([[t * x + y for x, y in zip(u, w)] for u, w in zip(ip, iq)]).numerator for t in range(h + 1)]
        if reciprocal:
            system = [[t**j + t ** (n - j) if 2 * j < n else t**j for j in range(h + 1)] + [y] for t, y in enumerate(r)]
            scale, rows, _ = linalg.rref(system)
            half = [row[-1] // scale for row in rows]
            coeffs = half + half[n - h - 1 :: -1]
        else:
            for j in range(1, n + 1):
                for i in range(n, j - 1, -1):
                    r[i] = (r[i] - r[i - 1]) // j
            # r[j] is now the coefficient of t(t-1)...(t-j+1); Horner in that basis
            coeffs = [r[n]]
            for j in range(n - 1, -1, -1):
                coeffs = [a - j * b for a, b in zip([0] + coeffs, coeffs + [0])]
                coeffs[0] += r[j]
    dn = d**n
    return BivariatePoly({(k, n - k): Fraction(c, dn) for k, c in enumerate(coeffs) if c})

