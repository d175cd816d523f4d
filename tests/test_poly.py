import itertools
import json
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from functal.algebra import nilpotent_pair
from functal.errors import ZeroPolynomial
from functal.functional import Functional, gram
from functal import linalg, poly as poly_module
from functal.linalg import RatMatrix
from functal.poly import (
    BivariatePoly,
    UnivariatePoly,
    _gcd,
    _primitive,
    _prs_gcd,
    pencil_det,
    squarefree_decomposition,
    uni_roots,
)
from functal.scalars import ComplexApprox
from sympy_oracle import expr, poly, upoly


def rand_poly(rng, nterms=5, deg=3):
    terms = {}
    for _ in range(nterms):
        e = (rng.randint(0, deg), rng.randint(0, deg))
        terms[e] = terms.get(e, Q(0)) + Q(rng.randint(-9, 9), rng.randint(1, 3))
    return BivariatePoly(terms)


def test_canonical_term_order_is_graded_lex_descending():
    p = BivariatePoly({(0, 0): 1, (2, 0): 1, (1, 1): 1, (0, 3): 1})
    assert list(p.terms) == [(0, 3), (2, 0), (1, 1), (0, 0)]


def test_to_text():
    p = BivariatePoly({(2, 1): Q(-3, 2), (1, 1): 1, (0, 2): 4, (0, 0): -7})
    assert p.to_text() == "-3/2*lam^2*mu + lam*mu + 4*mu^2 - 7"
    assert BivariatePoly({}).to_text() == "0"


def test_text_round_trip():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2)
    for _ in range(25):
        p = rand_poly(rng)
        assert sympy.expand(sympy.sympify(p.to_text().replace("^", "**")) - expr(p)) == 0


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        p = rand_poly(rng)
        d = json.loads(json.dumps(p.to_json_dict()))
        assert d["variables"] == ["lam", "mu"]
        assert BivariatePoly({tuple(int(k) for k in key.split(",")): Q(v) for key, v in d["terms"].items()}) == p


def test_proportional_comparison():
    # equality up to a nonzero scalar is equality of canonical forms
    p = BivariatePoly({(2, 0): 1, (0, 1): -1})
    assert p.canonical() == BivariatePoly({(2, 0): Q(-7, 3), (0, 1): Q(7, 3)}).canonical()
    assert p.canonical() != BivariatePoly({(2, 0): 1, (1, 0): 1, (0, 1): -1}).canonical()
    zero = BivariatePoly({})
    assert zero.canonical() == zero
    assert zero.canonical() != p.canonical()


def test_canonical_divides_by_sympys_graded_lex_leading_coefficient():
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    rng = random.Random(5)
    for _ in range(25):
        p = rand_poly(rng)
        if p.is_zero():
            continue
        sp = sympy.Poly(expr(p), lam, mu)
        exp, c = p.leading()
        assert exp == sp.LM(order="grlex").exponents
        assert c == Q(int(sp.LC(order="grlex").p), int(sp.LC(order="grlex").q))
        assert p.canonical() == poly(expr(p) / sp.LC(order="grlex"))


def test_equal_terms_make_equal_polynomials():
    # the order of the terms given and zero coefficients do not matter
    rng = random.Random(6)
    for _ in range(10):
        p = rand_poly(rng)
        items = list(p.terms.items())
        rng.shuffle(items)
        q = BivariatePoly(dict(items + [((7, 7), Q(0))]))
        assert q == p and hash(q) == hash(p) and list(q.terms) == list(p.terms)
    assert BivariatePoly({(1, 0): 0}) == BivariatePoly({}) and BivariatePoly({}).is_zero()
    for bad in ((1,), (1, 0, 0), (-1, 2)):
        with pytest.raises(ValueError):
            BivariatePoly({bad: 1})


def test_dehomogenize_matches_sympy_substitution():
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    rng = random.Random(7)
    for _ in range(25):
        p = rand_poly(rng)
        assert p.dehomogenize() == upoly(expr(p).subs(mu, -1), lam)


def test_dehomogenize():
    # chi(x, -1) for (lam+mu)^2(lam-mu) is (x-1)^2 (x+1)
    LAM, MU = pytest.importorskip("sympy").symbols("lam mu")
    p = poly((LAM + MU) ** 2 * (LAM - MU))
    assert p.dehomogenize() == UnivariatePoly([1, -1, -1, 1])


def test_uni_roots_examples():
    # x^2 - 1
    roots = dict(uni_roots(UnivariatePoly([-1, 0, 1])))
    assert roots == {Q(1): 1, Q(-1): 1}
    # (x - 2)^3
    p = UnivariatePoly([-8, 12, -6, 1])
    assert dict(uni_roots(p)) == {Q(2): 3}
    # x^2 + 1 -> complex approximations
    out = uni_roots(UnivariatePoly([1, 0, 1]))
    assert all(isinstance(r, ComplexApprox) and m == 1 for r, m in out)
    assert sorted(round(r.im, 6) for r, _ in out) == [-1.0, 1.0]


def test_uni_roots_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        uni_roots(UnivariatePoly([]))


def test_uni_roots_multiplicities_and_exactness():
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    rng = random.Random(4)
    for _ in range(15):
        # build from known factors, then recover
        factors = []
        for _ in range(rng.randint(1, 3)):
            r = Q(rng.randint(-6, 6), rng.randint(1, 4))
            factors.append((r, rng.randint(1, 3)))
        p = upoly(rng.randint(1, 5) * sympy.prod([(X - sympy.Rational(r.numerator, r.denominator)) ** m for r, m in factors]), X)
        out = uni_roots(p)
        assert sum(m for _, m in out) == p.degree
        got = {}
        for r, m in out:
            assert isinstance(r, Q)
            assert p(r) == 0
            got[r] = got.get(r, 0) + m
        want = {}
        for r, m in factors:
            want[r] = want.get(r, 0) + m
        assert got == want


def test_squarefree_decomposition():
    # x^2 (x-1)^3
    p = UnivariatePoly([0, 0, -1, 3, -3, 1])
    dec = squarefree_decomposition(p)
    assert sorted((f.coeffs, m) for f, m in dec) == sorted(
        [(UnivariatePoly([0, 1]).coeffs, 2), (UnivariatePoly([-1, 1]).coeffs, 3)]
    )


def _sympy_poly(sympy, coeffs, x):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x)


def _monic_coeffs(sp):
    lead = sp.LC()
    return tuple(Q(int(c.p), int(c.q)) for c in reversed([c / lead for c in sp.all_coeffs()]))


@pytest.mark.parametrize("route", ["heuristic", "prs"])
def test_squarefree_decomposition_and_gcd_match_sympy(monkeypatch, route):
    """Both gcd routes against sympy: the heuristic GCD with its PRS
    fallback (`_gcd`), and the PRS alone (`_gcd` with no heuristic try,
    also under Yun's loop); the cofactors times the gcd give back the inputs."""
    sympy = pytest.importorskip("sympy")
    if route == "prs":
        monkeypatch.setattr(poly_module, "_HEU_TRIES", 0)
    x = sympy.Symbol("x")
    rng = random.Random(9)
    for _ in range(60):
        p = _sympy_poly(sympy, [Q(rng.randint(-9, 9) or 1, rng.randint(1, 9))], x)
        for _ in range(rng.randint(1, 4)):
            f = _sympy_poly(sympy, [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 9)], x)
            p = p * f ** rng.randint(1, 4)
        p = upoly(p, x)
        _, want = _sympy_poly(sympy, p.coeffs, x).sqf_list()
        got = squarefree_decomposition(p)
        assert [(f.coeffs, m) for f, m in got] == [(_monic_coeffs(f), m) for f, m in want]
        # the gcd of p and a product sharing factors with it, both with
        # content and either sign, against sympy's primitive part with
        # leading coefficient > 0
        q = _sympy_poly(sympy, [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(-9, -1)], x)
        q = upoly(q * _sympy_poly(sympy, got[0][0].coeffs, x) * rng.randint(2, 6), x)
        a = [rng.choice([-3, -1, 1, 2]) * c for c in _primitive(p.coeffs)]
        b = [rng.choice([-2, 1, 5]) * c for c in _primitive(q.coeffs)]
        want_gcd = sympy.gcd(_sympy_poly(sympy, a, x), _sympy_poly(sympy, b, x)).primitive()[1]
        want_gcd = [int(c) for c in reversed(want_gcd.all_coeffs())]
        g, qa, qb = _gcd(a, b)
        assert g == (want_gcd if want_gcd[-1] > 0 else [-c for c in want_gcd])
        assert _int_mul(g, qa) == a and _int_mul(g, qb) == b
        if route == "prs":
            assert _prs_gcd(a, b) == g


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_heuristic_gcd_of_planted_pairs_checks_every_candidate(monkeypatch):
    """Small pairs g*u, g*v: the heuristic GCD equals the PRS gcd, and some
    first candidates fail the division check (so a route that skips the
    check returns a wrong gcd here)."""
    rejected = []
    quotient = poly_module._quotient

    def spy(a, b):
        try:
            return quotient(a, b)
        except ArithmeticError:
            rejected.append((a, b))
            raise

    monkeypatch.setattr(poly_module, "_quotient", spy)
    rng = random.Random(22)

    def small(deg):
        return [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-1, 1]) * rng.randint(1, 9)]

    for _ in range(400):
        g = small(rng.randint(0, 3))
        a, b = _int_mul(g, small(rng.randint(0, 3))), _int_mul(g, small(rng.randint(0, 3)))
        g, qa, qb = _gcd(a, b)
        assert g == _prs_gcd(a, b) and _int_mul(g, qa) == a and _int_mul(g, qb) == b, (a, b)
    assert len(rejected) >= 5


@pytest.mark.parametrize("gcd", [lambda a, b: _gcd(a, b)[0], _prs_gcd], ids=["heuristic", "prs"])
def test_gcd_edge_cases(gcd):
    assert gcd([-2, -4, -6], []) == [1, 2, 3]
    assert gcd([3], []) == [1]
    assert gcd([5], [1, 2, 3]) == [1]
    assert gcd([2, 4], [-6, -12]) == [1, 2]
    # (x - 1)(x + 2) and -3 (x - 1)^2
    assert gcd([-2, 1, 1], [-3, 6, -3]) == [-1, 1]
    assert gcd([-3, 6, -3], [-2, 1, 1]) == [-1, 1]
    # coprime, with content and negative leading coefficients
    assert gcd([4, 0, -8], [-9, -3]) == [1]
    # a gcd of degree 2 under content 6 and 10
    assert gcd(_int_mul([6, 0, 6], [1, 1]), _int_mul([-10, 0, -10], [2, -1])) == [1, 0, 1]


def test_gcd_cofactors_carry_the_contents():
    assert _gcd([-2, -4, -6], []) == ([1, 2, 3], [-2], [])
    assert _gcd([3], []) == ([1], [3], [])
    # (x - 1)(x + 2) and -3 (x - 1)^2
    assert _gcd([-2, 1, 1], [-3, 6, -3]) == ([-1, 1], [2, 1], [3, -3])
    # 6 (x^2 + 1)(x + 1) and -10 (x^2 + 1)(2x - 1)
    assert _gcd(_int_mul([6, 0, 6], [1, 1]), _int_mul([-10, 0, -10], [2, -1])) == ([1, 0, 1], [6, 6], [-20, 10])


def test_squarefree_decomposition_planted_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")

    rationals = st.builds(Q, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6))
    # an irreducible quadratic x^2 + b x + c has b^2 < 4c
    quadratic = st.integers(1, 10**4).flatmap(
        lambda c: st.tuples(st.integers(-math.isqrt(4 * c - 1), math.isqrt(4 * c - 1)), st.just(c))
    )
    mult = st.integers(1, 5)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(
        roots=st.dictionaries(rationals, mult, max_size=4),
        quadratics=st.dictionaries(quadratic, mult, max_size=2),
        k=st.integers(0, 5),
        content=st.fractions().filter(lambda c: c != 0),
    )
    def check(roots, quadratics, k, content):
        factors = [([0, 1], k)] + [([-r, 1], m) for r, m in roots.items()]
        factors += [([c, b, 1], m) for (b, c), m in quadratics.items()]
        want = {}
        for f, m in factors:
            if m:
                want[m] = want.get(m, 1) * _sympy_poly(sympy, f, X)
        p = upoly(_sympy_poly(sympy, [content], X) * sympy.prod([f**m for m, f in want.items()]), X)
        got = squarefree_decomposition(p)
        assert [m for _, m in got] == sorted(want)
        assert {m: f for f, m in got} == {m: upoly(f, X) for m, f in want.items()}

    check()


def test_pencil_det_matches_sympy_with_unrelated_denominators():
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    rng = random.Random(10)
    for n in (1, 2, 3, 4, 5):
        p, q = (
            RatMatrix([[Q(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)] for _ in range(n)])
            for dens in ((1, 2, 3, 7), (1, 5, 11, 13))
        )
        r = lambda x: sympy.Rational(x.numerator, x.denominator)
        pencil = sympy.Matrix(n, n, lambda i, j: lam * r(p[i, j]) + mu * r(q[i, j]))
        want = sympy.Poly(pencil.det(method="berkowitz"), lam, mu)
        got = pencil_det(p, q)
        assert got.terms == {e: Q(int(c.p), int(c.q)) for e, c in want.terms()}


def _reciprocal_pencil_cases(rng):
    """(name, M) for pencil_det(M, M^T), which takes reciprocal nodes: random
    M with unrelated denominators, and the shapes that make chi special."""
    dens = (1, 2, 3, 7, 11, 13)

    def entry():
        return Q(rng.randint(-9, 9), rng.choice(dens))

    for n in range(1, 10):
        m = [[entry() for _ in range(n)] for _ in range(n)]
        yield f"generic {n}", m
        sing = [row[:] for row in m]
        sing[-1] = [2 * x - y for x, y in zip(sing[0], sing[(n - 1) // 2])] if n > 1 else [Q(0)]
        yield f"singular {n}", sing
        yield f"symmetric {n}", [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        yield f"skew {n}", [[m[i][j] - m[j][i] for j in range(n)] for i in range(n)]
    for k in (2, 3, 4):
        b = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        alg = nilpotent_pair(b)
        yield f"nilpotent pair {k}", gram(Functional(alg, tuple(entry() for _ in range(alg.dim)))).data


def test_reciprocal_pencil_det_matches_sympy_berkowitz():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring = sympy.QQ[sympy.symbols("lam mu")]
    lam, mu = ring.gens
    rng = random.Random(11)
    for name, m in _reciprocal_pencil_cases(rng):
        p = RatMatrix(m)
        n = p.rows
        r = lambda x: sympy.QQ(x.numerator, x.denominator)
        pencil = DomainMatrix([[lam * r(p[i, j]) + mu * r(p[j, i]) for j in range(n)] for i in range(n)], (n, n), ring)
        # Berkowitz characteristic polynomial; its constant term is (-1)^n det
        want = (-1) ** n * pencil.charpoly()[-1]
        got = pencil_det(p, p.transpose())
        assert got.terms == {e: Q(int(c.numerator), int(c.denominator)) for e, c in want.terms()}, name
        # r(0) = det M^T; skew M gives (lam - mu)^n det M, zero for odd n; the
        # W rows and columns of a nilpotent-pair Gram matrix vanish
        if name.startswith("singular"):
            assert (0, n) not in got.terms, name
        if name.startswith("nilpotent") or (name.startswith("skew") and n % 2):
            assert got.is_zero(), name


def test_pencil_det_node_counts(monkeypatch):
    # floor(n/2)+1 determinants for Q = P^T, n+1 for a general pencil
    calls = []
    real = linalg.det
    monkeypatch.setattr(linalg, "det", lambda m: calls.append(len(m)) or real(m))
    rng = random.Random(13)
    for n in range(1, 9):
        p, q = (RatMatrix([[Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]) for _ in range(2))
        calls.clear()
        pencil_det(p, p.transpose())
        assert calls == [n] * (n // 2 + 1)
        calls.clear()
        pencil_det(p, q)
        assert calls == [n] * (n + 1)


def test_pencil_det_matches_sympy_at_small_and_large_n():
    """General and reciprocal pencils at n = 1, 2, 3, 9, 10, with a singular M
    (chi of deficient degree) and a nilpotent-pair Gram matrix (chi = 0)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring = sympy.QQ[sympy.symbols("lam mu")]
    lam, mu = ring.gens
    r = lambda x: sympy.QQ(x.numerator, x.denominator)
    rng = random.Random(14)

    def entry():
        return Q(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 11)))

    def transpose(m):
        return [list(col) for col in zip(*m)]

    for n in (1, 2, 3, 9, 10):
        p, q = ([[entry() for _ in range(n)] for _ in range(n)] for _ in range(2))
        sing = [row[:] for row in p]
        sing[-1] = [2 * x for x in sing[0]] if n > 1 else [Q(0)]
        cases = {"general": (p, q), "reciprocal": (p, transpose(p)), "singular": (sing, q),
                 "singular reciprocal": (sing, transpose(sing))}
        if n > 1:
            b = [[rng.randint(-9, 9) for _ in range(n - 1)] for _ in range(n - 1)]
            g = [list(row) for row in gram(Functional(nilpotent_pair(b), tuple(entry() for _ in range(n)))).data]
            cases["nilpotent pair"] = (g, transpose(g))
        for name, (a, c) in cases.items():
            pencil = DomainMatrix([[lam * r(x) + mu * r(y) for x, y in zip(u, w)] for u, w in zip(a, c)], (n, n), ring)
            want = (-1) ** n * pencil.charpoly()[-1]
            got = pencil_det(RatMatrix(a), RatMatrix(c))
            assert got.terms == {e: Q(int(x.numerator), int(x.denominator)) for e, x in want.terms()}, (n, name)
            if name.startswith("singular"):
                assert (n, 0) not in got.terms, (n, name)
            if name == "singular reciprocal":
                assert (0, n) not in got.terms, n
            if name == "nilpotent pair":
                assert got.is_zero(), n


def test_pencil_det_above_the_cut_over_matches_sympy():
    """Rational general and reciprocal pencils from linalg.CRT_MIN_DIM rows on,
    where the nodes come from word-size primes: a singular M, and entries
    whose integer form passes 2**63."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring = sympy.QQ[sympy.symbols("lam mu")]
    lam, mu = ring.gens
    r = lambda x: sympy.QQ(x.numerator, x.denominator)
    rng = random.Random(15)
    n = linalg.CRT_MIN_DIM

    def rand(dens, size=n):
        return [[Q(rng.randint(-9, 9), rng.choice(dens)) for _ in range(size)] for _ in range(size)]

    def transpose(m):
        return [list(col) for col in zip(*m)]

    sing = rand((1, 2, 3, 7))
    sing[-1] = [2 * x - y for x, y in zip(sing[0], sing[1])]
    huge = rand((1, 2**40 + 15, 2**41 + 21))
    m13 = rand((1, 5, 11), n + 1)
    cases = {
        "general": (rand((1, 2, 3, 7)), rand((1, 5, 11, 13))),
        "reciprocal": (m13, transpose(m13)),
        "singular reciprocal": (sing, transpose(sing)),
        "past 2**63": (huge, rand((1, 3))),
    }
    assert max(abs(x) for row in RatMatrix(huge).integer_form()[1] for x in row) >= 2**63
    for name, (a, c) in cases.items():
        size = len(a)
        pencil = DomainMatrix([[lam * r(x) + mu * r(y) for x, y in zip(u, w)] for u, w in zip(a, c)], (size, size), ring)
        want = pencil.det()
        got = pencil_det(RatMatrix(a), RatMatrix(c))
        assert got.terms == {e: Q(int(v.numerator), int(v.denominator)) for e, v in want.terms()}, name


def sympy_pencil_det(p, q):
    """det(lam*P + mu*Q) by sympy: the exact det(t*P + Q) at the n + 1 nodes
    t = n+1 .. 2n+1, which pencil_det never takes, interpolated and
    homogenized to degree n."""
    sympy = pytest.importorskip("sympy")
    t, lam, mu = sympy.symbols("t lam mu")
    n = p.rows
    a, b = (sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.data]) for m in (p, q))
    r = sympy.Poly(sympy.interpolate([(k, (k * a + b).det()) for k in range(n + 1, 2 * n + 2)], t), t)
    return poly(sum((c * lam**k * mu ** (n - k) for (k,), c in r.terms()), sympy.Integer(0)))


def test_reciprocal_pencil_det_matches_sympy_at_other_nodes_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pytest.importorskip("sympy")

    entries = st.builds(Q, st.integers(-30, 30), st.sampled_from((1, 2, 3, 5, 7, 9, 11)))
    matrices = st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(m=matrices)
    def check(m):
        p = RatMatrix(m)
        assert pencil_det(p, p.transpose()) == sympy_pencil_det(p, p.transpose())

    check()


def companion(p):
    """Companion matrix of the monic normalization of p."""
    m = p.monic()
    n = m.degree
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Q(1)
    for i in range(n):
        rows[i][n - 1] = -m.coeffs[i]
    return RatMatrix(rows)


def eye(n):
    return RatMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def generalized_resultant(p, q):
    """prod over root pairs (a of p, b of q) of (lam*a + mu*b), scaled by
    lc(p)^deg(q) * lc(q)^deg(p): the pencil determinant of the Kronecker sum
    lam*(C_p (x) I) + mu*(I (x) C_q)."""
    dp, dq = p.degree, q.degree
    scale = p.leading() ** dq * q.leading() ** dp
    if dp == 0 or dq == 0:
        return BivariatePoly({(0, 0): scale})
    big_p = linalg.kron(companion(p), eye(dq))
    big_q = linalg.kron(eye(dp), companion(q))
    sympy = pytest.importorskip("sympy")
    return poly(sympy.Rational(scale.numerator, scale.denominator) * expr(pencil_det(big_p, big_q)))


def test_generalized_resultant_linear():
    p = UnivariatePoly([-2, 1])
    q = UnivariatePoly([-3, 1])
    assert generalized_resultant(p, q) == BivariatePoly({(1, 0): Q(2), (0, 1): Q(3)})


def brute_resultant(roots_p, roots_q):
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    r = lambda x: sympy.Rational(x.numerator, x.denominator)
    return poly(sympy.prod([r(a) * lam + r(b) * mu for a in roots_p for b in roots_q]))


def test_generalized_resultant_squares():
    p = UnivariatePoly([-1, 0, 1])  # roots 1, -1
    expected = brute_resultant([Q(1), Q(-1)], [Q(1), Q(-1)])
    LAM, MU = pytest.importorskip("sympy").symbols("lam mu")
    assert generalized_resultant(p, p) == expected
    assert expected == poly((LAM + MU) ** 2 * (LAM - MU) ** 2)


def test_generalized_resultant_diag_charpoly():
    # char poly of diag(1,2) against itself
    p = UnivariatePoly([2, -3, 1])
    expected = brute_resultant([Q(1), Q(2)], [Q(1), Q(2)])
    got = generalized_resultant(p, p)
    assert got == expected
    LAM, MU = pytest.importorskip("sympy").symbols("lam mu")
    alt = poly(2 * (LAM + MU) ** 2 * (LAM + 2 * MU) * (2 * LAM + MU))
    assert got == alt


def test_generalized_resultant_respects_leading_coefficients():
    # doubling p scales the result by lc^deg(q)
    p = UnivariatePoly([-2, 1])
    q = UnivariatePoly([-3, 1])
    assert generalized_resultant(UnivariatePoly([-4, 2]), q) == poly(2 * expr(generalized_resultant(p, q)))


def test_generalized_resultant_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        generalized_resultant(UnivariatePoly([]), UnivariatePoly([1]))


def test_generalized_resultant_numeric_invariant():
    rng = random.Random(5)
    trials = 0
    while trials < 10:
        dp, dq = rng.randint(1, 4), rng.randint(1, 4)
        p = UnivariatePoly([rng.randint(-5, 5) for _ in range(dp)] + [rng.randint(1, 5)])
        q = UnivariatePoly([rng.randint(-5, 5) for _ in range(dq)] + [rng.randint(1, 5)])
        r = generalized_resultant(p, q)
        roots_p = np.roots(list(reversed([float(c) for c in p.coeffs])))
        roots_q = np.roots(list(reversed([float(c) for c in q.coeffs])))
        scale = float(p.leading()) ** dq * float(q.leading()) ** dp
        for _ in range(20):
            lam = Q(rng.randint(-9, 9), rng.randint(1, 4))
            mu = Q(rng.randint(-9, 9), rng.randint(1, 4))
            exact = complex(sum(c * lam**i * mu**j for (i, j), c in r.terms.items()))
            approx = scale * np.prod(
                [float(lam) * a + float(mu) * b for a, b in itertools.product(roots_p, roots_q)]
            )
            assert abs(exact - approx) <= 1e-8 * max(1.0, abs(exact), abs(approx))
        trials += 1


def test_pencil_det_matches_sympy_at_other_nodes():
    rng = random.Random(6)
    for n in (1, 2, 3, 4):
        p = RatMatrix([[Q(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
        q = RatMatrix([[Q(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
        assert pencil_det(p, q) == sympy_pencil_det(p, q)


def test_pencil_det_zero_and_empty():
    z = RatMatrix([[0, 0], [0, 0]])
    assert pencil_det(z, z).is_zero()
    assert pencil_det(RatMatrix([]), RatMatrix([])) == BivariatePoly({(0, 0): Q(1)})


# ---------------------------------------------------------------------------
# rational roots: independent oracles and edge cases


def rational_roots(p):
    """{root: multiplicity} over the exact (Fraction) roots uni_roots returns."""
    got = {}
    for r, m in uni_roots(p):
        if isinstance(r, Q):
            got[r] = got.get(r, 0) + m
    return got


def test_rational_roots_edge_cases():
    # a_n = 36 rules out q = 2 and q = 3; 1/6 and 31/6 collide mod 5, so q = 7
    p = UnivariatePoly([31, -192, 36])  # (6x - 1)(6x - 31)
    assert rational_roots(p) == {Q(1, 6): 1, Q(31, 6): 1}
    # a factor x^k
    p = UnivariatePoly([0, 0, 0, -3, 2])
    assert dict(uni_roots(p)) == {Q(0): 3, Q(3, 2): 1}
    assert dict(uni_roots(UnivariatePoly([0, 1]))) == {Q(0): 1}
    # degree 1
    assert uni_roots(UnivariatePoly([3, 7])) == [(Q(-3, 7), 1)]
    # non-integer coefficients
    sympy = pytest.importorskip("sympy")
    X, rational = sympy.Symbol("x"), sympy.Rational
    p = upoly(rational(5, 7) * (X - rational(1, 2)) * (X + rational(2, 3)) * (X**2 + rational(1, 5)), X)
    assert rational_roots(p) == {Q(1, 2): 1, Q(-2, 3): 1}


def test_rational_roots_planted_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")

    big = 10**12
    rationals = st.builds(Q, st.integers(-big, big), st.integers(1, big))
    # an irreducible quadratic x^2 + b x + c has b^2 < 4c
    quadratic = st.integers(1, 10**6).flatmap(
        lambda c: st.tuples(st.integers(-math.isqrt(4 * c - 1), math.isqrt(4 * c - 1)), st.just(c))
    )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        roots=st.lists(rationals, min_size=1, max_size=4),
        shifts=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 10**6), st.sampled_from([2, 3, 6])), max_size=3),
        quadratics=st.lists(quadratic, max_size=2),
        content=st.fractions().filter(lambda c: c != 0),
    )
    def check(roots, shifts, quadratics, content):
        # shifted copies r + m k agree with r mod m, which rules out small primes
        for i, k, m in shifts:
            r = roots[i % len(roots)]
            roots = roots + [r + m * k]
        want = {}
        for r in roots:
            want[r] = want.get(r, 0) + 1
        factors = [[content]] + [[-r.numerator, r.denominator] for r in roots] + [[c, b, 1] for b, c in quadratics]
        assert rational_roots(upoly(sympy.prod([_sympy_poly(sympy, f, X) for f in factors]), X)) == want

    check()


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    rng = random.Random(8)
    for _ in range(40):
        p = sympy.Integer(1)
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 3)
            p *= _sympy_poly(sympy, [rng.randint(-30, 30) for _ in range(deg)] + [rng.randint(1, 30)], X).as_expr()
        want = {Q(int(r.p), int(r.q)): m for r, m in sympy.Poly(p, X).ground_roots().items()}
        assert rational_roots(upoly(p, X)) == want
