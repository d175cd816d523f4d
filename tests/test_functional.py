import itertools
import math
import pickle
import random
from fractions import Fraction as Q

import pytest

from functal.algebra import Algebra, direct_sum, mat, nilpotent_pair, seaweed, tensor_product, ut
from functal.errors import AlgebraMismatch, NotMatrixAlgebra, SingularMatrix
from functal.functional import (
    ALPHA_INF,
    Alpha,
    Functional,
    Subspace,
    gram,
    is_multiplicative,
    nil,
    pencil_at,
    stab,
    subspace_product,
    trace_functional,
    vanishes_on,
)
from functal.gallery import gallery_algebras
from functal.linalg import RatMatrix, det, inverse, kernel, rank, vec
from functal.spectrum import char_poly, spectrum


def rand_functional(alg, rng, lo=-20, hi=20):
    return Functional(alg, tuple(Q(rng.randint(lo, hi)) for _ in range(alg.dim)))


# ---------------------------------------------------------------------------
# Alpha
# ---------------------------------------------------------------------------


def test_alpha_parsing_and_inverse():
    assert Alpha.of("inf").is_infinite
    assert Alpha.of("3/2").value == Q(3, 2)
    assert Alpha(0).inverse() == ALPHA_INF
    assert ALPHA_INF.inverse() == Alpha(0)
    assert Alpha(Q(2, 5)).inverse() == Alpha(Q(5, 2))
    assert Alpha(3).times(ALPHA_INF) == ALPHA_INF
    with pytest.raises(ValueError):
        Alpha(0).times(ALPHA_INF)


# ---------------------------------------------------------------------------
# gram / forms
# ---------------------------------------------------------------------------


def test_gram_zero_functional():
    assert gram(Functional(mat(2), (0, 0, 0, 0))) == RatMatrix([[0] * 4] * 4)


def test_gram_mat2_values_match_direct_products():
    # independent oracle: evaluate F(e_i e_j) through element multiplication
    m2 = mat(2)
    f = Functional(m2, (Q(1), Q(0), Q(0), Q(2)))
    g = gram(f)
    for i in range(4):
        for j in range(4):
            assert g[i, j] == f(m2.product_coords(m2.basis_vector(i), m2.basis_vector(j)))
    # substitute a=1, b=0, c=0, d=2 into the matrix-unit table by hand
    assert g == RatMatrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 2, 0, 0], [0, 0, 0, 2]])


def test_gram_ut2_all_ones():
    f = Functional(ut(2), (Q(1), Q(1), Q(1)))
    assert gram(f) == RatMatrix([[1, 1, 0], [0, 0, 1], [0, 0, 1]])


def test_gram_over_the_integers_matches_fraction_sums():
    # rational structure constants and coordinates; the oracle sums Fraction products
    rng = random.Random(3)
    for base in (mat(2), seaweed([2, 1], [1, 2]), tensor_product(ut(2), ut(2))):
        table = [
            [tuple((k, c * Q(rng.randint(1, 9), rng.choice([1, 2, 3, 4]))) for k, c in cell) for cell in row]
            for row in base.table
        ]
        for alg in (base, Algebra(base.labels, table)):
            for denoms in ([1], [1, 2, 3, 6], [5, 7], None):
                x = tuple(Q(rng.randint(-9, 9), rng.choice(denoms)) if denoms else Q(0) for _ in range(alg.dim))
                m = gram(Functional(alg, x))
                want = RatMatrix([[sum((x[k] * c for k, c in cell), Q(0)) for cell in row] for row in alg.table])
                assert m.data == want.data and all(type(v) is Q for row in m.data for v in row)
                assert m.integer_form() == want.integer_form()


def test_gram_is_linear_in_f():
    rng = random.Random(0)
    alg = seaweed([2, 1], [1, 2])
    f, g = rand_functional(alg, rng), rand_functional(alg, rng)
    assert gram(f + g) == gram(f) + gram(g)


def test_b_and_q_forms():
    # the skew and symmetric parts of the pairing matrix
    rng = random.Random(1)
    m3 = mat(3)
    f = rand_functional(m3, rng)
    m = gram(f)
    b, q = m + m.transpose().scale(-1), m + m.transpose()
    assert b.transpose() == b.scale(-1)
    assert q.transpose() == q
    x = tuple(Q(rng.randint(-9, 9)) for _ in range(9))
    bx = sum(x[i] * sum(b[i, j] * x[j] for j in range(9)) for i in range(9))
    assert bx == 0
    one = m3.unity
    q11 = sum(one[i] * sum(q[i, j] * one[j] for j in range(9)) for i in range(9))
    assert q11 == 2 * f(one)


# ---------------------------------------------------------------------------
# stabilizers
# ---------------------------------------------------------------------------


def test_stab_matrix_units_golden():
    for n, diag in ((2, (1, 2)), (3, (1, 2, 5))):
        m = mat(n)
        f_hat = RatMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
        f = trace_functional(m, f_hat)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                s = stab(f, Q(diag[i], diag[j]))
                assert s.basis == (m.basis_vector(i * n + j),)
        s1 = stab(f, 1)
        assert s1.basis == tuple(m.basis_vector(i * n + i) for i in range(n))


def test_stab_seaweed_21_12_spanning_lists():
    sw = seaweed([2, 1], [1, 2])
    rng = random.Random(2)
    f = rand_functional(sw, rng, lo=1, hi=20)
    fa, fb, fc, fd, fe = f.coords
    zero = Q(0)
    want0 = Subspace(
        sw,
        [
            (-fb, fa, zero, zero, zero),  # F(a) b - F(b) a
            (zero, zero, zero, fe, -fd),  # F(e) d - F(d) e
        ],
    )
    want_inf = Subspace(
        sw,
        [
            (zero, -fc, fb, zero, zero),  # F(b) c - F(c) b
            (zero, -fd, zero, fb, zero),  # F(b) d - F(d) b
        ],
    )
    assert stab(f, 0) == want0
    assert stab(f, ALPHA_INF) == want_inf
    assert stab(f, 1).basis == (sw.unity,)


def test_gram_is_memoised_outside_the_value():
    alg = seaweed([1, 2], [2, 1])
    coords = tuple(Q(i, 3) for i in range(1, alg.dim + 1))
    f, g = Functional(alg, coords), Functional(alg, coords)
    assert gram(f) is gram(f)
    # only f holds its Gram matrix; equality, hashing and repr do not see it
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    for h in pickle.loads(pickle.dumps([f, g])):
        assert h == f and hash(h) == hash(g)
    assert gram(pickle.loads(pickle.dumps(f))) == gram(g)


def test_pencil_at_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        m = RatMatrix([[Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])
        sm = sympy.Matrix(n, n, lambda i, j: sympy.Rational(m[i, j].numerator, m[i, j].denominator))
        d = sympy.lcm([m[i, j].denominator for i in range(n) for j in range(n)])
        for alpha in (Q(0), Q(1), Q(-3, 2), Q(5, 7), ALPHA_INF):
            if alpha == ALPHA_INF:
                c, want = d, sm
            else:
                c, want = alpha.denominator * d, sm.T - sympy.Rational(alpha.numerator, alpha.denominator) * sm
            got = pencil_at(m, alpha)
            assert all(type(x) is int for row in got for x in row)
            assert [[sympy.Integer(x) for x in row] for row in got] == (c * want).tolist()


def test_stab_infinite_is_right_annihilator():
    rng = random.Random(3)
    alg = ut(3)
    f = rand_functional(alg, rng)
    s = stab(f, ALPHA_INF)
    for v in s.basis:
        for i in range(alg.dim):
            assert f(alg.product_coords(alg.basis_vector(i), v)) == 0


def test_stab_finite_condition_elementwise():
    rng = random.Random(4)
    alg = seaweed([1, 2], [2, 1])
    f = rand_functional(alg, rng)
    for alpha in (Q(0), Q(1), Q(2)):
        for v in stab(f, alpha).basis:
            for i in range(alg.dim):
                e = alg.basis_vector(i)
                assert f(alg.product_coords(v, e)) == alpha * f(alg.product_coords(e, v))


def test_stab_is_the_reduced_basis_of_the_pencil_kernel():
    # stab reduces the column-reversed pencil once; the second elimination in
    # Subspace(...) must find nothing to change
    rng = random.Random(6)
    alphas = [Alpha(0), Alpha(1), Alpha(-1), Alpha(2), Alpha(Q(1, 2)), Alpha(Q(-3, 5)), ALPHA_INF]
    for alg in gallery_algebras().values():
        draws = [Functional(alg, (0,) * alg.dim), rand_functional(alg, rng), rand_functional(alg, rng, 0, 1)]
        for f in draws + [Functional(alg, tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim)))]:
            for a in alphas + spectrum(f).exact_alphas():
                s = stab(f, a)
                want = Subspace(alg, kernel(pencil_at(gram(f), a))[1])
                assert (s.basis, s.pivots) == (want.basis, want.pivots), (f, a)
                assert s == want and hash(s) == hash(want), (f, a)


# ---------------------------------------------------------------------------
# nil
# ---------------------------------------------------------------------------


def test_nil_mat2_generic_is_zero():
    rng = random.Random(5)
    f = rand_functional(mat(2), rng, lo=1, hi=20)
    assert nil(f).is_zero()


def test_nil_shared_column_example():
    # products v1*v3 = v2*v3 = w; for any F with F(w) = 1 the nil space is
    # spanned by v1 - v2 and w (strictly larger than W)
    alg = nilpotent_pair([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    f = Functional.from_dict(alg, {"w": 1, "v1": 4, "v2": -1, "v3": 9})
    n = nil(f)
    assert n.basis == ((Q(1), Q(-1), Q(0), Q(0)), (Q(0), Q(0), Q(0), Q(1)))
    # brute-force oracle: elementwise two-sided annihilation of F
    for v in n.basis:
        for i in range(alg.dim):
            e = alg.basis_vector(i)
            assert f(alg.product_coords(v, e)) == 0
            assert f(alg.product_coords(e, v)) == 0
    w = alg.basis_vector(3)
    assert n.contains(w)


def test_w_inside_nil_for_any_nilpotent_pair():
    rng = random.Random(6)
    b = [[[rng.randint(-5, 5), rng.randint(-5, 5)] for _ in range(3)] for _ in range(3)]
    alg = nilpotent_pair(b)
    for _ in range(4):
        f = rand_functional(alg, rng)
        n = nil(f)
        assert n.contains(alg.basis_vector(3))  # w1
        assert n.contains(alg.basis_vector(4))  # w2


# ---------------------------------------------------------------------------
# rank / multiplicative
# ---------------------------------------------------------------------------


def test_rank_one_and_multiplicative_on_qq():
    qq = direct_sum(mat(1), mat(1))
    f = Functional(qq, (Q(1), Q(0)))
    assert is_multiplicative(f) and rank(gram(f)) == 1
    g = Functional(qq, (Q(1), Q(1)))
    assert rank(gram(g)) == 2 and not is_multiplicative(g)


def test_rank_one_normalized_implies_multiplicative():
    qqq = direct_sum(direct_sum(mat(1), mat(1)), mat(1))
    unity = qqq.unity
    hits = 0
    for coords in itertools.product((0, 1), repeat=3):
        f = Functional(qqq, tuple(Q(c) for c in coords))
        if rank(gram(f)) == 1 and f(unity) == 1:
            hits += 1
            assert is_multiplicative(f)
        if is_multiplicative(f) and any(coords):
            assert rank(gram(f)) == 1
    assert hits == 3


# ---------------------------------------------------------------------------
# subspace arithmetic
# ---------------------------------------------------------------------------


def test_subspace_canonical_for_any_spanning_set():
    m2 = mat(2)
    s1 = Subspace(m2, [(Q(1), Q(2), Q(0), Q(0)), (Q(0), Q(1), Q(1), Q(0))])
    s2 = Subspace(m2, [(Q(2), Q(5), Q(1), Q(0)), (Q(3), Q(6), Q(0), Q(0))])
    assert s1 == s2


def test_subspace_product_examples():
    u2 = ut(2)
    one = Subspace(u2, [u2.unity])
    assert subspace_product(one, one) == one
    m2 = mat(2)
    e12 = Subspace(m2, [m2.basis_vector(1)])
    e21 = Subspace(m2, [m2.basis_vector(2)])
    assert subspace_product(e12, e21) == Subspace(m2, [m2.basis_vector(0)])
    zero = Subspace.zero(m2)
    assert subspace_product(zero, e12).is_zero()
    with pytest.raises(AlgebraMismatch):
        subspace_product(one, e12)


def test_subspace_intersect_and_sum():
    m2 = mat(2)
    a = Subspace(m2, [m2.basis_vector(0), m2.basis_vector(1)])
    b = Subspace(m2, [m2.basis_vector(1), m2.basis_vector(2)])
    assert a.intersect(b) == Subspace(m2, [m2.basis_vector(1)])
    assert Subspace(m2, a.basis + b.basis).dim == 3


def test_vanishes_on():
    m2 = mat(2)
    f = trace_functional(m2, RatMatrix([[1, 0], [0, 2]]))
    assert vanishes_on(f, stab(f, 2))
    one = Subspace(m2, [m2.unity])
    assert not vanishes_on(f, one)
    assert vanishes_on(f, Subspace.zero(m2))


# ---------------------------------------------------------------------------
# coadjoint conjugation
# ---------------------------------------------------------------------------


def conjugate(f, g):
    """F'(x) = F(g^-1 x g) on mat(n): the trace functional of g F^ g^-1."""
    n = g.rows
    f_hat = RatMatrix([[f.coords[i * n + j] for i in range(n)] for j in range(n)])  # F(E_ij) = f_hat[j, i]
    return trace_functional(f.algebra, g @ f_hat @ inverse(g))


def test_conjugate_functional_identity_and_inverse():
    m2 = mat(2)
    rng = random.Random(7)
    f = rand_functional(m2, rng)
    assert conjugate(f, RatMatrix([[1, 0], [0, 1]])).coords == f.coords
    g = RatMatrix([[1, 1], [0, 1]])
    g_inv = RatMatrix([[1, -1], [0, 1]])
    assert inverse(g) == g_inv
    assert conjugate(conjugate(f, g), g_inv).coords == f.coords
    # independent oracle: F(g^-1 E_ij g) by products in the algebra
    f2 = conjugate(f, g)
    g_el, g_inv_el = (vec([m[r, c] for r in range(2) for c in range(2)]) for m in (g, g_inv))
    mul = m2.product_coords
    for k in range(4):
        e = m2.basis_vector(k)
        assert f2(e) == f(mul(mul(g_inv_el, e), g_el))


def test_conjugate_functional_preserves_char_poly():
    m2 = mat(2)
    f = trace_functional(m2, RatMatrix([[1, 0], [0, 2]]))
    f2 = conjugate(f, RatMatrix([[1, 1], [0, 1]]))
    assert f2.coords != f.coords
    assert char_poly(f2) == char_poly(f)


def test_conjugate_functional_errors():
    with pytest.raises(NotMatrixAlgebra):
        trace_functional(ut(2), RatMatrix([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        trace_functional(mat(2), RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(SingularMatrix):
        conjugate(Functional(mat(2), (0, 0, 0, 0)), RatMatrix([[1, 1], [1, 1]]))


def test_trace_functional_matches_trace():
    m3 = mat(3)
    rng = random.Random(8)
    f_hat = RatMatrix([[Q(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)])
    f = trace_functional(m3, f_hat)
    x = RatMatrix([[Q(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)])
    coords = tuple(x[i, j] for i in range(3) for j in range(3))
    trace = sum((f_hat @ x)[i, i] for i in range(3))
    assert f(coords) == trace


def test_functional_from_dict_defaults_and_errors():
    u2 = ut(2)
    f = Functional.from_dict(u2, {"E_{1,1}": "1/2"})
    assert f.coords == (Q(1, 2), Q(0), Q(0))
    with pytest.raises(ValueError):
        Functional.from_dict(u2, {"nope": 1})
    # JSON numbers that are not integers, null and booleans are refused by label
    for bad in (1.5, None, True, False, [1]):
        with pytest.raises(ValueError, match="E_{1,2}"):
            Functional.from_dict(u2, {"E_{1,1}": 1, "E_{1,2}": bad})


def test_subspace_pivots_and_intersection_against_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")

    alg = ut(3)
    n = alg.dim
    vectors = st.lists(
        st.lists(st.sampled_from([Q(0), Q(0), Q(0), Q(1), Q(-2), Q(1, 3)]), min_size=n, max_size=n).map(tuple),
        max_size=5,
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(us=vectors, ws=vectors)
    def check(us, ws):
        u, w = Subspace(alg, us), Subspace(alg, ws)
        for s in (u, w):
            assert len(s.pivots) == s.dim
            for k, (p, row) in enumerate(zip(s.pivots, s.basis)):
                assert p == next(c for c, x in enumerate(row) if x != 0)
                assert [b[p] for b in s.basis] == [Q(int(j == k)) for j in range(s.dim)]
        # oracle: a with sum a_i u_i = sum b_j w_j, from the nullspace of (U | -W)
        points = []
        if us and ws:
            rows = list(us) + [tuple(-x for x in v) for v in ws]
            m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v] for v in rows]).T
            for k in m.nullspace():
                points.append(tuple(sum((Q(int(k[i].p), int(k[i].q)) * us[i][r] for i in range(len(us))), Q(0)) for r in range(n)))
        expected = Subspace(alg, points)
        assert u.intersect(w) == expected
        assert w.intersect(u) == expected
        assert expected.dim == u.dim + w.dim - Subspace(alg, u.basis + w.basis).dim
        # membership: v in u exactly when appending it keeps the sympy rank
        for v in ws:
            rows = [list(b) for b in u.basis] + [list(v)]
            assert u.contains(v) == (sympy.Matrix(rows).rank() == u.dim)
        assert u.contains_subspace(w) == (Subspace(alg, u.basis + w.basis).dim == u.dim)
        assert u.contains_subspace(expected) and w.contains_subspace(expected)

    check()
    # an intersection whose pivot is column 0, the first column of the right half
    e = [alg.basis_vector(i) for i in range(n)]
    both = Subspace(alg, [e[0], e[1]]).intersect(Subspace(alg, [e[0], e[2]]))
    assert both == Subspace(alg, [e[0]]) and both.pivots == (0,)


# a Fraction reference for Subspace: Gauss-Jordan, the residue test and
# Zassenhaus, all over Q, and products from the rational table


def frac_rref(vectors, n):
    """Nonzero rows of the reduced row echelon form over Q, and their pivots."""
    rows = [[Q(x) for x in v] for v in vectors]
    out, pivots = [], []
    for c in range(n):
        k = next((i for i, r in enumerate(rows) if r[c] != 0), None)
        if k is None:
            continue
        top = rows.pop(k)
        top = [x / top[c] for x in top]
        rows = [[x - r[c] * y for x, y in zip(r, top)] for r in rows]
        out = [[x - r[c] * y for x, y in zip(r, top)] for r in out] + [top]
        pivots.append(c)
    return [tuple(r) for r in out], pivots


def frac_contains(basis, pivots, v):
    x = [Q(a) for a in v]
    for p, row in zip(pivots, basis):
        c = x[p]
        if c != 0:
            x = [a - c * b for a, b in zip(x, row)]
    return not any(x)


def frac_intersect(u, w, n):
    rows, pivots = frac_rref([a + a for a in u] + [b + (Q(0),) * n for b in w], 2 * n)
    return [row[n:] for row, p in zip(rows, pivots) if p >= n]


def frac_product(alg, x, y):
    out = [Q(0)] * alg.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            for k, c in alg.table[i][j]:
                out[k] += a * b * c
    return tuple(out)


def rescaled(alg, s):
    """alg in the basis s_i e_i, whose structure constants c s_i s_j / s_k are rational."""
    n = alg.dim
    table = [[tuple((k, c * s[i] * s[j] / s[k]) for k, c in alg.table[i][j]) for j in range(n)] for i in range(n)]
    return Algebra(alg.labels, table)


def test_subspace_matches_a_fraction_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    alg = rescaled(ut(3), [Q(1), Q(2), Q(1, 3), Q(-3, 2), Q(1), Q(5, 4)])
    assert alg.integer_table[0] > 1
    n = alg.dim
    entry = st.sampled_from([Q(0), Q(0), Q(0), Q(1), Q(-2), Q(1, 3), Q(-5, 6), Q(7, 4)])
    vector = st.lists(entry, min_size=n, max_size=n).map(tuple)
    whole = [alg.basis_vector(i) for i in range(n)]
    # up to five vectors, zero rows among them, or the whole space
    spanning = st.one_of(st.lists(vector, max_size=5), st.just(whole), st.just([(Q(0),) * n] * 2))
    nonzero = st.sampled_from([Q(1), Q(-1), Q(3), Q(2, 7), Q(-9, 4)])

    def integer(v):
        e = math.lcm(*(x.denominator for x in v))
        return [int(x * e) for x in v]

    def check_form(space, basis, pivots):
        assert (space.basis, space.pivots) == (tuple(basis), tuple(pivots))
        # d is the least common denominator, so the form is canonical
        assert space.d == math.lcm(*(x.denominator for row in basis for x in row))
        assert space.rows == tuple(tuple(int(x * space.d) for x in row) for row in basis)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(us=spanning, ws=spanning, probes=st.lists(vector, max_size=3), data=st.data())
    def check(us, ws, probes, data):
        u, w = Subspace(alg, us), Subspace(alg, ws)
        ub, up = frac_rref(us, n)
        wb, wp = frac_rref(ws, n)
        check_form(u, ub, up)
        check_form(w, wb, wp)
        # membership of Fraction and of int vectors, inside and outside
        for v in probes + list(ws) + [tuple(2 * x for x in b) for b in ub]:
            want = frac_contains(ub, up, v)
            assert u.contains(v) == want and u.contains(integer(v)) == want, v
        assert u.contains_subspace(w) == all(frac_contains(ub, up, b) for b in wb)
        assert u.contains_subspace(u) and u.contains_subspace(Subspace.zero(alg))
        assert Subspace.whole(alg).contains_subspace(u)
        cap = u.intersect(w)
        check_form(cap, *frac_rref(frac_intersect(ub, wb, n), n))
        prod = subspace_product(u, w)
        check_form(prod, *frac_rref([frac_product(alg, x, y) for x in ub for y in wb], n))
        # the same space from another spanning set: scaled and combined rows,
        # zero rows, in another order
        other = [tuple(c * x for x in b) for c, b in zip(data.draw(st.lists(nonzero, min_size=len(ub), max_size=len(ub))), ub)]
        for i, j, c in data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), nonzero), max_size=4)):
            if other and i % len(other) != j % len(other):
                i, j = i % len(other), j % len(other)
                other[i] = tuple(x + c * y for x, y in zip(other[i], other[j]))
        other = data.draw(st.permutations(other + [(Q(0),) * n] * data.draw(st.integers(0, 2))))
        again = Subspace(alg, [integer(v) for v in other] if data.draw(st.booleans()) else other)
        assert again == u and hash(again) == hash(u)
        assert (again.d, again.rows) == (u.d, u.rows)
        assert (again == w) == (ub == wb)

    check()
