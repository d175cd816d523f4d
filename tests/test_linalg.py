import math
import random
from fractions import Fraction as Q
from math import lcm

import numpy as np
import pytest

from functal.linalg import (
    CRT_MIN_DIM,
    PRIME,
    RatMatrix,
    _eliminate,
    _is_prime,
    det,
    float_matrix,
    inverse,
    kernel,
    is_singular,
    kron,
    pencil_coefficients,
    primes_below,
    rank,
    ranks_mod_p,
    rref,
    vec,
)
from functal.algebra import mat
from functal.errors import SingularMatrix
from functal.functional import Functional, gram


def view(d, rows):
    """The Fraction vectors rows / d of an integer form."""
    return [tuple(Q(x, d) for x in row) for row in rows]


def kernel_view(m):
    return view(*kernel(m))


def rref_view(rows):
    d, reduced, pivots = rref(rows)
    return view(d, reduced), pivots


def cofactor_det(rows):
    # independent oracle: naive expansion along the first row
    n = len(rows)
    if n == 0:
        return Q(1)
    if n == 1:
        return rows[0][0]
    total = Q(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def rand_matrix(rng, n, denom=4):
    return RatMatrix([[Q(rng.randint(-9, 9), rng.randint(1, denom)) for _ in range(n)] for _ in range(n)])


def test_det_identity():
    assert det(RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1


def test_det_0x0_is_one():
    assert det(RatMatrix([])) == 1


def test_det_2x2_is_ad_minus_bc():
    rng = random.Random(2)
    for _ in range(20):
        a, b, c, d = (Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        assert det(RatMatrix([[a, b], [c, d]])) == a * d - b * c
        a, b, c, d = (rng.randint(-(10**12), 10**12) for _ in range(4))
        assert det([[a, b], [c, d]]) == a * d - b * c


def test_bareiss_entries_are_minors_of_the_input():
    # Sylvester's identity: with no row swap, after step k the entry (k, j),
    # j >= k, is the minor on rows 0..k and columns 0..k-1, j; so every
    # division by the previous pivot is exact
    rng = random.Random(3)
    checked = 0
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        a = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        k_max = min(n, m)
        if any(cofactor_det([row[:k] for row in a[:k]]) == 0 for k in range(1, k_max + 1)):
            continue
        rows = [list(row) for row in a]
        pivots, sign = _eliminate(rows)
        assert pivots == list(range(k_max)) and sign == 1
        for k in range(k_max):
            for j in range(k, m):
                assert rows[k][j] == cofactor_det([row[:k] + [row[j]] for row in a[: k + 1]])
            assert all(x == 0 for row in rows[k + 1 :] for x in row[: k + 1])
        checked += 1
    assert checked >= 20


def test_det_matches_cofactor_oracle():
    rng = random.Random(1)
    for n in range(1, 5):
        for _ in range(8):
            m = rand_matrix(rng, n)
            assert det(m) == cofactor_det([list(r) for r in m.data])


def test_kernel_zero_matrix():
    _, basis = kernel(RatMatrix([[0, 0], [0, 0]]))
    assert len(basis) == 2


def test_kernel_invertible_empty():
    assert kernel(RatMatrix([[1, 2], [3, 5]]))[1] == []


def test_kernel_shared_column_matrix():
    # 3x3 coefficient matrix with two ones in the last column, padded by a
    # zero row and column; the kernel holds v1, v2 and the padding direction
    m = RatMatrix(
        [
            [0, 0, 1, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
    )
    _, basis = kernel(m)
    assert len(basis) == 3
    for target in (vec([1, 0, 0, 0]), vec([0, 1, 0, 0]), vec([0, 0, 0, 1])):
        _, reduced, _ = rref(list(basis) + [target])
        assert len(reduced) == 3  # target already in the span


def test_kernel_vectors_annihilate_and_rank_nullity():
    rng = random.Random(3)
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = RatMatrix([[Q(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)])
        d, basis = kernel(m)
        assert d > 0
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m.integer_form()[1])
        assert len(basis) + rank(m) == cols


def test_kernel_deterministic_reduced_basis():
    m = RatMatrix([[1, 2, 3], [2, 4, 6]])
    assert kernel_view(m) == kernel_view(RatMatrix([[3, 6, 9], [1, 2, 3]]))


def test_inverse_and_singular():
    rng = random.Random(4)
    for _ in range(10):
        m = rand_matrix(rng, 3)
        if det(m) == 0:
            with pytest.raises(SingularMatrix):
                inverse(m)
        else:
            assert m @ inverse(m) == RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrix):
        inverse(RatMatrix([[1, 2], [2, 4]]))


def test_kron_block_structure():
    a = RatMatrix([[1, 2], [3, 4]])
    b = RatMatrix([[0, 5], [6, 7]])
    k = kron(a, b)
    assert k.rows == 4 and k.cols == 4
    assert k[0, 1] == 5 and k[2, 1] == 15 and k[3, 3] == 28


def test_det_kron_small():
    a = RatMatrix([[1, 2], [3, 5]])
    b = RatMatrix([[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    assert det(kron(a, b)) == det(a) ** 3 * det(b) ** 2


# ---------------------------------------------------------------------------
# differential tests against sympy, and laws of the canonical form


def _entry(rng):
    return Q(rng.randint(-9, 9), rng.randint(1, 6))


def _dense(rng, r, c):
    return [[_entry(rng) for _ in range(c)] for _ in range(r)]


def _product(rng, r, k, c):
    # rank at most k: an r x k factor times a k x c factor
    a, b = _dense(rng, r, k), _dense(rng, k, c)
    return [[sum((a[i][l] * b[l][j] for l in range(k)), Q(0)) for j in range(c)] for i in range(r)]


def sample_matrices(rng):
    """Square, wide, tall, rank-deficient, with zero rows and columns, degenerate shapes."""
    out = []
    for _ in range(6):
        n = rng.randint(1, 5)
        out.append(_dense(rng, n, n))
        out.append(_dense(rng, rng.randint(1, 3), rng.randint(4, 7)))
        out.append(_dense(rng, rng.randint(4, 7), rng.randint(1, 3)))
        r, c = rng.randint(2, 6), rng.randint(2, 6)
        out.append(_product(rng, r, rng.randint(1, min(r, c) - 1), c))
        out.append(_product(rng, n, max(1, n - 1), n))
        m = _dense(rng, rng.randint(2, 5), rng.randint(2, 5))
        m[rng.randrange(len(m))] = [Q(0)] * len(m[0])
        out.append(m)
        m = _product(rng, rng.randint(2, 5), 2, rng.randint(2, 5))
        z = rng.randrange(len(m[0]))
        out.append([row[:z] + [Q(0)] + row[z:] for row in m])
        m = _dense(rng, n, n)
        m[0][0] = Q(0)  # forces a row swap
        out.append(m)
        out.append(_dense(rng, 1, rng.randint(1, 6)))
        out.append(_dense(rng, rng.randint(1, 6), 1))
    out += [[[Q(0)] * 4 for _ in range(3)], [[Q(0), Q(1)], [Q(1), Q(0)]], [[Q(0)]]]
    return out


def test_kernel_rank_det_inverse_match_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(rows):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])

    def from_sympy(x):
        return Q(int(x.p), int(x.q))

    for rows in sample_matrices(random.Random(6)):
        m, s = RatMatrix(rows), to_sympy(rows)
        d, ints, _ = rref(m.data)
        assert d > 0 and all(type(x) is int for r in ints for x in r)
        reduced, pivots = rref_view(m.data)
        s_reduced, s_pivots = s.rref()
        assert pivots == s_pivots
        assert [list(r) for r in reduced] == [
            [from_sympy(x) for x in s_reduced.row(i)] for i in range(len(s_pivots))
        ]
        assert kernel_view(m) == [tuple(from_sympy(x) for x in v) for v in s.nullspace()]
        assert rank(m) == s.rank()
        if m.is_square():
            d = det(m)
            assert d == from_sympy(s.det())
            if d == 0:
                with pytest.raises(SingularMatrix):
                    inverse(m)
            else:
                inv = s.inv()
                assert inverse(m) == RatMatrix([[from_sympy(inv[i, j]) for j in range(m.cols)] for i in range(m.rows)])
    assert rref([]) == (1, (), ())
    assert kernel(RatMatrix([])) == (1, []) and rank(RatMatrix([])) == 0


def test_kernel_and_rank_take_integer_rows():
    for rows in sample_matrices(random.Random(7)) + [[], [[], []], [[Q(0)] * 3 for _ in range(2)]]:
        # each row times the lcm of its denominators has the same kernel and rank
        ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows]
        assert kernel_view(ints) == kernel_view(RatMatrix(rows)), rows
        assert rank(ints) == rank(RatMatrix(rows)), rows
    assert kernel([[1, 2, 3]]) == (1, [(-2, 1, 0), (-3, 0, 1)])


def stack(matrices):
    """The int64 stack of same-shaped integer matrices, each entry reduced mod
    PRIME with Python integers first."""
    r = len(matrices[0])
    n = len(matrices[0][0]) if r else 0
    return np.array([[[x % PRIME for x in row] for row in m] for m in matrices], dtype=np.int64).reshape(len(matrices), r, n)


def rank_mod_p(rows):
    return int(ranks_mod_p(stack([rows]))[0])


def test_rank_mod_p_matches_rank_on_integer_rows():
    for rows in sample_matrices(random.Random(8)) + [[], [[], []], [[0] * 3 for _ in range(2)]]:
        ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows]
        assert rank_mod_p(ints) == rank(ints), rows
    # below the rank over Q only when PRIME divides every maximal minor
    assert rank_mod_p([[PRIME]]) == 0 and rank_mod_p([[1, 0], [0, PRIME]]) == 1
    assert rank_mod_p([[PRIME - 1, 2**64], [1, -(2**64)]]) == 1 < rank([[PRIME - 1, 2**64], [1, -(2**64)]])


def test_rank_mod_p_reduces_entries_beyond_the_word():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # an entry x + k*PRIME with |x| <= 9: negative, at least PRIME, past 2**63, or a multiple of PRIME
    lift = st.sampled_from([0, 0, 1, -1, 3, 2**33, -(2**40), 2**64])
    entries = st.tuples(st.integers(-9, 9), lift)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        rows=st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
            lambda rc: st.lists(st.lists(entries, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0])
        )
    )
    def check(rows):
        small = [[x for x, _ in row] for row in rows]
        lifted = [[x + k * PRIME for x, k in row] for row in rows]
        assert rank_mod_p(lifted) == rank_mod_p(small) == rank(small)
        assert rank_mod_p([[k * PRIME for _, k in row] for row in rows]) == 0

    check()


def _matrices(st, max_rows=5, max_cols=6):
    entries = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c).map(tuple), min_size=1, max_size=max_rows)
    )


def test_rref_depends_only_on_the_row_space():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(rows=_matrices(st), data=st.data())
    def check(rows, data):
        nonzero = st.builds(Q, st.integers(-5, 5).filter(bool), st.integers(1, 5))
        n = len(rows)
        scales = data.draw(st.lists(nonzero, min_size=n, max_size=n))
        out = [tuple(s * x for x in row) for s, row in zip(scales, rows)]
        # replace rows by combinations with the other rows, then add combinations
        for i, j, c in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), nonzero), max_size=4)):
            if i != j:
                out[i] = tuple(x + c * y for x, y in zip(out[i], out[j]))
        for i, j, c in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), nonzero), max_size=2)):
            out.append(tuple(x + c * y for x, y in zip(out[i], out[j])))
        out = data.draw(st.permutations(out))
        assert rref_view(out) == rref_view(rows)

    check()


# ---------------------------------------------------------------------------
# matrix arithmetic over the integer form, against its entrywise definition


def _assert_matrix(m, rows):
    """m is the RatMatrix with these Fraction rows, and its integer form is canonical."""
    assert type(m) is RatMatrix
    assert (m.rows, m.cols) == (len(rows), len(rows[0]) if rows else 0)
    assert all(type(x) is Q for row in m.data for x in row)
    assert m.data == tuple(tuple(row) for row in rows)
    d, ints = m.integer_form()
    assert d > 0 and ints == tuple(tuple(x * d for x in row) for row in rows)
    assert m.integer_form() == RatMatrix(rows).integer_form()


def _ref_product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0)) for j in range(len(b[0]))] for i in range(len(a))]


def test_matrix_arithmetic_matches_the_entrywise_definition():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # small, negative and zero entries, and numerators and denominators past the word
    entries = st.one_of(
        st.just(Q(0)),
        st.builds(Q, st.integers(-9, 9), st.integers(1, 4)),
        st.builds(Q, st.integers(-(2**80), 2**80), st.integers(1, 2**80)),
    )

    def matrices(r, c):
        zero = st.just([[Q(0)] * c for _ in range(r)])
        return st.one_of(zero, st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))

    dims = st.integers(1, 4)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(shape=st.tuples(dims, dims, dims, dims), data=st.data())
    def check(shape, data):
        r, k, c, s = shape
        a = data.draw(matrices(r, k))
        a2 = data.draw(matrices(r, k))
        b = data.draw(matrices(k, c))
        e = data.draw(matrices(c, s))
        x = data.draw(entries)
        ma, ma2, mb, me = RatMatrix(a), RatMatrix(a2), RatMatrix(b), RatMatrix(e)

        _assert_matrix(ma @ mb, _ref_product(a, b))
        _assert_matrix(ma @ mb @ me, _ref_product(_ref_product(a, b), e))
        _assert_matrix(kron(ma, mb), [[y * z for y in ra for z in rb] for ra in a for rb in b])
        _assert_matrix(kron(mb, ma), [[y * z for y in rb for z in ra] for rb in b for ra in a])
        _assert_matrix(ma.transpose(), [list(col) for col in zip(*a)])
        _assert_matrix(ma.scale(x), [[x * y for y in row] for row in a])
        _assert_matrix(ma + ma2, [[y + z for y, z in zip(u, w)] for u, w in zip(a, a2)])
        assert (ma == ma2) == (a == a2) and ma == RatMatrix(a) and ma.scale(1) == ma
        assert (ma == RatMatrix(a).scale(2)) == (not any(map(any, a)))
        if r == k and det(ma) != 0:
            inv = inverse(ma)
            _assert_matrix(inv, [list(row) for row in inv.data])
            eye = [[Q(int(i == j)) for j in range(r)] for i in range(r)]
            assert _ref_product(a, [list(row) for row in inv.data]) == eye
            assert _ref_product([list(row) for row in inv.data], a) == eye

    check()
    # degenerate shapes: a 1 x 1 matrix and products through a zero matrix
    one = RatMatrix([[Q(-3, 2**90)]])
    _assert_matrix(one @ one, [[Q(9, 2**180)]])
    _assert_matrix(inverse(one), [[Q(-(2**90), 3)]])
    _assert_matrix(RatMatrix([[0, 0, 0], [0, 0, 0]]).transpose() @ RatMatrix([[Q(1, 7), 2], [0, -1]]), [[Q(0)] * 2 for _ in range(3)])


def test_equal_matrices_have_one_form_and_one_hash():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = st.one_of(
        st.builds(Q, st.integers(-9, 9), st.integers(1, 4)),
        st.builds(Q, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
    )

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        rows=st.integers(1, 4).flatmap(lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=4)),
        k=st.integers(1, 2**40),
    )
    def check(rows, k):
        m = RatMatrix(rows)
        d, ints = m.integer_form()
        # the same matrix from any multiple of its integer form
        scaled = RatMatrix.from_integer_form(k * d, tuple(tuple(k * x for x in row) for row in ints))
        assert scaled.integer_form() == (d, ints)
        assert scaled == m and hash(scaled) == hash(m)
        assert scaled.data == m.data == tuple(map(tuple, rows))
        other = RatMatrix.from_integer_form(d + 1, ints)
        assert (other == m) == (not any(map(any, ints)))

    check()


def _unbuilt(*ms):
    return all(m._data is None for m in ms)


def test_arithmetic_builds_no_fraction_view():
    # gram of non-integer coordinates: its form has d > 1
    f = Functional(mat(2), (Q(1, 2), Q(2, 3), Q(-3), Q(5, 7)))
    m = gram(f)
    assert m.integer_form()[0] > 1 and _unbuilt(m)
    t = m.transpose()
    prod = m @ t
    k = kron(m, t)
    sc = m.scale(Q(-3, 4))
    inv = inverse(m)
    total = m + sc + t
    assert _unbuilt(m, t, prod, k, sc, inv, total)
    # nor do reading the form, equality, hashing, rank, det, kernel or the float view
    assert m == gram(Functional(mat(2), f.coords)) and hash(m) == hash(gram(Functional(mat(2), f.coords)))
    assert rank(m) == 4 and det(m) != 0 and kernel(m)[1] == []
    float_matrix(m)
    assert _unbuilt(m, t, prod, k, sc, inv, total)
    # the view is built at its first read, equal entries sharing one Fraction
    z = RatMatrix.from_integer_form(3, ((1, 2), (2, 1)))
    assert z[0, 1] == Q(2, 3) and z.data[0][1] is z.data[1][0]


def test_det_of_rational_matrices_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(24)
    for n in (1, 2, 3, 4, 5, 6, 6, 7):
        for big in (False, True):
            hi = 2**70 if big else 9
            rows = [[Q(rng.randint(-hi, hi), rng.randint(1, hi)) for _ in range(n)] for _ in range(n)]
            if n > 1 and not big:
                rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]  # singular
            want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]).det()
            got = det(RatMatrix(rows))
            assert type(got) is Q and got == Q(int(want.p), int(want.q))


def test_float_matrix_rounds_each_entry_as_its_fraction_does():
    # d and the entries past 2**53: converting each to float before dividing
    # would round twice
    rng = random.Random(53)
    seen = 0
    for _ in range(50):
        d = rng.randrange(2**53, 2**75)
        rows = tuple(tuple(rng.randrange(-(2**80), 2**80) for _ in range(4)) for _ in range(3))
        m = RatMatrix.from_integer_form(d, rows)
        got = float_matrix(m)
        assert got.dtype == complex and got.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert got[i, j].imag == 0 and got[i, j].real.hex() == float(m[i, j]).hex()
                seen += float(rows[i][j]) / float(d) != rows[i][j] / d
    assert seen  # the rounding twice would have differed somewhere


def test_ranks_mod_p_of_a_stack_match_exact_ranks():
    # members of one stack have different ranks and pivot rows, zero columns,
    # and entries x + k*PRIME: negative, at least 2**63, or multiples of PRIME
    rng = random.Random(17)
    lifts = [0, 0, 0, 1, -1, 5, 2**33, -(2**40), 2**64]
    spread = 0
    for _ in range(150):
        r, n, s = rng.randint(1, 7), rng.randint(1, 7), rng.randint(2, 6)
        zero_cols = {j for j in range(n) if rng.random() < 0.2}
        small = []
        for _ in range(s):
            k = rng.randint(0, min(r, n))
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
            right = [[0 if j in zero_cols else rng.randint(-3, 3) for j in range(n)] for _ in range(k)]
            m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if k else [0] * n for row in left]
            rng.shuffle(m)
            small.append(m)
        lifted = [[[x + rng.choice(lifts) * PRIME for x in row] for row in m] for m in small]
        want = [rank(m) for m in small]
        assert ranks_mod_p(stack(lifted)).tolist() == want, small
        assert ranks_mod_p(stack([[[rng.choice(lifts) * PRIME for x in row] for row in m] for m in small])).tolist() == [0] * s
        spread += len(set(want)) > 1
    assert spread > 100


def test_ranks_mod_p_of_an_empty_stack():
    assert ranks_mod_p(np.zeros((0, 3, 3), dtype=np.int64)).tolist() == []
    assert ranks_mod_p(np.zeros((2, 0, 3), dtype=np.int64)).tolist() == [0, 0]
    # the caller's stack is left as it was
    a = np.array([[[2, 1], [4, 3]]], dtype=np.int64)
    assert ranks_mod_p(a).tolist() == [2] and a.tolist() == [[[2, 1], [4, 3]]]


def _node_dets(p, q, nodes):
    """det(t*P + Q) for t = 0..nodes-1 by Bareiss `det`."""
    return [det([[t * x + y for x, y in zip(u, w)] for u, w in zip(p, q)]).numerator for t in range(nodes)]


def _pencil_cases(rng):
    """(name, P, Q, nodes) for n = 1..30 across CRT_MIN_DIM: general and
    reciprocal pencils, singular nodes, zero rows, negative entries and
    entries past 2**62 and 2**63."""
    for n in range(1, 31):
        p = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        q = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        yield f"general {n}", p, q, n + 1
        yield f"reciprocal {n}", p, [list(col) for col in zip(*p)], n // 2 + 1
        if n % 3 == 0:
            # t*P + Q is singular at t = 2 and, with a zero row, at every node
            s = [row[:] for row in p]
            s[-1] = [x + y for x, y in zip(s[0], s[n // 2])] if n > 1 else [0]
            yield f"singular at 2 {n}", p, [[y - 2 * x for x, y in zip(u, w)] for u, w in zip(p, s)], n + 1
            zero = [row[:] for row in q]
            zero[n // 2] = [0] * n
            yield f"zero row {n}", [row[:] for row in zero], zero, n + 1
        if n in (2, 13, 17):
            for e in (62, 63, 80):
                big = [[rng.choice((-1, 1)) * rng.randint(2**e - 2**20, 2**e) for _ in range(n)] for _ in range(n)]
                yield f"2**{e} {n}", big, [list(col) for col in zip(*big)], n // 2 + 1
            yield f"2**80 general {n}", big, q, n + 1


def _values(coeffs, nodes):
    """R(t) for t = 0..nodes-1 from the coefficients of R, low to high."""
    return [sum(c * t**k for k, c in enumerate(coeffs)) for t in range(nodes)]


def test_pencil_coefficients_match_bareiss_across_the_cut_over():
    signs = set()
    for name, p, q, nodes in _pencil_cases(random.Random(21)):
        n = len(p)
        want = _node_dets(p, q, n + 1)
        assert _values(pencil_coefficients(p, q, nodes), n + 1) == want, name
        signs |= {(x > 0) - (x < 0) for x in want}
    assert signs == {-1, 0, 1}


def _unimodular(n, rng):
    """A random integer matrix of determinant 1, as rows: a product of
    elementary row additions with small multipliers."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def _times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _scrambled(p, q, rng):
    """U P V and U Q V for unimodular U and V: the same det(t*P + Q), with
    no zero row or column left."""
    n = len(p)
    u, v = _unimodular(n, rng), _unimodular(n, rng)
    return _times(_times(u, p), v), _times(_times(u, q), v)


def _block(blocks):
    """The block-diagonal rows of square blocks."""
    n = sum(len(b) for b in blocks)
    out, at = [], 0
    for b in blocks:
        for row in b:
            out.append([0] * at + list(row) + [0] * (n - at - len(row)))
        at += len(b)
    return out


def test_pencil_coefficients_of_singular_and_degenerate_pencils():
    rng = random.Random(24)
    n = 12
    dense = [[rng.randint(-9, 9) for _ in range(n - 3)] for _ in range(n - 3)]
    # R = 0 with a common kernel vector: column n-1 is column 0 plus column 1
    p = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    q = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    for m in (p, q):
        for row in m:
            row[-1] = row[0] + row[1]
    assert pencil_coefficients(p, q, n + 1) == [0] * (n + 1)
    # R = 0 without one: the 3 x 3 block [[t, 1, 0], [0, 0, t], [0, 0, 1]]
    # has minimal indices 1, so every prime is singular at every node
    p = _block([[[1, 0, 0], [0, 0, 1], [0, 0, 0]], dense])
    q = _block([[[0, 1, 0], [0, 0, 0], [0, 0, 1]], dense])
    p, q = _scrambled(p, q, rng)
    assert rank(p + q) == rank([u + w for u, w in zip(p, q)]) == n
    assert pencil_coefficients(p, q, n + 1) == [0] * (n + 1)
    # R(t) = t^3 (t - 2)(t - 3)(t - 4)(t - 5)(t + 7) times a 4 x 4 pencil's
    # det: singular at the first four nodes, so every prime takes t0 = 6
    p = _block([[[1]]] * 8 + [[[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]])
    q = _block([[[-r]] for r in (0, 0, 0, 2, 3, 4, 5, -7)] + [[[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]])
    p, q = _scrambled(p, q, rng)
    want = _node_dets(p, q, n + 1)
    assert want[2:6] == [0] * 4 and want[6] != 0
    assert _values(pencil_coefficients(p, q, n + 1), n + 1) == want
    # every entry a multiple of the first prime, which divides every
    # coefficient: that prime is singular at every node, and entries pass 2**63
    first = primes_below(1, math.isqrt(2**51 // n))[0]
    big = [[first * 2**41 * rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    assert max(abs(x) for row in big for x in row) >= 2**63
    general = [[first * x for x in row] for row in _block([dense, [[1, 2, 0], [0, 1, 1], [3, 0, 1]]])]
    for p, q, nodes in ((big, [list(col) for col in zip(*big)], n // 2 + 1), (big, general, n + 1)):
        want = _node_dets(p, q, n + 1)
        assert all(x % first**n == 0 for x in want) and any(want)
        assert _values(pencil_coefficients(p, q, nodes), n + 1) == want


def _sylvester(k):
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def test_pencil_coefficients_at_the_coefficient_bound():
    # P = Q = D diagonal: R(t) = (t + 1)^n det D, R_k = C(n, k) det D, and the
    # bound prod_i sqrt(|P_i|^2 + 2|P_i.Q_i| + |Q_i|^2) is 2^n |det D|; with
    # det D chosen so, a bound one prime short cannot carry C(n, n/2) det D
    n = 12
    primes = primes_below(8, math.isqrt(2**51 // n))
    middle = math.comb(n, n // 2)
    x = math.prod(primes[:2]) // (2 * middle) + 1
    # the bound asks for three primes, and two cannot carry C(n, n/2) x
    assert math.prod(primes[:2]) <= 2 * 2**n * x < math.prod(primes[:3])
    assert 2 * middle * x > math.prod(primes[:2])
    d = _block([[[x]]] + [[[1]]] * (n - 1))
    want = [math.comb(n, j) * x for j in range(n + 1)]
    assert pencil_coefficients(d, d, n // 2 + 1) == want
    # a general pencil (t - 4) * s * H for H the column-reversed Sylvester-Hadamard
    # matrix of order 16, which meets Hadamard's bound, singular at t = 4
    m, s = 16, 3**5
    p = [[s * y for y in row[::-1]] for row in _sylvester(4)]
    q = [[-4 * y for y in row] for row in p]
    assert pencil_coefficients(p, q, m + 1) == [math.comb(m, j) * (-4) ** (m - j) * det(p).numerator for j in range(m + 1)]


def test_primes_below_are_the_largest_primes_up_to_prime():
    sympy = pytest.importorskip("sympy")
    primes = primes_below(40, PRIME)
    assert primes[0] == PRIME == sympy.prevprime(2**31 - 1)
    assert all(sympy.isprime(x) for x in primes)
    assert all(sympy.prevprime(x) == y for x, y in zip(primes, primes[1:]))
    assert primes_below(3, PRIME) == primes[:3]
    assert primes_below(2, 2**21) == (sympy.prevprime(2**21), sympy.prevprime(sympy.prevprime(2**21)))
    rng = random.Random(22)
    for x in [rng.randrange(9, 2**31, 2) for _ in range(3000)] + [25326001, 3215031751 - 2, 1093**2, 2047]:
        assert _is_prime(x) == sympy.isprime(x), x


def test_is_singular_across_the_cut_over(monkeypatch):
    rng = random.Random(23)
    for n in range(1, CRT_MIN_DIM + 16):
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        sing = [row[:] for row in m]
        sing[-1] = [2 * x - y for x, y in zip(sing[0], sing[(n - 1) // 2])] if n > 1 else [0]
        assert is_singular(m) == (det(m) == 0) and is_singular(sing)
    # det = the prime it screens with: a zero residue goes to the exact det
    n = CRT_MIN_DIM
    prime = primes_below(1, math.isqrt(2**51 // n))[0]
    diag = [[prime if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
    exact = []
    monkeypatch.setattr("functal.linalg.det", lambda rows: exact.append(rows) or det(rows))
    assert not is_singular(diag) and exact == [diag]
    assert not is_singular([row[::-1] for row in m]) and len(exact) == 1
    assert is_singular([[x * 2**70 for x in row] for row in diag[:-1]] + [[0] * n])
