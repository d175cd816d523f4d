import importlib
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from functal.algebra import (
    direct_sum,
    mat,
    nilpotent_pair,
    seaweed,
    tensor_product,
    unital_extension,
    ut,
    validate,
)
from functal.errors import NoRegularAlpha0, ZeroPolynomial
from functal.functional import ALPHA_INF, Alpha, Functional, Subspace, gram, nil, pencil_at, stab, trace_functional
from functal.gallery import gallery_algebras
from functal.linalg import PRIME, RatMatrix, det, is_singular, rank
from functal.poly import uni_roots
from functal.sampling import SamplerConfig, random_functional, sample_functionals
from functal.scalars import ComplexApprox
from functal.spectrum import (
    char_poly,
    char_poly_raw,
    classify,
    constant_spectrum_alphas,
    find_regular,
    index,
    jordan_spaces,
    regularity_corollary_suite,
    spectrum,
)
from sympy_oracle import poly

# the module, which the package's `spectrum` function shadows
spectrum_module = importlib.import_module("functal.spectrum")

NONDIAG_B = [[0, 0, 2, 0], [0, 0, 1, 2], [1, 0, 0, 0], [0, 1, 0, 0]]


def rand_functional(alg, rng, lo=-20, hi=20):
    return Functional(alg, tuple(Q(rng.randint(lo, hi)) for _ in range(alg.dim)))


def symbols():
    return pytest.importorskip("sympy").symbols("lam mu")


def scaled(f, c):
    return Functional(f.algebra, tuple(c * x for x in f.coords))


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------


def test_char_poly_ut2_all_ones():
    f = Functional(ut(2), (Q(1), Q(1), Q(1)))
    lam, mu = symbols()
    expected = poly(-2 * lam * mu * (lam + mu))
    assert char_poly_raw(f) == expected
    assert char_poly(f) == expected.canonical()


def test_char_poly_zero_functional():
    assert char_poly(Functional(ut(2), (0, 0, 0))).is_zero()


def test_char_poly_mat2_diag12():
    f = trace_functional(mat(2), RatMatrix([[1, 0], [0, 2]]))
    lam, mu = symbols()
    expected = poly(-2 * (lam + mu) ** 2 * (2 * (lam - mu) ** 2 + 9 * lam * mu))
    assert char_poly(f) == expected.canonical()
    # independent oracle: expand the 4x4 pencil determinant by cofactors, in sympy
    m = gram(f)
    entries = [[lam * m[i, j] + mu * m[j, i] for j in range(4)] for i in range(4)]

    def cof(rows):
        if len(rows) == 1:
            return rows[0][0]
        return sum((-1) ** j * cell * cof([r[:j] + r[j + 1 :] for r in rows[1:]]) for j, cell in enumerate(rows[0]))

    assert char_poly_raw(f) == poly(cof(entries)) == expected


def test_char_poly_restricted_to_subspace():
    m2 = mat(2)
    f = trace_functional(m2, RatMatrix([[1, 0], [0, 2]]))
    chi = char_poly_raw(f, [0, 3])  # the diagonal units
    lam, mu = symbols()
    assert chi == poly(2 * (lam + mu) ** 2)


def assert_closed_form(alg, closed_form, seed):
    """chi_F of random F on `alg` is `closed_form(lam, mu, *coords)`, a formula
    in F's coordinates in the order of `alg.labels`."""
    sympy = pytest.importorskip("sympy")
    lam, mu = symbols()
    rng = random.Random(seed)
    for _ in range(10):
        f = rand_functional(alg, rng)
        coords = [sympy.Rational(c.numerator, c.denominator) for c in f.coords]
        assert char_poly_raw(f) == poly(sympy.expand(closed_form(lam, mu, *coords))), f.coords


def test_char_poly_mat2_closed_form():
    assert_closed_form(
        mat(2),
        lambda lam, mu, a, b, c, d: -((lam + mu) ** 2) * (a * d - b * c) * ((lam - mu) ** 2 * (a * d - b * c) + lam * mu * (a + d) ** 2),
        seed=10,
    )


def test_char_poly_seaweed_12_21_closed_form():
    assert_closed_form(
        seaweed([1, 2], [2, 1]),
        lambda lam, mu, a, b, c, d, e: lam**2 * mu**2 * (lam + mu) * b**2 * d**2 * (a + c + e),
        seed=11,
    )


def test_char_poly_ut2_closed_form():
    assert_closed_form(ut(2), lambda lam, mu, a, b, c: -lam * mu * b**2 * (lam + mu) * (a + c), seed=12)


def test_char_poly_matches_sympy_pencil_on_small_algebras():
    # sympy's own determinant of lam*B + mu*B^T, B the Gram matrix of F
    sympy = pytest.importorskip("sympy")
    lam, mu = symbols()
    rng = random.Random(0)
    for alg in (mat(2), ut(2), ut(3), seaweed([1, 2], [2, 1]), seaweed([2, 1], [1, 2])):
        for _ in range(3):
            f = rand_functional(alg, rng)
            b = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in gram(f).data])
            expected = poly(sympy.expand((lam * b + mu * b.T).det(method="berkowitz")))
            assert char_poly_raw(f) == expected
            assert char_poly(f) == expected.canonical()


def test_char_poly_of_dimension_16_matches_sympy_at_other_nodes():
    # mat(2) ⊗ mat(2): chi is homogeneous of degree 16 and chi(t, 1) is
    # det(t*B + B^T) at nodes outside the 0..8 that pencil_det takes for it
    sympy = pytest.importorskip("sympy")
    alg = tensor_product(mat(2), mat(2))
    f = rand_functional(alg, random.Random(13), lo=-3, hi=3)
    chi = char_poly_raw(f)
    assert chi.terms and all(i + j == alg.dim for i, j in chi.terms)
    b = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in gram(f).data])
    for t in (sympy.Integer(-2), sympy.Integer(11), sympy.Rational(1, 3)):
        value = sum(sympy.Rational(c.numerator, c.denominator) * t**i for (i, _), c in chi.terms.items())
        assert value == (t * b + b.T).det(method="bareiss")


# ---------------------------------------------------------------------------
# pencil polynomial and spectrum
# ---------------------------------------------------------------------------


def test_pencil_poly_mat2_roots():
    f = trace_functional(mat(2), RatMatrix([[1, 0], [0, 2]]))
    p = char_poly_raw(f).dehomogenize()
    from functal.poly import uni_roots

    roots = dict(uni_roots(p))
    assert roots == {Q(1): 2, Q(2): 1, Q(1, 2): 1}


def test_pencil_poly_ut2():
    f = Functional(ut(2), (Q(1), Q(1), Q(1)))
    p = char_poly_raw(f).dehomogenize()
    assert p.degree == 2
    assert p(0) == 0 and p(1) == 0


def test_pencil_poly_zero_chi_raises():
    alg = nilpotent_pair([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    f = Functional.from_dict(alg, {"w": 1})
    chi = char_poly_raw(f)
    assert chi.is_zero()
    with pytest.raises(ZeroPolynomial):
        uni_roots(chi.dehomogenize())
    assert spectrum(f).degenerate


def test_spectrum_mat2_diag12():
    f = trace_functional(mat(2), RatMatrix([[1, 0], [0, 2]]))
    rep = spectrum(f)
    got = {
        str(e.alpha): (e.multiplicity, e.stab_dim, e.precise)
        for e in rep.entries
    }
    assert got == {"1": (2, 2, True), "2": (1, 1, True), "1/2": (1, 1, True)}
    assert rep.zero_entry.multiplicity == 0 and rep.infinity_entry.multiplicity == 0
    assert not rep.degenerate


def test_spectrum_seaweed_21_12():
    rng = random.Random(1)
    f = rand_functional(seaweed([2, 1], [1, 2]), rng, lo=1, hi=20)
    rep = spectrum(f)
    assert rep.zero_entry.multiplicity == 2 and rep.zero_entry.stab_dim == 2
    assert rep.infinity_entry.multiplicity == 2 and rep.infinity_entry.stab_dim == 2
    one = [e for e in rep.entries if str(e.alpha) == "1"]
    assert one and one[0].multiplicity == 1 and one[0].stab_dim == 1
    assert all(e.precise for e in rep.all_entries())


def test_spectrum_ut2_tensor_ut2_dims():
    rng = random.Random(2)
    ta = tensor_product(ut(2), ut(2))
    f = rand_functional(ta, rng, lo=1, hi=20)
    rep = spectrum(f)
    dims = {str(e.alpha): e.stab_dim for e in rep.all_entries()}
    assert dims == {"0": 3, "1": 3, "inf": 3}


def test_spectrum_degenerate_flag():
    alg = nilpotent_pair([[1]])
    f = Functional.from_dict(alg, {"w": 1})
    rep = spectrum(f)
    assert rep.degenerate
    assert rep.all_entries()[0].stab_dim > 0


def test_spectrum_numeric_entries_for_irrational_roots():
    # eigenvalue ratios of diag-izable F with non-rational spectrum
    f = trace_functional(mat(2), RatMatrix([[1, 1], [1, 0]]))
    rep = spectrum(f)
    assert not rep.degenerate
    approx = [e for e in rep.entries if isinstance(e.alpha, ComplexApprox)]
    assert approx
    assert sum(e.multiplicity for e in rep.all_entries()) == 4
    for e in approx:
        assert e.stab_dim >= 1


def test_spectrum_symmetry_alpha_inverse():
    rng = random.Random(3)
    for alg in (ut(3), seaweed([1, 2], [2, 1])):
        f = rand_functional(alg, rng, lo=1, hi=20)
        rep = spectrum(f)
        dims = {str(e.alpha): e.stab_dim for e in rep.all_entries() if isinstance(e.alpha, Alpha)}
        for e in rep.all_entries():
            if isinstance(e.alpha, Alpha):
                inv = e.alpha.inverse()
                assert dims.get(str(inv)) == e.stab_dim


def _stab_dim_oracle(f, e):
    """dim stab(alpha) computed outright: n - rank of the pencil at an exact
    alpha, the float SVD count at an irrational one."""
    gm = gram(f)
    if isinstance(e.alpha, ComplexApprox):
        fm = np.array([[complex(x) for x in row] for row in gm.data])
        return spectrum_module._numeric_kernel_dim(fm, e.alpha.as_complex())
    return f.algebra.dim - rank(pencil_at(gm, e.alpha))


def _differential_functionals():
    algs = dict(gallery_algebras())
    algs.update(
        {
            "mat:3": mat(3),
            "ut:4": ut(4),
            "tensor:mat:2;ut:3": tensor_product(mat(2), ut(3)),
            "seaweed:2,1,1;1,3": seaweed([2, 1, 1], [1, 3]),
            "seaweed:2,2,1;1,3,1": seaweed([2, 2, 1], [1, 3, 1]),
        }
    )
    for name, alg in algs.items():
        rng = random.Random(name)
        for k in range(6):
            bound = 2 if k % 2 else 20  # small coordinates give multiple and degenerate roots
            yield Functional(alg, tuple(Q(rng.randint(-bound, bound)) for _ in range(alg.dim)))
    # a multiple root with stab_dim below it, and multiple irrational roots:
    # diag(1, 2) (+) [[0, 2], [1, 0]] has roots +-sqrt(2) and +-1/sqrt(2) of order 2
    yield Functional.from_dict(
        unital_extension(nilpotent_pair(NONDIAG_B)), {"one": 1, "v1": 2, "v2": 3, "v3": 5, "v4": 7, "w": 1}
    )
    yield trace_functional(mat(4), RatMatrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]))


def test_spectrum_stab_dims_match_the_outright_computation():
    """Every stab_dim, decided by the multiplicity or computed, equals the
    rank or SVD count at its alpha; the corpus holds roots of order 2 with
    dimension 1 and 2, and irrational roots of order 2 and 3."""
    seen = set()
    for f in _differential_functionals():
        rep = spectrum(f)
        for e in (rep.zero_entry, *rep.entries, rep.infinity_entry):
            assert e.stab_dim == _stab_dim_oracle(f, e), (f, e)
            assert e.precise == (not rep.degenerate and e.stab_dim == e.multiplicity)
            seen.add((isinstance(e.alpha, ComplexApprox), e.multiplicity, e.stab_dim))
    assert {(False, 2, 1), (False, 2, 2), (True, 2, 2), (True, 3, 3)} <= seen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectrum_work_counts_on_mat5(monkeypatch, seed):
    """`spectrum --algebra mat:5 --seed s`: the multiplicity decides every
    simple root, so only the shared 0/infinity entry takes a rank and no
    SVD runs (3 ranks and 20 SVDs each when every root took one)."""
    counts = {"rank": 0, "svd": 0}
    real_rank, real_svd = spectrum_module.rank, spectrum_module._numeric_kernel_dim

    def counted(key, real):
        def wrapper(*args):
            counts[key] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(spectrum_module, "rank", counted("rank", real_rank))
    monkeypatch.setattr(spectrum_module, "_numeric_kernel_dim", counted("svd", real_svd))
    spectrum(random_functional(mat(5), random.Random(seed)))
    assert counts == {"rank": 1, "svd": 0}


# ---------------------------------------------------------------------------
# jordan levels
# ---------------------------------------------------------------------------


def test_jordan_level_one_is_stab():
    rng = random.Random(4)
    for alg in (ut(2), seaweed([2, 1], [1, 2])):
        f = rand_functional(alg, rng, lo=1, hi=20)
        for a in spectrum(f).exact_alphas():
            jf = jordan_spaces(f, a)
            assert jf.levels[0] == stab(f, a)


def test_jordan_mat2_diagonalizable_completeness():
    f = trace_functional(mat(2), RatMatrix([[1, 0], [0, 2]]))
    total = []
    for a in spectrum(f).exact_alphas():
        jf = jordan_spaces(f, a)
        assert len(jf.levels) == 1
        total.extend(jf.top.basis)
    assert Subspace(mat(2), total).dim == 4


def test_jordan_nondiagonalizable_strict_growth():
    alg = unital_extension(nilpotent_pair(NONDIAG_B))
    assert validate(alg) == []
    f = Functional.from_dict(alg, {"one": 1, "v1": 2, "v2": 3, "v3": 5, "v4": 7, "w": 1})
    rep = spectrum(f)
    by_alpha = {str(e.alpha): e for e in rep.all_entries()}
    assert by_alpha["2"].multiplicity == 2 and by_alpha["2"].stab_dim == 1
    assert not by_alpha["2"].precise
    jf = jordan_spaces(f, Q(2))
    assert [s.dim for s in jf.levels] == [1, 2]
    assert jf.levels[0].basis != jf.levels[1].basis
    assert jf.levels[1].contains_subspace(jf.levels[0])
    # completeness via top levels
    tops = []
    for a in rep.exact_alphas():
        tops.extend(jordan_spaces(f, a).top.basis)
    assert Subspace(alg, tops).dim == alg.dim


def test_jordan_alpha0_independence():
    alg = unital_extension(nilpotent_pair(NONDIAG_B))
    f = Functional.from_dict(alg, {"one": 1, "v1": 2, "v2": 3, "v3": 5, "v4": 7, "w": 1})
    a = jordan_spaces(f, Q(2), alpha0=Q(0))
    b = jordan_spaces(f, Q(2), alpha0=Q(3))
    assert tuple(s.basis for s in a.levels) == tuple(s.basis for s in b.levels)
    with pytest.raises(ValueError):
        jordan_spaces(f, Q(2), alpha0=Q(2))


def test_jordan_refuses_degenerate_pairs():
    alg = nilpotent_pair([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    f = Functional.from_dict(alg, {"w": 1})
    with pytest.raises(NoRegularAlpha0):
        jordan_spaces(f, Q(1))


def test_jordan_at_infinity():
    rng = random.Random(5)
    f = rand_functional(ut(2), rng, lo=1, hi=20)
    jf = jordan_spaces(f, ALPHA_INF)
    assert jf.levels[0] == stab(f, ALPHA_INF)


# a unital extension whose pencil has Jordan blocks of size 2 at 0 and at infinity
DEEP_INF_B = [[0, 2, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0], [0, 0, 1, 0]]


def _base_point_levels(f, alpha, alpha0):
    """Oracle in sympy: ker (K - I/(alpha - alpha0))^k, or ker K^k at infinity,
    for K = (M^T - alpha0*M)^-1 M, as Subspaces; None when the base pencil is singular."""
    sympy = pytest.importorskip("sympy")
    n, g = f.algebra.dim, gram(f)
    m = sympy.Matrix(n, n, lambda i, j: sympy.Rational(g[i, j].numerator, g[i, j].denominator))
    base = m.T - sympy.Rational(alpha0.numerator, alpha0.denominator) * m
    if base.det() == 0:
        return None
    k_op = base.inv() * m
    if not alpha.is_infinite:
        k_op -= sympy.eye(n) / (sympy.Rational(alpha.value.numerator, alpha.value.denominator) - alpha0)
    levels, power = [], k_op
    while True:
        level = Subspace(f.algebra, [tuple(Q(int(x.p), int(x.q)) for x in v) for v in power.nullspace()])
        if levels and level.dim == levels[-1].dim:
            return levels
        levels.append(level)
        if level.dim == n:
            return levels
        power = power * k_op


def _oracle_pairs():
    rng = random.Random(21)
    for name, alg in gallery_algebras().items():
        for _ in range(2):
            yield name, rand_functional(alg, rng, lo=-6, hi=6)
    for trial in range(12):
        k = rng.choice((2, 3, 4))
        b = [[rng.choice((0, 0, 0, 1, 2, -1)) for _ in range(k)] for _ in range(k)]
        alg = unital_extension(nilpotent_pair(b))
        yield f"ext{trial}", rand_functional(alg, rng, lo=1, hi=5)
    for trial in range(6):
        alg = rng.choice((ut(2), ut(3), mat(2), seaweed([1, 2], [2, 1]), seaweed([2, 1], [1, 2])))
        yield f"rand{trial}", rand_functional(alg, rng, lo=-3, hi=3)
    deep = unital_extension(nilpotent_pair(DEEP_INF_B))
    yield "deep_inf", Functional(deep, tuple(Q(x) for x in (3, 5, 2, 5, 5, 2)))


def test_jordan_levels_match_the_base_point_oracle():
    depth = {"finite": 1, "inf": 1}
    for name, f in _oracle_pairs():
        rep = spectrum(f)
        if rep.degenerate:
            continue
        for a in {*rep.exact_alphas(), ALPHA_INF}:
            jf = jordan_spaces(f, a)
            want = _base_point_levels(f, a, jf.alpha0_used)
            assert [s.basis for s in jf.levels] == [s.basis for s in want], (name, a)
            kind = "inf" if a.is_infinite else "finite"
            depth[kind] = max(depth[kind], len(jf.levels))
    # the corpus reaches levels deeper than 1 at a finite root and at infinity
    assert depth["finite"] > 1 and depth["inf"] > 1, depth


def test_jordan_explicit_base_points_match_the_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    algs = [ut(3), seaweed([2, 1], [1, 2]), unital_extension(nilpotent_pair(NONDIAG_B)),
            unital_extension(nilpotent_pair(DEEP_INF_B))]

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(data=st.data(), alpha0=st.sampled_from([Q(0), Q(2), Q(3), Q(-1)]))
    def check(data, alpha0):
        alg = data.draw(st.sampled_from(algs))
        coords = data.draw(st.lists(st.integers(-4, 4), min_size=alg.dim, max_size=alg.dim))
        f = Functional(alg, tuple(Q(x) for x in coords))
        rep = spectrum(f)
        hypothesis.assume(not rep.degenerate)
        for a in {*rep.exact_alphas(), ALPHA_INF}:
            if not a.is_infinite and a.value == alpha0:
                continue
            want = _base_point_levels(f, a, alpha0)
            if want is None:
                with pytest.raises(NoRegularAlpha0):
                    jordan_spaces(f, a, alpha0=alpha0)
                continue
            jf = jordan_spaces(f, a, alpha0=alpha0)
            assert jf.alpha0_used == alpha0
            assert [s.basis for s in jf.levels] == [s.basis for s in want]

    check()


def test_jordan_explicit_singular_base_point_raises():
    # stab(1) holds the unity, so the pencil is singular at alpha0 = 1
    alg = unital_extension(nilpotent_pair(NONDIAG_B))
    f = Functional.from_dict(alg, {"one": 1, "v1": 2, "v2": 3, "v3": 5, "v4": 7, "w": 1})
    for a in (Q(2), ALPHA_INF):
        with pytest.raises(NoRegularAlpha0):
            jordan_spaces(f, a, alpha0=Q(1))
    assert [s.dim for s in jordan_spaces(f, Q(2), alpha0=Q(3)).levels] == [1, 2]


def _first_regular_base_point(f, avoid):
    """`find_alpha0` with no memo: the first candidate other than avoid whose
    pencil has a nonzero exact det, or None once dim + 2 have been tried."""
    tried = 0
    for cand in spectrum_module._alpha0_candidates(f.algebra.dim):
        if not avoid.is_infinite and avoid.value == cand:
            continue
        tried += 1
        if det(pencil_at(gram(f), cand)) != 0:
            return cand
        if tried > f.algebra.dim + 1:
            return None


def test_find_alpha0_with_its_memo_matches_a_fresh_scan(monkeypatch):
    # the verdicts differ between functionals, so a memo shared by two would
    # answer wrongly: some have chi = 0 and no regular base point, and the
    # others are regular at 0 or singular there
    rng = random.Random(24)
    fs = [
        Functional.from_dict(nilpotent_pair([[0, 0, 1], [0, 0, 1], [0, 0, 0]]), {"w": 1}),
        trace_functional(mat(2), RatMatrix([[1, 0], [0, 0]])),
        trace_functional(mat(2), RatMatrix([[1, 0], [0, 2]])),
        Functional.from_dict(unital_extension(nilpotent_pair(NONDIAG_B)), {"one": 1, "v1": 2, "v2": 3, "v3": 5, "v4": 7, "w": 1}),
    ] + [rand_functional(alg, rng, lo=-3, hi=3) for alg in (ut(2), ut(3), seaweed([2, 1], [1, 2])) for _ in range(3)]
    dets = []
    monkeypatch.setattr("functal.functional.is_singular", lambda rows: dets.append(1) or is_singular(rows))
    avoids = (Alpha(0), Alpha(2), Alpha(-1), ALPHA_INF)

    def alpha0(f, avoid):
        try:
            return spectrum_module.find_alpha0(f, avoid)
        except NoRegularAlpha0:
            return None

    for f in fs:
        for avoid in avoids:
            # f's memo fills as the avoids change; a copy starts with none
            want = _first_regular_base_point(f, avoid)
            assert alpha0(f, avoid) == want == alpha0(Functional(f.algebra, f.coords), avoid), (f, avoid)
    # asked again, every verdict comes from the memo
    before = len(dets)
    assert [alpha0(f, avoid) for f in fs for avoid in avoids] == [
        _first_regular_base_point(f, avoid) for f in fs for avoid in avoids
    ]
    assert len(dets) == before
    assert {_first_regular_base_point(f, avoid) for f in fs for avoid in avoids} == {None, 0, 2, 3}
    # an explicit base point shares the verdicts
    f = fs[3]
    before = len(dets)
    with pytest.raises(NoRegularAlpha0):
        jordan_spaces(f, Q(2), alpha0=Q(1))
    assert jordan_spaces(f, Q(2), alpha0=Q(0)).alpha0_used == 0
    assert len(dets) == before + 1  # 1 is new to the memo, 0 is not


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_type1_family():
    cfg = SamplerConfig(seed=1, samples=8)
    for alg in (mat(2), mat(3), seaweed([1, 2], [2, 1]), seaweed([2, 1], [1, 2])):
        rep = classify(alg, cfg)
        assert rep.verdict == "Type1"
        assert rep.min_nil_dim == 0
        assert rep.samples_used == 8 and rep.seed == 1


def test_classify_type2_invertible_b():
    rep = classify(nilpotent_pair([[1, 2, 0], [0, 1, 3], [5, 0, 1]]), SamplerConfig(seed=1))
    assert rep.verdict == "Type2"
    assert rep.min_nil_dim == 1


def test_classify_type3_jordan_block():
    rep = classify(nilpotent_pair([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), SamplerConfig(seed=1))
    assert rep.verdict == "Type3"
    assert rep.min_nil_dim == 1


def test_classify_shared_column_b_is_type2():
    # the nil space here is span{v1 - v2, w}; on its 2-dim complement the
    # pencil has determinant -lam*mu*F(w)^2 != 0, hence type 2
    alg = nilpotent_pair([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    rep = classify(alg, SamplerConfig(seed=1))
    assert rep.min_nil_dim == 2
    assert rep.verdict == "Type2"
    # direct verification of the complement determinant at a concrete F
    f = Functional.from_dict(alg, {"w": 1, "v1": 3, "v2": 4, "v3": 5})
    from functal.functional import nil

    n = nil(f)
    chi = char_poly_raw(f, [i for i in range(alg.dim) if i not in n.pivots])
    lam, mu = symbols()
    assert chi == poly(-lam * mu)


def test_classify_deterministic():
    a = classify(ut(3), SamplerConfig(seed=5, samples=6))
    b = classify(ut(3), SamplerConfig(seed=5, samples=6))
    assert a == b


# ---------------------------------------------------------------------------
# index / regular functionals
# ---------------------------------------------------------------------------


def test_index_desk_values():
    cfg = SamplerConfig(seed=7, samples=8)
    assert index(ut(2), cfg).value == 1
    assert index(mat(2), cfg).value == 2
    assert index(tensor_product(ut(2), ut(2)), cfg).value == 3


def test_find_regular_values():
    cfg = SamplerConfig(seed=7, samples=8)
    _, d = find_regular(mat(2), Q(1), cfg)
    assert d.dim == 2
    _, d0 = find_regular(ut(2), Q(0), cfg)
    assert d0.dim == 1
    for alg in (ut(2), mat(2), seaweed([2, 1], [1, 2])):
        _, d1 = find_regular(alg, Q(1), cfg)
        assert d1.dim >= 1  # unity always stabilizes


@pytest.mark.parametrize(
    "alg, first",
    [
        # stab(1) of dim 5 and nil of dim 4, between the generic 3 and 0 and n = 9
        (mat(3), lambda alg: trace_functional(alg, RatMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))),
        (nilpotent_pair([[1, 2, 0], [0, 1, 3], [5, 0, 1]]), None),  # Type2
        (nilpotent_pair([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), None),  # Type3
    ],
)
def test_samples_misjudged_mod_p_fall_back_to_the_exact_dimensions(monkeypatch, alg, first):
    # coordinates that are multiples of PRIME make every pencil vanish mod
    # PRIME, so every screened dimension reads n and the exact ones decide;
    # scaling F changes no kernel and no chi, so the verdicts are those of
    # the unscaled samples
    cfg = SamplerConfig(seed=2, samples=4)
    plain = ([first(alg)] if first else []) + sample_functionals(alg, cfg)
    monkeypatch.setattr(spectrum_module, "sample_functionals", lambda *_: plain)
    want_index, want_type = index(alg, cfg), classify(alg, cfg)
    monkeypatch.setattr(spectrum_module, "sample_functionals", lambda *_: [scaled(f, PRIME) for f in plain])
    got_index, got_type = index(alg, cfg), classify(alg, cfg)
    assert got_index.value == want_index.value == min(stab(f, Alpha(1)).dim for f in plain)
    assert got_index.witness == scaled(want_index.witness, PRIME)
    assert (got_type.verdict, got_type.min_nil_dim) == (want_type.verdict, want_type.min_nil_dim)
    assert got_type.witnesses == tuple(scaled(w, PRIME) for w in want_type.witnesses)


def counted(monkeypatch, name):
    """The list of argument tuples of every call to spectrum's `name` from now on."""
    calls = []
    real = getattr(spectrum_module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectrum_module, name, wrapper)
    return calls


def test_a_screened_zero_makes_no_exact_call(monkeypatch):
    # a generic F on mat(3) has an invertible pairing matrix: stab(0) and nil are 0
    alg, cfg = mat(3), SamplerConfig(seed=1, samples=4)
    fs = sample_functionals(alg, cfg)
    stabs, nils = counted(monkeypatch, "stab"), counted(monkeypatch, "nil")
    witness, space = find_regular(alg, Alpha(0), cfg)
    rep = classify(alg, cfg)
    assert stabs == [] and nils == []
    exact = [stab(f, Alpha(0)).dim for f in fs]
    assert (witness, space) == (fs[exact.index(min(exact))], Subspace.zero(alg))
    assert min(exact) == 0 == rep.min_nil_dim == min(nil(f).dim for f in fs)


def test_a_screened_minimum_above_zero_is_confirmed_by_one_exact_call(monkeypatch):
    # every sample of ut(2) has dim stab(1) = 1 (the index) and the screen reads 1
    alg, cfg = ut(2), SamplerConfig(seed=1, samples=4)
    fs = sample_functionals(alg, cfg)
    stabs = counted(monkeypatch, "stab")
    witness, space = find_regular(alg, Alpha(1), cfg)
    assert stabs == [(fs[0], Alpha(1))]
    assert (witness, space) == (fs[0], stab(fs[0], Alpha(1))) and space.dim == 1


SCREEN_ALPHAS = (Alpha(0), Alpha(1), ALPHA_INF, Alpha(2), Alpha(Q(-1, 2)))


def residues(rows, scale=1):
    return [[x * scale % PRIME for x in row] for row in rows]


@pytest.mark.parametrize("name", sorted(gallery_algebras()))
def test_stacked_pencil_residues_equal_the_exact_pencils(name):
    # samples have integer coordinates and every gallery table is integral,
    # so the stack holds exactly the residues of pencil_at's integer rows
    alg = gallery_algebras()[name]
    for seed in range(10):
        fs = sample_functionals(alg, SamplerConfig(seed=seed))
        ms = spectrum_module._pairings_mod_p(alg, fs)
        for alpha in SCREEN_ALPHAS:
            got = spectrum_module._pencils_mod_p(ms, alpha).tolist()
            assert got == [residues(pencil_at(gram(f), alpha)) for f in fs], (seed, alpha)


def test_stacked_pencil_residues_on_a_rational_table():
    # with denominators, the stack is dx * dt * M: pencil_at's rows times
    # dx * dt over the denominator of gram's own integer form
    alg = nilpotent_pair([[Q(1, 2), 3, 0], [Q(-2, 3), 1, Q(5, 4)], [0, Q(7, 6), 2]])
    fs = [Functional(alg, (Q(1, 3), 2, Q(-5, 4), Q(3, 10))), Functional(alg, (1, 0, -2, Q(1, 2)))]
    ms = spectrum_module._pairings_mod_p(alg, fs)
    dt = alg.integer_table[0]
    for alpha in SCREEN_ALPHAS:
        got = spectrum_module._pencils_mod_p(ms, alpha).tolist()
        for f, m in zip(fs, got):
            dx = math.lcm(*(c.denominator for c in f.coords))
            assert m == residues(pencil_at(gram(f), alpha), dx * dt // gram(f).integer_form()[0]), alpha


def test_regularity_corollaries_pass_on_desk_pairs():
    cfg = SamplerConfig(seed=3, samples=8)
    for alg in (mat(3), seaweed([2, 1], [1, 2]), ut(2)):
        rep = regularity_corollary_suite(alg, cfg)
        assert all(c.passed for c in rep.checks), [c for c in rep.checks if not c.passed]


def test_regularity_mat2_has_no_constant_finite_alphas():
    rep = regularity_corollary_suite(mat(2), SamplerConfig(seed=3, samples=8))
    assert rep.constant_alphas == ()


def intersected_spectra(alg, cfg):
    """Oracle: the exact alphas with stab != 0 common to the spectra of every
    nondegenerate sample (no sample, no constant)."""
    sets = [
        {e.alpha for e in rep.all_entries() if isinstance(e.alpha, Alpha) and e.stab_dim > 0}
        for rep in map(spectrum, sample_functionals(alg, cfg))
        if not rep.degenerate
    ]
    return set.intersection(*sets) if sets else set()


@pytest.mark.parametrize("name", sorted(gallery_algebras()))
def test_constant_spectrum_alphas_matches_intersected_spectra(name):
    alg = gallery_algebras()[name]
    for seed in range(10):
        for samples in (1, 8):
            cfg = SamplerConfig(seed=seed, samples=samples)
            assert constant_spectrum_alphas(alg, cfg) == intersected_spectra(alg, cfg), (seed, samples)


@pytest.mark.parametrize(
    "name, seed, samples, degenerate, expected",
    [
        ("unital_ext_nondiag", 0, 8, [], {"1", "1/2", "2"}),
        # -1 is in the first sample's spectrum only
        ("mat2", 0, 1, [], {"-1", "1"}),
        ("mat2", 0, 8, [], {"1"}),
        # the candidates come from the second sample
        ("qq", 7, 8, [0], {"1"}),
        # a degenerate later sample keeps every candidate, 0 and inf included
        ("seaweed_12_21", 7, 8, [1], {"0", "1", "inf"}),
    ],
)
def test_constant_spectrum_alphas_named_cases(name, seed, samples, degenerate, expected):
    alg = gallery_algebras()[name]
    cfg = SamplerConfig(seed=seed, samples=samples)
    fs = sample_functionals(alg, cfg)
    assert [i for i, f in enumerate(fs) if spectrum(f).degenerate] == degenerate
    got = constant_spectrum_alphas(alg, cfg)
    assert {str(a) for a in got} == expected
    assert got == intersected_spectra(alg, cfg)


def test_constant_spectrum_alphas_decides_zero_and_infinity_by_one_determinant(monkeypatch):
    # 0 and inf are in every spectrum on ut(2); det M^T = det M, so each later
    # sample takes one singularity test of M for both
    alg, cfg = ut(2), SamplerConfig(seed=0, samples=8)
    fs = sample_functionals(alg, cfg)
    calls = counted(monkeypatch, "is_singular")
    assert {Alpha(0), ALPHA_INF} <= constant_spectrum_alphas(alg, cfg, fs) == intersected_spectra(alg, cfg)
    ends = [(m, tuple(zip(*m))) for m in (gram(f).integer_form()[1] for f in fs)]
    assert [sum(rows in pair for (rows,) in calls) for pair in ends] == [0] + [1] * 7


# ---------------------------------------------------------------------------
# the nil space as an ideal
# ---------------------------------------------------------------------------


def is_two_sided_ideal(space):
    alg = space.algebra
    units = [alg.basis_vector(i) for i in range(alg.dim)]
    return all(
        space.contains(alg.product_coords(v, e)) and space.contains(alg.product_coords(e, v))
        for v in space.basis
        for e in units
    )


def test_quotient_by_nil_shared_column():
    alg = nilpotent_pair([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    f = Functional.from_dict(alg, {"w": 1, "v1": 3, "v2": 4, "v3": 5})
    n = nil(f)
    assert n == Subspace(alg, [(1, -1, 0, 0), (0, 0, 0, 1)])  # v1 - v2 and w
    assert alg.dim - n.dim == 2
    assert [alg.labels[i] for i in range(alg.dim) if i not in n.pivots] == ["v2", "v3"]
    assert is_two_sided_ideal(n)
    # every product of this two-step algebra lands inside the nil space, so
    # the quotient multiplication is zero
    units = [alg.basis_vector(i) for i in range(alg.dim)]
    assert all(n.contains(alg.product_coords(x, y)) for x in units for y in units)


def test_quotient_by_nil_recovers_live_summand():
    trivial = nilpotent_pair([[0]])  # two dims, all products zero
    alg = direct_sum(ut(2), trivial)
    f = Functional(alg, (Q(2), Q(3), Q(5), Q(0), Q(0)))
    n = nil(f)
    assert n == Subspace(alg, [alg.basis_vector(3), alg.basis_vector(4)])
    assert is_two_sided_ideal(n)
    assert char_poly_raw(f, range(3)) == char_poly_raw(Functional(ut(2), (Q(2), Q(3), Q(5))))


def test_quotient_by_nil_trivial_when_nil_zero():
    rng = random.Random(6)
    f = rand_functional(mat(2), rng, lo=1, hi=9)
    assert nil(f).is_zero()


def test_quotient_by_nil_rejects_non_ideal():
    u3 = ut(3)
    f = Functional(u3, (Q(3), Q(0), Q(3), Q(0), Q(-3), Q(-1)))
    n = nil(f)
    assert n.dim == 1
    assert not is_two_sided_ideal(n)
