import random
from fractions import Fraction as Q

import pytest

from functal.algebra import (
    mat,
    nilpotent_pair,
    seaweed,
    tensor_product,
    unital_extension,
    ut,
    validate,
)
from functal.errors import EnvelopeExceeded, NoRegularAlpha0, NotAnIdeal, ZeroPolynomial
from functal.functional import ALPHA_INF, Alpha, Functional, Subspace, gram, stab, trace_functional
from functal.gallery import gallery_algebras
from functal.linalg import RatMatrix
from functal.poly import LAM, MU, BivariatePoly, MultivariatePoly
from functal.sampling import SamplerConfig
from functal.spectrum import (
    SpectrumReport,
    char_poly,
    char_poly_raw,
    char_poly_symbolic,
    classify,
    find_regular,
    index,
    jordan_spaces,
    pencil_poly,
    quotient_by_nil,
    regularity_corollary_suite,
    spectrum,
)

NONDIAG_B = [[0, 0, 2, 0], [0, 0, 1, 2], [1, 0, 0, 0], [0, 1, 0, 0]]


def rand_functional(alg, rng, lo=-20, hi=20):
    return Functional(alg, tuple(Q(rng.randint(lo, hi)) for _ in range(alg.dim)))


def sym_vars(alg):
    return ("lam", "mu") + alg.labels


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------


def test_char_poly_ut2_all_ones():
    f = Functional(ut(2), (Q(1), Q(1), Q(1)))
    expected = Q(-2) * LAM * MU * (LAM + MU)
    assert char_poly_raw(f) == expected
    assert char_poly(f) == expected.canonical()


def test_char_poly_zero_functional():
    assert char_poly(Functional.zero(ut(2))).is_zero()


def test_char_poly_mat2_diag12():
    f = trace_functional(mat(2), RatMatrix([[1, 0], [0, 2]]))
    expected = Q(-2) * (LAM + MU) ** 2 * (Q(2) * (LAM - MU) ** 2 + Q(9) * LAM * MU)
    assert char_poly(f).proportional_to(expected)
    # independent oracle: expand the 4x4 pencil determinant by cofactors
    m = gram(f)
    entries = [[LAM * m[i, j] + MU * m[j, i] for j in range(4)] for i in range(4)]

    def cof(rows):
        if len(rows) == 1:
            return rows[0][0]
        out = BivariatePoly({})
        for j, cell in enumerate(rows[0]):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = cell * cof(minor)
            out = out + (term if j % 2 == 0 else -term)
        return out

    assert char_poly_raw(f) == cof(entries) == expected


def test_char_poly_restricted_to_subspace():
    m2 = mat(2)
    f = trace_functional(m2, RatMatrix([[1, 0], [0, 2]]))
    v = Subspace(m2, [m2.basis_vector(0), m2.basis_vector(3)])  # diagonal units
    chi = char_poly_raw(f, v)
    assert chi == Q(2) * (LAM + MU) ** 2


def test_char_poly_symbolic_mat2():
    m2 = mat(2)
    chi = char_poly_symbolic(m2)
    v = sym_vars(m2)
    lam, mu, a, b, c, d = (MultivariatePoly.variable(v, x) for x in v)
    expected = -((lam + mu) ** 2) * (a * d - b * c) * ((lam - mu) ** 2 * (a * d - b * c) + lam * mu * (a + d) ** 2)
    assert chi == expected


def test_char_poly_symbolic_seaweed_12_21():
    sw = seaweed([1, 2], [2, 1])
    chi = char_poly_symbolic(sw)
    v = sym_vars(sw)
    lam, mu, a, b, c, d, e = (MultivariatePoly.variable(v, x) for x in v)
    assert chi == lam**2 * mu**2 * (lam + mu) * b**2 * d**2 * (a + c + e)


def test_char_poly_symbolic_ut2():
    u2 = ut(2)
    chi = char_poly_symbolic(u2)
    v = sym_vars(u2)
    lam, mu, a, b, c = (MultivariatePoly.variable(v, x) for x in v)
    assert chi == -lam * mu * b**2 * (lam + mu) * (a + c)


def test_char_poly_symbolic_envelope():
    with pytest.raises(EnvelopeExceeded):
        char_poly_symbolic(tensor_product(mat(2), mat(2)))


def test_symbolic_matches_pointwise_on_small_algebras():
    rng = random.Random(0)
    for alg in (mat(2), ut(2), ut(3), seaweed([1, 2], [2, 1]), seaweed([2, 1], [1, 2])):
        chi_sym = char_poly_symbolic(alg)
        for _ in range(25):
            f = rand_functional(alg, rng)
            assigned = chi_sym.restrict_to(("lam", "mu"), dict(zip(alg.labels, f.coords)))
            lhs = BivariatePoly(assigned.terms).canonical()
            assert lhs == char_poly(f)


# ---------------------------------------------------------------------------
# pencil polynomial and spectrum
# ---------------------------------------------------------------------------


def test_pencil_poly_mat2_roots():
    f = trace_functional(mat(2), RatMatrix([[1, 0], [0, 2]]))
    p = pencil_poly(f)
    from functal.poly import uni_roots

    roots = dict(uni_roots(p))
    assert roots == {Q(1): 2, Q(2): 1, Q(1, 2): 1}


def test_pencil_poly_ut2():
    f = Functional(ut(2), (Q(1), Q(1), Q(1)))
    p = pencil_poly(f)
    assert p.degree == 2
    assert p(0) == 0 and p(1) == 0


def test_pencil_poly_zero_chi_raises():
    alg = nilpotent_pair([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    f = Functional.from_dict(alg, {"w": 1})
    with pytest.raises(ZeroPolynomial):
        pencil_poly(f)


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
    from functal.scalars import ComplexApprox

    approx = [e for e in rep.entries if isinstance(e.alpha, ComplexApprox)]
    assert approx
    assert sum(e.multiplicity for e in rep.all_entries()) == 4
    for e in approx:
        assert e.stab_dim >= 1


def test_spectrum_report_json_round_trip():
    f = trace_functional(mat(2), RatMatrix([[1, 0], [0, 2]]))
    rep = spectrum(f)
    assert SpectrumReport.from_json_dict(rep.to_json_dict()) == rep


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
    from functal.spectrum import canonical_complement

    v = canonical_complement(nil(f))
    chi = char_poly_raw(f, v)
    assert chi == -(LAM * MU)


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
    assert d == 2
    _, d0 = find_regular(ut(2), Q(0), cfg)
    assert d0 == 1
    for alg in (ut(2), mat(2), seaweed([2, 1], [1, 2])):
        _, d1 = find_regular(alg, Q(1), cfg)
        assert d1 >= 1  # unity always stabilizes


def test_regularity_corollaries_pass_on_desk_pairs():
    cfg = SamplerConfig(seed=3, samples=8)
    for alg in (mat(3), seaweed([2, 1], [1, 2]), ut(2)):
        rep = regularity_corollary_suite(alg, cfg)
        assert rep.passed, [c for c in rep.checks if not c.passed]


def test_regularity_mat2_has_no_constant_finite_alphas():
    rep = regularity_corollary_suite(mat(2), SamplerConfig(seed=3, samples=8))
    assert rep.constant_alphas == ()


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------


def test_quotient_by_nil_shared_column():
    alg = nilpotent_pair([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    f = Functional.from_dict(alg, {"w": 1, "v1": 3, "v2": 4, "v3": 5})
    q_alg, q_f = quotient_by_nil(alg, f)
    assert q_alg.dim == 2
    assert validate(q_alg) == []
    assert q_f.algebra == q_alg
    assert q_f.coords == (Q(4), Q(5))  # values on v2, v3
    # every product of this two-step algebra lands inside the nil space, so
    # the quotient multiplication is zero; the induced pencil on a complement
    # is reached through char_poly(f, V) instead (see the classify test)
    assert all(q_alg.table[i][j] == () for i in range(2) for j in range(2))


def test_quotient_by_nil_recovers_live_summand():
    trivial = nilpotent_pair([[0]])  # two dims, all products zero
    from functal.algebra import direct_sum

    alg = direct_sum(ut(2), trivial)
    f = Functional(alg, (Q(2), Q(3), Q(5), Q(0), Q(0)))
    q_alg, q_f = quotient_by_nil(alg, f)
    assert q_alg.dim == 3
    assert q_alg.table == ut(2).table
    assert q_f.coords == (Q(2), Q(3), Q(5))
    assert char_poly_raw(q_f) == char_poly_raw(Functional(ut(2), (Q(2), Q(3), Q(5))))


def test_quotient_by_nil_trivial_when_nil_zero():
    rng = random.Random(6)
    f = rand_functional(mat(2), rng, lo=1, hi=9)
    q_alg, q_f = quotient_by_nil(mat(2), f)
    assert q_alg == mat(2) and q_f.coords == f.coords


def test_quotient_by_nil_rejects_non_ideal():
    u3 = ut(3)
    f = Functional(u3, (Q(3), Q(0), Q(3), Q(0), Q(-3), Q(-1)))
    from functal.functional import nil

    assert nil(f).dim == 1
    with pytest.raises(NotAnIdeal):
        quotient_by_nil(u3, f)
