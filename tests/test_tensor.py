import random
from fractions import Fraction as Q

import pytest

from functal.algebra import direct_sum, mat, nilpotent_pair, tensor_product, unital_extension, ut
from functal.errors import AlgebraMismatch, DegeneratePencil, NotType1
from functal.functional import Alpha, Functional, gram, stab, trace_functional
from functal.linalg import RatMatrix, det, inverse, kron
from functal.poly import pencil_det
from functal.sampling import SamplerConfig
from functal.spectrum import index
from functal.tensor import (
    conjecture_probe,
    extended_cayley_check,
    kronecker_swap_matrix,
    mat_tensor_index_experiment,
    random_cayley_instances,
    tensor_char_check,
    tensor_functional,
    tensor_stab_suite,
    tensor_vk_suite,
)
from sympy_oracle import poly

# symmetric invertible coefficients: the unital extension has index 1
SYM_B = [[2, 1], [1, 3]]


def rand_matrix(rng, n, lo=-5, hi=5):
    return RatMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def eye(n):
    return RatMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def rand_functional(alg, rng, lo=-20, hi=20):
    return Functional(alg, tuple(Q(rng.randint(lo, hi)) for _ in range(alg.dim)))


# ---------------------------------------------------------------------------
# kronecker basics
# ---------------------------------------------------------------------------


def test_kron_identity():
    assert kron(eye(2), eye(3)) == eye(6)


def test_kron_mixed_product_and_inverse():
    rng = random.Random(0)
    for _ in range(5):
        a, c = rand_matrix(rng, 2), rand_matrix(rng, 2)
        b, d = rand_matrix(rng, 3), rand_matrix(rng, 3)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)
        if det(a) != 0 and det(b) != 0:
            assert kron(a, b) @ kron(inverse(a), inverse(b)) == eye(6)


def test_det_kron_identity_random():
    rng = random.Random(1)
    for _ in range(10):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a, b = rand_matrix(rng, n), rand_matrix(rng, m)
        assert det(kron(a, b)) == det(a) ** m * det(b) ** n


def test_swap_matrix_basics():
    assert kronecker_swap_matrix(1, 1) == eye(1)
    u = kronecker_swap_matrix(2, 2)
    assert u @ u == eye(4)
    with pytest.raises(ValueError):
        kronecker_swap_matrix(0, 1)


def test_swap_matrix_conjugates():
    rng = random.Random(2)
    for _ in range(10):
        k, m = rng.randint(1, 4), rng.randint(1, 4)
        a, b = rand_matrix(rng, k), rand_matrix(rng, m)
        u = kronecker_swap_matrix(k, m)
        assert u @ kron(a, b) @ inverse(u) == kron(b, a)


# ---------------------------------------------------------------------------
# extended Cayley
# ---------------------------------------------------------------------------


def test_cayley_identity_matrices():
    i2 = eye(2)
    rep = extended_cayley_check(i2, i2, i2, i2)
    assert rep.pass_
    # both sides are (lam + mu)^4; check the left side explicitly
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    assert pencil_det(kron(i2, i2), kron(i2, i2)) == poly((lam + mu) ** 4)


def test_cayley_diagonal_example():
    i2 = eye(2)
    b = RatMatrix([[2, 0], [0, 3]])
    d = RatMatrix([[5, 0], [0, 7]])
    rep = extended_cayley_check(i2, b, i2, d, tolerance=1e-9)
    assert rep.pass_
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    expected = sympy.prod([lam + g * e * mu for g in (2, 3) for e in (5, 7)])
    assert pencil_det(kron(i2, i2), kron(b, d)) == poly(expected)


def test_cayley_batch_30():
    rep = random_cayley_instances(count=30, seed=42, tolerance=1e-6)
    assert rep.pass_ and rep.instances_checked == 30
    assert rep.max_relative_error < 1e-6


def test_cayley_evaluation_matches_the_exact_left_side():
    # the right side, recovered by FFT from nm + 1 float determinants on the
    # unit circle, must equal the exact det(lam A(x)C + mu B(x)D) to rounding;
    # every third A is singular, so chi loses lam-degree and D^(n-k) counts
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        a, b, c, d = (RatMatrix([[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]) for k in (n, n, m, m))
        if checked % 3 == 0:
            a = RatMatrix([[0] * n] + [list(row) for row in a.data[1:]])
        if pencil_det(a, b).is_zero():
            continue
        rep = extended_cayley_check(a, b, c, d)
        assert rep.pass_ and rep.max_relative_error < 1e-10, (a, b, c, d)
        checked += 1


def test_cayley_rejects_degenerate_pencil():
    n = RatMatrix([[0, 1], [0, 0]])
    with pytest.raises(DegeneratePencil):
        extended_cayley_check(n, n, eye(2), eye(2))


# ---------------------------------------------------------------------------
# tensor functionals and characteristic checks
# ---------------------------------------------------------------------------


def test_tensor_functional_values():
    a, b = ut(2), ut(2)
    ta = tensor_product(a, b)
    rng = random.Random(3)
    f, g = rand_functional(a, rng), rand_functional(b, rng)
    fg = tensor_functional(ta, f, g)
    one = tuple(x * y for x in a.unity for y in b.unity)
    assert fg(one) == f(a.unity) * g(b.unity)
    assert gram(fg) == kron(gram(f), gram(g))
    zero = tensor_functional(ta, Functional(a, (0,) * a.dim), g)
    assert all(c == 0 for c in zero.coords)
    with pytest.raises(AlgebraMismatch):
        tensor_functional(ut(3), f, g)


def test_tensor_char_check_pairs():
    rng = random.Random(4)
    for a, b in ((ut(2), ut(2)), (mat(2), ut(2)), (mat(2), mat(2))):
        f, g = rand_functional(a, rng), rand_functional(b, rng)
        rep = tensor_char_check(f, g, tensor_functional(tensor_product(a, b), f, g))
        assert rep.pass_, rep.failing_instance


def test_tensor_char_check_zero_functional():
    a = ut(2)
    f = Functional(a, (0,) * a.dim)
    g = Functional(a, (Q(1), Q(2), Q(3)))
    rep = tensor_char_check(f, g, tensor_functional(tensor_product(a, a), f, g))
    assert rep.pass_


# ---------------------------------------------------------------------------
# stabilizer inclusion suites
# ---------------------------------------------------------------------------


def test_tensor_stab_suite_mat2_ut2():
    f = trace_functional(mat(2), RatMatrix([[1, 0], [0, 2]]))
    g = Functional(ut(2), (Q(3), Q(5), Q(7)))
    rep = tensor_stab_suite(f, g, tensor_functional(tensor_product(mat(2), ut(2)), f, g))
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    names = [c.name for c in rep.checks]
    assert any("stab(1) (x) stab(1) in stab(1)" in n for n in names)


def test_tensor_stab_suite_ut2_ut2():
    rng = random.Random(5)
    f, g = rand_functional(ut(2), rng, 1, 20), rand_functional(ut(2), rng, 1, 20)
    fg = tensor_functional(tensor_product(ut(2), ut(2)), f, g)
    rep = tensor_stab_suite(f, g, fg)
    assert rep.passed
    one = tuple(x * y for x in ut(2).unity for y in ut(2).unity)
    assert stab(fg, Alpha(1)).contains(one)


def test_tensor_vk_suite_runs_where_pencil_regular():
    f = trace_functional(mat(2), RatMatrix([[1, 0], [0, 2]]))
    g = Functional(ut(2), (Q(3), Q(5), Q(7)))
    rep = tensor_vk_suite(f, g, tensor_functional(tensor_product(mat(2), ut(2)), f, g))
    assert rep.checks and rep.passed


def test_tensor_vk_suite_skips_degenerate_products():
    rng = random.Random(6)
    f, g = rand_functional(ut(2), rng, 1, 20), rand_functional(ut(2), rng, 1, 20)
    rep = tensor_vk_suite(f, g, tensor_functional(tensor_product(ut(2), ut(2)), f, g))
    assert rep.passed  # empty or partial: no failing checks either way


# ---------------------------------------------------------------------------
# index experiments
# ---------------------------------------------------------------------------


def test_mat_tensor_index_ut2():
    cfg = SamplerConfig(seed=7, samples=8)
    rep2 = mat_tensor_index_experiment(2, ut(2), cfg)
    assert rep2.product_index == 2 == rep2.expected and rep2.passed
    rep3 = mat_tensor_index_experiment(3, ut(2), cfg)
    assert rep3.product_index == 3 == rep3.expected and rep3.passed


def test_mat_tensor_index_scalars():
    cfg = SamplerConfig(seed=7, samples=8)
    rep = mat_tensor_index_experiment(2, mat(1), cfg)
    assert rep.product_index == 2 and rep.factor_index == 1 and rep.passed


def test_mat_tensor_index_symmetric_extension():
    # symmetric coefficients make the extension commutative, so its skew
    # form vanishes and the index equals the dimension; the product law
    # ind(mat(n) (x) B) = n * ind(B) still holds and is verified at runtime
    algb = unital_extension(nilpotent_pair(SYM_B))
    cfg = SamplerConfig(seed=7, samples=8)
    assert index(algb, cfg).value == algb.dim == 4
    for n in (2, 3):
        rep = mat_tensor_index_experiment(n, algb, cfg)
        assert rep.product_index == 4 * n == rep.expected and rep.passed
        assert rep.warning is not None  # factor index is 4, not 1


def test_mat_tensor_index_warns_on_bad_factor():
    cfg = SamplerConfig(seed=7, samples=6)
    rep = mat_tensor_index_experiment(2, tensor_product(ut(2), ut(2)), cfg)
    assert rep.warning is not None


# ---------------------------------------------------------------------------
# conjecture probe
# ---------------------------------------------------------------------------


def test_probe_ut2_ut2():
    rep = conjecture_probe(ut(2), ut(2), SamplerConfig(seed=7, samples=8))
    assert rep.product_index == 3
    assert rep.index_product == 1
    assert rep.resonance_sum == 2
    assert set(rep.resonant_alphas) == {"0", "inf"}
    assert rep.hypothesis_consistent
    assert "hypothesis" in rep.hypothesis


def test_probe_mat2_ut2():
    rep = conjecture_probe(mat(2), ut(2), SamplerConfig(seed=7, samples=8))
    assert rep.resonance_sum == 0
    assert rep.product_index == 2 == rep.index_product


def test_probe_scalars():
    rep = conjecture_probe(mat(1), mat(1), SamplerConfig(seed=7, samples=4))
    assert rep.product_index == rep.index_product == 1
    assert rep.resonance_sum == 0


def test_probe_rejects_non_type1():
    with pytest.raises(NotType1):
        conjecture_probe(nilpotent_pair([[1, 0], [0, 1]]), ut(2), SamplerConfig(seed=1, samples=4))
