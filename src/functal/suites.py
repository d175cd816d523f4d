"""Named invariant suites over the example corpus of `gallery.py`.

Each suite returns a SuiteReport with one CheckResult per invariant
instance; the CLI `verify` command runs them by name.  Each suite call builds
the corpus once.  The suites mix the worked desk examples (matrix algebras,
upper-triangular algebras, seaweed patterns, two-step nilpotent pairs and
their unital extensions, tensor products) with seeded random functionals, so
every failure is reproducible from the reported seed.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from . import algebra as ac
from .algebra import Algebra
from .errors import NoRegularAlpha0
from .functional import (
    ALPHA_INF,
    Alpha,
    Functional,
    Subspace,
    gram,
    is_multiplicative,
    rank_gram,
    stab,
    subspace_product,
    trace_functional,
    vanishes_on,
)
from .gallery import gallery_algebras
from .linalg import RatMatrix, det, inverse, kron
from .sampling import SamplerConfig
from .spectrum import (
    CheckResult,
    SpectrumReport,
    jordan_spaces,
    regularity_corollary_suite,
    spectrum,
)
from .tensor import (
    SuiteReport,
    kronecker_swap_matrix,
    random_cayley_instances,
    tensor_char_check,
    tensor_functional,
    tensor_stab_suite,
    tensor_vk_suite,
)


def _rational_spectrum_pairs(
    algs: dict[str, Algebra], seed: int
) -> list[tuple[str, Functional, SpectrumReport]]:
    """Type-1 pairs from the corpus whose full spectrum is exact rational.

    A random draw with chi = 0 (a degenerate spectrum) is not type 1, so it
    is replaced by the next draw from the same stream.
    """
    fixed = (
        ("mat2/diag(1,2)", trace_functional(algs["mat2"], RatMatrix([[1, 0], [0, 2]]))),
        ("mat3/diag(1,2,5)", trace_functional(algs["mat3"], RatMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 5]]))),
    )
    out = [(name, f, spectrum(f)) for name, f in fixed]
    rng = random.Random(seed)
    for name in ("ut2", "ut3", "seaweed_12_21", "seaweed_21_12", "ut2_tensor_ut2", "qq", "unital_ext_nondiag"):
        alg = algs[name]
        while True:
            f = Functional(alg, tuple(Fraction(rng.randint(1, 20)) for _ in range(alg.dim)))
            rep = spectrum(f)
            if not rep.degenerate:
                break
        out.append((name, f, rep))
    return out


def _check(checks: list[CheckResult], name: str, ok: bool, detail: str = ""):
    checks.append(CheckResult(name, ok, "" if ok else detail))


def stab_props_suite(seed: int = 0, samples: int = 4) -> SuiteReport:
    """Stabilizer product laws, dimension symmetry, unital vanishing, rank-1 law."""
    checks: list[CheckResult] = []
    algs = gallery_algebras()
    for name, f, rep in _rational_spectrum_pairs(algs, seed):
        alg = f.algebra
        alphas = rep.exact_alphas()
        whole = Subspace.whole(alg)
        st = functools.cache(functools.partial(stab, f))  # one stabilizer per alpha
        for a, b in itertools.product(alphas, repeat=2):
            try:
                ab = a.times(b)
            except ValueError:
                continue
            prod = subspace_product(st(a), st(b))
            _check(
                checks,
                f"{name}: stab({a})*stab({b}) in stab({ab})",
                st(ab).contains_subspace(prod),
                f"dims {prod.dim} vs {st(ab).dim}",
            )
        zero, inf = st(Alpha(0)), st(ALPHA_INF)
        prod0inf = subspace_product(zero, inf)
        _check(checks, f"{name}: stab(0)*stab(inf) in nil", zero.intersect(inf).contains_subspace(prod0inf))
        _check(
            checks,
            f"{name}: stab(0)*whole in stab(0)",
            zero.contains_subspace(subspace_product(zero, whole)),
        )
        _check(
            checks,
            f"{name}: whole*stab(inf) in stab(inf)",
            inf.contains_subspace(subspace_product(whole, inf)),
        )
        for a in alphas:
            _check(
                checks,
                f"{name}: dim stab({a}) = dim stab(1/{a})",
                st(a).dim == st(a.inverse()).dim,
            )
        if alg.is_unital():
            for a in alphas:
                if not a.is_infinite and a.value == 1:
                    continue
                _check(checks, f"{name}: F vanishes on stab({a})", vanishes_on(f, st(a)))

    # gram is linear in F
    rng = random.Random(seed + 1)
    for name in ("mat2", "ut3", "seaweed_21_12"):
        alg = algs[name]
        f = Functional(alg, tuple(Fraction(rng.randint(-20, 20)) for _ in range(alg.dim)))
        g = Functional(alg, tuple(Fraction(rng.randint(-20, 20)) for _ in range(alg.dim)))
        _check(checks, f"{name}: gram(F+G) = gram(F)+gram(G)", gram(f + g) == gram(f) + gram(g))

    # rank-1 <-> multiplicative on commutative unital examples
    for name, alg in (("qq", algs["qq"]), ("qqq", ac.direct_sum(algs["qq"], algs["mat1"]))):
        unity = alg.unity
        for coords in itertools.product((0, 1), repeat=alg.dim):
            f = Functional(alg, tuple(Fraction(c) for c in coords))
            mult = is_multiplicative(f)
            r = rank_gram(f)
            if mult and any(coords):
                _check(checks, f"{name}: multiplicative {coords} has rank 1", r == 1)
            if r == 1 and f(unity) == 1:
                _check(checks, f"{name}: rank-1 normalized {coords} is multiplicative", mult)
    return SuiteReport("stab-props", tuple(checks), seed)


def _vk_product_targets(a: Alpha, b: Alpha) -> Alpha | None:
    """Target alpha of V_k(a) * V_m(b), or None when the law does not apply."""
    if {a, b} == {Alpha(0), ALPHA_INF}:
        return None
    if a.is_infinite or b.is_infinite:
        other = b if a.is_infinite else a
        if not other.is_infinite and other.value == 0:
            return None
        return ALPHA_INF
    if a.value == 0 or b.value == 0:
        return Alpha(0)
    return Alpha(a.value * b.value)


def vk_props_suite(seed: int = 0, samples: int = 4) -> SuiteReport:
    """Divisibility bounds, level products, base-point independence, completeness."""
    checks: list[CheckResult] = []
    for name, f, rep in _rational_spectrum_pairs(gallery_algebras(), seed):
        alg = f.algebra
        _check(checks, f"{name}: chi nonzero", not rep.degenerate)
        if rep.degenerate:
            continue
        for e in rep.all_entries():
            _check(
                checks,
                f"{name}: stab_dim <= multiplicity at {e.alpha}",
                e.stab_dim <= e.multiplicity,
                f"{e.stab_dim} > {e.multiplicity}",
            )
        alphas = rep.exact_alphas()
        filtrations = {str(a): jordan_spaces(f, a) for a in alphas}
        for a in alphas:
            _check(checks, f"{name}: V_1({a}) = stab({a})", filtrations[str(a)].levels[0] == stab(f, a))

        # independence of the base point
        probe = alphas[0]
        jf = filtrations[str(probe)]
        skip = {jf.alpha0_used, None if probe.is_infinite else probe.value}
        for cand in (Fraction(x) for x in (0, 2, 3, 5, 7, -1) if Fraction(x) not in skip):
            try:
                alt = jordan_spaces(f, probe, alpha0=cand)
            except NoRegularAlpha0:
                continue
            _check(
                checks,
                f"{name}: V_k({probe}) independent of base point ({jf.alpha0_used} vs {cand})",
                tuple(s.basis for s in alt.levels) == tuple(s.basis for s in jf.levels),
            )
            break

        # product law V_k(a) V_m(b) in V_{k+m-1}(ab) for k+m <= 4
        for a, b in itertools.product(alphas, repeat=2):
            target = _vk_product_targets(a, b)
            if target is None:
                continue
            ft_target = filtrations.get(str(target))
            if ft_target is None:
                ft_target = jordan_spaces(f, target)
            fa, fb = filtrations[str(a)], filtrations[str(b)]
            for k in (1, 2, 3):
                for m_lvl in (1, 2, 3):
                    if k + m_lvl > 4:
                        continue
                    prod = subspace_product(fa.level(k), fb.level(m_lvl))
                    _check(
                        checks,
                        f"{name}: V_{k}({a})V_{m_lvl}({b}) in V_{k + m_lvl - 1}({target})",
                        ft_target.level(k + m_lvl - 1).contains_subspace(prod),
                    )

        # F vanishes on every level for alpha != 1 (unital algebras)
        if alg.is_unital():
            for a in alphas:
                if not a.is_infinite and a.value == 1:
                    continue
                top = filtrations[str(a)].top
                _check(checks, f"{name}: F vanishes on V_top({a})", vanishes_on(f, top))

        # completeness: top levels fill the algebra independently
        tops = [v for a in alphas for v in filtrations[str(a)].top.basis]
        total = sum(filtrations[str(a)].top.dim for a in alphas)
        _check(
            checks,
            f"{name}: jordan completeness",
            total == alg.dim and Subspace(alg, tops).dim == alg.dim,
            f"sum of top dims {total} vs dim {alg.dim}",
        )
    return SuiteReport("vk-props", tuple(checks), seed)


def cayley_suite(seed: int = 0, instances: int = 30, tol: float = 1e-6) -> SuiteReport:
    """Determinant identities: det of a Kronecker product, shuffle conjugation,
    and the numeric factored-pencil substitution identity."""
    checks: list[CheckResult] = []
    rng = random.Random(seed)
    for trial in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = RatMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        b = RatMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(m)] for _ in range(m)])
        _check(
            checks,
            f"det(A kron B) = det(A)^{m} det(B)^{n} (trial {trial})",
            det(kron(a, b)) == det(a) ** m * det(b) ** n,
        )
    for trial in range(50):
        k = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = RatMatrix([[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)])
        b = RatMatrix([[rng.randint(-9, 9) for _ in range(m)] for _ in range(m)])
        u = kronecker_swap_matrix(k, m)
        _check(
            checks,
            f"U (A kron B) U^-1 = B kron A ({k}x{m}, trial {trial})",
            u @ kron(a, b) @ inverse(u) == kron(b, a),
        )
    rep = random_cayley_instances(count=instances, seed=seed, tolerance=tol)
    _check(
        checks,
        f"factored-pencil substitution identity on {instances} instances (tol {tol})",
        rep.pass_,
        f"max rel err {rep.max_relative_error}",
    )
    return SuiteReport("cayley", tuple(checks), seed)


def tensor_chi_suite(seed: int = 0, max_product_dim: int = 36) -> SuiteReport:
    """Exact agreement of the two chi routes on all desk pairs within budget."""
    checks: list[CheckResult] = []
    rng = random.Random(seed)
    algs = gallery_algebras()
    names = ["mat1", "mat2", "mat3", "ut2", "ut3", "seaweed_12_21", "seaweed_21_12"]
    for na, nb in itertools.product(names, repeat=2):
        a, b = algs[na], algs[nb]
        if a.dim * b.dim > max_product_dim:
            continue
        f = Functional(a, tuple(Fraction(rng.randint(-20, 20)) for _ in range(a.dim)))
        g = Functional(b, tuple(Fraction(rng.randint(-20, 20)) for _ in range(b.dim)))
        ta = ac.tensor_product(a, b)
        fg = tensor_functional(ta, f, g)
        _check(
            checks,
            f"gram(F(x)G) = gram(F) kron gram(G) [{na} x {nb}]",
            gram(fg) == kron(gram(f), gram(g)),
        )
        rep = tensor_char_check(a, f, b, g)
        _check(checks, f"chi routes agree [{na} x {nb}]", rep.pass_, rep.failing_instance or "")
    return SuiteReport("tensor-chi", tuple(checks), seed)


def regular_corollaries_suite(seed: int = 0, samples: int = 8) -> SuiteReport:
    checks: list[CheckResult] = []
    algs = gallery_algebras()
    for name in ("mat2", "mat3", "ut2", "ut3", "seaweed_12_21", "seaweed_21_12", "ut2_tensor_ut2", "qq"):
        alg = algs[name]
        rep = regularity_corollary_suite(alg, SamplerConfig(seed=seed, samples=samples))
        for c in rep.checks:
            checks.append(CheckResult(f"{name}: {c.name}", c.passed, c.detail))
    return SuiteReport("regular-corollaries", tuple(checks), seed)


def tensor_stab_suite_all(seed: int = 0) -> SuiteReport:
    """Tensor inclusion lemmas for stabilizers and low Jordan levels."""
    checks: list[CheckResult] = []
    rng = random.Random(seed)
    cases = [
        ("mat2", "ut2"),
        ("ut2", "ut2"),
        ("seaweed_21_12", "ut2"),
        ("qq", "ut2"),
    ]
    algs = gallery_algebras()

    for na, nb in cases:
        a, b = algs[na], algs[nb]
        if na == "mat2":
            f = trace_functional(a, RatMatrix([[1, 0], [0, 2]]))
        else:
            f = Functional(a, tuple(Fraction(rng.randint(1, 20)) for _ in range(a.dim)))
        g = Functional(b, tuple(Fraction(rng.randint(1, 20)) for _ in range(b.dim)))
        rep = tensor_stab_suite(a, f, b, g, seed)
        for c in rep.checks:
            checks.append(CheckResult(f"{na} x {nb}: {c.name}", c.passed, c.detail))
        # unity (x) unity stabilizes when both factors are unital
        if a.is_unital() and b.is_unital():
            ta = ac.tensor_product(a, b)
            fg = tensor_functional(ta, f, g)
            one = tuple(x * y for x in a.unity for y in b.unity)
            checks.append(
                CheckResult(f"{na} x {nb}: unity(x)unity in stab(1)", stab(fg, Alpha(1)).contains(one))
            )
        vk = tensor_vk_suite(a, f, b, g, seed)
        for c in vk.checks:
            checks.append(CheckResult(f"{na} x {nb}: {c.name}", c.passed, c.detail))
    return SuiteReport("tensor-stab", tuple(checks), seed)


SUITES = {
    "stab-props": lambda seed, samples, instances, tol: stab_props_suite(seed, samples),
    "vk-props": lambda seed, samples, instances, tol: vk_props_suite(seed, samples),
    "cayley": lambda seed, samples, instances, tol: cayley_suite(seed, instances, tol),
    "tensor-chi": lambda seed, samples, instances, tol: tensor_chi_suite(seed),
    "regular-corollaries": lambda seed, samples, instances, tol: regular_corollaries_suite(seed, samples),
    "tensor-stab": lambda seed, samples, instances, tol: tensor_stab_suite_all(seed),
}


def run_suite(name: str, seed: int = 0, samples: int = 8, instances: int = 30, tol: float = 1e-6) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed, samples, instances, tol)
