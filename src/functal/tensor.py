"""Kronecker-product determinant identities and tensor-pair experiments.

Exact facts exercised here:

* det(A (x) B) = det(A)^m det(B)^n for n x n A and m x m B;
* the perfect-shuffle permutation U with U (A (x) B) U^-1 = B (x) A;
* the pairing matrix of a product functional F (x) G is the Kronecker
  product of the factors' pairing matrices, checked entry for entry, so the
  characteristic polynomial of a tensor pair is the pencil determinant of
  Kronecker blocks and needs no second computation;
* det(lam A (x) C + mu B (x) D) equals det of the matrix-substituted
  pencil polynomial of (A, B) evaluated at (lam C, mu D), checked
  numerically because the substitution needs the pencil's linear factors:
  the right side is evaluated at nm + 1 points of the unit circle, one
  float determinant each, and its coefficients are recovered by an FFT.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from . import linalg
from .algebra import Algebra, mat, tensor_product
from .errors import AlgebraMismatch, DegeneratePencil, NoRegularAlpha0, NotType1
from .functional import ALPHA_INF, Alpha, Functional, Subspace, gram, stab
from .linalg import RatMatrix
from .poly import pencil_det
from .sampling import SamplerConfig
from .spectrum import (
    TYPE1,
    CheckResult,
    classify,
    constant_spectrum_alphas,
    find_regular,
    index,
    jordan_spaces,
    spectrum,
)


def kronecker_swap_matrix(k: int, m: int) -> RatMatrix:
    """Permutation U with U (A (x) B) U^-1 = B (x) A for all k x k A, m x m B."""
    if k < 1 or m < 1:
        raise ValueError("factor sizes must be positive")
    n = k * m
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(m):
            rows[j * k + i][i * m + j] = 1
    return RatMatrix.from_integer_form(1, tuple(map(tuple, rows)))


@dataclass(frozen=True)
class IdentityReport:
    kind: ClassVar[str] = "identity"
    identity: str
    instances_checked: int
    mode: str  # "exact" or "numeric"
    pass_: bool
    max_relative_error: float = 0.0
    tolerance: float | None = None
    failing_instance: str | None = None
    seed: int | None = None


# ---------------------------------------------------------------------------
# extended Cayley identity
# ---------------------------------------------------------------------------


def _balance(m: RatMatrix) -> RatMatrix:
    d, ints = m.integer_form()
    top = max((abs(x) for row in ints for x in row), default=0)
    return m.scale(Fraction(d, top)) if top else m


def extended_cayley_check(
    a: RatMatrix, b: RatMatrix, c: RatMatrix, d: RatMatrix, tolerance: float = 1e-6
) -> IdentityReport:
    """det(lam A(x)C + mu B(x)D) versus the factored pencil substitution.

    The left side is an exact bivariate determinant.  The right side uses
    the linear-factor form chi(lam, mu) = det(lam A + mu B)
    = lead * mu^(n-k) * prod (lam - t_i mu), with float roots t_i from
    np.roots: at mu = 1 and lam = z it is
    det(lead * D^(n-k) * prod (z C - t_i D)), the factors multiplied in
    ascending root order.  Its coefficients are recovered from nm + 1 such
    values on the unit circle by an FFT and compared with the left side's
    at the relative tolerance.  Inputs are balanced by their max-entry scale
    first; the identity is scale-covariant so the balanced instance is
    equivalent.
    """
    a, b, c, d = _balance(a), _balance(b), _balance(c), _balance(d)
    n = a.rows
    m = c.rows
    chi = pencil_det(a, b)
    if chi.is_zero():
        raise DegeneratePencil("det(lam A + mu B) vanishes identically")
    lhs = pencil_det(linalg.kron(a, c), linalg.kron(b, d))

    # factor chi = lead * mu^(n-k) * prod (lam - t_i mu) with k = lam-degree
    p = [complex(0)] * (n + 1)
    for (i, _j), coeff in chi.terms.items():
        p[i] = complex(float(coeff))
    deg = max(i for i in range(n + 1) if p[i] != 0)
    lead = p[deg]
    roots = np.roots(list(reversed(p[: deg + 1]))) if deg > 0 else np.array([])
    roots = np.sort_complex(roots)

    # at mu = 1 the right side is a polynomial of degree <= nm in lam; its
    # coefficients are the DFT of its values at the N = nm + 1 points
    # z_k = exp(2 pi i k / N), divided by N
    cf = linalg.float_matrix(c)
    df = linalg.float_matrix(d)
    size = n * m + 1
    z = np.exp(2j * np.pi * np.arange(size) / size)[:, None, None]
    acc = np.broadcast_to(lead * np.linalg.matrix_power(df, n - deg), (size, m, m))
    for t in roots:
        acc = acc @ (z * cf - t * df)
    rc = np.fft.fft(np.linalg.det(acc)) / size

    lc = np.zeros(size, dtype=complex)
    for (i, _j), coeff in lhs.terms.items():
        lc[i] = complex(float(coeff))
    scale = max(1.0, float(np.max(np.abs(lc))), float(np.max(np.abs(rc))))
    max_err = float(np.max(np.abs(lc - rc)) / scale)
    ok = max_err <= tolerance
    return IdentityReport(
        "extended-cayley",
        1,
        "numeric",
        ok,
        max_relative_error=max_err,
        tolerance=tolerance,
        failing_instance=None if ok else json.dumps({"lhs": [str(x) for x in lc], "rhs": [str(x) for x in rc]}),
    )


def random_cayley_instances(count: int, seed: int, tolerance: float) -> IdentityReport:
    """Seeded batch of extended-Cayley checks on random integer matrices of
    size 1 to 4 with entries in [-5, 5]; an instance with det(lam A + mu B)
    identically 0 is skipped."""
    rng = random.Random(seed)
    worst = 0.0
    checked = 0
    while checked < count:
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        mk = lambda size: RatMatrix([[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)])
        a, b, c, d = mk(n), mk(n), mk(m), mk(m)
        try:
            rep = extended_cayley_check(a, b, c, d, tolerance)
        except DegeneratePencil:
            continue
        checked += 1
        worst = max(worst, rep.max_relative_error)
        if not rep.pass_:
            return IdentityReport(
                "extended-cayley", checked, "numeric", False, worst, tolerance,
                failing_instance=json.dumps(
                    {
                        "a": [[str(x) for x in row] for row in a.data],
                        "b": [[str(x) for x in row] for row in b.data],
                        "c": [[str(x) for x in row] for row in c.data],
                        "d": [[str(x) for x in row] for row in d.data],
                    }
                ),
                seed=seed,
            )
    return IdentityReport("extended-cayley", checked, "numeric", True, worst, tolerance, seed=seed)


# ---------------------------------------------------------------------------
# tensor pairs
# ---------------------------------------------------------------------------


def tensor_functional(tensor_alg: Algebra, f: Functional, g: Functional) -> Functional:
    """Product functional with value F(x)G(y) on x (x) y, in the tensor basis."""
    if tensor_alg.dim != f.algebra.dim * g.algebra.dim:
        raise AlgebraMismatch("tensor algebra dimension does not match the factors")
    coords = tuple(x * y for x in f.coords for y in g.coords)
    return Functional(tensor_alg, coords)


def tensor_char_check(f: Functional, g: Functional, fg: Functional, tolerance: float = 1e-6) -> IdentityReport:
    """Characteristic polynomial of a tensor pair, two ways.

    Exact: the pairing matrix of the product functional fg = F (x) G on
    A (x) B, from the tensor algebra itself, must equal the Kronecker product
    of the factors' pairing matrices, so the two characteristic polynomials
    agree.  When the factor pencil of F is nonzero, a numeric
    factored-substitution check (as in the extended Cayley identity) is run on
    the factors as well.
    """
    mf = gram(f)
    mg = gram(g)
    exact_ok = gram(fg) == linalg.kron(mf, mg)
    numeric_err = 0.0
    numeric_ok = True
    if exact_ok:
        try:
            rep = extended_cayley_check(mf, mf.transpose(), mg, mg.transpose(), tolerance)
            numeric_err = rep.max_relative_error
            numeric_ok = rep.pass_
        except DegeneratePencil:
            pass
    ok = exact_ok and numeric_ok
    return IdentityReport(
        "tensor-characteristic",
        1,
        "exact+numeric",
        ok,
        max_relative_error=numeric_err,
        tolerance=tolerance,
        failing_instance=None if ok else json.dumps({"F": f.to_dict(), "G": g.to_dict()}),
    )


@dataclass(frozen=True)
class SuiteReport:
    kind: ClassVar[str] = "suite"
    name: str
    checks: tuple[CheckResult, ...]
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _tensor_spanners(u: Subspace, w: Subspace) -> list[tuple[int, ...]]:
    """Spanning vectors x (x) y for x, y the integer rows of u and w."""
    out = []
    for x in u.rows:
        for y in w.rows:
            out.append(tuple(xi * yj for xi in x for yj in y))
    return out


def tensor_stab_suite(f: Functional, g: Functional, fg: Functional, seed: int = 0) -> SuiteReport:
    """Inclusion laws tying the stabilizers of F and G to those of the product
    functional fg = F (x) G on A (x) B.

    Checks, by exact membership of spanning vectors:
      stab_F(a) (x) stab_G(b) inside stab_{F(x)G}(a*b) for spectral a, b;
      stab_F(0) (x) stab_G(inf) and stab_F(inf) (x) stab_G(0) inside nil;
      stab_F(0) (x) B + A (x) stab_G(0) inside stab(0), same for infinity.
    """
    checks: list[CheckResult] = []
    # one stabilizer per (functional, alpha) per call
    stab_f, stab_g, stab_fg = (functools.cache(functools.partial(stab, h)) for h in (f, g, fg))

    alphas_a = spectrum(f).exact_alphas()
    alphas_b = spectrum(g).exact_alphas()
    for a in alphas_a:
        for b in alphas_b:
            try:
                ab = a.times(b)
            except ValueError:
                continue  # 0 * inf pairs are covered by the nil check
            vecs = _tensor_spanners(stab_f(a), stab_g(b))
            target = stab_fg(ab)
            ok = all(target.contains(v) for v in vecs)
            checks.append(
                CheckResult(f"stab({a}) (x) stab({b}) in stab({ab})", ok)
            )

    nil_fg = stab_fg(Alpha(0)).intersect(stab_fg(ALPHA_INF))
    mixed = _tensor_spanners(stab_f(Alpha(0)), stab_g(ALPHA_INF))
    mixed += _tensor_spanners(stab_f(ALPHA_INF), stab_g(Alpha(0)))
    checks.append(
        CheckResult(
            "stab(0)(x)stab(inf) + stab(inf)(x)stab(0) in nil",
            all(nil_fg.contains(v) for v in mixed),
        )
    )

    whole_a = Subspace.whole(f.algebra)
    whole_b = Subspace.whole(g.algebra)
    for alpha, name in ((Alpha(0), "0"), (ALPHA_INF, "inf")):
        target = stab_fg(alpha)
        vecs = _tensor_spanners(stab_f(alpha), whole_b)
        vecs += _tensor_spanners(whole_a, stab_g(alpha))
        checks.append(
            CheckResult(
                f"stab({name})(x)B + A(x)stab({name}) in stab({name})",
                all(target.contains(v) for v in vecs),
            )
        )
    return SuiteReport("tensor-stab", tuple(checks), seed)


def tensor_vk_suite(f: Functional, g: Functional, fg: Functional, seed: int = 0) -> SuiteReport:
    """V_k(a) (x) V_m(b) inside V_{k+m-1}(ab) for k + m <= 3.

    Applies only when the product functional fg = F (x) G is pencil-regular; when
    it is not (e.g. both factor spectra contain 0 and infinity, which forces
    a nonzero nil space on the product), the deep levels are undefined along
    the operator route and the whole pair is skipped.  The k = m = 1 layer
    of the law is the stabilizer inclusion covered by tensor_stab_suite.
    """
    checks: list[CheckResult] = []
    alphas_a = spectrum(f).exact_alphas()
    alphas_b = spectrum(g).exact_alphas()
    # each factor filtration, and the product filtration at each ab, is
    # computed once per call, at its first use
    filtration_a = functools.cache(lambda a: jordan_spaces(f, a))
    filtration_b = functools.cache(lambda b: jordan_spaces(g, b))
    filtration_ab = functools.cache(lambda ab: jordan_spaces(fg, ab))
    for a in alphas_a:
        for b in alphas_b:
            if {a, b} == {Alpha(0), ALPHA_INF}:
                continue
            try:
                ab = a.times(b)
            except ValueError:
                continue
            try:
                ft = filtration_ab(ab)
            except NoRegularAlpha0:
                return SuiteReport("tensor-vk", tuple(checks), seed)
            fa = filtration_a(a)
            fb = filtration_b(b)
            for k in (1, 2):
                for m_lvl in range(1, 4 - k):
                    vecs = _tensor_spanners(fa.level(k), fb.level(m_lvl))
                    target = ft.level(k + m_lvl - 1)
                    ok = all(target.contains(x) for x in vecs)
                    checks.append(
                        CheckResult(f"V_{k}({a}) (x) V_{m_lvl}({b}) in V_{k + m_lvl - 1}({ab})", ok)
                    )
    return SuiteReport("tensor-vk", tuple(checks), seed)


# ---------------------------------------------------------------------------
# index experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorIndexReport:
    kind: ClassVar[str] = "tensor-index"
    n: int
    factor_index: int
    product_index: int
    expected: int
    one_precise_checked: bool
    one_precise: bool | None
    warning: str | None
    seed: int

    @property
    def passed(self) -> bool:
        return self.product_index == self.expected and self.one_precise is not False


def mat_tensor_index_experiment(
    n: int, alg_b: Algebra, sampler: SamplerConfig, max_exact_chi_dim: int = 40
) -> TensorIndexReport:
    """Index of mat(n) (x) B versus n times the index of B.

    Also verifies the witness is 1-precise (dim stab(1) equals the order of
    the root 1 of the pencil polynomial) when the product dimension permits
    the exact determinant.
    """
    warning = None
    if alg_b.unity is None:
        warning = "factor is not unital; the product-index law is not guaranteed"
    idx_b = index(alg_b, sampler)
    if idx_b.value != 1 and warning is None:
        warning = f"factor has index {idx_b.value} != 1; the product-index law is not guaranteed"
    ta = tensor_product(mat(n), alg_b)
    idx_prod = index(ta, sampler)
    expected = n * idx_b.value
    one_precise = None
    checked = False
    if ta.dim <= max_exact_chi_dim:
        checked = True
        rep = spectrum(idx_prod.witness)
        one = [e for e in rep.all_entries() if isinstance(e.alpha, Alpha) and not e.alpha.is_infinite and e.alpha.value == 1]
        one_precise = bool(one) and one[0].stab_dim == idx_prod.value and one[0].precise
    return TensorIndexReport(
        n, idx_b.value, idx_prod.value, expected, checked, one_precise, warning, sampler.seed
    )


@dataclass(frozen=True)
class ConjectureProbeReport:
    kind: ClassVar[str] = "conjecture-probe"
    product_index: int
    index_product: int
    resonance_sum: int
    resonant_alphas: tuple[str, ...]
    hypothesis: str
    hypothesis_consistent: bool
    seed: int


def conjecture_probe(alg_a: Algebra, alg_b: Algebra, sampler: SamplerConfig) -> ConjectureProbeReport:
    """Raw numbers around the product-index question, asserted of nothing.

    Reports ind(A (x) B), ind(A) * ind(B), and the resonance sum over
    constant spectral values alpha != 1 present in A whose inverse is
    present in B, weighting each by dim stab_F(alpha) * dim stab_G(1/alpha)
    at regular witnesses.  The identity
    ind(A (x) B) = ind(A) * ind(B) + resonance_sum is reported as a
    corrected-reading hypothesis only, never as a verified statement.
    """
    for name, alg in (("left", alg_a), ("right", alg_b)):
        verdict = classify(alg, sampler).verdict
        if verdict != TYPE1:
            raise NotType1(f"{name} factor classifies as {verdict}")
    idx_a = index(alg_a, sampler)
    idx_b = index(alg_b, sampler)
    prod_idx = index(tensor_product(alg_a, alg_b), sampler)
    const_a = constant_spectrum_alphas(alg_a, sampler)
    const_b = constant_spectrum_alphas(alg_b, sampler)
    one = Alpha(1)
    resonance = 0
    resonant = []
    for a in sorted(const_a, key=str):
        if a == one:
            continue
        inv = a.inverse()
        if inv not in const_b:
            continue
        _, sa = find_regular(alg_a, a, sampler)
        _, sb = find_regular(alg_b, inv, sampler)
        resonance += sa.dim * sb.dim
        resonant.append(str(a))
    hypothesis = (
        f"corrected reading: ind(A(x)B) = ind(A)*ind(B) + resonance "
        f"({prod_idx.value} = {idx_a.value * idx_b.value} + {resonance}); "
        "reported as a hypothesis, not a verified identity"
    )
    return ConjectureProbeReport(
        prod_idx.value,
        idx_a.value * idx_b.value,
        resonance,
        tuple(resonant),
        hypothesis,
        prod_idx.value == idx_a.value * idx_b.value + resonance,
        sampler.seed,
    )
