"""Characteristic pencils, spectra, type classification, index, Jordan levels.

For a pair (algebra, F) with pairing matrix M the characteristic polynomial
is chi(lam, mu) = det(lam*M + mu*M^T), homogeneous of the subspace dimension
and symmetric in (lam, mu).  Dehomogenizing at (x, -1) gives the pencil
polynomial p(x) = det(x*M - M^T); its root set is exactly the set of finite
alpha with stab(alpha) != 0, the order of the root x=alpha is the
"multiplicity" of alpha, and the multiplicity at infinity is the degree
deficit of p.  The dimension of stab(alpha) never exceeds the multiplicity,
and a functional is alpha-precise when the two agree.

Jordan levels V_k(alpha) generalize stabilizers.  With P = M^T - alpha*M (M
at infinity) and B = M^T - alpha0*M regular, V_1 = ker P and V_{k+1} =
{x : P x in B V_k}; that is ker (K - I/(alpha - alpha0))^k for K = B^-1 M
(K^k at infinity), so the spaces do not depend on the base point alpha0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, ClassVar, Sequence

import numpy as np

from .algebra import Algebra
from .errors import NoRegularAlpha0
from .functional import (
    ALPHA_INF,
    Alpha,
    Functional,
    Subspace,
    gram,
    nil,
    pencil_at,
    regular_at,
    stab,
    subspace_product,
)
from .linalg import PRIME, RatMatrix, float_matrix, integer_vector, is_singular, kernel, rank, ranks_mod_p
from .poly import BivariatePoly, pencil_det, uni_roots
from .sampling import SamplerConfig, sample_functionals
from .scalars import ComplexApprox


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------


def char_poly_raw(f: Functional, keep: Sequence[int] | None = None) -> BivariatePoly:
    """Exact det(lam*M + mu*M^T), not normalized; M is restricted to the
    coordinates in ``keep`` when given, the span of those standard vectors."""
    m = gram(f)
    if keep is not None:
        d, rows = m.integer_form()
        m = RatMatrix.from_integer_form(d, tuple(tuple(rows[i][j] for j in keep) for i in keep))
    return pencil_det(m, m.transpose())


def char_poly(f: Functional) -> BivariatePoly:
    """Characteristic polynomial in canonical normalization (leading coeff 1)."""
    return char_poly_raw(f).canonical()


# ---------------------------------------------------------------------------
# spectrum report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
    alpha: Alpha | ComplexApprox
    multiplicity: int
    stab_dim: int
    precise: bool


@dataclass(frozen=True)
class SpectrumReport:
    kind: ClassVar[str] = "spectrum"
    algebra_dim: int
    pencil_degree: int
    entries: tuple[SpectrumEntry, ...]
    zero_entry: SpectrumEntry
    infinity_entry: SpectrumEntry
    degenerate: bool = False

    def all_entries(self) -> list[SpectrumEntry]:
        out = [self.zero_entry, *self.entries, self.infinity_entry]
        return [e for e in out if e.multiplicity > 0 or e.stab_dim > 0]

    def exact_alphas(self) -> list[Alpha]:
        return [e.alpha for e in self.all_entries() if isinstance(e.alpha, Alpha)]


def _numeric_kernel_dim(fm: np.ndarray, alpha: complex) -> int:
    """Numerical dim ker(M^T - alpha*M) for M given as a complex array ``fm``:
    the singular values below 1e-8 times max(1, the largest)."""
    s = np.linalg.svd(fm.T - alpha * fm, compute_uv=False)
    cutoff = 1e-8 * max(1.0, float(s[0]))
    return int(np.sum(s < cutoff))


def spectrum(f: Functional) -> SpectrumReport:
    """Roots of the pencil polynomial with multiplicities and stabilizer dims.

    At a nonvanishing chi the pencil is regular, so 1 <= dim stab(alpha) <=
    multiplicity at every root: the multiplicity decides the dimension when
    it is at most 1, and only multiple roots take an exact rank (rational
    alpha) or a float SVD (irrational alpha, whose entry carries a
    ComplexApprox).  stab(0) = ker M^T and stab(inf) = ker M share one
    dimension, and so do the multiplicities of 0 and infinity.  A vanishing
    chi yields a degenerate report.
    """
    n = f.algebra.dim
    gm = gram(f)
    chi = pencil_det(gm, gm.transpose())
    if chi.is_zero():
        d = n - rank(pencil_at(gm, ALPHA_INF))
        zero_e = SpectrumEntry(Alpha(0), 0, d, False)
        inf_e = SpectrumEntry(ALPHA_INF, 0, d, False)
        return SpectrumReport(n, -1, (), zero_e, inf_e, degenerate=True)
    p = chi.dehomogenize()
    v0 = p.x_valuation()
    mult_inf = n - p.degree
    core = p.shift_down(v0)

    def stab_dim(alpha: Fraction | Alpha | ComplexApprox, mult: int) -> int:
        """dim stab(alpha) at a root of multiplicity mult."""
        if mult <= 1:
            return mult
        if not isinstance(alpha, ComplexApprox):
            return n - rank(pencil_at(gm, alpha))
        return _numeric_kernel_dim(float_matrix(gm), alpha.as_complex())

    entries: list[SpectrumEntry] = []
    if core.degree > 0:
        for root, mult in uni_roots(core):
            d = stab_dim(root, mult)
            entries.append(SpectrumEntry(Alpha(root) if isinstance(root, Fraction) else root, mult, d, d == mult))

    def _sort_key(e: SpectrumEntry):
        if isinstance(e.alpha, Alpha):
            return (0, float(e.alpha.value), 0.0)
        return (1, e.alpha.re, e.alpha.im)

    entries.sort(key=_sort_key)
    d = stab_dim(ALPHA_INF, min(v0, mult_inf))
    zero_e = SpectrumEntry(Alpha(0), v0, d, v0 == d)
    inf_e = SpectrumEntry(ALPHA_INF, mult_inf, d, mult_inf == d)
    return SpectrumReport(n, p.degree, tuple(entries), zero_e, inf_e)


# ---------------------------------------------------------------------------
# Jordan levels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JordanFiltration:
    alpha: Alpha
    levels: tuple[Subspace, ...]
    alpha0_used: Fraction

    @property
    def top(self) -> Subspace:
        return self.levels[-1]

    def saturated(self, k: int) -> int:
        """The j <= k with V_k = V_j: levels beyond stabilization repeat the top."""
        if k < 1:
            raise ValueError("levels start at 1")
        return min(k, len(self.levels))

    def level(self, k: int) -> Subspace:
        """V_k with saturation: levels beyond stabilization repeat the top."""
        return self.levels[self.saturated(k) - 1]


def _alpha0_candidates(n: int):
    base = [0, 2, 3, 5, 7, -1]
    extra = [x for x in range(11, 11 + 2 * (n + 4)) if x not in base]
    return [Fraction(x) for x in base + extra]


def find_alpha0(f: Functional, avoid: Alpha) -> Fraction:
    """First base point other than ``avoid`` with invertible pencil; raises NoRegularAlpha0.

    Trying more than dim-many distinct candidates is a complete test: if all
    fail the pencil determinant vanishes identically (the pair is not of
    type 1 at this functional) and callers should pass to the quotient by
    the nil space first.  Each candidate's verdict is decided once per
    functional (`regular_at`), however many calls ask.
    """
    tried = 0
    for cand in _alpha0_candidates(f.algebra.dim):
        if not avoid.is_infinite and avoid.value == cand:
            continue
        tried += 1
        if regular_at(f, cand):
            return cand
        if tried > f.algebra.dim + 1:
            break
    raise NoRegularAlpha0(
        "no base point makes the pencil invertible (pair is not type 1 at this functional)"
    )


def _primitive_image(b: Sequence[Sequence[int]], w: Sequence[int]) -> list[int]:
    """B*w as a primitive integer column, for integer w, which keeps the kernel's integers small."""
    col = [sum(map(operator.mul, row, w)) for row in b]
    g = gcd(*col)
    return [c // g for c in col]


def jordan_spaces(f: Functional, alpha, alpha0=None) -> JordanFiltration:
    """Ascending Jordan level spaces at alpha; V_1 is stab(alpha).

    V_{k+1} is the x-part of ker [P | B W_k] for a basis W_k of V_k, with P
    and B the pencils at alpha and alpha0 (Gantmacher, The Theory of
    Matrices, vol. 2, ch. XII).  A singular alpha0 raises NoRegularAlpha0.
    """
    alpha = Alpha.of(alpha)
    m = gram(f)
    if alpha0 is None:
        alpha0 = find_alpha0(f, avoid=alpha)
    else:
        alpha0 = Fraction(alpha0)
        if not alpha.is_infinite and alpha.value == alpha0:
            raise ValueError("alpha0 must differ from alpha")
        if not regular_at(f, alpha0):
            raise NoRegularAlpha0(f"pencil is singular at alpha0={alpha0}")
    p = pencil_at(m, alpha)
    b = pencil_at(m, alpha0)
    n = f.algebra.dim
    levels: list[Subspace] = []
    image: list[list[int]] = []
    while True:
        _, ker = kernel([row + tuple(c[i] for c in image) for i, row in enumerate(p)])
        level = Subspace(f.algebra, [x[:n] for x in ker])
        if levels and level.dim == levels[-1].dim:
            break
        levels.append(level)
        if level.dim == n:
            break
        image = [_primitive_image(b, w) for w in level.rows]
    return JordanFiltration(alpha, tuple(levels), alpha0)


# ---------------------------------------------------------------------------
# classification and index
# ---------------------------------------------------------------------------

TYPE1, TYPE2, TYPE3 = "Type1", "Type2", "Type3"


@dataclass(frozen=True)
class ClassificationReport:
    kind: ClassVar[str] = "classification"
    verdict: str
    min_nil_dim: int
    witnesses: tuple[Functional, ...]
    samples_used: int
    seed: int


def classify(alg: Algebra, sampler: SamplerConfig) -> ClassificationReport:
    """Probabilistic type verdict from seeded sampling.

    With zero minimal nil dimension the verdict is Type1 exactly when some
    sampled chi is nonzero; otherwise the nil space of a minimal witness is
    completed to a complement V and the verdict is Type2 exactly when some
    sampled chi restricted to V is nonzero.  Nil dimensions, of ker [M ; M^T],
    are screened in one stack and confirmed as in `find_regular`.  Exact
    pairing matrices are built only for the witness's nil space and for the
    chi tests.
    """
    fs = sample_functionals(alg, sampler)
    ms = _pairings_mod_p(alg, fs)
    screened = (alg.dim - ranks_mod_p(np.concatenate([ms, ms.transpose(0, 2, 1)], axis=1))).tolist()
    witness, witness_nil = _least_exact(fs, screened, nil)
    min_nil = witness_nil.dim
    if min_nil == 0:
        for f in fs:
            if not char_poly_raw(f).is_zero():
                return ClassificationReport(TYPE1, 0, (f,), sampler.samples, sampler.seed)
        return ClassificationReport(TYPE3, 0, tuple(fs[:1]), sampler.samples, sampler.seed)
    # the complement spanned by the standard vectors at the non-pivot coordinates
    keep = [i for i in range(alg.dim) if i not in witness_nil.pivots]
    for f in fs:
        if not char_poly_raw(f, keep).is_zero():
            return ClassificationReport(TYPE2, min_nil, (witness, f), sampler.samples, sampler.seed)
    return ClassificationReport(TYPE3, min_nil, (witness,), sampler.samples, sampler.seed)


@dataclass(frozen=True)
class IndexReport:
    kind: ClassVar[str] = "index"
    value: int
    witness: Functional
    samples_used: int
    seed: int


def _pairings_mod_p(alg: Algebra, fs: list[Functional]) -> np.ndarray:
    """The (S, n, n) stack of the residues mod PRIME of dx * dt * M, for each
    functional's pairing matrix M, dx the lcm of its denominators and dt that
    of `integer_table`; read from `Algebra.table_mod_p` with no exact `gram`.
    That is `gram(f).integer_form()` mod PRIME times the integer dx * dt / d,
    which is 1 for integer coordinates on an integer table."""
    cells, ks, cs = alg.table_mod_p
    x = np.zeros((len(fs), alg.dim), dtype=np.int64)
    for s, f in enumerate(fs):
        x[s] = [c % PRIME for c in integer_vector(f.coords)[1]]
    ms = np.zeros((len(fs), alg.dim * alg.dim), dtype=np.int64)
    # each term is below PRIME, so a cell sums 2**32 of them before overflow
    np.add.at(ms, (slice(None), cells), x[:, ks] * cs % PRIME)
    return ms.reshape(len(fs), alg.dim, alg.dim) % PRIME


def _pencils_mod_p(ms: np.ndarray, alpha: Alpha) -> np.ndarray:
    """`pencil_at` mod PRIME of each matrix in a stack of residues:
    v * M^T - u * M for alpha = u/v, and M itself at infinity."""
    if alpha.is_infinite:
        return ms
    u, v = alpha.value.numerator % PRIME, alpha.value.denominator % PRIME
    return (v * ms.transpose(0, 2, 1) - u * ms) % PRIME


def find_regular(
    alg: Algebra, alpha, sampler: SamplerConfig, fs: list[Functional] | None = None
) -> tuple[Functional, Subspace]:
    """Sampled functional achieving the minimal observed dim stab(alpha), and its stab(alpha).

    All samples are screened at once: n - rank over GF(PRIME) of each pencil,
    at least dim stab(alpha), from one stack of pencils built from the
    structure table and the samples' integer coordinates, with no exact
    pairing matrix (`_pairings_mod_p`, `ranks_mod_p`); `_least_exact`
    confirms the screened minimum.  A sample is misjudged as non-minimal only
    if PRIME divides every maximal minor of its pencil.  A caller that has
    drawn the sampler's functionals passes them as ``fs``.
    """
    alpha = Alpha.of(alpha)
    if fs is None:
        fs = sample_functionals(alg, sampler)
    screened = (alg.dim - ranks_mod_p(_pencils_mod_p(_pairings_mod_p(alg, fs), alpha))).tolist()
    return _least_exact(fs, screened, lambda f: stab(f, alpha))


def _least_exact(
    fs: list[Functional], screened: list[int], exact: Callable[[Functional], Subspace]
) -> tuple[Functional, Subspace]:
    """The first sample of least screened dimension and its exact space, or, if
    the exact dimension there differs, the first sample of least exact
    dimension and its space.  Screened dimensions are never below the exact
    ones, so a screened 0 is exact already and needs no exact call."""
    low = min(screened)
    best = screened.index(low)
    if low == 0:
        return fs[best], Subspace.zero(fs[best].algebra)
    space = exact(fs[best])
    if space.dim != low:
        spaces = [exact(f) for f in fs]
        best = min(range(len(fs)), key=lambda i: spaces[i].dim)
        space = spaces[best]
    return fs[best], space


def index(alg: Algebra, sampler: SamplerConfig) -> IndexReport:
    """Minimal sampled dim stab(1), exact at its witness (see `find_regular`)."""
    witness, space = find_regular(alg, Alpha(1), sampler)
    return IndexReport(space.dim, witness, sampler.samples, sampler.seed)


def constant_spectrum_alphas(
    alg: Algebra, sampler: SamplerConfig, fs: list[Functional] | None = None
) -> set[Alpha]:
    """Exact spectral values present (stab != 0) at every nondegenerate sampled functional.

    The first nondegenerate sample's spectrum gives the candidates; each later
    sample keeps a candidate alpha only if M^T - alpha*M is singular (M at
    infinity).  At a nondegenerate F that is exactly stab(alpha) != 0, 0
    and infinity included; at a degenerate F every pencil is singular, so it
    keeps every candidate, as skipping it would.  As det M^T = det M, one
    singularity test of M decides 0 and infinity together.  ``fs`` is as in
    `find_regular`.
    """
    fs = iter(sample_functionals(alg, sampler) if fs is None else fs)
    for f in fs:
        rep = spectrum(f)
        if not rep.degenerate:
            break
    else:
        return set()
    common = {e.alpha for e in rep.all_entries() if isinstance(e.alpha, Alpha) and e.stab_dim > 0}
    ends = {Alpha(0), ALPHA_INF}
    for f in fs:
        if not common:
            break
        m = gram(f)
        kept = common & ends if common & ends and is_singular(m.integer_form()[1]) else set()
        common = kept | {a for a in common - ends if is_singular(pencil_at(m, a))}
    return common


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class RegularityReport:
    kind: ClassVar[str] = "regularity"
    checks: tuple[CheckResult, ...]
    seed: int
    constant_alphas: tuple[str, ...] = field(default=())


def regularity_corollary_suite(alg: Algebra, sampler: SamplerConfig) -> RegularityReport:
    """Consequences of regularity checked at sampled regular witnesses.

    At a 1-regular witness the stabilizer of 1 must be a commutative
    subalgebra; at a 0-regular witness stab(0)*stab(inf) must vanish and the
    nil space must have identically zero products.  For spectral values that
    are constant across the sampled spectra (the only ones for which the
    relation is a fixed algebra identity) the witness of alpha-regularity
    must satisfy x y = alpha y x for x in stab(alpha), y in stab(1/alpha).
    """
    checks: list[CheckResult] = []
    # one draw serves every call, so each functional's pairing matrix is built once
    fs = sample_functionals(alg, sampler)
    _, s1 = find_regular(alg, Alpha(1), sampler, fs)
    commutative = True
    detail = ""
    # the products run on the integer rows; a failure prints the Fraction basis
    mul = alg.integer_product
    for i, x in enumerate(s1.rows):
        for j, y in enumerate(s1.rows[i + 1 :], i + 1):
            if mul(x, y) != mul(y, x):
                commutative = False
                detail = f"noncommuting pair in stab(1): {s1.basis[i]} vs {s1.basis[j]}"
                break
        if not commutative:
            break
    checks.append(CheckResult("stab(1) commutative at 1-regular witness", commutative, detail))

    f0, s0 = find_regular(alg, Alpha(0), sampler, fs)
    s_inf = stab(f0, ALPHA_INF)
    prod = subspace_product(s0, s_inf)
    checks.append(
        CheckResult(
            "stab(0)*stab(inf) = 0 at 0-regular witness",
            prod.is_zero(),
            "" if prod.is_zero() else f"nonzero product space of dim {prod.dim}",
        )
    )
    nil0 = s0.intersect(s_inf)
    nil_trivial = not any(any(mul(u, v)) for u in nil0.rows for v in nil0.rows)
    checks.append(CheckResult("nil space has trivial multiplication at 0-regular witness", nil_trivial))

    constants = constant_spectrum_alphas(alg, sampler, fs)
    applicable = sorted(
        (a for a in constants if not a.is_infinite and a.value not in (0, 1)),
        key=lambda a: a.value,
    )
    for a in applicable:
        fa, sa = find_regular(alg, a, sampler, fs)
        sb = stab(fa, a.inverse())
        ok = True
        detail = ""
        # with a = u/v, x y = a y x is v x y = u y x
        u, v = a.value.numerator, a.value.denominator
        for i, x in enumerate(sa.rows):
            for j, y in enumerate(sb.rows):
                if [v * t for t in mul(x, y)] != [u * t for t in mul(y, x)]:
                    ok = False
                    detail = f"x y != {a} y x for x={sa.basis[i]}, y={sb.basis[j]}"
                    break
            if not ok:
                break
        checks.append(CheckResult(f"xy = {a}*yx on stab({a}) x stab(1/{a})", ok, detail))
    return RegularityReport(
        tuple(checks), sampler.seed, tuple(str(a) for a in applicable)
    )

