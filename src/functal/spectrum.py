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

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .algebra import Algebra, dense, sparse
from .errors import EnvelopeExceeded, NoRegularAlpha0, NotAnIdeal, ZeroPolynomial
from .functional import (
    ALPHA_INF,
    Alpha,
    Functional,
    Subspace,
    gram,
    nil,
    pencil_at,
    restrict_form,
    stab,
    subspace_product,
)
from .linalg import RatMatrix, Vector, det, ff_det, kernel
from .poly import (
    BivariatePoly,
    MultivariatePoly,
    UnivariatePoly,
    make_poly,
    pencil_det,
    uni_roots,
)
from .sampling import SamplerConfig, pmap, sample_functionals
from .scalars import ComplexApprox

SYMBOLIC_DIM_ENVELOPE = 9


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------


def _pencil_matrix(f: Functional, v: Subspace | None) -> RatMatrix:
    m = gram(f)
    if v is not None:
        m = restrict_form(m, v, v)
    return m


def char_poly_raw(f: Functional, v: Subspace | None = None) -> BivariatePoly:
    """Exact det(lam*M + mu*M^T), not normalized."""
    m = _pencil_matrix(f, v)
    return pencil_det(m, m.transpose())


def char_poly(f: Functional, v: Subspace | None = None) -> BivariatePoly:
    """Characteristic polynomial in canonical normalization (leading coeff 1)."""
    return char_poly_raw(f, v).canonical()


def char_poly_symbolic(alg: Algebra, v: Subspace | None = None) -> MultivariatePoly:
    """chi as a polynomial in lam, mu and one variable per basis label.

    The determinant is expanded symbolically, which is only sensible for
    small subspaces; dimensions above the envelope raise EnvelopeExceeded
    and callers should fall back to pointwise identity testing.
    """
    dim_v = v.dim if v is not None else alg.dim
    if dim_v > SYMBOLIC_DIM_ENVELOPE:
        raise EnvelopeExceeded(
            f"symbolic determinant envelope is dim <= {SYMBOLIC_DIM_ENVELOPE}, got {dim_v}"
        )
    variables = ("lam", "mu") + alg.labels
    n = alg.dim

    def cell_poly(cell) -> MultivariatePoly:
        terms = {}
        for k, c in cell:
            exp = [0] * len(variables)
            exp[2 + k] = 1
            terms[tuple(exp)] = c
        return make_poly(variables, terms)

    sym = [[cell_poly(alg.table[i][j]) for j in range(n)] for i in range(n)]
    if v is not None:
        rows = v.basis
        sym = [
            [
                sum(
                    (sym[i][j] * (u[i] * w[j]) for i in range(n) for j in range(n) if u[i] * w[j] != 0),
                    make_poly(variables, {}),
                )
                for w in rows
            ]
            for u in rows
        ]
    lam = MultivariatePoly.variable(variables, "lam")
    mu = MultivariatePoly.variable(variables, "mu")
    size = len(sym)
    pencil = [[lam * sym[i][j] + mu * sym[j][i] for j in range(size)] for i in range(size)]
    if size == 0:
        return MultivariatePoly.constant(variables, 1)
    return ff_det(pencil)


def pencil_poly(f: Functional, v: Subspace | None = None) -> UnivariatePoly:
    """p(x) = chi(x, -1); raises ZeroPolynomial when chi vanishes identically."""
    chi = char_poly_raw(f, v)
    if chi.is_zero():
        raise ZeroPolynomial("characteristic polynomial vanishes identically")
    return chi.dehomogenize()


# ---------------------------------------------------------------------------
# spectrum report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
    alpha: Alpha | ComplexApprox
    multiplicity: int
    stab_dim: int
    precise: bool

    def alpha_json(self):
        if isinstance(self.alpha, ComplexApprox):
            return [self.alpha.re, self.alpha.im]
        return str(self.alpha)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha_json(),
            "multiplicity": self.multiplicity,
            "stab_dim": self.stab_dim,
            "precise": self.precise,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SpectrumEntry":
        a = d["alpha"]
        alpha = ComplexApprox(a[0], a[1]) if isinstance(a, list) else Alpha.of(a)
        return cls(alpha, d["multiplicity"], d["stab_dim"], d["precise"])


@dataclass(frozen=True)
class SpectrumReport:
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

    def to_json_dict(self) -> dict:
        return {
            "kind": "spectrum",
            "algebra_dim": self.algebra_dim,
            "pencil_degree": self.pencil_degree,
            "degenerate": self.degenerate,
            "entries": [e.to_json_dict() for e in self.entries],
            "zero_entry": self.zero_entry.to_json_dict(),
            "infinity_entry": self.infinity_entry.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SpectrumReport":
        return cls(
            algebra_dim=d["algebra_dim"],
            pencil_degree=d["pencil_degree"],
            degenerate=d["degenerate"],
            entries=tuple(SpectrumEntry.from_json_dict(e) for e in d["entries"]),
            zero_entry=SpectrumEntry.from_json_dict(d["zero_entry"]),
            infinity_entry=SpectrumEntry.from_json_dict(d["infinity_entry"]),
        )


def _numeric_kernel_dim(m: RatMatrix, alpha: complex, tol: float = 1e-8) -> int:
    a = np.array([[complex(x) for x in row] for row in m.transpose().data]) - alpha * np.array(
        [[complex(x) for x in row] for row in m.data]
    )
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0:
        return 0
    cutoff = tol * max(1.0, float(s[0]))
    return int(np.sum(s < cutoff))


def spectrum(f: Functional, v: Subspace | None = None) -> SpectrumReport:
    """Roots of the pencil polynomial with multiplicities and stabilizer dims.

    Rational roots are handled exactly; non-rational roots get approximate
    stabilizer dimensions from a float SVD and are flagged by carrying a
    ComplexApprox alpha.  A vanishing chi yields a degenerate report.
    """
    n = v.dim if v is not None else f.algebra.dim
    gm = _pencil_matrix(f, v)
    dim0 = len(kernel(pencil_at(gm, Alpha(0))))
    dim_inf = len(kernel(pencil_at(gm, ALPHA_INF)))
    chi = pencil_det(gm, gm.transpose())
    if chi.is_zero():
        zero_e = SpectrumEntry(Alpha(0), 0, dim0, False)
        inf_e = SpectrumEntry(ALPHA_INF, 0, dim_inf, False)
        return SpectrumReport(n, -1, (), zero_e, inf_e, degenerate=True)
    p = chi.dehomogenize()
    v0 = p.x_valuation()
    mult_inf = n - p.degree
    core = p.shift_down(v0)
    entries: list[SpectrumEntry] = []
    if core.degree > 0:
        for root, mult in uni_roots(core):
            if isinstance(root, Fraction):
                d = len(kernel(pencil_at(gm, root)))
                entries.append(SpectrumEntry(Alpha(root), mult, d, d == mult))
            else:
                d = _numeric_kernel_dim(gm, root.as_complex())
                entries.append(SpectrumEntry(root, mult, d, d == mult))

    def _sort_key(e: SpectrumEntry):
        if isinstance(e.alpha, Alpha):
            return (0, float(e.alpha.value), 0.0)
        return (1, e.alpha.re, e.alpha.im)

    entries.sort(key=_sort_key)
    zero_e = SpectrumEntry(Alpha(0), v0, dim0, v0 == dim0)
    inf_e = SpectrumEntry(ALPHA_INF, mult_inf, dim_inf, mult_inf == dim_inf)
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

    def level(self, k: int) -> Subspace:
        """V_k with saturation: levels beyond stabilization repeat the top."""
        if k < 1:
            raise ValueError("levels start at 1")
        return self.levels[min(k, len(self.levels)) - 1]


def _alpha0_candidates(n: int):
    base = [0, 2, 3, 5, 7, -1]
    extra = [x for x in range(11, 11 + 2 * (n + 4)) if x not in base]
    return [Fraction(x) for x in base + extra]


def find_alpha0(f: Functional, avoid: Alpha | None = None) -> Fraction:
    """First base point with invertible pencil; raises NoRegularAlpha0.

    Trying more than dim-many distinct candidates is a complete test: if all
    fail the pencil determinant vanishes identically (the pair is not of
    type 1 at this functional) and callers should pass to the quotient by
    the nil space first.
    """
    m = gram(f)
    tried = 0
    for cand in _alpha0_candidates(f.algebra.dim):
        if avoid is not None and not avoid.is_infinite and avoid.value == cand:
            continue
        tried += 1
        if det(pencil_at(m, cand)) != 0:
            return cand
        if tried > f.algebra.dim + 1:
            break
    raise NoRegularAlpha0(
        "no base point makes the pencil invertible (pair is not type 1 at this functional)"
    )


def _primitive_image(b: list[list[int]], w: Vector) -> list[int]:
    """B*w as a primitive integer column, which keeps the kernel's integers small."""
    d = lcm(*(x.denominator for x in w))
    col = [sum(r * x.numerator * (d // x.denominator) for r, x in zip(row, w) if x) for row in b]
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
        if det(pencil_at(m, alpha0)) == 0:
            raise NoRegularAlpha0(f"pencil is singular at alpha0={alpha0}")
    p = pencil_at(m, alpha).data
    b = [[x.numerator for x in row] for row in pencil_at(m, alpha0).data]
    n = f.algebra.dim
    levels: list[Subspace] = []
    image: list[list[int]] = []
    while True:
        ker = kernel(RatMatrix([row + tuple(c[i] for c in image) for i, row in enumerate(p)]))
        level = Subspace(f.algebra, [x[:n] for x in ker])
        if levels and level.dim == levels[-1].dim:
            break
        levels.append(level)
        if level.dim == n:
            break
        image = [_primitive_image(b, w) for w in level.basis]
    return JordanFiltration(alpha, tuple(levels), alpha0)


# ---------------------------------------------------------------------------
# classification and index
# ---------------------------------------------------------------------------

TYPE1, TYPE2, TYPE3 = "Type1", "Type2", "Type3"


def canonical_complement(s: Subspace) -> Subspace:
    """Complement spanned by the standard vectors at the non-pivot coordinates."""
    alg = s.algebra
    return Subspace(alg, [alg.basis_vector(i) for i in range(alg.dim) if i not in s.pivots])


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    min_nil_dim: int
    witness_functionals: tuple[Functional, ...]
    samples_used: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "kind": "classification",
            "verdict": self.verdict,
            "min_nil_dim": self.min_nil_dim,
            "witnesses": [w.to_dict() for w in self.witness_functionals],
            "samples_used": self.samples_used,
            "seed": self.seed,
        }


def classify(alg: Algebra, sampler: SamplerConfig = SamplerConfig()) -> ClassificationReport:
    """Probabilistic type verdict from seeded sampling.

    With zero minimal nil dimension the verdict is Type1 exactly when some
    sampled chi is nonzero; otherwise the nil space of a minimal witness is
    completed to a complement V and the verdict is Type2 exactly when some
    sampled chi restricted to V is nonzero.
    """
    fs = sample_functionals(alg, sampler)
    nil_dims = [nil(f).dim for f in fs]
    min_nil = min(nil_dims)
    if min_nil == 0:
        for f in fs:
            if not char_poly_raw(f).is_zero():
                return ClassificationReport(TYPE1, 0, (f,), sampler.samples, sampler.seed)
        return ClassificationReport(TYPE3, 0, tuple(fs[:1]), sampler.samples, sampler.seed)
    witness = fs[nil_dims.index(min_nil)]
    v = canonical_complement(nil(witness))
    for f in fs:
        if not char_poly_raw(f, v).is_zero():
            return ClassificationReport(TYPE2, min_nil, (witness, f), sampler.samples, sampler.seed)
    return ClassificationReport(TYPE3, min_nil, (witness,), sampler.samples, sampler.seed)


@dataclass(frozen=True)
class IndexReport:
    value: int
    witness: Functional
    samples_used: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "kind": "index",
            "value": self.value,
            "witness": self.witness.to_dict(),
            "samples_used": self.samples_used,
            "seed": self.seed,
        }


def _stab_dim_at(args) -> int:
    f, alpha = args
    return stab(f, alpha).dim


def find_regular(alg: Algebra, alpha, sampler: SamplerConfig = SamplerConfig()) -> tuple[Functional, int]:
    """Sampled functional achieving the minimal observed dim stab(alpha)."""
    alpha = Alpha.of(alpha)
    fs = sample_functionals(alg, sampler)
    dims = pmap(_stab_dim_at, [(f, alpha) for f in fs], sampler.workers)
    best = min(range(len(fs)), key=lambda i: dims[i])
    return fs[best], dims[best]


def index(alg: Algebra, sampler: SamplerConfig = SamplerConfig()) -> IndexReport:
    """Minimal sampled dim stab(1) with its witness."""
    witness, dim = find_regular(alg, Alpha(1), sampler)
    return IndexReport(dim, witness, sampler.samples, sampler.seed)


def constant_spectrum_alphas(alg: Algebra, sampler: SamplerConfig = SamplerConfig()) -> set[Alpha]:
    """Exact spectral values present (stab != 0) at every sampled functional."""
    common: set[Alpha] | None = None
    for f in sample_functionals(alg, sampler):
        rep = spectrum(f)
        if rep.degenerate:
            continue
        present = {e.alpha for e in rep.all_entries() if isinstance(e.alpha, Alpha) and e.stab_dim > 0}
        common = present if common is None else (common & present)
    return common or set()


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class RegularityReport:
    checks: tuple[CheckResult, ...]
    seed: int
    constant_alphas: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "kind": "regularity",
            "passed": self.passed,
            "seed": self.seed,
            "constant_alphas": list(self.constant_alphas),
            "checks": [c.to_json_dict() for c in self.checks],
        }


def regularity_corollary_suite(alg: Algebra, sampler: SamplerConfig = SamplerConfig()) -> RegularityReport:
    """Consequences of regularity checked at sampled regular witnesses.

    At a 1-regular witness the stabilizer of 1 must be a commutative
    subalgebra; at a 0-regular witness stab(0)*stab(inf) must vanish and the
    nil space must have identically zero products.  For spectral values that
    are constant across the sampled spectra (the only ones for which the
    relation is a fixed algebra identity) the witness of alpha-regularity
    must satisfy x y = alpha y x for x in stab(alpha), y in stab(1/alpha).
    """
    checks: list[CheckResult] = []
    f1, _ = find_regular(alg, Alpha(1), sampler)
    s1 = stab(f1, Alpha(1))
    commutative = True
    detail = ""
    for i, x in enumerate(s1.basis):
        for y in s1.basis[i + 1 :]:
            if alg.product_coords(x, y) != alg.product_coords(y, x):
                commutative = False
                detail = f"noncommuting pair in stab(1): {x} vs {y}"
                break
        if not commutative:
            break
    checks.append(CheckResult("stab(1) commutative at 1-regular witness", commutative, detail))

    f0, _ = find_regular(alg, Alpha(0), sampler)
    prod = subspace_product(stab(f0, Alpha(0)), stab(f0, ALPHA_INF))
    checks.append(
        CheckResult(
            "stab(0)*stab(inf) = 0 at 0-regular witness",
            prod.is_zero(),
            "" if prod.is_zero() else f"nonzero product space of dim {prod.dim}",
        )
    )
    nil0 = nil(f0)
    nil_trivial = all(
        all(x == 0 for x in alg.product_coords(u, v)) for u in nil0.basis for v in nil0.basis
    )
    checks.append(CheckResult("nil space has trivial multiplication at 0-regular witness", nil_trivial))

    constants = constant_spectrum_alphas(alg, sampler)
    applicable = sorted(
        (a for a in constants if not a.is_infinite and a.value not in (0, 1)),
        key=lambda a: a.value,
    )
    for a in applicable:
        fa, _ = find_regular(alg, a, sampler)
        sa = stab(fa, a)
        sb = stab(fa, a.inverse())
        ok = True
        detail = ""
        for x in sa.basis:
            for y in sb.basis:
                xy = alg.product_coords(x, y)
                yx = alg.product_coords(y, x)
                if tuple(xy) != tuple(a.value * t for t in yx):
                    ok = False
                    detail = f"x y != {a} y x for x={x}, y={y}"
                    break
            if not ok:
                break
        checks.append(CheckResult(f"xy = {a}*yx on stab({a}) x stab(1/{a})", ok, detail))
    return RegularityReport(
        tuple(checks), sampler.seed, tuple(str(a) for a in applicable)
    )


# ---------------------------------------------------------------------------
# quotient helper
# ---------------------------------------------------------------------------


def quotient_by_nil(alg: Algebra, f: Functional) -> tuple[Algebra, Functional]:
    """Quotient algebra by the nil space of F with the functional pushed forward.

    Requires the nil space to be a two-sided ideal (NotAnIdeal otherwise).
    The quotient is realized on the standard coordinates complementary to the
    nil pivots, and the pushed functional is F composed with that section;
    its values on nil directions are discarded.
    """
    n_space = nil(f)
    if n_space.is_zero():
        return alg, f
    for v in n_space.basis:
        for i in range(alg.dim):
            e = alg.basis_vector(i)
            if not n_space.contains(alg.product_coords(v, e)) or not n_space.contains(
                alg.product_coords(e, v)
            ):
                raise NotAnIdeal("nil space is not a two-sided ideal; cannot form the quotient")
    keep = [i for i in range(alg.dim) if i not in n_space.pivots]

    def project(vec_x: Vector) -> Vector:
        x = n_space.residue(vec_x)
        return tuple(x[i] for i in keep)

    labels = [alg.labels[i] for i in keep]
    table = [[sparse(project(dense(alg.table[i][j], alg.dim))) for j in keep] for i in keep]
    unity = project(alg.unity) if alg.unity is not None else None
    q_alg = Algebra(labels, table, unity)
    q_f = Functional(q_alg, tuple(f.coords[i] for i in keep))
    return q_alg, q_f
