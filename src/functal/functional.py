"""Geometry attached to a fixed pair (algebra, linear functional).

The central object is the pairing matrix ("gram form") M[i][j] = F(e_i e_j).
All stabilizer spaces are exact kernels of rational matrices built from M:

    stab(alpha) = { a : F(a x) = alpha * F(x a) for all x } = ker(M^T - alpha*M)
    stab(inf)   = { a : F(x a) = 0 for all x }             = ker(M)
    nil         = stab(0)  intersect  stab(inf)

The orientation (which of M, M^T appears where) is pinned by the golden
behaviour on the full matrix algebra with a diagonal trace functional:
stab(d_i/d_j) is spanned by the single matrix unit E_{i,j}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from . import algebra as alg_mod
from .algebra import Algebra
from .errors import AlgebraMismatch, NotMatrixAlgebra, SingularMatrix
from .linalg import RatMatrix, Vector, det, inverse, kernel, rank, rref, vec, vec_dot, vec_is_zero
from .scalars import rat, rat_str


class Alpha:
    """Spectral parameter: an exact rational or the point at infinity."""

    __slots__ = ("value",)
    _INF_TOKENS = {"inf", "Inf", "INF", "oo", "infinity", "∞"}

    def __init__(self, value=None, infinite: bool = False):
        self.value: Fraction | None = None if infinite else rat(value)

    @classmethod
    def infinity(cls) -> "Alpha":
        return cls(infinite=True)

    @classmethod
    def of(cls, x) -> "Alpha":
        if isinstance(x, Alpha):
            return x
        if isinstance(x, str) and x in cls._INF_TOKENS:
            return cls.infinity()
        return cls(x)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def inverse(self) -> "Alpha":
        if self.is_infinite:
            return Alpha(0)
        if self.value == 0:
            return Alpha.infinity()
        return Alpha(1 / self.value)

    def times(self, other: "Alpha") -> "Alpha":
        """Product with 0 * inf undefined (raises ValueError)."""
        if self.is_infinite or other.is_infinite:
            finite = other if self.is_infinite else self
            if not finite.is_infinite and finite.value == 0:
                raise ValueError("0 * infinity is undefined")
            return Alpha.infinity()
        return Alpha(self.value * other.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alpha) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "Alpha(inf)" if self.is_infinite else f"Alpha({self.value})"

    def __str__(self):
        return "inf" if self.is_infinite else rat_str(self.value)


ALPHA_INF = Alpha.infinity()


@dataclass(frozen=True)
class Functional:
    """Linear functional, stored as its values on the basis."""

    algebra: Algebra
    coords: Vector

    def __post_init__(self):
        object.__setattr__(self, "coords", vec(self.coords))
        if len(self.coords) != self.algebra.dim:
            raise ValueError("functional length does not match algebra dimension")

    @classmethod
    def zero(cls, algebra: Algebra) -> "Functional":
        return cls(algebra, (Fraction(0),) * algebra.dim)

    @classmethod
    def from_dict(cls, algebra: Algebra, values: Mapping[str, object]) -> "Functional":
        unknown = set(values) - set(algebra.labels)
        if unknown:
            raise ValueError(f"unknown basis labels: {sorted(unknown)}")
        for l, x in values.items():
            if isinstance(x, bool) or not isinstance(x, (int, str, Fraction)):
                raise ValueError(f"value of {l} must be an integer or a rational string, not {x!r}")
        return cls(algebra, tuple(rat(values.get(l, 0)) for l in algebra.labels))

    def __call__(self, x) -> Fraction:
        coords = x.coords if isinstance(x, alg_mod.AlgebraElement) else vec(x)
        return vec_dot(self.coords, coords)

    def __add__(self, other: "Functional") -> "Functional":
        if self.algebra != other.algebra:
            raise AlgebraMismatch("functionals on different algebras")
        return Functional(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, c) -> "Functional":
        c = rat(c)
        return Functional(self.algebra, tuple(c * x for x in self.coords))

    def to_dict(self) -> dict[str, str]:
        return {l: rat_str(c) for l, c in zip(self.algebra.labels, self.coords)}


def _require_mat_n(algebra: Algebra) -> int:
    n = 1
    while n * n < algebra.dim:
        n += 1
    if n * n != algebra.dim or algebra != alg_mod.mat(n):
        raise NotMatrixAlgebra("operation requires the full matrix algebra mat(n)")
    return n


def trace_functional(algebra: Algebra, f_hat: RatMatrix) -> Functional:
    """Functional x -> trace(f_hat * x) on mat(n); F(E_ij) = f_hat[j, i]."""
    n = _require_mat_n(algebra)
    if f_hat.rows != n or f_hat.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix")
    return Functional(algebra, tuple(f_hat[j, i] for i in range(n) for j in range(n)))


class Subspace:
    """Linear subspace with a canonical reduced-echelon basis.

    ``pivots[k]`` is the pivot column of ``basis[k]``: its first nonzero
    coordinate, which is 1 there and 0 in every other basis row.
    """

    __slots__ = ("algebra", "basis", "pivots")

    def __init__(self, algebra: Algebra, spanning: Sequence[Vector]):
        self.algebra = algebra
        rows = [vec(v) for v in spanning]
        for v in rows:
            if len(v) != algebra.dim:
                raise ValueError("vector length does not match algebra dimension")
        self.basis, self.pivots = rref(rows)

    @classmethod
    def zero(cls, algebra: Algebra) -> "Subspace":
        return cls(algebra, [])

    @classmethod
    def whole(cls, algebra: Algebra) -> "Subspace":
        return cls(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def residue(self, v: Vector) -> Vector:
        """v minus the basis combination that matches it at every pivot column."""
        x = list(v)
        for p, row in zip(self.pivots, self.basis):
            c = x[p]
            if c != 0:
                x = [a - c * b for a, b in zip(x, row)]
        return tuple(x)

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.residue(vec(v)))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(vec_is_zero(self.residue(w)) for w in other.basis)

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace(self.algebra, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rows of rref((u | u), (w | 0)) with pivot >= n end in the intersection."""
        self._check(other)
        n = self.algebra.dim
        reduced, pivots = rref([u + u for u in self.basis] + [w + (Fraction(0),) * n for w in other.basis])
        # those right halves are already a reduced echelon basis, with pivots p - n
        out = object.__new__(Subspace)
        out.algebra, out.pivots = self.algebra, tuple(p - n for p in pivots if p >= n)
        out.basis = tuple(row[n:] for row, p in zip(reduced, pivots) if p >= n)
        return out

    def _check(self, other: "Subspace"):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("subspaces of different algebras")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.algebra == other.algebra
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.algebra, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.dim})"


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


def gram(f: Functional) -> RatMatrix:
    """Pairing matrix with entry (i,j) = F(e_i e_j); linear in F."""
    x = f.coords
    return RatMatrix([[sum(x[k] * c for k, c in cell) for cell in row] for row in f.algebra.table])


def b_form(f: Functional) -> RatMatrix:
    """Skew part: entry (i,j) = F(e_i e_j - e_j e_i)."""
    m = gram(f)
    return m - m.transpose()


def q_form(f: Functional) -> RatMatrix:
    """Symmetric part: entry (i,j) = F(e_i e_j + e_j e_i)."""
    m = gram(f)
    return m + m.transpose()


def pencil_at(m: RatMatrix, alpha) -> RatMatrix:
    """c*(M^T - alpha*M) with integer entries, c = v*d for alpha = u/v in lowest
    terms (v > 0) and d the lcm of M's denominators; d*M at alpha = infinity."""
    alpha = Alpha.of(alpha)
    d = lcm(*(x.denominator for row in m.data for x in row))
    if alpha.is_infinite:
        return m if d == 1 else m.scale(d)
    ints = [[x.numerator * (d // x.denominator) for x in row] for row in m.data]
    u, v = alpha.value.numerator, alpha.value.denominator
    return RatMatrix([[v * x - u * y for x, y in zip(col, row)] for col, row in zip(zip(*ints), ints)])


def stab(f: Functional, alpha) -> Subspace:
    """Stabilizer at alpha; see the module docstring for the convention."""
    return Subspace(f.algebra, kernel(pencil_at(gram(f), alpha)))


def nil(f: Functional) -> Subspace:
    return stab(f, Alpha(0)).intersect(stab(f, ALPHA_INF))


def rank_gram(f: Functional) -> int:
    return rank(gram(f))


def is_multiplicative(f: Functional) -> bool:
    """True iff F(e_i e_j) = F(e_i) F(e_j) on all basis pairs."""
    x = f.coords
    return all(
        sum(x[k] * c for k, c in cell) == x[i] * x[j]
        for i, row in enumerate(f.algebra.table)
        for j, cell in enumerate(row)
    )


def subspace_product(u: Subspace, v: Subspace) -> Subspace:
    """Span of all products of a basis of u with a basis of v."""
    if u.algebra != v.algebra:
        raise AlgebraMismatch("subspaces of different algebras")
    a = u.algebra
    products = [a.product_coords(x, y) for x in u.basis for y in v.basis]
    return Subspace(a, products)


def vanishes_on(f: Functional, s: Subspace) -> bool:
    return all(vec_dot(f.coords, v) == 0 for v in s.basis)


def restrict_form(m: RatMatrix, rows: Subspace, cols: Subspace) -> RatMatrix:
    """Matrix of the bilinear form m in the bases of two subspaces."""
    if m.rows != rows.algebra.dim or m.cols != cols.algebra.dim:
        raise ValueError("form dimensions do not match the subspace ambient spaces")
    return RatMatrix(
        [[vec_dot(u, m.apply(v)) for v in cols.basis] for u in rows.basis]
    )


def is_nondegenerate(m: RatMatrix) -> bool:
    """det != 0; the empty 0x0 form counts as nondegenerate."""
    if not m.is_square():
        raise ValueError("nondegeneracy of a non-square form")
    return det(m) != 0


def conjugate_functional(f: Functional, g: RatMatrix) -> Functional:
    """Pullback F'(x) = F(g^-1 x g) on the full matrix algebra."""
    n = _require_mat_n(f.algebra)
    if g.rows != n or g.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix")
    try:
        g_inv = inverse(g)
    except SingularMatrix:
        raise SingularMatrix("conjugating matrix must be invertible") from None
    coords = []
    for i in range(n):
        for j in range(n):
            # g^-1 E_ij g has (r, s) entry g_inv[r, i] * g[j, s]
            total = Fraction(0)
            for r in range(n):
                for s in range(n):
                    entry = g_inv[r, i] * g[j, s]
                    if entry != 0:
                        total += entry * f.coords[r * n + s]
            coords.append(total)
    return Functional(f.algebra, tuple(coords))
