"""Geometry attached to a fixed pair (algebra, linear functional).

The central object is the pairing matrix ("gram form") M[i][j] = F(e_i e_j).
All stabilizer spaces are exact kernels of rational matrices built from M:

    stab(alpha) = { a : F(a x) = alpha * F(x a) for all x } = ker(M^T - alpha*M)
    stab(inf)   = { a : F(x a) = 0 for all x }             = ker(M)
    nil         = stab(0)  intersect  stab(inf)

The orientation (which of M, M^T appears where) is pinned by the golden
behaviour on the full matrix algebra with a diagonal trace functional:
stab(d_i/d_j) is spanned by the single matrix unit E_{i,j}.

Every subspace is computed on its integer form (d, rows), d times its reduced
echelon basis: stabilizers come from `kernel`, spans and intersections from
`rref`, products from `Algebra.integer_product`, and membership is a test
over Z.  Fractions appear only in `Subspace.basis`, built for output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from . import algebra as alg_mod
from .algebra import Algebra
from .errors import AlgebraMismatch, NotMatrixAlgebra
from .linalg import RatMatrix, Vector, integer_vector, is_singular, kernel, rref, vec, vec_dot
from .scalars import input_rat, rat, rat_str


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
    # the pairing matrix, memoised by gram(); not part of the value
    _gram: RatMatrix | None = field(default=None, init=False, repr=False, compare=False)
    # alpha0 -> whether the pencil is invertible there, memoised by regular_at()
    _regular: dict[Fraction, bool] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", vec(self.coords))
        if len(self.coords) != self.algebra.dim:
            raise ValueError("functional length does not match algebra dimension")

    @classmethod
    def from_dict(cls, algebra: Algebra, values: Mapping[str, object]) -> "Functional":
        if not isinstance(values, Mapping):
            raise ValueError(f"a functional is an object of label: value pairs, not {values!r}")
        unknown = set(values) - set(algebra.labels)
        if unknown:
            raise ValueError(f"unknown basis labels: {sorted(unknown)}")
        return cls(algebra, tuple(input_rat(values.get(l, 0), f"value of {l}") for l in algebra.labels))

    def __call__(self, x) -> Fraction:
        return vec_dot(self.coords, vec(x))

    def __add__(self, other: "Functional") -> "Functional":
        if self.algebra != other.algebra:
            raise AlgebraMismatch("functionals on different algebras")
        return Functional(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

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
    """Linear subspace held on its integer form (d, rows): rows is d times the
    reduced row echelon basis, and d > 0 its least common denominator, so one
    space has one form, which equality and hashing compare.

    ``pivots[k]`` is the pivot column of ``rows[k]``: its first nonzero
    coordinate, which is d there and 0 in every other row.  ``basis`` is the
    reduced-echelon basis in Fractions, built at its first use.
    """

    __slots__ = ("algebra", "d", "rows", "pivots", "_basis")

    def __init__(self, algebra: Algebra, spanning: Sequence[Sequence]):
        """The span of vectors with int or Fraction coordinates."""
        rows = list(spanning)
        for v in rows:
            if len(v) != algebra.dim:
                raise ValueError("vector length does not match algebra dimension")
        self._fill(algebra, *rref(rows))

    @classmethod
    def zero(cls, algebra: Algebra) -> "Subspace":
        return cls(algebra, [])

    @classmethod
    def whole(cls, algebra: Algebra) -> "Subspace":
        n = algebra.dim
        return cls(algebra, [tuple(int(i == j) for j in range(n)) for i in range(n)])

    @property
    def basis(self) -> tuple[Vector, ...]:
        if self._basis is None:
            self._basis = RatMatrix.from_integer_form(self.d, self.rows).data
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def _spans(self, w: Sequence[int]) -> bool:
        """w in the space, for integer w: d * w = sum of w[p_k] * rows[k] over Z."""
        acc = [self.d * x for x in w]
        for p, row in zip(self.pivots, self.rows):
            c = w[p]
            if c:
                acc = [a - c * b for a, b in zip(acc, row)]
        return not any(acc)

    def contains(self, v: Sequence) -> bool:
        """v in the space, for int or Fraction coordinates."""
        return self._spans(integer_vector(v)[1])

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self._spans(w) for w in other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rows of rref((u | u), (w | 0)) with pivot >= n end in the intersection."""
        self._check(other)
        n = self.algebra.dim
        d, reduced, pivots = rref([u + u for u in self.rows] + [w + (0,) * n for w in other.rows])
        # those right halves are already d times a reduced echelon basis, with pivots p - n
        right = [(row[n:], p - n) for row, p in zip(reduced, pivots) if p >= n]
        return Subspace._reduced(self.algebra, d, tuple(v for v, _ in right), tuple(p for _, p in right))

    @classmethod
    def _reduced(cls, algebra: Algebra, d: int, rows: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]) -> "Subspace":
        """The subspace with these integer rows d * R of a reduced-echelon basis R
        and their pivots, taken as given."""
        out = object.__new__(cls)
        out._fill(algebra, d, rows, pivots)
        return out

    def _fill(self, algebra: Algebra, d: int, rows: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]):
        """Store d * R divided by gcd(d, its entries), which leaves d the least
        common denominator of R: its pivots are 1."""
        g = gcd(d, *(gcd(*row) for row in rows))
        if g > 1:
            d, rows = d // g, tuple(tuple(x // g for x in row) for row in rows)
        self.algebra, self.d, self.rows, self.pivots, self._basis = algebra, d, rows, pivots, None

    def _check(self, other: "Subspace"):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("subspaces of different algebras")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.rows == other.rows
            and self.d == other.d
            and self.algebra == other.algebra
        )

    def __hash__(self):
        return hash((self.algebra, self.d, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.dim})"


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


def gram(f: Functional) -> RatMatrix:
    """Pairing matrix with entry (i,j) = F(e_i e_j); linear in F.  Computed once per
    functional, over Z with the common denominators of F and of the table."""
    if f._gram is None:
        dx, x = integer_vector(f.coords)
        dt, table = f.algebra.integer_table
        rows = tuple(tuple(sum(x[k] * c for k, c in cell) for cell in row) for row in table)
        object.__setattr__(f, "_gram", RatMatrix.from_integer_form(dx * dt, rows))
    return f._gram


def pencil_at(m: RatMatrix, alpha) -> tuple[tuple[int, ...], ...]:
    """Integer rows of c*(M^T - alpha*M), c = v*d for alpha = u/v in lowest
    terms (v > 0) and d the lcm of M's denominators; d*M at alpha = infinity."""
    alpha = Alpha.of(alpha)
    _, ints = m.integer_form()
    if alpha.is_infinite:
        return ints
    u, v = alpha.value.numerator, alpha.value.denominator
    return tuple(tuple(v * x - u * y for x, y in zip(col, row)) for col, row in zip(zip(*ints), ints))


def regular_at(f: Functional, alpha0: Fraction) -> bool:
    """det(M^T - alpha0*M) != 0; decided once per functional and alpha0."""
    if f._regular is None:
        object.__setattr__(f, "_regular", {})
    if alpha0 not in f._regular:
        f._regular[alpha0] = not is_singular(pencil_at(gram(f), alpha0))
    return f._regular[alpha0]


def stab(f: Functional, alpha) -> Subspace:
    """Stabilizer at alpha; see the module docstring for the convention.  Reversing
    each vector, and the list, of the kernel basis of the column-reversed pencil
    gives the reduced-echelon basis, so one elimination suffices."""
    d, ker = kernel([row[::-1] for row in pencil_at(gram(f), alpha)])
    rows = tuple(v[::-1] for v in reversed(ker))
    return Subspace._reduced(f.algebra, d, rows, tuple(v.index(d) for v in rows))


def nil(f: Functional) -> Subspace:
    return stab(f, Alpha(0)).intersect(stab(f, ALPHA_INF))


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
    return Subspace(a, [a.integer_product(x, y) for x in u.rows for y in v.rows])


def vanishes_on(f: Functional, s: Subspace) -> bool:
    x = integer_vector(f.coords)[1]
    return not any(sum(map(operator.mul, x, row)) for row in s.rows)
