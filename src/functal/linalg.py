"""Dense exact linear algebra over the rationals.

Matrices are immutable row-major tuples of Fraction entries.  Kernels come
back as reduced-echelon bases, so a given column space always produces the
same basis bit for bit.  Determinants use single-step Bareiss elimination:
over the rationals the matrix is first scaled to integers row by row, over a
polynomial domain the exact divisions of the Bareiss recurrence are used
directly.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .errors import SingularMatrix
from .scalars import rat

Vector = tuple[Fraction, ...]


def vec(entries) -> Vector:
    return tuple(rat(x) for x in entries)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def vec_is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


class RatMatrix:
    """Immutable dense matrix over Fraction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data: Sequence[Sequence]):
        data = tuple(tuple(rat(x) for x in row) for row in rows_data)
        self.data: tuple[Vector, ...] = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(row) != self.cols for row in data):
            raise ValueError("ragged rows")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> Vector:
        return self.data[i]

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.data)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(vec_is_zero(row) for row in self.data)

    def transpose(self) -> "RatMatrix":
        return RatMatrix([self.col(j) for j in range(self.cols)])

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix([vec_add(a, b) for a, b in zip(self.data, other.data, strict=True)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix([vec_sub(a, b) for a, b in zip(self.data, other.data, strict=True)])

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix([[c * x for x in row] for row in self.data])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = [other.col(j) for j in range(other.cols)]
        return RatMatrix([[vec_dot(row, c) for c in cols] for row in self.data])

    def apply(self, v: Vector) -> Vector:
        if self.cols != len(v):
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(vec_dot(row, v) for row in self.data)


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Block matrix with block (i,j) equal to a[i,j] * b."""
    out = []
    for i in range(a.rows):
        for p in range(b.rows):
            out.append([a[i, j] * b[p, q] for j in range(a.cols) for q in range(b.cols)])
    return RatMatrix(out)


def rref(rows: Sequence[Vector]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form of a list of vectors.

    Returns (nonzero rows, pivot column indices); deterministic for any
    spanning set of the same row space.
    """
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    out = tuple(tuple(row) for row in m[:r])
    return out, tuple(pivots)


def kernel(m: RatMatrix) -> list[Vector]:
    """Reduced-echelon basis of {v : m @ v = 0}.

    The basis vector for free column f has entry 1 at f and the negated
    pivot-column coefficients elsewhere; vectors are ordered by free column.
    """
    reduced, pivots = rref(m.data)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis: list[Vector] = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r_idx, p in enumerate(pivots):
            v[p] = -reduced[r_idx][f]
        basis.append(tuple(v))
    return basis


def rank(m: RatMatrix) -> int:
    _, pivots = rref(m.data)
    return len(pivots)


def inverse(m: RatMatrix) -> RatMatrix:
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [list(m.row(i)) + [Fraction(1) if j == i else Fraction(0) for j in range(n)] for i in range(n)]
    reduced, pivots = rref([tuple(r) for r in aug])
    if list(pivots[:n]) != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return RatMatrix([row[n:] for row in reduced[:n]])


def _bareiss(m: list[list], zero, div: Callable):
    """Single-step Bareiss elimination of a non-empty square matrix, in place.

    Returns the determinant.  ``div(a, b)`` is the exact division of the
    domain; the first step divides by nothing.
    """
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k] == zero:
            for i in range(k + 1, n):
                if m[i][k] != zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero
        pkk = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                elt = pkk * row_i[j] - mik * row_k[j]
                row_i[j] = elt if prev is None else div(elt, prev)
            row_i[k] = zero
        prev = pkk
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def det(m: RatMatrix) -> Fraction:
    """Exact determinant of a rational matrix (0x0 gives 1)."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    if m.rows == 0:
        return Fraction(1)
    scale = 1
    int_rows: list[list[int]] = []
    for row in m.data:
        denom = lcm(*(x.denominator for x in row))
        scale *= denom
        int_rows.append([int(x * denom) for x in row])
    return Fraction(_bareiss(int_rows, 0, operator.floordiv), scale)


def ff_det(m):
    """Fraction-free Bareiss determinant of a non-empty square list-of-lists
    of polynomials (entries with +, -, * and an ``exact_div`` method)."""
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("determinant needs a non-empty square matrix")
    first = m[0][0]
    return _bareiss([list(row) for row in m], first - first, lambda a, b: a.exact_div(b))
