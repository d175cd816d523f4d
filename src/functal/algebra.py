"""Finite-dimensional associative algebras given by rational structure constants.

An algebra is a labeled basis e_0..e_{n-1} together with the table of
products e_i * e_j.  Each cell of the table is sparse: the tuple of the
ascending nonzero (k, c) pairs with e_i * e_j = sum of c * e_k, so a product
of two matrix units is one pair and a zero product is ().  Dense coordinate
cells appear only in the JSON document (`serialize_algebra`,
`parse_algebra`).  All desk constructors live here: full matrix algebras,
upper-triangular algebras, seaweed patterns, the two-step nilpotent family
V*V -> W, unital extensions, tensor products, direct sums and opposites.
Validation checks associativity on every basis triple and reports the
failing triples instead of raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

import numpy as np

from .errors import AlgebraParseError, AssociativityViolation
from .linalg import PRIME, Vector, integer_vector, vec
from .scalars import input_rat, rat, rat_str

# ascending nonzero (k, c) pairs of one product e_i * e_j
Cell = tuple[tuple[int, Fraction], ...]


def sparse(coords) -> Cell:
    """The cell of a dense coordinate vector."""
    return tuple((k, c) for k, c in enumerate(vec(coords)) if c != 0)


def dense(cell: Cell, n: int) -> Vector:
    """The length-n coordinate vector of a cell."""
    out = [Fraction(0)] * n
    for k, c in cell:
        out[k] = c
    return tuple(out)


def _check_cell(cell, n: int) -> Cell:
    try:
        pairs = tuple((k, rat(c)) for k, c in cell)
    except TypeError as e:
        raise ValueError(f"a cell is a tuple of (k, c) pairs: {cell!r}") from e
    last = -1
    for k, c in pairs:
        if not isinstance(k, int) or not last < k < n:
            raise ValueError(f"cell indices must ascend strictly within 0..{n - 1}: {cell!r}")
        if c == 0:
            raise ValueError(f"cell holds a zero coefficient: {cell!r}")
        last = k
    return pairs


class Algebra:
    """Associative algebra over Q with a fixed labeled basis.

    ``table[i][j]`` is the cell of e_i * e_j: the ascending nonzero (k, c)
    pairs of its coordinates (see :func:`sparse`); a malformed cell raises
    ValueError.  Instances are treated as immutable; construction does not
    validate associativity (use :func:`validate` or :func:`parse_algebra`,
    which does).
    """

    def __init__(self, labels: Sequence[str], table, unity=None):
        self.labels: tuple[str, ...] = tuple(labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("basis labels must be distinct")
        self.table: tuple[tuple[Cell, ...], ...] = tuple(
            tuple(_check_cell(cell, n) for cell in row) for row in table
        )
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("structure table must be n x n cells")
        self.unity: Vector | None = vec(unity) if unity is not None else None
        if self.unity is not None and len(self.unity) != n:
            raise ValueError("unity vector has wrong length")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def integer_table(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
        """(d, the table with every coefficient times d), d the lcm of their denominators."""
        d = lcm(*(c.denominator for row in self.table for cell in row for _, c in cell))
        return d, tuple(tuple(tuple((k, c.numerator * d // c.denominator) for k, c in cell) for cell in row) for row in self.table)

    @cached_property
    def table_mod_p(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays (cell, k, c) of the coefficients of `integer_table` that
        are nonzero mod PRIME, reduced mod PRIME, with cell = i * dim + j."""
        _, table = self.integer_table
        n = self.dim
        triples = [
            (i * n + j, k, c % PRIME)
            for i, row in enumerate(table)
            for j, cell in enumerate(row)
            for k, c in cell
            if c % PRIME
        ]
        cells, ks, cs = np.array(triples, dtype=np.int64).reshape(-1, 3).T
        return cells, ks, cs

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.dim))

    def integer_product(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """d * (x y) for integer coordinates x and y, with (d, table) the
        `integer_table`: the one product loop."""
        _, table = self.integer_table
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = table[i]
            for j, yj in ys:
                f = xi * yj
                for k, c in row[j]:
                    out[k] += f * c
        return out

    def product_coords(self, x: Vector, y: Vector) -> Vector:
        """x y for int or Fraction coordinates, by `integer_product`."""
        (ex, ix), (ey, iy) = integer_vector(x), integer_vector(y)
        d = self.integer_table[0] * ex * ey
        return tuple(Fraction(z, d) for z in self.integer_product(ix, iy))

    def is_unital(self) -> bool:
        return self.unity is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Algebra)
            and self.labels == other.labels
            and self.table == other.table
            and self.unity == other.unity
        )

    def __hash__(self):
        return hash((self.labels, self.table, self.unity))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, labels={list(self.labels)})"


@dataclass(frozen=True)
class Violation:
    kind: str  # "associativity" | "unity"
    triple: tuple[int, ...]
    detail: str


def _combine(pairs: Cell, cell_of) -> dict[int, Fraction]:
    """Nonzero coordinates of the sum of c * cell_of(p) over the (p, c) pairs."""
    out: dict[int, Fraction] = {}
    for p, c in pairs:
        for k, d in cell_of(p):
            out[k] = out.get(k, 0) + c * d
    return {k: v for k, v in out.items() if v != 0}


def validate(alg: Algebra) -> list[Violation]:
    """Check associativity on all basis triples; empty list means ok.

    If a unity vector is declared it must act as a two-sided identity on
    every basis element; failures are reported as "unity" violations.
    """
    out: list[Violation] = []
    n = alg.dim
    t = alg.table
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = _combine(t[i][j], lambda p: t[p][k])
                right = _combine(t[j][k], lambda q: t[i][q])
                if left != right:
                    out.append(
                        Violation(
                            "associativity",
                            (i, j, k),
                            f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})",
                        )
                    )
    if alg.unity is not None:
        for i in range(n):
            e = alg.basis_vector(i)
            if alg.product_coords(alg.unity, e) != e or alg.product_coords(e, alg.unity) != e:
                out.append(Violation("unity", (i,), f"declared unity does not fix e{i}"))
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _matrix_unit_algebra(positions: list[tuple[int, int]], n: int) -> Algebra:
    """Span of the matrix units at `positions` inside the n x n matrix algebra.

    Requires the position set to be closed under (i,j),(j,l) -> (i,l).
    Basis is ordered row-major; unity is the sum of the diagonal units.
    """
    index = {pos: k for k, pos in enumerate(positions)}
    dim = len(positions)
    labels = [f"E_{{{i + 1},{j + 1}}}" for i, j in positions]
    table = []
    for (i, j) in positions:
        row = []
        for (k, l) in positions:
            if j != k:
                row.append(())
            elif (i, l) in index:
                row.append(((index[(i, l)], Fraction(1)),))
            else:
                raise ValueError(f"position set not closed: ({i},{l}) missing")
        table.append(row)
    unity = [Fraction(0)] * dim
    for d in range(n):
        if (d, d) in index:
            unity[index[(d, d)]] = Fraction(1)
    diag_complete = all((d, d) in index for d in range(n))
    return Algebra(labels, table, unity if diag_complete else None)


def _shift(cell: Cell, offset: int) -> Cell:
    return tuple((k + offset, c) for k, c in cell)


def mat(n: int) -> Algebra:
    """Full matrix algebra of n x n matrices in the basis of matrix units."""
    if n < 1:
        raise ValueError("mat(n) needs n >= 1")
    positions = [(i, j) for i in range(n) for j in range(n)]
    return _matrix_unit_algebra(positions, n)


def ut(n: int) -> Algebra:
    """Upper-triangular n x n matrices; dimension n(n+1)/2."""
    if n < 1:
        raise ValueError("ut(n) needs n >= 1")
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    return _matrix_unit_algebra(positions, n)


def _block_index(composition: Sequence[int], row: int) -> int:
    acc = 0
    for b, size in enumerate(composition):
        acc += size
        if row < acc:
            return b
    raise IndexError(row)


def seaweed(top: Sequence[int], bottom: Sequence[int]) -> Algebra:
    """Seaweed pattern subalgebra of mat(n) for two compositions of n.

    A matrix position (r, c) is kept when it is block upper-triangular with
    respect to the top composition and block lower-triangular with respect
    to the bottom one; the two flags preserved are the ascending span flag
    of the top composition and the descending tail flag of the bottom one.
    """
    top = [int(x) for x in top]
    bottom = [int(x) for x in bottom]
    if any(x < 1 for x in top + bottom):
        raise ValueError("composition parts must be positive")
    n = sum(top)
    if sum(bottom) != n:
        raise ValueError("top and bottom compositions must have the same total")
    positions = [
        (r, c)
        for r in range(n)
        for c in range(n)
        if _block_index(top, r) <= _block_index(top, c)
        and _block_index(bottom, r) >= _block_index(bottom, c)
    ]
    return _matrix_unit_algebra(positions, n)


def _w_coords(x) -> Vector:
    """One entry of a coefficient tensor: a W-coordinate vector, or a scalar when dim W = 1."""
    if isinstance(x, (list, tuple)):
        return tuple(input_rat(c, "a W-coordinate") for c in x)
    return (input_rat(x, "a coefficient"),)


def nilpotent_pair(b_tensor) -> Algebra:
    """Algebra on V (+) W with V*V landing in W via the coefficient tensor.

    ``b_tensor`` is a k x k array whose entries are either scalars (then
    dim W = 1) or equal-length coordinate vectors in W; any other shape or
    entry raises ValueError, as the array may come from a file.  Every
    product of three elements vanishes, so the result is associative for any
    input.
    """
    square = isinstance(b_tensor, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and len(row) == len(b_tensor) for row in b_tensor
    )
    if not square:
        raise ValueError(f"the coefficient tensor must be a square array, not {b_tensor!r}")
    k = len(b_tensor)
    cells = [[_w_coords(x) for x in row] for row in b_tensor]
    m = len(cells[0][0]) if k else 1
    if any(len(c) != m for row in cells for c in row):
        raise ValueError("ragged W-coordinate vectors")
    dim = k + m
    labels = [f"v{i + 1}" for i in range(k)] + (
        ["w"] if m == 1 else [f"w{i + 1}" for i in range(m)]
    )
    table = [
        [_shift(sparse(cells[i][j]), k) if i < k and j < k else () for j in range(dim)]
        for i in range(dim)
    ]
    return Algebra(labels, table, None)


def unital_extension(alg: Algebra) -> Algebra:
    """Adjoin a two-sided unity as the first basis element (label "one")."""
    if "one" in alg.labels:
        raise ValueError('label "one" already in use')
    n = alg.dim
    labels = ["one"] + list(alg.labels)
    table = [[((j, Fraction(1)),) for j in range(n + 1)]]
    for i, row in enumerate(alg.table, start=1):
        table.append([((i, Fraction(1)),)] + [_shift(cell, 1) for cell in row])
    unity = (Fraction(1),) + (Fraction(0),) * n
    return Algebra(labels, table, unity)


def tensor_product(a: Algebra, b: Algebra) -> Algebra:
    """Tensor product with basis e_{i*m+j} = a_i (x) b_j (second index fastest)."""
    m = b.dim
    labels = [f"{la}⊗{lb}" for la in a.labels for lb in b.labels]
    table = [
        [
            tuple((k1 * m + k2, x * y) for k1, x in ca for k2, y in cb)
            for ca in row_a
            for cb in row_b
        ]
        for row_a in a.table
        for row_b in b.table
    ]
    unity = None
    if a.unity is not None and b.unity is not None:
        unity = tuple(x * y for x in a.unity for y in b.unity)
    return Algebra(labels, table, unity)


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Block-diagonal sum; right-hand labels get a prime on collision."""
    n, m = a.dim, b.dim
    labels = list(a.labels)
    for lb in b.labels:
        while lb in labels:
            lb += "'"
        labels.append(lb)
    table = [list(row) + [()] * m for row in a.table] + [
        [()] * n + [_shift(cell, n) for cell in row] for row in b.table
    ]
    unity = None
    if a.unity is not None and b.unity is not None:
        unity = tuple(a.unity) + tuple(b.unity)
    return Algebra(labels, table, unity)


def opposite(alg: Algebra) -> Algebra:
    """Same space with reversed multiplication a*b := ba."""
    n = alg.dim
    table = [[alg.table[j][i] for j in range(n)] for i in range(n)]
    return Algebra(alg.labels, table, alg.unity)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_algebra(alg: Algebra) -> str:
    doc = {
        "dim": alg.dim,
        "basis": list(alg.labels),
        "table": [[[rat_str(c) for c in dense(cell, alg.dim)] for cell in row] for row in alg.table],
        "unity": [rat_str(c) for c in alg.unity] if alg.unity is not None else None,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def parse_algebra(text: str) -> Algebra:
    """Parse and fully validate an algebra document.

    Shape problems raise AlgebraParseError naming the offending row; an
    associative check failure raises AssociativityViolation with the triple.
    """
    alg = read_algebra(text)
    violations = validate(alg)
    if violations:
        v = violations[0]
        if v.kind == "associativity":
            raise AssociativityViolation(v.triple)
        raise AlgebraParseError(v.detail)
    return alg


def read_algebra(text: str) -> Algebra:
    """Parse an algebra document, checking its shape but not its axioms."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise AlgebraParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise AlgebraParseError("top-level document must be an object")
    for key in ("dim", "basis", "table"):
        if key not in doc:
            raise AlgebraParseError(f"missing field {key!r}")
    n = doc["dim"]
    labels = doc["basis"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise AlgebraParseError("dim must be a positive integer")
    if not isinstance(labels, list) or len(labels) != n:
        raise AlgebraParseError(f"basis must be an array of {n} labels")
    table = doc["table"]
    if not isinstance(table, list):
        raise AlgebraParseError(f"table must be an array of {n} rows, not {table!r}")
    if len(table) != n:
        raise AlgebraParseError(f"table has {len(table)} rows, expected {n}")
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise AlgebraParseError(f"table row {i} ({labels[i]!r}) must be an array of {n} cells")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != n:
                raise AlgebraParseError(f"table entry ({i},{j}) must be an array of {n} coordinates")
    try:
        alg = Algebra(labels, [[sparse(cell) for cell in row] for row in table], doc.get("unity"))
    except (ValueError, TypeError) as e:
        raise AlgebraParseError(str(e)) from e
    return alg
