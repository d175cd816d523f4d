"""Dense exact linear algebra over the rationals.

A matrix is held only on its integer form (d, integer rows), one denominator
per matrix instead of a gcd per entry operation (Knuth, TAOCP 2, 4.5.1); all
matrix arithmetic runs on it, and its Fraction entries are built only when
read, for output.  Every elimination is one fraction-free loop over the
integers, `_eliminate` (single-step Bareiss, Math. Comp. 22, 1968).  `det`
eliminates the integer rows and returns the signed last pivot, over d^n for
a matrix.  `rref` scales the rows, eliminates and back-substitutes over the
integers; with d the last pivot, d times each reduced row is an integer row
(Nakos, Turner, Williams, SIGSAM Bull. 31, 1997), and `rref` returns that
integer form (|d|, rows, pivots) with no Fraction in it.  `kernel` returns
(d, d times the kernel basis) from it, the basis being sympy's `nullspace`,
so a given row space always produces the same basis; d depends on the rows
given.  `det`, `kernel` and `rank` take a `RatMatrix` or integer rows, which
go into the elimination as they are.

Outside that loop, `ranks_mod_p` takes the ranks over GF(PRIME) of a whole
stack of matrices in one numpy elimination, so the per-call cost is paid
once per stack, not once per matrix (Dumas, Giorgi, Pernet, ACM TOMS 35(3),
2008); they are never above the ranks over Q.

From CRT_MIN_DIM rows on, the pencil polynomial det(t*P + Q) of integer
rows comes from one characteristic polynomial per word-size prime:
`pencil_coefficients` runs Faddeev-LeVerrier (Faddeev and Faddeeva,
Computational Methods of Linear Algebra, 1963), one batched float64
`matmul` per step over all primes, no pivoting, and rebuilds the
coefficients R_k by the Chinese remainder theorem under the Hadamard bound
|R_k| <= prod_i sqrt(|P_i|^2 + 2|P_i.Q_i| + |Q_i|^2) (Abbott, Bronstein,
Mulders, ISSAC 1999).  `is_singular` trusts a nonzero det of one matrix
mod one such prime from the same size on, and takes the exact `det` only on
a zero residue.  Below CRT_MIN_DIM, Bareiss `det` is faster.  Both are
exact because every value is an integer below 2**53 in float64: the primes
are at most sqrt(2**51 / n), so 2 n p^2 <= 2**52
bounds every sum of n products of a residue in [-p, p) by one in [-p, 2p)
(p is above 2**21 for n < 256 and smaller past it), and entries from 2**63
on are reduced by Python before the cast.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm, prod
from typing import Sequence

import numpy as np

from .errors import SingularMatrix
from .scalars import rat

Vector = tuple[Fraction, ...]

# the largest prime below 2**31 - 1; PRIME**2 < 2**62, so no int64 product overflows
PRIME = 2147483629

# from this size on, pencil polynomials det(t*P + Q) are taken mod word-size
# primes (`pencil_coefficients`), and one det mod p proves a matrix regular
# (`is_singular`); against Bareiss, the node route that `pencil_coefficients`
# replaced measured faster from 11 (reciprocal) and 9 (general) rows, and one
# det mod p from 12 rows (0.126 against 0.146 ms; 0.154 against 0.284 at 16)
CRT_MIN_DIM = 12


def vec(entries) -> Vector:
    return tuple(rat(x) for x in entries)


def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


class RatMatrix:
    """Immutable dense matrix over Q, held only on its integer form (d, rows):
    rows is d times the matrix, with d > 0 and gcd(d, every entry) = 1, so one
    matrix has one form, which equality and hashing compare.  All arithmetic
    runs on it, e.g. A @ B is (dA * dB, the integer product) reduced by its
    gcd.  ``data`` is the Fraction view, equal entries sharing one Fraction,
    built at its first read."""

    __slots__ = ("rows", "cols", "_integer_form", "_data")

    def __init__(self, rows_data: Sequence[Sequence]):
        data = tuple(tuple(rat(x) for x in row) for row in rows_data)
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        # with d the lcm of the reduced denominators, gcd(d, every entry) is 1
        d = lcm(*(x.denominator for row in data for x in row))
        self.rows, self.cols, self._data = len(data), cols, data
        self._integer_form = d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in data)

    def integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(d, rows of d * self) for d > 0 the least common denominator."""
        return self._integer_form

    @classmethod
    def from_integer_form(cls, d: int, rows: tuple[tuple[int, ...], ...]) -> "RatMatrix":
        """The matrix rows/d for an integer d > 0 and integer rows, as tuples."""
        g = gcd(d, *(x for row in rows for x in row))
        if g > 1:
            d, rows = d // g, tuple(tuple(x // g for x in row) for row in rows)
        m = object.__new__(cls)
        m.rows, m.cols, m._data = len(rows), len(rows[0]) if rows else 0, None
        m._integer_form = d, rows
        return m

    @property
    def data(self) -> tuple[Vector, ...]:
        if self._data is None:
            d, ints = self._integer_form
            # equal entries share one Fraction, which is immutable
            frac = {x: Fraction(x, d) for x in {x for row in ints for x in row}}
            self._data = tuple(tuple(map(frac.__getitem__, row)) for row in ints)
        return self._data

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self._integer_form == other._integer_form

    def __hash__(self):
        return hash(self._integer_form)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "RatMatrix":
        d, ints = self.integer_form()
        return RatMatrix.from_integer_form(d, tuple(zip(*ints)))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        (da, a), (db, b) = self.integer_form(), other.integer_form()
        d = lcm(da, db)
        ea, eb = d // da, d // db
        return RatMatrix.from_integer_form(
            d, tuple(tuple(ea * x + eb * y for x, y in zip(u, w, strict=True)) for u, w in zip(a, b, strict=True))
        )

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        d, ints = self.integer_form()
        return RatMatrix.from_integer_form(d * c.denominator, tuple(tuple(c.numerator * x for x in row) for row in ints))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        (da, a), (db, b) = self.integer_form(), other.integer_form()
        cols = tuple(zip(*b))
        return RatMatrix.from_integer_form(da * db, tuple(tuple(sum(map(operator.mul, u, c)) for c in cols) for u in a))


def float_matrix(m: RatMatrix) -> np.ndarray:
    """The complex array of the nearest floats x / d to the entries, for m on
    its integer form (d, rows): int true division is correctly rounded, so
    each equals float() of the Fraction entry, even past 2**53."""
    d, ints = m.integer_form()
    return np.array([[x / d for x in row] for row in ints], dtype=complex)


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Block matrix with block (i,j) equal to a[i,j] * b."""
    (da, x), (db, y) = a.integer_form(), b.integer_form()
    return RatMatrix.from_integer_form(da * db, tuple(tuple(s * t for s in u for t in w) for u in x for w in y))


def integer_vector(v: Sequence) -> tuple[int, Sequence[int]]:
    """(e, e * v) for e the lcm of the denominators of the int or Fraction
    entries of v; integer entries come back as they are, with e = 1."""
    if all(type(x) is int for x in v):
        return 1, v
    e = lcm(*(x.denominator for x in v))
    return e, [x.numerator * (e // x.denominator) for x in v]


def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators (`integer_vector`), as a
    new list, and the product of those lcms."""
    scale, out = 1, []
    for row in rows:
        e, ints = integer_vector(row)
        scale *= e
        out.append(list(ints))
    return out, scale


def _eliminate(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) reduction of integer rows to row echelon form, in place.

    Columns without a pivot are skipped.  Returns the pivot columns and the
    sign of the row permutation.  Every entry stays a minor of the input, so
    each division by the previous pivot is exact, and the last pivot is the
    minor on the pivot rows and columns.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        if rows[r][c] == 0:
            for i in range(r + 1, n_rows):
                if rows[i][c] != 0:
                    rows[r], rows[i] = rows[i], rows[r]
                    sign = -sign
                    break
            else:
                continue
        row_r = rows[r]
        p = row_r[c]
        tail = row_r[c + 1 :]
        for i in range(r + 1, n_rows):
            row_i = rows[i]
            m = row_i[c]
            row_i[c] = 0
            row_i[c + 1 :] = [(p * x - m * y) // prev for x, y in zip(row_i[c + 1 :], tail)]
        prev = p
        pivots.append(c)
    return pivots, sign


def rref(rows: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form R of a list of rational or integer vectors, as
    (d, d * R without its zero rows, pivot columns): d > 0 is the magnitude of
    the elimination's last pivot, so every row is an integer row, d at its own
    pivot and 0 at the others.  R is the same for any spanning set of the row space; d need
    not be.  No rows or no pivots give (1, (), ())."""
    # zero rows change no pivot, but the elimination would rescale each of them
    ints = [row for row in _integer_rows(rows)[0] if any(row)]
    pivots, _ = _eliminate(ints)
    if not pivots:
        return 1, (), ()
    n_cols = len(ints[0])
    free = [j for j in range(n_cols) if j not in pivots]
    d = ints[len(pivots) - 1][pivots[-1]]
    # scaled[k] holds d * (reduced row k) on the free columns
    scaled: list[list[int]] = []
    for k in range(len(pivots) - 1, -1, -1):
        u = ints[k]
        acc = [d * u[j] for j in free]
        for p, x in zip(pivots[k + 1 :], reversed(scaled)):
            c = u[p]
            if c:
                acc = [a - c * b for a, b in zip(acc, x)]
        pk = u[pivots[k]]
        scaled.append([a // pk for a in acc])
    sign = 1 if d > 0 else -1
    out = []
    for p, x in zip(pivots, reversed(scaled)):
        row = [0] * n_cols
        row[p] = sign * d
        for j, a in zip(free, x):
            row[j] = sign * a
        out.append(tuple(row))
    return sign * d, tuple(out), tuple(pivots)


def kernel(m: RatMatrix | Sequence[Sequence[int]]) -> tuple[int, list[tuple[int, ...]]]:
    """(d, d times a basis of {v : m @ v = 0}) for a rational matrix or integer
    rows, with d > 0 the `rref` scale.

    One vector per free column f, in order: 1 at f, 0 at the other free
    columns, minus the reduced-echelon coefficient of column f at each pivot
    column (sympy's `nullspace`): kernel([[1, 2, 3]]) is (1, [(-2, 1, 0), (-3, 0, 1)]).
    """
    rows = m.integer_form()[1] if isinstance(m, RatMatrix) else m
    cols = len(rows[0]) if rows else 0
    d, reduced, pivots = rref(rows)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = d
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return d, basis


def rank(m: RatMatrix | Sequence[Sequence[int]]) -> int:
    """Rank of a rational matrix or of integer rows."""
    ints, _ = _integer_rows(m.integer_form()[1] if isinstance(m, RatMatrix) else m)
    return len(_eliminate(ints)[0])


def ranks_mod_p(stack: np.ndarray) -> np.ndarray:
    """Rank over GF(PRIME) of every matrix in an int64 stack of shape (S, r, n),
    in one elimination of the whole stack.  Each rank is at most the rank k
    over Q of its matrix, and below k only when PRIME divides every k x k
    minor.

    ranks[m] counts the rows matrix m has used.  At column c, each matrix
    with a nonzero entry in an unused row swaps the first such row p into
    place q = its rank as pivot, and every row below becomes
    pivot * row - entry * pivot row."""
    a = np.remainder(stack, PRIME)
    s, r, n = a.shape
    ranks = np.zeros(s, dtype=np.int64)
    rows = np.arange(r)
    every = np.arange(s)
    for c in range(n):
        if (ranks == r).all():
            break
        candidates = (a[:, :, c] != 0) & (rows >= ranks[:, None])
        has = candidates.any(axis=1)
        if not has.any():
            continue
        # a matrix without a pivot (argmax 0) swaps row 0 with itself, and its
        # rows below have zero entries, so the update leaves it as it is
        p = candidates.argmax(axis=1)
        q = np.where(has, ranks, 0)
        pivot_rows = a[every, p]
        if (p != q).any():
            a[every, p] = a[every, q]
            a[every, q] = pivot_rows
        # update the columns after c, which no later column reads, in the rows
        # below the least rank lo; row lo is each matrix's pivot row, a used
        # row, or an unused one with a zero entry, and in a matrix of higher
        # rank the used rows below lo have zero entries, so they are only
        # scaled, and no later column reads them
        lo = ranks.min() + 1
        entries = np.where(rows[lo:] > ranks[:, None], a[:, lo:, c], 0)
        pivots = np.where(has, pivot_rows[:, c], 1)
        # entries and pivots are below 2**31, so no product reaches 2**62;
        # floor division by a scalar measured 4x faster than np.remainder
        x = a[:, lo:, c + 1 :] * pivots[:, None, None] - entries[:, :, None] * pivot_rows[:, None, c + 1 :]
        x -= x // PRIME * PRIME
        a[:, lo:, c + 1 :] = x
        ranks += has
    return ranks


def _is_prime(n: int) -> bool:
    """Miller-Rabin on an odd n > 7 with the bases 2, 3, 5, 7, exact below
    3,215,031,751 (Pomerance, Selfridge, Wagstaff, Math. Comp. 35, 1980)."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def primes_below(k: int, top: int) -> tuple[int, ...]:
    """The k >= 1 largest primes <= top, descending, for top below
    3,215,031,751 and above the k-th prime past 7; each is found once."""
    head = primes_below(k - 1, top) if k > 1 else ()
    n = head[-1] - 2 if head else top - 1 + top % 2
    while not _is_prime(n):
        n -= 2
    return head + (n,)


def _residues(rows: Sequence[Sequence[int]], primes: Sequence[int]) -> np.ndarray:
    """The (k, r, n) int64 residues of integer rows mod each of k primes;
    entries from 2**63 on are reduced by Python first."""
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array([[[x % m for x in row] for row in rows] for m in primes], dtype=np.int64)
    return np.stack([a % m for m in primes])


def _reduce(x: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """x mod p into [-p, p), in place, for a float64 array x of integers
    |x| <= 2**52 and mods broadcasting p: the correctly rounded x / p rounds
    up to at most the next integer, so the floor is off by at most one, and
    every value stays an exact integer."""
    x -= np.floor(x / mods) * mods
    return x


@cache
def _negated_inverses(n: int, primes: tuple[int, ...]) -> np.ndarray:
    """The float64 table of -1/j mod each prime, row j = 1..n (row 0 unused)."""
    return np.array([[0] * len(primes)] + [[m - pow(j, -1, m) for m in primes] for j in range(1, n + 1)], dtype=float)


def _faddeev_leverrier(a: np.ndarray, mods: np.ndarray, negated_inverses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, M) for a float64 stack a of shape (S, n, n) whose matrix s holds
    integers in [-p, p) for p = mods[s]: c[s] holds the coefficients, low
    to high and in [0, p), of det(x*I - a[s]) mod p, and M[s] the matrix
    M_n mod p, with a[s] @ M_n = -c_0 I (Faddeev and Faddeeva, Computational
    Methods of Linear Algebra, 1963, section 24).  One batched `matmul` per
    coefficient, no pivoting: M_1 = I, c_(n-k) = -tr(a M_k) / k and
    M_(k+1) = a M_k + c_(n-k) I, with -1/k mod p from negated_inverses[k]
    (`_negated_inverses`, shape (n+1, S)), so p > n.  Each reduced product
    lies in [-p, p) and each M in [-p, 2p), so with 2 n p^2 <= 2**52 every
    sum in `matmul` is an exact integer."""
    s, n, _ = a.shape
    c = np.zeros((s, n + 1))
    c[:, n] = 1
    m = np.broadcast_to(np.eye(n), a.shape)
    for k in range(1, n + 1):
        am = _reduce(a @ m, mods[:, None, None])
        diagonal = am.reshape(s, -1)[:, :: n + 1]
        c[:, n - k] = np.remainder(diagonal.sum(axis=1) * negated_inverses[k], mods)
        if k < n:
            diagonal += c[:, n - k, None]
            m = am
    return c, m


def pencil_coefficients(p: Sequence[Sequence[int]], q: Sequence[Sequence[int]], nodes: int) -> list[int]:
    """The coefficients R_0..R_n, low to high, of R(t) = det(t*P + Q) for
    square integer rows P and Q of size n > 0, exactly, from one
    characteristic polynomial per word-size prime; `nodes` is n + 1, or
    n//2 + 1 for a palindromic R (R_k = R_(n-k)).

    For each prime p, A = t0*P + Q at the first node t0 = 2, 3, .., nodes+1
    with det A != 0 mod p gives det A and adj A by `_faddeev_leverrier`,
    then B = A^-1 P the coefficients of det(x*I - B), the elementary
    symmetric functions of its eigenvalues, so that
    det(t*P + Q) = det A * det(I + (t - t0) B) comes out as coefficients in
    t - t0, which a Taylor shift turns into R mod p.  Only the primes where
    det A = 0 retry, at the next node.  A prime with det A = 0 at every node
    has R = 0 mod p, since a nonzero R mod p has at most n roots: n + 1
    nodes are too many, and so are the 2 * nodes > n roots t and 1/t of a
    palindromic R, distinct while (nodes + 1)^2 < p (else all n + 1 nodes
    are taken).  When every prime has det A = 0 at t0 = 2, a common kernel
    vector of P and Q (a zero column of [P; Q], or rank [P; Q] < n by one
    exact `rank`) proves R = 0 at once; it measured cheaper than the nodes
    on every pencil with R = 0 that the benchmark corpora hold.

    Values stay exact integers in float64 with primes p <= sqrt(2**51 / n),
    so 2 n p^2 <= 2**52 (the argument of Dumas, Giorgi, Pernet, ACM TOMS
    35(3), 2008, for FFLAS-FFPACK; p > 2**21 for n < 256).  On the unit
    circle, Hadamard's inequality bounds |R(e^(i theta))| by
    B = prod_i sqrt(|P_i|^2 + 2|P_i.Q_i| + |Q_i|^2), and R_k is the mean of
    R(e^(i theta)) e^(-ik theta), so |R_k| <= B: the k largest such primes
    with product N > 2B give each R_k as its residue mod N, by the Chinese
    remainder theorem, taken in (-N/2, N/2) (Abbott, Bronstein, Mulders,
    ISSAC 1999)."""
    n = len(p)
    mul = operator.mul
    bound2 = prod(sum(map(mul, u, u)) + 2 * abs(sum(map(mul, u, w))) + sum(map(mul, w, w)) for u, w in zip(p, q))
    top = isqrt(2**51 // n)
    k, modulus = 1, primes_below(1, top)[0]
    while modulus * modulus <= 4 * bound2:
        k += 1
        modulus *= primes_below(k, top)[-1]
    primes = primes_below(k, top)
    if (nodes + 1) ** 2 >= primes[-1]:
        nodes = n + 1
    mods = np.array(primes, dtype=float)
    rp, rq = (_residues(x, primes).astype(float) for x in (p, q))
    negated_inverses = _negated_inverses(n, primes)
    t0 = np.zeros(k, dtype=np.int64)
    dets = np.zeros(k)
    adjugates = np.empty_like(rp)
    pending = np.arange(k)
    for t in range(2, nodes + 2):
        a = _reduce(rp[pending] * t + rq[pending], mods[pending, None, None])
        c, m = _faddeev_leverrier(a, mods[pending], negated_inverses[:, pending])
        found = c[:, 0] != 0
        t0[pending[found]], dets[pending[found]], adjugates[pending[found]] = t, c[found, 0], m[found]
        pending = pending[~found]
        if not pending.size:
            break
        if t == 2 and pending.size == k:
            # a common kernel vector of P and Q, such as a zero column of
            # [P; Q], makes every t*P + Q singular
            stacked = [u for u in (*p, *q) if any(u)]
            if not all(map(any, zip(*stacked))) or rank(stacked) < n:
                return [0] * (n + 1)
    live = np.flatnonzero(t0)
    residues = np.zeros((k, n + 1), dtype=np.int64)
    if live.size:
        # A^-1 = -M_n / c_0 and det A = (-1)^n c_0
        ms = mods[live, None, None]
        w = np.array([pow(int(x), -1, m) for x, m in zip(dets[live], (primes[i] for i in live))], dtype=float)
        b = _reduce(_reduce(adjugates[live] @ rp[live], ms) * (ms - w[:, None, None]), ms)
        e, _ = _faddeev_leverrier(b, mods[live], negated_inverses[:, live])
        # with e the coefficients of det(x*I - B), det(I + s B) is
        # sum_k (-1)^k e[n-k] s^k, so g_k = (-1)^(n+k) c_0 e[n-k]
        g = e[:, ::-1] * dets[live, None]
        g[:, (n + 1) % 2 :: 2] *= -1
        g = np.remainder(g, mods[live, None]).astype(np.int64)
        # Taylor shift: R(t) = sum_k g_k (t - t0)^k by Horner in t - t0
        shift, ps = t0[live, None], np.array(primes, dtype=np.int64)[live, None]
        for j in range(n - 1, -1, -1):
            g[:, j:n] -= shift * g[:, j + 1 :]
            g[:, j:] %= ps
        residues[live] = g
    # basis[i] is 1 mod primes[i] and 0 mod the others
    basis = [modulus // m * pow(modulus // m, -1, m) for m in primes]
    out = []
    for column in residues.T.tolist():
        x = sum(map(mul, basis, column)) % modulus
        out.append(x - modulus if 2 * x > modulus else x)
    return out


def inverse(m: RatMatrix) -> RatMatrix:
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    d, ints = m.integer_form()
    scale, reduced, pivots = rref([row + tuple(d if j == i else 0 for j in range(n)) for i, row in enumerate(ints)])
    if list(pivots[:n]) != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return RatMatrix.from_integer_form(scale, tuple(row[n:] for row in reduced[:n]))


def is_singular(rows: Sequence[Sequence[int]]) -> bool:
    """det = 0 for square integer rows.  From CRT_MIN_DIM rows on, a nonzero
    det mod one word-size prime (`_faddeev_leverrier`) proves det != 0; only
    a zero residue takes the exact `det`."""
    n = len(rows)
    if n >= CRT_MIN_DIM:
        primes = primes_below(1, isqrt(2**51 // n))
        a = _residues(rows, primes).astype(float)
        if _faddeev_leverrier(a, np.array(primes, dtype=float), _negated_inverses(n, primes))[0][0, 0]:
            return False
    return det(rows) == 0


def det(m: RatMatrix | Sequence[Sequence[int]]) -> Fraction:
    """Exact determinant of a rational matrix or of integer rows (0x0 gives 1):
    det(rows) / d^n for a RatMatrix on its integer form (d, rows)."""
    if isinstance(m, RatMatrix):
        d, rows = m.integer_form()
        ints, scale = [list(row) for row in rows], d ** len(rows)
    else:
        ints, scale = _integer_rows(m)
    n = len(ints)
    if any(len(row) != n for row in ints):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    pivots, sign = _eliminate(ints)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * ints[-1][-1], scale)

