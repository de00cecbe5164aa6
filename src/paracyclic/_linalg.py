"""Exact matrix arithmetic over a prime field or the rationals.

Matrices are numpy arrays: int64 entries reduced mod p for prime fields,
object-dtype Fraction entries for the rationals.  Maps act on column
vectors, so a map V -> W has shape (dim W, dim V).  Echelon forms are fully
reduced with unit pivots, which makes every returned basis deterministic.

A backend supplies only its scalars and storage; every matrix routine is
written once in ``Field``, over the backend's ``reduce`` (``% p``, or
nothing over Q).  ``Field.rref`` is the one entry point for elimination.
Over a prime field it picks the loop by row count: row by row below
``VECTOR_MIN_ROWS`` rows, otherwise one broadcast update per pivot,
restricted to the rows with a nonzero entry in the pivot column and the
columns with a nonzero entry in the pivot row.

``PrimeField.matmul`` picks one of three exact regimes per product, from
the inner dimension k and a bound B on the operands' absolute entries:

- float64 through numpy's BLAS ``@`` when the product has at least
  ``BLAS_MIN_MULTS`` multiplications and k * B_a * B_b < 2**53, with B_a and
  B_b read from the operands; every partial sum is then an integer below
  2**53, which float64 holds exactly in any summation order;
- int64 ``@`` when k * B_a * B_b < 2**63 (below the crossover, B = p - 1);
- Python ints (object dtype) otherwise.

Each result is reduced by int64 ``%``.  PrimeField accepts only primes with
(p - 1)**2 < 2**63, so that one product of two reduced entries, which every
row operation forms, fits in int64.

The rationals do their arithmetic on Python ints, in two regimes:

- ``Rationals.matmul`` keeps numpy's object ``@`` on the Fractions below
  ``Q_INT_MIN_MULTS`` multiplications.  From there on it scales each operand
  to integers by the lcm of its denominators, multiplies only the nonzero
  rows of the left operand, the nonzero columns of the right one and the
  inner indices nonzero in both, as object-dtype ints, and divides the
  result once by the product of the two scales;
- ``Rationals`` elimination, beneath ``Field.rref``, is fraction free: each
  row is scaled to primitive integers, a row r meets the pivot row through
  (p_c / g) r - (r_c / g) p with g = gcd(p_c, r_c) and is divided by the gcd
  of its entries, and one pass at the end divides each pivot row by its
  pivot.  Entries may be ints as well as Fractions; the result holds
  Fractions.

Stacks of many small matrices, shape (K, r, c), have two routines of their
own, written once in ``Field`` over ``reduce`` for every backend; the 2-D
routines above do not use them.  ``stacked_matmul`` forms all K products
with one ``np.matmul``: over a prime field in int64 when k * (p - 1)**2 <
2**63 for the inner dimension k, the rule of ``PrimeField.matmul`` below
its BLAS crossover, otherwise on Python ints; over Q on the Fractions.
``stacked_rank`` eliminates all K matrices at once, one column at a time,
fraction free: a row r meets its matrix's pivot row p through
p_c r - r_c p, whose two products are of reduced entries, so it stays in
int64 for every accepted prime and inverts no scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import MalformedInput, ResourceBound

# Products with at least this many multiplications (m * k * n) go through
# float64 BLAS.  Below it the int64 product is kept, which is faster on the
# tiny products that make up nearly all calls: `selftest --seed 0` makes
# 220,632 prime-field products, 591 of them at or above the crossover.  On
# square F_101 operands the float64 path took 17.6 us against int64's
# 12.5 us at 16**3, 24.8 us against 62 us at 32**3 and 9.6 ms against
# 419 ms at 512**3 (2-vCPU Xeon VM, OpenBLAS 0.3.31).
BLAS_MIN_MULTS = 32768

# Q products with at least this many multiplications are formed on
# integer-scaled operands; below it numpy's object `@` on the Fractions is
# kept.  On the products of the rational benchmark workload (seeds 5 and 6,
# up to 50 per size, two runs), `@` took 3-26 us at 1-9 multiplications
# against the integer path's 23-40 us, and 41-57 us at 12 against 26-38 us;
# the integer path was 2-3x ahead at 27-54 multiplications and 75x at
# 13,824 (2-vCPU Xeon VM).
Q_INT_MIN_MULTS = 12

# Matrices with at least this many rows are reduced by one broadcast update
# per pivot.  On the rref inputs of a selftest run (F_2) and of the rotation
# workload (F_101), the update took 1.5x the loop's time on the 18 x 18
# kernel systems of `random_chain_map`, about the same at 17-32 rows,
# 0.45-0.7x at 33-64 rows and 0.3-0.5x from 65 rows; on 20 cone matrices of
# 500-750 rows it took 0.54 s against 3.5 s.  The rationals eliminate by a
# loop of their own (see the module docstring).
# `selftest --seed 0` makes 2,463 rref calls, all over prime fields, 56 of
# them with 32 or more rows; on the other 2,407 the update took 0.10-0.12 s
# against the loop's 0.06-0.08 s.
VECTOR_MIN_ROWS = 32

_FLOAT64_EXACT = 2 ** 53
_INT64_EXACT = 2 ** 63


class Field:
    """The matrix routines, written once.  A backend supplies ``name``,
    ``one``, ``zeros``, ``identity``, ``matmul``, ``mat_to_json``,
    ``random_matrix`` and the methods below that raise NotImplementedError;
    it may replace ``_eliminate``, the loop beneath ``rref``, and then needs
    no ``_inv_scalar``."""

    name: str

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Canonical representatives of the entries of a."""
        raise NotImplementedError

    def scalar(self, x):
        """x as a field element."""
        raise NotImplementedError

    def scalar_power(self, x, k: int):
        """x ** k for any integer k; x must be a unit when k < 0."""
        raise NotImplementedError

    def _inv_scalar(self, x):
        raise NotImplementedError

    def random_scalar(self, rng):
        """A random coefficient, possibly zero."""
        raise NotImplementedError

    def random_unit(self, rng):
        """A random nonzero scalar."""
        raise NotImplementedError

    def matrix(self, rows: Sequence[Sequence]) -> np.ndarray:
        out = self.zeros(len(rows), len(rows[0]) if rows else 0)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                out[i, j] = self.scalar(x)
        return out

    def mat_from_json(self, data: Sequence[Sequence], shape: Tuple[int, int]) -> np.ndarray:
        """``shape[0]`` rows of ``shape[1]`` entries, as ``mat_to_json`` writes them."""
        if len(data) != shape[0] or any(len(row) != shape[1] for row in data):
            raise MalformedInput(f"expected a {shape[0]} x {shape[1]} matrix")
        return self.matrix(data) if data else self.zeros(*shape)

    def neg(self, a: np.ndarray) -> np.ndarray:
        return self.reduce(-a)

    def scalar_matrix(self, x, n: int) -> np.ndarray:
        """x times the n x n identity."""
        out = self.identity(n)
        value = self.scalar(x)
        for i in range(n):
            out[i, i] = value
        return out

    # -- elimination ----------------------------------------------------------

    def rref(self, a: np.ndarray) -> Tuple[np.ndarray, List[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        return self._eliminate(a)

    def _eliminate(self, a: np.ndarray) -> Tuple[np.ndarray, List[int]]:
        """rref's loop on a copy of a, picked by row count."""
        if a.shape[0] < VECTOR_MIN_ROWS:
            return self._rref_by_rows(a.copy())
        return self._rref_by_broadcast(a.copy())

    def _rref_by_rows(self, mat: np.ndarray) -> Tuple[np.ndarray, List[int]]:
        """Row-by-row elimination of mat in place."""
        rows, cols = mat.shape
        pivots: List[int] = []
        rank = 0
        for col in range(cols):
            # the column read once as Python scalars: on matrices of a few
            # rows, reading mat[r, col] entry by entry cost more than the
            # row updates
            column = mat[:, col].tolist()
            pivot = next((r for r in range(rank, rows) if column[r]), None)
            if pivot is None:
                continue
            if pivot != rank:
                mat[[rank, pivot]] = mat[[pivot, rank]]
                column[rank], column[pivot] = column[pivot], column[rank]
            mat[rank] = self.reduce(mat[rank] * self._inv_scalar(column[rank]))
            for r in range(rows):
                if r != rank and column[r]:
                    mat[r] = self.reduce(mat[r] - column[r] * mat[rank])
            pivots.append(col)
            rank += 1
            if rank == rows:
                break
        return mat, pivots

    def _rref_by_broadcast(self, mat: np.ndarray) -> Tuple[np.ndarray, List[int]]:
        """Elimination of mat in place, one broadcast update per pivot."""
        rows, cols = mat.shape
        pivots: List[int] = []
        rank = 0
        for col in range(cols):
            nonzero = np.flatnonzero(mat[:, col])
            i = int(np.searchsorted(nonzero, rank))
            if i == nonzero.size:
                continue
            pivot = int(nonzero[i])
            if pivot != rank:
                mat[[rank, pivot]] = mat[[pivot, rank]]
            # after the swap the other nonzero rows of the column are unchanged
            targets = np.concatenate((nonzero[:i], nonzero[i + 1:]))
            support = col + np.flatnonzero(mat[rank, col:])
            row = mat[rank, support]
            if row[0] != 1:
                row = self.reduce(row * self._inv_scalar(row[0]))
                mat[rank, support] = row
            if targets.size:
                block = targets[:, None], support
                mat[block] = self.reduce(mat[block] - mat[targets, col, None] * row)
            pivots.append(col)
            rank += 1
            if rank == rows:
                break
        return mat, pivots

    def rank(self, a: np.ndarray) -> int:
        if 0 in a.shape:
            return 0
        return len(self.rref(a)[1])

    # -- stacks of matrices ---------------------------------------------------

    def _overflows(self, k: int) -> bool:
        """Whether a sum of k products of two entries can leave the storage
        dtype; never for object storage."""
        return False

    def stacked_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The products a[s] @ b[s] of stacks of shapes (K, m, k) and
        (K, k, n), as one (K, m, n) stack."""
        (count, m, k), n = a.shape, b.shape[2]
        if count * m * k * n == 0:
            return self.zeros(count * m, n).reshape(count, m, n)
        if self._overflows(k):
            return self.reduce(np.matmul(a.astype(object), b.astype(object))).astype(a.dtype)
        return self.reduce(np.matmul(a, b))

    def stacked_rank(self, a: np.ndarray) -> np.ndarray:
        """The rank of each matrix of a stack of shape (K, r, c), by one
        fraction-free forward elimination of the whole stack: a row r meets
        its matrix's pivot row p through p_c r - r_c p, so no scalar is
        inverted."""
        count, rows, cols = a.shape
        rank = np.zeros(count, dtype=np.int64)
        mat = a.copy()
        row_ids = np.arange(rows)
        for col in range(cols):
            candidates = (mat[:, :, col] != 0) & (row_ids >= rank[:, None])
            live = np.flatnonzero(candidates.any(axis=1))
            if not live.size:
                continue
            top, pivot = rank[live], candidates[live].argmax(axis=1)
            mat[live, top], mat[live, pivot] = mat[live, pivot], mat[live, top]
            sub = mat[live]
            pivot_row = sub[np.arange(live.size), top]
            factor = np.where(row_ids > top[:, None], sub[:, :, col], 0)
            mat[live] = self.reduce(pivot_row[:, col, None, None] * sub
                                    - factor[:, :, None] * pivot_row[:, None, :])
            rank[live] += 1
        return rank

    def right_kernel(self, a: np.ndarray) -> np.ndarray:
        """Rows form the canonical reduced basis of { v : a v = 0 }."""
        rows, cols = a.shape
        if cols == 0:
            return self.zeros(0, 0)
        if rows == 0:
            return self.identity(cols)
        return self.kernel_of_rref(*self.rref(a))[0]

    def kernel_of_rref(self, reduced: np.ndarray,
                       pivots: List[int]) -> Tuple[np.ndarray, List[int]]:
        """The canonical reduced kernel basis of a matrix, as rows, and its
        free columns, read off the matrix's reduced echelon form and pivot
        columns.  The row of free column c holds 1 at c, 0 at every other
        free column and -reduced[r, c] at the r-th pivot, so a kernel
        vector's coordinates in this basis are its entries at the free
        columns."""
        cols = reduced.shape[1]
        pivot_set = set(pivots)
        free = [c for c in range(cols) if c not in pivot_set]
        # the identity with its pivot rows replaced by the negated reduced
        # rows, read by columns
        square = self.identity(cols)
        square[pivots] = self.neg(reduced[:len(pivots)])
        return square.T[free], free

    def is_invertible(self, a: np.ndarray) -> bool:
        return a.shape[0] == a.shape[1] and self.rank(a) == a.shape[0]

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """The inverse, read off one elimination of [a | I]: a is invertible
        exactly when the pivots are the columns of a."""
        n = a.shape[0]
        if a.shape[1] == n:
            reduced, pivots = self.rref(np.concatenate([a, self.identity(n)], axis=1))
            if pivots == list(range(n)):
                return reduced[:, n:]
        raise ValueError("matrix is not invertible")

    def solve_in_span(self, basis_rows: np.ndarray, vector: np.ndarray):
        """Coefficients expressing vector in the span of basis rows, or None."""
        if basis_rows.shape[0] == 0:
            return self.zeros(1, 0)[0] if not vector.any() else None
        system = np.concatenate([basis_rows.T, vector.reshape(-1, 1)], axis=1)
        reduced, pivots = self.rref(system)
        if basis_rows.shape[0] in pivots:
            return None
        coeffs = self.zeros(1, basis_rows.shape[0])[0]
        for r, pc in enumerate(pivots):
            coeffs[pc] = reduced[r, -1]
        return coeffs

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and bool(np.array_equal(a, b))

    # -- randomness (seeded, for tests and self checks) ------------------------

    def random_invertible(self, rng, n: int) -> np.ndarray:
        if n == 0:
            return self.identity(0)
        while True:
            candidate = self.random_matrix(rng, n, n)
            if self.is_invertible(candidate):
                return candidate


@dataclass(frozen=True)
class PrimeField(Field):
    p: int

    def __post_init__(self):
        if (self.p - 1) ** 2 >= _INT64_EXACT:
            raise ResourceBound(
                f"p = {self.p} is too large: int64 row operations need (p - 1)**2 < 2**63")
        if self.p < 2 or any(self.p % d == 0 for d in range(2, int(self.p**0.5) + 1)):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return str(self.p)

    @property
    def one(self):
        return 1

    def zeros(self, r, c):
        return np.zeros((r, c), dtype=np.int64)

    def identity(self, n):
        return np.eye(n, dtype=np.int64)

    def matmul(self, a, b):
        m, k = a.shape
        if m * k * b.shape[1] >= BLAS_MIN_MULTS:
            bound = k * int(np.abs(a).max()) * int(np.abs(b).max())
            if bound < _FLOAT64_EXACT:
                product = a.astype(np.float64) @ b.astype(np.float64)
                return product.astype(np.int64) % self.p
        else:
            bound = k * (self.p - 1) ** 2
        if bound < _INT64_EXACT:
            return (a @ b) % self.p
        return (a.astype(object) @ b.astype(object) % self.p).astype(np.int64)

    def reduce(self, a):
        return a % self.p

    def _overflows(self, k):
        return k * (self.p - 1) ** 2 >= _INT64_EXACT

    def scalar(self, x):
        return int(x) % self.p

    def scalar_power(self, x, k):
        s = self.scalar(x)
        if k < 0:
            s, k = self._inv_scalar(s), -k
        return pow(s, k, self.p)

    def _inv_scalar(self, x):
        return pow(int(x), self.p - 2, self.p)

    def mat_to_json(self, a):
        return [[int(x) for x in row] for row in a]

    def random_matrix(self, rng, r, c):
        out = np.zeros((r, c), dtype=np.int64)
        for i in range(r):
            for j in range(c):
                out[i, j] = rng.randrange(self.p)
        return out

    def random_scalar(self, rng):
        return rng.randrange(self.p)

    def random_unit(self, rng):
        return rng.randrange(1, self.p)


class Rationals(Field):
    name = "Q"

    @property
    def one(self):
        return Fraction(1)

    def zeros(self, r, c):
        out = np.empty((r, c), dtype=object)
        out[:] = Fraction(0)
        return out

    def identity(self, n):
        out = self.zeros(n, n)
        one = Fraction(1)
        for i in range(n):
            out[i, i] = one
        return out

    def matmul(self, a, b):
        (m, k), n = a.shape, b.shape[1]
        if m * k * n == 0:
            return self.zeros(m, n)
        if m * k * n < Q_INT_MIN_MULTS:
            return a @ b
        left, left_scale = _integer_scaled(a.ravel().tolist())
        right, right_scale = _integer_scaled(b.ravel().tolist())
        left, right = _object_array(left, a.shape), _object_array(right, b.shape)
        left_nonzero, right_nonzero = left != 0, right != 0
        inner = left_nonzero.any(axis=0) & right_nonzero.any(axis=1)
        rows = np.flatnonzero(left_nonzero[:, inner].any(axis=1))
        cols = np.flatnonzero(right_nonzero[inner].any(axis=0))
        out = self.zeros(m, n)
        if rows.size and cols.size:
            product = left[rows][:, inner] @ right[inner][:, cols]
            scale = left_scale * right_scale
            out[rows[:, None], cols] = [[Fraction(x, scale) if x else _ZERO for x in row]
                                        for row in product.tolist()]
        return out

    def _eliminate(self, a):
        """Fraction-free Gauss-Jordan elimination on primitive integer rows
        (see the module docstring)."""
        rows, cols = a.shape
        mat = [_primitive(_integer_scaled(row)[0]) for row in a.tolist()]
        pivots: List[int] = []
        for col in range(cols):
            rank = len(pivots)
            pivot = next((r for r in range(rank, rows) if mat[r][col]), None)
            if pivot is None:
                continue
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            pivot_row = mat[rank]
            lead = pivot_row[col]
            support = [(j, x) for j, x in enumerate(pivot_row[col:], col) if x]
            for r in range(rows):
                x = mat[r][col]
                if r != rank and x:
                    g = math.gcd(lead, x)
                    u, v = lead // g, x // g
                    row = mat[r] if u == 1 else [u * y for y in mat[r]]
                    for j, y in support:
                        row[j] -= v * y
                    mat[r] = _primitive(row)
            pivots.append(col)
            if len(pivots) == rows:
                break
        return self._unit_pivots(mat, pivots, cols), pivots

    def _unit_pivots(self, mat, pivots, cols):
        """The rows of mat divided by their pivots, as Fractions; the rows
        past the pivots are zero."""
        flat = []
        for r, col in enumerate(pivots):
            lead = mat[r][col]
            flat += [Fraction(y, lead) if y else _ZERO for y in mat[r]]
        flat += [_ZERO] * ((len(mat) - len(pivots)) * cols)
        return _object_array(flat, (len(mat), cols))

    def reduce(self, a):
        return a

    def scalar(self, x):
        # a numpy integer would stay fixed-width inside the Fraction and wrap
        return Fraction(int(x) if isinstance(x, np.integer) else x)

    def scalar_power(self, x, k):
        value = self.scalar(x) ** abs(k)
        return value if k >= 0 else 1 / value

    def mat_to_json(self, a):
        return [[f"{x.numerator}/{x.denominator}" for x in row] for row in a]

    def random_matrix(self, rng, r, c):
        out = self.zeros(r, c)
        for i in range(r):
            for j in range(c):
                out[i, j] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        return out

    def random_scalar(self, rng):
        return rng.randrange(-3, 4)

    def random_unit(self, rng):
        return Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))


QQ = Rationals()

_ZERO = Fraction(0)


def _integer_scaled(values: list) -> Tuple[List[int], int]:
    """values times the lcm of their denominators, as ints, and that lcm;
    the values may be Fractions or ints."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _primitive(row: List[int]) -> List[int]:
    """row divided by the gcd of its entries."""
    content = math.gcd(*row)
    return [x // content for x in row] if content > 1 else row


def _object_array(values: list, shape: Tuple[int, int]) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out.reshape(shape)


def field_from_token(token) -> Field:
    """'Q' for the rationals, otherwise a prime p."""
    if token in ("Q", "QQ", None):
        return QQ
    return PrimeField(int(token))
