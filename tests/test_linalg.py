"""Field arithmetic against list-based oracles: Python ints mod p, and
Fractions over Q.

Every kernel is checked on both sides of the size crossovers in
``_linalg`` (the float64 BLAS product and the broadcast row reduction),
on zero-size shapes and on sparse block matrices shaped like mapping
cones, for a small, a medium and the largest common word-size prime.  Over
Q the product is checked on both sides of its integer crossover, and the
elimination routines on sparse inputs of up to 40 rows and on a dense one
with large denominators; both product regimes and the elimination also on
entries read from numpy integers beyond int64 products.  The stacked
product and rank, shared by every backend, are checked matrix by matrix on
zero-padded stacks over F_2, F_101, F_(2^31 - 1) and Q.
"""

from fractions import Fraction

import numpy as np
import pytest

from paracyclic._linalg import BLAS_MIN_MULTS, Q_INT_MIN_MULTS, QQ, VECTOR_MIN_ROWS, PrimeField
from paracyclic.errors import PackageError, ResourceBound

from oracles import (
    oracle_matmul_fraction,
    oracle_matmul_mod,
    oracle_rref_fraction,
    oracle_rref_mod,
)

PRIMES = [2, 101, 2**31 - 1]


def random_mod(rng, p, rows, cols, density=1.0):
    out = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    out[rng.random((rows, cols)) >= density] = 0
    return out


def cone_like(rng, p, size):
    """[[-a, 0], [f, b]] with sparse blocks of the given size, reduced mod p."""
    a, f, b = (random_mod(rng, p, size, size, 0.15) for _ in range(3))
    return np.block([[-a, np.zeros((size, size), dtype=np.int64)], [f, b]]) % p


def expected_product(a, b, p):
    return np.array(oracle_matmul_mod(a.tolist(), b.tolist(), p, b.shape[1]),
                    dtype=np.int64).reshape(a.shape[0], b.shape[1])


def expected_rref(a, p):
    reduced, pivots = oracle_rref_mod(a.tolist(), p)
    return np.array(reduced, dtype=np.int64).reshape(a.shape), pivots


def rref_inputs(rng, p):
    """Matrices below, at and above the row crossover, dense and sparse."""
    small, large = VECTOR_MIN_ROWS - 1, VECTOR_MIN_ROWS
    return [
        random_mod(rng, p, small, small + 3),
        random_mod(rng, p, large, large + 3),
        random_mod(rng, p, large, large - 5, 0.2),
        random_mod(rng, p, 2 * large, 2 * large, 0.05),
        # rank-deficient: the last rows repeat combinations of the first
        np.vstack([m := random_mod(rng, p, large, large + 2, 0.3),
                   (m[:4] * 3 + m[4:8]) % p]),
        cone_like(rng, p, small // 2),
        cone_like(rng, p, large),
    ]


def matmul_shapes():
    """(m, k, n) just below and at the BLAS crossover, plus thin products."""
    k = n = 32
    at = -(-BLAS_MIN_MULTS // (k * n))
    assert (at - 1) * k * n < BLAS_MIN_MULTS <= at * k * n
    return [(at - 1, k, n), (at, k, n), (2 * at, k, n), (3, 3, 3), (1, 200, 1), (200, 1, 200)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", matmul_shapes())
def test_matmul_matches_oracle(p, shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[2] + p % 997)
    m, k, n = shape
    field = PrimeField(p)
    for density in (1.0, 0.05):
        a, b = random_mod(rng, p, m, k, density), random_mod(rng, p, k, n, density)
        assert np.array_equal(field.matmul(a, b), expected_product(a, b, p))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", matmul_shapes()[:3])
def test_matmul_reduces_operands_of_either_sign(p, shape):
    """Entries in (-p, p), as a negated block before reduction has; the
    result is still the canonical residue in [0, p)."""
    rng = np.random.default_rng(7 + p % 997)
    m, k, n = shape
    a = -random_mod(rng, p, m, k)
    b = random_mod(rng, p, k, n)
    product = PrimeField(p).matmul(a, b)
    assert product.min() >= 0
    assert np.array_equal(product, expected_product(a % p, b, p))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 5, 3), (4, 0, 3), (4, 5, 0), (0, 0, 0)])
def test_matmul_zero_size(p, shape):
    m, k, n = shape
    field = PrimeField(p)
    product = field.matmul(field.zeros(m, k), field.zeros(k, n))
    assert product.shape == (m, n) and product.dtype == np.int64
    assert not product.any()


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_oracle(p):
    rng = np.random.default_rng(p % 997)
    field = PrimeField(p)
    for a in rref_inputs(rng, p):
        reduced, pivots = field.rref(a)
        expected, expected_pivots = expected_rref(a, p)
        assert pivots == expected_pivots, a.shape
        assert np.array_equal(reduced, expected), a.shape


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (VECTOR_MIN_ROWS, 0)])
def test_rref_zero_size(p, shape):
    reduced, pivots = PrimeField(p).rref(np.zeros(shape, dtype=np.int64))
    assert reduced.shape == shape and pivots == []


@pytest.mark.parametrize("p", PRIMES)
def test_rref_leaves_input_unchanged(p):
    rng = np.random.default_rng(3)
    for a in rref_inputs(rng, p):
        before = a.copy()
        PrimeField(p).rref(a)
        assert np.array_equal(a, before)


@pytest.mark.parametrize("p", PRIMES)
def test_right_kernel_is_the_canonical_basis(p):
    rng = np.random.default_rng(11 + p % 997)
    field = PrimeField(p)
    for a in rref_inputs(rng, p):
        reduced, pivots = expected_rref(a, p)
        free = [c for c in range(a.shape[1]) if c not in pivots]
        expected = np.zeros((len(free), a.shape[1]), dtype=np.int64)
        for idx, fc in enumerate(free):
            expected[idx, fc] = 1
            for r, pc in enumerate(pivots):
                expected[idx, pc] = -reduced[r, fc] % p
        kernel = field.right_kernel(a)
        assert np.array_equal(kernel, expected), a.shape
        assert not expected_product(a, kernel.T, p).any()


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [3, VECTOR_MIN_ROWS - 1, VECTOR_MIN_ROWS, 2 * VECTOR_MIN_ROWS])
def test_inverse_matches_oracle(p, n):
    rng = np.random.default_rng(n + p % 997)
    field = PrimeField(p)
    while True:
        a = random_mod(rng, p, n, n, 0.5)
        if len(expected_rref(a, p)[1]) == n:
            break
    expected = expected_rref(np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1), p)[0][:, n:]
    inverse = field.inverse(a)
    assert np.array_equal(inverse, expected)
    assert np.array_equal(expected_product(a, inverse, p), np.eye(n, dtype=np.int64))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("count", [2, VECTOR_MIN_ROWS - 2, VECTOR_MIN_ROWS + 4])
def test_solve_in_span_matches_oracle(p, count):
    """count + 1 rows in the system: both sides of the row crossover."""
    rng = np.random.default_rng(count + p % 997)
    field = PrimeField(p)
    width = count + 3
    basis = random_mod(rng, p, count, width, 0.4)
    inside = expected_product(random_mod(rng, p, 1, count), basis, p)[0]
    outside = random_mod(rng, p, 1, width)[0]
    for vector in (inside, outside):
        system = np.concatenate([basis.T, vector.reshape(-1, 1)], axis=1)
        reduced, pivots = expected_rref(system, p)
        coeffs = field.solve_in_span(basis, vector)
        if count in pivots:
            assert coeffs is None
            continue
        expected = np.zeros(count, dtype=np.int64)
        for r, pc in enumerate(pivots):
            expected[pc] = reduced[r, -1]
        assert np.array_equal(coeffs, expected)
        assert np.array_equal(expected_product(coeffs.reshape(1, -1), basis, p)[0], vector)


def test_large_prime_products_are_exact():
    """At p = 2^31 - 1 an int64 product of three (p-1)^2 terms overflows."""
    p = 2**31 - 1
    field = PrimeField(p)
    full = np.full((3, 3), p - 1, dtype=np.int64)
    assert np.array_equal(field.matmul(full, full), np.full((3, 3), 3))
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = random_mod(rng, p, 3, 4), random_mod(rng, p, 4, 2)
        assert np.array_equal(field.matmul(a, b), expected_product(a, b, p))


def test_rref_at_the_largest_common_word_size_prime():
    p = 2**31 - 1
    rng = np.random.default_rng(6)
    field = PrimeField(p)
    for _ in range(200):
        a = random_mod(rng, p, 3, 4)
        reduced, pivots = field.rref(a)
        expected, expected_pivots = expected_rref(a, p)
        assert pivots == expected_pivots and np.array_equal(reduced, expected)


@pytest.mark.parametrize("p", [3037000507, 4294967311, 2**61 - 1])
def test_primes_beyond_the_int64_bound_are_rejected(p):
    """(p - 1)^2 >= 2^63: one row operation would overflow int64."""
    with pytest.raises(ResourceBound):
        PrimeField(p)
    assert issubclass(ResourceBound, PackageError)


def test_largest_accepted_prime_is_exact():
    p = 3037000493            # the largest prime with (p - 1)^2 < 2^63; the next is 3037000507
    assert (p - 1) ** 2 < 2**63
    field = PrimeField(p)
    full = np.full((2, 2), p - 1, dtype=np.int64)
    assert np.array_equal(field.matmul(full, full), np.full((2, 2), 2))
    reduced, pivots = field.rref(np.array([[p - 1, p - 2], [p - 2, p - 1]], dtype=np.int64))
    assert np.array_equal(reduced, np.eye(2, dtype=np.int64)) and pivots == [0, 1]


# -- the rationals -------------------------------------------------------------

def random_q(rng, rows, cols, density, top=9, max_den=4):
    """Sparse Fractions with numerators in -top..top and denominators in
    1..max_den."""
    out = QQ.zeros(rows, cols)
    for i, j in zip(*np.nonzero(rng.random((rows, cols)) < density)):
        out[i, j] = Fraction(int(rng.integers(-top, top + 1)), int(rng.integers(1, max_den + 1)))
    return out


def q_rref_inputs(rng):
    """Sparse Q matrices of 31 to 40 rows, and a dense one whose large
    denominators make the integer rows long."""
    small, large = VECTOR_MIN_ROWS - 1, VECTOR_MIN_ROWS
    return [
        random_q(rng, small, small + 3, 0.1),
        random_q(rng, large, large + 3, 0.08),
        random_q(rng, large + 8, large - 5, 0.06),
        # rank-deficient: the last rows repeat combinations of the first
        np.vstack([m := random_q(rng, large, large + 2, 0.06), m[:4] * 3 + m[4:8]]),
        # dense, with a repeated combination so that a row cancels entirely
        np.vstack([m := random_q(rng, 11, 14, 1.0, top=10**6, max_den=10**6),
                   m[:1] * Fraction(3, 7) - m[1:2] * Fraction(5, 11)]),
    ]


def as_q(rows, shape):
    out = QQ.zeros(*shape)
    for i, row in enumerate(rows):
        out[i] = row
    return out


def expected_rref_q(a):
    reduced, pivots = oracle_rref_fraction(a.tolist())
    return as_q(reduced, a.shape), pivots


def test_rationals_rref_matches_oracle():
    rng = np.random.default_rng(19)
    for a in q_rref_inputs(rng):
        before = a.copy()
        reduced, pivots = QQ.rref(a)
        expected, expected_pivots = expected_rref_q(a)
        assert pivots == expected_pivots, a.shape
        assert QQ.equal(reduced, expected), a.shape
        assert QQ.equal(a, before)


def test_rationals_right_kernel_is_the_canonical_basis():
    rng = np.random.default_rng(23)
    for a in q_rref_inputs(rng):
        reduced, pivots = expected_rref_q(a)
        free = [c for c in range(a.shape[1]) if c not in pivots]
        expected = QQ.zeros(len(free), a.shape[1])
        for idx, fc in enumerate(free):
            expected[idx, fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                expected[idx, pc] = -reduced[r, fc]
        kernel = QQ.right_kernel(a)
        assert QQ.equal(kernel, expected), a.shape
        assert not QQ.matmul(a, kernel.T).any()


@pytest.mark.parametrize("n", [3, VECTOR_MIN_ROWS - 1, VECTOR_MIN_ROWS])
def test_rationals_inverse_matches_oracle(n):
    rng = np.random.default_rng(29 + n)
    while True:
        a = random_q(rng, n, n, 0.05) + QQ.scalar_matrix(2, n)
        if len(expected_rref_q(a)[1]) == n:
            break
    expected = expected_rref_q(np.concatenate([a, QQ.identity(n)], axis=1))[0][:, n:]
    inverse = QQ.inverse(a)
    assert QQ.equal(inverse, expected)
    assert QQ.equal(QQ.matmul(a, inverse), QQ.identity(n))
    with pytest.raises(ValueError):
        QQ.inverse(np.vstack([a[:-1], a[:1] + a[1:2]]))


@pytest.mark.parametrize("count", [2, VECTOR_MIN_ROWS - 2, VECTOR_MIN_ROWS + 4])
def test_rationals_solve_in_span_matches_oracle(count):
    """count + 1 rows in the system: both sides of the row crossover."""
    rng = np.random.default_rng(31 + count)
    width = count + 3
    basis = random_q(rng, count, width, 0.25)
    inside = QQ.matmul(random_q(rng, 1, count, 0.5), basis)[0]
    outside = random_q(rng, 1, width, 0.5)[0]
    for vector in (inside, outside):
        system = np.concatenate([basis.T, vector.reshape(-1, 1)], axis=1)
        reduced, pivots = expected_rref_q(system)
        coeffs = QQ.solve_in_span(basis, vector)
        if count in pivots:
            assert coeffs is None
            continue
        expected = QQ.zeros(1, count)[0]
        for r, pc in enumerate(pivots):
            expected[pc] = reduced[r, -1]
        assert QQ.equal(coeffs, expected)
        assert QQ.equal(QQ.matmul(coeffs.reshape(1, -1), basis)[0], vector)


def q_matmul_shapes():
    """(m, k, n) just below and at the integer crossover, and larger, thin
    and degenerate products."""
    at = -(-Q_INT_MIN_MULTS // 4)
    assert (at - 1) * 4 < Q_INT_MIN_MULTS <= at * 4
    return [(at - 1, 2, 2), (at, 2, 2), (1, 1, 1), (3, 3, 3), (12, 12, 12),
            (1, 40, 1), (30, 4, 30)]


def expected_product_q(a, b):
    return as_q(oracle_matmul_fraction(a.tolist(), b.tolist(), b.shape[1]),
                (a.shape[0], b.shape[1]))


@pytest.mark.parametrize("shape", q_matmul_shapes())
def test_rationals_matmul_matches_oracle(shape):
    """30 seeded products per shape, 210 in all: dense and sparse, with
    denominators up to 4 on the left and up to 30 on the right, and every
    third pair with a zero row on the left and a zero column on the right."""
    rng = np.random.default_rng(37 + sum(shape))
    m, k, n = shape
    for trial in range(30):
        density = (1.0, 0.4, 0.1)[trial % 3]
        a = random_q(rng, m, k, density)
        b = random_q(rng, k, n, density, top=30, max_den=30)
        if trial % 3 == 2:
            a[rng.integers(m)] = Fraction(0)
            b[:, rng.integers(n)] = Fraction(0)
        product = QQ.matmul(a, b)
        assert QQ.equal(product, expected_product_q(a, b)), (shape, trial)
        assert all(type(x) is Fraction for x in product.flat)


@pytest.mark.parametrize("shape", [(0, 5, 3), (4, 0, 3), (4, 5, 0), (0, 0, 0)])
def test_rationals_matmul_zero_size(shape):
    m, k, n = shape
    product = QQ.matmul(QQ.zeros(m, k), QQ.zeros(k, n))
    assert product.shape == (m, n) and QQ.equal(product, QQ.zeros(m, n))


@pytest.mark.parametrize("shape", q_matmul_shapes()[:2] + [(12, 12, 12)])
def test_rationals_matmul_without_a_shared_inner_index(shape):
    """a is nonzero only on the first inner indices, b only on the rest,
    so every term of every entry has a zero factor."""
    rng = np.random.default_rng(43)
    m, k, n = shape
    half = k // 2
    a = QQ.zeros(m, k)
    a[:, :half] = random_q(rng, m, half, 1.0)
    b = QQ.zeros(k, n)
    b[half:] = random_q(rng, k - half, n, 1.0, max_den=30)
    product = QQ.matmul(a, b)
    assert product.shape == (m, n) and QQ.equal(product, QQ.zeros(m, n))
    assert all(type(x) is Fraction for x in product.flat)


def test_rationals_rref_takes_int_entries():
    """Entries may be ints: the echelon form is that of the same Fractions."""
    rng = np.random.default_rng(47)
    ints = rng.integers(-5, 6, size=(6, 8))
    a = QQ.zeros(6, 8)
    a[:] = ints.tolist()
    reduced, pivots = QQ.rref(a)
    expected, expected_pivots = expected_rref_q(QQ.matrix(ints.tolist()))
    assert pivots == expected_pivots and QQ.equal(reduced, expected)
    assert all(type(x) is Fraction for x in reduced.flat)


@pytest.mark.parametrize("n", [1, 4])
def test_rationals_matmul_is_exact_on_numpy_integers(n):
    """Entries read from numpy integers of 2**40 and more, whose products
    overflow int64: n = 1 stays below the integer crossover, n = 4 is past
    it."""
    assert (n ** 3 < Q_INT_MIN_MULTS) == (n == 1)
    ints = np.random.default_rng(53 + n).integers(2**40, 2**41, size=(n, n))
    a = QQ.matrix(list(ints))
    exact = QQ.matrix(ints.tolist())
    assert QQ.equal(QQ.matmul(a, a), expected_product_q(exact, exact))
    assert QQ.scalar_power(ints[0, 0], -2) == Fraction(1, int(ints[0, 0]) ** 2)


def test_rationals_rref_is_exact_on_numpy_integers():
    ints = np.random.default_rng(59).integers(2**40, 2**42, size=(4, 5))
    reduced, pivots = QQ.rref(QQ.matrix(list(ints)))
    expected, expected_pivots = expected_rref_q(QQ.matrix(ints.tolist()))
    assert pivots == expected_pivots and QQ.equal(reduced, expected)


# -- stacks of matrices ----------------------------------------------------------

STACK_FIELDS = [PrimeField(2), PrimeField(101), PrimeField(2**31 - 1), QQ]
STACK_IDS = ["F2", "F101", "F2147483647", "Q"]


def random_entries(rng, field, rows, cols, density):
    if field is QQ:
        return random_q(rng, rows, cols, density)
    return random_mod(rng, field.p, rows, cols, density)


def padded_stack(rng, field, count, rows, cols):
    """count random blocks of at most rows x cols, each zero-padded to
    rows x cols; in every third block of three or more rows the last row
    repeats a combination of the first two, so its rank falls short."""
    stack = field.zeros(count * rows, cols).reshape(count, rows, cols)
    for s in range(count):
        r, c = int(rng.integers(0, rows + 1)), int(rng.integers(0, cols + 1))
        block = random_entries(rng, field, r, c, float(rng.choice([0.3, 0.6, 1.0])))
        if s % 3 == 0 and r >= 3:
            block[-1] = field.reduce(block[0] * 2 + block[1])
        stack[s, :r, :c] = block
    return stack


def oracle_rank(field, matrix):
    rows = matrix.tolist()
    return len(oracle_rref_fraction(rows)[1] if field is QQ else oracle_rref_mod(rows, field.p)[1])


def oracle_product(field, a, b):
    if field is QQ:
        return oracle_matmul_fraction(a.tolist(), b.tolist(), b.shape[1])
    return oracle_matmul_mod(a.tolist(), b.tolist(), field.p, b.shape[1])


@pytest.mark.parametrize("field", STACK_FIELDS, ids=STACK_IDS)
def test_stacked_rank_matches_oracle(field):
    rng = np.random.default_rng(23)
    for count, rows, cols in [(40, 3, 6), (30, 5, 5), (20, 6, 3), (8, 1, 4), (8, 4, 1)]:
        stack = padded_stack(rng, field, count, rows, cols)
        before = stack.copy()
        ranks = field.stacked_rank(stack)
        assert ranks.tolist() == [oracle_rank(field, matrix) for matrix in stack]
        assert np.array_equal(stack, before)


@pytest.mark.parametrize("field", STACK_FIELDS, ids=STACK_IDS)
def test_stacked_matmul_matches_oracle(field):
    rng = np.random.default_rng(29)
    for count, m, k, n in [(30, 3, 3, 3), (20, 2, 5, 4), (10, 4, 1, 2)]:
        a, b = padded_stack(rng, field, count, m, k), padded_stack(rng, field, count, k, n)
        product = field.stacked_matmul(a, b)
        assert product.shape == (count, m, n)
        assert [matrix.tolist() for matrix in product] == [
            oracle_product(field, a[s], b[s]) for s in range(count)]


@pytest.mark.parametrize("field", STACK_FIELDS, ids=STACK_IDS)
@pytest.mark.parametrize("shape", [(0, 3, 4), (0, 0, 0), (4, 0, 3), (4, 3, 0)])
def test_stacked_routines_on_empty_shapes(field, shape):
    count, rows, cols = shape
    stack = field.zeros(count * rows, cols).reshape(shape)
    assert field.stacked_rank(stack).tolist() == [0] * count
    for n in (2, 0):
        product = field.stacked_matmul(stack, field.zeros(count * cols, n).reshape(count, cols, n))
        assert product.shape == (count, rows, n) and not product.any()


def test_stacked_product_is_exact_where_int64_would_overflow():
    """At p = 2^31 - 1 a sum of three products (p - 1)^2 passes 2^63: the
    int64 product wraps to p - 1, the stacked product gives 3."""
    p = 2**31 - 1
    field = PrimeField(p)
    full = np.full((2, 3, 3), p - 1, dtype=np.int64)
    assert 3 * (p - 1) ** 2 >= 2**63
    assert np.array_equal(np.matmul(full, full) % p, np.full((2, 3, 3), p - 1))
    product = field.stacked_matmul(full, full)
    assert product.dtype == np.int64 and np.array_equal(product, np.full((2, 3, 3), 3))
