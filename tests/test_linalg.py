"""Exact linear algebra: kernels, rank-nullity, prepared solves, minimal polynomials."""

from fractions import Fraction

import pytest

from conftest import charpoly, rref, rref_kernel

from hopfkit import CycScalar, Matrix, Poly, kernel_basis, minimal_polynomial
from hopfkit.errors import InconsistentSystemError
from hopfkit.linalg import PreparedSolver, Vector, combine, sparse_kernel_basis
from hopfkit.rng import DeterministicRng


def _add(a, b) -> Vector:
    """a + b entrywise."""
    return combine((1, 1), (a, b), len(a))


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _apply(rows, v) -> list:
    """A v in plain arithmetic, A given by its rows."""
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in rows]


def _matmul(a, b) -> list[list]:
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _matrix_min_poly(rows) -> tuple[Poly, list]:
    """Minimal polynomial of a square matrix: the powers are matrices, their
    coordinates the flattened entries."""
    return minimal_polynomial(
        _identity(len(rows)),
        lambda p: _matmul(p, rows),
        lambda p: Vector.of(x for row in p for x in row),
    )


def _poly_at_matrix(p: Poly, rows) -> list[list]:
    n = len(rows)
    acc = [[Fraction(0)] * n for _ in range(n)]
    power = _identity(n)
    for k in range(p.degree + 1):
        acc = [[x + p[k] * y for x, y in zip(ra, rp)] for ra, rp in zip(acc, power)]
        power = _matmul(power, rows)
    return acc


def _rank(m: Matrix) -> int:
    """The number of pivots of the reference reduced row echelon form of m."""
    return len(rref(m._rows)[1])


def test_kernel_basis_cases():
    assert kernel_basis(Matrix(_identity(3))) == []
    assert len(kernel_basis(Matrix([[0, 0], [0, 0]]))) == 2
    for data in (_identity(4), [[0] * 3] * 2, [[0] * 4], [[1, 2, 0]]):
        assert kernel_basis(Matrix(data)) == rref_kernel(data)
    k = kernel_basis(Matrix([[1, -1]]))
    assert len(k) == 1 and k[0][0] == k[0][1]


def test_sparse_kernel_basis_matches_dense():
    one, two = CycScalar.from_rational(1), CycScalar.from_rational(2)
    # row "b" is twice row "a" summed from two entries, "c" repeats "a" and
    # "d" cancels to zero: the kernel is that of the one row [1, -1, 0]
    entries = [("a", 0, one), ("a", 1, -one), ("b", 0, two), ("b", 1, -one), ("b", 1, -one),
               ("c", 1, -one), ("c", 0, one), ("d", 2, one), ("d", 2, -one)]
    assert sparse_kernel_basis(3, entries) == kernel_basis(Matrix([[1, -1, 0]]))
    assert sparse_kernel_basis(2, []) == kernel_basis(Matrix([[0, 0]]))
    rng = DeterministicRng(11)
    for _ in range(10):
        dense = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(rng.randint(1, 6))]
        dense += dense[: rng.randint(0, len(dense))]
        entries = [((r,), c, CycScalar.from_rational(x)) for r, row in enumerate(dense) for c, x in enumerate(row)]
        assert sparse_kernel_basis(4, entries) == kernel_basis(Matrix(dense))


def test_kernel_vectors_annihilate_and_rank_nullity():
    rng = DeterministicRng(5)
    for _ in range(10):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 5)
        data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        a = Matrix(data)
        kern = kernel_basis(a)
        assert _rank(a) + len(kern) == cols
        for v in kern:
            assert not any(_apply(data, v))


def test_minimal_polynomial_examples():
    m, powers = _matrix_min_poly(_identity(2))
    assert m == Poly([-1, 1]) and powers == [_identity(2)]
    assert Poly(charpoly(_identity(2))) == Poly([1, -2, 1])
    m, powers = _matrix_min_poly([[1, 0], [0, 2]])
    assert m == Poly([2, -3, 1]) == Poly(charpoly([[1, 0], [0, 2]]))
    assert len(powers) == 2
    m, _ = _matrix_min_poly([[0, 1], [0, 0]])
    assert m == Poly([0, 0, 1]) == Poly(charpoly([[0, 1], [0, 0]]))
    # a scalar: the powers of zeta_3 in power-basis coordinates
    z = CycScalar.zeta(3)
    m, powers = minimal_polynomial(CycScalar.from_rational(1), lambda p: p * z,
                                   lambda p: Vector.of(p.lift(3)))
    assert m == Poly([1, 1, 1]) and powers == [1, z]


def test_cayley_hamilton_randomized():
    rng = DeterministicRng(77)
    for _ in range(8):
        n = rng.randint(2, 4)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        c = Poly(charpoly(a))
        m, powers = _matrix_min_poly(a)
        assert c.is_monic() and m.is_monic()
        assert len(powers) == m.degree
        zero = [[0] * n for _ in range(n)]
        assert _poly_at_matrix(c, a) == zero
        assert _poly_at_matrix(m, a) == zero
        # the minimal polynomial divides the characteristic one
        assert (c % m).is_zero()


def test_cyclotomic_entries():
    z = CycScalar.zeta(4)
    a = [[z, 1], [0, z]]
    c = Poly(charpoly(a))
    m, _ = _matrix_min_poly(a)
    # (x - i)^2
    assert c == Poly([-1, -2 * z, 1])
    assert m == c
    kern = kernel_basis(Matrix([[z, 1]]))
    assert len(kern) == 1
    assert (z * kern[0][0] + kern[0][1]).is_zero()


def _random_rational_matrix(rng, rows, cols, zeta=None):
    """Rows of a sparse-ish matrix with denominators up to 4 (pivots are rarely
    1), one zero row and one row that is a combination of two others (so
    elimination fills in and leaves a dependent row); entries pick up powers of
    zeta when one is given."""
    data = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.below(3) else 0
            row.append(x * zeta ** rng.below(3) if zeta is not None and x else x)
        data.append(row)
    if rows >= 3:
        i, j, k = rng.below(rows), rng.below(rows), rng.below(rows)
        data[k] = [x - Fraction(3, 2) * y for x, y in zip(data[i], data[j])]
        data[rng.below(rows)] = [0] * cols
    return data


def _coords(m: Matrix):
    return [[e.coords for e in row] for row in m._rows]


@pytest.mark.parametrize("order", [1, 3])
def test_rref_oracle_on_rational_matrices(order):
    rng = DeterministicRng(400 + order)
    zeta = CycScalar.zeta(order) if order > 1 else None
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        data = _random_rational_matrix(rng, rows, cols, zeta)
        aug_data = [ra + rb for ra, rb in zip(data, _matmul(data, _random_rational_matrix(rng, cols, 2, zeta)))]
        a, aug = Matrix(data), Matrix(aug_data)
        a_before, aug_before = _coords(a), _coords(aug)

        kern = kernel_basis(a)
        assert kern == rref_kernel(data)
        for v in kern:
            assert not any(_apply(data, v))
        assert _rank(a) + len(kern) == cols

        # B = A X lies in the column space of A, so [A | B] has the rank of A
        # and its kernel is two dimensions larger
        aug_kern = kernel_basis(aug)
        assert aug_kern == rref_kernel(aug_data)
        assert _rank(aug) == _rank(a)
        assert len(aug_kern) == len(kern) + 2
        for v in aug_kern:
            assert not any(_apply(aug_data, v))

        # elimination works on copies: the inputs are untouched
        assert _coords(a) == a_before and _coords(aug) == aug_before


def test_solver_residual_is_the_remainder_off_the_pivots():
    # the pivots of (0, 1, 2, 0) and (0, 0, 1, 3) are 1 and 2, so the residual
    # reads the remainder at 0 and 3
    solver = PreparedSolver([Vector.of(c) for c in ((0, 1, 2, 0), (0, 0, 1, 3))])
    assert solver.coordinates(Vector.of((5, 1, 3, 3))) == ((1, 1), (5, 0))
    assert solver.decompose(Vector.of((5, 1, 3, 3))) is None
    assert solver.coordinates(Vector.of((0, 1, 3, 3))) == ((1, 1), (0, 0))


def test_solver_rejects_dependent_columns():
    a = Vector.of((1, 2, 0))
    b = Vector.of((Fraction(1, 2), 3, 1))
    with pytest.raises(InconsistentSystemError, match="linearly dependent"):
        PreparedSolver([a, b, combine([2, Fraction(-1, 3)], [a, b], 3)])
    with pytest.raises(InconsistentSystemError):
        PreparedSolver([a, a])


@pytest.mark.parametrize("order", [1, 3])
def test_solver_coordinates_are_linear(order):
    # a column family with non-0/1 entries (denominators up to 4); both
    # halves of coordinates() are linear, the residual is 0 exactly on the
    # span, and decompose reads the coefficients off when it is
    rng = DeterministicRng(500 + order)
    zeta = CycScalar.zeta(order) if order > 1 else None
    height, n = 7, 3
    families = []
    while len(families) < 8:
        data = _random_rational_matrix(rng, height, n, zeta)
        if _rank(Matrix(data)) == n:
            families.append([Vector.of(row[j] for row in data) for j in range(n)])
    for columns in families:
        solver = PreparedSolver(columns)
        outside = [
            v for v in (Vector.unit(height, k) for k in range(height))
            if solver.decompose(v) is None
        ]
        assert outside  # a 3-dimensional span misses some unit vector
        vectors = [
            combine([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)],
                    columns, height)
            for _ in range(3)
        ] + outside[:2]
        for u in vectors:
            coeffs, residual = solver.coordinates(u)
            assert len(coeffs) == n and len(residual) == height - n
            decomposed = solver.decompose(u)
            assert (decomposed is None) == bool(residual.nz)
            if decomposed is not None:
                assert decomposed == coeffs
                assert combine(coeffs, columns, height) == u
            for v in vectors:
                sum_coeffs, sum_residual = solver.coordinates(_add(u, v))
                v_coeffs, v_residual = solver.coordinates(v)
                assert sum_coeffs == _add(coeffs, v_coeffs)
                assert sum_residual == _add(residual, v_residual)
        for v in outside:
            assert solver.decompose(v) is None
            assert solver.coordinates(v)[1].nz
