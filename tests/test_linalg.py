"""Exact linear algebra: solving, kernels, characteristic/minimal polynomials."""

from fractions import Fraction

import pytest

from hopfkit import CycScalar, Matrix, Poly, char_min_poly, kernel_basis, rank, rref_solve, trace
from hopfkit.linalg import (
    PreparedSolver,
    combine,
    same_span,
    sparse_kernel_basis,
    unit_vector,
    vec_add,
    vec_is_zero,
)
from hopfkit.rng import DeterministicRng


def test_rref_solve_identity():
    sol, kern = rref_solve(Matrix.identity(2), Matrix([[1], [2]]))
    assert sol.column(0) == (CycScalar.from_rational(1), CycScalar.from_rational(2))
    assert kern == []


def test_rref_solve_inconsistent():
    assert rref_solve(Matrix([[1, 1], [2, 2]]), Matrix([[1], [3]])) is None


def test_rref_solve_underdetermined():
    res = rref_solve(Matrix([[1, 1], [2, 2]]), Matrix([[1], [2]]))
    assert res is not None
    sol, kern = res
    assert len(kern) == 1
    # substituting the particular solution back reproduces B exactly
    a = Matrix([[1, 1], [2, 2]])
    assert a.apply(sol.column(0)) == (CycScalar.from_rational(1), CycScalar.from_rational(2))


def test_kernel_basis_cases():
    assert kernel_basis(Matrix.identity(3)) == []
    assert len(kernel_basis(Matrix.zeros(2, 2))) == 2
    k = kernel_basis(Matrix([[1, -1]]))
    assert len(k) == 1 and k[0][0] == k[0][1]


def test_sparse_kernel_basis_matches_dense():
    one, two = CycScalar.from_rational(1), CycScalar.from_rational(2)
    # row "b" is twice row "a" summed from two entries, "c" repeats "a" and
    # "d" cancels to zero: the kernel is that of the one row [1, -1, 0]
    entries = [("a", 0, one), ("a", 1, -one), ("b", 0, two), ("b", 1, -one), ("b", 1, -one),
               ("c", 1, -one), ("c", 0, one), ("d", 2, one), ("d", 2, -one)]
    assert sparse_kernel_basis(3, entries) == kernel_basis(Matrix([[1, -1, 0]]))
    assert sparse_kernel_basis(2, []) == kernel_basis(Matrix.zeros(1, 2))
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
        a = Matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        kern = kernel_basis(a)
        assert rank(a) + len(kern) == cols
        for v in kern:
            assert vec_is_zero(a.apply(v))


def test_char_min_poly_examples():
    c, m = char_min_poly(Matrix.identity(2))
    assert c == Poly([1, -2, 1]) and m == Poly([-1, 1])
    c, m = char_min_poly(Matrix([[1, 0], [0, 2]]))
    assert c == Poly([2, -3, 1]) and m == c
    c, m = char_min_poly(Matrix([[0, 1], [0, 0]]))
    assert c == Poly([0, 0, 1]) and m == c


def test_cayley_hamilton_randomized():
    rng = DeterministicRng(77)
    for _ in range(8):
        n = rng.randint(2, 4)
        a = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        c, m = char_min_poly(a)
        assert c.is_monic() and m.is_monic()

        def poly_at_matrix(p: Poly) -> Matrix:
            acc = Matrix.zeros(n, n)
            power = Matrix.identity(n)
            for k in range(p.degree + 1):
                acc = acc + p[k] * power
                power = power * a
            return acc

        assert poly_at_matrix(c) == Matrix.zeros(n, n)
        assert poly_at_matrix(m) == Matrix.zeros(n, n)
        # the minimal polynomial divides the characteristic one
        assert (c % m).is_zero()


def test_trace_examples():
    assert trace(Matrix.identity(5)) == 5
    z = CycScalar.zeta(3)
    assert trace(Matrix([[z, 0], [0, z * z]])) == -1
    assert trace(Matrix.zeros(3, 3)) == 0


def test_trace_requires_square():
    with pytest.raises(ValueError):
        trace(Matrix.zeros(2, 3))


def test_same_span():
    assert same_span([[1, 0], [0, 1]], [[1, 1], [1, -1]])
    assert not same_span([[1, 0]], [[0, 1]])
    assert not same_span([[1, 0]], [[1, 0], [0, 1]])


def test_cyclotomic_entries():
    z = CycScalar.zeta(4)
    a = Matrix([[z, 1], [0, z]])
    c, m = char_min_poly(a)
    # (x - i)^2
    assert c == Poly([-1, -2 * z, 1])
    assert m == c
    kern = kernel_basis(Matrix([[z, 1]]))
    assert len(kern) == 1
    assert (z * kern[0][0] + kern[0][1]).is_zero()


def _random_rational_matrix(rng, rows, cols, zeta=None):
    """Sparse-ish entries with denominators up to 4 (pivots are rarely 1), one
    zero row and one row that is a combination of two others (so elimination
    fills in and leaves a dependent row); entries pick up powers of zeta when
    one is given."""
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
    return Matrix(data)


def _coords(m: Matrix):
    return [[m[i, j].coords for j in range(m.cols)] for i in range(m.rows)]


@pytest.mark.parametrize("order", [1, 3])
def test_rref_oracle_on_rational_matrices(order):
    rng = DeterministicRng(400 + order)
    zeta = CycScalar.zeta(order) if order > 1 else None
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        a = _random_rational_matrix(rng, rows, cols, zeta)
        x = _random_rational_matrix(rng, cols, 2, zeta)
        b = a * x
        a_before, b_before = _coords(a), _coords(b)

        kern = kernel_basis(a)
        for v in kern:
            assert vec_is_zero(a.apply(v))
        assert rank(a) + len(kern) == cols

        res = rref_solve(a, b)
        assert res is not None
        sol, kern_solve = res
        assert a * sol == b
        assert len(kern_solve) == len(kern)

        # elimination works on copies: the inputs are untouched
        assert _coords(a) == a_before and _coords(b) == b_before


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
        m = _random_rational_matrix(rng, height, n, zeta)
        if rank(m) == n:
            families.append([m.column(j) for j in range(n)])
    for columns in families:
        solver = PreparedSolver(columns)
        outside = [
            v for v in (unit_vector(height, k) for k in range(height))
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
            assert (decomposed is not None) == vec_is_zero(residual)
            if decomposed is not None:
                assert decomposed == coeffs
                assert combine(coeffs, columns, height) == u
            for v in vectors:
                sum_coeffs, sum_residual = solver.coordinates(vec_add(u, v))
                v_coeffs, v_residual = solver.coordinates(v)
                assert sum_coeffs == vec_add(coeffs, v_coeffs)
                assert sum_residual == vec_add(residual, v_residual)
        for v in outside:
            assert solver.decompose(v) is None
            assert not vec_is_zero(solver.coordinates(v)[1])
