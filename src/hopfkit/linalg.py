"""Exact linear algebra over the cyclotomic scalars.

Vectors are plain tuples of scalars.  Everything runs Gaussian elimination
with exact field arithmetic, so results are equalities, not approximations.
There is one elimination, :class:`IncrementalDependency`, which takes vectors
in order and keeps each one independent of the earlier ones as an echelon
row, and it has three uses: every dependency among the columns of a matrix
is a kernel vector (:func:`kernel_basis`, behind :func:`sparse_kernel_basis`);
the first dependency among the powers of an element gives its minimal
polynomial (:func:`minimal_polynomial`); and reduction by the kept rows of a
fixed column family gives coordinates over it (:class:`PreparedSolver`).
Each reduction touches only each kept row's support; a D(S4) report
(dimension 576) runs through it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import InconsistentSystemError
from .polys import Poly
from .scalars import CycScalar, ONE, ZERO, as_scalar

Vector = tuple[CycScalar, ...]


def vec_scale(a: Sequence[CycScalar], s) -> Vector:
    s = as_scalar(s)
    return tuple(x * s for x in a)

def vec_is_zero(a: Sequence[CycScalar]) -> bool:
    return all(x.is_zero() for x in a)

def vec_eq(a: Sequence[CycScalar], b: Sequence[CycScalar]) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))

def combine(coeffs: Sequence, vectors: Sequence[Sequence[CycScalar]], dim: int) -> Vector:
    """sum_k coeffs[k] vectors[k], a vector of length dim; coefficients may be
    ints or scalars."""
    out = [ZERO] * dim
    for c, vec in zip(coeffs, vectors):
        if c:
            for a, x in enumerate(vec):
                if x:
                    out[a] = out[a] + c * x
    return tuple(out)

def zero_vector(n: int) -> Vector:
    return (ZERO,) * n

def unit_vector(n: int, k: int) -> Vector:
    return tuple(ONE if i == k else ZERO for i in range(n))


class Matrix:
    """Dense row-major matrix of exact scalars, checked for shape."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: Iterable[Iterable]):
        data = [[as_scalar(e) for e in row] for row in rows]
        self._rows = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")


def kernel_basis(a: Matrix) -> list[Vector]:
    """Exact basis of the right null space {v : A v = 0}, one vector per
    column that depends on the columns left of it: the column c_k =
    sum_j x_j c_j gives (-x_0, ..., -x_(k-1), 1, 0, ..., 0).  Row operations
    keep every relation among columns, so these are the free columns of the
    reduced row echelon form and the vectors read off it."""
    echelon = IncrementalDependency()
    basis: list[Vector] = []
    for k, column in enumerate(zip(*a._rows)):
        remainder, combo = echelon._reduce(column)
        if not echelon._store(remainder, combo):
            basis.append(tuple(-x for x in combo) + (ONE,) + (ZERO,) * (a.cols - k - 1))
    return basis


def sparse_kernel_basis(n_cols: int, entries: Iterable[tuple[object, int, CycScalar]]) -> list[Vector]:
    """Exact basis of {v : A v = 0} for the A whose rows are given sparsely as
    (row key, column, coefficient) entries, summed per cell.  Rows come in
    row-key order; zero and repeated rows are dropped before the elimination,
    which leaves the row space, hence the reduced form and the kernel basis,
    unchanged."""
    cells: dict[object, dict[int, CycScalar]] = {}
    for key, col, c in entries:
        row = cells.setdefault(key, {})
        cur = row.get(col)
        row[col] = c if cur is None else cur + c
    rows: list[list[CycScalar]] = []
    seen: set[tuple] = set()
    for key in sorted(cells):
        support = [(k, c) for k, c in sorted(cells[key].items()) if not c.is_zero()]
        signature = tuple((k, c.key()) for k, c in support)
        if support and signature not in seen:
            seen.add(signature)
            row = [ZERO] * n_cols
            for k, c in support:
                row[k] = c
            rows.append(row)
    if not rows:
        return [unit_vector(n_cols, k) for k in range(n_cols)]
    return kernel_basis(Matrix(rows))


class IncrementalDependency:
    """Feed vectors one at a time; detect the first linear dependency.

    ``add`` returns None while the fed vectors stay independent; at the first
    dependent vector it returns coefficients c with v_k + sum c_i v_i = 0
    (monic-polynomial layout for minimal-polynomial searches).  Each kept
    echelon row is its pivot (first nonzero index, where it is 1), its support
    right of the pivot and the support of the combination of fed vectors it
    equals; a row is 0 at the pivots of the rows kept before it.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[int, tuple, tuple]] = []
        self._count = 0

    def _reduce(self, vec: Sequence) -> tuple[list[CycScalar], list[CycScalar]]:
        """(remainder, combination), linear in vec: vec = remainder + sum_j
        combination_j v_j over the fed v_j, and subtracting the rows in order
        leaves the remainder 0 at every pivot, so 0 exactly on their span."""
        v = [as_scalar(x) for x in vec]
        combo = [ZERO] * self._count
        for piv, support, rcombo in self._rows:
            f = v[piv]
            if not f.is_zero():
                v[piv] = ZERO
                for j, x in support:
                    v[j] = v[j] - f * x
                for i, c in rcombo:
                    combo[i] = combo[i] + f * c
        return v, combo

    def _store(self, remainder: list[CycScalar], combo: list[CycScalar]) -> bool:
        """Count the vector that ``_reduce`` gave (remainder, combo) as fed and
        keep its remainder as a row; False when the remainder is 0."""
        piv = next((j for j, x in enumerate(remainder) if not x.is_zero()), None)
        self._count += 1
        if piv is None:
            return False
        inv = remainder[piv].inverse()
        # remainder = v_k - sum_j combo_j v_j with k = len(combo), scaled to 1 at the pivot
        support = tuple((j, x * inv) for j, x in enumerate(remainder) if j > piv and not x.is_zero())
        rcombo = [(i, -c * inv) for i, c in enumerate(combo) if not c.is_zero()] + [(len(combo), inv)]
        self._rows.append((piv, support, tuple(rcombo)))
        return True

    def add(self, vec: Sequence) -> list[CycScalar] | None:
        remainder, combo = self._reduce(vec)
        if self._store(remainder, combo):
            return None
        return [-c for c in combo]  # 0 = v_k - sum_{j<k} combo_j v_j


class PreparedSolver:
    """Echelon rows of a fixed family of independent columns, reused to
    decompose many right-hand sides over it (e.g. character coordinates)."""

    def __init__(self, columns: Sequence[Sequence]):
        self.n_cols = len(columns)
        self.height = len(columns[0]) if columns else 0
        self._echelon = IncrementalDependency()
        for column in columns:
            if not self._echelon._store(*self._echelon._reduce(column)):
                raise InconsistentSystemError("columns are linearly dependent")
        pivots = {piv for piv, _, _ in self._echelon._rows}
        self._off_pivot = [i for i in range(self.height) if i not in pivots]

    def coordinates(self, v: Sequence) -> tuple[Vector, Vector]:
        """(coeffs, residual), both linear in v: v = sum_j coeffs_j *
        column_j + remainder, and the residual is the remainder off the
        pivots (length height - n_cols), so v lies in the column span
        exactly when the residual is 0."""
        remainder, coeffs = self._echelon._reduce(v)
        return tuple(coeffs), tuple(remainder[i] for i in self._off_pivot)

    def decompose(self, v: Sequence) -> Vector | None:
        """Coefficients c with sum_j c_j * column_j == v, or None if v is
        outside the span."""
        coeffs, residual = self.coordinates(v)
        return None if any(residual) else coeffs


def minimal_polynomial(one, step: Callable, coords: Callable = lambda p: p) -> tuple[Poly, list]:
    """Monic minimal polynomial m of an element x, from the first linear
    dependency among the coordinate vectors of its powers 1, x, x^2, ...:
    ``one`` is x^0, ``step(p)`` is p x, and ``coords(p)`` is the coordinate
    vector of p, with int, Fraction or scalar entries (p itself by default).
    Returns m with the independent powers 1, x, ..., x^(deg m - 1).  For
    coordinate vectors of length n a dependency appears by x^n at the latest."""
    tracker = IncrementalDependency()
    powers = []
    power = one
    while (dep := tracker.add(coords(power))) is None:
        powers.append(power)
        power = step(power)
    return Poly(list(dep) + [ONE]), powers
