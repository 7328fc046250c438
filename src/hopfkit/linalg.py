"""Exact linear algebra over the cyclotomic scalars.

Every element of H or H* is a :class:`Vector`, stored by its support: ``nz``
maps the index of each nonzero coordinate to its scalar and holds no zero, so
each loop over a vector walks its support, not its length.  Read as a
sequence it is dense, so code that only reads entries, such as a formatter,
sees the coordinates.

Everything runs Gaussian elimination with exact field arithmetic, so results
are equalities, not approximations.  There is one elimination,
:class:`IncrementalDependency`, which takes vectors in order and keeps each
one independent of the earlier ones as an echelon row, and it has three uses:
every dependency among the columns of a matrix is a kernel vector
(:func:`sparse_kernel_basis`, which :func:`kernel_basis` feeds a dense
``Matrix``); the first dependency among the powers of an element gives its
minimal polynomial (:func:`minimal_polynomial`); and reduction by the kept
rows of a fixed column family gives coordinates over it
(:class:`PreparedSolver`).  Each reduction touches only the supports of the
vector and of the kept rows; a D(S4) report (dimension 576) runs through it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .errors import InconsistentSystemError
from .polys import Poly
from .scalars import CycScalar, ONE, ZERO, as_scalar


class Vector:
    """A coordinate vector of length ``dim`` stored by its support: ``nz`` maps
    the index of each nonzero entry to that scalar and holds no zero.  As a
    sequence it reads densely (``v[i]`` is ZERO off the support), and it
    equals a Vector or any sequence with the same entries.  Never mutated."""

    __slots__ = ("dim", "nz")

    def __init__(self, dim: int, nz: dict[int, CycScalar]):
        # trusted: every key lies in range(dim) and no value is zero
        self.dim = dim
        self.nz = nz

    @classmethod
    def of(cls, entries: Iterable) -> "Vector":
        """The vector with the given dense entries (ints, Fractions or scalars)."""
        dense = [as_scalar(x) for x in entries]
        return cls(len(dense), {i: x for i, x in enumerate(dense) if x})

    @classmethod
    def unit(cls, dim: int, k: int) -> "Vector":
        return cls(dim, {k: ONE})

    @classmethod
    def from_terms(cls, dim: int, terms: Iterable[tuple[int, CycScalar]]) -> "Vector":
        """The sum of the scalars t placed at the indices k of the (k, t) terms."""
        acc: dict[int, CycScalar] = {}
        for k, t in terms:
            cur = acc.get(k)
            acc[k] = t if cur is None else cur + t
        return cls(dim, {k: x for k, x in acc.items() if x})

    def scale(self, s) -> "Vector":
        s = as_scalar(s)
        return Vector(self.dim, {i: x * s for i, x in self.nz.items()} if s else {})

    def __len__(self) -> int:
        return self.dim

    def __getitem__(self, i: int) -> CycScalar:
        if not -self.dim <= i < self.dim:
            raise IndexError("Vector index out of range")
        return self.nz.get(i % self.dim, ZERO)

    def __iter__(self) -> Iterator[CycScalar]:
        nz = self.nz
        return (nz.get(i, ZERO) for i in range(self.dim))

    def __eq__(self, other) -> bool:
        if isinstance(other, Vector):
            return self.dim == other.dim and self.nz == other.nz
        if isinstance(other, Sequence):
            return len(other) == self.dim and all(x == y for x, y in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # scalars are unhashable too

    def __repr__(self) -> str:
        return f"Vector({self.dim}, {self.nz!r})"


def combine(coeffs: Iterable, vectors: Iterable[Vector], dim: int) -> Vector:
    """sum_k coeffs[k] vectors[k], a vector of length dim; coefficients may be
    ints or scalars."""
    terms = ((a, c * x) for c, vec in zip(coeffs, vectors) if c for a, x in vec.nz.items())
    return Vector.from_terms(dim, terms)


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
    """Exact basis of the right null space {v : A v = 0} of a dense matrix:
    :func:`sparse_kernel_basis` of its nonzero entries."""
    cells = ((r, k, x) for r, row in enumerate(a._rows) for k, x in enumerate(row))
    return sparse_kernel_basis(a.cols, cells)


def sparse_kernel_basis(n_cols: int, entries: Iterable[tuple[object, int, CycScalar]]) -> list[Vector]:
    """Exact basis of {v : A v = 0} for the A whose rows are given sparsely as
    (row key, column, coefficient) entries, summed per cell: one vector per
    column that depends on the columns left of it, where c_k = sum_j x_j c_j
    gives (-x_0, ..., -x_(k-1), 1, 0, ..., 0).  Row operations keep every
    relation among columns, so these are the free columns of the reduced row
    echelon form and the vectors read off it.  Rows are numbered in row-key
    order; zero and repeated rows are dropped, which leaves the row space,
    hence the kernel basis, unchanged.  The columns go to the reducer as
    sparse vectors."""
    cells: dict[object, dict[int, CycScalar]] = {}
    for key, col, c in entries:
        row = cells.setdefault(key, {})
        cur = row.get(col)
        row[col] = c if cur is None else cur + c
    columns: list[dict[int, CycScalar]] = [{} for _ in range(n_cols)]
    seen: set[tuple] = set()
    for key in sorted(cells):
        support = [(k, c) for k, c in sorted(cells[key].items()) if c]
        signature = tuple((k, c.key()) for k, c in support)
        if support and signature not in seen:
            for k, c in support:
                columns[k][len(seen)] = c
            seen.add(signature)
    echelon = IncrementalDependency()
    basis: list[Vector] = []
    for k, column in enumerate(columns):
        remainder, combo = echelon._reduce(Vector(len(seen), column))
        if not echelon._store(remainder, combo):
            nz = {j: -x for j, x in combo.nz.items()}
            nz[k] = ONE
            basis.append(Vector(n_cols, nz))
    return basis


class IncrementalDependency:
    """Feed vectors one at a time; detect the first linear dependency.

    ``add`` returns None while the fed vectors stay independent; at the first
    dependent vector it returns coefficients c with v_k + sum c_i v_i = 0
    (monic-polynomial layout for minimal-polynomial searches).  Each kept
    echelon row is its pivot (least index of its support, where it is 1), its
    support right of the pivot and the support of the combination of fed
    vectors it equals; a row is 0 at the pivots of the rows kept before it.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[int, tuple, tuple]] = []
        self._count = 0

    def _reduce(self, vec: Vector) -> tuple[Vector, Vector]:
        """(remainder, combination), linear in vec: vec = remainder + sum_j
        combination_j v_j over the fed v_j, and subtracting the rows in order
        leaves the remainder 0 at every pivot, so 0 exactly on their span."""
        v = dict(vec.nz)
        combo: dict[int, CycScalar] = {}
        for piv, support, rcombo in self._rows:
            f = v.pop(piv, None)
            if f is not None:
                for j, x in support:
                    cur = v.get(j)
                    if cur is None:
                        v[j] = -(f * x)
                    elif diff := cur - f * x:
                        v[j] = diff
                    else:
                        del v[j]
                for i, c in rcombo:
                    cur = combo.get(i)
                    combo[i] = f * c if cur is None else cur + f * c
        return Vector(vec.dim, v), Vector(self._count, {i: c for i, c in combo.items() if c})

    def _store(self, remainder: Vector, combo: Vector) -> bool:
        """Count the vector that ``_reduce`` gave (remainder, combo) as fed and
        keep its remainder as a row; False when the remainder is 0."""
        self._count += 1
        if not remainder.nz:
            return False
        piv = min(remainder.nz)
        inv = remainder.nz[piv].inverse()
        # remainder = v_k - sum_j combo_j v_j with k = combo.dim, scaled to 1 at the pivot
        support = tuple((j, x * inv) for j, x in remainder.nz.items() if j != piv)
        rcombo = tuple((i, -c * inv) for i, c in combo.nz.items()) + ((combo.dim, inv),)
        self._rows.append((piv, support, rcombo))
        return True

    def add(self, vec: Vector) -> list[CycScalar] | None:
        remainder, combo = self._reduce(vec)
        if self._store(remainder, combo):
            return None
        return [-c for c in combo]  # 0 = v_k - sum_{j<k} combo_j v_j


class PreparedSolver:
    """Echelon rows of a fixed family of independent columns, reused to
    decompose many right-hand sides over it (e.g. character coordinates)."""

    def __init__(self, columns: Sequence[Vector]):
        self.n_cols = len(columns)
        self.height = len(columns[0]) if columns else 0
        self._echelon = IncrementalDependency()
        for column in columns:
            if not self._echelon._store(*self._echelon._reduce(column)):
                raise InconsistentSystemError("columns are linearly dependent")
        pivots = {piv for piv, _, _ in self._echelon._rows}
        off_pivot = [i for i in range(self.height) if i not in pivots]
        self._off_pivot = {i: t for t, i in enumerate(off_pivot)}  # index -> place in the residual

    def coordinates(self, v: Vector) -> tuple[Vector, Vector]:
        """(coeffs, residual), both linear in v: v = sum_j coeffs_j *
        column_j + remainder, and the residual is the remainder off the
        pivots (length height - n_cols), so v lies in the column span
        exactly when the residual is 0."""
        remainder, coeffs = self._echelon._reduce(v)
        off = self._off_pivot
        return coeffs, Vector(len(off), {off[i]: x for i, x in remainder.nz.items()})

    def decompose(self, v: Vector) -> Vector | None:
        """Coefficients c with sum_j c_j * column_j == v, or None if v is
        outside the span."""
        coeffs, residual = self.coordinates(v)
        return None if residual.nz else coeffs


def minimal_polynomial(one, step: Callable, coords: Callable = lambda p: p) -> tuple[Poly, list]:
    """Monic minimal polynomial m of an element x, from the first linear
    dependency among the coordinate vectors of its powers 1, x, x^2, ...:
    ``one`` is x^0, ``step(p)`` is p x, and ``coords(p)`` is the coordinate
    Vector of p (p itself by default).  Returns m with the independent powers
    1, x, ..., x^(deg m - 1).  For coordinate vectors of length n a
    dependency appears by x^n at the latest."""
    tracker = IncrementalDependency()
    powers = []
    power = one
    while (dep := tracker.add(coords(power))) is None:
        powers.append(power)
        power = step(power)
    return Poly(list(dep) + [ONE]), powers
