"""Exact linear algebra over the cyclotomic scalars.

Vectors are plain tuples of scalars.  Everything runs Gaussian elimination
with exact field arithmetic, so results are equalities, not approximations:
the kernel of a sparsely given system (:func:`sparse_kernel_basis`, which
hands its distinct rows to :func:`kernel_basis` as a shape-checked
:class:`Matrix`), a prepared solver for many right-hand sides over one column
family, and the first linear dependency among the powers of an element
(:func:`minimal_polynomial`).  The systems are dense and eliminated row by
row, touching only each pivot row's support; a D(S4) report (dimension 576)
runs through them.
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


def _rref(data: list[list[CycScalar]]) -> tuple[list[list[CycScalar]], list[int]]:
    """Reduced row echelon form, computed in place: the row lists are the
    caller's to give up (never a Matrix's own rows).  Returns (rows, pivot
    column list)."""
    if not data:
        return data, []
    n_rows, n_cols = len(data), len(data[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if not data[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        prow = data[r]
        # rows r.. are zero left of c, so the pivot row's support starts at c
        support = [j for j in range(c, n_cols) if not prow[j].is_zero()]
        if prow[c] != ONE:
            inv = prow[c].inverse()
            for j in support:
                prow[j] = prow[j] * inv
        pairs = [(j, prow[j]) for j in support]
        for i in range(n_rows):
            row = data[i]
            f = row[c]
            if i != r and not f.is_zero():
                for j, y in pairs:
                    row[j] = row[j] - f * y
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return data, pivots


def kernel_basis(a: Matrix) -> list[Vector]:
    """Exact basis of the right null space {v : A v = 0}."""
    data, pivots = _rref([list(row) for row in a._rows])
    return _rref_kernel(data, pivots, a.cols)


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


def _rref_kernel(data: list[list[CycScalar]], pivots: list[int], n_cols: int) -> list[Vector]:
    """Kernel basis read off an RREF whose first n_cols columns hold the
    matrix (one vector per free column)."""
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis: list[Vector] = []
    for fc in free:
        v = [ZERO] * n_cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -data[r][fc]
        basis.append(tuple(v))
    return basis


class PreparedSolver:
    """RREF of a fixed tall matrix, reused to decompose many right-hand sides
    over the same column family (e.g. coordinates in a character basis)."""

    def __init__(self, columns: Sequence[Sequence]):
        cols = [[as_scalar(e) for e in c] for c in columns]
        self.n_cols = len(cols)
        self.height = len(cols[0]) if cols else 0
        # rref of [C | I] yields [R | E] with E C = R; the C-block pivots come
        # first because the C columns come first
        aug = [
            [cols[j][i] for j in range(self.n_cols)] + list(unit_vector(self.height, i))
            for i in range(self.height)
        ]
        data, pivots = _rref(aug)
        # independent columns make every C column a pivot, so E-block row j
        # (j < n_cols) gives coefficient j and the rows below give the residual
        if sum(p < self.n_cols for p in pivots) != self.n_cols:
            raise InconsistentSystemError("columns are linearly dependent")
        # the nonzero (i, e) of each E-block row; E is sparse for the 0/1 families
        n = self.n_cols
        self._erows = [
            tuple((i, e) for i, e in enumerate(row[n:]) if not e.is_zero()) for row in data
        ]

    def coordinates(self, v: Sequence) -> tuple[Vector, Vector]:
        """(coeffs, residual), both linear in v: the residual is the E-block
        rows below the pivots (the zero rows of R), so v lies in the column
        span exactly when the residual is 0, and then sum_j coeffs_j *
        column_j == v."""
        w = [as_scalar(e) for e in v]
        out = []
        for erow in self._erows:
            acc = ZERO
            for i, e in erow:
                x = w[i]
                if not x.is_zero():
                    acc = acc + e * x
            out.append(acc)
        return tuple(out[:self.n_cols]), tuple(out[self.n_cols:])

    def decompose(self, v: Sequence) -> Vector | None:
        """Coefficients c with sum_j c_j * column_j == v, or None if v is
        outside the span."""
        coeffs, residual = self.coordinates(v)
        return None if any(residual) else coeffs


class IncrementalDependency:
    """Feed vectors one at a time; detect the first linear dependency.

    ``add`` returns None while the fed vectors stay independent; at the first
    dependent vector it returns coefficients c with v_k + sum c_i v_i = 0
    (monic-polynomial layout for minimal-polynomial searches).
    """

    def __init__(self) -> None:
        self._rows: list[list[CycScalar]] = []
        self._combos: list[list[CycScalar]] = []
        self._pivots: list[int] = []
        self._count = 0

    def add(self, vec: Sequence[CycScalar]) -> list[CycScalar] | None:
        v = list(vec)
        combo = [ZERO] * self._count + [ONE]
        for row, rcombo, piv in zip(self._rows, self._combos, self._pivots):
            f = v[piv]
            if not f.is_zero():
                v = [a - f * b for a, b in zip(v, row)]
                for i, c in enumerate(rcombo):
                    if not c.is_zero():
                        combo[i] = combo[i] - f * c
        piv = next((i for i, c in enumerate(v) if not c.is_zero()), None)
        self._count += 1
        if piv is None:
            # 0 = sum combo[j] v_j with combo[k] = 1, so v_k + sum_{j<k} combo[j] v_j = 0
            return combo[:-1]
        inv = v[piv].inverse()
        self._rows.append([c * inv for c in v])
        self._combos.append([c * inv for c in combo])
        self._pivots.append(piv)
        return None


def minimal_polynomial(one, step: Callable, coords: Callable = lambda p: p) -> tuple[Poly, list]:
    """Monic minimal polynomial m of an element x, from the first linear
    dependency among the coordinate vectors of its powers 1, x, x^2, ...:
    ``one`` is x^0, ``step(p)`` is p x, and ``coords(p)`` is the coordinate
    vector of p (p itself by default).  Returns m together with the
    independent powers 1, x, ..., x^(deg m - 1).  For coordinate vectors of
    length n a dependency appears by x^n at the latest."""
    tracker = IncrementalDependency()
    powers = []
    power = one
    while (dep := tracker.add(coords(power))) is None:
        powers.append(power)
        power = step(power)
    return Poly(list(dep) + [ONE]), powers
