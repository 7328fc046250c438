"""Exact dense linear algebra over the cyclotomic scalars.

Matrices are dense and immutable-by-convention; vectors are plain tuples of
scalars.  Everything runs Gaussian elimination with exact field arithmetic, so
results are equalities, not approximations.  Dimensions stay at desk scale
(structure tensors of algebras of dimension <= 64), which keeps dense
elimination comfortably fast.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InconsistentSystemError
from .polys import Poly
from .scalars import CycScalar, ONE, ZERO, as_scalar

Vector = tuple[CycScalar, ...]


def vector(entries: Iterable) -> Vector:
    return tuple(as_scalar(e) for e in entries)


def vec_add(a: Sequence[CycScalar], b: Sequence[CycScalar]) -> Vector:
    return tuple(x + y for x, y in zip(a, b))

def vec_sub(a: Sequence[CycScalar], b: Sequence[CycScalar]) -> Vector:
    return tuple(x - y for x, y in zip(a, b))

def vec_scale(a: Sequence[CycScalar], s) -> Vector:
    s = as_scalar(s)
    return tuple(x * s for x in a)

def vec_is_zero(a: Sequence[CycScalar]) -> bool:
    return all(x.is_zero() for x in a)

def vec_eq(a: Sequence[CycScalar], b: Sequence[CycScalar]) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))

def zero_vector(n: int) -> Vector:
    return (ZERO,) * n

def unit_vector(n: int, k: int) -> Vector:
    return tuple(ONE if i == k else ZERO for i in range(n))


class Matrix:
    """Dense row-major matrix of exact scalars."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: Iterable[Iterable]):
        data = [[as_scalar(e) for e in row] for row in rows]
        self._rows = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        cols = [list(c) for c in columns]
        if not cols:
            return cls.zeros(0, 0)
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    @property
    def entries(self) -> Vector:
        """All entries, row-major."""
        return tuple(e for row in self._rows for e in row)

    def row(self, i: int) -> Vector:
        return tuple(self._rows[i])

    def column(self, j: int) -> Vector:
        return tuple(self._rows[i][j] for i in range(self.rows))

    def __getitem__(self, key: tuple[int, int]) -> CycScalar:
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(vec_eq(a, b) for a, b in zip(self._rows, other._rows))
        )

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix([vec_add(a, b) for a, b in zip(self._rows, other._rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix([vec_sub(a, b) for a, b in zip(self._rows, other._rows)])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            out = []
            for i in range(self.rows):
                arow = self._rows[i]
                orow = [ZERO] * other.cols
                for k in range(self.cols):
                    a = arow[k]
                    if a.is_zero():
                        continue
                    brow = other._rows[k]
                    for j in range(other.cols):
                        b = brow[j]
                        if not b.is_zero():
                            orow[j] = orow[j] + a * b
                out.append(orow)
            return Matrix(out)
        s = as_scalar(other)
        return Matrix([[e * s for e in row] for row in self._rows])

    __rmul__ = __mul__

    def apply(self, v: Sequence[CycScalar]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        out = [ZERO] * self.rows
        for i, row in enumerate(self._rows):
            acc = ZERO
            for a, x in zip(row, v):
                if not (a.is_zero() or x.is_zero()):
                    acc = acc + a * x
            out[i] = acc
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix([[self._rows[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self._rows)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def trace(a: Matrix) -> CycScalar:
    """Sum of diagonal entries."""
    if not a.is_square():
        raise ValueError("trace needs a square matrix")
    acc = ZERO
    for i in range(a.rows):
        acc = acc + a[i, i]
    return acc


def _rref(data: list[list[CycScalar]]) -> tuple[list[list[CycScalar]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
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
        inv = data[r][c].inverse()
        data[r] = [e * inv for e in data[r]]
        prow = data[r]
        for i in range(n_rows):
            if i == r:
                continue
            f = data[i][c]
            if not f.is_zero():
                row = data[i]
                data[i] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return data, pivots


def rank(a: Matrix) -> int:
    _, pivots = _rref([list(row) for row in a._rows])
    return len(pivots)


def kernel_basis(a: Matrix) -> list[Vector]:
    """Exact basis of the right null space {v : A v = 0}."""
    data, pivots = _rref([list(row) for row in a._rows])
    n_cols = a.cols
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


def rref_solve(a: Matrix, b: Matrix) -> tuple[Matrix, list[Vector]] | None:
    """Solve A X = B exactly.

    Returns one particular solution together with a kernel basis of A
    (every solution is the particular one plus a kernel combination), or
    ``None`` when the system is inconsistent.
    """
    if a.rows != b.rows:
        raise ValueError("A and B must have the same number of rows")
    aug = [list(arow) + list(brow) for arow, brow in zip(a._rows, b._rows)]
    data, pivots = _rref(aug)
    n = a.cols
    # any pivot falling in the B block signals inconsistency
    for pc in pivots:
        if pc >= n:
            return None
    sol = [[ZERO] * b.cols for _ in range(n)]
    for r, pc in enumerate(pivots):
        for j in range(b.cols):
            sol[pc][j] = data[r][n + j]
    kern = kernel_basis(a)
    return Matrix(sol), kern


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
        self._cpivots = [p for p in pivots if p < self.n_cols]
        if len(self._cpivots) != self.n_cols:
            raise InconsistentSystemError("columns are linearly dependent")
        # the nonzero (i, e) of each E-block row; E is sparse for the 0/1 families
        n = self.n_cols
        self._erows = [
            tuple((i, e) for i, e in enumerate(row[n:]) if not e.is_zero()) for row in data
        ]

    def decompose(self, v: Sequence) -> Vector | None:
        """Coefficients c with sum_j c_j * column_j == v, or None if v is
        outside the span."""
        w = [as_scalar(e) for e in v]
        coeffs = [ZERO] * self.n_cols
        for r, erow in enumerate(self._erows):
            acc = ZERO
            for i, e in erow:
                x = w[i]
                if not x.is_zero():
                    acc = acc + e * x
            if r < len(self._cpivots):
                coeffs[self._cpivots[r]] = acc
            elif not acc.is_zero():
                # zero rows of R witness membership in the column span
                return None
        return tuple(coeffs)


def same_span(rows_a: Sequence[Sequence[CycScalar]], rows_b: Sequence[Sequence[CycScalar]]) -> bool:
    """Exact subspace equality of two row families."""
    a = Matrix(list(rows_a)) if rows_a else None
    b = Matrix(list(rows_b)) if rows_b else None
    if a is None or b is None:
        return (a is None or rank(a) == 0) and (b is None or rank(b) == 0)
    ra, rb = rank(a), rank(b)
    if ra != rb:
        return False
    both = Matrix(list(rows_a) + list(rows_b))
    return rank(both) == ra


def char_min_poly(a: Matrix) -> tuple[Poly, Poly]:
    """Characteristic and minimal polynomial of a square matrix, both monic.

    The characteristic polynomial comes from the Faddeev-LeVerrier recurrence
    (exact in characteristic 0); the minimal polynomial from the first linear
    dependency among the flattened powers I, A, A^2, ...
    """
    if not a.is_square():
        raise ValueError("char_min_poly needs a square matrix")
    n = a.rows
    if n == 0:
        return Poly.one(), Poly.one()
    coeffs = [ZERO] * n + [ONE]
    m = Matrix.zeros(n, n)
    ident = Matrix.identity(n)
    c = ONE
    for k in range(1, n + 1):
        m = a * (m + c * ident)
        c = -(trace(m) / k)
        coeffs[n - k] = c
    char = Poly(coeffs)

    tracker = IncrementalDependency()
    cur = ident
    dep = tracker.add(cur.entries)
    while dep is None:
        cur = cur * a
        dep = tracker.add(cur.entries)
    minimal = Poly(list(dep) + [ONE])
    return char, minimal


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
