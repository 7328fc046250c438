"""Shared fixtures: the example algebra families and cached analysis pipelines.

Everything heavy (Drinfeld double of S3 and its dual) is built once per
session and shared across test modules.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hopfkit import (
    HopfData,
    IntegralityCertificate,
    Pipeline,
    builtin_group,
    drinfeld_double,
    function_algebra,
    group_algebra,
    tensor_product,
)
from hopfkit.scalars import ONE, ZERO, _poly_divmod, _poly_trim, as_scalar

_GROUPS = ("C2", "C3", "C2xC2", "S3", "D4", "Q8")


def _build_examples() -> dict[str, HopfData]:
    algebras: dict[str, HopfData] = {}
    for name in _GROUPS:
        g = builtin_group(name)
        algebras[f"k{name}"] = group_algebra(g)
        algebras[f"k^{name}"] = function_algebra(g)
    algebras["D(C2)"] = drinfeld_double(builtin_group("C2"))
    algebras["D(S3)"] = drinfeld_double(builtin_group("S3"))
    algebras["kS3(x)k^C2"] = tensor_product(
        group_algebra(builtin_group("S3")), function_algebra(builtin_group("C2"))
    )
    return algebras


_EXAMPLES: dict[str, HopfData] | None = None
_PIPELINES: dict[str, Pipeline] = {}


def example_algebras() -> dict[str, HopfData]:
    global _EXAMPLES
    if _EXAMPLES is None:
        _EXAMPLES = _build_examples()
    return _EXAMPLES


def pipeline_for(name: str) -> Pipeline:
    if name not in _PIPELINES:
        _PIPELINES[name] = Pipeline(example_algebras()[name])
    return _PIPELINES[name]


@pytest.fixture(scope="session")
def examples() -> dict[str, HopfData]:
    return example_algebras()


@pytest.fixture(scope="session")
def pipelines():
    return pipeline_for


def charpoly(rows) -> list:
    """Characteristic polynomial det(x I - A), coefficients low to high, of the
    square matrix A with the given rows, by the Faddeev-LeVerrier recurrence
    M_k = A (M_(k-1) + c_(n-k+1) I), c_(n-k) = -tr(M_k) / k.  Plain Python
    arithmetic seeded with Fractions (cyclotomic entries pass through their own
    operators), sharing no code with hopfkit's elimination."""
    n = len(rows)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        shifted = [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]
        m = [[sum((rows[i][l] * shifted[l][j] for l in range(n)), Fraction(0)) for j in range(n)]
             for i in range(n)]
        coeffs[n - k] = -sum((m[i][i] for i in range(n)), Fraction(0)) / k
    return coeffs


def rref(rows) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of the given rows, with its pivot columns, by
    plain Gauss-Jordan elimination on a copy (entries coerced with as_scalar):
    the reference that hopfkit's kernels and ranks are compared against."""
    data = [[as_scalar(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(data[0]) if data else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(data)) if data[i][c]), None)
        if p is None:
            continue
        data[r], data[p] = data[p], data[r]
        inv = data[r][c].inverse()
        data[r] = [x * inv for x in data[r]]
        for i, row in enumerate(data):
            if i != r and row[c]:
                data[i] = [x - row[c] * y for x, y in zip(row, data[r])]
        pivots.append(c)
    return data, pivots


def rref_kernel(rows) -> list[tuple]:
    """The kernel basis read off the reduced row echelon form: for each free
    column f, the vector that is 1 at f, -R[k][f] at the k-th pivot column and
    0 elsewhere."""
    data, pivots = rref(rows)
    n_cols = len(data[0]) if data else 0
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [ZERO] * n_cols
        v[f] = ONE
        for k, pc in enumerate(pivots):
            v[pc] = -data[k][f]
        basis.append(tuple(v))
    return basis


# Dense references for the sparse element operations: plain loops over every
# stored structure constant and over dense coordinate lists, sharing no code
# with hopfkit's support walks.  Each returns a list of scalars.


def dense_multiply(H: HopfData, x, y) -> list:
    """x y = sum mult[i, j, k] x_i y_j b_k."""
    out = [ZERO] * H.dim
    for (i, j, k), c in H.mult.items():
        out[k] = out[k] + x[i] * y[j] * c
    return out


def dense_antipode(H: HopfData, x) -> list:
    """S(x) = sum antipode[i, j] x_j b_i."""
    out = [ZERO] * H.dim
    for (i, j), c in H.antipode.items():
        out[i] = out[i] + x[j] * c
    return out


def dense_pair(phi, h):
    """<phi, h> = sum phi_k h_k."""
    return sum((p * x for p, x in zip(phi, h)), ZERO)


def dense_hit_dual_on_alg(H: HopfData, phi, h) -> list:
    """phi h = sum comult[a, b, k] h_k phi_b b_a."""
    out = [ZERO] * H.dim
    for (a, b, k), c in H.comult.items():
        out[a] = out[a] + h[k] * phi[b] * c
    return out


def dense_hit_alg_on_dual(H: HopfData, h, phi) -> list:
    """(h phi)_t = <phi, b_t h> = sum mult[t, s, k] h_s phi_k."""
    out = [ZERO] * H.dim
    for (t, s, k), c in H.mult.items():
        out[t] = out[t] + h[s] * phi[k] * c
    return out


def dense_combine(coeffs, vectors, dim: int) -> list:
    """sum_k coeffs[k] vectors[k]."""
    out = [ZERO] * dim
    for c, vec in zip(coeffs, vectors):
        out = [a + as_scalar(c) * x for a, x in zip(out, vec)]
    return out


def dense_coordinates(columns, v) -> tuple[list, list]:
    """(coeffs, residual) with v = sum_j coeffs_j columns_j + remainder and
    the remainder 0 at the pivots P, the least indices of the column span (the
    pivot columns of the reduced row echelon form of the columns as rows); the
    residual is the remainder off P.  coeffs solve the square system on the
    rows P, by plain Gauss-Jordan elimination."""
    n = len(columns)
    _, pivots = rref(columns)
    solved, _ = rref([[col[i] for col in columns] + [v[i]] for i in pivots])
    coeffs = [row[n] for row in solved]
    remainder = [x - dense_pair(coeffs, [col[i] for col in columns]) for i, x in enumerate(v)]
    return coeffs, [x for i, x in enumerate(remainder) if i not in pivots]


def resultant_q(a: list, b: list) -> Fraction:
    """Resultant of two polynomials (coefficient lists, low to high) over Q or
    Q(zeta_N), by the Euclidean remainder chain of the scalars' kit."""
    a, b = _poly_trim(a), _poly_trim(b)
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * b[0] ** da
        r = _poly_divmod(a, b)[1]
        if not r:
            return Fraction(0)
        if (da * db) % 2 == 1:
            res = -res
        res *= b[-1] ** (da - (len(r) - 1))
        a, b = b, r


def recheck_integrality(cert: IntegralityCertificate) -> bool:
    """Re-derive an integrality certificate's verdict from its witness data."""
    p = cert.minimal_polynomial
    return (
        p.is_monic()
        and p.evaluate(cert.subject).is_zero()
        and p.has_integer_coeffs() == cert.is_integer
    )


def fusion_matrix_rows(tensor: list, v: int) -> list[list[int]]:
    """The integer matrix of multiplication by chi_v on the character basis,
    read off a fusion tensor: M[u][w] = n[v][w][u]."""
    r = len(tensor)
    return [[tensor[v][w][u] for w in range(r)] for u in range(r)]


def perturbed(H: HopfData, **changes: dict) -> HopfData:
    """H with some structure constants replaced: each keyword names a section
    (``mult``, ``comult`` or ``antipode``) and maps index tuples to new values;
    a key that is not stored adds an entry and the value 0 removes one, e.g.
    ``perturbed(H, comult={(1, 1, 1): 0, (1, 0, 1): 1})``."""
    sections = {"mult": H.mult, "comult": H.comult, "antipode": H.antipode}
    if not set(changes) <= set(sections):
        raise ValueError(f"unknown sections {sorted(set(changes) - set(sections))}")
    entries = {name: {**stored, **changes.get(name, {})} for name, stored in sections.items()}
    return HopfData(f"{H.name}-perturbed", H.dim, entries["mult"], H.unit, entries["comult"],
                    H.counit, entries["antipode"], cyclotomic_order=H.cyclotomic_order)


def sweedler_algebra() -> HopfData:
    """The 4-dimensional non-semisimple Hopf algebra on basis {1, g, x, gx}:
    g^2 = 1, x^2 = 0, xg = -gx, Delta(g) = g (x) g, Delta(x) = x (x) 1 + g (x) x,
    S(g) = g, S(x) = -gx.  It passes every axiom but eps(Lambda) = 0."""
    I, G, X, GX = range(4)
    mult = {
        (I, I, I): 1, (I, G, G): 1, (I, X, X): 1, (I, GX, GX): 1,
        (G, I, G): 1, (G, G, I): 1, (G, X, GX): 1, (G, GX, X): 1,
        (X, I, X): 1, (X, G, GX): -1,  # x g = -gx
        # x x = 0; x gx = x g x = -g x x = 0
        (GX, I, GX): 1, (GX, G, X): -1,  # gx g = g(xg) = -x
        # gx x = 0; gx gx = g(xg)x = -x x ... = 0
    }
    comult = {
        (I, I, I): 1,
        (G, G, G): 1,
        (X, I, X): 1, (G, X, X): 1,
        # Delta(gx) = Delta(g)Delta(x) = gx (x) g + 1 (x) gx
        (GX, G, GX): 1, (I, GX, GX): 1,
    }
    antipode = {
        (I, I): 1,
        (G, G): 1,
        (GX, X): -1,  # S(x) = -gx
        (X, GX): 1,   # S(gx) = S(x)S(g) = -gx g = x
    }
    return HopfData("sweedler4", 4, mult, [1, 0, 0, 0], comult, [1, 1, 0, 0], antipode,
                    cyclotomic_order=2)


@pytest.fixture(scope="session")
def sweedler() -> HopfData:
    return sweedler_algebra()
