"""Property tests beyond the 0/1 structure constants of the builders.

A random invertible rational change of basis P turns H into an isomorphic
Hopf algebra P.H.P^-1 whose structure constants are general rationals.  The
block degrees and the outcome of every suite are invariants of the
isomorphism class, so they must not move; getting there runs the
Fraction-coordinate paths of the scalars, the elimination and the
factorisation that the builders never reach.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, assume, given, settings, strategies as st

from conftest import (
    dense_antipode,
    dense_combine,
    dense_coordinates,
    dense_hit_alg_on_dual,
    dense_hit_dual_on_alg,
    dense_multiply,
    dense_pair,
    perturbed,
    pipeline_for,
    rref_kernel,
)

import hopfkit.wedderburn as wedderburn
from hopfkit import (
    HopfData,
    Pipeline,
    builtin_group,
    check_axioms,
    function_algebra,
    group_algebra,
    primitive_idempotents,
)
from hopfkit.hopf import convolve, hit_act_alg_on_dual, hit_act_dual_on_alg, pair
from hopfkit.linalg import PreparedSolver, Vector, combine, minimal_polynomial
from hopfkit.scalars import CycScalar, as_scalar
from hopfkit.wedderburn import center

_DIM = 6  # S3
_ALGEBRAS = {"kS3": group_algebra(builtin_group("S3")), "k^S3": function_algebra(builtin_group("S3"))}

_scale = st.sampled_from([Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(2, 3)])
_shear = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
_pair = st.tuples(st.integers(0, _DIM - 1), st.integers(0, _DIM - 1)).filter(lambda t: t[0] != t[1])


@st.composite
def _change_of_basis(draw):
    """P = (scaled permutation) (I + t E_ij) ...: invertible by construction.
    At most three shears keep the structure constants sparse, so the whole
    pipeline stays quick on every draw; a dense P makes all d^3 constants of
    each tensor nonzero, and the staged bialgebra check then costs about d^6
    products (see test_dense_change_of_basis_axioms)."""
    n = _DIM
    perm = draw(st.permutations(range(n)))
    p = [[draw(_scale) if perm[i] == j else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(_pair)
        t = draw(_shear)
        for row in p:  # column j += t * column i
            row[j] += t * row[i]
    return p


@st.composite
def _dense_change_of_basis(draw):
    """P = L D U with L unit lower and U unit upper triangular, each with every
    off-diagonal entry nonzero, and D an invertible diagonal: invertible by
    construction, and dense, so the structure constants of the rebased algebra
    are general rationals."""
    n = _DIM
    lower = [[Fraction(i == j) if j >= i else draw(_shear) for j in range(n)] for i in range(n)]
    upper = [[Fraction(i == j) if j <= i else draw(_shear) for j in range(n)] for i in range(n)]
    diag = [draw(_scale) for _ in range(n)]
    return [[sum(lower[i][k] * diag[k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _rebase(H: HopfData, p: list[list[Fraction]]) -> HopfData:
    """H in the basis b'_i = sum_a p[a][i] b_a; q = p^-1 gives b_a = sum_k q[k][a] b'_k."""
    n = H.dim
    # column a of q is the decomposition of e_a over the columns of p
    solver = PreparedSolver([Vector.of(row[j] for row in p) for j in range(n)])
    q_cols = [solver.decompose(Vector.unit(n, a)) for a in range(n)]
    q = [[q_cols[j][i].as_fraction() for j in range(n)] for i in range(n)]
    mult: dict = {}
    for (a, b, c), s in H.mult.items():
        s = s.as_fraction()
        for i in range(n):
            for j in range(n):
                f = p[a][i] * p[b][j] * s
                if f:
                    for k in range(n):
                        mult[i, j, k] = mult.get((i, j, k), 0) + f * q[k][c]
    comult: dict = {}
    for (x, y, a), s in H.comult.items():
        s = s.as_fraction()
        for i in range(n):
            f = p[a][i] * s
            if f:
                for k in range(n):
                    for l in range(n):
                        comult[k, l, i] = comult.get((k, l, i), 0) + f * q[k][x] * q[l][y]
    antipode: dict = {}
    for (c, a), s in H.antipode.items():
        s = s.as_fraction()
        for i in range(n):
            for k in range(n):
                antipode[k, i] = antipode.get((k, i), 0) + p[a][i] * s * q[k][c]
    unit = [sum(q[k][c] * H.unit[c].as_fraction() for c in range(n)) for k in range(n)]
    counit = [sum(p[a][i] * H.counit[a].as_fraction() for a in range(n)) for i in range(n)]
    return HopfData(f"{H.name}-rebased", n, mult, unit, comult, counit, antipode, H.cyclotomic_order)


def _invariants(H: HopfData):
    pipe = Pipeline(H)
    return sorted(pipe.blocks.degrees), [(rep.suite, rep.overall) for rep in pipe.all_suites()]


@lru_cache(maxsize=None)
def _expected(name: str):
    return _invariants(_ALGEBRAS[name])


@pytest.mark.parametrize("name", sorted(_ALGEBRAS))
# no shrinking: each candidate runs a full pipeline, so a failing draw would
# shrink for minutes; generation, hence what is checked, is unchanged
@settings(max_examples=8, deadline=None, derandomize=True, database=None, phases=[Phase.generate])
@given(p=_change_of_basis())
def test_change_of_basis_keeps_degrees_and_suite_status(name, p):
    rebased = _rebase(_ALGEBRAS[name], p)
    assume(any(not s.is_integer() for s in (*rebased.mult.values(), *rebased.comult.values())))
    assert _invariants(rebased) == _expected(name)


def _degrees_and_verdicts(H: HopfData):
    """Block degrees and the kaplansky, proposition and section4 verdicts, per
    item kind: the block labels V0, V1, ... follow the idempotents'
    coordinates, so a change of basis may permute them."""
    pipe = Pipeline(H)
    return sorted(pipe.blocks.degrees), [
        (rep.suite, rep.overall, sorted((item.id.partition("-")[2], item.passed) for item in rep.items))
        for rep in map(pipe.suite, ("kaplansky", "proposition", "section4"))
    ]


@pytest.mark.parametrize("name", sorted(_ALGEBRAS))
# no shrinking: a smaller dense matrix is no simpler, and each draw runs a pipeline
@settings(max_examples=5, deadline=None, derandomize=True, database=None, phases=[Phase.generate])
@given(p=_dense_change_of_basis())
def test_dense_change_of_basis_keeps_degrees_and_verdicts(name, p):
    # the split, the characters and both suites run on scalars with den > 1
    rebased = _rebase(_ALGEBRAS[name], p)
    assert sum(1 for row in p for x in row if x) >= _DIM * _DIM - _DIM
    assert any(not s.is_integer() for s in rebased.mult.values())
    assert _degrees_and_verdicts(rebased) == _degrees_and_verdicts(_ALGEBRAS[name])


# a fixed dense change of basis: every entry is nonzero, and so is every one of
# the 6^3 MULT and 6^3 COMULT constants of the rebased kS3 and k^S3
_DENSE_P = [[Fraction(e) for e in row.split()] for row in (
    "3 3 1 1/2 2/3 3",
    "1/2 2/3 -1/2 -2 2 1/2",
    "2 -1 1/2 2 1/2 -1",
    "-1 -1/2 2/3 -1 -1/2 3",
    "-1/2 -2 2/3 2/3 1/2 1",
    "1 -1 3 1 2/3 -1/2",
)]

# the items that fail once the middle COMULT entry gets its value plus 1 (the
# same for both algebras), recorded from the check that summed over every pair
# of Delta(b_i) and Delta(b_j) terms
_DENSE_PERTURBED_FAILURES = {
    "coassoc": "coassociativity fails on b0",
    "counit": "counit fails on b0",
    "comult-alg-map": "Delta(b0 b0) != Delta(b0) Delta(b0)",
    "antipode-left": "sum S(b0_(1)) b0_(2) != eps(b0) 1",
    "antipode-right": "sum b0_(1) S(b0_(2)) != eps(b0) 1",
}


@pytest.mark.parametrize("name", sorted(_ALGEBRAS))
def test_dense_change_of_basis_axioms(name):
    dense = _rebase(_ALGEBRAS[name], _DENSE_P)
    assert len(dense.mult) == len(dense.comult) == _DIM ** 3
    assert check_axioms(dense).overall
    keys = sorted(dense.comult)
    mid = keys[len(keys) // 2]
    broken = perturbed(dense, comult={mid: dense.comult[mid] + 1})
    failed = {item.id: item.witness for item in check_axioms(broken).items if not item.passed}
    assert failed == _DENSE_PERTURBED_FAILURES


# the 8 x 8 Hilbert matrix: dense, invertible, and far from 0/1
_HILBERT_8 = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]


@pytest.mark.parametrize("name", ["kS3", "kQ8"])
def test_center_coordinates_give_the_full_vector_split(name, monkeypatch):
    # the split searches for each minimal polynomial on the dim Z(H) free-column
    # entries of the powers; on a dense rebase the center basis has general
    # rational entries, and the result must equal the search on full vectors
    if name == "kS3":
        h = _rebase(_ALGEBRAS["kS3"], _DENSE_P)
    else:
        h = _rebase(group_algebra(builtin_group("Q8")), _HILBERT_8)
    assert any(not s.is_integer() for s in h.mult.values())
    on_center = wedderburn._min_poly_on_center
    seen = []

    def recorded(H, z, free):
        out = on_center(H, z, free)
        seen.append((z, out))
        return out

    monkeypatch.setattr(wedderburn, "_min_poly_on_center", recorded)
    got = primitive_idempotents(h)
    assert seen
    for z, (poly, powers) in seen:
        full_poly, full_powers = minimal_polynomial(h.unit, lambda p: h.multiply(p, z))
        assert poly == full_poly
        assert powers == full_powers

    monkeypatch.setattr(
        wedderburn,
        "_min_poly_on_center",
        lambda H, z, free: minimal_polynomial(H.unit, lambda p: H.multiply(p, z)),
    )
    want = primitive_idempotents(h)
    assert (got.degrees, got.labels) == (want.degrees, want.labels)
    assert got.idempotents == want.idempotents


def _ldu(n: int) -> list[list[Fraction]]:
    """A fixed dense P = L D U: L unit lower and U unit upper triangular with
    every off-diagonal entry nonzero, D an invertible diagonal."""
    lower = [[Fraction(i == j) if j >= i else Fraction((-1) ** (i + j) * (i + 1), j + 2) for j in range(n)]
             for i in range(n)]
    upper = [[Fraction(i == j) if j <= i else Fraction(j - i, (-2) ** i) for j in range(n)] for i in range(n)]
    diag = [Fraction(2 * k + 1, 3) * (-1) ** k for k in range(n)]
    return [[sum(lower[i][k] * diag[k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _fraction_solve(columns, v) -> list[Fraction] | None:
    """c with sum_j c_j columns_j = v, by plain Fraction Gauss-Jordan
    elimination of [C | v] (the columns independent), or None when v is
    outside their span."""
    n = len(columns)
    rows = [[col[i].as_fraction() for col in columns] + [v[i].as_fraction()] for i in range(len(v))]
    for r in range(n):
        p = next(i for i in range(r, len(rows)) if rows[i][r])
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][r] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[r]:
                rows[i] = [x - row[r] * y for x, y in zip(row, rows[r])]
    if any(row[n] for row in rows[n:]):
        return None
    return [row[n] for row in rows[:n]]


def _dense(name: str, rebase: str) -> HopfData:
    """kS3 or kQ8 rebased by a dense L D U or Hilbert matrix: every structure
    constant is a general rational."""
    base = _ALGEBRAS["kS3"] if name == "kS3" else group_algebra(builtin_group("Q8"))
    n = base.dim
    p = _ldu(n) if rebase == "ldu" else [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    h = _rebase(base, p)
    assert any(not s.is_integer() for s in h.mult.values())
    return h


@pytest.mark.parametrize("rebase", ["ldu", "hilbert"])
@pytest.mark.parametrize("name", ["kS3", "kQ8"])
def test_center_is_the_reduced_echelon_kernel(name, rebase):
    # row (i, r), column a of the commutator system holds (b_a b_i - b_i b_a)_r
    h = _dense(name, rebase)
    zero = as_scalar(0)
    rows = [[h.mult.get((a, i, r), zero) - h.mult.get((i, a, r), zero) for a in range(h.dim)]
            for i in range(h.dim) for r in range(h.dim)]
    assert center(h) == rref_kernel(rows)
    # no dense product is a single term, so the generating rows are every row
    # and the centre on them is the same kernel
    assert h.generating_rows == list(range(h.dim))
    assert center(h, h.generating_rows) == rref_kernel(rows)


@pytest.mark.parametrize("rebase", ["ldu", "hilbert"])
@pytest.mark.parametrize("name", ["kS3", "kQ8"])
def test_solver_coordinates_match_fraction_elimination(name, rebase):
    # the character and idempotent families of a densely rebased algebra, with
    # vectors inside their span (products, the unit) and outside it (basis
    # vectors, shifted products)
    h = _dense(name, rebase)
    n = h.dim
    pipe = Pipeline(h)
    chars, idems = pipe.table.characters, pipe.blocks.idempotents
    units = [Vector.unit(n, k) for k in range(n)]
    families = {
        "characters": (chars, [convolve(x, y, h) for x in chars for y in chars[:2]] + units
                       + [combine([1, 1], [convolve(chars[-1], chars[-1], h), units[0]], n)]),
        "idempotents": (idems, [h.unit, combine([2, -1], idems[:2], n)] + units
                        + [h.multiply(e, units[-1]) for e in idems]),
    }
    for family, (columns, vectors) in families.items():
        solver = PreparedSolver(columns)
        outside = 0
        for v in vectors:
            want = _fraction_solve(columns, v)
            coeffs, residual = solver.coordinates(v)
            assert len(coeffs) == len(columns) and len(residual) == n - len(columns)
            if want is None:
                outside += 1
                assert solver.decompose(v) is None and any(residual), family
            else:
                assert [c.as_fraction() for c in coeffs] == want and not any(residual), family
                assert solver.decompose(v) == coeffs
            # the residual is v - sum_j coeffs_j column_j off the pivots, where it is 0
            remainder = [x - y for x, y in zip(v, combine(coeffs, columns, n))]
            assert [x for x in remainder if x] == [x for x in residual if x], family
        assert outside, family


# Differential tests of the sparse element operations against the dense
# references in conftest, on general rational constants (the dense rebases,
# where no product is a single term) and on D(S3) and its dual (cyclotomic
# entries at order 6).  The drawn vectors run from empty to full supports.
_DIFFERENTIAL = ("kS3-ldu", "kS3-hilbert", "kQ8-ldu", "kQ8-hilbert", "D(S3)", "D(S3)*")


@lru_cache(maxsize=None)
def _differential_pipeline(key: str) -> Pipeline:
    if key.startswith("D(S3)"):
        pipe = pipeline_for("D(S3)")
        return pipe.dual if key.endswith("*") else pipe
    return Pipeline(_dense(*key.split("-")))


@st.composite
def _vectors(draw, h: HopfData):
    order = h.cyclotomic_order
    support = draw(st.sets(st.integers(0, h.dim - 1), max_size=h.dim))
    def entry():
        return as_scalar(draw(_shear)) * CycScalar.zeta(order, draw(st.integers(0, order - 1)))

    return Vector.of(entry() if k in support else 0 for k in range(h.dim))


def _stores_no_zero(v) -> bool:
    return isinstance(v, Vector) and all(0 <= k < v.dim for k in v.nz) and all(v.nz.values())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(_DIFFERENTIAL), data=st.data())
def test_element_operations_match_the_dense_references(key, data):
    h = _differential_pipeline(key).H
    x, y = data.draw(_vectors(h)), data.draw(_vectors(h))
    coeffs = [data.draw(_shear), data.draw(st.sampled_from((0, 1, -1)))]
    results = {
        "multiply": (h.multiply(x, y), dense_multiply(h, x, y)),
        "antipode": (h.apply_antipode(x), dense_antipode(h, x)),
        "dual antipode": (h.dual.apply_antipode(x), dense_antipode(h.dual, x)),
        "hit H* on H": (hit_act_dual_on_alg(x, y, h), dense_hit_dual_on_alg(h, x, y)),
        "hit H on H*": (hit_act_alg_on_dual(x, y, h), dense_hit_alg_on_dual(h, x, y)),
        "combine": (combine(coeffs, (x, y), h.dim), dense_combine(coeffs, (x, y), h.dim)),
    }
    for op, (got, want) in results.items():
        assert got == want and _stores_no_zero(got), op
    assert pair(x, y) == dense_pair(x, y)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(_DIFFERENTIAL), family=st.sampled_from(("characters", "idempotents")),
       data=st.data())
def test_solver_coordinates_match_the_dense_reference(key, family, data):
    # a drawn vector (mostly outside the span), a drawn combination of the
    # columns, and that combination plus a drawn vector
    pipe = _differential_pipeline(key)
    table = pipe.table if family == "characters" else pipe.blocks
    columns = table.characters if family == "characters" else table.idempotents
    h = pipe.H
    v = data.draw(_vectors(h))
    inside = combine([data.draw(_shear) for _ in columns], columns, h.dim)
    for u in (v, inside, combine((1, 1), (inside, data.draw(_vectors(h))), h.dim)):
        coeffs, residual = table.solver.coordinates(u)
        assert (coeffs, residual) == dense_coordinates(columns, u)
        assert _stores_no_zero(coeffs) and _stores_no_zero(residual)


@pytest.mark.parametrize("key", _DIFFERENTIAL)
def test_pipeline_vectors_store_no_zero(key):
    pipe = _differential_pipeline(key)
    p = pipe.integrals
    vectors = [pipe.H.unit, pipe.H.counit, p.lambda_dual, p.Lambda, p.Lambda_scaled,
               *pipe.blocks.center_basis, *pipe.blocks.idempotents, *pipe.table.characters]
    assert all(map(_stores_no_zero, vectors))
