"""The center, centrally primitive idempotents, and block degrees.

The splitting runs entirely over Q(zeta_N): draw a small random integer
combination z of the center basis; accept it when its minimal polynomial on
Z(H) is squarefree of degree dim Z(H); factor that polynomial over Q and push
each irreducible factor to linear factors over Q(zeta_N); the Lagrange
interpolation idempotents of z at the resulting eigenvalues are the centrally
primitive idempotents, formed as combinations of the powers 1, z, ...,
z^(r-1) that the minimal-polynomial search has already computed.  Every
claimed property (orthogonality, idempotence, sum = 1, centrality, square
block traces) is then verified exactly; a non-splitting factor is the hard
error "field too small".

Blocks are ordered by degree, then lexicographically by idempotent
coordinates, so labels are stable for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

from .errors import FieldTooSmallError, HopfkitError, NotSemisimpleError, RetriesExhaustedError
from .factor import factor_over_cyclotomic, factor_rational
from .hopf import HopfData, commutes_with_basis, format_vector
from .integrals import IntegralPair, compute_integrals, left_absorption_failure
from .linalg import IncrementalDependency, Matrix, Vector, kernel_basis, vec_eq, zero_vector
from .polys import Poly
from .rng import DeterministicRng
from .scalars import CycScalar, ONE, ZERO

_RETRY_LIMIT = 32
_COEFF_RANGE = (-3, 3)


@dataclass
class BlockDecomposition:
    """Centrally primitive idempotents e_V with their block degrees dim V."""

    center_basis: list[Vector]
    idempotents: list[Vector]
    degrees: list[int]
    labels: list[str]

    @property
    def count(self) -> int:
        return len(self.idempotents)


def center(H: HopfData) -> list[Vector]:
    """Exact basis of Z(H) = {z : z b_i = b_i z for all i}."""
    d = H.dim
    nz = H.mult_nz
    rows: list[list[CycScalar]] = []
    for i in range(d):
        coeff = [[ZERO] * d for _ in range(d)]  # coeff[r][k] for z b_i - b_i z
        for k in range(d):
            for r, c in nz[k][i]:
                coeff[r][k] = coeff[r][k] + c
            for r, c in nz[i][k]:
                coeff[r][k] = coeff[r][k] - c
        for r in range(d):
            if any(not c.is_zero() for c in coeff[r]):
                rows.append(coeff[r])
    if not rows:
        return [H.basis_vector(k) for k in range(d)]
    return kernel_basis(Matrix(rows))


def _min_poly_on_center(H: HopfData, z: Vector, bound: int) -> tuple[Poly, list[Vector]] | None:
    """Monic minimal polynomial m of multiplication-by-z, via the first linear
    dependency among the powers 1, z, z^2, ... (at most ``bound`` of them),
    together with the independent powers 1, z, ..., z^(deg m - 1)."""
    tracker = IncrementalDependency()
    powers: list[Vector] = []
    cur = H.unit
    for _ in range(bound + 1):
        dep = tracker.add(cur)
        if dep is not None:
            return Poly(list(dep) + [ONE]), powers
        powers.append(cur)
        cur = H.multiply(cur, z)
    return None


def _structure_is_rational(H: HopfData) -> bool:
    return all(
        c.is_rational()
        for c in (*H.unit, *H.counit, *H.mult.values(), *H.comult.values(), *H.antipode.values())
    )


def primitive_idempotents(
    H: HopfData, order: int | None = None, seed: int = 0, *, integrals: IntegralPair | None = None
) -> BlockDecomposition:
    """Split Z(H) into centrally primitive idempotents over Q(zeta_order).

    Requires semisimple H with rational structure constants (all built-in
    families).  Semisimplicity is certified from the integral Lambda of
    ``integrals`` (solved here when absent): Lambda must be a left integral
    with eps(Lambda) != 0 (Maschke).  Raises FieldTooSmallError when an
    eigenvalue of the splitting element lives outside Q(zeta_order),
    RetriesExhaustedError when no good splitting element is found.
    """
    if order is None:
        order = H.cyclotomic_order
    if not _structure_is_rational(H):
        raise HopfkitError(
            "primitive_idempotents needs rational structure constants; "
            "rebase the input or split by other means"
        )
    _certify_semisimple(H, integrals if integrals is not None else compute_integrals(H))

    zbasis = center(H)
    r = len(zbasis)
    if r == 0:
        raise HopfkitError("empty center; input is corrupt")

    rng = DeterministicRng(seed)
    min_poly: Poly | None = None
    powers: list[Vector] = []
    for attempt in range(_RETRY_LIMIT):
        # start from the documented {-3..3} range and widen on misses: the
        # splitting element needs r distinct eigenvalues, and for large
        # commutative centers a 7-value coefficient range cannot deliver that
        width = _COEFF_RANGE[1] if attempt < 2 else _COEFF_RANGE[1] + r * attempt
        coeffs = [rng.randint(-width, width) for _ in range(r)]
        cand = zero_vector(H.dim)
        for c, vec in zip(coeffs, zbasis):
            if c:
                cand = tuple(x + c * y for x, y in zip(cand, vec))
        found = _min_poly_on_center(H, cand, r)
        if found is not None and found[0].degree == r and found[0].is_squarefree():
            min_poly, powers = found
            break
    if min_poly is None:
        raise RetriesExhaustedError(
            f"no splitting element found for {H.name} in {_RETRY_LIMIT} draws"
        )

    # eigenvalues of z in Q(zeta_order)
    eigenvalues: list[CycScalar] = []
    for factor, _ in factor_rational(min_poly):
        if factor.degree == 1:
            eigenvalues.append(-factor[0])
            continue
        for linear in factor_over_cyclotomic(factor, order):
            if linear.degree != 1:
                raise FieldTooSmallError(
                    f"a degree-{factor.degree} central eigenvalue of {H.name} does not split "
                    f"over Q(zeta_{order}); increase the cyclotomic order"
                )
            eigenvalues.append(-linear[0])

    # Lagrange idempotents e_i = q_i(z) / q_i(mu_i) with q_i = m / (x - mu_i),
    # which is prod_{j != i} (z - mu_j) / (mu_i - mu_j); q_i(z) is a combination
    # of the powers 1, z, ..., z^(r-1)
    idempotents = [
        _combine(_deflate(min_poly, mu), powers, H.dim) for mu in eigenvalues
    ]

    _verify_idempotent_system(H, idempotents)
    degrees = block_degrees(H, idempotents)

    common = 1
    for e in idempotents:
        for c in e:
            common = lcm(common, c.order)
    order_key = [
        (deg, tuple(key for c in e for key in c.sort_key(common)))
        for deg, e in zip(degrees, idempotents)
    ]
    perm = sorted(range(len(idempotents)), key=lambda t: order_key[t])
    idempotents = [idempotents[t] for t in perm]
    degrees = [degrees[t] for t in perm]
    labels = [f"V{t}" for t in range(len(idempotents))]
    return BlockDecomposition(
        center_basis=zbasis, idempotents=idempotents, degrees=degrees, labels=labels
    )


def _certify_semisimple(H: HopfData, integrals: IntegralPair) -> None:
    """Maschke's criterion on the held integral: Lambda is a left integral and
    eps(Lambda) != 0."""
    i = left_absorption_failure(H, integrals.Lambda)
    if i is not None:
        raise HopfkitError(
            f"{H.name}: the given Lambda is not a left integral (b{i} Lambda != eps(b{i}) Lambda)"
        )
    if H.counit_of(integrals.Lambda).is_zero():
        raise NotSemisimpleError(f"{H.name} is not semisimple: eps(Lambda) = 0")


def _deflate(m: Poly, mu: CycScalar) -> list[CycScalar]:
    """Coefficients, low to high, of q(x) / q(mu) for q = m / (x - mu), where
    mu is a simple root of m (synthetic division; q(mu) = m'(mu) != 0)."""
    q = [ZERO] * m.degree
    carry = ZERO
    for k in range(m.degree, 0, -1):
        carry = m[k] + mu * carry
        q[k - 1] = carry
    value = ZERO
    for c in reversed(q):
        value = value * mu + c
    inv = value.inverse()
    return [c * inv for c in q]


def _combine(coeffs: list[CycScalar], vectors: list[Vector], dim: int) -> Vector:
    """sum_k coeffs[k] vectors[k]."""
    out = [ZERO] * dim
    for c, vec in zip(coeffs, vectors):
        if c.is_zero():
            continue
        for a, x in enumerate(vec):
            if not x.is_zero():
                out[a] = out[a] + c * x
    return tuple(out)


def _verify_idempotent_system(H: HopfData, idempotents: list[Vector]) -> None:
    total = zero_vector(H.dim)
    for i, e in enumerate(idempotents):
        total = tuple(x + y for x, y in zip(total, e))
        for j, f in enumerate(idempotents):
            prod = H.multiply(e, f)
            expected = e if i == j else zero_vector(H.dim)
            if not vec_eq(prod, expected):
                raise HopfkitError(
                    f"idempotent orthogonality failed at blocks {i}, {j}: {format_vector(prod)}"
                )
    if not vec_eq(total, H.unit):
        raise HopfkitError("idempotents do not sum to the unit")
    for i, e in enumerate(idempotents):
        if not commutes_with_basis(e, H.mult_by_output):
            raise HopfkitError(f"idempotent {i} is not central")


def block_degrees(H: HopfData, idempotents: list[Vector]) -> list[int]:
    """Degrees dim V from the trace of left multiplication by e_V on H, which
    must be the perfect square (dim V)^2."""
    # diag[a] = sum_k mult[a, k, k], the trace of left multiplication by b_a
    diag = [ZERO] * H.dim
    for (a, k, r), c in H.mult.items():
        if k == r:
            diag[a] = diag[a] + c
    degrees = []
    for i, e in enumerate(idempotents):
        t = ZERO
        for a, ea in enumerate(e):
            if not (ea.is_zero() or diag[a].is_zero()):
                t = t + ea * diag[a]
        if not t.is_rational():
            raise HopfkitError(f"non-square block trace at block {i}: {t}")
        q = t.as_fraction()
        if q.denominator != 1 or q < 0:
            raise HopfkitError(f"non-square block trace at block {i}: {q}")
        root = isqrt(q.numerator)
        if root * root != q.numerator:
            raise HopfkitError(f"non-square block trace at block {i}: {q}")
        degrees.append(root)
    return degrees


def blocks_report(H: HopfData, blocks: BlockDecomposition) -> "VerificationReport":
    """Re-verify every BlockDecomposition invariant as a report."""
    from .report import VerificationReport

    report = VerificationReport(subject=H.name, dim=H.dim, suite="wedderburn")
    ok = True
    try:
        _verify_idempotent_system(H, blocks.idempotents)
    except HopfkitError as exc:
        ok = False
        report.add("idempotent-system", "orthogonal central idempotents summing to 1", False, str(exc))
    if ok:
        report.add("idempotent-system", "orthogonal central idempotents summing to 1", True, "")
    report.add(
        "block-count",
        "number of blocks equals dim Z(H)",
        blocks.count == len(blocks.center_basis),
        f"{blocks.count} blocks, dim Z = {len(blocks.center_basis)}",
    )
    total = sum(deg * deg for deg in blocks.degrees)
    report.add(
        "sum-of-squares",
        "sum of squared degrees equals dim H",
        total == H.dim,
        f"sum d^2 = {total}, dim H = {H.dim}",
    )
    squares_ok = True
    witness = ""
    try:
        recomputed = block_degrees(H, blocks.idempotents)
        if recomputed != blocks.degrees:
            squares_ok = False
            witness = f"recomputed degrees {recomputed} != stored {blocks.degrees}"
    except HopfkitError as exc:
        squares_ok = False
        witness = str(exc)
    report.add("block-traces", "trace of left multiplication by e_V equals (dim V)^2", squares_ok, witness)
    return report
