"""The center, centrally primitive idempotents, and block degrees.

The splitting runs entirely over Q(zeta_N) and refines by the center basis
(the eigenspace splitting of Dixon, Numer. Math. 10, 1967).  Start from the
one idempotent 1.  For each basis vector z_k of Z(H), first form e z_k for
each current idempotent e.  An e with e z_k = mu e stays whole: then m(mu) e
= e m(z_k) = 0 for the minimal polynomial m of z_k, so mu is a root of m and
the spectral projector of mu fixes e while the others annihilate it.  Only
when some e fails this test is m taken on Z(H), factored over Q, and each
irreducible factor pushed to linear factors over Q(zeta_N); the spectral
projectors q(z_k) / q(mu) with q = m / (x - mu), one per root mu, are
combinations of the powers 1, z_k, ..., z_k^(deg m - 1) that the
minimal-polynomial search has already computed.  Each failing e is replaced
by the nonzero products e P.  Once there are dim Z(H) idempotents they are
the centrally primitive ones.  Basis elements with the same minimal
polynomial share one factorisation within a call.  A non-splitting factor
is the hard error "field too small"; a skipped m hides none, as z_k acting
by a scalar of Q(zeta_N) on every block has only those scalars as roots.

The centre is the kernel of the commutator rows (z b_i - b_i z)_r.  When the
caller has proved H associative, as a ``Pipeline`` does once its axioms
stage has run and passed (``assoc`` for H, H's ``coassoc`` for H*), only the
rows of i in a set S of generating rows (``axioms._generating_rows``) are
kept: z commuting with S commutes with every word over S, so the kernel,
its basis and its free columns are those of all d^2 rows.  Otherwise every
row is kept.

The minimal polynomial is found in Z(H) coordinates, r = dim Z(H) numbers
per power instead of dim H, by the free-column lemma: ``center`` returns one
vector z_j per free column c_j of the commutator system, a column that
depends on the columns left of it.  z_j is 1 at c_j and nonzero elsewhere
only at independent columns left of it, so c_j is its last nonzero index and
z_k[c_j] = 0 for k != j.  A central p = sum_k a_k z_k therefore has
p[c_j] = a_j.  Powers of a central z stay in Z(H), so the entries at the free
columns are exact coordinates of every power, and the first linear
dependency among them, hence the minimal polynomial and the powers, is the
same as among the full vectors.

The system e_1..e_r is then certified exactly by r products, the sum and one
centrality sweep, by two lemmas (characteristic 0):

* Idempotents that sum to 1 are pairwise orthogonal.  Left multiplication
  L_e by an idempotent is a projection, so tr L_e = rank L_e; the ranks sum
  to tr L_1 = dim H, and the images e_i H span H (h = sum e_i h), so H is
  their direct sum.  Then e_j = sum_i e_i e_j with e_i e_j in e_i H forces
  e_i e_j = 0 for i != j.
* Orthogonal idempotents summing to 1 are polynomials in w = sum_i i e_i:
  p(w) = sum_i p(i) e_i, so e_i is the Lagrange polynomial at i evaluated at
  w.  Hence w central implies every e_i central.

The square block traces are checked by ``block_degrees``.

Semisimplicity is certified in one place, ``compute_integrals`` (Maschke:
Lambda a left integral with eps(Lambda) != 0).  :func:`primitive_idempotents`
runs it before every split; a ``Pipeline`` runs it once in its integrals
stage, for H and H*, and its blocks stages call the private
:func:`_split_center` directly.

Blocks are ordered by degree, then lexicographically by idempotent
coordinates, so labels are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt, lcm

from .errors import FieldTooSmallError, HopfkitError, NotSemisimpleError
from .factor import factor_over_cyclotomic, factor_rational
from .hopf import HopfData, commutes_with_basis, format_vector, pair, regular_character
from .integrals import compute_integrals
from .linalg import PreparedSolver, Vector, combine, minimal_polynomial, sparse_kernel_basis
from .polys import Poly, format_poly
from .scalars import ZERO, CycScalar


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

    @cached_property
    def solver(self) -> PreparedSolver:
        return PreparedSolver(self.idempotents)


def center(H: HopfData, rows: list[int] | None = None) -> list[Vector]:
    """Exact basis of Z(H) = {z : z b_i = b_i z for i in rows}: row (i, r)
    holds the coefficients of (z b_i - b_i z)_r.  ``rows`` is every index by
    default; generating rows of an associative H give the same basis, since a
    z commuting with them commutes with every word over them."""
    keep = range(H.dim) if rows is None else set(rows)

    def entries():
        for (a, b, r), c in H.mult.items():
            if b in keep:
                yield (b, r), a, c
            if a in keep:
                yield (a, r), b, -c

    return sparse_kernel_basis(H.dim, entries())


def _min_poly_on_center(H: HopfData, z: Vector, free: list[int]) -> tuple[Poly, list[Vector]]:
    """Monic minimal polynomial m of multiplication-by-z with the powers 1, z,
    ..., z^(deg m - 1), for z in Z(H).  ``free`` holds the free columns of the
    ``center`` basis, whose entries are the Z(H) coordinates of a central
    element (the free-column lemma in the module docstring); the dependency
    search runs on them, so deg m <= dim Z(H)."""
    def coords(p: Vector) -> Vector:
        return Vector(len(free), {t: p.nz[c] for t, c in enumerate(free) if c in p.nz})

    return minimal_polynomial(H.unit, lambda p: H.multiply(p, z), coords)


def _require_rational(H: HopfData) -> None:
    if not all(
        c.is_rational()
        for c in (*H.unit.nz.values(), *H.counit.nz.values(),
                  *H.mult.values(), *H.comult.values(), *H.antipode.values())
    ):
        raise HopfkitError(
            "primitive_idempotents needs rational structure constants; "
            "rebase the input or split by other means"
        )


def primitive_idempotents(H: HopfData, order: int | None = None) -> BlockDecomposition:
    """Split Z(H) into centrally primitive idempotents over Q(zeta_order).

    Requires semisimple H with rational structure constants (all built-in
    families).  Semisimplicity is certified first, by ``compute_integrals``,
    which raises NotSemisimpleError otherwise.  Raises FieldTooSmallError when
    an eigenvalue of a center basis element lives outside Q(zeta_order).
    """
    _require_rational(H)
    compute_integrals(H)
    return _split_center(H, H.cyclotomic_order if order is None else order)


def _split_center(H: HopfData, order: int, rows: list[int] | None = None) -> BlockDecomposition:
    """The block decomposition of an H the caller has certified semisimple
    (``compute_integrals``).  The idempotent system and block traces are still
    certified exactly, but semisimplicity is not: on Sweedler's non-semisimple
    H4 this returns one block of "degree 2" and raises nothing.  ``rows``, if
    given, are generating rows of H and the caller has proved H associative;
    the centre kernel then keeps only their commutator rows."""
    _require_rational(H)

    zbasis = center(H, rows)
    r = len(zbasis)
    if r == 0:
        raise HopfkitError("empty center; input is corrupt")
    # the free column of each basis vector is its last nonzero index
    free = [max(z.nz) for z in zbasis]

    idempotents = [H.unit]
    # the projector coefficients q / q(mu) of each minimal polynomial already
    # factored in this call, keyed by its coefficients; an entry is
    # stored only once the polynomial has split
    deflated: dict[tuple, list[list[CycScalar]]] = {}
    for k, z in enumerate(zbasis):
        if len(idempotents) == r:
            break
        split = [not _is_eigenvector(e, H.multiply(e, z)) for e in idempotents]
        if not any(split):
            continue
        min_poly, powers = _min_poly_on_center(H, z, free)
        key = tuple(c.key() for c in min_poly.coeffs)
        if key not in deflated:
            deflated[key] = [_deflate(min_poly, mu) for mu in _eigenvalues(H, min_poly, order, k)]
        # spectral projectors q(z) / q(mu) with q = m / (x - mu), combinations
        # of the powers 1, z, ..., z^(deg m - 1); they refine each e that is
        # not an eigenvector of z into the nonzero products e P
        projectors = [combine(coeffs, powers, H.dim) for coeffs in deflated[key]]
        idempotents = [
            prod
            for e, s in zip(idempotents, split)
            for prod in ((H.multiply(e, P) for P in projectors) if s else (e,))
            if prod.nz
        ]
    if len(idempotents) != r:
        raise HopfkitError(
            f"{H.name}: refining by center basis elements z0..z{r - 1} gave "
            f"{len(idempotents)} idempotents, not dim Z(H) = {r}"
        )

    _verify_idempotent_system(H, idempotents)
    degrees = block_degrees(H, idempotents)

    common = 1
    for e in idempotents:
        for c in e.nz.values():
            common = lcm(common, c.order)
    zero_key = ZERO.sort_key(common)  # most coordinates of an idempotent are zero
    order_key = [
        (deg, tuple(key for c in map(e.nz.get, range(len(e)))
                    for key in (zero_key if c is None else c.sort_key(common))))
        for deg, e in zip(degrees, idempotents)
    ]
    perm = sorted(range(len(idempotents)), key=lambda t: order_key[t])
    idempotents = [idempotents[t] for t in perm]
    degrees = [degrees[t] for t in perm]
    labels = [f"V{t}" for t in range(len(idempotents))]
    return BlockDecomposition(
        center_basis=zbasis, idempotents=idempotents, degrees=degrees, labels=labels
    )


def _is_eigenvector(e: Vector, ez: Vector) -> bool:
    """Whether e z = mu e for a scalar mu, read at one support coordinate of
    e; such an e stays whole (module docstring)."""
    if not ez.nz:
        return True
    c = next(iter(e.nz))
    x = ez.nz.get(c)
    return x is not None and ez == e.scale(x * e.nz[c].inverse())


def _eigenvalues(H: HopfData, m: Poly, order: int, k: int) -> list[CycScalar]:
    """The roots in Q(zeta_order) of the minimal polynomial m of center basis
    element z_k.  The center of a semisimple H is a product of fields, so a
    repeated factor of m proves H not semisimple."""
    roots: list[CycScalar] = []
    for factor, multiplicity in factor_rational(m):
        if multiplicity > 1:
            raise NotSemisimpleError(
                f"{H.name} is not semisimple: the minimal polynomial {format_poly(m)} of "
                f"center basis element z{k} has the repeated factor {format_poly(factor)}"
            )
        linears = [factor] if factor.degree == 1 else factor_over_cyclotomic(factor, order)
        if any(linear.degree != 1 for linear in linears):
            raise FieldTooSmallError(
                f"{H.name}: the minimal polynomial of center basis element z{k} has the "
                f"irreducible factor {format_poly(factor)}, which does not split over "
                f"Q(zeta_{order}); increase the cyclotomic order"
            )
        roots.extend(-linear[0] for linear in linears)
    return roots


def _deflate(m: Poly, mu: CycScalar) -> list[CycScalar]:
    """Coefficients, low to high, of q(x) / q(mu) for q = m / (x - mu), where
    mu is a simple root of m (so q(mu) = m'(mu) != 0)."""
    q, _ = divmod(m, Poly([-mu, 1]))
    inv = q.evaluate(mu).inverse()
    return [c * inv for c in q.coeffs]


def _verify_idempotent_system(H: HopfData, idempotents: list[Vector]) -> None:
    """Certify that the e_i are orthogonal central idempotents summing to 1.

    Checks e_i^2 = e_i (r products), sum e_i = 1 and the centrality of
    w = sum_i i e_i (one sweep).  Orthogonality follows from the first two:
    in characteristic 0, tr L_(e_i) = rank L_(e_i) and these sum to
    tr L_1 = dim H, so H is the direct sum of the e_i H and e_i e_j = 0 for
    i != j.  Centrality of every e_i follows from that of w, since each e_i
    is a Lagrange polynomial in w.  Raises HopfkitError naming the first
    idempotent that fails, or the sum.
    """
    for i, e in enumerate(idempotents):
        square = H.multiply(e, e)
        if square != e:
            raise HopfkitError(
                f"idempotent {i} does not square to itself: e{i}^2 = {format_vector(square)}"
            )
    if combine([1] * len(idempotents), idempotents, H.dim) != H.unit:
        raise HopfkitError("idempotents do not sum to the unit")
    w = combine(range(len(idempotents)), idempotents, H.dim)
    if not commutes_with_basis(w, H):
        i = next(i for i, e in enumerate(idempotents) if not commutes_with_basis(e, H))
        raise HopfkitError(f"idempotent {i} is not central")


def block_degrees(H: HopfData, idempotents: list[Vector]) -> list[int]:
    """Degrees dim V from the trace of left multiplication by e_V on H, which
    must be the perfect square (dim V)^2."""
    chi = regular_character(H)
    degrees = []
    for i, e in enumerate(idempotents):
        t = pair(chi, e)
        q = t.nums[0]
        root = isqrt(q) if t.is_integer() and q >= 0 else None
        if root is None or root * root != q:
            raise HopfkitError(f"non-square block trace at block {i}: {t}")
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
