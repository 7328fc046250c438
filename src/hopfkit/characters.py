"""Irreducible characters, the character algebra, fusion, and the map f.

Characters are *not* read off representation matrices (none are ever built):
each chi_V comes from Masuoka's identity chi_V = (dim H / dim V) e_V lambda,
where e_V hits the integral through the action of H on H*.  The cross-checks
<chi_V, 1> = dim V and <chi_V, e_W> = [V = W] dim V then certify the table, so
a defect in the identity itself could not slip through.

The fusion ring G0 lives on the integer lattice of the characters; its
structure constants are extracted by exact linear solves and must be
non-negative integers.  The linear map f(phi) = phi Lambda transports the
character span onto the center (and the dual center onto the dual character
span); its matrix is invertible for every semisimple input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HopfkitError, InconsistentSystemError
from .hopf import (
    HopfData,
    commutes_with_basis,
    convolve,
    hit_act_alg_on_dual,
    hit_act_dual_on_alg,
    pair,
)
from .integrals import IntegralPair
from .linalg import Matrix, PreparedSolver, Vector, rank, vec_eq, vec_is_zero, vec_scale
from .polys import Poly
from .scalars import CycScalar, ZERO, as_scalar
from .wedderburn import BlockDecomposition


@dataclass
class CharacterTable:
    """Irreducible characters chi_V aligned with the block labels."""

    characters: list[Vector]  # dual vectors
    degrees: list[int]
    labels: list[str]
    dual_pairing: Matrix  # [V][W] = <chi_V, e_W>

    @property
    def count(self) -> int:
        return len(self.characters)


@dataclass
class FusionRing:
    """Structure constants of G0: chi_V chi_W = sum_U n[V][W][U] chi_U."""

    labels: list[str]
    tensor: list[list[list[int]]]
    dual_map: tuple[int, ...]  # V -> V* induced by the dual antipode
    unit_index: int

    def fusion_matrix(self, v: int) -> Matrix:
        """Left multiplication by chi_v on the character basis: M[u][w] = n[v][w][u]."""
        r = len(self.labels)
        return Matrix([[self.tensor[v][w][u] for w in range(r)] for u in range(r)])


@dataclass
class CentralDecomposition:
    """zeta = sum_i f_i(zeta) delta_i over the primitive idempotents of Z(H*)."""

    delta: list[Vector]
    values: list[CycScalar]


def irreducible_characters(H: HopfData, blocks: BlockDecomposition, integrals: IntegralPair) -> CharacterTable:
    """Build the character table from chi_V = (dim H/dim V) e_V lambda and
    certify it against the idempotents."""
    chars: list[Vector] = []
    for label, e_v, deg in zip(blocks.labels, blocks.idempotents, blocks.degrees):
        scale = as_scalar(H.dim) / as_scalar(deg)
        chi = vec_scale(hit_act_alg_on_dual(e_v, integrals.lambda_dual, H), scale)
        value = pair(chi, H.unit)
        if not (value - deg).is_zero():
            raise HopfkitError(
                f"character cross-check failed at block {label}: <chi,1> = {value}, expected {deg}"
            )
        chars.append(chi)
    pairing_rows = []
    for label, chi in zip(blocks.labels, chars):
        row = []
        for w_label, e_w, w_deg in zip(blocks.labels, blocks.idempotents, blocks.degrees):
            val = pair(chi, e_w)
            expected = w_deg if label == w_label else 0
            if not (val - expected).is_zero():
                raise HopfkitError(
                    f"character cross-check failed: <chi_{label}, e_{w_label}> = {val}, "
                    f"expected {expected}"
                )
            row.append(val)
        pairing_rows.append(row)
    return CharacterTable(
        characters=chars,
        degrees=list(blocks.degrees),
        labels=list(blocks.labels),
        dual_pairing=Matrix(pairing_rows),
    )


def is_central_character(chi: Vector, H: HopfData) -> bool:
    """Whether chi commutes with every dual basis vector under convolution."""
    return commutes_with_basis(chi, H.comult_nz)


def fusion_ring(table: CharacterTable, H: HopfData) -> FusionRing:
    """Decompose all character products, certify integrality and the monic
    annihilating polynomial of every chi_V."""
    r = table.count
    solver = PreparedSolver(table.characters)
    tensor: list[list[list[int]]] = [[[0] * r for _ in range(r)] for _ in range(r)]
    for v in range(r):
        for w in range(r):
            product = convolve(table.characters[v], table.characters[w], H)
            coeffs = solver.decompose(product)
            if coeffs is None:
                raise HopfkitError(
                    f"chi_{table.labels[v]} chi_{table.labels[w]} left the character span"
                )
            for u, c in enumerate(coeffs):
                if not c.is_rational():
                    raise HopfkitError("fusion coefficient is irrational")
                q = c.as_fraction()
                if q.denominator != 1 or q < 0:
                    raise HopfkitError(
                        f"fusion coefficient n[{v}][{w}][{u}] = {q} is not a non-negative integer"
                    )
                tensor[v][w][u] = int(q)

    # unit block: the character equal to the counit
    unit_index = next(
        (v for v in range(r) if vec_eq(table.characters[v], H.counit)), None
    )
    if unit_index is None:
        raise HopfkitError("no character equals the counit; table is corrupt")

    # duality permutation from the dual antipode
    dual_map = []
    for v in range(r):
        image = H.apply_dual_antipode(table.characters[v])
        w = next((u for u in range(r) if vec_eq(table.characters[u], image)), None)
        if w is None:
            raise HopfkitError(f"S* chi_{table.labels[v]} is not an irreducible character")
        dual_map.append(w)

    ring = FusionRing(
        labels=list(table.labels), tensor=tensor, dual_map=tuple(dual_map), unit_index=unit_index
    )

    # monic integer witness: the characteristic polynomial of the fusion matrix
    # annihilates chi_V under convolution
    from .linalg import char_min_poly

    for v in range(r):
        charpoly, _ = char_min_poly(ring.fusion_matrix(v))
        if not charpoly.has_integer_coeffs():
            raise HopfkitError(f"fusion characteristic polynomial of {table.labels[v]} not integral")
        if not vec_is_zero(convolution_poly_eval(charpoly, table.characters[v], H)):
            raise HopfkitError(
                f"fusion characteristic polynomial does not annihilate chi_{table.labels[v]}"
            )
    return ring


def convolution_poly_eval(p: Poly, chi: Vector, H: HopfData) -> Vector:
    """Evaluate a polynomial at a dual vector inside (H*, convolution)."""
    acc = tuple(ZERO for _ in range(H.dim))
    power = H.counit  # the unit of H*
    for k in range(p.degree + 1):
        c = p[k]
        if not c.is_zero():
            acc = tuple(a + c * x for a, x in zip(acc, power))
        if k < p.degree:
            power = convolve(power, chi, H)
    return acc


def central_decomposition(zeta: Vector, dual_blocks: BlockDecomposition) -> CentralDecomposition:
    """Coordinates of a central dual vector over the primitive idempotents of
    Z(H*); the reconstruction identity is asserted exactly."""
    solver = PreparedSolver(dual_blocks.idempotents)
    coeffs = solver.decompose(zeta)
    if coeffs is None:
        raise InconsistentSystemError(
            "central vector is not in the span of the dual primitive idempotents"
        )
    recon = [ZERO] * len(zeta)
    for c, delta in zip(coeffs, dual_blocks.idempotents):
        if not c.is_zero():
            recon = [a + c * d for a, d in zip(recon, delta)]
    if not vec_eq(tuple(recon), tuple(zeta)):
        raise HopfkitError("central decomposition failed to reconstruct its input")
    return CentralDecomposition(delta=list(dual_blocks.idempotents), values=list(coeffs))


def f_map(phi: Vector, integrals: IntegralPair, H: HopfData) -> Vector:
    """f(phi) = phi Lambda, the linear map H* -> H."""
    return hit_act_dual_on_alg(phi, integrals.Lambda, H)


def f_matrix(integrals: IntegralPair, H: HopfData) -> Matrix:
    """Matrix of f on the dual basis (columns f(phi_j)); invertible for every
    semisimple input."""
    cols = [f_map(H.basis_vector(j), integrals, H) for j in range(H.dim)]
    return Matrix.from_columns(cols)


def f_is_bijective(integrals: IntegralPair, H: HopfData) -> bool:
    return rank(f_matrix(integrals, H)) == H.dim
