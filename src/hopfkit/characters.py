"""Irreducible characters, the character algebra, fusion, and the map f.

Characters are *not* read off representation matrices (none are ever built):
each chi_V comes from Masuoka's identity chi_V = (dim H / dim V) e_V lambda,
where e_V hits the integral through the action of H on H*.  The cross-checks
<chi_V, 1> = dim V and <chi_V, e_W> = [V = W] dim V then certify the table, so
a defect in the identity itself could not slip through.

The fusion ring G0 lives on the integer lattice of the characters; its
structure constants are extracted by exact linear solves and must be
non-negative integers.  Each chi_V is then witnessed by its minimal
polynomial (:func:`~hopfkit.linalg.minimal_polynomial`), the first linear
dependency among the integer vectors N_V^k e_1, where N_V is multiplication by
chi_V in character coordinates, read off the fusion tensor and never stored as
a matrix.  The polynomial divides the characteristic polynomial of N_V, so by
Gauss's lemma its coefficients must be integers, and it must annihilate chi_V
under convolution.

Half the products are read off a theorem.  Given the Hopf axioms, the
antipode reverses products (Sweedler 1969), so S* is an anti-automorphism of
(H*, convolution): chi_{W*} chi_{V*} = S*(chi_V chi_W), hence n[W*][V*][U*] =
n[V][W][U], where S* chi_V = chi_{V*} defines the duality permutation, which
is certified by exact comparison.  When the caller's axiom report passed, one
product per pair {(V, W), (W*, V*)} is formed and decomposed and the other
row is read off; when it failed, or none is given, every product is formed,
as ``comult-alg-map`` uses its Lemma 2 only once ``assoc`` passed.  The
integrality, minimal-polynomial and annihilation checks still run on every
chi_V, but they do not re-prove a mirrored row: a wrong permutation that
mirrors Z[S3] as if it were commutative passes them, since left and right
multiplication by chi_V have the same minimal polynomial.  The mirrored half
rests on the axioms.

The linear map f(phi) = phi Lambda transports the character span onto the
center (and the dual center onto the dual character span).  It is a bijection
H* -> H with the explicit inverse h -> S(h) lambda when lambda(Lambda) = 1
(Larson-Sweedler), so no matrix of f is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from .linalg import PreparedSolver, Vector, combine, minimal_polynomial
from .polys import Poly
from .report import VerificationReport
from .scalars import CycScalar, as_scalar
from .wedderburn import BlockDecomposition


@dataclass
class CharacterTable:
    """Irreducible characters chi_V aligned with the block labels."""

    characters: list[Vector]  # dual vectors
    degrees: list[int]
    labels: list[str]

    @property
    def count(self) -> int:
        return len(self.characters)

    @cached_property
    def solver(self) -> PreparedSolver:
        return PreparedSolver(self.characters)


@dataclass
class FusionRing:
    """Structure constants of G0: chi_V chi_W = sum_U n[V][W][U] chi_U."""

    labels: list[str]
    tensor: list[list[list[int]]]
    dual_map: tuple[int, ...]  # V -> V* induced by the dual antipode
    unit_index: int


@dataclass
class CentralDecomposition:
    """zeta = sum_i values[i] delta_i, where delta_i are the primitive
    idempotents of Z(H*) in the order of ``dual_blocks.idempotents``."""

    values: list[CycScalar]


def irreducible_characters(H: HopfData, blocks: BlockDecomposition, integrals: IntegralPair) -> CharacterTable:
    """Build the character table from chi_V = (dim H/dim V) e_V lambda and
    certify it against the idempotents."""
    chars: list[Vector] = []
    for label, e_v, deg in zip(blocks.labels, blocks.idempotents, blocks.degrees):
        scale = as_scalar(H.dim) / as_scalar(deg)
        chi = hit_act_alg_on_dual(e_v, integrals.lambda_dual, H).scale(scale)
        value = pair(chi, H.unit)
        if not (value - deg).is_zero():
            raise HopfkitError(
                f"character cross-check failed at block {label}: <chi,1> = {value}, expected {deg}"
            )
        chars.append(chi)
    for label, chi in zip(blocks.labels, chars):
        for w_label, e_w, w_deg in zip(blocks.labels, blocks.idempotents, blocks.degrees):
            val = pair(chi, e_w)
            expected = w_deg if label == w_label else 0
            if not (val - expected).is_zero():
                raise HopfkitError(
                    f"character cross-check failed: <chi_{label}, e_{w_label}> = {val}, "
                    f"expected {expected}"
                )
    return CharacterTable(
        characters=chars,
        degrees=list(blocks.degrees),
        labels=list(blocks.labels),
    )


def dual_characters(table: CharacterTable, H: HopfData) -> list[tuple[Vector, int | None]]:
    """(S* chi_V, index of the character it equals, or None) for each chi_V."""
    out = []
    for chi in table.characters:
        image = H.dual.apply_antipode(chi)
        w = next((u for u, other in enumerate(table.characters) if other == image), None)
        out.append((image, w))
    return out


def is_central_character(chi: Vector, H: HopfData) -> bool:
    """Whether chi commutes with every dual basis vector under convolution."""
    return commutes_with_basis(chi, H.dual)


def fusion_ring(
    table: CharacterTable, H: HopfData, axioms: VerificationReport | None = None
) -> FusionRing:
    """Decompose the character products, certify integrality and the monic
    annihilating polynomial of every chi_V.  ``axioms`` is H's Hopf-axiom
    report: when it passed, half the products are read off by S* (module
    docstring); when it failed or is None, every product is formed."""
    r = table.count
    duals = [w for _, w in dual_characters(table, H)]
    mirror = axioms is not None and axioms.overall and None not in duals
    tensor: list[list[list[int] | None]] = [[None] * r for _ in range(r)]
    for v in range(r):
        for w in range(r):
            if tensor[v][w] is not None:
                continue
            product = convolve(table.characters[v], table.characters[w], H)
            coeffs = table.solver.decompose(product)
            if coeffs is None:
                raise HopfkitError(
                    f"chi_{table.labels[v]} chi_{table.labels[w]} left the character span"
                )
            row = [0] * r
            for u, c in sorted(coeffs.nz.items()):
                if not c.is_rational():
                    raise HopfkitError("fusion coefficient is irrational")
                if not c.is_integer() or c.nums[0] < 0:
                    raise HopfkitError(
                        f"fusion coefficient n[{v}][{w}][{u}] = {c} is not a non-negative integer"
                    )
                row[u] = c.nums[0]
            tensor[v][w] = row
            if mirror and tensor[duals[w]][duals[v]] is None:
                image = [0] * r
                for u, n in enumerate(row):
                    image[duals[u]] = n
                tensor[duals[w]][duals[v]] = image

    # unit block: the character equal to the counit
    unit_index = next(
        (v for v in range(r) if table.characters[v] == H.counit), None
    )
    if unit_index is None:
        raise HopfkitError("no character equals the counit; table is corrupt")

    # duality permutation from the dual antipode
    for v, w in enumerate(duals):
        if w is None:
            raise HopfkitError(f"S* chi_{table.labels[v]} is not an irreducible character")

    ring = FusionRing(
        labels=list(table.labels), tensor=tensor, dual_map=tuple(duals), unit_index=unit_index
    )

    # monic integer witness: the minimal polynomial of chi_V, from the first
    # linear dependency among chi_V^k = N_v^k e_unit in character coordinates
    for v in range(r):
        n_v = tensor[v]
        minpoly, _ = minimal_polynomial(Vector.unit(r, unit_index), lambda power: Vector.from_terms(r, (
            (u, x * n) for w, x in power.nz.items() for u, n in enumerate(n_v[w]) if n
        )))
        if not minpoly.has_integer_coeffs():
            raise HopfkitError(f"fusion minimal polynomial of {table.labels[v]} not integral")
        if convolution_poly_eval(minpoly, table.characters[v], H).nz:
            raise HopfkitError(
                f"fusion minimal polynomial does not annihilate chi_{table.labels[v]}"
            )
    return ring


def convolution_poly_eval(p: Poly, chi: Vector, H: HopfData) -> Vector:
    """Evaluate a polynomial at a dual vector inside (H*, convolution)."""
    powers = [H.counit]  # the unit of H*
    for _ in range(p.degree):
        powers.append(convolve(powers[-1], chi, H))
    return combine((p[k] for k in range(p.degree + 1)), powers, H.dim)


def central_decomposition(zeta: Vector, dual_blocks: BlockDecomposition) -> CentralDecomposition:
    """Coordinates of a central dual vector over the primitive idempotents of
    Z(H*); the reconstruction identity is asserted exactly."""
    coeffs = dual_blocks.solver.decompose(zeta)
    if coeffs is None:
        raise InconsistentSystemError(
            "central vector is not in the span of the dual primitive idempotents"
        )
    if combine(coeffs, dual_blocks.idempotents, len(zeta)) != zeta:
        raise HopfkitError("central decomposition failed to reconstruct its input")
    return CentralDecomposition(values=list(coeffs))


def f_map(phi: Vector, integrals: IntegralPair, H: HopfData) -> Vector:
    """f(phi) = phi Lambda, the linear map H* -> H."""
    return hit_act_dual_on_alg(phi, integrals.Lambda, H)
