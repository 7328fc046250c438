"""Verification suites for the integral/character identities.

Each suite re-derives one family of identities on a concrete algebra and
reports exact witnesses:

  lemma1          (dim H/dim V) e_V = (S* chi_V) Lambda   and
                  (dim H/dim V) e_V lambda = chi_V, per block
  corollary       delta_M Lambda = (dim M) chi_M per dual block, and integer
                  non-negative character coordinates for subset idempotents
  proposition     dim V | dim H for blocks with central character, with
                  algebraic-integrality certificates for the central values
                  f_i(S* chi_V)
  section4        f is bijective, by its explicit inverse: f(S(b_k) lambda)
                  = b_k for every k; f(C(H)) = Z(H), since S* permutes the
                  characters, f(S* chi_V) = (dim H/dim V) e_V and r =
                  dim Z(H); f(Z(H*)) = C(H*), since f(delta_M) = (dim M)
                  chi_M and r* = dim Z(H*); and the divisibility-
                  integrality equivalence witnessed on each block
  kaplansky       the degree-divisibility table (findings, never assertions,
                  where the central-character hypothesis fails)
  central-fusion  exploratory: integrality of f on the center of G0(H)

Suites never skip silently: a failed hypothesis becomes an explicit
"skipped" item naming the reason.

Two items are read off identities the suites have just checked, exactly:

  corollary subsets   delta -> delta Lambda is linear, so delta Lambda = sum
                      over M in T of delta_M Lambda for the subset idempotent
                      delta = sum_{M in T} delta_M.  When every single-block
                      item delta_M Lambda = (dim M) chi_M holds, the
                      coordinates of delta Lambda are the multiplicity vector
                      (dim M)_{M in T} with residual 0, so every subset passes
                      and no coordinates are computed.
  section4 closure    lemma1's (dim H/dim V) e_V = (S* chi_V) Lambda =
                      f(S* chi_V) is compared as vectors; when it holds, the
                      e-coordinate vector of f(S* chi_V) is (dim H/dim V)[V],
                      since the e_V are independent, and no decomposition is
                      made.

The rerun rule, as for the Hopf axioms: when the identity fails, the direct
computation runs unchanged, so it names the same witness as before the cut.
For the corollary that is each block's character coordinates and membership
residual, and a sweep of the subsets, whose coordinates and residuals are the
exact sums of those (both are linear, and the characters are independent, so
the coordinates are unique); on a genuine algebra each coordinate vector
holds one entry, so a subset's sum is mostly a merge of disjoint supports.

An integrality certificate is made once per distinct value within one suite
call: the proposition, section4 and central-fusion suites each keep a dict of
certificates, keyed by the canonical form, for the length of the call; nothing
is kept between calls.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .characters import (
    CharacterTable,
    FusionRing,
    central_decomposition,
    dual_characters,
    f_map,
    is_central_character,
)
from .hopf import HopfData, format_vector, hit_act_alg_on_dual, hit_act_dual_on_alg
from .integrals import IntegralPair
from .linalg import Vector, combine, sparse_kernel_basis
from .polys import IntegralityCertificate, format_poly, is_algebraic_integer
from .report import VerificationReport
from .rng import DeterministicRng
from .scalars import CycScalar, as_scalar
from .wedderburn import BlockDecomposition

_SUBSET_BUDGET = 256


def _sparse_sum(dim: int, vectors) -> Vector:
    """Exact entrywise sum of Vectors, adding only where supports overlap."""
    return Vector.from_terms(dim, ((j, x) for vec in vectors for j, x in vec.nz.items()))


def _integrality(a: CycScalar, memo: dict) -> IntegralityCertificate:
    """``is_algebraic_integer(a)``, computed once per value: ``memo`` is a
    dict local to one suite call, keyed by ``a.key()``."""
    key = a.key()
    cert = memo.get(key)
    if cert is None:
        cert = memo[key] = is_algebraic_integer(a)
    return cert


def _subset_failure(coords, residuals, degrees, subsets) -> tuple[str, int]:
    """(witness, subsets checked) of the corollary's subset item, witness ""
    when every subset passes.  ``coords`` and ``residuals`` hold the
    single-block coordinate and residual Vectors; a subset's are their
    sums."""
    # with every single residual 0, no subset can leave the span
    any_residual = any(res.nz for res in residuals)
    for checked, subset in enumerate(subsets):
        if any_residual and _sparse_sum(residuals[0].dim, (residuals[m] for m in subset)).nz:
            return f"delta Lambda left the character span for T = {subset}", checked
        summed = _sparse_sum(len(degrees), (coords[m] for m in subset))
        for m in range(len(degrees)):
            c = summed[m]
            if not c.is_integer() or c.nums[0] < 0:
                return f"non-integer coordinate {c} at block {m} for T = {subset}", checked
            expected = degrees[m] if m in subset else 0
            if c.nums[0] != expected:
                return (
                    f"multiplicity mismatch for T = {subset}: coordinate {m} is {c}, "
                    f"expected dim = {expected}"
                ), checked
    return "", len(subsets)


def _subsets(r: int, seed: int) -> list[tuple[int, ...]]:
    """The corollary's subsets of range(r): all 2^r of them when 2^r <=
    _SUBSET_BUDGET, else _SUBSET_BUDGET seeded draws.  A draw's mask is
    ceil(r/64) words of the generator, low word first, so every block can be
    reached; for r <= 64 it is the single word masked to r bits."""
    if (1 << r) <= _SUBSET_BUDGET:
        masks = list(range(1 << r))
    else:
        rng = DeterministicRng(seed)
        words = -(-r // 64)
        masks = [
            sum(rng.next_u64() << (64 * word) for word in range(words)) & ((1 << r) - 1)
            for _ in range(_SUBSET_BUDGET)
        ]
    return [tuple(m for m in range(r) if mask >> m & 1) for mask in masks]


def verify_lemma1(
    H: HopfData,
    blocks: BlockDecomposition,
    integrals: IntegralPair,
    table: CharacterTable,
) -> VerificationReport:
    report = VerificationReport(subject=H.name, dim=H.dim, suite="lemma1")
    for label, e_v, deg, chi in zip(blocks.labels, blocks.idempotents, blocks.degrees, table.characters):
        ratio = as_scalar(Fraction(H.dim, deg))
        scaled_e = e_v.scale(ratio)

        rhs_a = hit_act_dual_on_alg(H.dual.apply_antipode(chi), integrals.Lambda, H)
        ok_a = scaled_e == rhs_a
        witness_a = (
            f"(dim H/dim V) e_{label} = {format_vector(scaled_e)}"
            if ok_a
            else f"difference = {format_vector(combine((1, -1), (scaled_e, rhs_a), H.dim))}"
        )
        report.add(
            f"{label}-A",
            f"(dim H/dim {label}) e_{label} = (S* chi_{label}) Lambda",
            ok_a,
            witness_a,
        )

        lhs_b = hit_act_alg_on_dual(e_v, integrals.lambda_dual, H).scale(ratio)
        ok_b = lhs_b == chi
        witness_b = (
            f"chi_{label} = {format_vector(chi)}"
            if ok_b
            else f"difference = {format_vector(combine((1, -1), (lhs_b, chi), H.dim))}"
        )
        report.add(
            f"{label}-B",
            f"(dim H/dim {label}) e_{label} lambda = chi_{label}",
            ok_b,
            witness_b,
        )
    return report


def verify_corollary(
    H: HopfData,
    dual_blocks: BlockDecomposition,
    integrals: IntegralPair,
    dual_table: CharacterTable,
    seed: int = 0,
) -> VerificationReport:
    report = VerificationReport(subject=H.name, dim=H.dim, suite="corollary")
    r = dual_blocks.count

    images = []
    for label, delta_m, deg, chi_m in zip(
        dual_blocks.labels, dual_blocks.idempotents, dual_blocks.degrees, dual_table.characters
    ):
        lhs = hit_act_dual_on_alg(delta_m, integrals.Lambda, H)
        images.append(lhs)
        rhs = chi_m.scale(deg)
        ok = lhs == rhs
        report.add(
            f"delta-{label}",
            f"delta_{label} Lambda = (dim {label}) chi_{label}",
            ok,
            f"delta Lambda = {format_vector(lhs)}" if ok else f"expected {format_vector(rhs)}, got {format_vector(lhs)}",
        )

    if len(images) == r and report.overall:
        # every subset passes by linearity (module docstring)
        witness, checked = "", min(1 << r, _SUBSET_BUDGET)
    else:
        solved = [dual_table.solver.coordinates(lhs) for lhs in images]
        witness, checked = _subset_failure(
            [c for c, _ in solved], [res for _, res in solved], dual_blocks.degrees, _subsets(r, seed)
        )
    report.add(
        "subset-idempotents",
        "delta Lambda has non-negative integer character coordinates, equal to the "
        "multiplicity vector (dim M)_{M in T}, for every tested idempotent delta",
        not witness,
        witness or f"{checked} subset idempotents checked",
    )
    return report


def verify_proposition(
    H: HopfData,
    blocks: BlockDecomposition,
    table: CharacterTable,
    dual_blocks: BlockDecomposition,
    dual_table: CharacterTable,
    integrals: IntegralPair,
) -> VerificationReport:
    report = VerificationReport(subject=H.name, dim=H.dim, suite="proposition")
    certs_seen: dict = {}
    for label, deg, chi in zip(blocks.labels, blocks.degrees, table.characters):
        if not is_central_character(chi, H):
            report.add(
                f"{label}-skipped",
                f"chi_{label} is not central in H*: hypothesis not satisfied, skipped",
                True,
                "",
            )
            continue
        divides = H.dim % deg == 0
        report.add(
            f"{label}-divides",
            f"dim {label} = {deg} divides dim H = {H.dim}",
            divides,
            f"{H.dim} = {H.dim // deg} * {deg}" if divides else f"{H.dim} mod {deg} = {H.dim % deg}",
        )

        zeta = H.dual.apply_antipode(chi)
        decomp = central_decomposition(zeta, dual_blocks)
        certs = [_integrality(v, certs_seen) for v in decomp.values]
        ok = all(c.is_integer for c in certs)
        witness = "; ".join(
            f"f_{m}(S*chi) = {v} with min poly {format_poly(c.minimal_polynomial)}"
            for m, (v, c) in enumerate(zip(decomp.values, certs))
        )
        report.add(
            f"{label}-central-values",
            f"every central value f_i(S* chi_{label}) is an algebraic integer",
            ok,
            witness,
        )

        image = hit_act_dual_on_alg(zeta, integrals.Lambda, H)
        coords = dual_table.solver.decompose(image)
        if coords is None:
            report.add(
                f"{label}-coordinates",
                f"(S* chi_{label}) Lambda lies in the span of the H*-characters",
                False,
                "decomposition failed",
            )
            continue
        coord_certs = [_integrality(c, certs_seen) for c in coords]
        coords_ok = all(c.is_integer for c in coord_certs)
        match_ok = all(
            (c - v * dual_blocks.degrees[m]).is_zero()
            for m, (c, v) in enumerate(zip(coords, decomp.values))
        )
        report.add(
            f"{label}-coordinates",
            f"(S* chi_{label}) Lambda has algebraic-integer coordinates in the "
            f"H*-character basis, equal to f_i(S* chi) dim M_i",
            coords_ok and match_ok,
            f"coordinates = {format_vector(coords)}",
        )
    return report


def verify_section4(
    H: HopfData,
    blocks: BlockDecomposition,
    integrals: IntegralPair,
    table: CharacterTable,
    dual_blocks: BlockDecomposition,
    dual_table: CharacterTable,
) -> VerificationReport:
    report = VerificationReport(subject=H.name, dim=H.dim, suite="section4")
    certs_seen: dict = {}

    # f has the explicit right inverse h -> S(h) lambda (Larson-Sweedler, with
    # lambda(Lambda) = 1), so f maps H* onto H, and dim H* = dim H
    def f_of_inverse(k: int):  # f(S(b_k) lambda)
        dual_k = hit_act_alg_on_dual(H.apply_antipode(Vector.unit(H.dim, k)), integrals.lambda_dual, H)
        return f_map(dual_k, integrals, H)

    bad_k = next((k for k in range(H.dim) if f_of_inverse(k) != Vector.unit(H.dim, k)), None)
    report.add(
        "f-bijective",
        "f(phi) = phi Lambda is a linear bijection H* -> H",
        bad_k is None,
        f"rank = dim H = {H.dim}" if bad_k is None else f"f(S(b{bad_k}) lambda) != b{bad_k}",
    )

    # f(S* chi_V) in idempotent coordinates, per block.  S* is injective, and
    # the exact closures keep the characters distinct, so S* permutes them once
    # each image is one; then f(S* chi_V) = (dim H/dim V) e_V carries C(H) onto
    # the span of the r independent central e_V, which is Z(H) when r = dim Z(H)
    duals = dual_characters(table, H)
    # f(S* chi_V) = (dim H/dim V) e_V is compared as vectors first, and
    # decomposed over the e_V only on a mismatch (module docstring)
    closure = []
    for v, ((dual_chi, _), deg) in enumerate(zip(duals, blocks.degrees)):
        image = f_map(dual_chi, integrals, H)
        expected = as_scalar(Fraction(H.dim, deg))
        if image == blocks.idempotents[v].scale(expected):
            coords, exact = Vector(blocks.count, {v: expected}), True
        else:
            coords = blocks.solver.decompose(image)
            exact = coords is not None and coords == Vector(len(coords), {v: expected})
        closure.append((coords, exact))
    witness = next((
        f"S* chi_{label} is not an irreducible character" if w is None
        else f"f(chi_{label}*) != (dim H/dim {label}) e_{label}"
        for label, (_, w), (_, exact) in zip(blocks.labels, duals, closure)
        if w is None or not exact
    ), "")
    r = len(blocks.center_basis)
    if not witness and not table.count == blocks.count == r:
        witness = f"{table.count} characters and {blocks.count} blocks, but dim Z(H) = {r}"
    report.add(
        "f-characters-center",
        "f(C(H)) = Z(H) as exact subspaces",
        not witness,
        witness or f"rank {r} witnessed on both sides",
    )

    # f(delta_M) = (dim M) chi_M carries the r* independent delta_M, a basis of
    # Z(H*) when r* = dim Z(H*), onto nonzero multiples of the characters of H*
    witness = next((
        f"f(delta_{label}) != (dim {label}) chi_{label}"
        for label, delta, deg, chi in zip(
            dual_blocks.labels, dual_blocks.idempotents, dual_blocks.degrees, dual_table.characters
        )
        if f_map(delta, integrals, H) != chi.scale(deg)
    ), "")
    r = len(dual_blocks.center_basis)
    if not witness and not dual_table.count == dual_blocks.count == r:
        witness = f"{dual_table.count} characters and {dual_blocks.count} blocks, but dim Z(H*) = {r}"
    report.add(
        "f-dualcenter-characters",
        "f(Z(H*)) = C(H*) as exact subspaces",
        not witness,
        witness or f"rank {r} witnessed on both sides",
    )

    for v, (label, deg, (coords, exact)) in enumerate(zip(blocks.labels, blocks.degrees, closure)):
        if coords is None:
            report.add(
                f"{label}-closure",
                f"f(chi_{label}*) lies in the span of the idempotents",
                False,
                "decomposition failed",
            )
            continue
        cert = _integrality(coords[v], certs_seen)
        divides = H.dim % deg == 0
        equivalence = cert.is_integer == divides
        report.add(
            f"{label}-closure",
            f"f(chi_{label}*) = (dim H/dim {label}) e_{label}; its e-coordinate is an "
            f"algebraic integer iff dim {label} | dim H",
            exact and equivalence,
            f"coordinate = {coords[v]}, min poly "
            f"{format_poly(cert.minimal_polynomial)}, divides = {divides}",
        )
    return report


def kaplansky_report(
    H: HopfData, blocks: BlockDecomposition, table: CharacterTable
) -> VerificationReport:
    report = VerificationReport(subject=H.name, dim=H.dim, suite="kaplansky")
    for label, deg, chi in zip(blocks.labels, blocks.degrees, table.characters):
        central = is_central_character(chi, H)
        divides = H.dim % deg == 0
        # a central-character block failing divisibility would contradict a
        # proved statement; a non-central one is a finding, not an error
        passed = divides or not central
        report.add(
            label,
            f"dim {label} = {deg}, dim H = {H.dim}, divides: {divides}, "
            f"central character: {central}",
            passed,
            "" if divides else f"{H.dim} mod {deg} = {H.dim % deg}",
        )
    return report


def explore_central_fusion(
    H: HopfData,
    table: CharacterTable,
    blocks: BlockDecomposition,
    integrals: IntegralPair,
    fusion: FusionRing,
) -> VerificationReport:
    report = VerificationReport(
        subject=H.name, dim=H.dim, suite="central-fusion", exploratory=True
    )
    r = table.count
    n = fusion.tensor
    basis = sparse_kernel_basis(r, (
        ((w, u), v, as_scalar(n[v][w][u] - n[w][v][u]))
        for w in range(r) for u in range(r) for v in range(r) if n[v][w][u] != n[w][v][u]
    ))

    # scale each rational kernel vector to a primitive integer vector
    central_elements = []
    for vec in basis:
        denom = lcm(*(c.den for c in vec))
        ints = [c.nums[0] * (denom // c.den) for c in vec]
        g = gcd(*ints)
        if g > 1:
            ints = [n // g for n in ints]
        central_elements.append(ints)

    certs_seen: dict = {}
    report.add(
        "center-rank",
        f"exploratory: the center of G0({H.name}) has rank {len(central_elements)} "
        f"of {r}",
        True,
        "; ".join(str(v) for v in central_elements),
    )

    for t, ints in enumerate(central_elements):
        xi = combine(ints, table.characters, H.dim)
        image = f_map(xi, integrals, H)
        coords = blocks.solver.decompose(image)
        if coords is None:
            report.add(
                f"xi{t}",
                f"exploratory: f(xi_{t}) lies in the span of the e_V",
                False,
                "decomposition failed",
            )
            continue
        certs = [_integrality(c, certs_seen) for c in coords]
        ok = all(c.is_integer for c in certs)
        report.add(
            f"xi{t}",
            f"exploratory: every e_V-coordinate of f(xi_{t}) is an algebraic integer "
            f"(finding, not an assertion)",
            ok,
            f"xi_{t} = {ints} -> coordinates {format_vector(coords)}",
        )
    return report
