"""Normalized integrals and the semisimplicity certificate.

In characteristic 0 a semisimple H is also cosemisimple (Larson-Radford,
J. Algebra 117, 1988, "Finite dimensional cosemisimple Hopf algebras in
characteristic 0 are semisimple"), and its integrals are the regular
characters: lambda = chi_H / dim H in H* and Lambda = chi_{H*} in H, where
chi_H = (tr L_{b_a})_a is :func:`~hopfkit.hopf.regular_character` and chi_{H*}
is the same trace on the cached dual H.dual, read in H** = H.  No linear
system is solved.  Each is certified by absorption, a hard error naming the
first failing index: chi_{H*} must satisfy b_i x = eps(b_i) x for every basis
b_i of H ("not semisimple"), and chi_H must satisfy phi_i x = phi_i(1) x for
every dual basis phi_i ("not cosemisimple").  The normalizations
<lambda, 1> = 1, <eps, Lambda> = dim H and <lambda, Lambda> = 1 are then the
three trace identities

    chi_H(1) = dim H,   <eps, chi_{H*}> = dim H,   <chi_H, chi_{H*}> = dim H,

each checked exactly; a failure means corrupt data.

They make both integral spaces 1-dimensional, by a lemma that uses only that
H and H* are associative unital algebras.  That is assumed here, not checked:
``check_axioms`` certifies it, and the ``check-axioms`` and ``report``
subcommands run it, but the ``integrals`` subcommand does not.

* Lambda' = Lambda / dim H is an idempotent: absorption gives
  Lambda' Lambda' = eps(Lambda') Lambda', and eps(Lambda') = 1.  So L_{Lambda'}
  is a projection and rank L_{Lambda'} = tr L_{Lambda'} = chi_H(Lambda')
  = <chi_H, chi_{H*}> / dim H = 1.  Its image Lambda' H consists of left
  integrals, and every left integral x satisfies x = Lambda' x, so the image
  is the left integral space of H.
* Dually lambda is an idempotent of H* (it absorbs and lambda(1) = 1), and
  the left integral space of H* is the image of L_lambda, of dimension
  tr L_lambda = <lambda, chi_{H*}> = 1.

The pair of H* needs no second computation: with H** = H the roles swap, so
H* has lambda* = Lambda / dim H (the rescaled Lambda of H) and
Lambda* = dim H * lambda; :func:`dual_integrals` builds it from the pair of H.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotSemisimpleError
from .hopf import HopfData, format_vector, pair, regular_character
from .linalg import Vector
from .report import VerificationReport
from .scalars import as_scalar


@dataclass
class IntegralPair:
    """lambda in H*, Lambda in H, and the rescaled Lambda' = Lambda / dim H."""

    lambda_dual: Vector
    Lambda: Vector
    Lambda_scaled: Vector


def compute_integrals(H: HopfData) -> IntegralPair:
    """Read and certify the integral pair of a semisimple H off its regular
    characters."""
    lambda_raw = regular_character(H)
    Lambda_raw = regular_character(H.dual)
    i = _absorption_failure(H, Lambda_raw, True)
    if i is not None:
        raise NotSemisimpleError(
            f"{H.name} is not semisimple: the regular character of H* is not a left "
            f"integral (b{i} Lambda != eps(b{i}) Lambda)"
        )
    # the basis of H.dual is the dual basis phi_i, and its counit is phi -> phi(1)
    i = _absorption_failure(H.dual, lambda_raw, True)
    if i is not None:
        raise NotSemisimpleError(
            f"{H.name} is not cosemisimple: the regular character of H is not a left "
            f"integral of H* (phi_{i} lambda != phi_{i}(1) lambda)"
        )
    dim_scalar = as_scalar(H.dim)
    for name, value in (
        ("chi_H(1)", pair(lambda_raw, H.unit)),
        ("<eps, chi_H*>", pair(H.counit, Lambda_raw)),
        ("<chi_H, chi_H*>", pair(lambda_raw, Lambda_raw)),
    ):
        if not (value - dim_scalar).is_zero():
            raise NotSemisimpleError(
                f"{H.name}: the trace identity {name} = dim H fails: {name} = {value}, "
                f"dim H = {H.dim}; data is corrupt"
            )
    inv_dim = dim_scalar.inverse()
    return IntegralPair(
        lambda_dual=lambda_raw.scale(inv_dim),
        Lambda=Lambda_raw,
        Lambda_scaled=Lambda_raw.scale(inv_dim),
    )


def dual_integrals(p: IntegralPair, dim: int) -> IntegralPair:
    """The normalized integral pair of H*, read off the pair ``p`` of H."""
    return IntegralPair(
        lambda_dual=p.Lambda_scaled,
        Lambda=p.lambda_dual.scale(dim),
        Lambda_scaled=p.lambda_dual,
    )


def _times_basis(H: HopfData, x: Vector, i: int, left: bool) -> Vector:
    """b_i x when ``left``, else x b_i, read from the products b_i b_k or b_k b_i
    of the support of x."""
    products = (H.mult_nz if left else H.mult_by_right)[i]
    return Vector.from_terms(H.dim, (
        (r, xk * c) for k, xk in x.nz.items() for r, c in products.get(k, ())
    ))


def _absorption_failure(H: HopfData, x: Vector, left: bool) -> int | None:
    """The first basis index i with b_i x (``left``) or x b_i != eps(b_i) x."""
    scaled: dict[tuple, Vector] = {}  # eps(b_i) x, once per distinct counit value
    for i, e in enumerate(H.counit):
        key = e.key()
        if key not in scaled:
            scaled[key] = x.scale(e)
        if _times_basis(H, x, i, left) != scaled[key]:
            return i
    return None


def integrals_report(H: HopfData, p: IntegralPair) -> VerificationReport:
    """The normalization identities and absorptions of the pair ``p`` of H as a
    verification suite."""
    report = VerificationReport(subject=H.name, dim=H.dim, suite="integrals")
    v = pair(p.lambda_dual, H.unit)
    report.add("lambda-one", "<lambda, 1> = 1", (v - 1).is_zero(), f"<lambda,1> = {v}")
    v = pair(p.lambda_dual, p.Lambda)
    report.add("lambda-Lambda", "<lambda, Lambda> = 1", (v - 1).is_zero(), f"<lambda,Lambda> = {v}")
    v = pair(H.counit, p.Lambda)
    report.add(
        "eps-Lambda", "<eps, Lambda> = dim H", (v - H.dim).is_zero(), f"<eps,Lambda> = {v}, dim = {H.dim}"
    )
    i = _absorption_failure(H, p.Lambda, True)
    witness = ""
    if i is not None:
        lhs = _times_basis(H, p.Lambda, i, True)
        witness = f"b{i} Lambda = {format_vector(lhs)} != eps(b{i}) Lambda"
    report.add("left-absorption", "h Lambda = eps(h) Lambda for all basis h", i is None, witness)
    # the basis of H.dual is the dual basis phi_i, and its counit is phi -> phi(1)
    i = _absorption_failure(H.dual, p.lambda_dual, True)
    witness = "" if i is None else f"phi_{i} lambda != phi_{i}(1) lambda"
    report.add("dual-absorption", "phi lambda = phi(1) lambda for all dual basis phi", i is None, witness)
    i = _absorption_failure(H, p.Lambda, False)
    witness = "" if i is None else f"Lambda b{i} != eps(b{i}) Lambda"
    report.add("two-sided", "Lambda h = eps(h) Lambda for all basis h (unimodularity)", i is None, witness)
    return report
