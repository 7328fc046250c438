"""Normalized integrals and the semisimplicity certificate.

The left integral space of H is the exact kernel of the stacked system
h x = eps(h) x over all basis h; the same routine on the cached dual H.dual
gives the left integrals of H*.  Both spaces must be 1-dimensional.
Normalization fixes <lambda, 1> = 1 and then <lambda, Lambda> = 1;
semisimplicity is certified by eps(Lambda) != 0 and cosemisimplicity by
lambda_raw(1) != 0, each a hard error when it fails.
After normalization <eps, Lambda> = dim H is asserted.

The pair of H* needs no second solve: with H** = H the roles swap, so H* has
lambda* = Lambda / dim H (the rescaled Lambda of H) and Lambda* = dim H * lambda;
:func:`dual_integrals` builds it from the pair of H, and semisimplicity and
cosemisimplicity trade places.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IntegralSpaceError, NotSemisimpleError
from .hopf import HopfData, format_vector, pair
from .linalg import Vector, sparse_kernel_basis, vec_eq, vec_scale
from .report import VerificationReport
from .scalars import ZERO, as_scalar


@dataclass
class IntegralPair:
    """lambda in H*, Lambda in H, and the rescaled Lambda' = Lambda / dim H."""

    lambda_dual: Vector
    Lambda: Vector
    Lambda_scaled: Vector
    semisimple: bool
    cosemisimple: bool


def left_integral_space(H: HopfData) -> list[Vector]:
    """Kernel basis of {x : b_i x = eps(b_i) x for all i}: row (i, r) holds
    the coefficients of (b_i x - eps(b_i) x)_r."""

    def entries():
        for (i, k, r), c in H.mult.items():
            yield (i, r), k, c
        for i, e in enumerate(H.counit):
            if not e.is_zero():
                for r in range(H.dim):
                    yield (i, r), r, -e

    return sparse_kernel_basis(H.dim, entries())


def compute_integrals(H: HopfData) -> IntegralPair:
    """Solve, certify, and normalize the integral pair of a semisimple H."""
    space = left_integral_space(H)
    if len(space) != 1:
        raise IntegralSpaceError(
            f"left integral space of {H.name} has dimension {len(space)}, expected 1"
        )
    dual_space = left_integral_space(H.dual)
    if len(dual_space) != 1:
        raise IntegralSpaceError(
            f"left integral space of {H.name}* has dimension {len(dual_space)}, expected 1"
        )
    Lambda_raw = space[0]
    lambda_raw = dual_space[0]

    eps_Lambda = pair(H.counit, Lambda_raw)
    semisimple = not eps_Lambda.is_zero()
    lambda_one = pair(lambda_raw, H.unit)
    cosemisimple = not lambda_one.is_zero()
    if not semisimple:
        raise NotSemisimpleError(f"{H.name} is not semisimple: eps(Lambda) = 0")
    if not cosemisimple:
        raise NotSemisimpleError(f"{H.name} is not cosemisimple: lambda(1) = 0")

    lam = vec_scale(lambda_raw, lambda_one.inverse())
    lam_Lambda = pair(lam, Lambda_raw)
    if lam_Lambda.is_zero():
        raise NotSemisimpleError(f"{H.name}: <lambda, Lambda> = 0, cannot normalize")
    Lambda = vec_scale(Lambda_raw, lam_Lambda.inverse())

    dim_scalar = as_scalar(H.dim)
    if not (pair(H.counit, Lambda) - dim_scalar).is_zero():
        raise NotSemisimpleError(
            f"{H.name}: <eps, Lambda> != dim H after normalization; data is corrupt"
        )
    Lambda_scaled = vec_scale(Lambda, as_scalar(1) / dim_scalar)
    return IntegralPair(
        lambda_dual=lam,
        Lambda=Lambda,
        Lambda_scaled=Lambda_scaled,
        semisimple=semisimple,
        cosemisimple=cosemisimple,
    )


def dual_integrals(p: IntegralPair, dim: int) -> IntegralPair:
    """The normalized integral pair of H*, read off the pair ``p`` of H."""
    return IntegralPair(
        lambda_dual=p.Lambda_scaled,
        Lambda=vec_scale(p.lambda_dual, dim),
        Lambda_scaled=p.lambda_dual,
        semisimple=p.cosemisimple,
        cosemisimple=p.semisimple,
    )


def _times_basis(H: HopfData, x: Vector, i: int, left: bool) -> Vector:
    """b_i x when ``left``, else x b_i, read straight from the product rows."""
    if left:
        pairs = ((x[k], terms) for k, terms in H.mult_nz[i].items())
    else:
        pairs = ((xk, H.mult_nz[k].get(i, ())) for k, xk in enumerate(x))
    out = [ZERO] * H.dim
    for xk, terms in pairs:
        if not xk.is_zero():
            for r, c in terms:
                out[r] = out[r] + xk * c
    return tuple(out)


def _absorption_failure(H: HopfData, x: Vector, left: bool) -> int | None:
    """The first basis index i with b_i x (``left``) or x b_i != eps(b_i) x."""
    scaled: dict[tuple, Vector] = {}  # eps(b_i) x, once per distinct counit value
    for i, e in enumerate(H.counit):
        key = (e.order, e.coords)
        if key not in scaled:
            scaled[key] = vec_scale(x, e)
        if not vec_eq(_times_basis(H, x, i, left), scaled[key]):
            return i
    return None


def left_absorption_failure(H: HopfData, Lambda: Vector) -> int | None:
    """The first basis index i with b_i Lambda != eps(b_i) Lambda, or None when
    Lambda is a left integral."""
    return _absorption_failure(H, Lambda, True)


def is_two_sided(H: HopfData, pair_: IntegralPair) -> bool:
    """Check Lambda h = eps(h) Lambda for all basis h (unimodularity witness)."""
    return _absorption_failure(H, pair_.Lambda, False) is None


def integrals_report(H: HopfData, pair_: IntegralPair | None = None) -> VerificationReport:
    """The normalization identities as a verification suite."""
    report = VerificationReport(subject=H.name, dim=H.dim, suite="integrals")
    try:
        p = pair_ if pair_ is not None else compute_integrals(H)
    except (NotSemisimpleError, IntegralSpaceError) as exc:
        report.add("integral-pair", "integral pair exists and normalizes", False, str(exc))
        return report

    v = pair(p.lambda_dual, H.unit)
    report.add("lambda-one", "<lambda, 1> = 1", (v - 1).is_zero(), f"<lambda,1> = {v}")
    v = pair(p.lambda_dual, p.Lambda)
    report.add("lambda-Lambda", "<lambda, Lambda> = 1", (v - 1).is_zero(), f"<lambda,Lambda> = {v}")
    v = pair(H.counit, p.Lambda)
    report.add(
        "eps-Lambda", "<eps, Lambda> = dim H", (v - H.dim).is_zero(), f"<eps,Lambda> = {v}, dim = {H.dim}"
    )
    i = left_absorption_failure(H, p.Lambda)
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
