"""Normalized integrals and the semisimplicity certificate.

The left integral space of H is the exact kernel of the stacked system
h x = eps(h) x over all basis h; the same routine on dualize(H) gives the
left integrals of H*.  Both spaces must be 1-dimensional.  Normalization
fixes <lambda, 1> = 1 and then <lambda, Lambda> = 1; semisimplicity is
certified by eps(Lambda) != 0 and cosemisimplicity by lambda_raw(1) != 0,
each a hard error when it fails.
After normalization <eps, Lambda> = dim H is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IntegralSpaceError, NotSemisimpleError
from .hopf import HopfData, convolve, dualize, pair
from .linalg import Matrix, Vector, kernel_basis, vec_eq, vec_scale
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
    """Kernel basis of {x : b_i x = eps(b_i) x for all i}."""
    d = H.dim
    rows: list[list] = []
    nz = H.mult_nz
    eps = H.counit
    for i in range(d):
        coeff = [[ZERO] * d for _ in range(d)]  # coeff[r][k]
        for k in range(d):
            for r, c in nz[i][k]:
                coeff[r][k] = coeff[r][k] + c
        ei = eps[i]
        if not ei.is_zero():
            for r in range(d):
                coeff[r][r] = coeff[r][r] - ei
        for r in range(d):
            if any(not c.is_zero() for c in coeff[r]):
                rows.append(coeff[r])
    if not rows:
        return [H.basis_vector(k) for k in range(d)]
    return kernel_basis(Matrix(rows))


def compute_integrals(H: HopfData) -> IntegralPair:
    """Solve, certify, and normalize the integral pair of a semisimple H."""
    space = left_integral_space(H)
    if len(space) != 1:
        raise IntegralSpaceError(
            f"left integral space of {H.name} has dimension {len(space)}, expected 1"
        )
    dual_space = left_integral_space(dualize(H))
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


def is_two_sided(H: HopfData, pair_: IntegralPair) -> bool:
    """Check Lambda h = eps(h) Lambda for all basis h (unimodularity witness)."""
    for i in range(H.dim):
        expected = vec_scale(pair_.Lambda, H.counit[i])
        if not vec_eq(H.multiply(pair_.Lambda, H.basis_vector(i)), expected):
            return False
    return True


def integrals_report(H: HopfData, pair_: IntegralPair | None = None) -> VerificationReport:
    """The normalization identities as a verification suite."""
    report = VerificationReport(subject=H.name, dim=H.dim, suite="integrals")
    try:
        p = pair_ if pair_ is not None else compute_integrals(H)
    except (NotSemisimpleError, IntegralSpaceError) as exc:
        report.add("integral-pair", "integral pair exists and normalizes", False, str(exc))
        return report

    from .hopf import format_vector

    v = pair(p.lambda_dual, H.unit)
    report.add("lambda-one", "<lambda, 1> = 1", (v - 1).is_zero(), f"<lambda,1> = {v}")
    v = pair(p.lambda_dual, p.Lambda)
    report.add("lambda-Lambda", "<lambda, Lambda> = 1", (v - 1).is_zero(), f"<lambda,Lambda> = {v}")
    v = pair(H.counit, p.Lambda)
    report.add(
        "eps-Lambda", "<eps, Lambda> = dim H", (v - H.dim).is_zero(), f"<eps,Lambda> = {v}, dim = {H.dim}"
    )
    ok = True
    witness = ""
    for i in range(H.dim):
        lhs = H.multiply(H.basis_vector(i), p.Lambda)
        rhs = vec_scale(p.Lambda, H.counit[i])
        if not vec_eq(lhs, rhs):
            ok = False
            witness = f"b{i} Lambda = {format_vector(lhs)} != eps(b{i}) Lambda"
            break
    report.add("left-absorption", "h Lambda = eps(h) Lambda for all basis h", ok, witness)
    ok = True
    witness = ""
    for i in range(H.dim):
        phi = H.basis_vector(i)
        lhs = convolve(phi, p.lambda_dual, H)
        rhs = vec_scale(p.lambda_dual, pair(phi, H.unit))
        if not vec_eq(lhs, rhs):
            ok = False
            witness = f"phi_{i} lambda != phi_{i}(1) lambda"
            break
    report.add("dual-absorption", "phi lambda = phi(1) lambda for all dual basis phi", ok, witness)
    report.add(
        "two-sided",
        "Lambda h = eps(h) Lambda for all basis h (unimodularity)",
        is_two_sided(H, p),
        "",
    )
    return report
