"""Integral pairs: normalization identities, unimodularity, dual symmetry."""

from fractions import Fraction

import pytest

from hopfkit import (
    IntegralSpaceError,
    NotSemisimpleError,
    compute_integrals,
    dualize,
    integrals_report,
    is_two_sided,
    pair,
)
from hopfkit.linalg import vec_eq, vec_scale
from hopfkit.scalars import ONE


def test_kc2_exact_values(examples):
    p = compute_integrals(examples["kC2"])
    assert p.Lambda == (ONE, ONE)                 # e + g
    assert p.lambda_dual == (ONE, 0 * ONE)        # delta_e
    assert p.Lambda_scaled == (Fraction(1, 2) * ONE, Fraction(1, 2) * ONE)
    assert p.semisimple and p.cosemisimple


def test_ks3_by_direct_absorption(examples):
    h = examples["kS3"]
    p = compute_integrals(h)
    assert all(c == 1 for c in p.Lambda)
    # oracle: h Lambda = eps(h) Lambda for each of the 6 basis elements
    for i in range(6):
        got = h.multiply(h.basis_vector(i), p.Lambda)
        assert vec_eq(got, vec_scale(p.Lambda, h.counit[i]))


def test_normalization_identities_on_every_example(examples):
    for name, h in examples.items():
        p = compute_integrals(h)
        assert pair(p.lambda_dual, h.unit) == 1, name
        assert pair(p.lambda_dual, p.Lambda) == 1, name
        assert pair(h.counit, p.Lambda) == h.dim, name
        assert is_two_sided(h, p), name


def test_ds3_eps_lambda_is_dim(examples):
    p = compute_integrals(examples["D(S3)"])
    assert pair(examples["D(S3)"].counit, p.Lambda) == 36


def test_dual_symmetry(examples):
    for name in ("kC2", "kS3", "kQ8", "k^Q8", "D(C2)", "D(S3)"):
        h = examples[name]
        p = compute_integrals(h)
        pd = compute_integrals(dualize(h))
        # roles swap: the dual's Lambda is an integral of H*, its lambda of H
        assert pair(pd.lambda_dual, pd.Lambda) == 1
        assert pair(dualize(h).counit, pd.Lambda) == h.dim
        assert pd.lambda_dual == p.Lambda_scaled, name
        assert pd.Lambda == vec_scale(p.lambda_dual, h.dim), name


def test_sweedler_not_semisimple(sweedler):
    with pytest.raises(NotSemisimpleError, match="eps\\(Lambda\\) = 0"):
        compute_integrals(sweedler)


def test_integrals_report_suite(examples, sweedler):
    rep = integrals_report(examples["kQ8"])
    assert rep.overall and len(rep.items) == 6
    rep = integrals_report(sweedler)
    assert not rep.overall


def test_integral_space_dimension_error(examples):
    # direct sum with itself as an algebra-only mangling is not a Hopf algebra;
    # instead corrupt kC2 by zeroing its counit so the integral system degenerates
    from hopfkit import HopfData

    h = examples["kC2"]
    broken = HopfData("broken", 2, h.mult, h.unit, h.comult, [0, 0], h.antipode)
    with pytest.raises((IntegralSpaceError, NotSemisimpleError)):
        compute_integrals(broken)
