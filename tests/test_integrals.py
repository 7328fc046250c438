"""Integral pairs: normalization identities, unimodularity, dual symmetry."""

from fractions import Fraction

import pytest

from hopfkit import (
    HopfData,
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


def _relabelled(H, perm):
    """H with basis vector b_i renamed b_perm[i]."""
    def move(entries):
        return {tuple(perm[i] for i in key): c for key, c in entries.items()}

    def vec(v):
        out = [0] * H.dim
        for i, c in enumerate(v):
            out[perm[i]] = c
        return out

    return HopfData(f"{H.name}-relabelled", H.dim, move(H.mult), vec(H.unit), move(H.comult),
                    vec(H.counit), move(H.antipode), H.cyclotomic_order)


# kS3 (and kS3 = (k^S3)*) relabelled so that b1 is a reflection t and b2, b5
# are r, tr: then b1 (Lambda + b2 + b5) = Lambda + b2 + b5 while
# (Lambda + b2 + b5) b1 differs, so a left and a right absorption check fail
# first at different indices
_T_FIRST = (0, 2, 3, 1, 4, 5)


@pytest.mark.parametrize("name,item,perturb,coords,witness", [
    ("D(S3)", "dual-absorption", "lambda_dual", (0,), "phi_6 lambda != phi_6(1) lambda"),
    ("k^S3-t", "dual-absorption", "lambda_dual", (2, 5), "phi_2 lambda != phi_2(1) lambda"),
    ("D(S3)", "two-sided", "Lambda", (0,), "Lambda b1 != eps(b1) Lambda"),
    ("kS3-t", "two-sided", "Lambda", (2, 5), "Lambda b1 != eps(b1) Lambda"),
])
def test_failing_absorption_witness_names_first_index(examples, name, item, perturb, coords, witness):
    # adding 1 to some coordinates of an integral leaves the absorption checks
    # a first failing basis index, which the witness must name
    from dataclasses import replace

    h = _relabelled(examples[name[:-2]], _T_FIRST) if name.endswith("-t") else examples[name]
    p = compute_integrals(h)
    v = getattr(p, perturb)
    bumped = tuple(x + ONE if i in coords else x for i, x in enumerate(v))
    rep = integrals_report(h, replace(p, **{perturb: bumped}))
    got = next(it for it in rep.items if it.id == item)
    assert not got.passed
    assert got.witness == witness


def test_integral_space_dimension_error(examples):
    # direct sum with itself as an algebra-only mangling is not a Hopf algebra;
    # instead corrupt kC2 by zeroing its counit so the integral system degenerates
    from hopfkit import HopfData

    h = examples["kC2"]
    broken = HopfData("broken", 2, h.mult, h.unit, h.comult, [0, 0], h.antipode)
    with pytest.raises((IntegralSpaceError, NotSemisimpleError)):
        compute_integrals(broken)


def test_dual_pipeline_pair_matches_direct_solve(examples):
    from dataclasses import fields

    from hopfkit import Pipeline

    for name, h in examples.items():
        got = Pipeline(h).dual.integrals
        # oracle: solve the integral systems of H* from scratch
        want = compute_integrals(dualize(h))
        for f in fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), (name, f.name)


def test_report_solves_integrals_once(examples, monkeypatch):
    import hopfkit.integrals
    import hopfkit.pipeline
    import hopfkit.wedderburn
    from hopfkit import Pipeline

    calls = []

    def counted(H):
        calls.append(H.name)
        return compute_integrals(H)

    for module in (hopfkit.pipeline, hopfkit.wedderburn, hopfkit.integrals):
        monkeypatch.setattr(module, "compute_integrals", counted)
    doc = Pipeline(examples["kS3"]).report_document()
    assert doc["overall"]
    assert calls == [examples["kS3"].name]
