"""Integral pairs: normalization identities, unimodularity, dual symmetry."""

from fractions import Fraction

import pytest
from conftest import perturbed

from hopfkit import (
    HopfData,
    IntegralPair,
    NotSemisimpleError,
    compute_integrals,
    dualize,
    integrals_report,
    pair,
)
from hopfkit.hopf import regular_character
from hopfkit.linalg import Vector
from hopfkit.scalars import ONE, as_scalar


def test_kc2_exact_values(examples):
    p = compute_integrals(examples["kC2"])
    assert p.Lambda == (ONE, ONE)                 # e + g
    assert p.lambda_dual == (ONE, 0 * ONE)        # delta_e
    assert p.Lambda_scaled == (Fraction(1, 2) * ONE, Fraction(1, 2) * ONE)


def test_ks3_by_direct_absorption(examples):
    h = examples["kS3"]
    p = compute_integrals(h)
    assert all(c == 1 for c in p.Lambda)
    # oracle: h Lambda = eps(h) Lambda for each of the 6 basis elements
    for i in range(6):
        got = h.multiply(Vector.unit(h.dim, i), p.Lambda)
        assert got == p.Lambda.scale(h.counit[i])


def test_normalization_identities_on_every_example(examples):
    for name, h in examples.items():
        p = compute_integrals(h)
        assert pair(p.lambda_dual, h.unit) == 1, name
        assert pair(p.lambda_dual, p.Lambda) == 1, name
        assert pair(h.counit, p.Lambda) == h.dim, name
        two_sided = next(item for item in integrals_report(h, p).items if item.id == "two-sided")
        assert two_sided.passed, name


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
        assert pd.Lambda == p.lambda_dual.scale(h.dim), name


def test_sweedler_not_semisimple(sweedler):
    with pytest.raises(NotSemisimpleError, match=r"sweedler4 is not semisimple: the regular character "
                       r"of H\* is not a left integral \(b2 Lambda != eps\(b2\) Lambda\)"):
        compute_integrals(sweedler)


def test_integrals_report_suite(examples, sweedler):
    h = examples["kQ8"]
    rep = integrals_report(h, compute_integrals(h))
    assert rep.overall and len(rep.items) == 6
    # Sweedler's raw regular-character pair, which compute_integrals rejects:
    # lambda = chi_H / 4, Lambda = chi_H*
    lam, Lam = regular_character(sweedler), regular_character(sweedler.dual)
    quarter = as_scalar(Fraction(1, 4))
    rep = integrals_report(sweedler, IntegralPair(lam.scale(quarter), Lam, Lam.scale(quarter)))
    assert not rep.overall
    got = next(item for item in rep.items if item.id == "left-absorption")
    assert not got.passed
    assert got.witness == "b2 Lambda = (0, 0, 2, -2) != eps(b2) Lambda"


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
    bumped = Vector.of(x + ONE if i in coords else x for i, x in enumerate(v))
    rep = integrals_report(h, replace(p, **{perturb: bumped}))
    got = next(it for it in rep.items if it.id == item)
    assert not got.passed
    assert got.witness == witness


def test_integral_space_dimension_error(examples):
    # corrupt kC2 by zeroing its counit: no integral pair can be certified
    from hopfkit import HopfData

    h = examples["kC2"]
    broken = HopfData("broken", 2, h.mult, h.unit, h.comult, [0, 0], h.antipode)
    with pytest.raises(NotSemisimpleError):
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


def test_integrals_are_the_normalized_regular_characters(examples, monkeypatch):
    # lambda = chi_H / dim H and Lambda = chi_{H*}, with no elimination run;
    # the dense rebase makes every structure constant a general rational
    from test_properties import _DENSE_P, _rebase

    import hopfkit.linalg

    algebras = {**examples, "kS3-dense": _rebase(examples["kS3"], _DENSE_P)}
    algebras.update({f"{name}*": h.dual for name, h in list(algebras.items())})
    calls = []
    reduce = hopfkit.linalg.IncrementalDependency._reduce
    monkeypatch.setattr(hopfkit.linalg.IncrementalDependency, "_reduce",
                        lambda self, vec: calls.append(1) or reduce(self, vec))
    for name, h in algebras.items():
        p = compute_integrals(h)
        assert p.lambda_dual == regular_character(h).scale(Fraction(1, h.dim)), name
        assert p.Lambda == regular_character(h.dual), name
    assert calls == []


def _fraction_rank(rows) -> int:
    """Rank of a list of Fraction rows by plain Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _left_integral_rows(H):
    """The rows (i, r) of the system b_i x - eps(b_i) x = 0, as Fractions."""
    n = H.dim
    rows = {(i, r): [Fraction(0)] * n for i in range(n) for r in range(n)}
    for (i, k, r), c in H.mult.items():
        rows[i, r][k] += c.as_fraction()
    for i, e in enumerate(H.counit):
        for r in range(n):
            rows[i, r][r] -= e.as_fraction()
    return list(rows.values())


def _corruptions(H, count: int, seed: int):
    """``count`` copies of H, each with one entry of mult, comult, unit or
    counit moved by a nonzero rational."""
    import random

    rng = random.Random(seed)
    n = H.dim
    for t in range(count):
        section = rng.choice(("mult", "comult", "unit", "counit"))
        delta = rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)))
        sections = {"mult": dict(H.mult), "comult": dict(H.comult),
                    "unit": list(H.unit), "counit": list(H.counit)}
        entries = sections[section]
        if section in ("unit", "counit"):
            key = rng.randrange(n)
            entries[key] = entries[key] + delta
        else:
            key = tuple(rng.randrange(n) for _ in range(3))
            entries[key] = entries.get(key, 0) + delta
        yield HopfData(f"{H.name}-{t}", n, sections["mult"], sections["unit"], sections["comult"],
                       sections["counit"], H.antipode, H.cyclotomic_order)


@pytest.mark.parametrize("name", ["kC2", "kC3", "kS3", "k^S3", "D(C2)", "sweedler4"])
def test_accepted_corruptions_have_one_dimensional_integral_spaces(examples, sweedler, name):
    # whenever a corrupted input yields a pair, an elimination independent of
    # hopfkit finds both left integral spaces 1-dimensional and containing it
    h = sweedler if name == "sweedler4" else examples[name]
    accepted = 0
    for broken in _corruptions(h, 60, seed=len(name)):
        try:
            p = compute_integrals(broken)
        except NotSemisimpleError:
            continue
        accepted += 1
        for alg, x in ((broken, p.Lambda), (broken.dual, p.lambda_dual)):
            rows = _left_integral_rows(alg)
            assert _fraction_rank(rows) == alg.dim - 1, broken.name
            assert all(sum(c * v.as_fraction() for c, v in zip(row, x)) == 0 for row in rows)
    assert (accepted > 0) == (name != "sweedler4")


def test_cosemisimple_failure_names_first_dual_index(examples):
    # Delta(g) = g (x) g + e (x) e: the regular character of kC2 is 2 phi_0,
    # and phi_0 phi_0 = phi_0 + phi_1 breaks its absorption at phi_0
    broken = perturbed(examples["kC2"], comult={(0, 0, 1): 1})
    with pytest.raises(NotSemisimpleError) as exc:
        compute_integrals(broken)
    assert str(exc.value) == (
        f"{broken.name} is not cosemisimple: the regular character of H is not a left "
        "integral of H* (phi_0 lambda != phi_0(1) lambda)"
    )


# upper triangular 2x2 matrices on E11, E12, E22 with eps(h) = h_11: E11 and
# E12 both absorb, so the left integral space is 2-dimensional
_TRIANGULAR_MULT = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1}
# a product on H* under which chi_H = 2 phi_0 + phi_2 absorbs; its regular
# character is 3 phi_0, or 3/2 phi_0 once phi_0 phi_1 = -phi_1 / 2
_TRIANGULAR_DUAL = {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (2, 0, 2): Fraction(1, 2), (2, 2, 0): 2}


@pytest.mark.parametrize("h,witness", [
    # b0 b0 = 2 b0 with unit b0: both regular characters absorb, but the unit is not one
    (HopfData("dim1", 1, {(0, 0, 0): 2}, [1], {(0, 0, 0): 1}, [2], {(0, 0): 1}),
     "chi_H(1) = dim H fails: chi_H(1) = 2, dim H = 1"),
    (HopfData("T-half", 3, _TRIANGULAR_MULT, [1, 0, 1], {**_TRIANGULAR_DUAL, (0, 1, 1): Fraction(-1, 2)},
              [1, 0, 0], {}),
     "<eps, chi_H*> = dim H fails: <eps, chi_H*> = 3/2, dim H = 3"),
    (HopfData("T", 3, _TRIANGULAR_MULT, [1, 0, 1], _TRIANGULAR_DUAL, [1, 0, 0], {}),
     "<chi_H, chi_H*> = dim H fails: <chi_H, chi_H*> = 6, dim H = 3"),
])
def test_failing_trace_identity_is_named(h, witness):
    with pytest.raises(NotSemisimpleError) as exc:
        compute_integrals(h)
    assert str(exc.value) == f"{h.name}: the trace identity {witness}; data is corrupt"


def test_triangular_integral_space_is_two_dimensional():
    # the oracle behind the last case above: only <chi_H, chi_H*> = dim H
    # stands between this input and an accepted pair
    h = HopfData("T", 3, _TRIANGULAR_MULT, [1, 0, 1], _TRIANGULAR_DUAL, [1, 0, 0], {})
    assert _fraction_rank(_left_integral_rows(h)) == 1
