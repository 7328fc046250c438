"""Block decompositions: degrees, idempotent systems, determinism, field errors."""

from fractions import Fraction

import pytest

from hopfkit import (
    FieldTooSmallError,
    builtin_group,
    center,
    dualize,
    group_algebra,
    primitive_idempotents,
)
from hopfkit.linalg import vec_eq
from hopfkit.scalars import CycScalar
from hopfkit.wedderburn import blocks_report


def test_center_dimensions(examples):
    assert len(center(examples["kC2"])) == 2
    assert len(center(examples["kS3"])) == 3
    assert len(center(examples["D(S3)"])) == 8


def test_ks3_center_spanned_by_class_sums(examples):
    h = examples["kS3"]
    basis = center(h)
    # oracle: class sums of S3 commute with everything and there are 3 classes
    g = builtin_group("S3")
    classes: list[set[int]] = []
    seen: set[int] = set()
    for i in range(6):
        if i in seen:
            continue
        orbit = {g.table[g.table[a][i]][g.inverses[a]] for a in range(6)}
        classes.append(orbit)
        seen |= orbit
    assert len(classes) == 3 == len(basis)
    from hopfkit.linalg import same_span

    class_sums = [[1 if k in cl else 0 for k in range(6)] for cl in classes]
    assert same_span(class_sums, basis)


DEGREES = {
    "kC2": [1, 1],
    "kC3": [1, 1, 1],
    "kC2xC2": [1, 1, 1, 1],
    "kS3": [1, 1, 2],
    "kD4": [1, 1, 1, 1, 2],
    "kQ8": [1, 1, 1, 1, 2],
    "k^S3": [1, 1, 1, 1, 1, 1],
    "D(C2)": [1, 1, 1, 1],
    "D(S3)": [1, 1, 2, 2, 2, 2, 3, 3],
    "kS3(x)k^C2": [1, 1, 1, 1, 2, 2],
}


@pytest.mark.parametrize("name", sorted(DEGREES))
def test_block_degrees(name, pipelines):
    blocks = pipelines(name).blocks
    assert blocks.degrees == DEGREES[name]
    assert sum(d * d for d in blocks.degrees) == pipelines(name).H.dim


def test_blocks_report_invariants(examples, pipelines):
    for name in ("kS3", "kQ8", "D(S3)"):
        rep = blocks_report(examples[name], pipelines(name).blocks)
        assert rep.overall, name


def test_kc2_idempotents_exact(pipelines):
    blocks = pipelines("kC2").blocks
    half = Fraction(1, 2)
    got = {tuple(c.as_fraction() for c in e) for e in blocks.idempotents}
    assert got == {(half, half), (half, -half)}


def test_kc3_discrete_fourier_idempotents():
    h = group_algebra(builtin_group("C3"))
    blocks = primitive_idempotents(h, order=3)
    assert blocks.degrees == [1, 1, 1]
    # oracle: e_j = (1/3) sum_k zeta^(-jk) g^k
    z = CycScalar.zeta(3)
    expected = []
    for j in range(3):
        expected.append(tuple(Fraction(1, 3) * z ** ((-j * k) % 3) for k in range(3)))
    for e in expected:
        assert any(vec_eq(e, got) for got in blocks.idempotents)


def test_kc3_field_too_small():
    h = group_algebra(builtin_group("C3"))
    with pytest.raises(FieldTooSmallError, match="increase"):
        primitive_idempotents(h, order=1)


def test_same_seed_is_deterministic(examples):
    h = examples["D(S3)"]
    a = primitive_idempotents(h, seed=0)
    b = primitive_idempotents(h, seed=0)
    assert a.degrees == b.degrees and a.labels == b.labels
    for x, y in zip(a.idempotents, b.idempotents):
        assert vec_eq(x, y)


def test_different_seeds_same_idempotent_set(examples):
    h = examples["kQ8"]
    a = primitive_idempotents(h, seed=0)
    b = primitive_idempotents(h, seed=12345)
    assert len(a.idempotents) == len(b.idempotents)
    for e in a.idempotents:
        assert any(vec_eq(e, f) for f in b.idempotents)
    # and the sorted ordering matches exactly
    assert a.degrees == b.degrees
    for x, y in zip(a.idempotents, b.idempotents):
        assert vec_eq(x, y)


def test_dual_block_count_matches_center(examples):
    h = dualize(examples["D(S3)"])
    blocks = primitive_idempotents(h)
    assert blocks.count == len(center(h))
    assert sum(d * d for d in blocks.degrees) == 36


def test_non_semisimple_input_rejected(sweedler):
    from hopfkit import NotSemisimpleError

    with pytest.raises(NotSemisimpleError):
        primitive_idempotents(sweedler)


def test_dim_64_envelope():
    # the largest supported desk-scale family: D(D4), dim 64; the block count
    # and degrees follow from the conjugacy classes of D4 and their
    # centralizers ({e} and {r^2} contribute the five D4 irreps each, the
    # three 2-element classes contribute four degree-2 blocks each)
    from hopfkit import drinfeld_double

    h = drinfeld_double(builtin_group("D4"))
    blocks = primitive_idempotents(h)
    assert sorted(blocks.degrees) == [1] * 8 + [2] * 14
    assert sum(d * d for d in blocks.degrees) == 64


def test_cyclotomic_structure_constants_rejected(examples):
    from hopfkit import HopfData, HopfkitError

    h = examples["kC2"]
    z = CycScalar.zeta(4)
    mult = {**h.mult, (1, 1, 0): z}
    twisted = HopfData("twisted", 2, mult, h.unit, h.comult, h.counit, h.antipode,
                       cyclotomic_order=4)
    with pytest.raises(HopfkitError, match="rational structure constants"):
        primitive_idempotents(twisted)


def test_bad_integral_certificate_rejected(examples):
    from dataclasses import replace

    from hopfkit import HopfkitError, compute_integrals

    for name in ("kS3", "D(C2)"):
        h = examples[name]
        good = compute_integrals(h)
        bad = replace(good, Lambda=tuple(x + y for x, y in zip(good.Lambda, h.basis_vector(1))))
        with pytest.raises(HopfkitError, match="not a left integral"):
            primitive_idempotents(h, integrals=bad)
        assert primitive_idempotents(h, integrals=good).degrees == DEGREES[name]


@pytest.mark.parametrize("dual", [False, True])
def test_idempotents_equal_lagrange_product(examples, monkeypatch, dual):
    import hopfkit.wedderburn as wedderburn

    h = examples["D(S3)"]
    if dual:
        h = dualize(h)
    draws = []
    original = wedderburn._min_poly_on_center

    def recorded(H, z, bound):
        draws.append(z)
        return original(H, z, bound)

    monkeypatch.setattr(wedderburn, "_min_poly_on_center", recorded)
    blocks = primitive_idempotents(h)
    z = draws[-1]  # the accepted splitting element
    # the eigenvalue of z on each block: z e = mu e
    mus = []
    for e in blocks.idempotents:
        ze = h.multiply(z, e)
        k = next(k for k, c in enumerate(e) if not c.is_zero())
        mu = ze[k] / e[k]
        assert vec_eq(ze, tuple(mu * c for c in e))
        mus.append(mu)
    # oracle: e_i = prod_{j != i} (z - mu_j) / (mu_i - mu_j), multiplied out in H
    for i, (e, mu_i) in enumerate(zip(blocks.idempotents, mus)):
        num = h.unit
        denom = 1
        for j, mu_j in enumerate(mus):
            if j != i:
                num = h.multiply(num, tuple(x - mu_j * u for x, u in zip(z, h.unit)))
                denom = denom * (mu_i - mu_j)
        assert vec_eq(e, tuple(c / denom for c in num))
