"""Block decompositions: degrees, idempotent systems, determinism, field errors."""

import re
from fractions import Fraction

import pytest

from hopfkit import (
    FieldTooSmallError,
    HopfkitError,
    Pipeline,
    builtin_group,
    center,
    drinfeld_double,
    dualize,
    function_algebra,
    group_algebra,
    primitive_idempotents,
)
from hopfkit.linalg import Vector, combine
from hopfkit.polys import format_poly
from hopfkit.scalars import CycScalar, as_scalar
from hopfkit.wedderburn import BlockDecomposition, _verify_idempotent_system, blocks_report


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
    # free-column lemma: a central p equals the basis combined with p's entries
    # at the free columns; the class sums have disjoint supports, so they are
    # 3 independent elements of Z(kS3) and span it
    free = [max(i for i, x in enumerate(z) if x) for z in basis]
    for cl in classes:
        class_sum = tuple(as_scalar(int(k in cl)) for k in range(6))
        assert combine([class_sum[c] for c in free], basis, 6) == class_sum


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
        assert any(e == got for got in blocks.idempotents)


def test_kc3_field_too_small():
    h = group_algebra(builtin_group("C3"))
    # z0 = 1 has minimal polynomial x - 1; z1 = g has x^3 - 1
    with pytest.raises(
        FieldTooSmallError, match=r"element z1 .* factor x\^2 \+ x \+ 1, .* Q\(zeta_1\); increase"
    ):
        primitive_idempotents(h, order=1)


def test_refinement_short_of_center_dimension_raises(examples, monkeypatch):
    import hopfkit.wedderburn as wedderburn

    # r copies of the unit cannot split anything: the refinement stays at [1]
    monkeypatch.setattr(wedderburn, "center", lambda H, rows=None: [H.unit] * 3)
    with pytest.raises(HopfkitError, match=r"z0\.\.z2 gave 1 idempotents, not dim Z\(H\) = 3"):
        primitive_idempotents(examples["kS3"])


def test_same_seed_is_deterministic(examples):
    h = examples["D(S3)"]
    a = Pipeline(h, seed=0).blocks
    b = Pipeline(h, seed=0).blocks
    assert a.degrees == b.degrees and a.labels == b.labels
    for x, y in zip(a.idempotents, b.idempotents):
        assert x == y


def test_different_seeds_same_idempotent_set(examples):
    h = examples["kQ8"]
    a = Pipeline(h, seed=0).blocks
    b = Pipeline(h, seed=12345).blocks
    assert len(a.idempotents) == len(b.idempotents)
    for e in a.idempotents:
        assert any(e == f for f in b.idempotents)
    # and the sorted ordering matches exactly
    assert a.degrees == b.degrees
    for x, y in zip(a.idempotents, b.idempotents):
        assert x == y


def test_dual_block_count_matches_center(examples):
    h = dualize(examples["D(S3)"])
    blocks = primitive_idempotents(h)
    assert blocks.count == len(center(h))
    assert sum(d * d for d in blocks.degrees) == 36


def test_non_semisimple_input_rejected(sweedler):
    # both routes to blocks certify first; neither returns a block of Sweedler's H4
    from hopfkit import NotSemisimpleError, Pipeline

    with pytest.raises(NotSemisimpleError):
        primitive_idempotents(sweedler)
    with pytest.raises(NotSemisimpleError):
        Pipeline(sweedler).blocks


def test_dim_64_envelope():
    # the largest supported desk-scale family: D(D4), dim 64; the block count
    # and degrees follow from the conjugacy classes of D4 and their
    # centralizers ({e} and {r^2} contribute the five D4 irreps each, the
    # three 2-element classes contribute four degree-2 blocks each)
    h = drinfeld_double(builtin_group("D4"))
    blocks = primitive_idempotents(h)
    assert sorted(blocks.degrees) == [1] * 8 + [2] * 14
    assert sum(d * d for d in blocks.degrees) == 64


def test_cyclotomic_structure_constants_rejected(examples):
    from hopfkit import HopfData

    h = examples["kC2"]
    z = CycScalar.zeta(4)
    mult = {**h.mult, (1, 1, 0): z}
    twisted = HopfData("twisted", 2, mult, h.unit, h.comult, h.counit, h.antipode,
                       cyclotomic_order=4)
    with pytest.raises(HopfkitError, match="rational structure constants"):
        primitive_idempotents(twisted)


GROUP_DEGREES = {
    "C2": [1, 1],
    "C3": [1, 1, 1],
    "C4": [1, 1, 1, 1],
    "C2xC2": [1, 1, 1, 1],
    "S3": [1, 1, 2],
    "D4": [1, 1, 1, 1, 2],
    "Q8": [1, 1, 1, 1, 2],
}


# -- an oracle for doubles that shares no code with wedderburn ------------------
# The irreducibles of D(G) are indexed by a conjugacy class C, g in C, and an
# irreducible rho of the centraliser C_G(g); their degree is |C| dim rho
# (Dijkgraaf-Pasquier-Roche 1990).  For the groups of order <= 8 the degrees
# of a group follow from its order and class count alone: an abelian group has
# only linear characters, and the non-abelian ones are S3 (6, 3 classes) and
# D4, Q8 (8, 5 classes).

_NON_ABELIAN_DEGREES = {(6, 3): [1, 1, 2], (8, 5): [1, 1, 1, 1, 2]}


def _conjugacy_classes(g, members: list[int]) -> list[set[int]]:
    classes: list[set[int]] = []
    for x in members:
        if not any(x in c for c in classes):
            classes.append({g.mul(g.mul(a, x), g.inv(a)) for a in members})
    return classes


def _group_degrees(g, members: list[int]) -> list[int]:
    order, count = len(members), len(_conjugacy_classes(g, members))
    return [1] * order if count == order else _NON_ABELIAN_DEGREES[order, count]


def _double_degrees(g) -> list[int]:
    degrees = []
    for cls in _conjugacy_classes(g, list(range(g.order))):
        x = min(cls)
        centraliser = [a for a in range(g.order) if g.mul(a, x) == g.mul(x, a)]
        degrees += [len(cls) * d for d in _group_degrees(g, centraliser)]
    return sorted(degrees)


@pytest.mark.parametrize("group", sorted(GROUP_DEGREES))
def test_double_blocks_follow_the_centralisers(group):
    g = builtin_group(group)
    assert _group_degrees(g, list(range(g.order))) == GROUP_DEGREES[group]
    degrees = _double_degrees(g)
    assert sum(d * d for d in degrees) == g.order ** 2
    assert primitive_idempotents(drinfeld_double(g)).degrees == degrees


@pytest.mark.parametrize("group", sorted(GROUP_DEGREES))
def test_double_dual_blocks_are_group_blocks_repeated(group):
    # D(G) is the tensor coalgebra k^G (x) kG, so D(G)* is the algebra
    # kG (x) k^G: each block degree of kG, repeated |G| times
    g = builtin_group(group)
    blocks = primitive_idempotents(dualize(drinfeld_double(g)))
    assert blocks.degrees == sorted(GROUP_DEGREES[group] * g.order)


@pytest.mark.parametrize("dual", [False, True])
def test_idempotents_equal_lagrange_product(examples, dual):
    from hopfkit.linalg import combine
    from hopfkit.rng import DeterministicRng

    h = examples["D(S3)"]
    if dual:
        h = dualize(h)
    blocks = primitive_idempotents(h)
    zbasis = center(h)
    r = len(zbasis)

    def eigenvalues(z):
        # z e = mu e on each block e
        mus = []
        for e in blocks.idempotents:
            ze = h.multiply(z, e)
            k = next(k for k, c in enumerate(e) if not c.is_zero())
            mu = ze[k] / e[k]
            assert ze == tuple(mu * c for c in e)
            mus.append(mu)
        return mus

    # a splitting element: a seeded combination of the center basis whose
    # minimal polynomial has degree r, that is, whose r block eigenvalues are
    # pairwise distinct
    rng = DeterministicRng(7)
    for _ in range(20):
        z = combine([rng.randint(-r, r) for _ in range(r)], zbasis, h.dim)
        mus = eigenvalues(z)
        if all(not (a - b).is_zero() for i, a in enumerate(mus) for b in mus[i + 1:]):
            break
    else:
        pytest.fail("no splitting element in 20 draws")
    # oracle: e_i = prod_{j != i} (z - mu_j) / (mu_i - mu_j), multiplied out in H
    for i, (e, mu_i) in enumerate(zip(blocks.idempotents, mus)):
        num = h.unit
        denom = 1
        for j, mu_j in enumerate(mus):
            if j != i:
                num = h.multiply(num, combine((1, -mu_j), (z, h.unit), h.dim))
                denom = denom * (mu_i - mu_j)
        assert e == tuple(c / denom for c in num)



def _ks3_bad_systems(h):
    """Systems in kS3 that the certificate must reject, each with the witness
    it must give.  Basis index 0 is the identity; 3 and 4 are reflections."""

    def vec(coeffs):
        return Vector.of(coeffs.get(g, 0) for g in range(h.dim))

    def unit_minus(*vs):
        return combine((1,) + (-1,) * len(vs), (h.unit, *vs), h.dim)

    half = Fraction(1, 2)
    s = vec({3: 1})
    e = vec({0: half, 3: half})  # (1 + s) / 2
    f = vec({0: half, 4: half})  # (1 + t) / 2, and e f != 0
    genuine = primitive_idempotents(h).idempotents
    return [
        ([s, unit_minus(s)], r"^idempotent 0 does not square to itself: e0\^2 = "),
        ([e, unit_minus(e)], r"^idempotent 0 is not central$"),
        # 1 - e - f is not idempotent because e f + f e != 0
        ([e, f, unit_minus(e, f)], r"^idempotent 2 does not square to itself: "),
        (genuine[:-1], r"^idempotents do not sum to the unit$"),
    ]


@pytest.mark.parametrize("case", range(4))
def test_bad_idempotent_systems_rejected_with_named_witness(examples, case):
    h = examples["kS3"]
    system, witness = _ks3_bad_systems(h)[case]
    with pytest.raises(HopfkitError, match=witness):
        _verify_idempotent_system(h, system)
    labels = [f"V{i}" for i in range(len(system))]
    blocks = BlockDecomposition(center(h), system, [1] * len(system), labels)
    item = next(i for i in blocks_report(h, blocks).items if i.id == "idempotent-system")
    assert not item.passed
    assert re.search(witness, item.witness)


@pytest.mark.parametrize("name", ["kS3", "D(S3)"])
def test_passing_system_costs_r_products_and_one_sweep(examples, pipelines, monkeypatch, name):
    import hopfkit.wedderburn as wedderburn
    from hopfkit import HopfData

    h = examples[name]
    idempotents = pipelines(name).blocks.idempotents
    calls = {"multiply": 0, "sweep": 0}
    multiply, sweep = HopfData.multiply, wedderburn.commutes_with_basis

    def counted_multiply(self, a, b):
        calls["multiply"] += 1
        return multiply(self, a, b)

    def counted_sweep(x, by_output):
        calls["sweep"] += 1
        return sweep(x, by_output)

    monkeypatch.setattr(HopfData, "multiply", counted_multiply)
    monkeypatch.setattr(wedderburn, "commutes_with_basis", counted_sweep)
    wedderburn._verify_idempotent_system(h, idempotents)
    assert calls == {"multiply": len(idempotents), "sweep": 1}


def _count_factorisations(monkeypatch, split):
    """Run split() with wedderburn's minimal polynomials and factor calls
    recorded; returns (distinct minimal polynomials, factor_rational
    arguments, factor_over_cyclotomic arguments)."""
    import hopfkit.wedderburn as wedderburn

    seen = {"min": [], "rational": [], "cyclotomic": []}
    min_poly, rational, cyclotomic = (
        wedderburn._min_poly_on_center, wedderburn.factor_rational, wedderburn.factor_over_cyclotomic
    )

    def recorded(key, fn):
        def wrapper(*args):
            out = fn(*args)
            seen[key].append(out[0] if key == "min" else args[0])
            return out
        return wrapper

    monkeypatch.setattr(wedderburn, "_min_poly_on_center", recorded("min", min_poly))
    monkeypatch.setattr(wedderburn, "factor_rational", recorded("rational", rational))
    monkeypatch.setattr(wedderburn, "factor_over_cyclotomic", recorded("cyclotomic", cyclotomic))
    split()
    return {format_poly(p) for p in seen["min"]}, seen["rational"], seen["cyclotomic"]


@pytest.mark.parametrize("dual,distinct", [(False, 5), (True, 3)])
def test_one_factorisation_per_distinct_minimal_polynomial(examples, monkeypatch, dual, distinct):
    h = dualize(examples["D(S3)"]) if dual else examples["D(S3)"]
    polys, factored, _ = _count_factorisations(monkeypatch, lambda: primitive_idempotents(h))
    assert len(polys) == distinct
    assert len(factored) == distinct
    assert {format_poly(p) for p in factored} == polys
    # the memo lives in one call: a second call factors everything again
    _, factored, _ = _count_factorisations(
        monkeypatch, lambda: (primitive_idempotents(h), primitive_idempotents(h))
    )
    assert len(factored) == 2 * distinct


def test_repeated_cyclotomic_factor_is_split_once(monkeypatch):
    # D(C3) meets x^2 + x + 1 in several center basis elements
    h = drinfeld_double(builtin_group("C3"))
    _, _, trager = _count_factorisations(monkeypatch, lambda: primitive_idempotents(h))
    assert len(trager) == 1 and format_poly(trager[0]) == "x^2 + x + 1"


def test_field_too_small_names_first_failing_element_with_memo(monkeypatch):
    h = group_algebra(builtin_group("C3"))
    with pytest.raises(FieldTooSmallError, match=r"element z1 .* factor x\^2 \+ x \+ 1"):
        _count_factorisations(monkeypatch, lambda: primitive_idempotents(h, order=1))


def test_report_runs_five_absorption_sweeps(examples, monkeypatch):
    # compute_integrals certifies both sides (2 sweeps) and the integrals suite
    # reports left, dual and two-sided absorption (3); the blocks stages of H
    # and H* rely on the integrals stage instead of sweeping again
    import hopfkit.integrals as integrals

    sweeps = []
    absorption = integrals._absorption_failure

    def counted(H, x, left):
        sweeps.append(H.name)
        return absorption(H, x, left)

    monkeypatch.setattr(integrals, "_absorption_failure", counted)
    Pipeline(examples["D(S3)"]).report_document()
    assert len(sweeps) == 5


@pytest.mark.parametrize("dual", [False, True])
def test_split_dependency_vectors_have_center_length(examples, monkeypatch, dual):
    from hopfkit.linalg import IncrementalDependency

    h = dualize(examples["D(S3)"]) if dual else examples["D(S3)"]
    lengths = []
    add = IncrementalDependency.add

    def counted(self, vec):
        lengths.append(len(vec))
        return add(self, vec)

    monkeypatch.setattr(IncrementalDependency, "add", counted)
    primitive_idempotents(h)
    assert lengths and set(lengths) == {len(center(h))} and len(center(h)) < h.dim


# -- dim 576: D(S4) and D(S4)*, pinned by digest ---------------------------------
# Recorded before the centre kernel kept only the generating rows and before
# the refinement skipped the products of idempotents that are eigenvectors, so
# the split's output is pinned across both.  S4 is not a built-in group.

_S4_SPLITS = {
    False: ({1: 2, 2: 1, 3: 6, 6: 9, 8: 3},
            "843861f22367e2c4c9368d258e0035b8d7624515b3e663b4eace5f81f9ecbea9"),
    True: ({1: 48, 2: 24, 3: 48},
           "235194247c2c1478a7a1bd342fb97cdde7772fd41e33c698deafefe2eb7ecf0c"),
}


@pytest.mark.parametrize("generating", [False, True])
@pytest.mark.parametrize("dual", [False, True])
def test_double_of_s4_blocks_are_pinned(dual, generating):
    # both centre kernels: on every row, and on the generating rows that a
    # report uses once its axioms stage has passed
    import hashlib
    import itertools
    from collections import Counter

    from hopfkit.groups import _from_permutations
    from hopfkit.hopf import format_vector
    from hopfkit.wedderburn import _split_center

    s4 = _from_permutations("S4", {"".join(map(str, p)): p for p in itertools.permutations(range(4))})
    h = drinfeld_double(s4)
    if dual:
        h = dualize(h)
    rows = h.generating_rows if generating else None
    if generating:
        assert len(rows) == (72 if dual else 90)
    blocks = _split_center(h, h.cyclotomic_order, rows)
    degrees, digest = _S4_SPLITS[dual]
    assert dict(Counter(blocks.degrees)) == degrees
    lines = (f"{label} {deg} {format_vector(e)}\n"
             for label, deg, e in zip(blocks.labels, blocks.degrees, blocks.idempotents))
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest



# -- the centre on generating rows ----------------------------------------------


def _sides():
    """kG, k^G, D(G) and D(G)* of every built-in group, each with the
    generating rows of its product, found afresh from its tensor."""
    from hopfkit.axioms import _generating_rows

    for group in sorted(GROUP_DEGREES):
        g = builtin_group(group)
        double = drinfeld_double(g)
        for h in (group_algebra(g), function_algebra(g), double, double.dual):
            yield h, _generating_rows(h.dim, h.mult)


def test_center_on_generating_rows_is_the_center_on_every_row():
    cut = 0
    for h, rows in _sides():
        assert rows == h.generating_rows, h.name
        basis = center(h, rows)
        assert basis == center(h), h.name
        assert [max(z.nz) for z in basis] == [max(z.nz) for z in center(h)], h.name
        cut += len(rows) < h.dim
    assert cut  # the doubles keep fewer rows than their dimension


def _center_rows_seen(monkeypatch):
    import hopfkit.wedderburn as wedderburn

    seen = []
    original = wedderburn.center

    def recorded(H, rows=None):
        seen.append((H.name, rows))
        return original(H, rows)

    monkeypatch.setattr(wedderburn, "center", recorded)
    return seen


def test_blocks_use_generating_rows_only_once_the_axioms_have_passed(examples, monkeypatch):
    h = examples["D(S3)"]
    seen = _center_rows_seen(monkeypatch)
    alone = Pipeline(h)  # no axioms stage: every row, on both sides
    alone.blocks, alone.dual.blocks
    assert seen == [(h.name, None), (h.dual.name, None)]
    seen.clear()
    checked = Pipeline(h)
    checked.axioms
    checked.blocks, checked.dual.blocks
    assert seen == [(h.name, h.generating_rows), (h.dual.name, h.dual.generating_rows)]
    assert (len(h.generating_rows), len(h.dual.generating_rows)) == (14, 12)


@pytest.mark.parametrize("section,item", [("mult", "assoc"), ("comult", "coassoc")])
def test_blocks_use_every_row_when_the_axiom_fails(monkeypatch, section, item):
    # D(C2) with one product term (or one coproduct term) removed: the axioms
    # stage runs and fails ``assoc`` (or ``coassoc``), and the integrals still
    # pass, so the split reaches the centre on every row before it fails
    from conftest import perturbed

    h = drinfeld_double(builtin_group("C2"))
    key = (3, 2, 3) if section == "mult" else (3, 1, 3)
    p = Pipeline(perturbed(h, **{section: {key: 0}}))
    assert not next(i for i in p.axioms.items if i.id == item).passed
    seen = _center_rows_seen(monkeypatch)
    with pytest.raises(HopfkitError):
        p.blocks if section == "mult" else p.dual.blocks
    assert [rows for _, rows in seen] == [None]


def test_report_reaches_the_traced_split_functions(examples, monkeypatch):
    # perfbench rebinds wedderburn.center and wedderburn._min_poly_on_center
    # as module globals to time the centre and count refinement steps; a
    # report must still reach both through them
    import hopfkit.wedderburn as wedderburn

    calls = {"center": 0, "min": 0}
    center_fn, min_poly = wedderburn.center, wedderburn._min_poly_on_center

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(wedderburn, "center", counted("center", center_fn))
    monkeypatch.setattr(wedderburn, "_min_poly_on_center", counted("min", min_poly))
    Pipeline(examples["D(S3)"]).report_document()
    assert calls["center"] == 2  # H and H*
    assert calls["min"] > 0


# -- refinement: an idempotent that is an eigenvector stays whole ------------------


def _refine_by_every_product(h):
    """The refinement with every product e P formed, as before idempotents
    were tested for being eigenvectors: a reference built from wedderburn's
    minimal polynomial, roots and projector coefficients."""
    import hopfkit.wedderburn as wedderburn

    zbasis = center(h)
    free = [max(z.nz) for z in zbasis]
    idempotents = [h.unit]
    for k, z in enumerate(zbasis):
        if len(idempotents) == len(zbasis):
            break
        m, powers = wedderburn._min_poly_on_center(h, z, free)
        roots = wedderburn._eigenvalues(h, m, h.cyclotomic_order, k)
        projectors = [combine(wedderburn._deflate(m, mu), powers, h.dim) for mu in roots]
        idempotents = [prod for e in idempotents for prod in (h.multiply(e, P) for P in projectors)
                       if prod.nz]
    return idempotents


# HopfData.multiply calls of primitive_idempotents when every idempotent was
# multiplied by every spectral projector
_EVERY_PRODUCT_MULTIPLIES = {"D(S3)*": 522, "D(C3)": 159}


@pytest.mark.parametrize("name", sorted(_EVERY_PRODUCT_MULTIPLIES))
def test_eigenvector_idempotents_skip_their_products(name, monkeypatch):
    from hopfkit import HopfData
    from hopfkit.hopf import format_vector

    double = drinfeld_double(builtin_group(name[2:4]))
    h = double.dual if name.endswith("*") else double
    want = sorted(map(format_vector, _refine_by_every_product(h)))
    calls = []
    multiply = HopfData.multiply

    def counted(self, x, y):
        calls.append(1)
        return multiply(self, x, y)

    monkeypatch.setattr(HopfData, "multiply", counted)
    got = primitive_idempotents(h)
    assert len(calls) < _EVERY_PRODUCT_MULTIPLIES[name]
    assert sorted(map(format_vector, got.idempotents)) == want


def test_eigenvector_test_reads_the_eigenvalue(pipelines):
    from hopfkit.wedderburn import _is_eigenvector

    h = pipelines("kS3").H
    zbasis = center(h)
    # every centre element acts on a block by a scalar, zero or not
    for e in pipelines("kS3").blocks.idempotents:
        assert all(_is_eigenvector(e, h.multiply(e, z)) for z in zbasis)
    assert not _is_eigenvector(h.unit, zbasis[-1])
    # kC3 with g = b1: x g agrees with 2x at the first support coordinate of x
    # only, and y g has a different support from y
    c3 = group_algebra(builtin_group("C3"))
    g = Vector.unit(3, 1)
    x, y = Vector.of([1, 1, 2]), Vector.of([1, 2, 0])
    assert not _is_eigenvector(x, c3.multiply(x, g))
    assert not _is_eigenvector(y, c3.multiply(y, g))
    assert _is_eigenvector(x, x.scale(Fraction(-3, 2))) and _is_eigenvector(x, Vector(3, {}))
