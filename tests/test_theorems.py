"""The verification suites and their negative controls.

Every suite must pass on the genuine examples, and each must produce at least
one failing item when run against a deliberately corrupted input (documented
mutation per suite)."""

import re
from fractions import Fraction

import pytest

from hopfkit import (
    Pipeline,
    builtin_group,
    drinfeld_double,
    verify_corollary,
    verify_lemma1,
    verify_proposition,
    verify_section4,
)
from hopfkit.characters import CharacterTable
from hopfkit.hopf import format_vector, hit_act_dual_on_alg
from hopfkit.integrals import IntegralPair
from hopfkit.linalg import Vector, combine
from hopfkit.report import VerificationReport
from hopfkit.rng import DeterministicRng
from hopfkit.scalars import as_scalar
from hopfkit.theorems import _SUBSET_BUDGET, explore_central_fusion, kaplansky_report
from hopfkit.wedderburn import BlockDecomposition

SUITE_EXAMPLES = ("kC2", "kC3", "kS3", "k^S3", "kQ8", "D(C2)", "kS3(x)k^C2", "D(S3)")


@pytest.mark.parametrize("name", SUITE_EXAMPLES)
def test_lemma1_passes(name, pipelines):
    rep = pipelines(name).suite("lemma1")
    assert rep.overall, [i.witness for i in rep.failures()]


@pytest.mark.parametrize("name", SUITE_EXAMPLES)
def test_corollary_passes(name, pipelines):
    rep = pipelines(name).suite("corollary")
    assert rep.overall, [i.witness for i in rep.failures()]


@pytest.mark.parametrize("name", SUITE_EXAMPLES)
def test_proposition_passes(name, pipelines):
    rep = pipelines(name).suite("proposition")
    assert rep.overall, [i.witness for i in rep.failures()]


@pytest.mark.parametrize("name", SUITE_EXAMPLES)
def test_section4_passes(name, pipelines):
    rep = pipelines(name).suite("section4")
    assert rep.overall, [i.witness for i in rep.failures()]


@pytest.mark.parametrize("name", SUITE_EXAMPLES)
def test_kaplansky_passes(name, pipelines):
    rep = pipelines(name).suite("kaplansky")
    assert rep.overall


@pytest.mark.parametrize("name", SUITE_EXAMPLES)
def test_central_fusion_exploratory(name, pipelines):
    rep = pipelines(name).suite("central-fusion")
    assert rep.exploratory
    # findings on these families: all integral
    assert rep.overall


def test_lemma1_counts_two_items_per_block(pipelines):
    pipe = pipelines("kS3")
    rep = pipelines("kS3").suite("lemma1")
    assert len(rep.items) == 2 * pipe.blocks.count


def test_proposition_skips_noncentral_blocks(pipelines):
    rep = pipelines("k^S3").suite("proposition")
    skipped = [i for i in rep.items if i.id.endswith("-skipped")]
    assert len(skipped) == 5  # every block except the counit one
    assert all("hypothesis not satisfied" in i.statement for i in skipped)


def test_proposition_consistent_with_kaplansky(pipelines):
    # item-1 outcomes of the proposition suite match the kaplansky rows
    # restricted to central-character blocks
    for name in SUITE_EXAMPLES:
        pipe = pipelines(name)
        prop = pipe.suite("proposition")
        kap = pipe.suite("kaplansky")
        divides_by_label = {
            i.id: "divides: True" in i.statement for i in kap.items
        }
        for item in prop.items:
            if item.id.endswith("-divides"):
                label = item.id.rsplit("-", 1)[0]
                assert item.passed == divides_by_label[label]


def test_corollary_multiplicity_vector_is_regular_on_full_subset(pipelines):
    # the full-subset idempotent is 1_{H*}, delta Lambda = Lambda with
    # coordinates (dim M)_M: the regular character
    pipe = pipelines("kS3")
    rep = pipe.suite("corollary")
    assert rep.overall


def test_explore_central_fusion_rank(pipelines):
    # G0(k^S3) is the integral group ring of S3: center rank = 3 class sums
    rep = pipelines("k^S3").suite("central-fusion")
    rank_item = next(i for i in rep.items if i.id == "center-rank")
    assert "rank 3" in rank_item.statement
    # abelian dual: everything central
    rep = pipelines("kC3").suite("central-fusion")
    rank_item = next(i for i in rep.items if i.id == "center-rank")
    assert "rank 3 of 3" in rank_item.statement
    # G0(kS3) is commutative: its center is everything (rank 3 of 3)
    rep = pipelines("kS3").suite("central-fusion")
    rank_item = next(i for i in rep.items if i.id == "center-rank")
    assert "rank 3 of 3" in rank_item.statement



def _corollary_reference(H, dual_blocks, integrals, dual_table, seed=0):
    """The corollary suite as a per-subset loop: each subset idempotent's image
    is combined from the block images and decomposed on its own."""
    report = VerificationReport(subject=H.name, dim=H.dim, suite="corollary")
    r = dual_blocks.count
    images = []
    for label, delta_m, deg, chi_m in zip(
        dual_blocks.labels, dual_blocks.idempotents, dual_blocks.degrees, dual_table.characters
    ):
        lhs = hit_act_dual_on_alg(delta_m, integrals.Lambda, H)
        images.append(lhs)
        rhs = chi_m.scale(as_scalar(deg))
        ok = lhs == rhs
        report.add(
            f"delta-{label}",
            f"delta_{label} Lambda = (dim {label}) chi_{label}",
            ok,
            f"delta Lambda = {format_vector(lhs)}" if ok
            else f"expected {format_vector(rhs)}, got {format_vector(lhs)}",
        )
    if (1 << r) <= _SUBSET_BUDGET:
        masks = list(range(1 << r))
    else:
        rng = DeterministicRng(seed)
        masks = [rng.next_u64() & ((1 << r) - 1) for _ in range(_SUBSET_BUDGET)]
    ok, witness, checked = True, "", 0
    for mask in masks:
        subset = tuple(m for m in range(r) if mask >> m & 1)
        coords = dual_table.solver.decompose(
            combine([1] * len(subset), [images[m] for m in subset], H.dim)
        )
        if coords is None:
            ok, witness = False, f"delta Lambda left the character span for T = {subset}"
            break
        for m, c in enumerate(coords):
            want = dual_blocks.degrees[m] if m in subset else 0
            if not c.is_rational() or c.as_fraction().denominator != 1 or c.as_fraction() < 0:
                ok, witness = False, f"non-integer coordinate {c} at block {m} for T = {subset}"
                break
            if not (c - want).is_zero():
                ok, witness = False, (
                    f"multiplicity mismatch for T = {subset}: coordinate {m} is {c}, "
                    f"expected dim = {want}"
                )
                break
        if not ok:
            break
        checked += 1
    report.add(
        "subset-idempotents",
        "delta Lambda has non-negative integer character coordinates, equal to the "
        "multiplicity vector (dim M)_{M in T}, for every tested idempotent delta",
        ok,
        witness or f"{checked} subset idempotents checked",
    )
    return report


def _with_Lambda(integrals: IntegralPair, Lambda) -> IntegralPair:
    return IntegralPair(
        lambda_dual=integrals.lambda_dual,
        Lambda=Lambda,
        Lambda_scaled=integrals.Lambda_scaled,
    )


def _add(a, b) -> Vector:
    """a + b entrywise."""
    return combine((1, 1), (a, b), len(a))


def _corollary_cases(pipelines):
    dc3 = Pipeline(drinfeld_double(builtin_group("C3")))
    ks3, fs3 = pipelines("kS3"), pipelines("k^S3")
    half = _with_Lambda(ks3.integrals, ks3.integrals.Lambda.scale(Fraction(1, 2)))
    double = _with_Lambda(ks3.integrals, ks3.integrals.Lambda.scale(2))
    # v = b4 - b5 in k^S3: the two 1-dimensional blocks of kS3 send it to 0,
    # the 2-dimensional one to a vector outside the class functions C(H*)
    v = _add(Vector.unit(fs3.H.dim, 4), Vector.unit(fs3.H.dim, 5).scale(-1))
    off_span = _with_Lambda(fs3.integrals, _add(fs3.integrals.Lambda, v))
    return [
        ("kS3", ks3, ks3.integrals, 0, "64 subset"),
        ("k^S3", fs3, fs3.integrals, 0, "8 subset"),
        ("D(C3)", dc3, dc3.integrals, 0, "256 subset"),
        ("D(C3)", dc3, dc3.integrals, 11, "256 subset"),
        ("D(S3)", pipelines("D(S3)"), pipelines("D(S3)").integrals, 0, "256 subset"),
        ("D(S3)", pipelines("D(S3)"), pipelines("D(S3)").integrals, 11, "256 subset"),
        ("kS3 Lambda/2", ks3, half, 0, "non-integer coordinate 1/2"),
        ("kS3 2 Lambda", ks3, double, 0, "multiplicity mismatch"),
        ("k^S3 Lambda+b1", fs3, off_span, 0, "delta Lambda left the character span"),
    ]


def test_corollary_matches_per_subset_reference(pipelines):
    # summed single-block coordinates give the same items as decomposing each
    # subset image: the exhaustive regime (r <= 8), the sampled regime at two
    # seeds (D(C3): r = 9, D(S3): r = 18) and one failing input per witness
    for name, pipe, integrals, seed, witness in _corollary_cases(pipelines):
        args = (pipe.H, pipe.dual.blocks, integrals, pipe.dual.table, seed)
        got = [(i.id, i.passed, i.statement, i.witness) for i in verify_corollary(*args).items]
        want = [(i.id, i.passed, i.statement, i.witness) for i in _corollary_reference(*args).items]
        assert got == want, name
        assert got[-1][3].startswith(witness), (name, got[-1])


def test_corollary_irrational_coordinates_match_per_subset_reference(pipelines):
    # zeta_3 Lambda and (1 + zeta_3) Lambda give irrational coordinates, which
    # the subset sums keep as scalars: the witness matches the all-scalar one
    from hopfkit.scalars import CycScalar

    ks3 = pipelines("kS3")
    z = CycScalar.zeta(3)
    for factor in (z, 1 + z):
        integrals = _with_Lambda(ks3.integrals, ks3.integrals.Lambda.scale(factor))
        args = (ks3.H, ks3.dual.blocks, integrals, ks3.dual.table, 0)
        got = [(i.id, i.passed, i.statement, i.witness) for i in verify_corollary(*args).items]
        want = [(i.id, i.passed, i.statement, i.witness) for i in _corollary_reference(*args).items]
        assert got == want
        assert got[-1][3].startswith("non-integer coordinate z")


def test_sampled_subsets_reach_every_block():
    # a sampled mask is ceil(r/64) draws, low word first: at r = 120 the
    # sample reaches the blocks past index 63, and for r <= 64 each mask is
    # the single draw masked to r bits, as before the wide masks
    from hopfkit.theorems import _subsets

    def subset(mask, r):
        return tuple(m for m in range(r) if mask >> m & 1)

    rng = DeterministicRng(0)
    wide = [(rng.next_u64() | rng.next_u64() << 64) & ((1 << 120) - 1) for _ in range(_SUBSET_BUDGET)]
    assert _subsets(120, 0) == [subset(mask, 120) for mask in wide]
    assert set().union(*_subsets(120, 0)) == set(range(120))
    for r in (9, 18, 63, 64):
        rng = DeterministicRng(11)
        single = [rng.next_u64() & ((1 << r) - 1) for _ in range(_SUBSET_BUDGET)]
        assert _subsets(r, 11) == [subset(mask, r) for mask in single]
    assert _subsets(3, 0) == [subset(mask, 3) for mask in range(8)]


@pytest.mark.parametrize("name", ["D(S3)", "D(C3)"])
def test_passing_report_reads_off_the_corollary_and_the_closure(pipelines, monkeypatch, name):
    # every delta_M Lambda = (dim M) chi_M holds, so each subset passes by
    # linearity, and f(S* chi_V) = (dim H/dim V) e_V holds as vectors, so
    # neither suite sums, solves or decomposes anything
    import hopfkit.theorems as theorems
    from hopfkit.linalg import PreparedSolver

    pipe = pipelines(name) if name == "D(S3)" else Pipeline(drinfeld_double(builtin_group("C3")))
    for side in (pipe, pipe.dual):
        assert side.table.count == side.blocks.count  # built outside the count
    calls = []

    def recorded(label, fn):
        def wrapper(*args):
            calls.append(label)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(theorems, "_sparse_sum", recorded("_sparse_sum", theorems._sparse_sum))
    for attr in ("coordinates", "decompose"):
        monkeypatch.setattr(PreparedSolver, attr, recorded(attr, getattr(PreparedSolver, attr)))
    corollary = pipe.suite("corollary")
    assert corollary.overall and calls == []
    assert corollary.items[-1].witness == f"{_SUBSET_BUDGET} subset idempotents checked"
    section4 = pipe.suite("section4")
    assert section4.overall and calls == []


def test_section4_witnesses_under_a_doubled_integral(pipelines):
    # recorded before the closure compared f(S* chi_V) with (dim H/dim V) e_V
    # as vectors: the mismatch is decomposed and names the doubled coordinate
    pipe = pipelines("kS3")
    double = _with_Lambda(pipe.integrals, pipe.integrals.Lambda.scale(2))
    rep = verify_section4(pipe.H, pipe.blocks, double, pipe.table, pipe.dual.blocks, pipe.dual.table)
    assert [(i.id, i.passed, i.witness) for i in rep.items] == [
        ("f-bijective", False, "f(S(b0) lambda) != b0"),
        ("f-characters-center", False, "f(chi_V0*) != (dim H/dim V0) e_V0"),
        ("f-dualcenter-characters", False, "f(delta_V0) != (dim V0) chi_V0"),
        ("V0-closure", False, "coordinate = 12, min poly x - 12, divides = True"),
        ("V1-closure", False, "coordinate = 12, min poly x - 12, divides = True"),
        ("V2-closure", False, "coordinate = 6, min poly x - 6, divides = True"),
    ]


# -- negative controls -------------------------------------------------------


def _corrupt_blocks(blocks: BlockDecomposition) -> BlockDecomposition:
    # swap two distinct coordinates of the first idempotent whose values differ
    bad = list(blocks.idempotents)
    e0 = list(bad[0])
    i, j = next(
        (i, j)
        for i in range(len(e0))
        for j in range(i + 1, len(e0))
        if e0[i] != e0[j]
    )
    e0[i], e0[j] = e0[j], e0[i]
    bad[0] = Vector.of(e0)
    return BlockDecomposition(
        center_basis=blocks.center_basis,
        idempotents=bad,
        degrees=list(blocks.degrees),
        labels=list(blocks.labels),
    )


def test_lemma1_negative_control(pipelines):
    pipe = pipelines("kS3")
    rep = verify_lemma1(pipe.H, _corrupt_blocks(pipe.blocks), pipe.integrals, pipe.table)
    failing = rep.failures()
    assert failing
    assert any(item.id.endswith("-A") for item in failing)


def test_corollary_negative_control(pipelines):
    pipe = pipelines("kC2")
    # corrupting Lambda by a scalar breaks delta_M Lambda = (dim M) chi_M
    bad = IntegralPair(
        lambda_dual=pipe.integrals.lambda_dual,
        Lambda=pipe.integrals.Lambda.scale(Fraction(3)),
        Lambda_scaled=pipe.integrals.Lambda_scaled,
    )
    rep = verify_corollary(pipe.H, pipe.dual.blocks, bad, pipe.dual.table)
    assert rep.failures()


def test_proposition_negative_control(pipelines):
    pipe = pipelines("kS3")
    # scaling an idempotent of the dual decomposition corrupts the central
    # values f_i, whose certificates then report non-integrality
    dual_blocks = pipe.dual.blocks
    bad = BlockDecomposition(
        center_basis=dual_blocks.center_basis,
        idempotents=[e.scale(Fraction(1, 5)) for e in dual_blocks.idempotents],
        degrees=list(dual_blocks.degrees),
        labels=list(dual_blocks.labels),
    )
    rep = verify_proposition(
        pipe.H, pipe.blocks, pipe.table, bad, pipe.dual.table, pipe.integrals
    )
    assert rep.failures()


def test_section4_negative_control(pipelines):
    pipe = pipelines("kC2")
    # a Lambda with a zeroed coordinate destroys bijectivity of f
    bad = IntegralPair(
        lambda_dual=pipe.integrals.lambda_dual,
        Lambda=Vector.of((pipe.integrals.Lambda[0], 0)),
        Lambda_scaled=pipe.integrals.Lambda_scaled,
    )
    rep = verify_section4(
        pipe.H, pipe.blocks, bad, pipe.table, pipe.dual.blocks, pipe.dual.table
    )
    assert rep.failures()
    # the explicit inverse fails, and the witness names the first basis index
    bijective = next(item for item in rep.items if item.id == "f-bijective")
    assert not bijective.passed
    assert re.fullmatch(r"f\(S\(b(\d+)\) lambda\) != b\1", bijective.witness)


def test_section4_corrupted_table_fails_the_center_item(pipelines):
    pipe = pipelines("kC3")
    table = pipe.table
    # the first block that is not self-dual: scaling its character leaves
    # S* chi_V = 2 chi_V* outside the table, so S* no longer permutes it
    v = next(v for v, w in enumerate(pipe.fusion.dual_map) if v != w)
    chars = list(table.characters)
    chars[v] = chars[v].scale(2)
    bad = CharacterTable(characters=chars, degrees=list(table.degrees), labels=list(table.labels))
    rep = verify_section4(pipe.H, pipe.blocks, pipe.integrals, bad, pipe.dual.blocks, pipe.dual.table)
    center = next(item for item in rep.items if item.id == "f-characters-center")
    assert not center.passed
    assert center.witness == f"S* chi_{table.labels[v]} is not an irreducible character"


def test_kaplansky_negative_control(pipelines):
    pipe = pipelines("kS3")
    # a fake degree that does not divide dim H on a central-character block
    bad = BlockDecomposition(
        center_basis=pipe.blocks.center_basis,
        idempotents=list(pipe.blocks.idempotents),
        degrees=[4, 1, 2],
        labels=list(pipe.blocks.labels),
    )
    rep = kaplansky_report(pipe.H, bad, pipe.table)
    assert rep.failures()


def test_suites_are_deterministic(examples):
    # re-running a suite from scratch reproduces every item (id, statement,
    # pass, witness) byte for byte
    for name in ("kS3", "D(C2)"):
        a = Pipeline(examples[name]).report_document()
        b = Pipeline(examples[name]).report_document()
        assert a == b


def test_axioms_negative_control(examples):
    from conftest import perturbed
    from hopfkit import check_axioms

    h = examples["kC2"]
    # break coassociativity: Delta(g) = g (x) e is not coassociative with the
    # counit axiom data
    bad = perturbed(h, comult={(1, 1, 1): 0, (1, 0, 1): 1})
    assert bad.comult == {(0, 0, 0): 1, (1, 0, 1): 1}
    rep = check_axioms(bad)
    assert not rep.overall


def test_report_prepares_one_solver_per_family(examples, monkeypatch):
    # the character tables and block decompositions of H and H* are the four
    # column families the suites decompose over; each is prepared at most once
    import hopfkit.linalg

    prepared = []
    init = hopfkit.linalg.PreparedSolver.__init__

    def counted(self, columns):
        prepared.append(id(columns))
        init(self, columns)

    monkeypatch.setattr(hopfkit.linalg.PreparedSolver, "__init__", counted)
    p = Pipeline(examples["D(S3)"])
    assert p.report_document()["overall"]
    families = {
        id(f)
        for side in (p, p.dual)
        for f in (side.table.characters, side.blocks.idempotents)
    }
    assert prepared and set(prepared) <= families
    assert len(prepared) == len(set(prepared))


def test_report_kernels_reduce_each_column_once(examples, monkeypatch):
    # a kernel is read off the dependencies among the matrix's columns, each
    # fed once through the one reducer, IncrementalDependency
    import hopfkit.linalg
    import hopfkit.theorems
    import hopfkit.wedderburn

    kernel, reduce = hopfkit.linalg.sparse_kernel_basis, hopfkit.linalg.IncrementalDependency._reduce
    running, done = [], []

    def counted_kernel(n_cols, entries):
        running.append([n_cols, 0])
        basis = kernel(n_cols, entries)
        done.append(tuple(running.pop()))
        return basis

    def counted_reduce(self, vec):
        if running:
            running[-1][1] += 1
        return reduce(self, vec)

    for caller in (hopfkit.wedderburn, hopfkit.theorems):
        monkeypatch.setattr(caller, "sparse_kernel_basis", counted_kernel)
    monkeypatch.setattr(hopfkit.linalg.IncrementalDependency, "_reduce", counted_reduce)
    assert Pipeline(examples["D(S3)"]).report_document()["overall"]
    assert done and all(cols == reductions for cols, reductions in done)


@pytest.mark.parametrize("name", ["kS3", "D(S3)"])
def test_passing_corollary_subset_loop_does_no_scalar_arithmetic(pipelines, monkeypatch, name):
    import hopfkit.theorems as theorems
    from hopfkit.scalars import CycScalar

    pipe = pipelines(name)
    assert pipe.dual.table.count  # the stages are built outside the count
    ops = []
    inside = [False]
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "inverse", "__eq__"):
        def counted(self, *args, _op=getattr(CycScalar, attr), _attr=attr):
            if inside[0]:
                ops.append(_attr)
            return _op(self, *args)
        monkeypatch.setattr(CycScalar, attr, counted)
    subset_failure = theorems._subset_failure

    entered = []

    def in_loop(*args):
        entered.append(args)
        inside[0] = True
        try:
            return subset_failure(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(theorems, "_subset_failure", in_loop)
    rep = pipe.suite("corollary")
    assert rep.overall and rep.items[-1].id == "subset-idempotents"
    # a passing report reads the subsets off the single-block items: the
    # loop is never entered, so the merge is watched on failing inputs below
    assert entered == [] and ops == []


@pytest.mark.parametrize("name", ["D(S3) 2 Lambda", "k^S3 Lambda+b1"])
def test_corollary_subset_loop_does_no_scalar_arithmetic(pipelines, monkeypatch, name):
    # the sweep runs only when a single-block item fails; each subset's
    # coordinates are the merge of disjoint single-block supports, which adds
    # no scalars.  The cases fail after merging several blocks: D(S3)'s first
    # sampled subset, and k^S3's subsets before its off-span block
    import hopfkit.theorems as theorems
    from hopfkit.scalars import CycScalar

    cases = {case: (pipe, integrals) for case, pipe, integrals, _, _ in _corollary_cases(pipelines)}
    cases["D(S3) 2 Lambda"] = (
        pipelines("D(S3)"),
        _with_Lambda(pipelines("D(S3)").integrals, pipelines("D(S3)").integrals.Lambda.scale(2)),
    )
    pipe, integrals = cases[name]
    assert pipe.dual.table.count  # the stages are built outside the count
    ops = []
    inside = [False]
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "inverse", "__eq__"):
        def counted(self, *args, _op=getattr(CycScalar, attr), _attr=attr):
            if inside[0]:
                ops.append(_attr)
            return _op(self, *args)
        monkeypatch.setattr(CycScalar, attr, counted)
    subset_failure, sparse_sum = theorems._subset_failure, theorems._sparse_sum
    merged = []

    def in_loop(*args):
        inside[0] = True
        try:
            return subset_failure(*args)
        finally:
            inside[0] = False

    def counted_sum(dim, vectors):
        vectors = list(vectors)
        merged.append(len(vectors))
        return sparse_sum(dim, vectors)

    monkeypatch.setattr(theorems, "_subset_failure", in_loop)
    monkeypatch.setattr(theorems, "_sparse_sum", counted_sum)
    rep = verify_corollary(pipe.H, pipe.dual.blocks, integrals, pipe.dual.table, 0)
    assert not rep.items[-1].passed and rep.items[-1].id == "subset-idempotents"
    assert max(merged) >= 2
    assert ops == []


def test_integrality_is_certified_once_per_value(monkeypatch):
    # D(C3): the central values f_i(S* chi) are roots of unity, repeated
    # across blocks; each suite call certifies each distinct value once
    import hopfkit.theorems as theorems

    pipe = Pipeline(drinfeld_double(builtin_group("C3")))
    certified = []
    certify = theorems.is_algebraic_integer

    def recorded(a):
        certified.append((a.order, a.coords))
        return certify(a)

    monkeypatch.setattr(theorems, "is_algebraic_integer", recorded)
    for suite in ("proposition", "section4", "central-fusion"):
        certified.clear()
        assert pipe.suite(suite).items
        assert len(certified) == len(set(certified))
