"""Character tables, centrality, fusion rings, central decompositions, f."""

from fractions import Fraction

from conftest import charpoly, fusion_matrix_rows

from hopfkit import (
    Poly,
    builtin_group,
    central_decomposition,
    f_map,
    hit_act_alg_on_dual,
    is_algebraic_integer,
    is_central_character,
    pair,
)
from hopfkit.characters import convolution_poly_eval
from hopfkit.linalg import Vector
from hopfkit.scalars import ONE


def test_kc2_characters(pipelines):
    table = pipelines("kC2").table
    got = {tuple(c.as_fraction() for c in chi) for chi in table.characters}
    assert got == {(1, 1), (1, -1)}


def test_ks3_classical_character_table(pipelines):
    # classical S3 table on basis order (e, r, r2, s, rs, r2s)
    table = pipelines("kS3").table
    by_degree = {}
    for deg, chi in zip(table.degrees, table.characters):
        by_degree.setdefault(deg, []).append(tuple(c.as_fraction() for c in chi))
    assert sorted(by_degree[1]) == [(1, 1, 1, -1, -1, -1), (1, 1, 1, 1, 1, 1)]
    assert by_degree[2] == [(2, -1, -1, 0, 0, 0)]


def test_character_pairing_cross_check(pipelines):
    for name in ("kS3", "kQ8", "D(S3)"):
        pipe = pipelines(name)
        table, blocks = pipe.table, pipe.blocks
        for v, chi in enumerate(table.characters):
            assert pair(chi, pipe.H.unit) == table.degrees[v]
            for w, e_w in enumerate(blocks.idempotents):
                expected = table.degrees[v] if v == w else 0
                assert pair(chi, e_w) == expected


def test_character_sum_is_regular_character(pipelines):
    # sum_V (dim V) chi_V = (dim H) lambda, forced by sum e_V = 1
    for name in ("kC2", "kS3", "kQ8", "D(S3)"):
        pipe = pipelines(name)
        total = [0 * ONE] * pipe.H.dim
        for deg, chi in zip(pipe.table.degrees, pipe.table.characters):
            total = [a + deg * c for a, c in zip(total, chi)]
        assert tuple(total) == pipe.integrals.lambda_dual.scale(pipe.H.dim)


def test_centrality(pipelines):
    # commutative dual: every character is central
    assert all(is_central_character(chi, pipelines("kS3").H) for chi in pipelines("kS3").table.characters)
    # k^S3: only the counit block is central
    pipe = pipelines("k^S3")
    central = [is_central_character(chi, pipe.H) for chi in pipe.table.characters]
    assert central.count(True) == 1
    idx = central.index(True)
    assert pipe.table.characters[idx] == pipe.H.counit
    # Drinfeld double: centrality is checked, not assumed.  chi is central in
    # D(G)* iff chi(d_u (x) h) is invariant under conjugating u at fixed h;
    # for D(S3) that holds on exactly four blocks (degrees {1, 1, 2, 2}) and
    # fails on the others, e.g. chi(d_s (x) s) = 1 but chi(d_{rsr^-1} (x) s) = 0
    # for the transposition-class blocks
    pipe = pipelines("D(S3)")
    h = pipe.H
    g = builtin_group("S3")
    n = g.order
    for v, chi in enumerate(pipe.table.characters):
        invariant = True
        for u in range(n):
            for a in range(n):
                conj = g.table[g.table[a][u]][g.inverses[a]]
                if any(chi[u * n + k] != chi[conj * n + k] for k in range(n)):
                    invariant = False
                    break
            if not invariant:
                break
        assert is_central_character(chi, h) == invariant
    central_degrees = sorted(
        deg
        for deg, chi in zip(pipe.table.degrees, pipe.table.characters)
        if is_central_character(chi, h)
    )
    assert central_degrees == [1, 1, 2, 2]


def test_fusion_kc3_is_cyclic_group_ring(pipelines):
    fusion = pipelines("kC3").fusion
    r = 3
    # the three characters form Z/3 under convolution: each row of the tensor
    # is a permutation matrix, and the group generated is cyclic of order 3
    perms = []
    for v in range(r):
        perm = []
        for w in range(r):
            targets = [u for u in range(r) if fusion.tensor[v][w][u]]
            assert len(targets) == 1 and fusion.tensor[v][w][targets[0]] == 1
            perm.append(targets[0])
        perms.append(tuple(perm))
    assert tuple(range(r)) in perms
    orders = set()
    for p in perms:
        k, q = 1, p
        while q != tuple(range(r)):
            q = tuple(p[q[i]] for i in range(r))
            k += 1
        orders.add(k)
    assert orders == {1, 3}


def test_fusion_ks3_two_dim_square(pipelines):
    pipe = pipelines("kS3")
    fusion = pipe.fusion
    two = pipe.table.degrees.index(2)
    # chi_2 chi_2 = chi_triv + chi_sign + chi_2
    assert fusion.tensor[two][two] == [1, 1, 1]


def test_fusion_coefficients_nonnegative_integers(pipelines):
    for name in ("kS3", "kQ8", "D(S3)", "k^S3", "kS3(x)k^C2"):
        fusion = pipelines(name).fusion
        for plane in fusion.tensor:
            for row in plane:
                for n in row:
                    assert isinstance(n, int) and n >= 0


def test_dimension_homomorphism(pipelines):
    # applying the degree vector to each fusion matrix reproduces degree products
    for name in ("kS3", "kQ8", "D(S3)"):
        pipe = pipelines(name)
        degs = pipe.table.degrees
        r = len(degs)
        for v in range(r):
            for w in range(r):
                total = sum(pipe.fusion.tensor[v][w][u] * degs[u] for u in range(r))
                assert total == degs[v] * degs[w]


def test_monic_witness_sign_character(pipelines):
    pipe = pipelines("kC2")
    sign = next(
        chi for chi in pipe.table.characters if chi[1].as_fraction() == -1
    )
    p = Poly([-1, 0, 1])  # x^2 - 1
    assert not convolution_poly_eval(p, sign, pipe.H).nz


def test_fusion_char_poly_annihilates(pipelines):
    for name in ("kS3", "kQ8"):
        pipe = pipelines(name)
        for v, chi in enumerate(pipe.table.characters):
            char = Poly(charpoly(fusion_matrix_rows(pipe.fusion.tensor, v)))
            assert char.has_integer_coeffs()
            assert not convolution_poly_eval(char, chi, pipe.H).nz


def test_duality_permutation_is_involution(pipelines):
    for name in ("kS3", "kQ8", "D(S3)", "k^S3"):
        dual = pipelines(name).fusion.dual_map
        for v, w in enumerate(dual):
            assert dual[w] == v


def test_unit_slot_matches_duality_pairing(pipelines):
    # the multiplicity of the trivial character in chi_V chi_W is [W = V*]
    for name in ("kS3", "kQ8", "D(S3)"):
        fusion = pipelines(name).fusion
        r = len(fusion.labels)
        for v in range(r):
            for w in range(r):
                expected = 1 if fusion.dual_map[v] == w else 0
                assert fusion.tensor[v][w][fusion.unit_index] == expected


def test_central_decomposition_unit_and_indicators(pipelines):
    pipe = pipelines("kS3")
    dual_blocks = pipe.dual.blocks
    # eps is the unit of H*: all central values are 1
    dec = central_decomposition(pipe.H.counit, dual_blocks)
    assert all(v == 1 for v in dec.values)
    # a primitive idempotent decomposes as an indicator
    for j, delta in enumerate(dual_blocks.idempotents):
        dec = central_decomposition(delta, dual_blocks)
        assert all((v == (1 if i == j else 0)) for i, v in enumerate(dec.values))


def test_central_decomposition_s_star_chi2(pipelines):
    # on kS3 the dual is commutative, so the central values of S* chi_2 are the
    # classical character values chi_2(g^-1); all are algebraic integers
    pipe = pipelines("kS3")
    two = pipe.table.degrees.index(2)
    chi2 = pipe.table.characters[two]
    zeta = pipe.H.dual.apply_antipode(chi2)
    dec = central_decomposition(zeta, pipe.dual.blocks)
    values = sorted(v.as_fraction() for v in dec.values)
    assert values == [-1, -1, 0, 0, 0, 2]
    assert all(is_algebraic_integer(v).is_integer for v in dec.values)


def test_f_map_examples(pipelines):
    pipe = pipelines("kC2")
    h, integrals = pipe.H, pipe.integrals
    assert f_map(h.counit, integrals, h) == integrals.Lambda
    assert f_map(integrals.lambda_dual, integrals, h) == Vector.unit(h.dim, 0)


def test_f_of_dual_character_is_scaled_idempotent(pipelines):
    for name in ("kC2", "kS3", "kQ8", "D(S3)"):
        pipe = pipelines(name)
        for v, chi in enumerate(pipe.table.characters):
            image = f_map(pipe.H.dual.apply_antipode(chi), pipe.integrals, pipe.H)
            expected = pipe.blocks.idempotents[v].scale(Fraction(pipe.H.dim, pipe.table.degrees[v]))
            assert image == expected, (name, v)


def test_f_has_the_explicit_inverse_everywhere(examples, pipelines):
    # Larson-Sweedler: with lambda(Lambda) = 1, h -> S(h) lambda inverts f
    for name in ("kC2", "kS3", "k^S3", "kQ8", "D(C2)", "kS3(x)k^C2", "D(S3)"):
        pipe = pipelines(name)
        h, lam = pipe.H, pipe.integrals.lambda_dual
        assert pair(lam, pipe.integrals.Lambda) == ONE, name
        for k in range(h.dim):
            phi = hit_act_alg_on_dual(h.apply_antipode(Vector.unit(h.dim, k)), lam, h)
            assert f_map(phi, pipe.integrals, h) == Vector.unit(h.dim, k), (name, k)


def test_commutes_with_basis_matches_products(examples, pipelines):
    from hopfkit import commutes_with_basis, convolve
    from hopfkit.rng import DeterministicRng

    def central_in_dual(x, h):  # oracle: x phi_j == phi_j x under convolution
        return all(
            convolve(x, Vector.unit(h.dim, j), h) == convolve(Vector.unit(h.dim, j), x, h)
            for j in range(h.dim)
        )

    def central_in_algebra(x, h):  # oracle: x b_k == b_k x in H
        return all(
            h.multiply(x, Vector.unit(h.dim, k)) == h.multiply(Vector.unit(h.dim, k), x)
            for k in range(h.dim)
        )

    rng = DeterministicRng(7)
    seen = {True: 0, False: 0}
    for name in ("kS3", "k^S3", "kQ8", "D(S3)"):
        h = examples[name]
        vectors = list(pipelines(name).table.characters)
        vectors += [Vector.unit(h.dim, k) for k in range(h.dim)]
        vectors += [Vector.of(rng.randint(-2, 2) for _ in range(h.dim)) for _ in range(3)]
        for x in vectors:
            got_dual = commutes_with_basis(x, h.dual)
            assert got_dual == central_in_dual(x, h) == is_central_character(x, h), name
            got_alg = commutes_with_basis(x, h)
            assert got_alg == central_in_algebra(x, h), name
            seen[got_dual] += 1
            seen[got_alg] += 1
    assert seen[True] and seen[False]


def _fusion_cases(pipelines):
    from test_properties import _dense  # the L D U rebase; needs hypothesis

    from hopfkit import Pipeline, drinfeld_double, dualize

    dc3 = drinfeld_double(builtin_group("C3"))
    return [
        ("D(C3)", Pipeline(dc3)),
        ("D(C3)*", Pipeline(dualize(dc3))),
        ("k^S3", pipelines("k^S3")),
        ("kQ8", pipelines("kQ8")),
        ("kS3 LDU", Pipeline(_dense("kS3", "ldu"))),
    ]


def _counted_fusion(monkeypatch, table, H, axioms):
    """(fusion_ring(table, H, axioms), the number of products it decomposed)."""
    from hopfkit import fusion_ring
    from hopfkit.linalg import PreparedSolver

    decompose, calls = PreparedSolver.decompose, []

    def counted(self, v):
        calls.append(v)
        return decompose(self, v)

    with monkeypatch.context() as m:
        m.setattr(PreparedSolver, "decompose", counted)
        ring = fusion_ring(table, H, axioms)
    return ring, len(calls)


def _mirror_orbits(dual_map):
    """The orbits of (V, W) -> (W*, V*) on pairs of blocks."""
    r = len(dual_map)
    return {frozenset({(v, w), (dual_map[w], dual_map[v])}) for v in range(r) for w in range(r)}


def test_fusion_mirror_forms_one_product_per_orbit(pipelines, monkeypatch):
    # with the Hopf axioms passed, chi_{W*} chi_{V*} = S*(chi_V chi_W): one
    # product per orbit {(V, W), (W*, V*)} is formed, and the tensor is the
    # all-products one, also where the mirror is not a transpose (D(C3), whose
    # duality permutation moves blocks, and k^S3, whose G0 = Z[S3] is not
    # commutative) and on dense structure constants
    not_transpose = set()
    for name, pipe in _fusion_cases(pipelines):
        table, H, r = pipe.table, pipe.H, pipe.table.count
        assert pipe.axioms.overall, name
        every, formed = _counted_fusion(monkeypatch, table, H, None)
        assert formed == r * r, name
        mirrored, formed = _counted_fusion(monkeypatch, table, H, pipe.axioms)
        assert formed == len(_mirror_orbits(mirrored.dual_map)) < r * r, name
        assert (mirrored.tensor, mirrored.dual_map, mirrored.unit_index) == (
            every.tensor, every.dual_map, every.unit_index
        ), name
        if every.dual_map != tuple(range(r)):
            not_transpose.add(name)
        if name == "k^S3":
            assert any(every.tensor[v][w] != every.tensor[w][v] for v in range(r) for w in range(r))
    assert {"D(C3)", "k^S3"} <= not_transpose


def test_pipeline_fusion_reads_the_axioms_stage_only_once_it_has_run(monkeypatch):
    # fusion never runs the axiom check itself: alone it forms every product;
    # after the axioms stage has passed, one per mirror orbit
    from hopfkit import Pipeline, drinfeld_double
    from hopfkit.linalg import PreparedSolver

    decompose, calls = PreparedSolver.decompose, []
    monkeypatch.setattr(PreparedSolver, "decompose", lambda self, v: calls.append(v) or decompose(self, v))
    alone = Pipeline(drinfeld_double(builtin_group("C3")))
    r = alone.table.count
    calls.clear()
    assert alone.fusion and "axioms" not in alone.__dict__
    assert len(calls) == r * r
    after = Pipeline(drinfeld_double(builtin_group("C3")))
    assert after.table.count and after.axioms.overall
    calls.clear()
    assert after.fusion.tensor == alone.fusion.tensor
    assert len(calls) == len(_mirror_orbits(after.fusion.dual_map)) < r * r


def test_fusion_without_passed_axioms_forms_every_product(pipelines, monkeypatch):
    from hopfkit.report import VerificationReport

    pipe = pipelines("k^S3")
    failed = VerificationReport(subject=pipe.H.name, dim=pipe.H.dim, suite="axioms")
    failed.add("assoc", "associativity", False, "witness")
    r = pipe.table.count
    for axioms in (None, failed):
        ring, formed = _counted_fusion(monkeypatch, pipe.table, pipe.H, axioms)
        assert formed == r * r
        assert ring.tensor == pipe.fusion.tensor
