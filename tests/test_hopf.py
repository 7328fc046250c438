"""Hopf structure: axioms, dualization, pairing, convolution, hit actions,
and the .hopf text format."""

from fractions import Fraction
from itertools import product

import pytest

from hopfkit import (
    CycScalar,
    HopfData,
    builtin_group,
    check_axioms,
    compute_integrals,
    convolve,
    dualize,
    format_hopf,
    function_algebra,
    group_algebra,
    hit_act_alg_on_dual,
    hit_act_dual_on_alg,
    pair,
    parse_hopf,
)
from hopfkit.linalg import vec_eq
from hopfkit.rng import DeterministicRng
from hopfkit.scalars import ONE, ZERO


def test_axioms_pass_on_group_algebra(examples):
    assert check_axioms(examples["kC2"]).overall


def test_broken_antipode_fails_only_antipode_axioms(examples):
    h = examples["kC2"]
    zero_antipode = {(i, i): 0 for i in range(h.dim)}
    broken = HopfData("broken", h.dim, h.mult, h.unit, h.comult, h.counit, zero_antipode)
    assert broken.antipode == {}  # zero entries are not stored
    rep = check_axioms(broken)
    failed = {item.id for item in rep.items if not item.passed}
    assert failed == {"antipode-left", "antipode-right"}


def test_double_of_s3_axioms_and_defining_relations(examples):
    ds3 = examples["D(S3)"]
    assert check_axioms(ds3).overall
    # independent oracle: recompute every basis product directly from the
    # double's defining relation (d_x (x) h)(d_y (x) h') = [x = h y h^-1] ...
    g = builtin_group("S3")
    n = g.order
    for x, h, y, h2 in product(range(n), repeat=4):
        i = x * n + h
        j = y * n + h2
        conj = g.table[g.table[h][y]][g.inverses[h]]
        expected_index = x * n + g.table[h][h2] if conj == x else None
        for k in range(ds3.dim):
            expected = ONE if k == expected_index else ZERO
            assert ds3.mult.get((i, j, k), ZERO) == expected


def test_dimension_mismatch_raises():
    unit, counit = [1, 0], [1, 1]
    with pytest.raises(ValueError):  # index out of range
        HopfData("bad", 2, {(0, 0, 2): 1}, unit, {}, counit, {})
    with pytest.raises(ValueError):  # wrong arity
        HopfData("bad", 2, {(0, 0): 1}, unit, {}, counit, {})
    with pytest.raises(ValueError):
        HopfData("bad", 2, {}, unit, {}, counit, {(0, 0, 0): 1})
    with pytest.raises(ValueError):
        HopfData("bad", 2, {}, [1], {}, counit, {})


def test_dualize_group_algebra_is_function_algebra(examples):
    assert dualize(examples["kC2"]) == examples["k^C2"]
    assert dualize(examples["kS3"]) == examples["k^S3"]


def test_biduality_exact(examples):
    for name in ("kS3", "kQ8", "D(S3)", "kS3(x)k^C2"):
        h = examples[name]
        assert dualize(dualize(h)) == h


def test_dual_of_double_passes_axioms(examples):
    assert check_axioms(dualize(examples["D(S3)"])).overall


def test_pair_examples(examples):
    h = examples["kC2"]
    assert pair(h.basis_vector(0), h.basis_vector(0)) == 1
    # eps of kC2 pairs to 2 against e + g
    assert pair(h.counit, (ONE, ONE)) == 2
    p = compute_integrals(h)
    assert pair(p.lambda_dual, p.Lambda) == 1


def test_convolve_unit_and_sign_characters(examples):
    h = examples["kC2"]
    rng = DeterministicRng(3)
    for _ in range(5):
        phi = tuple(CycScalar.from_rational(rng.randint(-3, 3)) for _ in range(2))
        assert vec_eq(convolve(h.counit, phi, h), phi)
        assert vec_eq(convolve(phi, h.counit, h), phi)
    sign = (ONE, -ONE)
    triv = (ONE, ONE)
    assert vec_eq(convolve(sign, sign, h), triv)


def test_delta_basis_convolution_is_group_table(examples):
    # on k^S3 the dual is kS3: convolving dual basis vectors multiplies group
    # elements, so the structure constants reproduce the Cayley table
    h = examples["k^S3"]
    g = builtin_group("S3")
    for i in range(6):
        for j in range(6):
            got = convolve(h.basis_vector(i), h.basis_vector(j), h)
            assert vec_eq(got, h.basis_vector(g.table[i][j]))


def test_hit_actions_on_kc2(examples):
    h = examples["kC2"]
    p = compute_integrals(h)
    lam = p.lambda_dual
    # 1_H acts as identity
    assert vec_eq(hit_act_alg_on_dual(h.unit, lam, h), lam)
    # g . lambda = delta_g: oracle <g lambda, h'> = <lambda, h' g>
    gl = hit_act_alg_on_dual(h.basis_vector(1), lam, h)
    for hp in range(2):
        direct = pair(lam, h.multiply(h.basis_vector(hp), h.basis_vector(1)))
        assert gl[hp] == direct
    assert vec_eq(gl, h.basis_vector(1))
    # e_sign . lambda = (1/2)(delta_e - delta_g)
    e_sign = (CycScalar.from_rational(Fraction(1, 2)), CycScalar.from_rational(Fraction(-1, 2)))
    got = hit_act_alg_on_dual(e_sign, lam, h)
    assert got == (Fraction(1, 2) * ONE, Fraction(-1, 2) * ONE)


def test_dual_hit_on_kc2(examples):
    h = examples["kC2"]
    p = compute_integrals(h)
    # eps acts as identity
    assert vec_eq(hit_act_dual_on_alg(h.counit, p.Lambda, h), p.Lambda)
    # (S* chi_sign) Lambda = e - g: oracle is the hand contraction of
    # Delta(Lambda) = e (x) e + g (x) g
    sign = (ONE, -ONE)
    s_sign = h.apply_dual_antipode(sign)
    got = hit_act_dual_on_alg(s_sign, p.Lambda, h)
    assert got == (ONE, -ONE)
    # delta_e Lambda = e
    assert vec_eq(hit_act_dual_on_alg(h.basis_vector(0), p.Lambda, h), h.basis_vector(0))


@pytest.mark.parametrize("name", ["kC2", "kS3", "k^S3"])
def test_adjunction_exhaustive(name, examples):
    h = examples[name]
    d = h.dim
    for i in range(d):
        psi = h.basis_vector(i)
        for j in range(d):
            phi = h.basis_vector(j)
            conv = convolve(psi, phi, h)
            for k in range(d):
                x = h.basis_vector(k)
                assert pair(psi, hit_act_dual_on_alg(phi, x, h)) == pair(conv, x)
                assert pair(hit_act_alg_on_dual(x, phi, h), psi) == pair(
                    phi, h.multiply(psi, x)
                )


def test_hit_actions_are_module_actions(examples):
    rng = DeterministicRng(11)
    h = examples["kS3"]
    d = h.dim

    def draw():
        return tuple(CycScalar.from_rational(rng.randint(-2, 2)) for _ in range(d))

    for _ in range(10):
        a, b, phi = draw(), draw(), draw()
        lhs = hit_act_alg_on_dual(h.multiply(a, b), phi, h)
        rhs = hit_act_alg_on_dual(a, hit_act_alg_on_dual(b, phi, h), h)
        assert vec_eq(lhs, rhs)
        assert vec_eq(hit_act_alg_on_dual(h.unit, phi, h), phi)
        # dual side: (phi psi) h = phi (psi h) under <psi, phi h> = <psi phi, h>
        x = draw()
        lhs = hit_act_dual_on_alg(convolve(a, b, h), x, h)
        rhs = hit_act_dual_on_alg(a, hit_act_dual_on_alg(b, x, h), h)
        assert vec_eq(lhs, rhs)


def test_convolution_associativity(examples):
    # exhaustive on basis triples for dim <= 8, seeded samples above that
    for name in ("kC2", "kQ8"):
        h = examples[name]
        d = h.dim
        for i, j, k in product(range(d), repeat=3):
            a, b, c = h.basis_vector(i), h.basis_vector(j), h.basis_vector(k)
            assert vec_eq(
                convolve(convolve(a, b, h), c, h), convolve(a, convolve(b, c, h), h)
            )
    big = examples["D(S3)"]
    rng = DeterministicRng(13)
    for _ in range(30):
        i, j, k = (rng.below(big.dim) for _ in range(3))
        a, b, c = big.basis_vector(i), big.basis_vector(j), big.basis_vector(k)
        assert vec_eq(
            convolve(convolve(a, b, big), c, big), convolve(a, convolve(b, c, big), big)
        )


def test_hopf_format_round_trip(examples):
    for name in ("kC2", "kS3", "D(C2)", "kS3(x)k^C2"):
        h = examples[name]
        again = parse_hopf(format_hopf(h))
        assert again == h
        assert again.name == h.name


def test_hopf_format_cyclotomic_scalars():
    # a (non-axiomatic) tensor with genuinely cyclotomic entries round-trips
    z = CycScalar.zeta(12)
    h = HopfData(
        "synthetic", 1,
        {(0, 0, 0): z + Fraction(3, 2)}, [ONE], {(0, 0, 0): z**7}, [ONE], {(0, 0): -z},
        cyclotomic_order=12,
    )
    again = parse_hopf(format_hopf(h))
    assert again == h


def test_parse_hopf_errors():
    from hopfkit import ParseError

    with pytest.raises(ParseError):
        parse_hopf("dim 2\nMULT\n0 0 0 1\n")  # no name
    with pytest.raises(ParseError):
        parse_hopf("hopf x\ndim 2\nMULT\n0 0 5 1\n")  # index out of range
    with pytest.raises(ParseError):
        parse_hopf("hopf x\ndim 2\nMULT\n0 0 0 1\n0 0 0 1\n")  # duplicate
    with pytest.raises(ParseError):
        parse_hopf("hopf x\ndim 2\nMULT\n0 0 0 3//2\n")  # bad scalar
    with pytest.raises(ParseError):  # z was already read at order 1
        parse_hopf("hopf x\ndim 2\nMULT\n0 0 0 z\ncyclotomic 4\n")
    with pytest.raises(ParseError):  # indices were already checked against dim 2
        parse_hopf("hopf x\ndim 2\nMULT\n1 1 1 1\ndim 1\n")
    with pytest.raises(ParseError):
        parse_hopf("hopf x\ndim 0\n")
    with pytest.raises(ParseError):  # a digit that int() rejects
        parse_hopf("hopf x\ndim \u00b2\n")
    with pytest.raises(ParseError):
        parse_hopf("hopf x\ndim 2\ncyclotomic \u00b2\n")
