"""Hopf structure: axioms, dualization, pairing, convolution, hit actions,
and the .hopf text format."""

import gc
import weakref
from fractions import Fraction
from itertools import product

import pytest
from conftest import perturbed

from hopfkit import (
    CycScalar,
    HopfData,
    builtin_group,
    check_axioms,
    compute_integrals,
    convolve,
    drinfeld_double,
    dualize,
    format_hopf,
    function_algebra,
    group_algebra,
    hit_act_alg_on_dual,
    hit_act_dual_on_alg,
    pair,
    parse_hopf,
    tensor_product,
)
from hopfkit.linalg import Vector
from hopfkit.rng import DeterministicRng
from hopfkit.scalars import ONE, ZERO


def test_axioms_pass_on_group_algebra(examples):
    assert check_axioms(examples["kC2"]).overall


def test_broken_antipode_fails_only_antipode_axioms(examples):
    h = examples["kC2"]
    broken = perturbed(h, antipode={(i, i): 0 for i in range(h.dim)})
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
    with pytest.raises(ValueError, match=r"^bad multiplication key \(0, -1, 0\): need 3 indices in 0\.\.1$"):
        HopfData("bad", 2, {(0, -1, 0): 1}, unit, {}, counit, {})
    with pytest.raises(ValueError, match=r"^bad comultiplication key \(0, 0, 0, 0\): need 3 indices"):
        HopfData("bad", 2, {}, unit, {(0, 0, 0, 0): 1}, counit, {})
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


def test_cached_dual_links_back(examples):
    from hopfkit import Pipeline

    for name in ("kS3", "D(S3)"):
        h = examples[name]
        assert h.dual is h.dual
        assert h.dual.dual is h
        assert h.dual == dualize(h)
        assert Pipeline(h).dual.H is h.dual


def test_dropped_report_needs_no_cycle_collector():
    # H* holds H weakly and the dual pipeline holds no link back, so a report's
    # objects go with their last reference; a cycle would keep them until a
    # collection, and a short process may never run the one that frees them
    from hopfkit import Pipeline

    h = drinfeld_double(builtin_group("C2"))
    pipe = Pipeline(h)
    assert pipe.report_document()["overall"]
    refs = [weakref.ref(x) for x in (h, h.dual, pipe, pipe.dual, pipe.dual.table)]
    gc.disable()
    try:
        del h, pipe
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
    # a dual that outlives its primal dualizes again, and links to the new one
    dual = group_algebra(builtin_group("S3")).dual
    assert dual.dual == group_algebra(builtin_group("S3"))
    assert dual.dual is dual.dual and dual.dual.dual is dual


def test_dual_of_double_passes_axioms(examples):
    assert check_axioms(dualize(examples["D(S3)"])).overall


def test_pair_examples(examples):
    h = examples["kC2"]
    assert pair(Vector.unit(h.dim, 0), Vector.unit(h.dim, 0)) == 1
    # eps of kC2 pairs to 2 against e + g
    assert pair(h.counit, Vector.of((ONE, ONE))) == 2
    p = compute_integrals(h)
    assert pair(p.lambda_dual, p.Lambda) == 1


def test_convolve_unit_and_sign_characters(examples):
    h = examples["kC2"]
    rng = DeterministicRng(3)
    for _ in range(5):
        phi = Vector.of(rng.randint(-3, 3) for _ in range(2))
        assert convolve(h.counit, phi, h) == phi
        assert convolve(phi, h.counit, h) == phi
    sign = Vector.of((ONE, -ONE))
    triv = Vector.of((ONE, ONE))
    assert convolve(sign, sign, h) == triv


def test_delta_basis_convolution_is_group_table(examples):
    # on k^S3 the dual is kS3: convolving dual basis vectors multiplies group
    # elements, so the structure constants reproduce the Cayley table
    h = examples["k^S3"]
    g = builtin_group("S3")
    for i in range(6):
        for j in range(6):
            got = convolve(Vector.unit(h.dim, i), Vector.unit(h.dim, j), h)
            assert got == Vector.unit(h.dim, g.table[i][j])


def test_hit_actions_on_kc2(examples):
    h = examples["kC2"]
    p = compute_integrals(h)
    lam = p.lambda_dual
    # 1_H acts as identity
    assert hit_act_alg_on_dual(h.unit, lam, h) == lam
    # g . lambda = delta_g: oracle <g lambda, h'> = <lambda, h' g>
    gl = hit_act_alg_on_dual(Vector.unit(h.dim, 1), lam, h)
    for hp in range(2):
        direct = pair(lam, h.multiply(Vector.unit(h.dim, hp), Vector.unit(h.dim, 1)))
        assert gl[hp] == direct
    assert gl == Vector.unit(h.dim, 1)
    # e_sign . lambda = (1/2)(delta_e - delta_g)
    e_sign = Vector.of((Fraction(1, 2), Fraction(-1, 2)))
    got = hit_act_alg_on_dual(e_sign, lam, h)
    assert got == (Fraction(1, 2) * ONE, Fraction(-1, 2) * ONE)


def test_dual_hit_on_kc2(examples):
    h = examples["kC2"]
    p = compute_integrals(h)
    # eps acts as identity
    assert hit_act_dual_on_alg(h.counit, p.Lambda, h) == p.Lambda
    # (S* chi_sign) Lambda = e - g: oracle is the hand contraction of
    # Delta(Lambda) = e (x) e + g (x) g
    sign = Vector.of((ONE, -ONE))
    s_sign = h.dual.apply_antipode(sign)
    got = hit_act_dual_on_alg(s_sign, p.Lambda, h)
    assert got == (ONE, -ONE)
    # delta_e Lambda = e
    assert hit_act_dual_on_alg(Vector.unit(h.dim, 0), p.Lambda, h) == Vector.unit(h.dim, 0)


@pytest.mark.parametrize("name", ["kC2", "kS3", "k^S3"])
def test_adjunction_exhaustive(name, examples):
    h = examples[name]
    d = h.dim
    for i in range(d):
        psi = Vector.unit(h.dim, i)
        for j in range(d):
            phi = Vector.unit(h.dim, j)
            conv = convolve(psi, phi, h)
            for k in range(d):
                x = Vector.unit(h.dim, k)
                assert pair(psi, hit_act_dual_on_alg(phi, x, h)) == pair(conv, x)
                assert pair(hit_act_alg_on_dual(x, phi, h), psi) == pair(
                    phi, h.multiply(psi, x)
                )


def test_hit_actions_are_module_actions(examples):
    rng = DeterministicRng(11)
    h = examples["kS3"]
    d = h.dim

    def draw():
        return Vector.of(rng.randint(-2, 2) for _ in range(d))

    for _ in range(10):
        a, b, phi = draw(), draw(), draw()
        lhs = hit_act_alg_on_dual(h.multiply(a, b), phi, h)
        rhs = hit_act_alg_on_dual(a, hit_act_alg_on_dual(b, phi, h), h)
        assert lhs == rhs
        assert hit_act_alg_on_dual(h.unit, phi, h) == phi
        # dual side: (phi psi) h = phi (psi h) under <psi, phi h> = <psi phi, h>
        x = draw()
        lhs = hit_act_dual_on_alg(convolve(a, b, h), x, h)
        rhs = hit_act_dual_on_alg(a, hit_act_dual_on_alg(b, x, h), h)
        assert lhs == rhs


def test_convolution_associativity(examples):
    # exhaustive on basis triples for dim <= 8, seeded samples above that
    for name in ("kC2", "kQ8"):
        h = examples[name]
        d = h.dim
        for i, j, k in product(range(d), repeat=3):
            a, b, c = Vector.unit(h.dim, i), Vector.unit(h.dim, j), Vector.unit(h.dim, k)
            assert convolve(convolve(a, b, h), c, h) == convolve(a, convolve(b, c, h), h)
    big = examples["D(S3)"]
    rng = DeterministicRng(13)
    for _ in range(30):
        i, j, k = (rng.below(big.dim) for _ in range(3))
        a, b, c = Vector.unit(big.dim, i), Vector.unit(big.dim, j), Vector.unit(big.dim, k)
        assert convolve(convolve(a, b, big), c, big) == convolve(a, convolve(b, c, big), big)


def test_hopf_format_round_trip(examples):
    for name in ("kC2", "kS3", "D(C2)", "kS3(x)k^C2"):
        h = examples[name]
        again = parse_hopf(format_hopf(h))
        assert again == h
        assert again.name == h.name


def _lifted_literals() -> HopfData:
    # entries of orders 4, 3 and 1 in a file of order 12
    z4, z3 = CycScalar.zeta(4), CycScalar.zeta(3)
    return HopfData(
        "lifted", 2,
        {(0, 0, 0): z4, (0, 1, 1): z3, (1, 0, 1): Fraction(3, 2), (1, 1, 0): -1}, [ONE, 0],
        {(0, 0, 0): z3}, [1, z4], {(0, 0): -1, (1, 1): Fraction(3, 2)},
        cyclotomic_order=12,
    )


def test_hopf_format_lifts_literals_to_the_file_order():
    # z_4 = z^3 and z_3 = z^4 = z^2 - 1 in Q(z_12); rationals print at order 1
    h = _lifted_literals()
    text = format_hopf(h)
    assert text == (
        "hopf lifted\ndim 2\ncyclotomic 12\n"
        "MULT\n0 0 0 z^3\n0 1 1 z^2 - 1\n1 0 1 3/2\n1 1 0 -1\n"
        "COMULT\n0 0 0 z^2 - 1\nUNIT\n0 1\nCOUNIT\n0 1\n1 z^3\n"
        "ANTIPODE\n0 0 -1\n1 1 3/2\n"
    )
    again = parse_hopf(text)
    assert again == h
    assert format_hopf(again) == text


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
    with pytest.raises(ParseError, match="dim expects"):  # more digits than int() converts
        parse_hopf("hopf x\ndim 1" + "0" * 5000 + "\n")
    with pytest.raises(ParseError):  # fewer MULT entries than 1 b_k = b_k needs
        parse_hopf("hopf x\ndim 1000000\nMULT\n0 0 0 1\n")


# the per-line errors, pinned to their exact message and line
@pytest.mark.parametrize("body, line, message", [
    pytest.param("MULT\n0 0 1\n", 5, "MULT lines need 3 indices and a scalar", id="too-few-tokens"),
    pytest.param("MULT\n0 x 0 1\n", 5, "bad index in MULT line", id="non-integer-index"),
    pytest.param("MULT\n0 -1 0 1\n", 5, "index out of range 0..1", id="negative-index"),
    pytest.param("MULT\n0 2 0 1\n", 5, "index out of range 0..1", id="index-is-dim"),
    pytest.param("UNIT\n2 1\n", 5, "index out of range 0..1", id="unit-index-is-dim"),
    pytest.param("MULT\n0 0 0 1\n0 0 0 1\n", 6, "duplicate MULT entry (0, 0, 0)", id="duplicate"),
    pytest.param("ANTIPODE\n0 0 1 # fine\n1 1 3//2 # 1/2\n", 6,
                 "bad scalar literal: bad term '3//2' in scalar literal '3//2'", id="literal-before-comment"),
    pytest.param("MULT\n0 0 0 1/2*z  -  q\n", 5,
                 "bad scalar literal: bad term 'q' in scalar literal '1/2*z  -  q'", id="multi-token-literal"),
])
def test_parse_hopf_line_errors(body, line, message):
    from hopfkit import ParseError

    with pytest.raises(ParseError) as err:
        parse_hopf("hopf x\ndim 2\ncyclotomic 4\n" + body)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def _tensor_d64() -> HopfData:
    """D(C2xC2) (x) D(C2)*, dim 64, whose literals are nearly all 1."""
    return tensor_product(drinfeld_double(builtin_group("C2xC2")), drinfeld_double(builtin_group("C2")).dual)


def test_parse_hopf_literal_memo():
    from hopfkit import ParseError

    # a repeated bad literal is reported at its first line, with the message
    # parse_scalar gives it
    with pytest.raises(ParseError) as err:
        parse_hopf("hopf x\ndim 2\nMULT\n0 0 0 1\n0 1 1 3//2\n1 0 1 3//2\n")
    assert err.value.line == 5
    assert str(err.value).startswith("line 5: bad scalar literal: ")
    # the memo lives for one call: after a failed parse, a repeated valid
    # literal parses, and "z" is read at each file's own cyclotomic order
    h = parse_hopf("hopf x\ndim 2\nMULT\n0 0 0 1/2\n0 1 1 1/2\n1 0 1 z\n")
    assert h.mult == {(0, 0, 0): Fraction(1, 2), (0, 1, 1): Fraction(1, 2), (1, 0, 1): ONE}
    h = parse_hopf("hopf x\ndim 2\ncyclotomic 4\nMULT\n0 0 0 z\n1 1 0 z\n")
    assert h.mult == {(0, 0, 0): CycScalar.zeta(4), (1, 1, 0): CycScalar.zeta(4)}
    # the dim-64 tensor round-trips byte for byte
    text = format_hopf(_tensor_d64())
    assert text.count("\n") > 1000
    assert format_hopf(parse_hopf(text)) == text


@pytest.mark.parametrize("build", [_tensor_d64, _lifted_literals])
def test_format_hopf_renders_each_literal_once(build, monkeypatch):
    # a work count, not a timing: each distinct value is rendered, and lifted
    # to the file's order, at most once per call
    import hopfkit.hopf

    h = build()
    values = [*h.mult.values(), *h.comult.values(), *h.antipode.values(),
              *h.unit.nz.values(), *h.counit.nz.values()]
    distinct = {c.key() for c in values}
    to_lift = {c.key() for c in values if c.order not in (1, h.cyclotomic_order)}
    calls = {"render": 0, "lift": 0}
    render, from_coords = hopfkit.hopf.format_scalar, CycScalar.from_coords.__func__

    def counted_render(c):
        calls["render"] += 1
        return render(c)

    def counted_from_coords(cls, order, coords):
        calls["lift"] += 1
        return from_coords(cls, order, coords)

    monkeypatch.setattr(hopfkit.hopf, "format_scalar", counted_render)
    monkeypatch.setattr(CycScalar, "from_coords", classmethod(counted_from_coords))
    text = format_hopf(h)
    assert len(values) > len(distinct)
    assert calls == {"render": len(distinct), "lift": len(to_lift)}
    monkeypatch.undo()
    assert text == format_hopf(h)


def test_mult_nz_memory_follows_entries():
    # 500 entries b_0 b_k = b_k declare dim 500: the product rows must hold
    # only the stored products, not a dim x dim grid of buckets
    import tracemalloc

    text = "hopf x\ndim 500\nMULT\n" + "".join(f"0 {k} {k} 1\n" for k in range(500))
    tracemalloc.start()
    try:
        h = parse_hopf(text)
        rows = h.mult_nz
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(rows[0]) == 500 and not any(rows[1:])
    failed = [(item.id, item.witness) for item in check_axioms(h).items if not item.passed]
    assert failed == [("unit", "unit fails on b0"), ("counit", "counit fails on b0"),
                      ("counit-alg-map", "eps(1) != 1")]


# -- the constructor is the one validation boundary ----------------------------


@pytest.mark.parametrize("key", [(0, 0, 0.0), (0, 0.0, 0), (0, 0, True), (0, 0, "0")])
def test_non_int_index_raises(key):
    # rejected at the boundary: a stored float index would fail later in a bucketed view
    unit = counit = [1]
    with pytest.raises(ValueError, match=r"^bad multiplication key"):
        HopfData("bad", 1, {key: 1}, unit, {(0, 0, 0): 1}, counit, {(0, 0): 1})
    with pytest.raises(ValueError, match=r"^bad comultiplication key"):
        HopfData("bad", 1, {(0, 0, 0): 1}, unit, {(1, 0, 0): 1, key: 1}, counit, {(0, 0): 1})
    with pytest.raises(ValueError, match=r"^bad antipode key"):
        HopfData("bad", 1, {(0, 0, 0): 1}, unit, {(0, 0, 0): 1}, counit, {key[1:]: 1})


@pytest.mark.parametrize("dim", [0, -1, 1.0, 2.5, "1", True, None])
def test_dim_must_be_a_positive_int(dim):
    with pytest.raises(ValueError, match=r"^dim must be an int >= 1$"):
        HopfData("bad", dim, {(0, 0, 0): 1}, [1], {(0, 0, 0): 1}, [1], {(0, 0): 1})


@pytest.mark.parametrize("order", [0, -3, 1001, 2000, 2.0, "6", True, None])
def test_cyclotomic_order_must_be_an_int_in_range(order):
    # an order outside 1..1000 would format as a `cyclotomic` header that
    # parse_hopf rejects
    with pytest.raises(ValueError, match=r"^cyclotomic_order must be an int in 1\.\.1000$"):
        HopfData("bad", 1, {(0, 0, 0): 1}, [1], {(0, 0, 0): 1}, [1], {(0, 0): 1},
                 cyclotomic_order=order)


# the keys are checked in bulk; a failure runs the per-key loop, which names the
# first bad key in insertion order, between good keys that come first and last
@pytest.mark.parametrize("middle, bad", [
    pytest.param({(0, 1, 0.0): 1}, (0, 1, 0.0), id="float"),
    pytest.param({(0, 1, True): 1}, (0, 1, True), id="bool"),
    pytest.param({(0, "1", 0): 1}, (0, "1", 0), id="str"),
    pytest.param({(0, -1, 0): 1}, (0, -1, 0), id="negative"),
    pytest.param({(0, 2, 0): 1}, (0, 2, 0), id="is-dim"),
    pytest.param({(0, 1, 0, 1): 1}, (0, 1, 0, 1), id="arity"),
    pytest.param({(1, 0, 1): 1, (0, 1): 1, (1, 0, 0): 1}, (0, 1), id="mixed-arities"),
    # (1, -1, 1) holds the least index, (1, 1, 5) comes first
    pytest.param({(1, 0, 1): 1, (1, 1, 5): 1, (1, -1, 1): 1}, (1, 1, 5), id="first-not-extreme"),
    pytest.param({(1, 0, 0.5): 1, 7: 1}, (1, 0, 0.5), id="before-a-non-sequence-key"),
])
def test_bad_key_names_the_first_bad_key(middle, bad):
    mult = {(0, 0, 0): 1, **middle, (1, 1, 1): 1}
    with pytest.raises(ValueError) as err:
        HopfData("bad", 2, mult, [1, 0], {(0, 0, 0): 1}, [1, 0], {(0, 0): 1})
    assert str(err.value) == f"bad multiplication key {bad!r}: need 3 indices in 0..1"
    with pytest.raises(ValueError) as err:
        HopfData("bad", 2, {(0, 0, 0): 1}, [1, 0], {(0, 0, 0): 1}, [1, 0], {(0, 0): 1, (1, 2): 1})
    assert str(err.value) == "bad antipode key (1, 2): need 2 indices in 0..1"


def test_empty_sections_build_and_the_literal_one_is_shared():
    h = HopfData("empty", 2, {}, [1, 0], {}, [0, 0], {})
    assert h.mult == h.comult == h.antipode == {}
    text = format_hopf(_tensor_d64())
    h = parse_hopf(text)
    values = [*h.mult.values(), *h.comult.values(), *h.antipode.values()]
    assert values and all(c is ONE for c in values if c == 1)
    assert all(c is ONE for c in HopfData("k", 1, {(0, 0, 0): Fraction(2, 2)}, [1], {(0, 0, 0): ONE},
                                          [1], {(0, 0): CycScalar.from_coords(1, [1])}).mult.values())


@pytest.mark.parametrize("section", ["multiplication", "comultiplication", "antipode", "unit", "counit"])
def test_scalar_order_must_divide_the_cyclotomic_order(section):
    # format_hopf writes `cyclotomic N` with N = cyclotomic_order, so a stored
    # scalar of another order would format to a file that parse_hopf rejects
    # (zeta_32 and zeta_33 at order 1 once formatted as `cyclotomic 1056`)
    z32, z33 = CycScalar.zeta(32), CycScalar.zeta(33)
    fields = {"multiplication": {(0, 0, 0): 1}, "unit": [1], "comultiplication": {(0, 0, 0): 1},
              "counit": [1], "antipode": {(0, 0): 1}}
    fields[section] = [z33] if section in ("unit", "counit") else {key: z33 for key in fields[section]}
    key = "(0,)" if section in ("unit", "counit") else repr(next(iter(fields[section])))
    with pytest.raises(ValueError) as err:
        HopfData("k", 1, *fields.values())
    assert str(err.value) == f"{section} entry {key} has order 33, which does not divide cyclotomic_order 1"
    with pytest.raises(ValueError, match=r"^multiplication entry \(0, 0, 0\) has order 32, "):
        HopfData("k", 1, {(0, 0, 0): z32}, [1], {(0, 0, 0): z33}, [1], {(0, 0): 1})
    h = HopfData("k", 1, *fields.values(), cyclotomic_order=33)
    assert format_hopf(h).startswith("hopf k\ndim 1\ncyclotomic 33\n")
    assert parse_hopf(format_hopf(h)) == h


def test_format_round_trip_at_the_maximum_order():
    h = HopfData("k", 1, {(0, 0, 0): 1}, [1], {(0, 0, 0): 1}, [1], {(0, 0): 1}, cyclotomic_order=1000)
    text = format_hopf(h)
    assert "\ncyclotomic 1000\n" in text
    back = parse_hopf(text)
    assert back == h and back.cyclotomic_order == 1000 and format_hopf(back) == text


def test_library_tensor_product_above_the_maximum_order_raises():
    a, b = (HopfData("k", 1, {(0, 0, 0): 1}, [1], {(0, 0, 0): 1}, [1], {(0, 0): 1}, cyclotomic_order=n)
            for n in (32, 33))
    with pytest.raises(ValueError, match="cyclotomic_order"):
        tensor_product(a, b)


# -- H* shares H's store --------------------------------------------------------


def test_dual_shares_the_tensors(examples):
    for name in ("kS3", "k^S3", "D(S3)", "kS3(x)k^C2"):
        h = examples[name]
        d = dualize(h)
        assert d.mult is h.comult and d.comult is h.mult, name
        assert d.unit is h.counit and d.counit is h.unit, name
        assert list(d.antipode) == sorted(d.antipode), name
        assert d.antipode == {(j, i): c for (i, j), c in h.antipode.items()}, name


def test_dualize_runs_no_validation(examples, monkeypatch):
    import hopfkit.hopf

    def forbidden(*args, **kwargs):
        raise AssertionError("dualize validated again")

    h = examples["D(S3)"]
    monkeypatch.setattr(hopfkit.hopf, "_sparse", forbidden)
    monkeypatch.setattr(HopfData, "__init__", forbidden)
    d = dualize(h)
    assert dualize(d).mult is h.mult
    monkeypatch.undo()
    assert d == HopfData(d.name, h.dim, h.comult, h.counit, h.mult, h.unit,
                         {(j, i): c for (i, j), c in h.antipode.items()}, h.cyclotomic_order)


def test_dual_comult_buckets_the_products_by_output(examples):
    # what the associativity check reads: the products with a b_k term
    for name in ("kS3", "k^S3", "D(S3)", "kS3(x)k^C2"):
        h = examples[name]
        by_output = {k: [] for k in range(h.dim)}
        for i in range(h.dim):
            for j in range(h.dim):
                for k in range(h.dim):
                    c = h.mult.get((i, j, k))
                    if c is not None:
                        by_output[k].append((i, j, c))
        assert h.dual.comult_nz == [tuple(by_output[k]) for k in range(h.dim)], name
