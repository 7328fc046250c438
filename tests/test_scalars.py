"""Exact cyclotomic scalar arithmetic, the literal grammar, and field axioms."""

from fractions import Fraction

import pytest

from hopfkit import CycScalar, ParseError, cyclotomic_coeffs, euler_phi, format_scalar, parse_scalar
from hopfkit.scalars import ONE, as_scalar
from hopfkit.rng import DeterministicRng


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(2) == (1, 1)
    assert cyclotomic_coeffs(3) == (1, 1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)


def test_zeta4_squared_is_minus_one():
    z = CycScalar.zeta(4)
    assert z * z == -1
    assert CycScalar.from_rational(1) - z == 1 - z  # __sub__ agrees with __rsub__


def test_primitive_cube_roots_sum_to_minus_one():
    z = CycScalar.zeta(3)
    assert z + z**2 == -1


def test_rational_division():
    half = CycScalar.from_rational(Fraction(1, 2))
    third = CycScalar.from_rational(Fraction(1, 3))
    assert half / third == Fraction(3, 2)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycScalar.from_rational(1) / CycScalar.from_rational(0)
    with pytest.raises(ZeroDivisionError):
        CycScalar.zeta(4) / CycScalar.from_rational(0)
    with pytest.raises(ZeroDivisionError):
        CycScalar.zeta(8).inverse() * CycScalar.from_coords(8, [0, 0, 0, 0]).inverse()


def test_cross_order_equality():
    # zeta_3 = zeta_6^2, represented at different orders
    assert CycScalar.zeta(3) == CycScalar.zeta(6) ** 2
    assert CycScalar.zeta(6, 3) == -1  # zeta_6^3 = -1 collapses to order 1
    assert CycScalar.zeta(6, 3).order == 1


def test_mixed_order_arithmetic():
    a = CycScalar.zeta(4)   # i
    b = CycScalar.zeta(3)
    c = a * b               # a primitive 12th root
    assert c.order == 12
    assert c**12 == 1
    assert c**6 == -1


def test_rational_collapse():
    z = CycScalar.zeta(8)
    v = z * z.inverse()
    assert v.order == 1 and v.as_fraction() == 1


@pytest.mark.parametrize("order", [1, 3, 4, 5, 6, 8, 12])
def test_field_axioms_randomized(order):
    rng = DeterministicRng(order * 1000 + 17)
    phi = euler_phi(order)

    def draw():
        return CycScalar.from_coords(
            order, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)]
        )

    for _ in range(25):
        a, b, c = draw(), draw(), draw()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_literal_format_examples():
    z = CycScalar.zeta(8)
    v = Fraction(3, 2) * z**2 - 1
    assert format_scalar(v) == "3/2*z^2 - 1"
    assert format_scalar(CycScalar.from_rational(0)) == "0"
    assert format_scalar(-z) == "-z"
    assert format_scalar(z**3 - z) == "z^3 - z"


@pytest.mark.parametrize("order", [3, 4, 6, 8, 12])
def test_literal_round_trip(order):
    rng = DeterministicRng(order)
    phi = euler_phi(order)
    for _ in range(20):
        v = CycScalar.from_coords(
            order, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(phi)]
        )
        assert parse_scalar(format_scalar(v), order) == v


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_scalar("", 4)
    with pytest.raises(ParseError):
        parse_scalar("3//2", 4)
    with pytest.raises(ParseError):
        parse_scalar("z^", 4)
    with pytest.raises(ParseError):
        parse_scalar("1 + ", 4)


def test_parse_reduces_high_powers():
    # z^4 = 1 at order 4; z^2 = -1
    assert parse_scalar("z^4", 4) == 1
    assert parse_scalar("z^2 + 1", 4) == 0
    assert parse_scalar("2*z + z", 4) == 3 * CycScalar.zeta(4)


# -- canonical coordinates: int when integral, Fraction otherwise, never float --


def _canonical(coords) -> bool:
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in coords
    )


def test_canonical_coordinate_pins():
    assert (ONE / 2).coords == (Fraction(1, 2),)
    assert type(as_scalar(Fraction(4, 2)).coords[0]) is int
    assert type(CycScalar.from_rational(Fraction(6, 3)).coords[0]) is int
    assert type(as_scalar(3).as_fraction()) is Fraction
    assert type((ONE / 2).as_fraction()) is Fraction
    assert (ONE / 2 + ONE / 2).coords == (1,) and type((ONE / 2 * 2).coords[0]) is int


@pytest.mark.parametrize("order", [1, 3, 4, 6, 8, 12])
def test_operations_keep_coordinates_canonical(order):
    rng = DeterministicRng(order * 7 + 3)
    phi = euler_phi(order)

    def draw():
        # denominators 1 and 2 make integral sums and products of Fractions common
        return CycScalar.from_coords(
            order, [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(phi)]
        )

    for _ in range(25):
        a, b = draw(), draw()
        results = [a, b, a + b, a - b, a * b, -a, a + 1, 2 - a, a * Fraction(2, 4), a**3]
        if not b.is_zero():
            results += [a / b, a / 2, 3 / b, b.inverse(), b**-2]
        for v in results:
            assert _canonical(v.coords), (v, v.coords)
            assert _canonical(v.lift(order * 2)), (v, order)
            assert parse_scalar(format_scalar(v), v.order).coords == v.coords


def test_parse_and_coords_constructors_are_canonical():
    for text in ("4/2", "-6/3 + 1/2*z", "2*z^2 - 2/2", "0", "3/4*z^3", "z^4"):
        assert _canonical(parse_scalar(text, 8).coords), text
    assert CycScalar.from_coords(4, [Fraction(2, 2), Fraction(6, 4)]).coords == (1, Fraction(3, 2))
    assert CycScalar.from_coords(6, [Fraction(1, 2), 1, 1]).coords == (Fraction(-1, 2), 2)


def test_pipeline_vectors_are_canonical(pipelines):
    p = pipelines("D(S3)")
    ip = p.integrals
    vectors = [ip.lambda_dual, ip.Lambda, ip.Lambda_scaled]
    for side in (p, p.dual):
        vectors += side.blocks.idempotents + side.table.characters
    for vec in vectors:
        for x in vec:
            assert _canonical(x.coords), x.coords
