"""Exact cyclotomic scalar arithmetic, the literal grammar, and field axioms."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from hopfkit import CycScalar, ParseError, Vector, cyclotomic_coeffs, euler_phi, format_scalar, parse_scalar
from hopfkit.hopf import format_vector
from hopfkit.polys import Poly, format_poly
from hopfkit.scalars import ONE, ZERO, _SMALL, _coerce, _poly_divmod, _poly_inv, _poly_mul, _poly_sub, _poly_trim, as_scalar
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
    # each coordinate of nums / den in lowest terms; polynomials and vectors
    # format their entries the same way
    x = CycScalar.from_coords(6, [Fraction(-2, 3), Fraction(3, 4)])
    assert format_scalar(x) == "3/4*z - 2/3"
    assert format_scalar(-x / 6) == "-1/8*z + 1/9"
    assert format_scalar(CycScalar.from_rational(Fraction(-5, 6))) == "-5/6"
    assert format_poly(Poly([Fraction(-5, 6), 1, x, Fraction(1, 2), -3])) == "-3*x^4 + 1/2*x^3 + (3/4*z - 2/3)*x^2 + x - 5/6"
    assert format_vector(Vector(4, {1: x, 3: as_scalar(-7)})) == "(0, 3/4*z - 2/3, 0, -7)"
    assert format_vector([0, Fraction(1, 2), x]) == "(0, 1/2, 3/4*z - 2/3)"


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


@pytest.mark.parametrize("literal", ["{}/2", "1/{}", "{}*z", "1/{}*z", "z^{}"])
def test_overlong_numbers_are_parse_errors(literal):
    # a numerator, denominator, coefficient or exponent past int()'s digit limit
    with pytest.raises(ParseError, match="5001-digit"):
        parse_scalar(literal.format("1" * 5001), 4)


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


# -- the integer kernel against a Fraction-coordinate reference ----------------
# A reference value is (order, Fraction coordinates over the power basis); its
# arithmetic is the coefficient-list kit reduced modulo Phi_order by division,
# and its inverse the extended Euclid against Phi_order, so it shares no code
# with CycScalar's numerator/denominator arithmetic.

_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)
_RATIONAL = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@st.composite
def _reference_operand(draw):
    """An order and phi(order) coordinates; one draw in four is rational."""
    order = draw(st.sampled_from(_ORDERS))
    rest = euler_phi(order) - 1
    rational = draw(st.integers(0, 3)) == 0
    return order, [draw(_RATIONAL)] + [Fraction(0) if rational else draw(_RATIONAL) for _ in range(rest)]


def _ref_reduce(coeffs, order):
    r = _poly_divmod([Fraction(c) for c in coeffs], [Fraction(c) for c in cyclotomic_coeffs(order)])[1]
    return r + [Fraction(0)] * (euler_phi(order) - len(r))


def _ref_lift(ref, order):
    n, coords = ref
    k = order // n
    out = [Fraction(0)] * ((len(coords) - 1) * k + 1)
    for i, c in enumerate(coords):
        out[i * k] = c
    return _ref_reduce(out, order)


def _ref_add(a, b, sign=1):
    n = lcm(a[0], b[0])
    return n, [x + sign * y for x, y in zip(_ref_lift(a, n), _ref_lift(b, n))]


def _ref_mul(a, b):
    n = lcm(a[0], b[0])
    return n, _ref_reduce(_poly_mul(_ref_lift(a, n), _ref_lift(b, n)), n)


def _ref_inverse(a):
    n, coords = a
    r0, r1 = [Fraction(c) for c in cyclotomic_coeffs(n)], _poly_trim(list(coords))
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    (g,) = r0  # Phi_n is irreducible, so the gcd is a nonzero constant
    return n, _ref_reduce([c / g for c in t0], n)


def _ref_pow(a, e):
    base, out = (_ref_inverse(a) if e < 0 else a), (1, [Fraction(1)])
    for _ in range(abs(e)):
        out = _ref_mul(out, base)
    return out


def _check(v, ref):
    """v equals the reference value and is in canonical form."""
    n = lcm(v.order, ref[0])
    assert v.lift(n) == _ref_lift(ref, n), (v, ref)
    assert type(v.den) is int and v.den > 0
    assert len(v.nums) == euler_phi(v.order) and all(type(x) is int for x in v.nums)
    assert gcd(v.den, *v.nums) == 1
    assert (v.order == 1) == (not any(_ref_lift(ref, n)[1:])), (v, ref)  # rational <=> order 1
    assert v.is_zero() == (not any(ref[1])) == (not v)
    assert v.coords == tuple(Fraction(x, v.den) for x in v.nums) and _canonical(v.coords)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(a=_reference_operand(), b=_reference_operand(), q=_RATIONAL, e=st.integers(-3, 4))
def test_integer_kernel_matches_fraction_reference(a, b, q, e):
    x, y = CycScalar.from_coords(*a), CycScalar.from_coords(*b)
    _check(x, a)
    _check(y, b)
    rq = (1, [q])
    _check(x + y, _ref_add(a, b))
    _check(x - y, _ref_add(a, b, -1))
    _check(x * y, _ref_mul(a, b))
    _check(-x, _ref_add((1, [Fraction(0)]), a, -1))
    _check(x + q, _ref_add(a, rq))
    _check(q - x, _ref_add(rq, a, -1))
    _check(q * x, _ref_mul(rq, a))
    if q:
        _check(x / q, _ref_mul(a, _ref_inverse(rq)))
    if any(b[1]):
        _check(y.inverse(), _ref_inverse(b))
        _check(x / y, _ref_mul(a, _ref_inverse(b)))
        _check(q / y, _ref_mul(rq, _ref_inverse(b)))
    if e >= 0 or any(a[1]):
        _check(x**e, _ref_pow(a, e))
    assert (x == y) == (_ref_add(a, b, -1)[1] == [0] * euler_phi(lcm(a[0], b[0])))
    assert (x == q) == (_ref_add(a, rq, -1)[1] == [0] * euler_phi(a[0]))
    # the same value stored at a multiple of its order
    for m in (2 * a[0], 3 * a[0]):
        z = CycScalar.from_coords(m, x.lift(m))
        _check(z, (m, _ref_lift(a, m)))
        assert z == x and x == z and (z - x).is_zero() and (z * y == x * y)
        assert (z == x / 2) == x.is_zero()


def test_arithmetic_builds_no_fraction(monkeypatch):
    # + - * == and the literal formats run on the integer numerators alone,
    # den > 1 included; a Fraction appears only where the coordinates are read
    values = [CycScalar.from_coords(n, range(1, euler_phi(n) + 1)) / d for n in (1, 3, 4, 6, 12) for d in (1, 2)]
    values += [CycScalar.from_coords(6, [Fraction(-2, 3), Fraction(3, 4)]), CycScalar.from_rational(Fraction(-5, 6))]
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda cls, *a, **k: made.append(a) or new(cls, *a, **k)))
    for x in values:
        for y in values:
            x + y, x - y, x * y, x == y, x + 2, 3 * x, 1 - x, x == 0
        format_scalar(x)
    format_poly(Poly(values)), format_vector(Vector.of(values + [0])), format_vector(values)
    assert made == []
    values[-1].coords
    assert made


# -- the shared integers -64..64 --------------------------------------------------


def _fresh(n: int) -> CycScalar:
    """The integer n as an instance of its own, from the trusted constructor."""
    return CycScalar(1, (n,))


# the paths that the scalars.py docstring names as sharing, each made to yield n
_INTEGER_PATHS = {
    "_canonical": lambda n: CycScalar.from_coords(4, [Fraction(3 * n, 3), 0]),
    "_canonical (den)": lambda n: CycScalar.from_coords(4, [Fraction(2 * n + 1, 2), Fraction(1, 2)])
    + CycScalar.from_coords(4, [Fraction(-1, 2), Fraction(-1, 2)]),
    "add": lambda n: _fresh(n + 100) + _fresh(-100),
    "sub": lambda n: _fresh(n + 100) - _fresh(100),
    "mul": lambda n: _fresh(-n) * _fresh(-1),
    "neg": lambda n: -_fresh(-n),
    "inverse": lambda n: CycScalar(1, (1 if n > 0 else -1,), abs(n)).inverse(),
    "from_rational": lambda n: CycScalar.from_rational(Fraction(2 * n, 2)),
    "_coerce": _coerce,
    "as_scalar": as_scalar,
    "parse_scalar": lambda n: parse_scalar(f"{n} + z^6 - 1", 6),
}


def test_the_table_holds_the_integers_minus_64_to_64():
    assert len(_SMALL) == 129 and _SMALL[0] is ZERO and _SMALL[1] is ONE
    assert [_SMALL[n].key() for n in range(-64, 65)] == [(1, (n,), 1) for n in range(-64, 65)]


@pytest.mark.parametrize("path", sorted(_INTEGER_PATHS))
def test_integer_results_are_shared_between_minus_64_and_64(path):
    make = _INTEGER_PATHS[path]
    for n in range(-64, 65):
        if n or path != "inverse":
            assert make(n) is _SMALL[n], n
    for n in (65, -65, 10**30):
        a, b = make(n), make(n)
        assert a.key() == b.key() == (1, (n,), 1) and a is not b


def test_cyclotomic_results_that_are_integers_are_shared():
    z3, z4 = CycScalar.zeta(3), CycScalar.zeta(4)
    assert z4 * z4 is _SMALL[-1] and z3 + z3**2 is _SMALL[-1] and z4**4 is ONE
    assert CycScalar.zeta(1) is ONE and CycScalar.zeta(2) is _SMALL[-1] and z3 - z3 is ZERO
    assert (2 * z4 + 7) - 2 * z4 is _SMALL[7]


def test_poly_inv_of_a_unit_lead_is_the_int(monkeypatch):
    # division by a monic integer polynomial stays in int and builds no Fraction
    minus_one = Fraction(-1)
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda cls, *a, **k: made.append(a) or new(cls, *a, **k)))
    for lead in (1, -1):
        inv = _poly_inv(lead)
        assert inv == lead and type(inv) is int
    assert _poly_divmod([-32, 0, 0, 0, 0, 1], [-2, 1]) == ([16, 8, 4, 2, 1], [])
    assert _poly_divmod([1, 0, 3], [5, 0, -1]) == ([-3], [16])
    assert made == []
    assert _poly_inv(minus_one) == -1 and type(_poly_inv(minus_one)) is int
    assert _poly_inv(Fraction(1, 3)) == 3 and type(_poly_inv(Fraction(1, 3))) is int
    assert _poly_inv(-2) == Fraction(-1, 2) and _poly_inv(CycScalar.zeta(4)) == -CycScalar.zeta(4)


# -- every constructor and operation against the Fraction reference, by key() ----

_INT = st.one_of(st.integers(-70, 70), st.integers(-10**12, 10**12))
_COORD = st.one_of(_INT.map(Fraction), _RATIONAL)


@st.composite
def _kind_operand(draw):
    """An int, a rational, or a value of order 3, 4 or 6, as a reference value."""
    kind = draw(st.sampled_from(("int", "rational", 3, 4, 6)))
    if kind == "int":
        return 1, [Fraction(draw(_INT))]
    if kind == "rational":
        return 1, [draw(_RATIONAL)]
    return kind, [draw(_COORD) for _ in range(euler_phi(kind))]


def _ref_key(ref) -> tuple:
    """The canonical key of a reference value: order 1 when it is rational,
    the coordinates as numerators over their least common denominator."""
    n, coords = ref
    if not any(coords[1:]):
        n, coords = 1, coords[:1]
    den = lcm(*(c.denominator for c in coords))
    return n, tuple(int(c * den) for c in coords), den


def _literal(ref, shift: int) -> str:
    """The reference value in the literal grammar, each power raised by shift * order."""
    n, coords = ref
    return " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*z^{i + shift * n}" for i, c in enumerate(coords))


def _shared_if_small(v: CycScalar) -> None:
    if v.order == 1 == v.den and -64 <= v.nums[0] <= 64:
        assert v is _SMALL[v.nums[0]], v


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=_kind_operand(), b=_kind_operand(), shift=st.integers(0, 2))
def test_keys_match_the_fraction_reference(a, b, shift):
    x, y = CycScalar.from_coords(*a), parse_scalar(_literal(b, shift), b[0])
    # a rational operand is stored at order 1, so results live at the lcm of
    # the operands' orders after that collapse
    a, b = ((1, r[1][:1]) if not any(r[1][1:]) else r for r in (a, b))
    # constructors, negation and inverse return the shared instance for every
    # small integer; + - * do when no operand is a non-integer rational (whose
    # den path may come out integral unshared); / is checked by key only
    always = [(x, a), (y, b), (-x, _ref_add((1, [Fraction(0)]), a, -1))]
    if a[0] == 1:
        always.append((CycScalar.from_rational(a[1][0]), a))
    if any(a[1]):
        always.append((x.inverse(), _ref_inverse(a)))
    ring = [(x + y, _ref_add(a, b)), (x - y, _ref_add(a, b, -1)), (x * y, _ref_mul(a, b))]
    quotient = [(x / y, _ref_mul(a, _ref_inverse(b)))] if any(b[1]) else []
    for v, ref in always + ring + quotient:
        assert v.key() == _ref_key(ref), (v, ref)
    for v, _ in always + (ring if all(v.order > 1 or v.den == 1 for v in (x, y)) else []):
        _shared_if_small(v)
