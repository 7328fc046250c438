"""Polynomials, minimal polynomials over Q, and integrality certificates."""

from fractions import Fraction

import pytest

from conftest import charpoly, recheck_integrality, resultant_q

from hopfkit import CycScalar, Poly, euler_phi, is_algebraic_integer, min_poly_scalar
from hopfkit.rng import DeterministicRng
from hopfkit.scalars import _poly_add, _poly_derivative, _poly_divmod, _poly_gcd, _poly_mul, _poly_trim


def test_poly_basics():
    p = Poly([1, 2, 1])
    q = Poly([1, 1])
    assert p.degree == 2 and q.degree == 1
    assert q * q == p
    assert divmod(p, q) == (q, Poly.zero())
    assert p.gcd(q) == q
    assert Poly.zero().is_zero() and Poly.zero().degree == -1


def test_poly_trailing_zeros_trimmed():
    assert Poly([1, 0, 0]).degree == 0
    assert Poly([0, 0, 0]).is_zero()


def test_poly_evaluate_compose():
    p = Poly([1, 1, 1])  # 1 + x + x^2
    assert p.evaluate(CycScalar.from_rational(2)) == 7
    assert p.compose(Poly([0, 2])) == Poly([1, 2, 4])  # p(2x)


def test_min_poly_rational():
    assert min_poly_scalar(CycScalar.from_rational(5)) == Poly([-5, 1])


def test_min_poly_rational_runs_no_dependency_search(monkeypatch):
    from hopfkit.linalg import IncrementalDependency

    def refused(self, vec):
        raise AssertionError("a rational needs no dependency search")

    monkeypatch.setattr(IncrementalDependency, "add", refused)
    for q in (0, 5, Fraction(-3, 4)):
        a = CycScalar.from_rational(q)
        assert min_poly_scalar(a) == Poly([-q, 1])
        assert is_algebraic_integer(a).is_integer == (Fraction(q).denominator == 1)


def test_min_poly_zeta3_is_cyclotomic():
    assert min_poly_scalar(CycScalar.zeta(3)) == Poly([1, 1, 1])


def test_min_poly_one_plus_zeta3():
    # oracle: expand (x - a)(x - abar) in Q(zeta_3) with abar = 1 + zeta_3^2
    a = 1 + CycScalar.zeta(3)
    abar = 1 + CycScalar.zeta(3) ** 2
    oracle = Poly([a * abar, -(a + abar), 1])
    assert oracle == Poly([1, -1, 1])  # x^2 - x + 1, coefficients collapse to Q
    assert min_poly_scalar(a) == oracle


def test_min_poly_annihilates_subject():
    rng = DeterministicRng(99)
    for order in (3, 4, 5, 8, 12):
        phi = euler_phi(order)
        for _ in range(5):
            a = CycScalar.from_coords(
                order, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(phi)]
            )
            m = min_poly_scalar(a)
            assert m.is_monic()
            assert m.evaluate(a).is_zero()


def test_min_poly_is_irreducible_over_q():
    # tie the two kernels together: re-factoring a minimal polynomial must
    # return it unchanged as a single irreducible factor
    from hopfkit import factor_rational

    for a in (CycScalar.zeta(5) + CycScalar.zeta(5, 4), 1 + CycScalar.zeta(3), CycScalar.zeta(8)):
        m = min_poly_scalar(a)
        assert factor_rational(m) == [(m, 1)]


def test_integrality_certificates():
    c = is_algebraic_integer(CycScalar.from_rational(3))
    assert c.is_integer and c.minimal_polynomial == Poly([-3, 1])
    c = is_algebraic_integer(CycScalar.from_rational(Fraction(1, 2)))
    assert not c.is_integer and c.minimal_polynomial == Poly([Fraction(-1, 2), 1])


def test_golden_conjugate_is_integral():
    # zeta_5 + zeta_5^4 = 2 cos(72 deg); oracle: its Galois mate is
    # zeta_5^2 + zeta_5^3, and sum/product give x^2 + x - 1 exactly
    a = CycScalar.zeta(5) + CycScalar.zeta(5, 4)
    mate = CycScalar.zeta(5, 2) + CycScalar.zeta(5, 3)
    oracle = Poly([a * mate, -(a + mate), 1])
    assert oracle == Poly([-1, 1, 1])
    cert = is_algebraic_integer(a)
    assert cert.is_integer
    assert cert.minimal_polynomial == oracle
    assert recheck_integrality(cert)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8])
def test_integrality_brute_force_oracle(order):
    # elements (m/n) zeta^k: after basis reduction, integral iff the rational
    # coordinates all have denominator 1
    for k in range(order if order > 1 else 1):
        for m in range(-4, 5):
            for n in (1, 2, 3):
                a = Fraction(m, n) * CycScalar.zeta(order, k)
                cert = is_algebraic_integer(a)
                expected = all(q.denominator == 1 for q in a.coords)
                assert cert.is_integer == expected, (order, k, m, n)


# -- the coefficient-list kit beyond 0/1 coefficients ---------------------------


def _draw_monic_int(rng, deg):
    return [rng.randint(-9, 9) for _ in range(deg)] + [1]


def _draw_nonmonic_int(rng, deg):
    return [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(2, 6) * (-1) ** rng.randint(0, 1)]


def _draw_fraction(rng, deg):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)]
    coeffs[-1] = coeffs[-1] or Fraction(7, 3)
    return coeffs


def _draw_cyc8(rng, deg):
    def scalar():
        return CycScalar.from_coords(8, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])

    coeffs = [scalar() for _ in range(deg + 1)]
    coeffs[-1] = coeffs[-1] or 2 - 3 * CycScalar.zeta(8, 3)
    return coeffs


def _sylvester_det(a, b):
    """Res(a, b) as the determinant of the Sylvester matrix, det S = (-1)^n charpoly_S(0)."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = [[0] * k + a[::-1] + [0] * (n - 1 - k) for k in range(n)]
    rows += [[0] * k + b[::-1] + [0] * (m - 1 - k) for k in range(m)]
    return (-1) ** size * charpoly(rows)[0]


# family -> (draw a polynomial of a given degree, map its coefficients into a
# field); gcd and resultants divide by non-monic remainders, so monic integer
# lists are compared over Q there, while non-monic ones go in raw to check that
# the kit's reciprocals stay exact
_KIT_FAMILIES = {
    "monic-int": (_draw_monic_int, Fraction),
    "nonmonic-int": (_draw_nonmonic_int, lambda c: c),
    "fraction": (_draw_fraction, Fraction),
    "cyc8": (_draw_cyc8, lambda c: c),
}


@pytest.mark.parametrize("family", sorted(_KIT_FAMILIES))
def test_coefficient_kit_identities(family):
    draw, to_field = _KIT_FAMILIES[family]
    rng = DeterministicRng(31)
    for trial in range(4):
        # division with remainder: a = q b + r, deg r < deg b
        a, b = draw(rng, 5), draw(rng, 2)
        q, r = _poly_divmod(a, b)
        assert _poly_add(_poly_mul(q, b), r) == _poly_trim(a)
        assert len(r) < len(b)
        if family == "monic-int":
            assert all(type(c) is int for c in q + r)  # monic division stays in int
        assert not any(isinstance(c, float) for c in q + r)

        # product rule
        f, g = draw(rng, 3), draw(rng, 2)
        lhs = _poly_derivative(_poly_mul(f, g))
        rhs = _poly_add(_poly_mul(_poly_derivative(f), g), _poly_mul(f, _poly_derivative(g)))
        assert lhs == rhs

        # resultant by the remainder chain against the Sylvester determinant;
        # the degrees vary so that odd deg a * deg b steps (a sign flip) occur
        a = [to_field(c) for c in draw(rng, 3)]
        b = [to_field(c) for c in draw(rng, 1 + trial % 3)]
        assert resultant_q(a, b) == _sylvester_det(a, b)

        # gcd(f g, f h) = f / lc(f) for coprime g, h (nonzero resultant)
        f = [to_field(c) for c in draw(rng, 2)]
        g, h = [to_field(c) for c in draw(rng, 2)], [to_field(c) for c in draw(rng, 1)]
        while not _sylvester_det(g, h):
            h = [to_field(c) for c in draw(rng, 1)]
        expected = [Fraction(1) * c / f[-1] for c in f]  # exact for int lists too
        gcd = _poly_gcd(_poly_mul(f, g), _poly_mul(f, h))
        assert gcd == expected
        assert not any(isinstance(c, float) for c in gcd)
        assert _poly_gcd(f, []) == _poly_gcd([], f) == expected
