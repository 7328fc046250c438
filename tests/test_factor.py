"""Factorization over Q and over cyclotomic fields."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from conftest import resultant_q

from hopfkit import CycScalar, Poly, cyclotomic_coeffs, factor, factor_over_cyclotomic, factor_rational
from hopfkit.factor import (
    _ROOT_CANDIDATE_CAP,
    _choose_prime,
    _next_prime,
    _norm,
    _peel_integer_roots,
    _zassenhaus,
)
from hopfkit.rng import DeterministicRng
from hopfkit.scalars import _poly_add, _poly_derivative, _poly_mul


def _product_with_lead(p: Poly, factors) -> Poly:
    out = Poly([p.leading()])
    for f, mult in factors:
        out = out * f**mult
    return out


def test_factor_x2_minus_1():
    factors = factor_rational(Poly([-1, 0, 1]))
    assert [(str(f), m) for f, m in factors] == [("x - 1", 1), ("x + 1", 1)]


def test_factor_x6_minus_1_is_product_of_cyclotomics():
    p = Poly([-1, 0, 0, 0, 0, 0, 1])
    factors = factor_rational(p)
    # oracle: x^6 - 1 = prod_{d | 6} Phi_d
    expected = {tuple(Fraction(c) for c in cyclotomic_coeffs(d)) for d in (1, 2, 3, 6)}
    got = {tuple(c.as_fraction() for c in f.coeffs) for f, _ in factors}
    assert got == expected
    assert all(m == 1 for _, m in factors)
    assert _product_with_lead(p, factors) == p


def test_x4_x2_1_irreducible_by_exhaustion():
    p = Poly([1, 0, -1, 0, 1])
    factors = factor_rational(p)
    assert len(factors) == 1 and factors[0][1] == 1 and factors[0][0] == p
    # oracle: no monic integer quadratic factor x^2 + b x + c with coefficients
    # within the root bound works (roots are on the unit circle, so |c| <= 1,
    # |b| <= 2), and no rational root exists
    for b, c in product(range(-2, 3), range(-1, 2)):
        q = Poly([c, b, 1])
        _, r = divmod(p, q)
        assert not r.is_zero(), (b, c)
    for num in (1, -1):
        assert not p.evaluate(CycScalar.from_rational(num)).is_zero()


def test_multiplicities_and_content():
    p = Poly([Fraction(3)]) * Poly([1, -1]) ** 2 * Poly([2, 1]) ** 3
    factors = factor_rational(p)
    assert [(str(f), m) for f, m in factors] == [("x - 1", 2), ("x + 2", 3)]
    assert _product_with_lead(p, factors) == p


def test_factor_constant_and_linear():
    assert factor_rational(Poly([5])) == []
    assert factor_rational(Poly([2, 4])) == [(Poly([Fraction(1, 2), 1]), 1)]


def test_factor_round_trip_randomized():
    rng = DeterministicRng(2024)
    for _ in range(15):
        parts = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(deg)] + [Fraction(1)]
            parts.append(Poly(coeffs))
        p = Poly([Fraction(rng.randint(1, 3))])
        for f in parts:
            p = p * f
        factors = factor_rational(p)
        assert _product_with_lead(p, factors) == p
        # every reported factor is itself irreducible: re-factoring returns one factor
        for f, _ in factors:
            again = factor_rational(f)
            assert len(again) == 1 and again[0] == (f, 1)


def test_swinnerton_dyer_style_recombination():
    # x^4 - 10x^2 + 1 (min poly of sqrt2 + sqrt3) splits into quadratics mod
    # every prime, so Zassenhaus recombination must reassemble the true factors
    p = Poly([1, 0, -10, 0, 1])
    assert factor_rational(p) == [(p, 1)]
    q = p * Poly([-3, 0, 1])
    factors = factor_rational(q)
    assert sorted((f.degree, m) for f, m in factors) == [(2, 1), (4, 1)]
    assert (p, 1) in factors and (Poly([-3, 0, 1]), 1) in factors


def test_factor_over_cyclotomic_cube_roots():
    factors = factor_over_cyclotomic(Poly([1, 1, 1]), 3)
    assert all(f.degree == 1 for f in factors)
    z = CycScalar.zeta(3)
    roots = [str(-f[0]) for f in factors]
    assert sorted(roots) == sorted([str(z), str(z**2)])


def test_factor_over_cyclotomic_sqrt2():
    factors = factor_over_cyclotomic(Poly([-2, 0, 1]), 8)
    assert len(factors) == 2 and all(f.degree == 1 for f in factors)
    for f in factors:
        root = -f[0]
        assert root * root == 2  # oracle: sqrt(2) = zeta_8 + zeta_8^-1 squared
    product_poly = factors[0] * factors[1]
    assert product_poly == Poly([-2, 0, 1])


def test_factor_over_cyclotomic_linear_input():
    assert factor_over_cyclotomic(Poly([-7, 1]), 12) == [Poly([-7, 1])]


def test_phi12_splits_over_zeta12():
    factors = factor_over_cyclotomic(Poly([1, 0, -1, 0, 1]), 12)
    assert len(factors) == 4 and all(f.degree == 1 for f in factors)
    z = CycScalar.zeta(12)
    roots = {str(-f[0]) for f in factors}
    assert roots == {str(z), str(z**5), str(z**7), str(z**11)}


def test_factor_over_cyclotomic_requires_squarefree():
    with pytest.raises(ValueError):
        factor_over_cyclotomic(Poly([1, 2, 1]), 4)


def _discriminant_prime(f: list[int]) -> int:
    """Reference choice: the first prime above 2^30 that does not divide disc(f)."""
    f_rat = [Fraction(c) for c in f]
    disc = resultant_q(f_rat, _poly_derivative(f_rat)).numerator
    p = _next_prime(1 << 30)
    while disc % p == 0:
        p = _next_prime(p)
    return p


def test_prime_choice_matches_the_discriminant():
    # for monic f, f mod p is squarefree exactly when p does not divide disc(f)
    p0 = _next_prime(1 << 30)
    p1 = _next_prime(p0)
    # squarefree over Q with a double root mod p0 (and mod p1 for the second),
    # so the choice must skip the first prime above 2^30 (and the second)
    crafted = [
        _poly_mul([-1, 1], [-1 - p0, 1]),
        _poly_mul([-p0 * p0, 0, 1], [-p1 * p1, 0, 1]),
        _poly_mul(_poly_mul([-1, 1], [-2, 1]), [-2 - p0, 1]),
    ]
    rng = DeterministicRng(61)
    drawn = []
    while len(drawn) < 40:
        f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 8))] + [1]
        if Poly(f).is_squarefree():
            drawn.append(f)
    for f in crafted + drawn:
        assert Poly(f).is_squarefree()
        assert _choose_prime(f) == _discriminant_prime(f), f
    assert [_choose_prime(f) > p0 for f in crafted] == [True, True, True]
    assert _choose_prime(crafted[1]) > p1


# irreducible over Q: no rational root, and a cubic without one has no factor
_QUADRATICS = ([1, 0, 1], [-2, 0, 1], [1, 1, 1], [9, 3, 1], [3, -5, 1], [16, 4, 1])
_CUBICS = ([-2, 0, 0, 1], [1, 1, 0, 1], [1, -3, 0, 1], [3, -9, 0, 1])
_BEYOND_CAP = _ROOT_CANDIDATE_CAP + 7


def _sorted_z(factors):
    return sorted(factors, key=lambda fac: (len(fac), fac))


def _peel_cases():
    """(roots, other irreducible factors) of seeded squarefree monic integer
    products, then products with a root beyond the candidate cap."""
    rng = DeterministicRng(1313)
    for _ in range(40):
        roots = sorted({rng.randint(-12, 12) for _ in range(rng.randint(0, 4))})
        others = [_QUADRATICS[i] for i in sorted({rng.below(len(_QUADRATICS)) for _ in range(rng.randint(0, 2))})]
        if rng.below(3) == 0:
            others.append(_CUBICS[rng.below(len(_CUBICS))])
        if len(roots) + 2 * len(others) >= 2:
            yield roots, others
    yield [_BEYOND_CAP], [[1, 0, 1]]
    yield [-2, 3, _BEYOND_CAP], []
    yield [0, -_BEYOND_CAP], [[1, 1, 1]]
    yield [1, _BEYOND_CAP], [[-2, 0, 0, 1]]


def _expand(roots, others):
    f = [1]
    for g in [[-t, 1] for t in roots] + others:
        f = _poly_mul(f, g)
    return f


def test_integer_root_peel_equals_zassenhaus():
    for roots, others in _peel_cases():
        f = _expand(roots, others)
        expected = _sorted_z([[-t, 1] for t in roots] + others)
        assert _sorted_z(_zassenhaus(f)) == expected, f
        factors = factor_rational(Poly(f))
        assert [(fac.rational_coeffs(), m) for fac, m in factors] == [
            ([Fraction(c) for c in g], 1) for g in expected
        ], f
        assert _product_with_lead(Poly(f), factors) == Poly(f)


def test_integer_root_peel_finds_every_root():
    for roots, others in _peel_cases():
        f = _expand(roots, others)
        linears, rest, complete = _peel_integer_roots(f)
        if abs(max(roots, key=abs, default=0)) < _ROOT_CANDIDATE_CAP:
            # every root is peeled, and what is left is the product of the others
            assert complete, f
            assert sorted(-g[0] for g in linears) == roots, f
            assert rest == _expand([], others), f
        else:
            assert not complete, f
            assert linears == ([[0, 1]] if 0 in roots else []), f


def test_fraction_roots_are_peeled_after_scaling():
    # factor_rational scales by L = 6 to (y - 3)(y + 4)(y^2 + 36)
    p = Poly([Fraction(6)]) * Poly([Fraction(-1, 2), 1]) * Poly([Fraction(2, 3), 1]) * Poly([1, 0, 1])
    factors = factor_rational(p)
    assert factors == [
        (Poly([Fraction(-1, 2), 1]), 1),
        (Poly([Fraction(2, 3), 1]), 1),
        (Poly([1, 0, 1]), 1),
    ]
    assert _product_with_lead(p, factors) == p


# x^4 + 1, Phi_5 and x^4 - 2 (Eisenstein) are irreducible over Q, and so is
# x^4 - 10x^2 + 1, the minimal polynomial of sqrt2 + sqrt3; the octic is the
# minimal polynomial of sqrt2 + sqrt3 + sqrt5, which splits into factors of
# degree <= 2 modulo every prime
_QUARTICS = ([1, 0, 0, 0, 1], [1, 1, 1, 1, 1], [-2, 0, 0, 0, 1], [1, 0, -10, 0, 1])
_SWINNERTON_DYER = [576, 0, -960, 0, 352, 0, -40, 0, 1]


def _known_factorisation(seed):
    """A seeded leading coefficient and monic irreducible factors over Q with
    their multiplicities, {coefficient tuple: multiplicity}.  The seed mod 7
    picks one feature each case has: distinct integer roots, a repeated
    integer root, the root 0 with multiplicity, a fraction root, a root past
    the candidate cap, a squared irreducible of degree 2-4, or the
    Swinnerton-Dyer octic.  Seeded integer and fraction roots and a plain or
    squared irreducible, sometimes in a scaled variable, come on top."""
    rng = random.Random(seed)
    known = {}

    def add(coeffs, mult):
        key = tuple(Fraction(c) for c in coeffs)
        known[key] = known.get(key, 0) + mult

    def irreducible():
        q = [Fraction(c) for c in rng.choice(_QUADRATICS + _CUBICS + _QUARTICS)]
        if rng.random() < 0.3:  # q(a x) / a^deg q is irreducible too
            a = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            q = [c / a ** (len(q) - 1 - k) for k, c in enumerate(q)]
        return q

    feature = seed % 7
    if feature == 0:
        for t in rng.sample(range(-12, 13), 2):
            add([-t, 1], 1)
    elif feature == 1:
        add([-rng.randint(-12, 12), 1], rng.randint(2, 3))
    elif feature == 2:
        add([0, 1], rng.randint(2, 4))
    elif feature == 3:
        add([Fraction(2 * rng.randint(-4, 4) + 1, 2 * rng.randint(1, 3)), 1], rng.randint(1, 2))
    elif feature == 4:
        add([rng.choice((-1, 1)) * (_BEYOND_CAP + rng.randint(0, 50)), 1], rng.randint(1, 2))
    elif feature == 5:
        add(irreducible(), 2)
    else:
        add(_SWINNERTON_DYER, 1)
    for _ in range(rng.randint(0, 3)):
        t = rng.randint(-12, 12) if rng.random() < 0.7 else Fraction(rng.randint(-9, 9), rng.randint(2, 5))
        add([-t, 1], rng.choice((1, 1, 2, 3)))
    if feature != 6 and rng.random() < 0.5:
        add(irreducible(), rng.choice((1, 2)))
    return rng.choice((1, -3, Fraction(1, 2), Fraction(-7, 5))), known


@pytest.mark.parametrize("seed", range(49))
def test_factor_rational_against_known_factorisations(seed):
    lead, known = _known_factorisation(seed)
    p = Poly([lead])
    for coeffs, mult in known.items():
        p = p * Poly(list(coeffs)) ** mult
    # the documented order: degree, then multiplicity, then coefficients
    expected = sorted(((list(f), m) for f, m in known.items()), key=lambda fm: (len(fm[0]), fm[1], fm[0]))
    got = factor_rational(p)
    assert [(f.rational_coeffs(), m) for f, m in got] == expected
    assert _product_with_lead(p, got) == p


@pytest.fixture()
def calls(monkeypatch):
    """The arguments of each call to the peel, Yun and Zassenhaus, by name."""
    seen = {"peel": [], "yun": [], "zassenhaus": []}
    for name, attr in (("peel", "_peel_integer_roots"), ("yun", "_yun"), ("zassenhaus", "_zassenhaus")):
        original = getattr(factor, attr)
        monkeypatch.setattr(factor, attr, lambda f, _seen=seen[name], _f=original: _seen.append(f) or _f(f))
    return seen


@pytest.mark.parametrize("coeffs", [[-1, 0, 0, 0, 1], [1, 1, 1], [0, -1, 0, 0, 0, 1], [4, -4, 5, -4, 1]])
def test_one_peel_per_call(coeffs, calls):
    # x^4 - 1, x^2 + x + 1, x^5 - x and (x - 2)^2 (x^2 + 1)
    factor_rational(Poly(coeffs))
    assert calls["peel"] == [coeffs]


@pytest.mark.parametrize("roots", [[0, 0], [1, -1], [2, 2, -3], [0, 0, 5, 5, 5], [-7, 4, 4, 1, 0]])
def test_products_of_integer_linears_skip_yun(roots, calls):
    # x^2 too, whose repeated root test_repeated_eigenvalue_is_not_semisimple
    # in test_cli.py relies on
    p = Poly([1])
    for t in roots:
        p = p * Poly([-t, 1])
    got = factor_rational(p)
    assert [(m, f[0]) for f, m in got] == sorted((roots.count(t), -t) for t in set(roots))
    assert calls["yun"] == [] and calls["zassenhaus"] == []


@pytest.mark.parametrize("seed", range(0, 49, 3))
def test_zassenhaus_sees_only_root_free_parts(seed, calls):
    # a complete peel leaves no integer root, so a part of degree <= 3 is
    # irreducible; a peel cut short at the candidate cap leaves only linears
    lead, known = _known_factorisation(seed)
    p = Poly([lead])
    for coeffs, mult in known.items():
        p = p * Poly(list(coeffs)) ** mult
    factor_rational(p)
    complete = _peel_integer_roots(calls["peel"][0])[2]
    for f in calls["zassenhaus"]:
        assert len(f) - 1 >= (4 if complete else 2), f
        assert not complete or _peel_integer_roots(f)[0] == [], f


def _roots_of_order(n, d):
    """x - zeta_n^k for the k in [0, n) with zeta_n^k of multiplicative order d."""
    return [Poly([-CycScalar.zeta(n, k), 1]) for k in range(n) if n // gcd(k, n) == d]


@pytest.fixture()
def trager_inputs(monkeypatch):
    """The polynomials handed to Trager's method, in call order."""
    seen = []
    trager = factor._trager
    monkeypatch.setattr(factor, "_trager", lambda f, order: seen.append(f) or trager(f, order))
    return seen


@pytest.mark.parametrize("n", [3, 4, 6, 8, 12])
def test_cyclotomic_peel_splits_every_phi_d(n, trager_inputs):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for d in divisors:
        phi = Poly(cyclotomic_coeffs(d))
        factors = factor_over_cyclotomic(phi, n)
        assert factors == _roots_of_order(n, d), d
        assert all(phi.evaluate(-f[0]).is_zero() for f in factors)
    # x^n - 1 = prod Phi_d: linear factors ordered by d, then by the power of zeta
    factors = factor_over_cyclotomic(Poly([-1] + [0] * (n - 1) + [1]), n)
    assert factors == [f for d in divisors for f in _roots_of_order(n, d)]
    assert trager_inputs == []


def test_cyclotomic_peel_sends_the_rest_to_trager(trager_inputs):
    p = Poly([1, 1, 1]) * Poly([-2, 0, 1])
    factors = factor_over_cyclotomic(p, 24)
    assert factors[:2] == [Poly([-CycScalar.zeta(24, 8), 1]), Poly([-CycScalar.zeta(24, 16), 1])]
    assert trager_inputs == [[-2, 0, 1]]
    assert len(factors) == 4 and all(f.degree == 1 for f in factors)
    assert all((f[0] * f[0]) == 2 for f in factors[2:])
    total = Poly.one()
    for f in factors:
        total = total * f
    assert total == p


@pytest.mark.parametrize("order", [3, 8, 12])
def test_trager_norm_is_the_resultant(order):
    # Res_y(Phi_order(y), p(t - s y)) at integer points t, against the product
    # of conjugates that _norm expands
    phi = [Fraction(c) for c in cyclotomic_coeffs(order)]
    for p_rat in ([16, 4, 1], [-2, 0, 1], [Fraction(1, 3), 0, 7, 1]):
        p_rat = [Fraction(c) for c in p_rat]
        for shift in (1, -1, 2):
            norm = Poly(_norm(p_rat, shift, order))
            assert norm.degree == (len(p_rat) - 1) * sum(gcd(k, order) == 1 for k in range(order))
            for t in range(-2, 3):
                q, power = [], [Fraction(1)]  # p(t - shift y) as a polynomial in y
                for c in p_rat:
                    q = _poly_add(q, [c * a for a in power])
                    power = _poly_mul(power, [t, -shift])
                assert norm.evaluate(CycScalar.from_rational(t)) == resultant_q(phi, q), (p_rat, shift, t)
