"""Univariate polynomial factorization over Q and over cyclotomic fields.

The rational kernel scales the monic input once to a monic integer
polynomial and peels its integer roots with multiplicity (candidates 0 and
the divisors of the lowest nonzero coefficient below the Cauchy bound, each
confirmed by Horner evaluation and removed by synthetic division).  Only the
cofactor left without integer roots goes on to the classic Zassenhaus chain,
where a squarefree part of degree <= 3 is already irreducible:

    Yun squarefree decomposition
      -> reduction mod the first prime p > 2^30 modulo which the monic
         squarefree part stays squarefree (gcd(f, f') = 1 in GF(p)[x],
         equivalently p does not divide the discriminant)
      -> distinct-degree + equal-degree splitting in GF(p)[x]
      -> linear multifactor Hensel lifting past the Mignotte coefficient bound
      -> exhaustive subset recombination (factor counts stay tiny at desk scale)

Factorization over Q(zeta_N) first divides out each cyclotomic polynomial
Phi_d with d | N, whose roots are powers of zeta_N, and sends the rest to
Trager's norm method: shift by an integer multiple s of zeta_N until the norm
(the product of the conjugates p(x - s zeta_N^k), gcd(k, N) = 1) is
squarefree, factor the norm over Q, and pull the factors back through gcds
over the cyclotomic field.
Everything is exact; returned factors are monic.

Arithmetic on integer, rational and cyclotomic coefficient lists uses the one
coefficient-list kit, the ``_poly_*`` routines of :mod:`hopfkit.scalars`
(which :class:`~hopfkit.polys.Poly` also wraps).  Only GF(p) arithmetic has
its own routines here, because they reduce mod p at every step.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from .polys import Poly
from .rng import DeterministicRng
from .scalars import CycScalar, cyclotomic_coeffs, euler_phi
from .scalars import _poly_add, _poly_derivative, _poly_divmod, _poly_gcd, _poly_mul, _poly_sub, _poly_trim

# ---------------------------------------------------------------------------
# primality and prime selection

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    n += 1
    if n % 2 == 0:
        n += 1
    while not _is_prime(n):
        n += 2
    return n


# ---------------------------------------------------------------------------
# GF(p) polynomial arithmetic (coefficient lists of ints in [0, p))


def _gf_monic(a: list[int], p: int) -> list[int]:
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    return _poly_trim([c % p for c in _poly_mul(a, b)])


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    r = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(r) - db)
    inv = pow(b[-1], -1, p)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return _poly_trim(q), _poly_trim(r)


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p)


def _gf_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _gf_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _gf_divmod(_gf_mul(result, base, p), mod, p)[1]
        base = _gf_divmod(_gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _gf_ext_inverse(a: list[int], mod: list[int], p: int) -> list[int]:
    """Inverse of a modulo mod in GF(p)[x] (they must be coprime)."""
    r0, r1 = list(mod), _gf_divmod(a, mod, p)[1]
    t0: list[int] = []
    t1: list[int] = [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_trim([c % p for c in _poly_sub(t0, _gf_mul(q, t1, p))])
    if len(r0) != 1:
        raise ArithmeticError("elements not coprime in GF(p)[x]")
    inv = pow(r0[0], -1, p)
    return _poly_trim([c * inv % p for c in t0])


# ---------------------------------------------------------------------------
# factorization of a squarefree monic polynomial in GF(p)[x]


def _gf_factor_squarefree(f: list[int], p: int, rng: DeterministicRng) -> list[list[int]]:
    """Distinct-degree then equal-degree (Cantor-Zassenhaus) splitting; input
    monic squarefree; output monic irreducibles sorted for determinism."""
    factors: list[list[int]] = []
    v = list(f)
    h = [0, 1]  # x
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_powmod(h, p, v, p)
        diff = list(h)
        if len(diff) < 2:
            diff = diff + [0] * (2 - len(diff))
        diff[1] = (diff[1] - 1) % p
        g = _gf_gcd(diff, v, p)
        if len(g) - 1 > 0:
            factors.extend(_gf_equal_degree(g, d, p, rng))
            v = _gf_divmod(v, g, p)[0]
            h = _gf_divmod(h, v, p)[1]
    if len(v) - 1 > 0:
        factors.append(_gf_monic(v, p))
    factors.sort(key=lambda fac: (len(fac), fac))
    return factors


def _gf_equal_degree(g: list[int], d: int, p: int, rng: DeterministicRng) -> list[list[int]]:
    """Split a product of distinct irreducibles, all of degree d."""
    n = len(g) - 1
    if n == d:
        return [_gf_monic(g, p)]
    e = (p**d - 1) // 2
    while True:
        r = _poly_trim([rng.below(p) for _ in range(n)])
        if len(r) < 2:
            continue
        s = _gf_powmod(r, e, g, p)
        s = list(s) if s else [0]
        s[0] = (s[0] - 1) % p
        t = _gf_gcd(s, g, p)
        if 0 < len(t) - 1 < n:
            rest = _gf_divmod(g, t, p)[0]
            return _gf_equal_degree(t, d, p, rng) + _gf_equal_degree(rest, d, p, rng)


# ---------------------------------------------------------------------------
# Hensel lifting and recombination over Z


def _balanced(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _hensel_lift(f: list[int], factors_p: list[list[int]], p: int, bound: int) -> tuple[list[list[int]], int]:
    """Lift a coprime monic factorization of f fom mod p to mod p^k > 2*bound.

    Linear multifactor lifting: with u_i = prod_{j != i} g_j and sigma_i the
    inverse of u_i modulo (g_i, p), the defect E = (f - prod G_i)/p^k is
    absorbed by G_i += p^k * ((E mod p) * sigma_i mod g_i).
    """
    sigmas = []
    for i, g in enumerate(factors_p):
        u = [1]
        for j, other in enumerate(factors_p):
            if j != i:
                u = _gf_mul(u, other, p)
        sigmas.append(_gf_ext_inverse(u, g, p))

    lifted = [list(g) for g in factors_p]
    pk = p
    while pk <= 2 * bound:
        prod = [1]
        for g in lifted:
            prod = _poly_mul(prod, g)
        e = _poly_trim([(c // pk) % p for c in _poly_sub(f, prod)])
        lifted = [
            _poly_add(g, [pk * _balanced(c, p) for c in _gf_divmod(_gf_mul(e, sigma, p), g0, p)[1]])
            for g0, g, sigma in zip(factors_p, lifted, sigmas)
        ]
        pk *= p
    # keep coefficients balanced mod p^k
    return [[_balanced(c, pk) for c in g] for g in lifted], pk


def _mignotte_bound(f: list[int]) -> int:
    n = len(f) - 1
    norm2 = isqrt(sum(c * c for c in f)) + 1
    return (1 << max(n - 1, 1)) * norm2


def _choose_prime(f: list[int]) -> int:
    """The first prime p > 2^30 with f mod p squarefree, for monic squarefree
    integer f: gcd(f, f') = 1 in GF(p)[x] exactly when p does not divide disc(f)."""
    p = _next_prime(1 << 30)
    while len(_gf_gcd([c % p for c in f], [c % p for c in _poly_derivative(f)], p)) > 1:
        p = _next_prime(p)
    return p


# A sweep over this many candidates (a modulus test each, Horner only on the
# divisors) costs about one Zassenhaus run on a quadratic: a prime search above
# 2^30 and two 30-step powmods.  Past it the peel is skipped.
_ROOT_CANDIDATE_CAP = 4096


def _horner(f: list[int], t: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * t + c
    return acc


def _deflate(f: list[int], t: int) -> list[int]:
    """f / (x - t) for an integer root t of f, by synthetic division."""
    q = f[1:]
    for k in range(len(q) - 2, -1, -1):
        q[k] += t * q[k + 1]
    return q


def _peel_integer_roots(f: list[int]) -> tuple[list[list[int]], list[int], bool]:
    """Split x - t off a monic integer f as often as the integer t is a root.

    f need not be squarefree.  Returns one linear factor per root counted with
    multiplicity, the cofactor and whether every candidate was tried (then the
    cofactor has no integer root).  The candidates are 0 and the divisors t of
    the lowest nonzero coefficient with |t| < B, the least power of two with
    B^n > sum |a_i| B^i: B exceeds the Cauchy radius (the positive root of
    x^n - sum |a_i| x^i, itself at most 1 + max |a_i|), which bounds every
    root.  When there are more than _ROOT_CANDIDATE_CAP candidates, only the
    root 0 is peeled.
    """
    linears: list[list[int]] = []
    while len(f) > 2 and f[0] == 0:
        linears.append([0, 1])
        f = f[1:]
    if len(f) > 2:
        cauchy = [-abs(c) for c in f[:-1]] + [1]
        bound = 1
        while _horner(cauchy, bound) <= 0:
            bound *= 2
        limit = min(abs(f[0]), bound - 1)
        if limit > _ROOT_CANDIDATE_CAP:
            return linears, f, False
        for t in range(1, limit + 1):
            if len(f) > 2 and f[0] % t == 0:
                for root in (t, -t):
                    while len(f) > 2 and _horner(f, root) == 0:
                        linears.append([-root, 1])
                        f = _deflate(f, root)
    if len(f) == 2:  # a monic linear cofactor x - t is the last root
        linears.append(f)
        f = [1]
    return linears, f, True


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible monic integer factors of a monic squarefree integer
    polynomial of degree >= 2, by the Zassenhaus chain."""
    p = _choose_prime(f)
    rng = DeterministicRng(0xFAC7 ^ p)
    fp = _gf_monic([c % p for c in f], p)
    modular = _gf_factor_squarefree(fp, p, rng)
    if len(modular) == 1:
        return [list(f)]
    lifted, pk = _hensel_lift(f, modular, p, _mignotte_bound(f))

    result: list[list[int]] = []
    pool = list(range(len(lifted)))
    remaining = list(f)
    size = 1
    while 2 * size <= len(pool):
        found = True
        while found:
            found = False
            for subset in combinations(pool, size):
                prod = [1]
                for i in subset:
                    prod = _poly_mul(prod, lifted[i])
                cand = _poly_trim([_balanced(c, pk) for c in prod])
                quot, rem = _poly_divmod(remaining, cand)
                if not rem:
                    result.append(cand)
                    remaining = quot
                    pool = [i for i in pool if i not in subset]
                    found = True
                    break
            if 2 * size > len(pool):
                break
        size += 1
    if len(remaining) - 1 > 0:
        result.append(remaining)
    return result


# ---------------------------------------------------------------------------
# squarefree decomposition (Yun) over Q


def _yun(f: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Monic squarefree decomposition: f = prod a_i^i with the a_i pairwise
    coprime and squarefree; constant parts dropped."""
    parts: list[tuple[list[Fraction], int]] = []
    df = _poly_derivative(f)
    g = _poly_gcd(f, df)
    if len(g) - 1 == 0:
        return [(list(f), 1)]
    w = _poly_divmod(f, g)[0]
    y = _poly_divmod(df, g)[0]
    i = 1
    while len(w) - 1 > 0:
        z = _poly_sub(y, _poly_derivative(w))
        a = _poly_gcd(w, z)
        if len(a) - 1 > 0:
            parts.append((a, i))
        w = _poly_divmod(w, a)[0]
        y = _poly_divmod(z, a)[0]
        i += 1
    return parts


# ---------------------------------------------------------------------------
# public: factorization over Q


def factor_rational(p: Poly) -> list[tuple[Poly, int]]:
    """Factor a rational polynomial into monic irreducibles with multiplicity.

    The product of the factors (with multiplicity) times the leading
    coefficient of ``p`` reproduces ``p`` exactly.  Constants factor into
    nothing.  Factors are sorted by degree, multiplicity and coefficients.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    coeffs = [c.as_fraction() for c in p.coeffs]
    n = len(coeffs) - 1
    if n == 0:
        return []
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    # clear denominators: g(y) = L^n * f(y / L) is integer and monic
    L = 1
    for c in monic:
        L = lcm(L, c.denominator)
    if L > 1:
        monic = [c * L ** (n - k) for k, c in enumerate(monic)]
    linears, rest, complete = _peel_integer_roots([c.numerator for c in monic])
    factors = [(2, m, [c, 1]) for c, m in {h[0]: linears.count(h) for h in linears}.items()]
    for part, mult in _yun(rest) if len(rest) > 1 else ():
        part = [c.numerator for c in part]  # monic factor of a monic integer rest: integer (Gauss)
        # with no integer root left, a part of degree <= 3 has no factor
        irreducible = len(part) <= (4 if complete else 2)
        factors += [(len(h), mult, h) for h in ([part] if irreducible else _zassenhaus(part))]
    if L > 1:  # map back: the monic rational factor is h(L x) / L^deg(h)
        factors = [(d, m, [Fraction(c, L ** (d - 1 - k)) for k, c in enumerate(h)]) for d, m, h in factors]
    return [(Poly(h), m) for _, m, h in sorted(factors)]


# ---------------------------------------------------------------------------
# public: factorization over Q(zeta_N) (Trager's norm method)


def _norm(p_rat: list[Fraction], shift: int, order: int) -> list[Fraction]:
    """Res_y(Phi_order(y), p(x - shift*y)) as a polynomial in x: the product of
    p(x - shift*zeta^k) over the k coprime to order.  Its factors are the
    Galois conjugates of one another, so its coefficients are rational."""
    p, norm = Poly(p_rat), Poly.one()
    for k in range(1, order + 1):
        if gcd(k, order) == 1:
            norm = norm * p.compose(Poly([-shift * CycScalar.zeta(order, k), 1]))
    return norm.rational_coeffs()


def factor_over_cyclotomic(p: Poly, order: int) -> list[Poly]:
    """Factor a squarefree rational polynomial into monic irreducibles over
    Q(zeta_order).  The factors multiply back to p / lc(p).

    For order > 2 the linear factors x - zeta^((order/d) j), gcd(j, d) = 1, of
    each Phi_d dividing p (d | order) come first, ordered by d and then j;
    the factors Trager's method finds for the rest follow."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    p_rat = [c.as_fraction() for c in p.coeffs]
    if len(p_rat) - 1 == 0:
        return []
    lead = p_rat[-1]
    monic = Poly([c / lead for c in p_rat])
    if monic.degree == 1:
        return [monic]
    if not monic.is_squarefree():
        raise ValueError("factor_over_cyclotomic expects squarefree input")
    if euler_phi(order) == 1:
        return [f for f, _ in factor_rational(monic)]

    result: list[Poly] = []
    rest = monic.rational_coeffs()
    for d in range(1, order + 1):
        if order % d == 0 and len(rest) > euler_phi(d):
            quot, rem = _poly_divmod(rest, cyclotomic_coeffs(d))
            if not rem:
                rest = quot
                step = order // d
                result += [Poly([-CycScalar.zeta(order, step * j), 1]) for j in range(1, d + 1) if gcd(j, d) == 1]
    if len(rest) > 2:
        result += _trager(rest, order)
    elif len(rest) == 2:
        result.append(Poly(rest))
    total = Poly.one()
    for h in result:
        total = total * h
    if total != monic:
        raise ArithmeticError("cyclotomic factors do not multiply back to the input")
    return result


def _trager(monic_rat: list[Fraction], order: int) -> list[Poly]:
    """Trager's norm method for a monic squarefree rational polynomial."""
    for shift in _shift_candidates():
        norm = _norm(monic_rat, shift, order)
        if len(_poly_gcd(norm, _poly_derivative(norm))) - 1 == 0:
            break
    else:  # pragma: no cover - candidate stream is unbounded
        raise ArithmeticError("no squarefree norm shift found")

    zeta, monic = CycScalar.zeta(order), Poly(monic_rat)
    result: list[Poly] = []
    for q, _ in factor_rational(Poly(norm)):
        # pull back: gcd(p(x), q(x + shift*zeta)) over Q(zeta_order)
        shifted = q.compose(Poly([zeta * shift, 1]))
        h = monic.gcd(shifted)
        if h.degree >= 1:
            result.append(h.monic())
    return result


def _shift_candidates():
    yield 1
    k = 1
    while True:
        yield -k
        k += 1
        yield k
