"""Exact scalars: arbitrary-precision rationals and cyclotomic field elements.

A :class:`CycScalar` of order N is an element of Q(zeta_N), written over the
power basis {1, z, z^2, ..., z^(phi(N)-1)} with z a fixed primitive N-th root
of unity as integer numerators ``nums`` over one common denominator ``den``
(the form of FLINT/ANTIC's ``fmpq_poly`` and ``nf_elem``).  The form is
canonical: den > 0, gcd(den, *nums) = 1, the numerators are reduced modulo the
N-th cyclotomic polynomial, and a value whose non-constant numerators vanish
is stored at order 1, with zero as ``(0,)`` over 1.  So zero tests are O(1),
equality at one order compares the fields, and every operation runs on plain
ints: Phi_N is monic with integer coefficients, so a product reduces in Z,
and one gcd per result runs only when den != 1.  No float is ever involved.
``coords`` gives the rational coordinates (an int when integral, a Fraction
otherwise), which traces read; formatting reads ``nums`` and ``den`` directly.
Scalars of different orders combine by lifting both into Q(zeta_lcm).

The integers -64..64 are shared: one fixed instance each, ``ZERO`` and
``ONE`` among them, so the many small integers of structure constants, sums
and products cost no allocation.  ``_canonical`` (hence every cyclotomic
result, ``from_coords``, ``zeta`` and ``parse_scalar``), the integer fast
paths of ``+ - *`` and unary ``-``, the order-1 ``inverse``,
``from_rational``, ``as_scalar`` and the coercion of int and Fraction
operands return the shared instance for an integer in that range.  Only the
rational paths with a denominator (``1/2 + 1/2``, ``2 * 1/2``) may build an
integral value afresh.  Sharing is sound because values are immutable, and
it keeps the ``c is ONE`` fast paths exact: they are shortcuts that may miss
an equal value built elsewhere, never match a wrong one.

The scalar literal grammar used by file formats and reports:

    signed rational       -3, 5/2
    cyclotomic term       3/2*z^2, z, -z^3     (z denotes zeta_N, N from context)
    sums                  3/2*z^2 - 1

Values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ParseError


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


# -- the coefficient-list kit --------------------------------------------------
# Polynomials as low-to-high coefficient lists over int, Fraction or CycScalar.
# The routines use only + - *, truthiness and, in division, the reciprocal of
# the divisor's leading coefficient (_poly_inv: exact, and an int for a lead of
# +-1, so division by a monic integer list stays in int).  Results carry no
# trailing zeros.
# polys.Poly wraps this kit; factor.py runs it on raw lists.


def _poly_trim(c):
    n = len(c)
    while n > 0 and not c[n - 1]:
        n -= 1
    return c[:n]


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _poly_trim(out)


def _poly_sub(a, b):
    out = list(a) + [-c for c in b[len(a):]]
    for i, c in enumerate(b[:len(a)]):
        out[i] -= c
    return _poly_trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0 * a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_inv(lead):
    """1 / lead, exact: the int itself for an int lead of +-1, a canonical int
    or Fraction for another int or Fraction lead, never a float."""
    if isinstance(lead, CycScalar):
        return 1 / lead
    if lead in (1, -1):  # a monic divisor, its own inverse: no Fraction is built
        return int(lead)
    q = Fraction(1, lead)
    return q.numerator if q.denominator == 1 else q


def _poly_divmod(a, b):
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    r = list(a)
    q = [0 * b[0]] * max(0, len(r) - db)
    inv = _poly_inv(b[-1])
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv
        if c:
            q[i - db] = c
            for j, bc in enumerate(b):
                r[i - db + j] -= c * bc
    return _poly_trim(q), _poly_trim(r)


def _poly_derivative(a):
    return _poly_trim([k * c for k, c in enumerate(a)][1:])


def _poly_monic(a):
    """a divided by its leading coefficient; a must be nonzero."""
    inv = _poly_inv(a[-1])
    return list(a) if inv == 1 else [c * inv for c in a]


def _poly_gcd(a, b):
    """Monic greatest common divisor (Euclid); [] when both are zero.  Each
    divisor is made monic first: over Q that keeps the remainders' coefficients
    small, which decides the cost of the degree-40 gcds in factor.py."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        b = _poly_monic(b)
        a, b = b, _poly_divmod(a, b)[1]
    return _poly_monic(a) if a else a


# The largest cyclotomic order that input may ask for: a `.hopf` header,
# `--cyclotomic`, or the lcm of the orders of `build tensor`'s two inputs.
# Phi_N is computed from a list of N + 1 coefficients, one division per
# divisor of N, so an unchecked order from a file sizes time and memory; every
# built-in group exponent is at most 12.
MAX_CYCLOTOMIC_ORDER = 1000


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (constant term first) of the n-th cyclotomic
    polynomial, computed by dividing x^n - 1 by all lower Phi_d with d | n."""
    if n < 1:
        raise ValueError("cyclotomic_coeffs needs n >= 1")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_coeffs(d))
            if rem:
                raise ArithmeticError("division was not exact")
    return tuple(poly)


def _reduce_mod_cyclotomic(coeffs: list, order: int) -> list:
    """Remainder of a coefficient list (low-to-high) modulo Phi_order,
    padded/truncated to exactly phi(order) coordinates."""
    phi = euler_phi(order)
    mod = cyclotomic_coeffs(order)
    c = list(coeffs)
    for i in range(len(c) - 1, phi - 1, -1):
        t = c[i]
        if t:
            c[i] = 0
            for j in range(phi):
                if mod[j]:
                    c[i - phi + j] -= t * mod[j]
    del c[phi:]
    while len(c) < phi:
        c.append(0)
    return c


def _canonical(order: int, nums: list, den: int) -> "CycScalar":
    """The scalar (sum_i nums[i] z^i) / den in canonical form, for phi(order)
    integer numerators and a positive integer den: order 1 when every
    non-constant numerator is 0, and gcd(den, *nums) = 1."""
    if order > 1 and not any(nums[1:]):
        order, nums = 1, nums[:1]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    if order == 1 == den and -65 < nums[0] < 65:
        return _SMALL[nums[0]]
    return CycScalar(order, tuple(nums), den)


class CycScalar:
    """An exact element of the cyclotomic field Q(zeta_order): the integer
    numerators ``nums`` over the power basis, divided by ``den``."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple[int, ...], den: int = 1):
        # trusted constructor: the form must already be canonical (see
        # _canonical): len(nums) == phi(order), den > 0, gcd(den, *nums) == 1,
        # and a rational value at order 1
        self.order = order
        self.nums = nums
        self.den = den

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "CycScalar":
        return as_scalar(value)

    @classmethod
    def from_coords(cls, order: int, coords) -> "CycScalar":
        """Build from any coefficient sequence over powers of zeta_order
        (arbitrary length; reduced modulo the cyclotomic polynomial)."""
        if order < 1:
            raise ValueError("order must be >= 1")
        qs = [Fraction(c) for c in coords]
        den = lcm(*(q.denominator for q in qs))
        nums = [q.numerator * (den // q.denominator) for q in qs]
        return _canonical(order, _reduce_mod_cyclotomic(nums, order), den)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycScalar":
        """zeta_order ** power."""
        return cls.from_coords(order, [0] * (power % order) + [1])

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return self.order == 1 and not self.nums[0]

    def __bool__(self) -> bool:
        return self.order != 1 or self.nums[0] != 0

    def is_rational(self) -> bool:
        return self.order == 1

    def is_integer(self) -> bool:
        return self.order == 1 and self.den == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    @property
    def coords(self) -> tuple[int | Fraction, ...]:
        """The rational coordinates over the power basis, each an int when
        integral and a Fraction otherwise."""
        return _coords(self.nums, self.den)

    def key(self) -> tuple:
        """A hashable key of the canonical form: equal values at one order
        have equal keys, and every rational value sits at order 1."""
        return (self.order, self.nums, self.den)

    # -- order lifting ------------------------------------------------------

    def _lift(self, order: int) -> list[int]:
        """The numerators of this value in Q(zeta_order), over the same den."""
        if order == self.order:
            return list(self.nums)
        if order % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} into order {order}")
        k = order // self.order
        out = [0] * ((len(self.nums) - 1) * k + 1)
        for i, c in enumerate(self.nums):
            out[i * k] = c
        return _reduce_mod_cyclotomic(out, order)

    def lift(self, order: int) -> list:
        """Coordinates of this value in Q(zeta_order); self.order must divide order."""
        return list(_coords(self._lift(order), self.den))

    def _common(self, other: "CycScalar") -> tuple[int, tuple | list, tuple | list]:
        if self.order == other.order:
            return self.order, self.nums, other.nums
        n = lcm(self.order, other.order)
        return n, self._lift(n), other._lift(n)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "CycScalar":
        if not isinstance(other, CycScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.den, other.den
        if self.order == 1 == other.order:
            if a == b == 1:
                n = self.nums[0] + other.nums[0]
                return _SMALL[n] if -65 < n < 65 else CycScalar(1, (n,))
            n, d = self.nums[0] * b + other.nums[0] * a, a * b
            g = gcd(n, d)
            return CycScalar(1, (n // g,), d // g)
        n, x, y = self._common(other)
        if a == b:
            return _canonical(n, [p + q for p, q in zip(x, y)], a)
        return _canonical(n, [p * b + q * a for p, q in zip(x, y)], a * b)

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        if self.order == 1 == self.den:
            n = -self.nums[0]
            return _SMALL[n] if -65 < n < 65 else CycScalar(1, (n,))
        return CycScalar(self.order, tuple([-c for c in self.nums]), self.den)

    def __sub__(self, other) -> "CycScalar":
        if not isinstance(other, CycScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.order == 1 == other.order and self.den == other.den == 1:
            n = self.nums[0] - other.nums[0]
            return _SMALL[n] if -65 < n < 65 else CycScalar(1, (n,))
        return self + -other

    def __rsub__(self, other) -> "CycScalar":
        return (-self) + other

    def __mul__(self, other) -> "CycScalar":
        if not isinstance(other, CycScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self is ONE or other is ONE:  # the shared unit that structure constants hold
            return other if self is ONE else self
        den = self.den * other.den
        if self.order == 1 == other.order:
            n = self.nums[0] * other.nums[0]
            if den == 1:
                return _SMALL[n] if -65 < n < 65 else CycScalar(1, (n,))
            g = gcd(n, den)
            return CycScalar(1, (n // g,), den // g)
        if self.order == 1 or other.order == 1:
            q, v = (self.nums[0], other) if self.order == 1 else (other.nums[0], self)
            if not q:
                return ZERO
            return _canonical(v.order, [q * c for c in v.nums], den)
        n, x, y = self._common(other)
        prod = [0] * (len(x) + len(y) - 1)
        for i, p in enumerate(x):
            if p:
                for j, q in enumerate(y):
                    if q:
                        prod[i + j] += p * q
        return _canonical(n, _reduce_mod_cyclotomic(prod, n), den)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if not self:
            raise ZeroDivisionError("division by zero cyclotomic scalar")
        n, a = self.order, list(self.nums)
        if n == 1:
            s, d = (self.den, a[0]) if a[0] > 0 else (-self.den, -a[0])
            return _SMALL[s] if d == 1 and -65 < s < 65 else CycScalar(1, (s,), d)
        # 1/a = C/N(a) with C the product of the conjugates sigma_k(a), k a
        # unit mod n other than 1, and the norm N(a) = a C; Q(zeta_n) is
        # totally complex for n > 2, so N(a) is a product of squares
        # |sigma_k(a)|^2 and positive
        conj = [1]
        for k in range(2, n):
            if gcd(k, n) == 1:
                s = [0] * n
                for i, c in enumerate(a):
                    s[i * k % n] = c
                conj = _reduce_mod_cyclotomic(_poly_mul(conj, _reduce_mod_cyclotomic(s, n)), n)
        norm = _reduce_mod_cyclotomic(_poly_mul(a, conj), n)
        if any(norm[1:]) or norm[0] <= 0:
            raise ArithmeticError("the norm of a cyclotomic scalar is not a positive rational")
        return _canonical(n, [self.den * c for c in conj], norm[0])

    def __truediv__(self, other) -> "CycScalar":
        if not isinstance(other, CycScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycScalar":
        num = _coerce(other)
        if num is NotImplemented:
            return NotImplemented
        return num * self.inverse()

    def __pow__(self, exponent: int) -> "CycScalar":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # lifting keeps a form canonical: were a prime p to divide den and
        # every lifted numerator, nums / p would be integral in Q(zeta_order),
        # whose ring of integers is Z[zeta_order]; so equal values have equal
        # dens, whatever their orders
        if self.den != other.den:
            return False
        if self.order == other.order:
            return self.nums == other.nums
        n, x, y = self._common(other)
        return x == y

    __hash__ = None  # type: ignore[assignment]  # values of equal worth may live at different orders

    def sort_key(self, order: int) -> tuple:
        """Deterministic comparison key: coordinates lifted to a common order."""
        return tuple(self.lift(order))

    # -- presentation ---------------------------------------------------------

    def __repr__(self) -> str:
        if self.order == 1:
            return f"CycScalar({self.coords[0]})"
        return f"CycScalar(zeta_{self.order}: {format_scalar(self)})"

    def __str__(self) -> str:
        return format_scalar(self)


# the shared integers -64..64, laid out so that _SMALL[n] is n: 0..64, then
# -64..-1 at the negative indices
_SMALL = tuple(CycScalar(1, (n,)) for n in [*range(65), *range(-64, 0)])
ZERO, ONE = _SMALL[0], _SMALL[1]


def _coords(nums, den: int) -> tuple[int | Fraction, ...]:
    if den == 1:
        return tuple(nums)
    return tuple(c // den if c % den == 0 else Fraction(c, den) for c in nums)


def _coerce(value) -> CycScalar:
    """An int or Fraction operand as a scalar; NotImplemented for others."""
    if isinstance(value, (int, Fraction)):
        return _canonical(1, [value.numerator], value.denominator)
    return NotImplemented  # type: ignore[return-value]


def as_scalar(value) -> CycScalar:
    """Coerce an int / Fraction / CycScalar to a CycScalar."""
    if isinstance(value, CycScalar):
        return value
    return _coerce(value if isinstance(value, (int, Fraction)) else Fraction(value))


# -- literal grammar -----------------------------------------------------------

_TERM_RE = re.compile(r"(\d+)(?:/(\d+))?(\*z(?:\^(\d+))?)?")  # a bare z^k reads as 1*z^k


def format_scalar(a: CycScalar) -> str:
    """Render in the literal grammar, highest power first: e.g. ``3/2*z^2 - 1``."""
    nums, den = a.nums, a.den
    if a.order == 1:
        return str(nums[0]) if den == 1 else f"{nums[0]}/{den}"
    out = ""
    for i in range(len(nums) - 1, -1, -1):
        c = nums[i]
        if c:
            g = gcd(c, den)  # the coordinate c/den in lowest terms
            mag = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
            if i:
                power = "z" if i == 1 else f"z^{i}"
                mag = power if mag == "1" else f"{mag}*{power}"
            sign = (" - " if out else "-") if c < 0 else (" + " if out else "")
            out += sign + mag
    return out


def _literal_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts (4300 by default)
        raise ParseError(f"a {len(digits)}-digit number in scalar literal is too long to convert") from None


def parse_scalar(text: str, order: int) -> CycScalar:
    """Parse the literal grammar; ``z`` denotes zeta_order."""
    s = text.strip()
    if not s:
        raise ParseError("empty scalar literal")
    # ["", sign, term, sign, term, ...]: every + or - splits, and a literal
    # that does not start with a sign starts with an implied +
    pieces = re.split("([+-])", s if s[0] in "+-" else "+" + s)
    terms = [t.strip().replace(" ", "") for t in pieces[2::2]]
    if "" in terms[:-1]:
        raise ParseError(f"misplaced sign in scalar literal {text!r}")
    if not terms[-1]:
        raise ParseError(f"trailing sign in scalar literal {text!r}")
    accum: dict[int, Fraction] = {}
    for sign, term in zip(pieces[1::2], terms):
        m = _TERM_RE.fullmatch("1*" + term if term[0] == "z" else term)
        if not m:
            raise ParseError(f"bad term {term!r} in scalar literal {text!r}")
        num, den = _literal_int(m[1]), _literal_int(m[2]) if m[2] else 1
        if not den:
            raise ParseError(f"zero denominator in scalar literal {text!r}")
        k = 0
        if m[3]:  # a power of z
            k = (_literal_int(m[4]) if m[4] else 1) % order
        accum[k] = accum.get(k, 0) + Fraction(-num if sign == "-" else num, den)
    return CycScalar.from_coords(order, [accum.get(k, 0) for k in range(max(accum) + 1)])
