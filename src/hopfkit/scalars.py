"""Exact scalars: arbitrary-precision rationals and cyclotomic field elements.

A :class:`CycScalar` of order N is an element of Q(zeta_N), stored by its
rational coordinates over the power basis {1, z, z^2, ..., z^(phi(N)-1)} with z
a fixed primitive N-th root of unity; coordinates are kept reduced modulo the
N-th cyclotomic polynomial.  A coordinate is a plain ``int`` when it is
integral and a ``fractions.Fraction`` (denominator > 1) otherwise, never a
``float``: most values the checks touch are integers, and int arithmetic skips
the gcd that every Fraction operation pays.  All arithmetic is exact.  Scalars
of different orders combine by lifting both into Q(zeta_lcm); a value whose
non-constant coordinates vanish is normalized down to order 1, so purely
rational work never pays the cyclotomic overhead.

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
from math import lcm

from .errors import ParseError


def _coord(x):
    """The canonical coordinate of an int or Fraction x: int when integral."""
    return x.numerator if x.denominator == 1 else x


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
    """1 / lead, exact: a canonical int or Fraction for a rational lead, never
    a float."""
    if isinstance(lead, (int, Fraction)):
        return _coord(Fraction(1, lead))
    return 1 / lead


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


class CycScalar:
    """An exact element of the cyclotomic field Q(zeta_order)."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords: tuple[int | Fraction, ...]):
        # trusted constructor: length must already equal phi(order), a
        # rational value must already have been collapsed to order 1, and
        # every coordinate must already be canonical (see _coord)
        self.order = order
        self.coords = coords

    # -- construction -----------------------------------------------------

    @staticmethod
    def _make(order: int, coords: list) -> "CycScalar":
        if order > 1:
            for c in coords[1:]:
                if c:
                    return CycScalar(order, tuple(map(_coord, coords)))
        return CycScalar(1, (_coord(coords[0]),))

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "CycScalar":
        return cls(1, (_coord(Fraction(value)),))

    @classmethod
    def from_coords(cls, order: int, coords) -> "CycScalar":
        """Build from any coefficient sequence over powers of zeta_order
        (arbitrary length; reduced modulo the cyclotomic polynomial)."""
        if order < 1:
            raise ValueError("order must be >= 1")
        cs = [_coord(Fraction(c)) for c in coords]
        return cls._make(order, _reduce_mod_cyclotomic(cs, order))

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycScalar":
        """zeta_order ** power."""
        if order < 1:
            raise ValueError("order must be >= 1")
        power %= order
        coeffs = [0] * power + [1]
        return cls._make(order, _reduce_mod_cyclotomic(coeffs, order))

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coords[0])

    def is_integer(self) -> bool:
        return self.order == 1 and self.coords[0].denominator == 1

    def __bool__(self) -> bool:
        return any(self.coords)

    # -- order lifting ------------------------------------------------------

    def lift(self, order: int) -> list:
        """Coordinates of this value in Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return list(self.coords)
        if order % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} into order {order}")
        k = order // self.order
        out = [0] * ((len(self.coords) - 1) * k + 1)
        for i, c in enumerate(self.coords):
            if c:
                out[i * k] = c
        return [_coord(c) for c in _reduce_mod_cyclotomic(out, order)]

    def _common(self, other: "CycScalar") -> tuple[int, list, list]:
        if self.order == other.order:
            return self.order, list(self.coords), list(other.coords)
        n = lcm(self.order, other.order)
        return n, self.lift(n), other.lift(n)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycScalar":
        if isinstance(value, CycScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return CycScalar(1, (_coord(value),))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "CycScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return CycScalar(1, (_coord(self.coords[0] + other.coords[0]),))
        n, a, b = self._common(other)
        return self._make(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.order, tuple(-c for c in self.coords))

    def __sub__(self, other) -> "CycScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return CycScalar(1, (_coord(self.coords[0] - other.coords[0]),))
        n, a, b = self._common(other)
        return self._make(n, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other) -> "CycScalar":
        return (-self) + other

    def __mul__(self, other) -> "CycScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return CycScalar(1, (_coord(self.coords[0] * other.coords[0]),))
        if self.order == 1:
            q = self.coords[0]
            if not q:
                return ZERO
            return self._make(other.order, [q * c for c in other.coords])
        if other.order == 1:
            q = other.coords[0]
            if not q:
                return ZERO
            return self._make(self.order, [q * c for c in self.coords])
        n, a, b = self._common(other)
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self._make(n, _reduce_mod_cyclotomic(prod, n))

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero cyclotomic scalar")
        if self.order == 1:
            return CycScalar(1, (_coord(Fraction(1, self.coords[0])),))
        # extended Euclid against Phi_order: t * self == gcd (a nonzero constant)
        n = self.order
        r0 = list(cyclotomic_coeffs(n))
        r1 = _poly_trim(self.coords)
        t0: list = []
        t1: list = [1]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
        g = _poly_trim(r0)
        if len(g) != 1:
            raise ArithmeticError("cyclotomic modulus not coprime to element")
        inv_g = Fraction(1, g[0])
        coeffs = _reduce_mod_cyclotomic([c * inv_g for c in t0], n)
        return self._make(n, coeffs)

    def __truediv__(self, other) -> "CycScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            if not other.coords[0]:
                raise ZeroDivisionError("division by zero cyclotomic scalar")
            return CycScalar(1, (_coord(Fraction(self.coords[0], other.coords[0])),))
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycScalar":
        num = self._coerce(other)
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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return self.coords == other.coords
        n, a, b = self._common(other)
        return a == b

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


ZERO = CycScalar(1, (0,))
ONE = CycScalar(1, (1,))


def as_scalar(value) -> CycScalar:
    """Coerce an int / Fraction / CycScalar to a CycScalar."""
    if isinstance(value, CycScalar):
        return value
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return CycScalar(1, (_coord(value),))


# -- literal grammar -----------------------------------------------------------

_RATIONAL_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?z(?:\^(\d+))?$")


def format_scalar(a: CycScalar) -> str:
    """Render in the literal grammar, highest power first: e.g. ``3/2*z^2 - 1``."""
    if a.order == 1:
        return str(a.coords[0])
    parts: list[str] = []
    for i in range(len(a.coords) - 1, -1, -1):
        c = a.coords[i]
        if not c:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = "z" if i == 1 else f"z^{i}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    if not parts:
        return "0"
    return "".join(parts)


def parse_scalar(text: str, order: int) -> CycScalar:
    """Parse the literal grammar; ``z`` denotes zeta_order."""
    s = text.strip()
    if not s:
        raise ParseError("empty scalar literal")
    # split into signed terms
    terms: list[tuple[int, str]] = []
    sign, buf = 1, []
    first = True
    i = 0
    while i < len(s):
        ch = s[i]
        if ch in "+-" and not first:
            body = "".join(buf).strip()
            if not body:
                raise ParseError(f"misplaced sign in scalar literal {text!r}")
            terms.append((sign, body))
            sign, buf = (1 if ch == "+" else -1), []
        elif ch in "+-" and first:
            sign = 1 if ch == "+" else -1
        else:
            buf.append(ch)
        if ch not in " \t":
            first = False
        i += 1
    body = "".join(buf).strip()
    if not body:
        raise ParseError(f"trailing sign in scalar literal {text!r}")
    terms.append((sign, body))

    accum: dict[int, Fraction] = {}
    for sgn, term in terms:
        term = term.replace(" ", "")
        m = _RATIONAL_RE.match(term)
        if m:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
            if den == 0:
                raise ParseError(f"zero denominator in scalar literal {text!r}")
            accum[0] = accum.get(0, 0) + sgn * Fraction(num, den)
            continue
        m = _TERM_RE.match(term)
        if m:
            coeff = 1
            if m.group(1):
                if "/" in m.group(1):
                    n_, d_ = m.group(1).split("/")
                    if int(d_) == 0:
                        raise ParseError(f"zero denominator in scalar literal {text!r}")
                    coeff = Fraction(int(n_), int(d_))
                else:
                    coeff = Fraction(int(m.group(1)))
            k = int(m.group(2)) if m.group(2) else 1
            k %= order
            accum[k] = accum.get(k, 0) + sgn * coeff
            continue
        raise ParseError(f"bad term {term!r} in scalar literal {text!r}")

    top = max(accum) if accum else 0
    coeffs = [accum.get(k, 0) for k in range(top + 1)]
    return CycScalar.from_coords(order, coeffs)
