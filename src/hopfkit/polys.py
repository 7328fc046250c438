"""Dense univariate polynomials over the exact scalars.

Coefficients are :class:`~hopfkit.scalars.CycScalar` (rationals are the
order-1 case), stored low-to-high with no trailing zeros; the zero polynomial
has an empty coefficient tuple and degree -1.  On top of the ring/field
operations this module provides minimal polynomials of cyclotomic scalars over
Q and the algebraic-integrality certificate built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .scalars import CycScalar, ONE, ZERO, as_scalar
from .scalars import _poly_add, _poly_derivative, _poly_divmod, _poly_gcd, _poly_monic, _poly_mul, _poly_sub


class Poly:
    """A polynomial with exact cyclotomic (or rational) coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((ONE,))

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> CycScalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, k: int) -> CycScalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def rational_coeffs(self) -> list[Fraction]:
        """Coefficients as Fractions; raises if any coefficient is irrational."""
        return [c.as_fraction() for c in self.coeffs]

    def has_integer_coeffs(self) -> bool:
        return all(c.is_integer() for c in self.coeffs)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(_poly_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(_poly_sub(self.coeffs, other.coeffs))

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return Poly(_poly_mul(self.coeffs, other.coeffs))
        s = as_scalar(other)
        return Poly([c * s for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = Poly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        q, r = _poly_divmod(self.coeffs, other.coeffs)
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        return Poly(_poly_monic(self.coeffs)) if self.coeffs else self

    def derivative(self) -> "Poly":
        return Poly(_poly_derivative(self.coeffs))

    def evaluate(self, x) -> CycScalar:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly((c,))
        return acc

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor (Euclid over the coefficient field)."""
        return Poly(_poly_gcd(self.coeffs, other.coeffs))

    def is_squarefree(self) -> bool:
        if self.degree <= 1:
            return not self.is_zero()
        return self.gcd(self.derivative()).degree == 0

    # -- presentation ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(p: Poly) -> str:
    """Human-readable form, highest power first; cyclotomic coefficients are
    parenthesized in the scalar literal grammar."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c.is_zero():
            continue
        if c.is_rational():
            neg = c.nums[0] < 0
            mag = str(-c if neg else c)
            if k == 0:
                body = mag
            else:
                power = "x" if k == 1 else f"x^{k}"
                body = power if mag == "1" else f"{mag}*{power}"
        else:
            neg = False
            body = f"({c})" if k == 0 else f"({c})*" + ("x" if k == 1 else f"x^{k}")
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts)


# -- minimal polynomials and integrality ------------------------------------------


def min_poly_scalar(a: CycScalar) -> Poly:
    """Monic minimal polynomial of a cyclotomic scalar over Q: x - a for a
    rational a, else the first linear dependency among the power-basis
    coordinates of 1, a, a^2, ..."""
    if a.is_rational():
        return Poly([-a, ONE])
    from .linalg import Vector, minimal_polynomial  # linalg imports this module

    return minimal_polynomial(ONE, lambda p: p * a, lambda p: Vector.of(p.lift(a.order)))[0]


@dataclass(frozen=True)
class IntegralityCertificate:
    """Certifies whether a scalar is an algebraic integer: its monic minimal
    polynomial over Q, and whether every coefficient is a rational integer."""

    subject: CycScalar
    minimal_polynomial: Poly
    is_integer: bool


def is_algebraic_integer(a: CycScalar) -> IntegralityCertificate:
    """Certificate with is_integer true iff the minimal polynomial of ``a``
    over Q has integer coefficients."""
    m = min_poly_scalar(a)
    return IntegralityCertificate(subject=a, minimal_polynomial=m, is_integer=m.has_integer_coeffs())
