#!/usr/bin/env python3
"""Polynomial factorization over Q and over Q(zeta_N).

Over Q the integer roots of each squarefree part are split off first and the
Zassenhaus chain factors the rest; over Q(zeta_N) each Phi_d with d | N is
split off first, as the linear factors x - zeta_N^k ordered by d and then k,
and Trager's norm method factors the rest.
"""

from hopfkit import Poly, factor_over_cyclotomic, factor_rational

print("== factorization over Q ==")
for coeffs, label in [
    ([-1, 0, 1], "x^2 - 1"),
    ([-1, 0, 0, 0, 0, 0, 1], "x^6 - 1"),
    ([1, 0, -1, 0, 1], "x^4 - x^2 + 1"),
    ([4, 0, -5, 0, 1], "x^4 - 5x^2 + 4"),
]:
    factors = factor_rational(Poly(coeffs))
    shown = " * ".join(f"({f})" + (f"^{m}" if m > 1 else "") for f, m in factors)
    print(f"  {label:16s} = {shown if shown else '(constant)'}")

print()
print("== the same inputs over cyclotomic fields ==")
for coeffs, order, label in [
    ([1, 1, 1], 3, "x^2 + x + 1 over Q(zeta_3)"),
    ([-2, 0, 1], 8, "x^2 - 2     over Q(zeta_8)"),
    ([1, 0, -1, 0, 1], 12, "x^4 - x^2 + 1 over Q(zeta_12)"),
]:
    factors = factor_over_cyclotomic(Poly(coeffs), order)
    print(f"  {label} = " + " * ".join(f"({f})" for f in factors))

