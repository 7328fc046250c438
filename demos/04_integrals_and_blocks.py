#!/usr/bin/env python3
"""Integrals and the Wedderburn block structure.

The integral pair (lambda, Lambda) certifies semisimplicity; the centrally
primitive idempotents split the algebra into matrix blocks whose degrees are
read off exactly from traces."""

from hopfkit import (
    builtin_group,
    compute_integrals,
    drinfeld_double,
    group_algebra,
    pair,
    primitive_idempotents,
)
from hopfkit.hopf import format_vector

for name in ("C2", "S3"):
    h = group_algebra(builtin_group(name))
    p = compute_integrals(h)
    print(f"== {h.name} ==")
    print("  lambda  =", format_vector(p.lambda_dual))
    print("  Lambda  =", format_vector(p.Lambda))
    print("  <eps, Lambda> =", pair(h.counit, p.Lambda), "= dim H")
    blocks = primitive_idempotents(h)
    print("  block degrees:", blocks.degrees)
    for label, e in zip(blocks.labels, blocks.idempotents):
        print(f"    e_{label} = {format_vector(e)}")
    print()

print("== the Drinfeld double of S3 (dim 36) ==")
ds3 = drinfeld_double(builtin_group("S3"))
p = compute_integrals(ds3)
print("  <eps, Lambda> =", pair(ds3.counit, p.Lambda))
blocks = primitive_idempotents(ds3)
print("  block degrees:", blocks.degrees)
print("  sum of squares:", sum(d * d for d in blocks.degrees), "= dim", ds3.dim)

print()
print("== a non-semisimple input is a first-class error ==")
from hopfkit import HopfData, NotSemisimpleError

# the 4-dimensional algebra on {1, g, x, gx} with g^2 = 1, x^2 = 0, xg = -gx:
# a genuine Hopf algebra (axioms pass) whose regular character of H* is not
# a left integral
I, G, X, GX = range(4)
mult = {
    (I, I, I): 1, (I, G, G): 1, (I, X, X): 1, (I, GX, GX): 1,
    (G, I, G): 1, (G, G, I): 1, (G, X, GX): 1, (G, GX, X): 1,
    (X, I, X): 1, (X, G, GX): -1, (GX, I, GX): 1, (GX, G, X): -1,
}
comult = {
    (I, I, I): 1, (G, G, G): 1,
    (X, I, X): 1, (G, X, X): 1,
    (GX, G, GX): 1, (I, GX, GX): 1,
}
antipode = {(I, I): 1, (G, G): 1, (GX, X): -1, (X, GX): 1}
small = HopfData("sweedler4", 4, mult, [1, 0, 0, 0], comult, [1, 1, 0, 0], antipode)
try:
    compute_integrals(small)
except NotSemisimpleError as exc:
    print("  caught:", exc)
