"""Builders for the example Hopf algebra families.

All four constructions produce structure constants in {0, 1} (tensor products
of such stay integral), so downstream exact arithmetic starts from integers.
k^G is the dual of k[G], so it shares the group algebra's tensors.
The bundled cyclotomic order is the group exponent (a splitting field for
every group-flavored family here) and, for tensor products, the lcm of the
factors' orders.
"""

from __future__ import annotations

from math import lcm

from .groups import GroupTable
from .hopf import HopfData, dualize
from .scalars import ONE, ZERO


def group_algebra(g: GroupTable) -> HopfData:
    """k[G]: basis = group elements, Delta(x) = x (x) x, S(x) = x^-1."""
    n = g.order
    mult = {(i, j, g.table[i][j]): ONE for i in range(n) for j in range(n)}
    unit = [ONE if k == g.identity else ZERO for k in range(n)]
    comult = {(k, k, k): ONE for k in range(n)}
    antipode = {(g.inverses[j], j): ONE for j in range(n)}
    return HopfData(f"k[{g.name}]", n, mult, unit, comult, [ONE] * n, antipode,
                    cyclotomic_order=g.exponent)


def function_algebra(g: GroupTable) -> HopfData:
    """k^G = k[G]* on the delta basis: pointwise product, Delta(d_x) = sum_{ab=x}
    d_a (x) d_b, eps(d_x) = [x = e], S(d_x) = d_{x^-1}; built by dualizing k[G]."""
    h = dualize(group_algebra(g))
    h.name = f"k^{g.name}"
    return h


def drinfeld_double(g: GroupTable) -> HopfData:
    """D(G) on the basis d_x (x) h, index (x, h) -> x*n + h:

        (d_x (x) h)(d_y (x) h') = [x = h y h^-1] d_x (x) hh'
        Delta(d_x (x) h) = sum_{ab = x} (d_a (x) h) (x) (d_b (x) h)
        eps(d_x (x) h) = [x = e]
        S(d_x (x) h) = d_{h^-1 x^-1 h} (x) h^-1
    """
    n = g.order
    t, inv, e = g.table, g.inverses, g.identity

    def idx(x: int, h: int) -> int:
        return x * n + h

    mult = {
        (idx(x, h), idx(y, h2), idx(x, t[h][h2])): ONE
        for x in range(n)
        for h in range(n)
        for y in range(n)
        if t[t[h][y]][inv[h]] == x
        for h2 in range(n)
    }
    unit = [ONE if h == e else ZERO for x in range(n) for h in range(n)]
    comult = {
        (idx(a, h), idx(t[inv[a]][x], h), idx(x, h)): ONE  # a * (a^-1 x) = x
        for x in range(n)
        for h in range(n)
        for a in range(n)
    }
    counit = [ONE if x == e else ZERO for x in range(n) for h in range(n)]
    antipode = {
        (idx(t[t[inv[h]][inv[x]]][h], inv[h]), idx(x, h)): ONE  # h^-1 x^-1 h
        for x in range(n)
        for h in range(n)
    }
    return HopfData(f"D({g.name})", n * n, mult, unit, comult, counit, antipode,
                    cyclotomic_order=g.exponent)


def _kron(a: dict, b: dict, d2: int) -> dict:
    """Kronecker product of two sparse tensors of one arity, index (i, j) -> i*d2 + j."""
    return {
        tuple(i * d2 + j for i, j in zip(ka, kb)): ca * cb
        for ka, ca in a.items()
        for kb, cb in b.items()
    }


def tensor_product(h1: HopfData, h2: HopfData) -> HopfData:
    """Componentwise Hopf structure on the tensor basis, index (i, j) -> i*d2 + j."""
    d2 = h2.dim
    return HopfData(
        f"{h1.name} (x) {h2.name}",
        h1.dim * d2,
        _kron(h1.mult, h2.mult, d2),
        [a * b for a in h1.unit for b in h2.unit],
        _kron(h1.comult, h2.comult, d2),
        [a * b for a in h1.counit for b in h2.counit],
        _kron(h1.antipode, h2.antipode, d2),
        cyclotomic_order=lcm(h1.cyclotomic_order, h2.cyclotomic_order),
    )
