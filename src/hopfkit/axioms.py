"""Exact verification of the Hopf axioms on sparse structure constants.

:func:`check_axioms` checks each axiom as an exact tensor-contraction identity
on the stored entries of a :class:`~hopfkit.hopf.HopfData` and reports one item
per axiom.  Every loop visits, in index order, only the basis tuples on which
one side of its identity can be nonzero (both sides vanish on the others), so
its first failing tuple, the witness, is the one a sweep over all tuples finds.
``comult-alg-map`` is staged: per i it contracts Delta(b_i) with m once, then
with the a2 (x) b2 terms of every Delta(b_j), the j read off H*'s products
``H.dual.mult_nz[a2][b2]``, then applies m on the second leg.  It compares only
the pairs (i, j) where a side can be nonzero and is O(d^6) on dense constants
instead of O(d^8).

Three of the loops need not visit every row.  A set S of basis indices is a
set of generating rows when the right-nested words b_s1 (b_s2 (... b_sn)), s_i
in S, span H; :func:`_generating_rows` finds one and its closure is the proof.
``HopfData`` computes it once per algebra: ``H.generating_rows`` for H and
``H.dual.generating_rows`` for H*, whose product is ``comult``.

Lemma 1 (associativity on generators).  A = {x : (x y) z = x (y z) for all y,
z} is a subspace of H, and it is closed under products: for x, x' in A,
((x x') y) z = (x (x' y)) z = x ((x' y) z) = x (x' (y z)) = (x x') (y z).  So A
holds every word over S, and if S is in A, then A = H.

Lemma 2 (Delta on generators).  If H is associative, M = {x : Delta(x y) =
Delta(x) Delta(y) for all y} is a subspace closed under products: Delta((x x')
y) = Delta(x (x' y)) = Delta(x) Delta(x') Delta(y) = Delta(x x') Delta(y), as
H (x) H is associative too.  So ``comult-alg-map`` visits the rows of S only
when ``assoc`` passed, and every row otherwise.  The identity is self-dual:
written in structure constants, Delta(b_i b_j) = Delta(b_i) Delta(b_j) for all
i, j is Delta*(phi_p phi_q) = Delta*(phi_p) Delta*(phi_q) for all p, q on H*,
whose associativity is H's coassociativity.  So once ``coassoc`` passed, the
loop runs on ``H.dual`` over H*'s generating rows when they are fewer.

Coassociativity of H is associativity of H* in the dual basis, where phi_p
phi_q = sum_k comult[p, q, k] phi_k, so Lemma 1 on H* lets ``coassoc`` keep
only the tensor entries whose first index is a generating row of H*.  The
check reads H*'s views off ``H.dual``, which shares H's tensors: ``assoc``
finds the products with a b_l term in ``H.dual.comult_nz[l]``.

The rerun rule: a loop that passes on generating rows has proved its identity
on all of H; a loop that fails on them runs again over every row of H, and that
full sweep names the same first witness as before the cut.  So the items,
witnesses included, are those of the exhaustive check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .report import VerificationReport
from .scalars import CycScalar, ONE, ZERO

if TYPE_CHECKING:
    from .hopf import HopfData


def _acc_add(acc: dict, key, value: CycScalar) -> None:
    cur = acc.get(key)
    acc[key] = value if cur is None else cur + value


def _acc_equal(a: dict, b: dict) -> bool:
    for key, value in a.items():
        other = b.get(key)
        if other is None:
            if not value.is_zero():
                return False
        elif value != other:
            return False
    for key, value in b.items():
        if key not in a and not value.is_zero():
            return False
    return True


def _generating_rows(d: int, entries: Mapping[tuple[int, int, int], CycScalar]) -> list[int]:
    """Generating rows of the algebra with products b_i b_j = sum_k
    entries[i, j, k] b_k, in index order.

    First fit over the indices in descending order: each index not yet reached
    is taken, and the reached set is closed under left multiplication by the
    taken rows, through the products b_s b_r = c b_k that are a single stored
    term (c != 0, so b_k is a multiple of a word over the taken rows).  On
    dense constants no product is a single term, and every row is taken.
    """
    product: dict[tuple[int, int], int] = {}
    for i, j, k in entries:
        product[i, j] = -1 if (i, j) in product else k
    left: list[dict[int, int]] = [{} for _ in range(d)]
    for (i, j), k in product.items():
        if k >= 0:
            left[i][j] = k
    reached = [False] * d
    rows: list[int] = []
    for s in reversed(range(d)):
        if reached[s]:
            continue
        rows.append(s)
        reached[s] = True
        # the indices whose products with the rows are still to be read: s,
        # and each index reached before s, as s is a new left factor for it
        todo = [s, *(r for r in left[s] if reached[r])]
        while todo:
            r = todo.pop()
            for t in rows:
                k = left[t].get(r)
                if k is not None and not reached[k]:
                    reached[k] = True
                    todo.append(k)
    return sorted(rows)


def _on_rows(check: Callable[[HopfData, Sequence[int]], str], H: HopfData, rows: Sequence[int],
             side: HopfData | None = None) -> str:
    """check(side, rows), side H or H*, and when that fails on fewer than all
    rows, the same loop over every row of H, which names the first witness of
    the full sweep."""
    failure = check(H if side is None else side, rows)
    if failure and len(rows) < H.dim:
        failure = check(H, range(H.dim))
    return failure


def _assoc(H: HopfData, rows: Sequence[int]) -> str:
    # (b_i b_j) b_k == b_i (b_j b_k).  The left side vanishes unless some b_l
    # of b_i b_j has b_l b_k != 0, the right side unless some b_l of b_j b_k has
    # b_i b_l != 0; per i only those pairs (j, k) are visited, in order
    mult_nz = H.mult_nz
    by_output = H.dual.comult_nz  # by_output[l]: the (j, k, c) with c b_l in b_j b_k
    for i in rows:
        row_i = mult_nz[i]
        pairs = {(j, k) for l in row_i for j, k, _ in by_output[l]}
        pairs.update((j, k) for j, terms in row_i.items() for l, _ in terms for k in mult_nz[l])
        for j, k in sorted(pairs):
            lhs: dict[int, CycScalar] = {}
            for l, c in row_i.get(j, ()):
                for r, c2 in mult_nz[l].get(k, ()):
                    _acc_add(lhs, r, c2 if c is ONE else c * c2)
            rhs: dict[int, CycScalar] = {}
            for l, c in mult_nz[j].get(k, ()):
                for r, c2 in row_i.get(l, ()):
                    _acc_add(rhs, r, c2 if c is ONE else c * c2)
            if not _acc_equal(lhs, rhs):
                return f"(b{i} b{j}) b{k} != b{i} (b{j} b{k})"
    return ""


def _coassoc(H: HopfData, rows: Sequence[int]) -> str:
    # (Delta x id) Delta == (id x Delta) Delta at every b_k, on the entries
    # (p, q, b) and (a, p, q) whose first index is in rows
    comult_nz = H.comult_nz
    keep = set(rows)
    for k in range(H.dim):
        lhs: dict[tuple[int, int, int], CycScalar] = {}
        rhs: dict[tuple[int, int, int], CycScalar] = {}
        for a, b, c in comult_nz[k]:
            for p, q, c2 in comult_nz[a]:
                if p in keep:
                    _acc_add(lhs, (p, q, b), c2 if c is ONE else c * c2)
            if a in keep:
                for p, q, c2 in comult_nz[b]:
                    _acc_add(rhs, (a, p, q), c2 if c is ONE else c * c2)
        if not _acc_equal(lhs, rhs):
            return f"coassociativity fails on b{k}"
    return ""


def _comult_alg_map(H: HopfData, rows: Sequence[int]) -> str:
    # Delta(b_i b_j) == Delta(b_i) Delta(b_j), contracted in stages, O(d^6) on
    # dense data: X[a2][b1][p] = sum_{a1} Delta_i[a1, b1] m[a1, a2, p] once per
    # i, then Y[j][b1, b2][p] = sum_{a2} X[a2][b1][p] Delta_j[a2, b2] over the
    # b1 b2 != 0 and the j read off H*'s products phi_a2 phi_b2, then m on the
    # second leg.  A side can be nonzero only at the j of Y or of b_i b_j != 0
    mult_nz = H.mult_nz
    comult_nz = H.comult_nz
    legs = H.dual.mult_nz
    for i in rows:
        row_i = mult_nz[i]
        X: dict[int, dict[int, dict[int, CycScalar]]] = {}
        for a1, b1, c1 in comult_nz[i]:
            for a2, terms in mult_nz[a1].items():
                xb = X.setdefault(a2, {}).setdefault(b1, {})
                for p, cp in terms:
                    _acc_add(xb, p, c1 if cp is ONE else c1 * cp)
        Y: dict[int, dict[tuple[int, int], dict[int, CycScalar]]] = {}
        for a2, xa in X.items():
            legs_a2 = legs[a2]
            for b1, xb in xa.items():
                for b2 in mult_nz[b1]:
                    for j, c2 in legs_a2.get(b2, ()):
                        y = Y.setdefault(j, {}).setdefault((b1, b2), {})
                        for p, x in xb.items():
                            _acc_add(y, p, x if c2 is ONE else x * c2)
        for j in sorted(Y.keys() | row_i.keys()):
            lhs: dict[tuple[int, int], CycScalar] = {}
            for k, c in row_i.get(j, ()):
                for a, b, c2 in comult_nz[k]:
                    _acc_add(lhs, (a, b), c2 if c is ONE else c * c2)
            rhs: dict[tuple[int, int], CycScalar] = {}
            for (b1, b2), y in Y.get(j, {}).items():
                terms = mult_nz[b1][b2]
                for p, yp in y.items():
                    for q, cq in terms:
                        _acc_add(rhs, (p, q), yp if cq is ONE else yp * cq)
            if not _acc_equal(lhs, rhs):
                return f"Delta(b{i} b{j}) != Delta(b{i}) Delta(b{j})"
    return ""


def check_axioms(H: HopfData) -> VerificationReport:
    """Exhaustively verify the Hopf axioms as exact tensor-contraction
    identities; one report item per axiom."""
    report = VerificationReport(subject=H.name, dim=H.dim, suite="axioms")
    d = H.dim
    mult_nz = H.mult_nz
    comult_nz = H.comult_nz
    anti_nz = H.antipode_nz

    rows = H.generating_rows
    failure = _on_rows(_assoc, H, rows)
    report.add("assoc", "multiplication is associative on all basis triples", not failure, failure)
    if failure:
        rows = range(d)  # Lemma 2 needs associativity

    # unit: 1 b_j == b_j == b_j 1
    failure = ""
    unit_support = list(H.unit.nz.items())
    for j in range(d):
        left: dict[int, CycScalar] = {}
        right: dict[int, CycScalar] = {}
        for a, u in unit_support:
            for r, c in mult_nz[a].get(j, ()):
                _acc_add(left, r, u * c)
            for r, c in mult_nz[j].get(a, ()):
                _acc_add(right, r, u * c)
        if not (_acc_equal(left, {j: ONE}) and _acc_equal(right, {j: ONE})):
            failure = f"unit fails on b{j}"
            break
    report.add("unit", "the unit vector is a two-sided multiplicative identity", not failure, failure)

    dual_rows = H.dual.generating_rows
    failure = _on_rows(_coassoc, H, dual_rows)
    report.add("coassoc", "comultiplication is coassociative on all basis vectors", not failure, failure)
    side = H  # comult-alg-map's side: H*'s rows when fewer, as coassoc made H* associative
    if not failure and len(dual_rows) < len(rows):
        side, rows = H.dual, dual_rows

    # counit: (eps x id) Delta == id == (id x eps) Delta
    failure = ""
    eps = H.counit.nz
    for k in range(d):
        left = {}
        right = {}
        for a, b, c in comult_nz[k]:
            if a in eps:
                _acc_add(left, b, eps[a] * c)
            if b in eps:
                _acc_add(right, a, eps[b] * c)
        if not (_acc_equal(left, {k: ONE}) and _acc_equal(right, {k: ONE})):
            failure = f"counit fails on b{k}"
            break
    report.add("counit", "the counit is a two-sided counit for the comultiplication", not failure, failure)

    # Delta is an algebra map: on the rows of its side, and Delta(1) = 1 (x) 1
    failure = _on_rows(_comult_alg_map, H, rows, side)
    if not failure:
        lhs: dict[tuple[int, int], CycScalar] = {}
        for k, uk in unit_support:
            for a, b, c in comult_nz[k]:
                _acc_add(lhs, (a, b), uk * c)
        rhs = {(a, b): ua * ub for a, ua in unit_support for b, ub in unit_support}
        if not _acc_equal(lhs, rhs):
            failure = "Delta(1) != 1 (x) 1"
    report.add("comult-alg-map", "comultiplication is an algebra map", not failure, failure)

    # eps is an algebra map: eps(b_i b_j) == eps(b_i) eps(b_j), eps(1) = 1; where
    # b_i b_j = 0 only a pair with eps(b_i) eps(b_j) != 0 can fail
    failure = ""
    for i, row_i in enumerate(mult_nz):
        for j in sorted(eps.keys() | row_i.keys()) if i in eps else row_i:
            acc = ZERO
            for k, c in row_i.get(j, ()):
                if k in eps:
                    acc = acc + c * eps[k]
            if acc != eps.get(i, ZERO) * eps.get(j, ZERO):
                failure = f"eps(b{i} b{j}) != eps(b{i}) eps(b{j})"
                break
        if failure:
            break
    if not failure:
        eps_one = ZERO
        for a, u in unit_support:
            eps_one = eps_one + eps.get(a, ZERO) * u
        if eps_one != ONE:
            failure = "eps(1) != 1"
    report.add("counit-alg-map", "counit is an algebra map", not failure, failure)

    # antipode: sum S(h_(1)) h_(2) == eps(h) 1 == sum h_(1) S(h_(2))
    left_fail = ""
    right_fail = ""
    for k in range(d):
        left = {}
        right = {}
        for a, b, c in comult_nz[k]:
            for i, cs in anti_nz[a]:
                for r, cm in mult_nz[i].get(b, ()):
                    _acc_add(left, r, c * cs * cm)
            for i, cs in anti_nz[b]:
                for r, cm in mult_nz[a].get(i, ()):
                    _acc_add(right, r, c * cs * cm)
        target = {r: eps[k] * u for r, u in unit_support} if k in eps else {}
        if not left_fail and not _acc_equal(left, target):
            left_fail = f"sum S(b{k}_(1)) b{k}_(2) != eps(b{k}) 1"
        if not right_fail and not _acc_equal(right, target):
            right_fail = f"sum b{k}_(1) S(b{k}_(2)) != eps(b{k}) 1"
        if left_fail and right_fail:
            break
    report.add("antipode-left", "m(S (x) id)Delta == unit . counit", not left_fail, left_fail)
    report.add("antipode-right", "m(id (x) S)Delta == unit . counit", not right_fail, right_fail)

    return report
