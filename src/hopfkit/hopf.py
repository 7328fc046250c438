"""Structure-constant model of a finite-dimensional Hopf algebra.

A :class:`HopfData` stores sparse structure constants over a fixed basis
b_0..b_{d-1}, keeping only the nonzero entries, in index order:

    mult[i, j, k]     b_i b_j = sum_k mult[i, j, k] b_k
    unit[k]           1 = sum_k unit[k] b_k
    comult[i, j, k]   Delta(b_k) = sum_{i,j} comult[i, j, k] b_i (x) b_j
    counit[k]         eps(b_k)
    antipode[i, j]    S(b_j) = sum_i antipode[i, j] b_i

``mult``, ``comult`` and ``antipode`` are dicts from index tuples to scalars;
``unit`` and ``counit`` are length-d vectors.  Elements of H are coordinate
tuples over the basis; elements of the dual H* are coordinate tuples over the
dual basis, paired by the coordinate dot product.  Dualization transposes the
picture: with these conventions the dual Hopf algebra simply swaps mult with
comult and unit with counit and transposes the antipode, so dualizing twice is
the identity on the nose.

Axiom checking is exhaustive over basis tuples; the contraction loops read the
bucketed views ``mult_nz``, ``comult_nz`` and ``antipode_nz``, which keeps the
group-flavored example families (whose structure constants are 0/1) fast.
Operations are pure functions and never modify their inputs.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Mapping, Sequence

from .errors import ParseError
from .linalg import Vector, vec_eq
from .report import VerificationReport
from .scalars import CycScalar, ONE, ZERO, as_scalar, format_scalar, parse_scalar


def format_vector(v: Sequence[CycScalar]) -> str:
    return "(" + ", ".join(format_scalar(as_scalar(e)) for e in v) + ")"


def _sparse(entries: Mapping, arity: int, dim: int, what: str) -> dict:
    """Index-ordered copy of ``entries`` with scalar values and zeros dropped."""
    out = {}
    for key in sorted(entries):
        if len(key) != arity or not all(0 <= i < dim for i in key):
            raise ValueError(f"bad {what} key {key!r}: need {arity} indices in 0..{dim - 1}")
        c = as_scalar(entries[key])
        if not c.is_zero():
            out[key] = c
    return out


class HopfData:
    """Structure-constant data for a Hopf algebra over Q(zeta_N).

    ``mult`` and ``comult`` map (i, j, k) and ``antipode`` maps (i, j) to
    scalars (ints, Fractions or CycScalars); omitted entries are zero.
    ``unit`` and ``counit`` are length-``dim`` sequences.
    """

    def __init__(self, name: str, dim: int, mult: Mapping, unit: Sequence, comult: Mapping,
                 counit: Sequence, antipode: Mapping, cyclotomic_order: int = 1):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.name = name
        self.dim = dim
        self.cyclotomic_order = cyclotomic_order
        self.mult = _sparse(mult, 3, dim, "multiplication")
        self.comult = _sparse(comult, 3, dim, "comultiplication")
        self.antipode = _sparse(antipode, 2, dim, "antipode")
        self.unit = tuple(as_scalar(c) for c in unit)
        self.counit = tuple(as_scalar(c) for c in counit)
        if len(self.unit) != dim or len(self.counit) != dim:
            raise ValueError("dimension mismatch in unit/counit vector")

    # -- cached bucketed views ------------------------------------------------

    @cached_property
    def mult_nz(self) -> list[list[tuple[tuple[int, CycScalar], ...]]]:
        """mult_nz[i][j] = the (k, c) with b_i b_j = sum c b_k."""
        d = self.dim
        rows: list[list[list]] = [[[] for _ in range(d)] for _ in range(d)]
        for (i, j, k), c in self.mult.items():
            rows[i][j].append((k, c))
        return [[tuple(cell) for cell in row] for row in rows]

    @cached_property
    def mult_by_output(self) -> list[tuple[tuple[int, int, CycScalar], ...]]:
        """mult_by_output[k] = the (i, j, c) with c b_k a term of b_i b_j; the
        same buckets as ``comult_nz`` of the dual."""
        buckets: list[list] = [[] for _ in range(self.dim)]
        for (i, j, k), c in self.mult.items():
            buckets[k].append((i, j, c))
        return [tuple(b) for b in buckets]

    @cached_property
    def comult_nz(self) -> list[tuple[tuple[int, int, CycScalar], ...]]:
        """comult_nz[k] = the (i, j, c) with Delta(b_k) = sum c b_i (x) b_j."""
        buckets: list[list] = [[] for _ in range(self.dim)]
        for (i, j, k), c in self.comult.items():
            buckets[k].append((i, j, c))
        return [tuple(b) for b in buckets]

    @cached_property
    def antipode_nz(self) -> list[tuple[tuple[int, CycScalar], ...]]:
        """antipode_nz[j] = the (i, c) with S(b_j) = sum c b_i."""
        buckets: list[list] = [[] for _ in range(self.dim)]
        for (i, j), c in self.antipode.items():
            buckets[j].append((i, c))
        return [tuple(b) for b in buckets]

    # -- element-level helpers -------------------------------------------------

    def basis_vector(self, k: int) -> Vector:
        return tuple(ONE if i == k else ZERO for i in range(self.dim))

    def multiply(self, x: Sequence[CycScalar], y: Sequence[CycScalar]) -> Vector:
        d = self.dim
        out = [ZERO] * d
        nz = self.mult_nz
        for i in range(d):
            xi = x[i]
            if xi.is_zero():
                continue
            row = nz[i]
            for j in range(d):
                terms = row[j]
                if not terms:
                    continue
                yj = y[j]
                if yj.is_zero():
                    continue
                f = xi * yj
                for k, c in terms:
                    out[k] = out[k] + (f if c is ONE else f * c)
        return tuple(out)

    def apply_antipode(self, x: Sequence[CycScalar]) -> Vector:
        out = [ZERO] * self.dim
        for j, xj in enumerate(x):
            if xj.is_zero():
                continue
            for i, c in self.antipode_nz[j]:
                out[i] = out[i] + xj * c
        return tuple(out)

    def apply_dual_antipode(self, phi: Sequence[CycScalar]) -> Vector:
        """S* phi = phi o S; coordinates (S*phi)_i = sum_j antipode[j, i] phi_j."""
        out = [ZERO] * self.dim
        for (j, i), c in self.antipode.items():
            pj = phi[j]
            if not pj.is_zero():
                out[i] = out[i] + pj * c
        return tuple(out)

    def counit_of(self, x: Sequence[CycScalar]) -> CycScalar:
        acc = ZERO
        for e, xk in zip(self.counit, x):
            if not (e.is_zero() or xk.is_zero()):
                acc = acc + e * xk
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, HopfData):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.mult == other.mult
            and self.unit == other.unit
            and self.comult == other.comult
            and self.counit == other.counit
            and self.antipode == other.antipode
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"HopfData({self.name!r}, dim={self.dim}, cyclotomic={self.cyclotomic_order})"


# ---------------------------------------------------------------------------
# the evaluation pairing, convolution, and the two hit actions


def pair(phi: Sequence[CycScalar], h: Sequence[CycScalar]) -> CycScalar:
    """<phi, h>: coordinate dot product of a dual vector with an algebra vector."""
    if len(phi) != len(h):
        raise ValueError("dimension mismatch in pairing")
    acc = ZERO
    for p, x in zip(phi, h):
        if not (p.is_zero() or x.is_zero()):
            acc = acc + p * x
    return acc


def convolve(phi: Sequence[CycScalar], psi: Sequence[CycScalar], H: HopfData) -> Vector:
    """Product in H*: (phi psi)(h) = sum phi(h_(1)) psi(h_(2))."""
    if len(phi) != H.dim or len(psi) != H.dim:
        raise ValueError("dimension mismatch in convolution")
    out = [ZERO] * H.dim
    for k, terms in enumerate(H.comult_nz):
        acc = ZERO
        for i, j, c in terms:
            p, q = phi[i], psi[j]
            if not (p.is_zero() or q.is_zero()):
                acc = acc + c * p * q
        out[k] = acc
    return tuple(out)


def commutes_with_basis(
    x: Sequence[CycScalar], by_output: Sequence[Sequence[tuple[int, int, CycScalar]]]
) -> bool:
    """Whether x commutes with every basis vector b_t of the algebra whose
    products are ``by_output[k]`` = the (i, j, c) with c b_k a term of b_i b_j
    (``H.mult_by_output`` for H, ``H.comult_nz`` for H* under convolution).

    One sweep over the entries: at each output k, x b_t - b_t x has coefficient
    sum_{(i, t)} c x_i - sum_{(t, j)} c x_j, which must vanish for every t.
    """
    for terms in by_output:
        diff: dict[int, CycScalar] = {}
        for i, j, c in terms:
            xi, xj = x[i], x[j]
            if not xi.is_zero():
                _acc_add(diff, j, c * xi)
            if not xj.is_zero():
                _acc_add(diff, i, -(c * xj))
        if any(not v.is_zero() for v in diff.values()):
            return False
    return True


def hit_act_alg_on_dual(h: Sequence[CycScalar], phi: Sequence[CycScalar], H: HopfData) -> Vector:
    """The action of H on H* defined by <h phi, h'> = <phi, h' h>."""
    if len(h) != H.dim or len(phi) != H.dim:
        raise ValueError("dimension mismatch in hit action")
    d = H.dim
    out = [ZERO] * d
    nz = H.mult_nz
    for r in range(d):
        acc = ZERO
        row = nz[r]
        for i in range(d):
            hi = h[i]
            if hi.is_zero():
                continue
            for k, c in row[i]:
                pk = phi[k]
                if not pk.is_zero():
                    acc = acc + hi * c * pk
        out[r] = acc
    return tuple(out)


def hit_act_dual_on_alg(phi: Sequence[CycScalar], h: Sequence[CycScalar], H: HopfData) -> Vector:
    """The dual action of H* on H: phi h = sum h_(1) <phi, h_(2)>; it satisfies
    <psi, phi h> = <psi phi, h> for every psi."""
    if len(h) != H.dim or len(phi) != H.dim:
        raise ValueError("dimension mismatch in hit action")
    out = [ZERO] * H.dim
    for k, hk in enumerate(h):
        if hk.is_zero():
            continue
        for a, b, c in H.comult_nz[k]:
            pb = phi[b]
            if not pb.is_zero():
                out[a] = out[a] + hk * c * pb
    return tuple(out)


# ---------------------------------------------------------------------------
# dualization


def dualize(H: HopfData) -> HopfData:
    """The dual Hopf algebra on the dual basis.

    With this module's index conventions the dual multiplication tensor is the
    comultiplication tensor unchanged (and vice versa), the unit and counit
    vectors swap, and the antipode transposes; dualize(dualize(H)) == H
    entry-for-entry.
    """
    return HopfData(
        name=f"dual({H.name})",
        dim=H.dim,
        mult=H.comult,
        unit=H.counit,
        comult=H.mult,
        counit=H.unit,
        antipode={(j, i): c for (i, j), c in H.antipode.items()},
        cyclotomic_order=H.cyclotomic_order,
    )


# ---------------------------------------------------------------------------
# axiom verification


def _acc_add(acc: dict, key, value: CycScalar) -> None:
    cur = acc.get(key)
    acc[key] = value if cur is None else cur + value


def _acc_equal(a: dict, b: dict) -> bool:
    for key, value in a.items():
        other = b.get(key)
        if other is None:
            if not value.is_zero():
                return False
        elif not (value - other).is_zero():
            return False
    for key, value in b.items():
        if key not in a and not value.is_zero():
            return False
    return True


def check_axioms(H: HopfData) -> VerificationReport:
    """Exhaustively verify the Hopf axioms as exact tensor-contraction
    identities; one report item per axiom."""
    report = VerificationReport(subject=H.name, dim=H.dim, suite="axioms")
    d = H.dim
    mult_nz = H.mult_nz
    comult_nz = H.comult_nz
    anti_nz = H.antipode_nz

    # associativity: (b_i b_j) b_k == b_i (b_j b_k)
    failure = ""
    for i in range(d):
        for j in range(d):
            left_ij = mult_nz[i][j]
            for k in range(d):
                lhs: dict[int, CycScalar] = {}
                for l, c in left_ij:
                    for r, c2 in mult_nz[l][k]:
                        _acc_add(lhs, r, c * c2)
                rhs: dict[int, CycScalar] = {}
                for l, c in mult_nz[j][k]:
                    for r, c2 in mult_nz[i][l]:
                        _acc_add(rhs, r, c * c2)
                if not _acc_equal(lhs, rhs):
                    failure = f"(b{i} b{j}) b{k} != b{i} (b{j} b{k})"
                    break
            if failure:
                break
        if failure:
            break
    report.add("assoc", "multiplication is associative on all basis triples", not failure, failure)

    # unit: 1 b_j == b_j == b_j 1
    failure = ""
    one = H.unit
    for j in range(d):
        bj = H.basis_vector(j)
        if not vec_eq(H.multiply(one, bj), bj) or not vec_eq(H.multiply(bj, one), bj):
            failure = f"unit fails on b{j}"
            break
    report.add("unit", "the unit vector is a two-sided multiplicative identity", not failure, failure)

    # coassociativity: (Delta x id) Delta == (id x Delta) Delta
    failure = ""
    for k in range(d):
        lhs3: dict[tuple[int, int, int], CycScalar] = {}
        rhs3: dict[tuple[int, int, int], CycScalar] = {}
        for a, b, c in comult_nz[k]:
            for p, q, c2 in comult_nz[a]:
                _acc_add(lhs3, (p, q, b), c * c2)
            for p, q, c2 in comult_nz[b]:
                _acc_add(rhs3, (a, p, q), c * c2)
        if not _acc_equal(lhs3, rhs3):
            failure = f"coassociativity fails on b{k}"
            break
    report.add("coassoc", "comultiplication is coassociative on all basis vectors", not failure, failure)

    # counit: (eps x id) Delta == id == (id x eps) Delta
    failure = ""
    eps = H.counit
    for k in range(d):
        left = [ZERO] * d
        right = [ZERO] * d
        for a, b, c in comult_nz[k]:
            if not eps[a].is_zero():
                left[b] = left[b] + eps[a] * c
            if not eps[b].is_zero():
                right[a] = right[a] + eps[b] * c
        target = H.basis_vector(k)
        if not (vec_eq(tuple(left), target) and vec_eq(tuple(right), target)):
            failure = f"counit fails on b{k}"
            break
    report.add("counit", "the counit is a two-sided counit for the comultiplication", not failure, failure)

    # Delta is an algebra map: Delta(b_i b_j) == Delta(b_i) Delta(b_j), Delta(1) = 1 (x) 1
    failure = ""
    for i in range(d):
        for j in range(d):
            lhs2: dict[tuple[int, int], CycScalar] = {}
            for k, c in mult_nz[i][j]:
                for a, b, c2 in comult_nz[k]:
                    _acc_add(lhs2, (a, b), c * c2)
            rhs2: dict[tuple[int, int], CycScalar] = {}
            for a1, b1, c1 in comult_nz[i]:
                for a2, b2, c2 in comult_nz[j]:
                    f = c1 * c2
                    for p, cp in mult_nz[a1][a2]:
                        for q, cq in mult_nz[b1][b2]:
                            _acc_add(rhs2, (p, q), f * cp * cq)
            if not _acc_equal(lhs2, rhs2):
                failure = f"Delta(b{i} b{j}) != Delta(b{i}) Delta(b{j})"
                break
        if failure:
            break
    if not failure:
        lhs2 = {}
        for k, uk in enumerate(H.unit):
            if uk.is_zero():
                continue
            for a, b, c in comult_nz[k]:
                _acc_add(lhs2, (a, b), uk * c)
        rhs2 = {}
        for a, ua in enumerate(H.unit):
            if ua.is_zero():
                continue
            for b, ub in enumerate(H.unit):
                if not ub.is_zero():
                    _acc_add(rhs2, (a, b), ua * ub)
        if not _acc_equal(lhs2, rhs2):
            failure = "Delta(1) != 1 (x) 1"
    report.add("comult-alg-map", "comultiplication is an algebra map", not failure, failure)

    # eps is an algebra map: eps(b_i b_j) == eps(b_i) eps(b_j), eps(1) = 1
    failure = ""
    for i in range(d):
        for j in range(d):
            acc = ZERO
            for k, c in mult_nz[i][j]:
                if not eps[k].is_zero():
                    acc = acc + c * eps[k]
            if not (acc - eps[i] * eps[j]).is_zero():
                failure = f"eps(b{i} b{j}) != eps(b{i}) eps(b{j})"
                break
        if failure:
            break
    if not failure and not (H.counit_of(H.unit) - ONE).is_zero():
        failure = "eps(1) != 1"
    report.add("counit-alg-map", "counit is an algebra map", not failure, failure)

    # antipode: sum S(h_(1)) h_(2) == eps(h) 1 == sum h_(1) S(h_(2))
    left_fail = ""
    right_fail = ""
    for k in range(d):
        left = [ZERO] * d
        right = [ZERO] * d
        for a, b, c in comult_nz[k]:
            for i, cs in anti_nz[a]:
                for r, cm in mult_nz[i][b]:
                    left[r] = left[r] + c * cs * cm
            for i, cs in anti_nz[b]:
                for r, cm in mult_nz[a][i]:
                    right[r] = right[r] + c * cs * cm
        target = tuple(eps[k] * u for u in H.unit)
        if not left_fail and not vec_eq(tuple(left), target):
            left_fail = f"sum S(b{k}_(1)) b{k}_(2) != eps(b{k}) 1"
        if not right_fail and not vec_eq(tuple(right), target):
            right_fail = f"sum b{k}_(1) S(b{k}_(2)) != eps(b{k}) 1"
        if left_fail and right_fail:
            break
    report.add("antipode-left", "m(S (x) id)Delta == unit . counit", not left_fail, left_fail)
    report.add("antipode-right", "m(id (x) S)Delta == unit . counit", not right_fail, right_fail)

    return report


# ---------------------------------------------------------------------------
# the .hopf text format


_SECTIONS = ("MULT", "COMULT", "UNIT", "COUNIT", "ANTIPODE")


def parse_hopf(text: str) -> HopfData:
    """Parse the `.hopf` text format (sparse structure-constant lines)."""
    name: str | None = None
    dim: int | None = None
    order = 1
    section: str | None = None
    entries: dict[str, dict[tuple[int, ...], CycScalar]] = {s: {} for s in _SECTIONS}
    index_counts = {"MULT": 3, "COMULT": 3, "UNIT": 1, "COUNIT": 1, "ANTIPODE": 2}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("hopf", "dim", "cyclotomic") and section is not None:
            # section data is range-checked against dim and parsed at the
            # cyclotomic order as it is read, so a later header cannot apply
            raise ParseError(f"header {head!r} must come before the first section", lineno)
        if head == "hopf":
            name = line[len("hopf"):].strip()
            continue
        if head == "dim":
            if len(tokens) != 2 or not tokens[1].isdecimal() or int(tokens[1]) < 1:
                raise ParseError("dim expects one positive integer", lineno)
            dim = int(tokens[1])
            continue
        if head == "cyclotomic":
            if len(tokens) != 2 or not tokens[1].isdecimal() or int(tokens[1]) < 1:
                raise ParseError("cyclotomic expects one positive integer", lineno)
            order = int(tokens[1])
            continue
        if head in _SECTIONS:
            if len(tokens) != 1:
                raise ParseError(f"unexpected tokens after section name {head}", lineno)
            section = head
            continue
        if section is None:
            raise ParseError(f"unexpected line outside any section: {line!r}", lineno)
        if dim is None:
            raise ParseError("dim must be declared before section data", lineno)
        n_idx = index_counts[section]
        if len(tokens) < n_idx + 1:
            raise ParseError(f"{section} lines need {n_idx} indices and a scalar", lineno)
        try:
            idx = tuple(int(t) for t in tokens[:n_idx])
        except ValueError:
            raise ParseError(f"bad index in {section} line", lineno) from None
        if any(not (0 <= i < dim) for i in idx):
            raise ParseError(f"index out of range 0..{dim - 1}", lineno)
        scalar_text = line.split(None, n_idx)[n_idx]
        try:
            value = parse_scalar(scalar_text, order)
        except ParseError as exc:
            raise ParseError(f"bad scalar literal: {exc}", lineno) from None
        if idx in entries[section]:
            raise ParseError(f"duplicate {section} entry {idx}", lineno)
        entries[section][idx] = value

    if name is None:
        raise ParseError("missing 'hopf <name>' header")
    if dim is None:
        raise ParseError("missing 'dim <d>' header")

    unit = [ZERO] * dim
    for (k,), v in entries["UNIT"].items():
        unit[k] = v
    counit = [ZERO] * dim
    for (k,), v in entries["COUNIT"].items():
        counit[k] = v
    return HopfData(name, dim, entries["MULT"], unit, entries["COMULT"], counit,
                    entries["ANTIPODE"], cyclotomic_order=order)


def format_hopf(H: HopfData) -> str:
    """Render to the `.hopf` text format; round-trips exactly."""
    order = H.cyclotomic_order
    for c in (*H.unit, *H.counit, *H.mult.values(), *H.comult.values(), *H.antipode.values()):
        order = lcm(order, c.order)

    def lit(c: CycScalar) -> str:
        lifted = CycScalar.from_coords(order, c.lift(order)) if c.order != order else c
        return format_scalar(lifted) if lifted.order != 1 else str(lifted.as_fraction())

    lines = [f"hopf {H.name}", f"dim {H.dim}", f"cyclotomic {order}"]
    for section, entries in (
        ("MULT", H.mult.items()),
        ("COMULT", H.comult.items()),
        ("UNIT", (((k,), c) for k, c in enumerate(H.unit))),
        ("COUNIT", (((k,), c) for k, c in enumerate(H.counit))),
        ("ANTIPODE", H.antipode.items()),
    ):
        lines.append(section)
        for idx, c in sorted(entries, key=lambda e: e[0]):
            if not c.is_zero():
                lines.append(" ".join(map(str, idx)) + f" {lit(c)}")
    return "\n".join(lines) + "\n"
