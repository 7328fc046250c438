"""Structure-constant model of a finite-dimensional Hopf algebra.

A :class:`HopfData` stores sparse structure constants over a fixed basis
b_0..b_{d-1}, keeping only the nonzero entries, in index order:

    mult[i, j, k]     b_i b_j = sum_k mult[i, j, k] b_k
    unit[k]           1 = sum_k unit[k] b_k
    comult[i, j, k]   Delta(b_k) = sum_{i,j} comult[i, j, k] b_i (x) b_j
    counit[k]         eps(b_k)
    antipode[i, j]    S(b_j) = sum_i antipode[i, j] b_i

``mult``, ``comult`` and ``antipode`` are dicts from index tuples to scalars;
``unit`` and ``counit`` are length-d vectors.  Elements of H are sparse
coordinate :class:`~hopfkit.linalg.Vector` s over the basis; elements of the
dual H* are Vectors over the dual basis, paired by the coordinate dot product.
Every element operation walks the supports of its operands, never all d
coordinates.  Dualization transposes the picture: with these conventions the
dual Hopf algebra simply swaps mult with comult and unit with counit and
transposes the antipode, so dualizing twice is the identity on the nose.  The
constructor validates and canonicalises once: it checks the keys in bulk with
C-level builtins and runs a per-key loop only to name the first bad key, and
every stored scalar's order must divide ``cyclotomic_order``.  H* shares H's
tensors (its ``mult`` is H's ``comult`` dict and its ``comult`` H's ``mult``)
and stores only its own transposed antipode.

The contraction loops read cached bucketed views that hold only the stored
entries, in index order: ``mult_nz[i]`` is a dict ``{j: ((k, c), ...)}`` with a
key only for each nonzero product b_i b_j, ``mult_by_right[j]`` is
``{i: ((k, c), ...)}`` for the nonzero products b_i b_j, ``comult_nz[k]`` the
terms of Delta(b_k) and ``antipode_nz[j]`` those of S(b_j); ``generating_rows``
is a generating set of the product.  They take O(d + nnz) memory.  A view of
H* is a view of ``H.dual``: ``H.dual.comult_nz[k]`` lists the products of H
with a b_k term, and ``H.dual.generating_rows`` generates H*'s product.

There are two product loops, :meth:`HopfData.multiply` and
``integrals._times_basis`` (b_i x or x b_i), and one hit loop
(:func:`hit_act_dual_on_alg`).  Every operation on H* is the operation on the
cached dual algebra ``H.dual`` (built once by :func:`dualize`, with
``H.dual.dual is H``): convolution is ``H.dual.multiply``, the action of H on
H* is the dual action of H** = H on H*, and S* is ``H.dual.apply_antipode``.

:func:`check_axioms` lives in :mod:`hopfkit.axioms` and is re-exported here.
It is exact, and its cost follows the nonzero entries, not d: each loop visits
only the basis tuples on which a side of its identity can be nonzero, and
``assoc``, ``coassoc`` and ``comult-alg-map`` visit only the rows of a
generating set, which proves the identity on all of H; only a failure there
is swept again over every row, to name the first witness.
:func:`parse_hopf` and :func:`format_hopf` cost O(1) per entry: each distinct
scalar literal is parsed, or rendered, once per call.
Operations are pure functions and never modify their inputs.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Mapping, Sequence

from .axioms import _acc_add, _acc_equal, _generating_rows, check_axioms
from .errors import ParseError, header_count
from .linalg import Vector
from .scalars import MAX_CYCLOTOMIC_ORDER, CycScalar, ONE, ZERO, as_scalar, format_scalar, parse_scalar


def format_vector(v: Sequence[CycScalar]) -> str:
    if isinstance(v, Vector):  # each support entry formatted once, "0" everywhere else
        cells = ["0"] * v.dim
        for i, x in v.nz.items():
            cells[i] = format_scalar(x)
    else:
        cells = [format_scalar(as_scalar(e)) for e in v]
    return "(" + ", ".join(cells) + ")"


_ONE_KEY = ONE.key()


def _sparse(entries: Mapping, arity: int, dim: int, what: str, order: int) -> dict:
    """Index-ordered copy of ``entries`` with scalar values, of orders dividing
    ``order``, and zeros dropped.  The keys are checked in bulk before sorting;
    only a failure runs the per-key loop, which names the first bad key."""
    flat = list(chain.from_iterable(entries)) if set(map(type, entries)) <= {tuple} else None
    if flat is None or set(map(len, entries)) - {arity} or set(map(type, flat)) - {int} or (
            flat and (min(flat) < 0 or max(flat) >= dim)):
        for key in entries:
            if len(key) != arity or any(type(i) is not int or not 0 <= i < dim for i in key):
                raise ValueError(f"bad {what} key {key!r}: need {arity} indices in 0..{dim - 1}")
    out = {}
    for key in sorted(entries):
        c = entries[key]
        c = c if type(c) is CycScalar else as_scalar(c)
        if c is ONE or c.key() == _ONE_KEY:
            out[key] = ONE  # the shared ONE lets the contractions skip unit factors by identity
        elif c:
            if order % c.order:
                raise ValueError(f"{what} entry {key!r} has order {c.order}, "
                                 f"which does not divide cyclotomic_order {order}")
            out[key] = c
    return out


class HopfData:
    """Structure-constant data for a Hopf algebra over Q(zeta_N).

    ``mult`` and ``comult`` map (i, j, k) and ``antipode`` maps (i, j) to
    scalars (ints, Fractions or CycScalars); omitted entries are zero.
    ``unit`` and ``counit`` are length-``dim`` sequences, stored as Vectors.
    The constructor is the one place that validates and canonicalises;
    :func:`dualize` reuses its output as is.
    """

    def __init__(self, name: str, dim: int, mult: Mapping, unit: Sequence, comult: Mapping,
                 counit: Sequence, antipode: Mapping, cyclotomic_order: int = 1):
        if type(dim) is not int or dim < 1:
            raise ValueError("dim must be an int >= 1")
        if type(cyclotomic_order) is not int or not 1 <= cyclotomic_order <= MAX_CYCLOTOMIC_ORDER:
            raise ValueError(f"cyclotomic_order must be an int in 1..{MAX_CYCLOTOMIC_ORDER}")
        self.name = name
        self.dim = dim
        self.cyclotomic_order = cyclotomic_order
        self.mult = _sparse(mult, 3, dim, "multiplication", cyclotomic_order)
        self.comult = _sparse(comult, 3, dim, "comultiplication", cyclotomic_order)
        self.antipode = _sparse(antipode, 2, dim, "antipode", cyclotomic_order)
        self.unit = Vector.of(unit)
        self.counit = Vector.of(counit)
        if len(self.unit) != dim or len(self.counit) != dim:
            raise ValueError("dimension mismatch in unit/counit vector")
        for what, v in (("unit", self.unit), ("counit", self.counit)):
            _sparse({(k,): c for k, c in v.nz.items()}, 1, dim, what, cyclotomic_order)

    # -- cached bucketed views ------------------------------------------------

    @cached_property
    def mult_nz(self) -> list[dict[int, tuple[tuple[int, CycScalar], ...]]]:
        """mult_nz[i] = {j: the (k, c) with b_i b_j = sum c b_k}, holding only
        the nonzero products, in index order."""
        rows: list[dict[int, list]] = [{} for _ in range(self.dim)]
        for (i, j, k), c in self.mult.items():
            rows[i].setdefault(j, []).append((k, c))
        return [{j: tuple(terms) for j, terms in row.items()} for row in rows]

    @cached_property
    def mult_by_right(self) -> list[dict[int, tuple[tuple[int, CycScalar], ...]]]:
        """mult_by_right[j] = {i: the (k, c) with b_i b_j = sum c b_k}, holding
        only the nonzero products."""
        cols: list[dict[int, tuple]] = [{} for _ in range(self.dim)]
        for i, row in enumerate(self.mult_nz):
            for j, terms in row.items():
                cols[j][i] = terms
        return cols

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

    @cached_property
    def generating_rows(self) -> list[int]:
        """Generating rows of the product (``axioms._generating_rows``)."""
        return _generating_rows(self.dim, self.mult)

    @property
    def dual(self) -> "HopfData":
        """The dual Hopf algebra H*, built once; ``H.dual.dual is H``.  H* holds H
        weakly, so no reference cycle keeps the pair alive once H is dropped."""
        link = self.__dict__.get("_dual")
        dual = link() if isinstance(link, weakref.ref) else link
        if dual is None:
            dual = dualize(self)
            dual._dual, self._dual = weakref.ref(self), dual
        return dual

    # -- element-level helpers -------------------------------------------------

    def multiply(self, x: Vector, y: Vector) -> Vector:
        """x y, from the stored products b_i b_j of the support pairs (i, j)."""
        acc: dict[int, CycScalar] = {}
        ynz = y.nz
        for i, xi in x.nz.items():
            row = self.mult_nz[i]
            for j in row.keys() & ynz.keys():  # walks the smaller of the two
                f = xi * ynz[j]
                for k, c in row[j]:
                    t = f if c is ONE else f * c
                    cur = acc.get(k)
                    acc[k] = t if cur is None else cur + t
        return Vector(self.dim, {k: x for k, x in acc.items() if x})

    def apply_antipode(self, x: Vector) -> Vector:
        terms = ((i, xj * c) for j, xj in x.nz.items() for i, c in self.antipode_nz[j])
        return Vector.from_terms(self.dim, terms)

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
# the evaluation pairing, convolution and the two hit actions; H* operations run on H.dual


def pair(phi: Vector, h: Vector) -> CycScalar:
    """<phi, h>: coordinate dot product of a dual vector with an algebra vector."""
    if len(phi) != len(h):
        raise ValueError("dimension mismatch in pairing")
    small, big = (phi.nz, h.nz) if len(phi.nz) <= len(h.nz) else (h.nz, phi.nz)
    acc = ZERO
    for i, p in small.items():
        x = big.get(i)
        if x is not None:
            acc = acc + p * x
    return acc


def regular_character(H: HopfData) -> Vector:
    """chi_H in H*: the traces tr L_{b_a} = sum_k mult[a, k, k] of left
    multiplication by each basis vector."""
    return Vector.from_terms(H.dim, ((a, c) for (a, k, r), c in H.mult.items() if k == r))


def convolve(phi: Vector, psi: Vector, H: HopfData) -> Vector:
    """Product in H*: (phi psi)(h) = sum phi(h_(1)) psi(h_(2))."""
    if len(phi) != H.dim or len(psi) != H.dim:
        raise ValueError("dimension mismatch in convolution")
    return H.dual.multiply(phi, psi)


def commutes_with_basis(x: Vector, A: HopfData) -> bool:
    """Whether x commutes with every basis vector b_t of the algebra A (H, or
    ``H.dual`` for H* under convolution): x b_t - b_t x = sum_i x_i (b_i b_t -
    b_t b_i) must vanish for every t, so only the products of the support of
    x are read, from the rows and the columns of A's products."""
    left: dict[tuple[int, int], CycScalar] = {}
    right: dict[tuple[int, int], CycScalar] = {}
    for i, xi in x.nz.items():
        for acc, products in ((left, A.mult_nz[i]), (right, A.mult_by_right[i])):
            for t, terms in products.items():
                for k, c in terms:
                    _acc_add(acc, (t, k), xi if c is ONE else c * xi)
    return _acc_equal(left, right)


def hit_act_alg_on_dual(h: Vector, phi: Vector, H: HopfData) -> Vector:
    """The action of H on H* defined by <h phi, h'> = <phi, h' h>: the dual
    action of H = (H*)* on H*."""
    return hit_act_dual_on_alg(h, phi, H.dual)


def hit_act_dual_on_alg(phi: Vector, h: Vector, H: HopfData) -> Vector:
    """The dual action of H* on H: phi h = sum h_(1) <phi, h_(2)>; it satisfies
    <psi, phi h> = <psi phi, h> for every psi."""
    if len(h) != H.dim or len(phi) != H.dim:
        raise ValueError("dimension mismatch in hit action")
    pnz = phi.nz
    return Vector.from_terms(H.dim, (
        (a, hk * c * pnz[b]) for k, hk in h.nz.items() for a, b, c in H.comult_nz[k] if b in pnz
    ))


# ---------------------------------------------------------------------------
# dualization


def dualize(H: HopfData) -> HopfData:
    """The dual Hopf algebra on the dual basis.

    With this module's index conventions the dual multiplication tensor is the
    comultiplication tensor unchanged (and vice versa), the unit and counit
    vectors swap, and the antipode transposes; dualize(dualize(H)) == H
    entry-for-entry.  H's fields are already validated and canonical, and a
    swap plus a sorted transpose keeps them canonical, so H* is assembled
    without the constructor: its ``mult`` and ``comult`` are H's ``comult`` and
    ``mult`` dicts themselves, which nothing mutates.
    """
    dual = HopfData.__new__(HopfData)
    vars(dual).update(
        name=f"dual({H.name})",
        dim=H.dim,
        cyclotomic_order=H.cyclotomic_order,
        mult=H.comult,
        comult=H.mult,
        antipode=dict(sorted((((j, i), c) for (i, j), c in H.antipode.items()), key=itemgetter(0))),
        unit=H.counit,
        counit=H.unit,
    )
    return dual


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
    # each literal text is parsed once; the order is fixed once sections
    # start, and CycScalar values are immutable, so entries may share them
    literals: dict[str, CycScalar] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
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
            dim = header_count(tokens, lineno)
            continue
        if head == "cyclotomic":
            order = header_count(tokens, lineno)
            if order > MAX_CYCLOTOMIC_ORDER:
                raise ParseError(f"cyclotomic order {order} exceeds the maximum {MAX_CYCLOTOMIC_ORDER}", lineno)
            continue
        if head in _SECTIONS:
            if len(tokens) != 1:
                raise ParseError(f"unexpected tokens after section name {head}", lineno)
            section, n_idx, target = head, index_counts[head], entries[head]
            continue
        if section is None:
            raise ParseError(f"unexpected line outside any section: {line!r}", lineno)
        if dim is None:
            raise ParseError("dim must be declared before section data", lineno)
        if len(tokens) <= n_idx:
            raise ParseError(f"{section} lines need {n_idx} indices and a scalar", lineno)
        try:
            idx = tuple(map(int, tokens[:n_idx]))
        except ValueError:
            raise ParseError(f"bad index in {section} line", lineno) from None
        if min(idx) < 0 or max(idx) >= dim:
            raise ParseError(f"index out of range 0..{dim - 1}", lineno)
        # a literal with inner spaces (``1/2*z - 1``) is the rest of the line
        scalar_text = tokens[n_idx] if len(tokens) == n_idx + 1 else line.split(None, n_idx)[n_idx]
        value = literals.get(scalar_text)
        if value is None:
            try:
                value = parse_scalar(scalar_text, order)
            except ParseError as exc:
                raise ParseError(f"bad scalar literal: {exc}", lineno) from None
            literals[scalar_text] = value
        if idx in target:
            raise ParseError(f"duplicate {section} entry {idx}", lineno)
        target[idx] = value

    if name is None:
        raise ParseError("missing 'hopf <name>' header")
    if dim is None:
        raise ParseError("missing 'dim <d>' header")
    if dim > len(entries["MULT"]):
        # 1 b_k = b_k: every basis index is the output of some MULT entry
        raise ParseError(f"dim {dim} exceeds the number of MULT entries ({len(entries['MULT'])})")

    unit = Vector(dim, {k: v for (k,), v in entries["UNIT"].items() if v})
    counit = Vector(dim, {k: v for (k,), v in entries["COUNIT"].items() if v})
    return HopfData(name, dim, entries["MULT"], unit, entries["COMULT"], counit,
                    entries["ANTIPODE"], cyclotomic_order=order)


def format_hopf(H: HopfData) -> str:
    """Render to the `.hopf` text format; round-trips exactly."""
    order = H.cyclotomic_order
    rendered: dict[tuple, str] = {}  # each distinct value is rendered once

    def lit(c: CycScalar) -> str:
        text = rendered.get(c.key())
        if text is None:
            # a rational value prints at order 1 whatever the file's order
            lifted = c if c.order in (1, order) else CycScalar.from_coords(order, c.lift(order))
            text = rendered[c.key()] = format_scalar(lifted)
        return text

    lines = [f"hopf {H.name}", f"dim {H.dim}", f"cyclotomic {order}"]
    for section, entries in (
        ("MULT", H.mult.items()),
        ("COMULT", H.comult.items()),
        ("UNIT", (((k,), c) for k, c in H.unit.nz.items())),
        ("COUNIT", (((k,), c) for k, c in H.counit.nz.items())),
        ("ANTIPODE", H.antipode.items()),
    ):
        lines.append(section)
        for idx, c in sorted(entries, key=itemgetter(0)):
            if c:
                lines.append(f"{' '.join(map(str, idx))} {lit(c)}")
    return "\n".join(lines) + "\n"
