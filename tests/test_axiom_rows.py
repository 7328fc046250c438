"""The generating rows behind ``assoc``, ``coassoc`` and ``comult-alg-map``.

``check_axioms`` visits only the rows of an algebra generating set S (of H for
``assoc`` and ``comult-alg-map``, of H* for ``coassoc``) and sweeps every row
only when that fails.  These tests check that S generates, pin its size, and
compare every item, witness included, with the same check forced to all rows.
``comult-alg-map`` is also compared with an all-pairs reference written here,
and its work is pinned by call counts.
"""

from fractions import Fraction
from functools import cache
from unittest import mock

import pytest
from conftest import perturbed
from hypothesis import Phase, given, settings, strategies as st
from test_properties import _HILBERT_8, _rebase

from hopfkit import HopfData, builtin_group, check_axioms, drinfeld_double, dualize, group_algebra, tensor_product
from hopfkit.axioms import _comult_alg_map, _generating_rows
from hopfkit.scalars import CycScalar, ZERO


@cache
def _tensor():
    # the algebra of the certify-d64 benchmark workload
    return tensor_product(drinfeld_double(builtin_group("C2xC2")),
                          dualize(drinfeld_double(builtin_group("C2"))))


def _algebra(name, examples):
    if name == "tensor":
        return _tensor()
    if name == "D(S3)*":
        return examples["D(S3)"].dual
    return examples[name]


def _closure(rows, entries):
    """The indices reached from ``rows`` by the single-term products b_s b_r = c
    b_k with s in rows and r reached, as a plain fixpoint."""
    outputs: dict[tuple[int, int], list[int]] = {}
    for i, j, k in entries:
        outputs.setdefault((i, j), []).append(k)
    single = [(i, j, ks[0]) for (i, j), ks in outputs.items() if len(ks) == 1 and i in rows]
    reached = set(rows)
    while True:
        new = {k for i, j, k in single if j in reached} - reached
        if not new:
            return reached
        reached |= new


def _items(H):
    return [(item.id, item.passed, item.witness) for item in check_axioms(H).items]


def _items_on_every_row(H):
    # HopfData caches its generating rows, so the property is replaced; the
    # check reads H*'s rows off H.dual, which is a HopfData too
    every_row = property(lambda self: list(range(self.dim)))
    with mock.patch.object(HopfData, "generating_rows", every_row):
        return _items(H)


def test_generating_rows_reach_every_index(examples):
    for H in (*examples.values(), _tensor()):
        for side in (H, dualize(H)):
            rows = _generating_rows(side.dim, side.mult)
            assert _closure(rows, side.mult) == set(range(side.dim)), side.name


@pytest.mark.parametrize("name,size,dual_size", [("tensor", 24, 24), ("D(S3)", 14, 12), ("D(S3)*", 12, 14)])
def test_generating_rows_sizes(name, size, dual_size, examples):
    H = _algebra(name, examples)
    assert len(_generating_rows(H.dim, H.mult)) == size
    assert len(_generating_rows(H.dim, H.comult)) == dual_size


def test_dense_basis_takes_every_row():
    # no product of the Hilbert-rebased kQ8 is a single term
    H = _rebase(group_algebra(builtin_group("Q8")), _HILBERT_8)
    assert _generating_rows(H.dim, H.mult) == list(range(H.dim))
    assert _generating_rows(H.dim, H.comult) == list(range(H.dim))


_NAMES = ("kS3", "k^S3", "D(C2)", "D(S3)", "D(S3)*", "tensor")


@pytest.mark.parametrize("name", _NAMES)
def test_perturbation_outside_the_generating_rows(name, examples):
    # an entry changed on a row outside S (of H for mult, of H* for comult):
    # the rows of S still see a failure, and the rerun names the first one
    H = _algebra(name, examples)
    changed = 0
    for section in ("mult", "comult"):
        entries = getattr(H, section)
        rows = _generating_rows(H.dim, entries)
        key = next((key for key in sorted(entries) if key[0] not in rows), None)
        if key is None:
            continue
        broken = perturbed(H, **{section: {key: entries[key] + 1}})
        got = _items(broken)
        assert got == _items_on_every_row(broken)
        assert not all(passed for _, passed, _ in got)
        changed += 1
    assert changed


@st.composite
def _perturbation(draw, H, sections=("mult", "comult", "antipode")):
    """One section of H changed: a stored entry changed, an entry added, or a
    second term added to a product, coproduct or antipode image."""
    section = draw(st.sampled_from(sections))
    entries = getattr(H, section)
    key = draw(st.sampled_from(sorted(entries)))
    kind = draw(st.sampled_from(("change", "add", "second term")))
    if kind == "change":
        return section, {key: entries[key] + draw(st.sampled_from((1, -1, Fraction(1, 2))))}
    if kind == "add":
        return section, {tuple(draw(st.integers(0, H.dim - 1)) for _ in key): 1}
    pos = 0 if section == "antipode" else 2  # the output index of the entry
    free = [k for k in range(H.dim) if key[:pos] + (k,) + key[pos + 1:] not in entries]
    return section, {key[:pos] + (draw(st.sampled_from(free)),) + key[pos + 1:]: draw(st.sampled_from((1, -1)))}


@settings(max_examples=120, deadline=None, derandomize=True, database=None, phases=[Phase.generate])
@given(data=st.data())
def test_generating_rows_give_the_items_of_every_row(data, examples):
    H = _algebra(data.draw(st.sampled_from(_NAMES)), examples)
    section, change = data.draw(_perturbation(H))
    broken = perturbed(H, **{section: change})
    assert _items(broken) == _items_on_every_row(broken)


@pytest.mark.parametrize("name", ["tensor", "D(S3)*"])
def test_every_row_differential_reaches_both_sides(name, examples, monkeypatch):
    # H*'s rows are H.dual's generating_rows, so the one patch of
    # _items_on_every_row forces coassoc onto every row as well as assoc and
    # comult-alg-map; without it each loop keeps its generating rows
    import hopfkit.axioms as axioms

    H = _algebra(name, examples)
    seen = {}
    for loop in ("_assoc", "_coassoc", "_comult_alg_map"):
        original = getattr(axioms, loop)

        def recorded(H, rows, loop=loop, original=original):
            seen[loop] = list(rows)
            return original(H, rows)

        monkeypatch.setattr(axioms, loop, recorded)
    assert _items(H) == _items_on_every_row(H)
    assert seen == dict.fromkeys(seen, list(range(H.dim))) and len(seen) == 3
    _items(H)
    assert seen == {"_assoc": H.generating_rows, "_coassoc": H.dual.generating_rows,
                    "_comult_alg_map": H.generating_rows}
    assert len(H.generating_rows) < H.dim and len(H.dual.generating_rows) < H.dim


def _comult_alg_map_calls(H, monkeypatch):
    """check_axioms(H)'s items, and its _comult_alg_map calls as (side, rows),
    side "H" or "H*"."""
    import hopfkit.axioms as axioms

    calls = []
    original = axioms._comult_alg_map

    def recorded(side, rows):
        calls.append(("H" if side is H else "H*" if side is H.dual else side, list(rows)))
        return original(side, rows)

    monkeypatch.setattr(axioms, "_comult_alg_map", recorded)
    items = _items(H)
    monkeypatch.undo()
    return items, calls


@pytest.mark.parametrize("name,side", [("kS3", "H"), ("k^S3", "H*"), ("D(C2)", "H"), ("D(S3)", "H*"),
                                       ("D(S3)*", "H"), ("tensor", "H")])
def test_comult_alg_map_runs_on_the_side_with_fewer_rows(name, side, examples, monkeypatch):
    # H*'s generating rows once coassoc passed, when they are fewer than H's;
    # on a tie (D(C2), the tensor) the loop stays on H
    H = _algebra(name, examples)
    items, calls = _comult_alg_map_calls(H, monkeypatch)
    assert calls == [(side, (H if side == "H" else H.dual).generating_rows)]
    assert items == _items_on_every_row(H)


_SWITCHED = ("k^S3", "D(S3)")


@settings(max_examples=60, deadline=None, derandomize=True, database=None, phases=[Phase.generate])
@given(data=st.data())
def test_switched_side_gives_the_items_of_every_row(data, examples):
    # a change to H's mult or antipode leaves coassoc, so the loop runs on H*;
    # where it fails there, the full sweep on H names the witness
    H = _algebra(data.draw(st.sampled_from(_SWITCHED)), examples)
    section, change = data.draw(_perturbation(H, ("mult", "antipode")))
    broken = perturbed(H, **{section: change})
    assert _items(broken) == _items_on_every_row(broken)
    _assert_comult_alg_map_matches_the_reference(broken)


@pytest.mark.parametrize("name", _SWITCHED)
def test_switched_side_failure_reruns_every_row_of_h(name, examples, monkeypatch):
    # each stored product changed in turn: the H* side sees every failure, and
    # the rerun over every row of H names the all-pairs reference's witness
    H = _algebra(name, examples)
    failed = 0
    for key in sorted(H.mult)[::7]:
        broken = perturbed(H, mult={key: H.mult[key] + 1})
        items, calls = _comult_alg_map_calls(broken, monkeypatch)
        assert calls[0] == ("H*", broken.dual.generating_rows)
        passed, witness = next((passed, witness) for id_, passed, witness in items if id_ == "comult-alg-map")
        if not passed:
            failed += 1
            assert calls[1:] == [("H", list(range(H.dim)))]
            assert witness == _reference_witnesses(broken)[1]
        assert items == _items_on_every_row(broken)
    assert failed


# -- comult-alg-map against an all-pairs reference ------------------------------


@cache
def _dense_q8():
    # no product of the Hilbert-rebased kQ8 is a single term: every row generates
    return _rebase(group_algebra(builtin_group("Q8")), _HILBERT_8)


def _scaled(H, lam):
    """H in the basis b'_i = lam[i] b_i: still a Hopf algebra, and with
    cyclotomic lam its constants are cyclotomic."""
    inv = [1 / x for x in lam]
    return HopfData(
        f"{H.name}-scaled", H.dim,
        {(i, j, k): c * lam[i] * lam[j] * inv[k] for (i, j, k), c in H.mult.items()},
        [H.unit[k] * inv[k] for k in range(H.dim)],
        {(i, j, k): c * lam[k] * inv[i] * inv[j] for (i, j, k), c in H.comult.items()},
        [H.counit[k] * lam[k] for k in range(H.dim)],
        {(i, j): c * lam[j] * inv[i] for (i, j), c in H.antipode.items()},
        cyclotomic_order=12,
    )


@cache
def _cyclotomic_d_c2():
    H = _scaled(drinfeld_double(builtin_group("C2")), [CycScalar.zeta(12, k) + k for k in range(4)])
    assert any(c.order == 12 for c in (*H.mult.values(), *H.comult.values()))
    return H


def _sides_of_first_failure(H):
    """The first (i, j) in index order with Delta(b_i b_j) != Delta(b_i)
    Delta(b_j), with both sides, or None.  Every pair is computed from plain
    dicts over ``H.mult`` and ``H.comult``, with no pruning: the right side
    sums D_i[a1, b1] D_j[a2, b2] m[a1, a2, p] m[b1, b2, q] over a1 once per i,
    then over a2 and over (b1, b2) for each j."""
    d = H.dim
    m: dict = {}  # m[i, j] = [(k, c)]
    for (i, j, k), c in H.mult.items():
        m.setdefault((i, j), []).append((k, c))
    delta: list = [[] for _ in range(d)]  # delta[k] = [(a, b, c)]
    for (a, b, k), c in H.comult.items():
        delta[k].append((a, b, c))

    def add(acc, key, value):
        acc[key] = acc.get(key, ZERO) + value

    for i in range(d):
        left: dict = {}  # left[a2][b1, p] = sum_a1 D_i[a1, b1] m[a1, a2, p]
        for a1, b1, c1 in delta[i]:
            for a2 in range(d):
                for p, cp in m.get((a1, a2), ()):
                    add(left.setdefault(a2, {}), (b1, p), c1 * cp)
        for j in range(d):
            lhs: dict = {}
            for k, c in m.get((i, j), ()):
                for a, b, c2 in delta[k]:
                    add(lhs, (a, b), c * c2)
            mid: dict = {}  # mid[p, b1, b2] = sum_a2 left[a2][b1, p] D_j[a2, b2]
            for a2, b2, c2 in delta[j]:
                for (b1, p), x in left.get(a2, {}).items():
                    add(mid, (p, b1, b2), x * c2)
            rhs: dict = {}
            for (p, b1, b2), y in mid.items():
                for q, cq in m.get((b1, b2), ()):
                    add(rhs, (p, q), y * cq)
            lhs = {key: v for key, v in lhs.items() if v}
            rhs = {key: v for key, v in rhs.items() if v}
            if lhs != rhs:
                return i, j, lhs, rhs
    return None


def _reference_witnesses(H):
    """The all-pairs reference's witness for the pair sweep (the first failing
    pair, or '') and for the comult-alg-map item, which adds Delta(1) != 1 (x) 1."""
    first = _sides_of_first_failure(H)
    if first:
        i, j = first[:2]
        witness = f"Delta(b{i} b{j}) != Delta(b{i}) Delta(b{j})"
        return witness, witness
    lhs: dict = {}
    for (a, b, k), c in H.comult.items():
        lhs[a, b] = lhs.get((a, b), ZERO) + H.unit[k] * c
    rhs = {(a, b): H.unit[a] * H.unit[b] for a in range(H.dim) for b in range(H.dim)}
    same = all(lhs.get(key, ZERO) == rhs.get(key, ZERO) for key in lhs.keys() | rhs.keys())
    return "", "" if same else "Delta(1) != 1 (x) 1"


def _assert_comult_alg_map_matches_the_reference(H):
    sweep, want = _reference_witnesses(H)
    assert _comult_alg_map(H, range(H.dim)) == sweep
    item = next(item for item in check_axioms(H).items if item.id == "comult-alg-map")
    assert (item.passed, item.witness) == (not want, want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None, phases=[Phase.generate])
@given(data=st.data())
def test_comult_alg_map_matches_the_all_pairs_reference(data, examples):
    H = _algebra(data.draw(st.sampled_from(_NAMES)), examples)
    section, change = data.draw(_perturbation(H))
    _assert_comult_alg_map_matches_the_reference(perturbed(H, **{section: change}))


@settings(max_examples=20, deadline=None, derandomize=True, database=None, phases=[Phase.generate])
@given(data=st.data())
def test_comult_alg_map_matches_the_reference_on_cyclotomic_constants(data):
    H = _cyclotomic_d_c2()
    section, change = data.draw(_perturbation(H))
    z = data.draw(st.sampled_from((1, CycScalar.zeta(12), CycScalar.zeta(12, 5) - 2)))
    _assert_comult_alg_map_matches_the_reference(
        perturbed(H, **{section: {key: value * z for key, value in change.items()}}))


def test_comult_alg_map_matches_the_reference_on_passing_inputs(examples):
    for H in (_cyclotomic_d_c2(), examples["D(S3)"], _tensor()):
        assert _sides_of_first_failure(H) is None, H.name
        _assert_comult_alg_map_matches_the_reference(H)


@pytest.mark.parametrize("name,section,change,pair,side", [
    # Delta(b_1) = 0 in kS3: Delta(b_1 b_1) != 0 = Delta(b_1) Delta(b_1)
    ("kS3", "comult", {(1, 1, 1): 0}, (1, 1), "left"),
    # Delta(delta_1) gains delta_0 (x) delta_0 in k^S3: delta_0 delta_1 = 0, yet
    # Delta(delta_0) Delta(delta_1) has the term delta_0 (x) delta_0
    ("k^S3", "comult", {(0, 0, 1): 1}, (0, 1), "right"),
])
def test_first_failure_with_one_side_zero(name, section, change, pair, side, examples):
    broken = perturbed(examples[name], **{section: change})
    i, j, lhs, rhs = _sides_of_first_failure(broken)
    assert (i, j) == pair
    assert (bool(lhs), bool(rhs)) == (side == "left", side == "right")
    _assert_comult_alg_map_matches_the_reference(broken)


def _counted_comult_alg_map(H, monkeypatch):
    """_comult_alg_map(H, H.generating_rows), with its _acc_equal and _acc_add calls."""
    import hopfkit.axioms as axioms

    calls = {"_acc_equal": 0, "_acc_add": 0}
    for fn in calls:
        def counted(*args, fn=fn, original=getattr(axioms, fn)):
            calls[fn] += 1
            return original(*args)

        monkeypatch.setattr(axioms, fn, counted)
    failure = _comult_alg_map(H, H.generating_rows)
    monkeypatch.undo()
    return failure, calls


@pytest.mark.parametrize("name,compared,accumulated", [("tensor", 192, 6144), ("D(S3)", 84, 2016)])
def test_comult_alg_map_compares_only_pairs_with_a_nonzero_side(name, compared, accumulated, examples,
                                                                monkeypatch):
    # work counts, not timings: _acc_equal runs once per pair (i, j) where a
    # side can be nonzero, b_i b_j != 0 or a gathered term of Delta(b_i) Delta(b_j)
    H = _algebra(name, examples)
    assert _counted_comult_alg_map(H, monkeypatch) == ("", {"_acc_equal": compared, "_acc_add": accumulated})


def test_dense_comult_alg_map_keeps_its_work_and_matches_the_reference(monkeypatch):
    # every row of the dense kQ8 is a generating row and every pair has a
    # nonzero side: the staged contraction stays O(d^6), 589 824 accumulations
    H = _dense_q8()
    assert H.generating_rows == list(range(H.dim))
    assert _reference_witnesses(H) == ("", "")
    assert _counted_comult_alg_map(H, monkeypatch) == ("", {"_acc_equal": 64, "_acc_add": 589_824})
    item = next(item for item in check_axioms(H).items if item.id == "comult-alg-map")
    assert (item.passed, item.witness) == (True, "")
