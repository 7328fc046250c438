"""The generating rows behind ``assoc``, ``coassoc`` and ``comult-alg-map``.

``check_axioms`` visits only the rows of an algebra generating set S (of H for
``assoc`` and ``comult-alg-map``, of H* for ``coassoc``) and sweeps every row
only when that fails.  These tests check that S generates, pin its size, and
compare every item, witness included, with the same check forced to all rows.
"""

from fractions import Fraction
from functools import cache
from unittest import mock

import pytest
from conftest import perturbed
from hypothesis import Phase, given, settings, strategies as st
from test_properties import _HILBERT_8, _rebase

from hopfkit import HopfData, builtin_group, check_axioms, drinfeld_double, dualize, group_algebra, tensor_product
from hopfkit.axioms import _generating_rows


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
def _perturbation(draw, H):
    """One section of H changed: a stored entry changed, an entry added, or a
    second term added to a product, coproduct or antipode image."""
    section = draw(st.sampled_from(("mult", "comult", "antipode")))
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
