"""Which failure `check_axioms` reports on perturbed structure constants.

Each axiom loop stops at its first failing basis tuple, so the witness string
pins the loop's iteration order: a loop that is reordered, or pruned by a
skip that is not exact, reports another tuple or none.  For each algebra one
entry of ``mult``, ``comult`` and ``antipode`` is changed (the middle stored
key gets its value plus 1) and, separately, one is added (the first absent key
after it, in index order, gets 1); the full item list of each report is
pinned.  The witnesses were recorded from the implementation that visited
every basis tuple, before the loops were driven by the stored entries.
"""

from itertools import product

import pytest
from conftest import perturbed

from hopfkit import builtin_group, check_axioms, drinfeld_double, dualize, tensor_product

AXIOM_IDS = ("assoc", "unit", "coassoc", "counit", "comult-alg-map", "counit-alg-map",
             "antipode-left", "antipode-right")

# (algebra, perturbation) -> {failing item id: witness}; every other item passes
WITNESSES = {
    ("kS3", "mult-changed"): {
        "assoc": "(b1 b3) b0 != b1 (b3 b0)",
        "unit": "unit fails on b3",
        "comult-alg-map": "Delta(b3 b0) != Delta(b3) Delta(b0)",
        "counit-alg-map": "eps(b3 b0) != eps(b3) eps(b0)",
    },
    ("kS3", "mult-added"): {
        "assoc": "(b1 b3) b0 != b1 (b3 b0)",
        "unit": "unit fails on b3",
        "comult-alg-map": "Delta(b3 b0) != Delta(b3) Delta(b0)",
        "counit-alg-map": "eps(b3 b0) != eps(b3) eps(b0)",
    },
    ("kS3", "comult-changed"): {
        "counit": "counit fails on b3",
        "comult-alg-map": "Delta(b1 b3) != Delta(b1) Delta(b3)",
        "antipode-left": "sum S(b3_(1)) b3_(2) != eps(b3) 1",
        "antipode-right": "sum b3_(1) S(b3_(2)) != eps(b3) 1",
    },
    ("kS3", "comult-added"): {
        "coassoc": "coassociativity fails on b4",
        "counit": "counit fails on b4",
        "comult-alg-map": "Delta(b1 b3) != Delta(b1) Delta(b3)",
        "antipode-left": "sum S(b4_(1)) b4_(2) != eps(b4) 1",
        "antipode-right": "sum b4_(1) S(b4_(2)) != eps(b4) 1",
    },
    ("kS3", "antipode-changed"): {
        "antipode-left": "sum S(b3_(1)) b3_(2) != eps(b3) 1",
        "antipode-right": "sum b3_(1) S(b3_(2)) != eps(b3) 1",
    },
    ("kS3", "antipode-added"): {
        "antipode-left": "sum S(b4_(1)) b4_(2) != eps(b4) 1",
        "antipode-right": "sum b4_(1) S(b4_(2)) != eps(b4) 1",
    },
    ("k^S3", "mult-changed"): {
        "unit": "unit fails on b3",
        "comult-alg-map": "Delta(b0 b0) != Delta(b0) Delta(b0)",
        "antipode-left": "sum S(b0_(1)) b0_(2) != eps(b0) 1",
        "antipode-right": "sum b0_(1) S(b0_(2)) != eps(b0) 1",
    },
    ("k^S3", "mult-added"): {
        "assoc": "(b3 b3) b4 != b3 (b3 b4)",
        "unit": "unit fails on b3",
        "comult-alg-map": "Delta(b0 b0) != Delta(b0) Delta(b0)",
        "antipode-left": "sum S(b0_(1)) b0_(2) != eps(b0) 1",
        "antipode-right": "sum b0_(1) S(b0_(2)) != eps(b0) 1",
    },
    ("k^S3", "comult-changed"): {
        "coassoc": "coassociativity fails on b0",
        "counit": "counit fails on b3",
        "comult-alg-map": "Delta(b3 b3) != Delta(b3) Delta(b3)",
    },
    ("k^S3", "comult-added"): {
        "coassoc": "coassociativity fails on b0",
        "counit": "counit fails on b4",
        "comult-alg-map": "Delta(b3 b4) != Delta(b3) Delta(b4)",
    },
    ("k^S3", "antipode-changed"): {
        "antipode-left": "sum S(b0_(1)) b0_(2) != eps(b0) 1",
        "antipode-right": "sum b0_(1) S(b0_(2)) != eps(b0) 1",
    },
    ("k^S3", "antipode-added"): {
        "antipode-left": "sum S(b1_(1)) b1_(2) != eps(b1) 1",
        "antipode-right": "sum b2_(1) S(b2_(2)) != eps(b2) 1",
    },
    ("D(C2)", "mult-changed"): {
        "assoc": "(b2 b2) b3 != b2 (b2 b3)",
        "unit": "unit fails on b2",
        "comult-alg-map": "Delta(b0 b0) != Delta(b0) Delta(b0)",
        "antipode-left": "sum S(b0_(1)) b0_(2) != eps(b0) 1",
        "antipode-right": "sum b0_(1) S(b0_(2)) != eps(b0) 1",
    },
    ("D(C2)", "mult-added"): {
        "assoc": "(b2 b2) b3 != b2 (b2 b3)",
        "unit": "unit fails on b2",
        "comult-alg-map": "Delta(b0 b0) != Delta(b0) Delta(b0)",
        "antipode-left": "sum S(b0_(1)) b0_(2) != eps(b0) 1",
        "antipode-right": "sum b0_(1) S(b0_(2)) != eps(b0) 1",
    },
    ("D(C2)", "comult-changed"): {
        "coassoc": "coassociativity fails on b0",
        "counit": "counit fails on b2",
        "comult-alg-map": "Delta(b2 b2) != Delta(b2) Delta(b2)",
    },
    ("D(C2)", "comult-added"): {
        "coassoc": "coassociativity fails on b1",
        "counit": "counit fails on b3",
        "comult-alg-map": "Delta(b3 b3) != Delta(b3) Delta(b3)",
    },
    ("D(C2)", "antipode-changed"): {
        "antipode-left": "sum S(b0_(1)) b0_(2) != eps(b0) 1",
        "antipode-right": "sum b0_(1) S(b0_(2)) != eps(b0) 1",
    },
    ("D(C2)", "antipode-added"): {
        "antipode-left": "sum S(b1_(1)) b1_(2) != eps(b1) 1",
        "antipode-right": "sum b1_(1) S(b1_(2)) != eps(b1) 1",
    },
    ("D(C2xC2)(x)D(C2)*", "mult-changed"): {
        "assoc": "(b32 b32) b34 != b32 (b32 b34)",
        "unit": "unit fails on b32",
        "comult-alg-map": "Delta(b0 b0) != Delta(b0) Delta(b0)",
        "antipode-left": "sum S(b0_(1)) b0_(2) != eps(b0) 1",
        "antipode-right": "sum b0_(1) S(b0_(2)) != eps(b0) 1",
    },
    ("D(C2xC2)(x)D(C2)*", "mult-added"): {
        "assoc": "(b32 b32) b33 != b32 (b32 b33)",
        "unit": "unit fails on b32",
        "comult-alg-map": "Delta(b0 b0) != Delta(b0) Delta(b0)",
        "antipode-left": "sum S(b0_(1)) b0_(2) != eps(b0) 1",
        "antipode-right": "sum b0_(1) S(b0_(2)) != eps(b0) 1",
    },
    ("D(C2xC2)(x)D(C2)*", "comult-changed"): {
        "coassoc": "coassociativity fails on b0",
        "counit": "counit fails on b32",
        "comult-alg-map": "Delta(b32 b32) != Delta(b32) Delta(b32)",
    },
    ("D(C2xC2)(x)D(C2)*", "comult-added"): {
        "coassoc": "coassociativity fails on b0",
        "counit": "counit fails on b33",
        "comult-alg-map": "Delta(b32 b33) != Delta(b32) Delta(b33)",
    },
    ("D(C2xC2)(x)D(C2)*", "antipode-changed"): {
        "antipode-left": "sum S(b0_(1)) b0_(2) != eps(b0) 1",
        "antipode-right": "sum b0_(1) S(b0_(2)) != eps(b0) 1",
    },
    ("D(C2xC2)(x)D(C2)*", "antipode-added"): {
        "antipode-left": "sum S(b1_(1)) b1_(2) != eps(b1) 1",
        "antipode-right": "sum b1_(1) S(b1_(2)) != eps(b1) 1",
    },
}


def _perturbations(H):
    for section in ("mult", "comult", "antipode"):
        entries = getattr(H, section)
        keys = sorted(entries)
        mid = keys[len(keys) // 2]
        added = next(k for k in product(range(H.dim), repeat=len(mid)) if k > mid and k not in entries)
        yield f"{section}-changed", perturbed(H, **{section: {mid: entries[mid] + 1}})
        yield f"{section}-added", perturbed(H, **{section: {added: 1}})


def _algebra(name, examples):
    if name == "D(C2xC2)(x)D(C2)*":
        return tensor_product(drinfeld_double(builtin_group("C2xC2")),
                              dualize(drinfeld_double(builtin_group("C2"))))
    return examples[name]


@pytest.mark.parametrize("name", ["kS3", "k^S3", "D(C2)", "D(C2xC2)(x)D(C2)*"])
def test_perturbed_structure_constants_pin_witnesses(name, examples):
    H = _algebra(name, examples)
    assert check_axioms(H).overall
    for case, broken in _perturbations(H):
        failures = WITNESSES[name, case]
        expected = [(item, item not in failures, failures.get(item, "")) for item in AXIOM_IDS]
        got = [(item.id, item.passed, item.witness) for item in check_axioms(broken).items]
        assert got == expected, case
