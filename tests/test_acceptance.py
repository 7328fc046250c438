"""Acceptance criteria, one test per criterion, one pass/fail line each.

All equality checks are exact (zero tolerance).  The canonical example list
is: the group algebras of C2, C3, C2xC2, S3, D4, Q8, their function algebras,
D(C2), D(S3), and kS3 (x) k^C2.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal.
"""

import json
import time
from fractions import Fraction

import pytest

from conftest import charpoly, example_algebras, fusion_matrix_rows, pipeline_for

from hopfkit import (
    Poly,
    builtin_grp_text,
    check_axioms,
    cyclotomic_coeffs,
    factor_over_cyclotomic,
    factor_rational,
    is_algebraic_integer,
    is_central_character,
    pair,
    primitive_idempotents,
    verify_lemma1,
)
from hopfkit.characters import central_decomposition, convolution_poly_eval
from hopfkit.cli import main
from hopfkit.linalg import Vector
from hopfkit.scalars import ONE
from hopfkit.wedderburn import _verify_idempotent_system

EXAMPLES = (
    "kC2", "kC3", "kC2xC2", "kS3", "kD4", "kQ8",
    "k^C2", "k^C3", "k^C2xC2", "k^S3", "k^D4", "k^Q8",
    "D(C2)", "D(S3)", "kS3(x)k^C2",
)


def _line(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {label}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def test_criterion_01_axioms():
    worst = 0.0
    ok = True
    for name in EXAMPLES:
        h = example_algebras()[name]
        t0 = time.perf_counter()
        rep = check_axioms(h)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        ok = ok and rep.overall and elapsed < 5.0
    _line(1, "check_axioms passes on all 15 examples, each under 5 s", ok,
          f"slowest {worst:.2f}s")


def test_criterion_02_integrals():
    ok = True
    for name in EXAMPLES:
        h = example_algebras()[name]
        p = pipeline_for(name).integrals
        ok = ok and pair(p.lambda_dual, h.unit) == 1
        ok = ok and pair(p.lambda_dual, p.Lambda) == 1
        ok = ok and pair(h.counit, p.Lambda) == h.dim
        for i in range(h.dim):
            lhs = h.multiply(Vector.unit(h.dim, i), p.Lambda)
            rhs = tuple(h.counit[i] * c for c in p.Lambda)
            ok = ok and lhs == rhs
        if not ok:
            break
    kc2 = example_algebras()["kC2"]
    p = pipeline_for("kC2").integrals
    ok = ok and p.Lambda == (ONE, ONE) and p.lambda_dual == (ONE, 0 * ONE)
    _line(2, "integral normalizations hold on every example; kC2 is Lambda = e+g, lambda = delta_e", ok)


def test_criterion_03_wedderburn():
    expected = {
        "kC2": [1, 1],
        "kS3": [1, 1, 2],
        "kQ8": [1, 1, 1, 1, 2],
        "k^S3": [1, 1, 1, 1, 1, 1],
        "D(S3)": [1, 1, 2, 2, 2, 2, 3, 3],
    }
    ok = True
    times = {}
    for name, degrees in expected.items():
        h = example_algebras()[name]
        t0 = time.perf_counter()
        blocks = primitive_idempotents(h)
        times[name] = time.perf_counter() - t0
        budget = 120.0 if name == "D(S3)" else 15.0
        ok = ok and sorted(blocks.degrees) == degrees and times[name] < budget
        try:
            _verify_idempotent_system(h, blocks.idempotents)
        except Exception:
            ok = False
    for name in EXAMPLES:
        blocks = pipeline_for(name).blocks
        ok = ok and sum(d * d for d in blocks.degrees) == example_algebras()[name].dim
    _line(3, "block degree multisets, sum of squares, exact idempotent systems, in time", ok,
          f"D(S3) {times['D(S3)']:.1f}s")


def test_criterion_04_lemma1():
    ok = True
    for name in EXAMPLES:
        rep = pipeline_for(name).suite("lemma1")
        ok = ok and rep.overall
    # negative control: corrupt one idempotent, item A must fail
    pipe = pipeline_for("kS3")
    from hopfkit.wedderburn import BlockDecomposition

    e0 = list(pipe.blocks.idempotents[0])
    i, j = next(
        (i, j) for i in range(len(e0)) for j in range(i + 1, len(e0)) if e0[i] != e0[j]
    )
    e0[i], e0[j] = e0[j], e0[i]
    corrupted = BlockDecomposition(
        center_basis=pipe.blocks.center_basis,
        idempotents=[Vector.of(e0)] + list(pipe.blocks.idempotents[1:]),
        degrees=list(pipe.blocks.degrees),
        labels=list(pipe.blocks.labels),
    )
    control = verify_lemma1(pipe.H, corrupted, pipe.integrals, pipe.table)
    ok = ok and any(item.id.endswith("-A") and not item.passed for item in control.items)
    _line(4, "lemma1 identities exact on every block of every example; corrupted control fails item A", ok)


def test_criterion_05_corollary():
    ok = True
    for name in EXAMPLES:
        rep = pipeline_for(name).suite("corollary")
        ok = ok and rep.overall
    _line(5, "delta_M Lambda = (dim M) chi_M on all dual blocks; subset idempotent coordinates are non-negative integers", ok)


def test_criterion_06_proposition():
    ok = True
    for name in ("kC2", "kC3", "kC2xC2", "kS3", "kD4", "kQ8"):
        pipe = pipeline_for(name)
        for chi, deg in zip(pipe.table.characters, pipe.table.degrees):
            ok = ok and is_central_character(chi, pipe.H)
            ok = ok and pipe.H.dim % deg == 0
    pipe = pipeline_for("k^S3")
    flags = [is_central_character(chi, pipe.H) for chi in pipe.table.characters]
    ok = ok and flags.count(True) == 1
    idx = flags.index(True)
    ok = ok and pipe.table.characters[idx] == pipe.H.counit
    pipe = pipeline_for("D(S3)")
    ok = ok and all(pipe.H.dim % deg == 0 for deg in pipe.table.degrees)
    # every central value f_i(S* chi_V) carries a monic integer certificate
    for name in EXAMPLES:
        pipe = pipeline_for(name)
        for chi in pipe.table.characters:
            if not is_central_character(chi, pipe.H):
                continue
            dec = central_decomposition(pipe.H.dual.apply_antipode(chi), pipe.dual.blocks)
            for value in dec.values:
                cert = is_algebraic_integer(value)
                ok = ok and cert.is_integer and cert.minimal_polynomial.is_monic()
                ok = ok and cert.minimal_polynomial.has_integer_coeffs()
        ok = ok and pipeline_for(name).suite("proposition").overall
    _line(6, "divisibility + central-character analysis with integrality certificates", ok)


def test_criterion_07_section4():
    ok = True
    for name in EXAMPLES:
        rep = pipeline_for(name).suite("section4")
        ok = ok and rep.overall
    _line(7, "f bijective; f(C(H)) = Z(H) and f(Z(H*)) = C(H*) exactly on every example", ok)


def test_criterion_08_fusion():
    ok = True
    for name in EXAMPLES:
        pipe = pipeline_for(name)
        fusion = pipe.fusion  # construction already asserts integrality + witnesses
        for plane in fusion.tensor:
            for row in plane:
                ok = ok and all(isinstance(n, int) and n >= 0 for n in row)
    pipe = pipeline_for("kS3")
    two = pipe.table.degrees.index(2)
    ok = ok and pipe.fusion.tensor[two][two] == [1, 1, 1]
    for name in ("kS3", "kQ8", "D(S3)"):
        pipe = pipeline_for(name)
        for v, chi in enumerate(pipe.table.characters):
            char = Poly(charpoly(fusion_matrix_rows(pipe.fusion.tensor, v)))
            ok = ok and char.is_monic() and char.has_integer_coeffs()
            ok = ok and not convolution_poly_eval(char, chi, pipe.H).nz
    _line(8, "fusion coefficients are non-negative integers; chi2^2 on kS3; monic annihilators", ok)


def test_criterion_09_factorization():
    p6 = Poly([-1, 0, 0, 0, 0, 0, 1])
    factors = factor_rational(p6)
    expected = {tuple(Fraction(c) for c in cyclotomic_coeffs(d)) for d in (1, 2, 3, 6)}
    got = {tuple(c.as_fraction() for c in f.coeffs) for f, _ in factors}
    ok = got == expected
    prod = Poly([1])
    for f, m in factors:
        prod = prod * f**m
    ok = ok and prod == p6

    p12 = Poly([1, 0, -1, 0, 1])
    rational = factor_rational(p12)
    ok = ok and len(rational) == 1 and rational[0] == (p12, 1)
    linear = factor_over_cyclotomic(p12, 12)
    ok = ok and len(linear) == 4 and all(f.degree == 1 for f in linear)
    prod = Poly([1])
    for f in linear:
        prod = prod * f
    ok = ok and prod == p12
    _line(9, "x^6-1 factors into the four cyclotomic polynomials; x^4-x^2+1 irreducible over Q and split by Q(zeta_12)", ok)


def test_criterion_10_determinism(tmp_path):
    grp = tmp_path / "s3.grp"
    grp.write_text(builtin_grp_text("S3"))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["report", str(grp), "--as", "group-algebra", "--json", "--seed", "11"]
    code1 = main(args + ["-o", str(r1)])
    code2 = main(args + ["-o", str(r2)])
    ok = code1 == 0 and code2 == 0 and r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    ok = ok and set(doc) == {"algebra", "dim", "suites", "overall"}
    _line(10, "hopfkit report is byte-identical across runs with the same seed", ok)
