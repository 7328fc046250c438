"""Stage orchestration: one object caches every derived artifact of an algebra.

A :class:`Pipeline` lazily computes axioms, integrals, blocks, characters,
fusion, and the same stack for the dual algebra, so the verification suites
share work within a process.  Everything downstream is a pure function of
(H, cyclotomic order, seed); two pipelines with equal inputs produce
identical reports.
"""

from __future__ import annotations

from functools import cached_property

from .characters import CharacterTable, FusionRing, fusion_ring, irreducible_characters
from .hopf import HopfData, check_axioms, dualize
from .integrals import IntegralPair, compute_integrals, integrals_report
from .report import VerificationReport, report_document
from .theorems import (
    explore_central_fusion,
    kaplansky_report,
    verify_corollary,
    verify_lemma1,
    verify_proposition,
    verify_section4,
)
from .wedderburn import BlockDecomposition, primitive_idempotents

SUITES = (
    "axioms",
    "integrals",
    "lemma1",
    "corollary",
    "proposition",
    "section4",
    "kaplansky",
    "central-fusion",
)


class Pipeline:
    def __init__(self, H: HopfData, order: int | None = None, seed: int = 0):
        self.H = H
        self.order = order if order is not None else H.cyclotomic_order
        self.seed = seed

    @cached_property
    def axioms(self) -> VerificationReport:
        return check_axioms(self.H)

    @cached_property
    def integrals(self) -> IntegralPair:
        return compute_integrals(self.H)

    @cached_property
    def blocks(self) -> BlockDecomposition:
        return primitive_idempotents(self.H, order=self.order, seed=self.seed)

    @cached_property
    def table(self) -> CharacterTable:
        return irreducible_characters(self.H, self.blocks, self.integrals)

    @cached_property
    def fusion(self) -> FusionRing:
        return fusion_ring(self.table, self.H)

    @cached_property
    def dual(self) -> "Pipeline":
        return Pipeline(dualize(self.H), order=self.order, seed=self.seed)

    # -- suites ----------------------------------------------------------------

    def suite(self, name: str) -> VerificationReport:
        if name == "axioms":
            return self.axioms
        if name == "integrals":
            return integrals_report(self.H, self.integrals)
        if name == "lemma1":
            return verify_lemma1(self.H, self.blocks, self.integrals, self.table)
        if name == "corollary":
            return verify_corollary(
                self.H, self.dual.blocks, self.integrals, self.dual.table, seed=self.seed
            )
        if name == "proposition":
            return verify_proposition(
                self.H,
                self.blocks,
                self.table,
                self.dual.blocks,
                self.dual.table,
                self.integrals,
            )
        if name == "section4":
            return verify_section4(
                self.H,
                self.blocks,
                self.integrals,
                self.table,
                self.dual.blocks,
                self.dual.table,
            )
        if name == "kaplansky":
            return kaplansky_report(self.H, self.blocks, self.table)
        if name == "central-fusion":
            return explore_central_fusion(
                self.H, self.table, self.blocks, self.integrals, self.fusion
            )
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")

    def all_suites(self) -> list[VerificationReport]:
        return [self.suite(name) for name in SUITES]

    def report_document(self) -> dict:
        """The full JSON-ready report: every suite, fixed key set, stable order."""
        return report_document(self.H.name, self.H.dim, self.all_suites())
