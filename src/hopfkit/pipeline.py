"""Stage orchestration: one object caches every derived artifact of an algebra.

A :class:`Pipeline` lazily computes axioms, integrals, blocks, characters,
fusion, and the same stack for the dual algebra, so the verification suites
share work within a process.  The integral pair is solved once, on H; the dual
pipeline derives its pair from it.  Everything downstream is a pure function of
(H, cyclotomic order, seed); two pipelines with equal inputs produce
identical reports.
"""

from __future__ import annotations

from functools import cached_property

from .characters import CharacterTable, FusionRing, fusion_ring, irreducible_characters
from .hopf import HopfData, check_axioms, dualize
from .integrals import IntegralPair, compute_integrals, dual_integrals, integrals_report
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

# suite name -> its report, read from a pipeline's cached stages
_SUITE_RUNNERS = {
    "axioms": lambda p: p.axioms,
    "integrals": lambda p: integrals_report(p.H, p.integrals),
    "lemma1": lambda p: verify_lemma1(p.H, p.blocks, p.integrals, p.table),
    "corollary": lambda p: verify_corollary(
        p.H, p.dual.blocks, p.integrals, p.dual.table, seed=p.seed
    ),
    "proposition": lambda p: verify_proposition(
        p.H, p.blocks, p.table, p.dual.blocks, p.dual.table, p.integrals
    ),
    "section4": lambda p: verify_section4(
        p.H, p.blocks, p.integrals, p.table, p.dual.blocks, p.dual.table
    ),
    "kaplansky": lambda p: kaplansky_report(p.H, p.blocks, p.table),
    "central-fusion": lambda p: explore_central_fusion(
        p.H, p.table, p.blocks, p.integrals, p.fusion
    ),
}
SUITES = tuple(_SUITE_RUNNERS)


class Pipeline:
    def __init__(self, H: HopfData, order: int | None = None, seed: int = 0):
        self.H = H
        self.order = order if order is not None else H.cyclotomic_order
        self.seed = seed
        # the pipeline this one is the dual of; its integral pair gives ours
        self._primal: Pipeline | None = None

    @cached_property
    def axioms(self) -> VerificationReport:
        return check_axioms(self.H)

    @cached_property
    def integrals(self) -> IntegralPair:
        if self._primal is not None:
            return dual_integrals(self._primal.integrals, self.H.dim)
        return compute_integrals(self.H)

    @cached_property
    def blocks(self) -> BlockDecomposition:
        return primitive_idempotents(
            self.H, order=self.order, seed=self.seed, integrals=self.integrals
        )

    @cached_property
    def table(self) -> CharacterTable:
        return irreducible_characters(self.H, self.blocks, self.integrals)

    @cached_property
    def fusion(self) -> FusionRing:
        return fusion_ring(self.table, self.H)

    @cached_property
    def dual(self) -> "Pipeline":
        dual = Pipeline(dualize(self.H), order=self.order, seed=self.seed)
        dual._primal = self
        return dual

    # -- suites ----------------------------------------------------------------

    def suite(self, name: str) -> VerificationReport:
        run = _SUITE_RUNNERS.get(name)
        if run is None:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
        return run(self)

    def all_suites(self) -> list[VerificationReport]:
        return [self.suite(name) for name in SUITES]

    def report_document(self) -> dict:
        """The full JSON-ready report: every suite, fixed key set, stable order."""
        return report_document(self.H.name, self.H.dim, self.all_suites())
