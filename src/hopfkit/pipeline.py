"""Stage orchestration: one object caches every derived artifact of an algebra.

A :class:`Pipeline` lazily computes axioms, integrals, blocks, characters,
fusion, and the same stack for the dual algebra ``H.dual``, so the
verification suites share work within a process.  The integral pair is computed
once, on H; the dual pipeline derives its pair from it.  The integrals stage is
the one semisimplicity certificate of both sides: ``compute_integrals`` proves
that Lambda is a left integral of H with <eps, Lambda> = dim H, and that lambda
is a left integral of H* with lambda(1) = 1, which is Maschke's criterion for H
and, through Lambda* = dim H * lambda, for H*.  So the blocks stages split the
center without certifying it again.  The blocks and fusion stages read the
axioms stage if it has already run, and never run it.  A passed ``assoc``
item lets the blocks stage of H solve the centre on the commutator rows of
H's generating rows only, and the blocks stage of H* reads H's ``coassoc``
item, as H*'s product is H's coproduct; each side takes the
``generating_rows`` of its own algebra, which for H* is ``H.dual``, the same
object the axioms check read H*'s rows from.  A passed axiom report lets fusion
mirror half the character products through S*.  Without them every row and
every product is used.  ``report`` and ``verify all`` run the axioms suite
first, so they take both cuts; ``wedderburn`` and ``characters`` pay for no
axiom check.  The blocks and the tensor are the same either way.
Everything downstream is a pure function of (H, cyclotomic order, seed), and
the seed only chooses the corollary suite's subset sample; two pipelines with
equal inputs produce identical reports.
"""

from __future__ import annotations

import weakref
from functools import cached_property

from .characters import CharacterTable, FusionRing, fusion_ring, irreducible_characters
from .hopf import HopfData, check_axioms
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
from .wedderburn import BlockDecomposition, _split_center

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
    _of = None  # on the pipeline of H*, a weak reference to the pipeline of H

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
        self.integrals  # the semisimplicity certificate _split_center needs
        return _split_center(self.H, self.order, self._proved_generating_rows())

    @cached_property
    def table(self) -> CharacterTable:
        return irreducible_characters(self.H, self.blocks, self.integrals)

    @cached_property
    def fusion(self) -> FusionRing:
        # the axioms stage only if it has run: checking the axioms costs more
        # than the products the mirror saves
        return fusion_ring(self.table, self.H, self.__dict__.get("axioms"))

    @cached_property
    def dual(self) -> "Pipeline":
        # H*'s integral pair is read off H's here; the weak link back lets H*'s
        # blocks stage read H's axioms stage without keeping H's pipeline alive
        dual = Pipeline(self.H.dual, order=self.order, seed=self.seed)
        dual.__dict__["integrals"] = dual_integrals(self.integrals, self.H.dim)
        dual._of = weakref.ref(self)
        return dual

    def _proved_generating_rows(self) -> list[int] | None:
        """The generating rows of this side's product once an axioms stage that
        has run proved that product associative: H's ``assoc`` item, or for H*
        H's ``coassoc`` (H*'s product is H's coproduct).  None otherwise."""
        of = self._of and self._of()
        axioms = (of or self).__dict__.get("axioms")
        item = "coassoc" if of else "assoc"
        if axioms is None or not any(i.id == item and i.passed for i in axioms.items):
            return None
        return self.H.generating_rows

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
