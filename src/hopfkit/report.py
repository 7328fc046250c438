"""Structured verification reports.

Every suite produces a :class:`VerificationReport`: an itemized list of
checks, each with a stable identifier, a statement of the identity tested,
a pass/fail flag, and witness data (exact scalars/vectors rendered in the
scalar literal grammar) from which the check can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ReportItem:
    id: str
    statement: str
    passed: bool
    witness: str = ""

    def to_dict(self) -> dict:
        return {"id": self.id, "statement": self.statement, "pass": self.passed, "witness": self.witness}


@dataclass
class VerificationReport:
    subject: str
    dim: int
    suite: str
    items: list[ReportItem] = field(default_factory=list)
    exploratory: bool = False

    @property
    def overall(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, id: str, statement: str, passed: bool, witness: str = "") -> ReportItem:
        item = ReportItem(id=id, statement=statement, passed=passed, witness=witness)
        self.items.append(item)
        return item

    def failures(self) -> list[ReportItem]:
        return [item for item in self.items if not item.passed]

    def to_dict(self) -> dict:
        return {"name": self.suite, "items": [item.to_dict() for item in self.items]}

    def render_text(self) -> str:
        tag = " (exploratory)" if self.exploratory else ""
        lines = [f"suite {self.suite}{tag} on {self.subject} (dim {self.dim})"]
        for item in self.items:
            mark = "PASS" if item.passed else "FAIL"
            lines.append(f"  [{mark}] {item.id}: {item.statement}")
            if item.witness:
                lines.append(f"         witness: {item.witness}")
        status = "pass" if self.overall else "FAIL"
        lines.append(f"  => {status}" + (" [not counted in overall status]" if self.exploratory else ""))
        return "\n".join(lines)


def report_document(algebra: str, dim: int, reports: list[VerificationReport]) -> dict:
    """The JSON-ready ``{algebra, dim, suites, overall}`` document; exploratory
    suites never affect ``overall``."""
    return {
        "algebra": algebra,
        "dim": dim,
        "suites": [rep.to_dict() for rep in reports],
        "overall": all(rep.overall for rep in reports if not rep.exploratory),
    }
