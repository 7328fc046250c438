"""Structured verification reports.

Every suite produces a :class:`VerificationReport`: an itemized list of
checks, each with a stable identifier, a statement of the identity tested,
a pass/fail flag, and witness data (exact scalars/vectors rendered in the
scalar literal grammar) from which the check can be replayed.

:func:`report_document` gives the ``{algebra, dim, suites, overall}``
document as a dict; :func:`render_json` writes the same document as the text
of ``json.dumps(report_document(...), indent=2)`` and a final newline, which
is what ``--json`` prints.  The writer fills a fixed template and quotes
each string with ``json.encoder``'s C quoting (ASCII-only, as ``json.dumps``
does by default): CPython's C encoder does not run when ``indent`` is set,
and its pure-Python encoder takes several times as long on a report.  The two
must stay byte-identical, so a change to the document's keys, order or
values is made in both; the tests compare them on every example algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote


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
        "overall": _overall(reports),
    }


def _overall(reports: list[VerificationReport]) -> bool:
    return all(rep.overall for rep in reports if not rep.exploratory)


def render_json(algebra: str, dim: int, reports: list[VerificationReport]) -> str:
    """The text of ``json.dumps(report_document(algebra, dim, reports),
    indent=2)`` and a final newline, written directly."""
    suites = []
    for rep in reports:
        items = [
            f'        {{\n          "id": {_quote(item.id)},\n'
            f'          "statement": {_quote(item.statement)},\n'
            f'          "pass": {"true" if item.passed else "false"},\n'
            f'          "witness": {_quote(item.witness)}\n        }}'
            for item in rep.items
        ]
        suites.append(f'    {{\n      "name": {_quote(rep.suite)},\n      "items": {_list(items, "      ")}\n    }}')
    return (
        f'{{\n  "algebra": {_quote(algebra)},\n  "dim": {dim},\n  "suites": {_list(suites, "  ")},\n'
        f'  "overall": {"true" if _overall(reports) else "false"}\n}}\n'
    )


def _list(entries: list[str], indent: str) -> str:
    """A JSON list of rendered entries whose closing bracket stands at ``indent``."""
    return "[\n" + ",\n".join(entries) + "\n" + indent + "]" if entries else "[]"
