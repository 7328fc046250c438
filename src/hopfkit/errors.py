"""Exception hierarchy shared across the package, and the one header-count
rule of the `.grp` and `.hopf` parsers."""

from __future__ import annotations


class HopfkitError(Exception):
    """Base class for all semantic errors raised by hopfkit."""


class ParseError(HopfkitError):
    """Malformed `.grp` / `.hopf` text or scalar literal.

    Carries the optional 1-based line of the offending text, which prefixes
    the message as ``line N: ``.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def header_count(tokens: list[str], lineno: int) -> int:
    """The one positive integer after a header word of a `.grp` or `.hopf`
    text, or a ParseError."""
    try:
        count = int(tokens[1]) if len(tokens) == 2 and tokens[1].isdecimal() else 0
    except ValueError:  # more digits than int() converts (4300 by default)
        count = 0
    if count < 1:
        raise ParseError(f"{tokens[0]} expects one positive integer", lineno)
    return count


class GroupTableError(HopfkitError):
    """A syntactically valid Cayley table that is not a group
    (Latin-square violation, broken associativity, missing identity or inverses)."""


class NotSemisimpleError(HopfkitError):
    """The integral pair could not be certified.  The message names the failing
    check: a regular character that is not a left integral (with the first
    failing basis index), or one of the trace identities chi_H(1),
    <eps, chi_H*> and <chi_H, chi_H*> = dim H, which fail only on corrupt data."""


class FieldTooSmallError(HopfkitError):
    """The minimal polynomial of a center basis element has an irreducible
    factor that does not split over the configured Q(zeta_N); rerun with a
    larger cyclotomic order."""


class InconsistentSystemError(HopfkitError):
    """An exact linear system that must be solvable turned out inconsistent."""
