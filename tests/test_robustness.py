"""Seeded line mutations of .hopf and .grp texts through the command line.

Every input must end in an exit code, 0 (verified), 1 (a verification
failure or a semantic error such as a non-semisimple input) or 2 (a parse or
usage error), and never in an escaped exception.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings, strategies as st

from hopfkit import builtin_group, drinfeld_double, format_hopf, group_algebra
from hopfkit.groups import builtin_grp_text
from hopfkit.cli import main

_BASES = {
    "kC2": format_hopf(group_algebra(builtin_group("C2"))).splitlines(),
    "kS3": format_hopf(group_algebra(builtin_group("S3"))).splitlines(),
    "D(C2)*": format_hopf(drinfeld_double(builtin_group("C2")).dual).splitlines(),
}
_COMMANDS = ("report", "wedderburn", "characters", "integrals", "check-axioms")
# the last token has more digits than int() converts
_TOKENS = ("0", "1", "2", "3", "-1", "1/2", "-2/3", "z", "2*z^3", "z^9", "dim", "MULT", "", "x", "1" * 5001)

_GRP_BASES = {name: builtin_grp_text(name).splitlines() for name in ("C2", "C3", "S3", "C2xC2")}
_GRP_COMMANDS = (("report", "--as", "group-algebra"), ("report", "--as", "function-algebra"),
                 ("report", "--as", "double"), ("build", "double"))
# the last token has more digits than int() converts
_GRP_TOKENS = ("e", "a", "b", "r", "s", "rs", "0", "2", "6", "group", "order", "elements", "table", "", "x",
               "1" * 5001)


def _edits(tokens):
    """Up to three edits: delete, duplicate, replace or swap a line, or
    replace one token of it; the two integers pick the lines and the token
    position modulo their counts."""
    edit = st.tuples(
        st.sampled_from(("delete", "duplicate", "line", "swap", "token")),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
        st.lists(st.sampled_from(tokens), min_size=1, max_size=4),
    )
    return st.lists(edit, min_size=1, max_size=3)


def _mutate(lines: list[str], edits) -> str:
    lines = list(lines)
    for op, i, j, tokens in edits:
        if not lines:
            break
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "line":
            lines[i] = " ".join(tokens)
        elif op == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split() or [""]
            words[j % len(words)] = tokens[0]
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.hopf"


@pytest.fixture(scope="module")
def fuzz_grp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.grp"


# no shrinking: a failure is reported with the input that produced it
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(base=st.sampled_from(sorted(_BASES)), edits=_edits(_TOKENS), command=st.sampled_from(_COMMANDS))
# without MULT line 3 3 1 1, D(C2)* passes the integral certificate and its
# centre holds an element with minimal polynomial x^2
@example(base="D(C2)*", edits=[("delete", _BASES["D(C2)*"].index("3 3 1 1"), 0, ["0"])],
         command="report")
# a MULT scalar with more digits than int() converts
@example(base="kC2", edits=[("token", _BASES["kC2"].index("MULT") + 1, 3, ["1" * 5001])],
         command="check-axioms")
def test_mutated_hopf_text_exits_cleanly(fuzz_file, base, edits, command):
    fuzz_file.write_text(_mutate(_BASES[base], edits))
    assert main([command, str(fuzz_file)]) in (0, 1, 2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(base=st.sampled_from(sorted(_GRP_BASES)), edits=_edits(_GRP_TOKENS),
       command=st.sampled_from(_GRP_COMMANDS))
@example(base="C2", edits=[("token", _GRP_BASES["C2"].index("order 2"), 1, ["1" * 5001])],
         command=("report", "--as", "group-algebra"))
def test_mutated_grp_text_exits_cleanly(fuzz_grp, base, edits, command):
    fuzz_grp.write_text(_mutate(_GRP_BASES[base], edits))
    output = fuzz_grp.with_suffix(".out")
    assert main([*command, str(fuzz_grp), "-o", str(output)]) in (0, 1, 2)
