"""Cayley table parsing, validation, and the built-in group families."""

from itertools import permutations

import pytest

from hopfkit import GroupTableError, ParseError, builtin_group, builtin_grp_text, builtin_names, parse_group

C2_TEXT = """\
group C2
order 2
elements e g
table
e g
g e
"""


def test_parse_c2():
    g = parse_group(C2_TEXT)
    assert g.order == 2 and g.exponent == 2
    assert g.identity == 0 and g.inverses == (0, 1)


def test_parse_comments_and_blanks():
    text = "# a comment\ngroup C2\n\norder 2\nelements e g  # names\ntable\ne g\ng e\n"
    assert parse_group(text).order == 2


def test_s3_matches_permutation_composition():
    g = builtin_group("S3")
    assert g.order == 6 and g.exponent == 6
    # oracle: compose permutations of 3 letters independently
    perms = {p: i for i, p in enumerate(permutations(range(3)))}
    # map each group element to a permutation by brute-force matching the table
    # structure: verify some isomorphism exists by checking the multiset of
    # element orders instead of a fixed labeling
    orders = sorted(g.element_order(i) for i in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]
    # and associativity/latin-square were validated at construction
    sym_orders = sorted(
        next(k for k in range(1, 7) if _perm_pow(p, k) == tuple(range(3)))
        for p in perms
    )
    assert orders == sym_orders


def _perm_pow(p, k):
    q = tuple(range(3))
    for _ in range(k):
        q = tuple(p[q[i]] for i in range(3))
    return q


def test_latin_square_violation():
    text = "group X\norder 2\nelements e g\ntable\ne e\ng e\n"
    with pytest.raises(GroupTableError, match="Latin-square"):
        parse_group(text)


def test_associativity_violation():
    # a Latin square that is not a group (order-5 quasigroup)
    text = (
        "group X\norder 5\nelements a b c d f\ntable\n"
        "a b c d f\n"
        "b a d f c\n"
        "c f a b d\n"
        "d c f a b\n"
        "f d b c a\n"
    )
    with pytest.raises(GroupTableError, match="associativity"):
        parse_group(text)


def test_unknown_element_name():
    text = "group X\norder 2\nelements e g\ntable\ne q\ng e\n"
    with pytest.raises(ParseError) as excinfo:
        parse_group(text)
    assert excinfo.value.line == 5


def test_row_length_error_has_line():
    text = "group X\norder 2\nelements e g\ntable\ne\ng e\n"
    with pytest.raises(ParseError) as excinfo:
        parse_group(text)
    assert excinfo.value.line == 5


def test_order_header_errors():
    for order in ("0", "-2", "two", "\u00b2"):  # \u00b2 is a digit that int() rejects
        with pytest.raises(ParseError) as excinfo:
            parse_group(f"group X\norder {order}\nelements e g\ntable\ne g\ng e\n")
        assert excinfo.value.line == 2


def test_builtins_all_valid():
    assert set(builtin_names()) == {"C2", "C3", "C4", "C2xC2", "S3", "D4", "Q8"}
    expected = {
        "C2": (2, 2),
        "C3": (3, 3),
        "C4": (4, 4),
        "C2xC2": (4, 2),
        "S3": (6, 6),
        "D4": (8, 4),
        "Q8": (8, 4),
    }
    for name, (order, exponent) in expected.items():
        g = builtin_group(name)
        assert (g.order, g.exponent) == (order, exponent), name
        # round-trip through the .grp format
        again = parse_group(builtin_grp_text(name))
        assert again.table == g.table and again.names == g.names


def test_exponent_is_lcm_of_element_orders():
    from math import lcm

    for name in builtin_names():
        g = builtin_group(name)
        acc = 1
        for i in range(g.order):
            acc = lcm(acc, g.element_order(i))
        assert acc == g.exponent
        # and divides order! trivially at these sizes
        fact = 1
        for k in range(1, g.order + 1):
            fact *= k
        assert fact % g.exponent == 0


def test_q8_structure():
    g = builtin_group("Q8")
    names = g.names
    i, j, k = names.index("i"), names.index("j"), names.index("k")
    minus_one = names.index("-1")
    assert g.table[i][i] == minus_one
    assert g.table[j][j] == minus_one
    assert g.table[i][j] == k
    assert g.table[j][i] == names.index("-k")
