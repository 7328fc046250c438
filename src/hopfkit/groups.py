"""Finite groups as validated Cayley tables.

Groups enter the system only through the `.grp` format (or the built-in
generators below, which produce the same validated tables).  Parsing checks
the Latin-square property, full associativity, and the existence of identity
and inverses; the exponent (lcm of element orders) drives the default
cyclotomic order of the algebras built on top.

`.grp` grammar::

    group <name>
    order <n>
    elements <n whitespace-separated names>
    table
    <n rows of n names>      # row i lists g_i * g_j for j = 0..n-1

``#`` starts a comment anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import GroupTableError, ParseError, header_count


@dataclass(frozen=True)
class GroupTable:
    name: str
    order: int
    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]  # table[i][j] = index of g_i g_j
    identity: int
    inverses: tuple[int, ...]
    exponent: int

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != self.identity:
            cur = self.table[cur][i]
            k += 1
        return k


def _validate(name: str, names: list[str], table: list[list[int]]) -> GroupTable:
    n = len(names)
    # Latin square: every row and column is a permutation
    for i in range(n):
        if sorted(table[i]) != list(range(n)):
            raise GroupTableError(f"Latin-square violation in row {i} ({names[i]})")
    for j in range(n):
        col = sorted(table[i][j] for i in range(n))
        if col != list(range(n)):
            raise GroupTableError(f"Latin-square violation in column {j} ({names[j]})")
    # associativity, exhaustively
    for i in range(n):
        for j in range(n):
            tij = table[i][j]
            for k in range(n):
                if table[tij][k] != table[i][table[j][k]]:
                    raise GroupTableError(
                        f"associativity violation at ({names[i]}, {names[j]}, {names[k]})"
                    )
    identity = None
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupTableError("no identity element")
    inverses = []
    for i in range(n):
        inv = next((j for j in range(n) if table[i][j] == identity and table[j][i] == identity), None)
        if inv is None:
            raise GroupTableError(f"element {names[i]} has no inverse")
        inverses.append(inv)

    g = GroupTable(
        name=name,
        order=n,
        names=tuple(names),
        table=tuple(tuple(row) for row in table),
        identity=identity,
        inverses=tuple(inverses),
        exponent=1,
    )
    exponent = 1
    for i in range(n):
        exponent = lcm(exponent, g.element_order(i))
    object.__setattr__(g, "exponent", exponent)
    return g


def parse_group(text: str) -> GroupTable:
    """Parse and fully validate a `.grp` Cayley table."""
    name: str | None = None
    order: int | None = None
    names: list[str] | None = None
    rows: list[list[int]] = []
    in_table = False
    index: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not in_table:
            head = tokens[0]
            if head == "group":
                if len(tokens) < 2:
                    raise ParseError("group header needs a name", lineno)
                name = line[len("group"):].strip()
            elif head == "order":
                order = header_count(tokens, lineno)
            elif head == "elements":
                names = tokens[1:]
                if order is not None and len(names) != order:
                    raise ParseError(
                        f"expected {order} element names, got {len(names)}", lineno
                    )
                if len(set(names)) != len(names):
                    raise ParseError("duplicate element name", lineno)
                index = {nm: i for i, nm in enumerate(names)}
            elif head == "table":
                if names is None:
                    raise ParseError("table before elements declaration", lineno)
                in_table = True
            else:
                raise ParseError(f"unexpected keyword {head!r}", lineno)
        else:
            if len(tokens) != len(names):
                raise ParseError(
                    f"table row needs {len(names)} entries, got {len(tokens)}", lineno
                )
            row = []
            for col, token in enumerate(tokens):
                if token not in index:
                    raise ParseError(f"unknown element name {token!r} in column {col + 1}", lineno)
                row.append(index[token])
            rows.append(row)

    if name is None:
        raise ParseError("missing 'group <name>' header")
    if names is None:
        raise ParseError("missing 'elements' declaration")
    if order is not None and order != len(names):
        raise ParseError("order does not match number of elements")
    if len(rows) != len(names):
        raise ParseError(f"expected {len(names)} table rows, got {len(rows)}")
    return _validate(name, names, rows)


def format_grp(g: GroupTable) -> str:
    lines = [f"group {g.name}", f"order {g.order}", "elements " + " ".join(g.names), "table"]
    for i in range(g.order):
        lines.append(" ".join(g.names[g.table[i][j]] for j in range(g.order)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in families (so tests and demos need no external data)


def _cyclic(n: int, name: str) -> GroupTable:
    names = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _validate(name, names, table)


def _direct_product(a: GroupTable, b: GroupTable, name: str) -> GroupTable:
    names = [f"{a.names[i]}.{b.names[j]}" for i in range(a.order) for j in range(b.order)]
    n = a.order * b.order

    def idx(i: int, j: int) -> int:
        return i * b.order + j

    table = [[0] * n for _ in range(n)]
    for i1 in range(a.order):
        for j1 in range(b.order):
            for i2 in range(a.order):
                for j2 in range(b.order):
                    table[idx(i1, j1)][idx(i2, j2)] = idx(a.table[i1][i2], b.table[j1][j2])
    return _validate(name, names, table)


def _from_permutations(name: str, perms: dict[str, tuple[int, ...]]) -> GroupTable:
    names = list(perms)
    lookup = {p: i for i, (nm, p) in enumerate(perms.items())}
    table = []
    for nm_i in names:
        row = []
        p = perms[nm_i]
        for nm_j in names:
            q = perms[nm_j]
            composed = tuple(p[q[k]] for k in range(len(p)))  # (p q)(k) = p(q(k))
            row.append(lookup[composed])
        table.append(row)
    return _validate(name, names, table)


def _s3() -> GroupTable:
    e = (0, 1, 2)
    r = (1, 2, 0)
    r2 = (2, 0, 1)
    s = (1, 0, 2)
    return _from_permutations(
        "S3",
        {
            "e": e,
            "r": r,
            "r2": r2,
            "s": s,
            "rs": tuple(r[s[k]] for k in range(3)),
            "r2s": tuple(r2[s[k]] for k in range(3)),
        },
    )


def _d4() -> GroupTable:
    e = (0, 1, 2, 3)
    r = (1, 2, 3, 0)

    def compose(p, q):
        return tuple(p[q[k]] for k in range(4))

    r2, r3 = compose(r, r), compose(compose(r, r), r)
    s = (1, 0, 3, 2)  # reflection of the square
    return _from_permutations(
        "D4",
        {
            "e": e,
            "r": r,
            "r2": r2,
            "r3": r3,
            "s": s,
            "rs": compose(r, s),
            "r2s": compose(r2, s),
            "r3s": compose(r3, s),
        },
    )


def _q8() -> GroupTable:
    # elements 1, -1, i, -i, j, -j, k, -k encoded as (sign, axis)
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def decode(n: int) -> tuple[int, int]:
        return (1 if n % 2 == 0 else -1, n // 2)  # axis 0 = scalar, 1 = i, 2 = j, 3 = k

    def encode(sign: int, axis: int) -> int:
        return axis * 2 + (0 if sign == 1 else 1)

    # quaternion multiplication on axes with sign
    axis_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    table = []
    for a in range(8):
        sa, xa = decode(a)
        row = []
        for b in range(8):
            sb, xb = decode(b)
            sm, xm = axis_mul[(xa, xb)]
            row.append(encode(sa * sb * sm, xm))
        table.append(row)
    return _validate("Q8", names, table)


_BUILTINS = {
    "C2": lambda: _cyclic(2, "C2"),
    "C3": lambda: _cyclic(3, "C3"),
    "C4": lambda: _cyclic(4, "C4"),
    "C2xC2": lambda: _direct_product(_cyclic(2, "C2"), _cyclic(2, "C2"), "C2xC2"),
    "S3": _s3,
    "D4": _d4,
    "Q8": _q8,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin_group(name: str) -> GroupTable:
    key = next((k for k in _BUILTINS if k.lower() == name.lower()), None)
    if key is None:
        raise KeyError(f"no builtin group {name!r}; available: {', '.join(_BUILTINS)}")
    return _BUILTINS[key]()


def builtin_grp_text(name: str) -> str:
    """The `.grp` file contents for a built-in group."""
    return format_grp(builtin_group(name))
