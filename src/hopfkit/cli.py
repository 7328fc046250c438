"""Command-line front end: argv straight into a :class:`~hopfkit.pipeline.Pipeline`.

    hopfkit build group-algebra|function-algebra|double <file.grp> [-o out.hopf]
    hopfkit build tensor <a.hopf> <b.hopf> [-o out.hopf]
    hopfkit check-axioms <file.hopf>
    hopfkit integrals <file.hopf>
    hopfkit wedderburn <file.hopf>
    hopfkit characters <file.hopf>
    hopfkit verify <file.hopf> [--suite <name>|all]
    hopfkit report <file.grp|file.hopf> [--as <kind>]

The six analysis subcommands (all but ``build``) share four options:

    --cyclotomic N   order of the splitting field Q(zeta_N), 1 <= N <= 1000
                     (default: from the input)
    --seed s         seed of the corollary suite's subset sample (default 0)
    --json           emit JSON instead of text
    -o, --output P   write to P instead of stdout (``build`` takes it too)

argv is read against one table of the subcommands, their positionals and
their options.  Options may come before, between or after the positionals;
a value follows its option as the next word or after ``=`` (``--seed=-3``,
``--seed -3``; ``-o P``, ``-oP`` and ``-o=P``).  A word that starts with
``-`` is an option unless it is ``-`` or a negative integer, and ``--`` ends
the options.  The last of a repeated option wins.  Options are spelled in
full: a prefix such as ``--cyc`` is an unrecognized argument.  ``-h`` or
``--help``, at the top or after a subcommand, prints a usage text and exits 0;
a rejected argv prints ``usage: hopfkit ...`` and ``hopfkit ...: error: ...``
on stderr and exits 2.

Exit codes: 0 success, 1 verification failure (or a semantic error such as a
non-semisimple input), 2 usage, parse or I/O error (files are read and written
as UTF-8).  Scalars in files and reports always use the exact literal grammar;
identical inputs and seed give byte-identical output.  ``--seed`` only chooses
the sample of subset idempotents that the corollary suite checks when there
are more than it can check exhaustively; the blocks and everything else do
not depend on it.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from math import lcm
from pathlib import Path
from types import SimpleNamespace

from .builders import drinfeld_double, function_algebra, group_algebra, tensor_product
from .characters import is_central_character
from .errors import HopfkitError, NotSemisimpleError, ParseError
from .groups import parse_group
from .hopf import HopfData, format_hopf, format_vector, parse_hopf
from .integrals import integrals_report
from .pipeline import SUITES, Pipeline
from .report import VerificationReport, report_document
from .scalars import MAX_CYCLOTOMIC_ORDER, format_scalar
from .wedderburn import blocks_report

_BUILDERS = {
    "group-algebra": group_algebra,
    "function-algebra": function_algebra,
    "double": drinfeld_double,
}


# Each subcommand: its usage, its description, its positionals (build's last
# one takes every remaining word) and its options, by spelling -> field.
_OUTPUT = {"-o": "output", "--output": "output"}
_SHARED = {"--cyclotomic": "cyclotomic", "--seed": "seed", "--json": "json", **_OUTPUT}
_GRAMMAR = {
    "build": ("group-algebra|function-algebra|double <file.grp> | tensor <a.hopf> <b.hopf>",
              "construct a .hopf file from group data", ("kind", "inputs"), _OUTPUT),
    "check-axioms": ("<file.hopf>", "verify the Hopf axioms of a .hopf file", ("input",), _SHARED),
    "integrals": ("<file.hopf>", "compute and certify the integral pair (assumes H and H* are "
                  "associative and unital, which check-axioms and report certify)", ("input",), _SHARED),
    "wedderburn": ("<file.hopf>", "compute the block decomposition", ("input",), _SHARED),
    "characters": ("<file.hopf>", "compute the character table and fusion ring", ("input",), _SHARED),
    "verify": ("<file.hopf>", "run verification suites", ("input",), {**_SHARED, "--suite": "suite"}),
    "report": ("<file.grp|file.hopf>", "run every suite and emit one document", ("input",),
               {**_SHARED, "--as": "build_as"}),
}
_DEFAULTS = {"cyclotomic": None, "seed": 0, "json": False, "output": None, "suite": "all", "build_as": None}
_CHOICES = {"kind": (*_BUILDERS, "tensor"), "suite": (*SUITES, "all"), "build_as": tuple(_BUILDERS)}
_OPTION_HELP = {
    "cyclotomic": "--cyclotomic N   order of the splitting field Q(zeta_N), 1 <= N <= 1000 (default: from the input)",
    "seed": "--seed s         seed of the corollary suite's subset sample (default 0)",
    "json": "--json           emit JSON instead of text",
    "output": "-o, --output P   write to P instead of stdout",
    "suite": f"--suite NAME     run one suite: {'|'.join(_CHOICES['suite'])} (default all)",
    "build_as": f"--as KIND        how to build a Hopf algebra from a .grp input: {'|'.join(_BUILDERS)}",
}


class _UsageError(Exception):
    """An argv the grammar rejects; ``command`` is the subcommand read, if any."""

    def __init__(self, command: str | None, message: str):
        super().__init__(message)
        self.command = command


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: hopfkit <command> [options]"
    return f"usage: hopfkit {command} {_GRAMMAR[command][0]} [options]"


def _help(command: str | None) -> str:
    if command is None:
        lines = ["Exact verification toolkit for finite-dimensional semisimple Hopf algebras.", "",
                 "commands:"]
        lines += [f"  {name:<14}{entry[1]}" for name, entry in _GRAMMAR.items()]
        lines.append("'hopfkit <command> --help' shows the options of a command.")
    else:
        lines = [_GRAMMAR[command][1], "", "options:", "  -h, --help       show this help and exit"]
        lines += ["  " + _OPTION_HELP[field] for field in dict.fromkeys(_GRAMMAR[command][3].values())]
    return "\n".join([_usage(command), "", *lines]) + "\n"


def _is_option(word: str) -> bool:
    # "-" and negative integers are values, not options
    return word[:1] == "-" and word != "-" and not word[1:].isdigit()


def _checked(command: str, name: str, field: str, value: str):
    """The value of an option or positional, as an int or one of its choices."""
    if field in ("cyclotomic", "seed"):
        try:
            return int(value)
        except ValueError:
            raise _UsageError(command, f"argument {name}: invalid int value: {value!r}") from None
    if field in _CHOICES and value not in _CHOICES[field]:
        choices = ", ".join(map(repr, _CHOICES[field]))
        raise _UsageError(command, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    return value


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The command and its fields, read from argv by the grammar the module
    docstring gives, or None once --help is printed; a rejected argv raises
    _UsageError."""
    if not argv:
        raise _UsageError(None, "the following arguments are required: command")
    command, *words = argv
    if command in ("-h", "--help"):
        sys.stdout.write(_help(None))
        return None
    if command not in _GRAMMAR:
        choices = ", ".join(map(repr, _GRAMMAR))
        raise _UsageError(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    _, _, names, options = _GRAMMAR[command]
    fields = {"command": command, **{field: _DEFAULTS[field] for field in options.values()}}
    positionals: list[str] = []
    unrecognized: list[str] = []
    only_positionals = False
    rest = iter(words)
    for word in rest:
        if only_positionals or not _is_option(word):
            if len(positionals) < len(names):  # a choice is checked where it is read
                _checked(command, names[len(positionals)], names[len(positionals)], word)
            positionals.append(word)
        elif word == "--":
            only_positionals = True
        elif word in ("-h", "--help"):
            sys.stdout.write(_help(command))
            return None
        else:
            if word[1] == "-":
                name, attached, value = word.partition("=")
            else:  # -oP and -o=P
                name, attached, value = word[:2], word[2:], word[2:].removeprefix("=")
            field = options.get(name)
            if field is None:
                unrecognized.append(word)  # reported once every word is read, so a later --help wins
            elif field == "json":
                if attached:
                    raise _UsageError(command, f"argument {name}: ignored explicit argument {value!r}")
                fields["json"] = True
            else:
                if not attached:
                    value = next(rest, "--")  # past the end, as if an option followed
                    if _is_option(value):
                        raise _UsageError(command, f"argument {name}: expected one argument")
                fields[field] = _checked(command, name, field, value)
    missing = names[len(positionals):]
    if missing:
        raise _UsageError(command, "the following arguments are required: " + ", ".join(missing))
    if names[-1] != "inputs":
        unrecognized += positionals[len(names):]
    if unrecognized:
        raise _UsageError(command, "unrecognized arguments: " + " ".join(unrecognized))
    fields.update(zip(names, positionals))
    if names[-1] == "inputs":
        fields["inputs"] = positionals[len(names) - 1:]
    return SimpleNamespace(**fields)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def _load_hopf(path: str) -> HopfData:
    return parse_hopf(_read(path))


def _load_algebra(path: str, build_as: str | None) -> HopfData:
    if path.endswith(".grp"):
        if build_as is None:
            raise ParseError(f"{path} is a group file; choose --as group-algebra|function-algebra|double")
        return _BUILDERS[build_as](parse_group(_read(path)))
    if build_as is not None:
        raise ParseError(f"--as applies only to .grp inputs, not to {path}")
    return _load_hopf(path)


def _pipeline(args) -> Pipeline:
    """The input of an analysis subcommand as a Pipeline under the shared
    options; ``--cyclotomic`` is checked before the input is read."""
    if args.cyclotomic is not None and args.cyclotomic < 1:
        raise ParseError("--cyclotomic must be >= 1")
    if args.cyclotomic is not None and args.cyclotomic > MAX_CYCLOTOMIC_ORDER:
        raise ParseError(f"--cyclotomic must be <= {MAX_CYCLOTOMIC_ORDER}")
    if args.command == "report":
        h = _load_algebra(args.input, args.build_as)
    elif args.input.endswith(".grp"):
        raise ParseError(
            f"{args.input} is a group file; build a .hopf file with "
            f"'hopfkit build group-algebra|function-algebra|double {args.input}', "
            f"or run 'hopfkit report {args.input} --as ...'"
        )
    else:
        h = _load_hopf(args.input)
    return Pipeline(h, order=args.cyclotomic, seed=args.seed)


@contextmanager
def _analysed(args):
    """The input's Pipeline, for the subcommands that split its centre: a
    NotSemisimpleError raised inside is blamed on the failed Hopf axioms, if
    any, since the integral certificate presumes them."""
    pipe = _pipeline(args)
    try:
        yield pipe
    except NotSemisimpleError as exc:
        failed = [item.id for item in pipe.axioms.failures()]
        if not failed:
            raise
        raise HopfkitError(
            f"{pipe.H.name} fails the Hopf axioms {', '.join(failed)}, so it was not "
            f"analysed further; 'hopfkit check-axioms {args.input}' shows the witnesses"
        ) from exc


def _cmd_build(args) -> int:
    if args.kind == "tensor":
        if len(args.inputs) != 2:
            raise ParseError("build tensor needs exactly two .hopf inputs")
        h1, h2 = map(_load_hopf, args.inputs)
        order = lcm(h1.cyclotomic_order, h2.cyclotomic_order)
        if order > MAX_CYCLOTOMIC_ORDER:
            raise ParseError(
                f"the tensor product of {args.inputs[0]} and {args.inputs[1]} needs cyclotomic order "
                f"lcm({h1.cyclotomic_order}, {h2.cyclotomic_order}) = {order}, "
                f"above the maximum {MAX_CYCLOTOMIC_ORDER}"
            )
        h = tensor_product(h1, h2)
    else:
        if len(args.inputs) != 1:
            raise ParseError(f"build {args.kind} needs exactly one .grp input")
        h = _BUILDERS[args.kind](parse_group(_read(args.inputs[0])))
    _emit(format_hopf(h), args.output)
    return 0


def _emit_document(pipe: Pipeline, reports: list[VerificationReport], output: str | None) -> None:
    doc = report_document(pipe.H.name, pipe.H.dim, reports)
    _emit(json.dumps(doc, indent=2) + "\n", output)


def _cmd_check_axioms(args) -> int:
    pipe = _pipeline(args)
    rep = pipe.axioms
    if args.json:
        _emit_document(pipe, [rep], args.output)
    else:
        _emit(rep.render_text() + "\n", args.output)
    return 0 if rep.overall else 1


def _cmd_integrals(args) -> int:
    pipe = _pipeline(args)
    p = pipe.integrals
    rep = integrals_report(pipe.H, p)
    if args.json:
        _emit_document(pipe, [rep], args.output)
        return 0 if rep.overall else 1
    lines = [
        f"integrals of {pipe.H.name} (dim {pipe.H.dim})",
        f"  lambda  = {format_vector(p.lambda_dual)}",
        f"  Lambda  = {format_vector(p.Lambda)}",
        f"  Lambda' = {format_vector(p.Lambda_scaled)}",
        rep.render_text(),
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if rep.overall else 1


def _cmd_wedderburn(args) -> int:
    with _analysed(args) as pipe:
        blocks = pipe.blocks
    rep = blocks_report(pipe.H, blocks)
    if args.json:
        _emit_document(pipe, [rep], args.output)
        return 0 if rep.overall else 1
    lines = [
        f"wedderburn decomposition of {pipe.H.name} (dim {pipe.H.dim}, Q(zeta_{pipe.order}))",
        f"  blocks: {blocks.count}",
        f"  degrees: {blocks.degrees}",
    ]
    for label, deg, e in zip(blocks.labels, blocks.degrees, blocks.idempotents):
        lines.append(f"  {label} (dim {deg}): e = {format_vector(e)}")
    lines.append(rep.render_text())
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if rep.overall else 1


def _cmd_characters(args) -> int:
    with _analysed(args) as pipe:
        table = pipe.table
        fusion = pipe.fusion
    central = [is_central_character(chi, pipe.H) for chi in table.characters]
    if args.json:
        doc = {
            "algebra": pipe.H.name,
            "dim": pipe.H.dim,
            "cyclotomic": pipe.order,
            "labels": table.labels,
            "degrees": table.degrees,
            "characters": [[format_scalar(c) for c in chi] for chi in table.characters],
            "central": central,
            "fusion": fusion.tensor,
            "dual_map": list(fusion.dual_map),
            "unit": fusion.unit_index,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
        return 0
    lines = [f"characters of {pipe.H.name} (dim {pipe.H.dim})"]
    for label, deg, chi, is_c in zip(table.labels, table.degrees, table.characters, central):
        lines.append(f"  chi_{label} (dim {deg}, central: {is_c}) = {format_vector(chi)}")
    lines.append(f"  duality permutation: {list(fusion.dual_map)}")
    lines.append("  fusion tensor (chi_V chi_W = sum_U n[V][W][U] chi_U):")
    for v, lv in enumerate(fusion.labels):
        for w, lw in enumerate(fusion.labels):
            terms = [
                f"{n} chi_{fusion.labels[u]}" for u, n in enumerate(fusion.tensor[v][w]) if n
            ]
            lines.append(f"    chi_{lv} chi_{lw} = " + (" + ".join(terms) if terms else "0"))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _render_report(args, suites: tuple[str, ...]) -> int:
    with _analysed(args) as pipe:
        reports = [pipe.suite(name) for name in suites]
    overall = all(rep.overall for rep in reports if not rep.exploratory)
    if args.json:
        _emit_document(pipe, reports, args.output)
    else:
        lines = [f"verification of {pipe.H.name} (dim {pipe.H.dim})"]
        lines += [rep.render_text() for rep in reports]
        lines.append(f"overall: {'pass' if overall else 'FAIL'}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if overall else 1


def _cmd_verify(args) -> int:
    return _render_report(args, SUITES if args.suite == "all" else (args.suite,))


def _cmd_report(args) -> int:
    return _render_report(args, SUITES)


_COMMANDS = {
    "build": _cmd_build,
    "check-axioms": _cmd_check_axioms,
    "integrals": _cmd_integrals,
    "wedderburn": _cmd_wedderburn,
    "characters": _cmd_characters,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        where = f"hopfkit {exc.command}" if exc.command else "hopfkit"
        print(f"{_usage(exc.command)}\n{where}: error: {exc}", file=sys.stderr)
        return 2
    if args is None:  # --help
        return 0
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HopfkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
