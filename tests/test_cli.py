"""The hopfkit command line: subcommands, exit codes, and determinism."""

import copy
import json

import pytest

from hopfkit import builtin_group, builtin_grp_text, drinfeld_double, format_hopf, group_algebra, parse_hopf
from hopfkit import cli
from hopfkit.cli import main


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "s3.grp").write_text(builtin_grp_text("S3"))
    (tmp_path / "c2.grp").write_text(builtin_grp_text("C2"))
    return tmp_path


def test_build_and_check_round_trip(workdir, capsys):
    out = workdir / "ks3.hopf"
    assert main(["build", "group-algebra", str(workdir / "s3.grp"), "-o", str(out)]) == 0
    h = parse_hopf(out.read_text())
    assert h.dim == 6 and h.cyclotomic_order == 6
    assert main(["check-axioms", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "assoc" in text


def test_build_double_then_verify(workdir):
    out = workdir / "dc2.hopf"
    assert main(["build", "double", str(workdir / "c2.grp"), "-o", str(out)]) == 0
    assert main(["check-axioms", str(out), "-o", str(workdir / "axioms.txt")]) == 0
    assert main(["verify", str(out), "--suite", "lemma1", "-o", str(workdir / "l1.txt")]) == 0
    assert "pass" in (workdir / "l1.txt").read_text()


def test_build_tensor(workdir):
    a = workdir / "ks3.hopf"
    b = workdir / "kc2f.hopf"
    main(["build", "group-algebra", str(workdir / "s3.grp"), "-o", str(a)])
    main(["build", "function-algebra", str(workdir / "c2.grp"), "-o", str(b)])
    t = workdir / "t.hopf"
    assert main(["build", "tensor", str(a), str(b), "-o", str(t)]) == 0
    assert parse_hopf(t.read_text()).dim == 12


def test_integrals_output(workdir, capsys):
    out = workdir / "kc2.hopf"
    main(["build", "group-algebra", str(workdir / "c2.grp"), "-o", str(out)])
    assert main(["integrals", str(out)]) == 0
    text = capsys.readouterr().out
    assert "lambda  = (1, 0)" in text
    assert "Lambda  = (1, 1)" in text
    assert "Lambda' = (1/2, 1/2)" in text
    assert "<eps, Lambda> = dim H" in text


def test_wedderburn_output(workdir, capsys):
    out = workdir / "ks3.hopf"
    main(["build", "group-algebra", str(workdir / "s3.grp"), "-o", str(out)])
    assert main(["wedderburn", str(out), "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert "degrees: [1, 1, 2]" in text


def test_characters_json(workdir, capsys):
    out = workdir / "ks3.hopf"
    main(["build", "group-algebra", str(workdir / "s3.grp"), "-o", str(out)])
    assert main(["characters", str(out), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degrees"] == [1, 1, 2]
    assert doc["central"] == [True, True, True]
    assert len(doc["fusion"]) == 3


def test_characters_json_cyclotomic_literals(workdir, capsys):
    # kC3 characters take values in Q(zeta_3); the JSON report renders them in
    # the scalar literal grammar, parseable back at the declared order
    from hopfkit import parse_scalar

    (workdir / "c3.grp").write_text(builtin_grp_text("C3"))
    out = workdir / "kc3.hopf"
    main(["build", "group-algebra", str(workdir / "c3.grp"), "-o", str(out)])
    assert main(["characters", str(out), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cyclotomic"] == 3
    flattened = [lit for chi in doc["characters"] for lit in chi]
    assert any("z" in lit for lit in flattened)
    for lit in flattened:
        parse_scalar(lit, doc["cyclotomic"])  # must not raise


def test_verify_failing_file_exits_1(workdir, capsys):
    # break coassociativity in a hand-written file
    bad = workdir / "bad.hopf"
    bad.write_text(
        "hopf broken\ndim 2\ncyclotomic 1\n"
        "MULT\n0 0 0 1\n0 1 1 1\n1 0 1 1\n1 1 0 1\n"
        "COMULT\n0 0 0 1\n1 0 1 1\n"
        "UNIT\n0 1\nCOUNIT\n0 1\n1 1\n"
        "ANTIPODE\n0 0 1\n1 1 1\n"
    )
    assert main(["verify", str(bad), "--suite", "axioms"]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text


def test_parse_error_exits_2(workdir, capsys):
    bad = workdir / "bad.grp"
    bad.write_text("group X\norder 2\nelements e g\ntable\ne q\ng e\n")
    assert main(["report", str(bad), "--as", "group-algebra"]) == 2
    assert "error" in capsys.readouterr().err
    huge = workdir / "huge.grp"  # more digits than int() converts
    huge.write_text("group X\norder 1" + "0" * 5000 + "\nelements e\ntable\ne\n")
    assert main(["report", str(huge), "--as", "group-algebra"]) == 2
    assert capsys.readouterr().err == "error: line 2: order expects one positive integer\n"
    late = workdir / "late.hopf"
    late.write_text("hopf x\ndim 2\nMULT\n1 1 1 1\ndim 1\n")  # dim redeclared after data
    assert main(["check-axioms", str(late)]) == 2
    assert "error" in capsys.readouterr().err
    superscript = workdir / "superscript.hopf"
    superscript.write_text("hopf x\ndim \u00b2\n", encoding="utf-8")
    assert main(["check-axioms", str(superscript)]) == 2
    assert "error" in capsys.readouterr().err
    oversized = workdir / "oversized.hopf"
    oversized.write_text("hopf x\ndim 1000000\nMULT\n0 0 0 1\n")  # dim beyond the data
    assert main(["check-axioms", str(oversized)]) == 2
    assert "error" in capsys.readouterr().err


def test_cyclotomic_order_above_the_maximum_exits_2(workdir, capsys):
    # checked where the order enters: the .hopf header, --cyclotomic and the
    # lcm that build tensor would write
    kc2 = format_hopf(group_algebra(builtin_group("C2")))
    assert "\ncyclotomic 2\n" in kc2
    for order, code in ((1000, 0), (1009, 2)):
        (workdir / "order.hopf").write_text(kc2.replace("\ncyclotomic 2\n", f"\ncyclotomic {order}\n"))
        assert main(["check-axioms", str(workdir / "order.hopf")]) == code
    assert capsys.readouterr().err == "error: line 3: cyclotomic order 1009 exceeds the maximum 1000\n"
    assert main(["report", str(workdir / "missing.hopf"), "--cyclotomic", "1009"]) == 2
    assert capsys.readouterr() == ("", "error: --cyclotomic must be <= 1000\n")
    a, b = workdir / "a.hopf", workdir / "b.hopf"
    a.write_text(kc2.replace("\ncyclotomic 2\n", "\ncyclotomic 32\n"))
    b.write_text(kc2.replace("\ncyclotomic 2\n", "\ncyclotomic 33\n"))
    assert main(["build", "tensor", str(a), str(b), "-o", str(workdir / "t.hopf")]) == 2
    assert capsys.readouterr() == ("", (
        f"error: the tensor product of {a} and {b} needs cyclotomic order lcm(32, 33) = 1056, "
        "above the maximum 1000\n"
    ))
    assert not (workdir / "t.hopf").exists()


def test_missing_file_exits_2(capsys):
    assert main(["check-axioms", "/nonexistent/x.hopf"]) == 2


def test_directory_input_exits_2(workdir, capsys):
    assert main(["check-axioms", str(workdir)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_invalid_utf8_exits_2(workdir, capsys):
    latin1 = workdir / "latin1.hopf"
    latin1.write_bytes("hopf caf\u00e9\ndim 1\n".encode("latin-1"))
    assert main(["check-axioms", str(latin1)]) == 2
    assert "utf-8" in capsys.readouterr().err


def test_invalid_utf8_error_names_the_file(workdir, capsys):
    good = workdir / "good.hopf"
    main(["build", "group-algebra", str(workdir / "c2.grp"), "-o", str(good)])
    bad = workdir / "bad.hopf"
    bad.write_bytes("hopf caf\u00e9\ndim 1\n".encode("latin-1"))
    assert main(["build", "tensor", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "utf-8" in err and "good.hopf" not in err


def test_build_output_to_directory_exits_2(workdir, capsys):
    assert main(["build", "group-algebra", str(workdir / "c2.grp"), "-o", str(workdir)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_report_hopf_rejects_as(workdir, capsys):
    out = workdir / "kc2.hopf"
    main(["build", "group-algebra", str(workdir / "c2.grp"), "-o", str(out)])
    assert main(["report", str(out), "--as", "double"]) == 2
    assert "--as applies only to .grp inputs" in capsys.readouterr().err


def test_grp_report_requires_as(workdir, capsys):
    assert main(["report", str(workdir / "s3.grp")]) == 2
    assert "--as" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["build", "tensor", "just-one.hopf"]) == 2


def test_one_parser_per_process_keeps_help_and_usage_errors(capsys):
    # one grammar table per process, which reading argv leaves unchanged
    grammar = copy.deepcopy(cli._GRAMMAR)
    for _ in range(2):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: hopfkit")
        assert main(["verify", "x.hopf", "--suite", "nope"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert main(["check-axioms"]) == 2
        assert "required: input" in capsys.readouterr().err
        assert cli._GRAMMAR == grammar


_COMMANDS = ("build", "check-axioms", "integrals", "wedderburn", "characters", "verify", "report")


@pytest.mark.parametrize("argv,code,fragment", [
    (["--help"], 0, "usage: hopfkit <command>"),
    (["-h"], 0, "usage: hopfkit <command>"),
    *[([command, "--help"], 0, f"usage: hopfkit {command} ") for command in _COMMANDS],
    (["report", "kc2.hopf", "-h"], 0, "usage: hopfkit report "),
    (["check-axioms", "--bogus", "-h"], 0, "usage: hopfkit check-axioms "),
    (["check-axioms", "kc2.hopf", "--seed=-3"], 0, "PASS"),
    (["check-axioms", "kc2.hopf", "--seed", "-3"], 0, "PASS"),
    (["check-axioms", "--json", "--seed", "1", "kc2.hopf"], 0, '"algebra": "k[C2]"'),
    (["check-axioms", "kc2.hopf", "--json", "--seed", "1", "--seed", "2"], 0, '"algebra": "k[C2]"'),
    (["verify", "--suite", "axioms", "kc2.hopf", "--suite=lemma1"], 0, "lemma1"),
    (["check-axioms", "kc2.hopf", "--bogus"], 2, "error: unrecognized arguments: --bogus"),
    # prefixes of an option are not read as the option
    (["report", "kc2.hopf", "--cyc", "3"], 2, "error: unrecognized arguments: --cyc"),
    (["build", "x.grp", "--seed", "1"], 2, "error: argument kind: invalid choice: 'x.grp'"),
    (["build", "double", "c2.grp", "--seed", "1"], 2, "error: unrecognized arguments: --seed"),
    (["check-axioms", "x.hopf", "--as", "double"], 2, "error: unrecognized arguments: --as double"),
    (["report", "kc2.hopf", "--seed"], 2, "error: argument --seed: expected one argument"),
    (["report", "kc2.hopf", "-o", "--json"], 2, "error: argument -o: expected one argument"),
    (["report", "kc2.hopf", "-o"], 2, "error: argument -o: expected one argument"),
    (["report", "kc2.hopf", "--seed", "x"], 2, "error: argument --seed: invalid int value: 'x'"),
    (["report", "kc2.hopf", "--cyclotomic=1.5"], 2, "error: argument --cyclotomic: invalid int value: '1.5'"),
    (["report", "kc2.hopf", "--json=yes"], 2, "error: argument --json: ignored explicit argument 'yes'"),
    (["check-axioms", "kc2.hopf", "kc2.hopf"], 2, "error: unrecognized arguments: kc2.hopf"),
    (["build", "tensor"], 2, "error: the following arguments are required: inputs"),
    ([], 2, "hopfkit: error: the following arguments are required: command"),
    (["--json"], 2, "hopfkit: error: argument command: invalid choice: '--json'"),
])
def test_command_line_grammar(workdir, capsys, monkeypatch, argv, code, fragment):
    monkeypatch.chdir(workdir)
    (workdir / "kc2.hopf").write_text(format_hopf(group_algebra(builtin_group("C2"))))
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert fragment in out and err == ""
    else:
        command = f"hopfkit {argv[0]}" if argv and argv[0] in _COMMANDS else "hopfkit"
        assert out == "" and err.startswith(f"usage: {command} ")
        assert fragment in err and err.endswith("\n") and err.count("\n") == 2
    assert "Traceback" not in out + err


_DEFAULTS = {"cyclotomic": None, "seed": 0, "json": False, "output": None}


@pytest.mark.parametrize("argv,fields", [
    (["report", "s3.grp", "--as", "double", "--seed=-3"],
     {**_DEFAULTS, "command": "report", "input": "s3.grp", "build_as": "double", "seed": -3}),
    (["verify", "--suite=lemma1", "--json", "x.hopf", "--suite", "axioms", "--cyclotomic", "12"],
     {**_DEFAULTS, "command": "verify", "input": "x.hopf", "suite": "axioms", "json": True, "cyclotomic": 12}),
    (["build", "-o=t.hopf", "tensor", "a.hopf", "b.hopf"],
     {"command": "build", "kind": "tensor", "inputs": ["a.hopf", "b.hopf"], "output": "t.hopf"}),
    (["wedderburn", "-ow.txt", "x.hopf", "--output", "v.txt"],
     {**_DEFAULTS, "command": "wedderburn", "input": "x.hopf", "output": "v.txt"}),
    (["characters", "--", "-x.hopf"], {**_DEFAULTS, "command": "characters", "input": "-x.hopf"}),
    (["integrals", "-3", "-o", "-"], {**_DEFAULTS, "command": "integrals", "input": "-3", "output": "-"}),
])
def test_command_line_fields(argv, fields):
    assert vars(cli._parse(argv)) == fields


def test_nonsemisimple_exits_1(workdir, capsys, sweedler):
    path = workdir / "sw.hopf"
    path.write_text(format_hopf(sweedler))
    assert main(["check-axioms", str(path)]) == 0
    capsys.readouterr()
    # every axiom passes, so the subcommands that split the centre blame semisimplicity too
    for command in ("integrals", "wedderburn", "characters", "verify", "report"):
        assert main([command, str(path)]) == 1
        assert "not semisimple" in capsys.readouterr().err


def test_cyclotomic_flag_field_too_small(workdir, capsys):
    (workdir / "c3.grp").write_text(builtin_grp_text("C3"))
    out = workdir / "kc3.hopf"
    main(["build", "group-algebra", str(workdir / "c3.grp"), "-o", str(out)])
    assert main(["wedderburn", str(out)]) == 0
    capsys.readouterr()
    # forcing N = 1 makes the eigenvalues fall outside the field
    assert main(["wedderburn", str(out), "--cyclotomic", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: k[C3]: the minimal polynomial of center basis element z1 has the irreducible "
        "factor x^2 + x + 1, which does not split over Q(zeta_1); increase the cyclotomic order\n"
    )
    assert main(["wedderburn", str(out), "--cyclotomic", "0"]) == 2


_ANALYSIS = ("check-axioms", "integrals", "wedderburn", "characters", "verify", "report")


@pytest.mark.parametrize("command", _ANALYSIS)
def test_shared_options_on_every_analysis_subcommand(workdir, capsys, command):
    ks3 = workdir / "ks3.hopf"
    main(["build", "group-algebra", str(workdir / "s3.grp"), "-o", str(ks3)])
    capsys.readouterr()
    out = workdir / "out.json"
    assert main([command, str(ks3), "--seed", "3", "--json", "-o", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert json.loads(out.read_text())["algebra"] == "k[S3]"
    # --cyclotomic is checked before the input is read
    missing = workdir / "missing.hopf"
    assert main([command, str(missing), "--cyclotomic", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --cyclotomic must be >= 1\n")


@pytest.mark.parametrize("command", [c for c in _ANALYSIS if c != "report"])
def test_grp_input_names_the_file_and_the_fix(workdir, capsys, command):
    grp = workdir / "s3.grp"
    assert main([command, str(grp)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {grp} is a group file; build a .hopf file with "
        f"'hopfkit build group-algebra|function-algebra|double {grp}', "
        f"or run 'hopfkit report {grp} --as ...'\n"
    ))


@pytest.mark.parametrize("argv", [["report"], ["report", "--json"], ["verify"]])
def test_failed_axioms_are_named_before_semisimplicity(workdir, capsys, monkeypatch, argv):
    # Delta(b1) = b1 (x) b0 breaks the counit and antipode axioms; the integral
    # certificate then fails too, but the error names the axioms
    monkeypatch.chdir(workdir)
    (workdir / "bad.hopf").write_text(
        "hopf broken\ndim 2\ncyclotomic 1\n"
        "MULT\n0 0 0 1\n0 1 1 1\n1 0 1 1\n1 1 0 1\n"
        "COMULT\n0 0 0 1\n1 0 1 1\n"
        "UNIT\n0 1\nCOUNIT\n0 1\n1 1\n"
        "ANTIPODE\n0 0 1\n1 1 1\n"
    )
    assert main([*argv, "bad.hopf"]) == 1
    assert capsys.readouterr() == ("", (
        "error: broken fails the Hopf axioms counit, antipode-left, antipode-right, so it "
        "was not analysed further; 'hopfkit check-axioms bad.hopf' shows the witnesses\n"
    ))


def _unmultiplied_double_dual() -> str:
    """D(C2)* without its MULT line 3 3 1 1: the coproduct is no longer an
    algebra map, and z3 in the centre has minimal polynomial x^2."""
    lines = format_hopf(drinfeld_double(builtin_group("C2")).dual).splitlines(keepends=True)
    return "".join(line for line in lines if line != "3 3 1 1\n")


@pytest.mark.parametrize("command", ["report", "verify", "wedderburn", "characters"])
def test_repeated_eigenvalue_is_not_semisimple(workdir, capsys, monkeypatch, command):
    # the integral certificate passes on this non-Hopf input; the split then
    # meets the repeated factor x of x^2, which a semisimple centre cannot have,
    # and every subcommand that splits the centre blames the failed axioms
    monkeypatch.chdir(workdir)
    (workdir / "bad.hopf").write_text(_unmultiplied_double_dual())
    assert main([command, "bad.hopf"]) == 1
    err = (
        "error: dual(D(C2)) fails the Hopf axioms comult-alg-map, antipode-left, "
        "antipode-right, so it was not analysed further; 'hopfkit check-axioms bad.hopf' "
        "shows the witnesses\n"
    )
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "group,kind,order,factor",
    [("C4", "group-algebra", 2, "x^2 + 1"), ("C3", "double", 1, "x^2 + x + 1")],
)
def test_report_field_too_small_names_the_factor(workdir, capsys, group, kind, order, factor):
    path = workdir / f"{group}.grp"
    path.write_text(builtin_grp_text(group))
    assert main(["report", str(path), "--as", kind, "--cyclotomic", str(order)]) == 1
    name = {"group-algebra": f"k[{group}]", "double": f"D({group})"}[kind]
    assert capsys.readouterr().err == (
        f"error: {name}: the minimal polynomial of center basis element z1 has the irreducible "
        f"factor {factor}, which does not split over Q(zeta_{order}); increase the cyclotomic order\n"
    )


def test_report_byte_identical(workdir):
    r1, r2 = workdir / "r1.json", workdir / "r2.json"
    args = ["report", str(workdir / "s3.grp"), "--as", "group-algebra", "--json", "--seed", "5"]
    assert main(args + ["-o", str(r1)]) == 0
    assert main(args + ["-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_report_schema(workdir):
    out = workdir / "rep.json"
    assert main(
        ["report", str(workdir / "s3.grp"), "--as", "function-algebra", "--json", "-o", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"algebra", "dim", "suites", "overall"}
    assert doc["overall"] is True
    names = [s["name"] for s in doc["suites"]]
    assert names == [
        "axioms", "integrals", "lemma1", "corollary",
        "proposition", "section4", "kaplansky", "central-fusion",
    ]
    for suite in doc["suites"]:
        assert set(suite) == {"name", "items"}
        for item in suite["items"]:
            assert set(item) == {"id", "statement", "pass", "witness"}


def test_report_from_hopf_file(workdir, capsys):
    out = workdir / "ks3.hopf"
    main(["build", "group-algebra", str(workdir / "s3.grp"), "-o", str(out)])
    assert main(["report", str(out), "-o", str(workdir / "rep.txt")]) == 0
    assert "overall: pass" in (workdir / "rep.txt").read_text()


def test_exploratory_suite_excluded_from_exit_code(workdir, capsys):
    # exploratory items are labeled and do not gate the exit code; on these
    # examples they pass anyway, so verify the labeling only
    out = workdir / "ks3.hopf"
    main(["build", "group-algebra", str(workdir / "s3.grp"), "-o", str(out)])
    assert main(["verify", str(out), "--suite", "central-fusion"]) == 0
    text = capsys.readouterr().out
    assert "exploratory" in text


def test_python_dash_m_runs_the_cli(workdir):
    # the `python -m hopfkit` entry point: the CLI's output and exit codes
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hopfkit

    package_root = str(Path(hopfkit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": package_root + (os.pathsep + path if path else "")}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "hopfkit", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    built = run("build", "group-algebra", str(workdir / "c2.grp"))
    assert (built.returncode, built.stderr) == (0, "")
    assert built.stdout == format_hopf(group_algebra(builtin_group("C2")))
    missing = run("check-axioms", str(workdir / "missing.hopf"))
    assert missing.returncode == 2 and missing.stderr.startswith("error: ")


def test_build_from_a_group_needs_one_input(workdir, capsys):
    grp = str(workdir / "c2.grp")
    assert main(["build", "double", grp, grp]) == 2
    assert capsys.readouterr() == ("", "error: build double needs exactly one .grp input\n")


@pytest.mark.parametrize("text,code,message", [
    # rows are permutations, but column e holds e twice
    ("group X\norder 2\nelements e g\ntable\ne g\ne g\n", 1,
     "Latin-square violation in column 0 (e)"),
    ("group X\norder 2\nelements e e\ntable\ne e\ne e\n", 2, "line 3: duplicate element name"),
    ("group X\norder 2\n", 2, "missing 'elements' declaration"),
    # an order header after the elements is checked once the file is read
    ("group X\nelements e g\norder 3\ntable\ne g\ng e\n", 2,
     "order does not match number of elements"),
])
def test_grp_rejections(workdir, capsys, text, code, message):
    bad = workdir / "bad.grp"
    bad.write_text(text)
    assert main(["build", "group-algebra", str(bad)]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
