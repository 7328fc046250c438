"""The public namespace of the package."""

import os
import subprocess
import sys
from pathlib import Path

import hopfkit


def test_all_is_sorted_unique_and_resolves():
    names = hopfkit.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(hopfkit, name)] == []


def _loaded_in_a_fresh_interpreter(statement, modules):
    """The names among ``modules`` that a fresh interpreter has loaded after
    running ``statement``."""
    package_root = str(Path(hopfkit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": package_root + (os.pathsep + path if path else "")}
    code = f"import sys; {statement}; print(sorted({set(modules)!r} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_does_not_load_the_cli():
    # the library never depends on its command line: a fresh interpreter that
    # imports hopfkit has loaded neither hopfkit.cli nor argparse
    assert _loaded_in_a_fresh_interpreter("import hopfkit", ("hopfkit.cli", "argparse")) == "[]\n"


def test_the_cli_reads_argv_without_argparse():
    # a fresh `import hopfkit.cli` pays for no argument-parsing library
    assert _loaded_in_a_fresh_interpreter("import hopfkit.cli", ("argparse", "gettext")) == "[]\n"


def test_one_element_form():
    # elements are sparse Vectors; the dense helpers are gone from linalg
    import hopfkit.linalg

    gone = ("vec_scale", "vec_eq", "vec_is_zero", "zero_vector", "unit_vector", "basis_vector")
    assert [name for name in gone if hasattr(hopfkit.linalg, name)] == []
    assert not hasattr(hopfkit.HopfData, "basis_vector")


def test_one_semisimplicity_certificate():
    # compute_integrals is the one certificate: the block and integrals entries
    # take no caller-supplied pair or default, and the uncertified split and
    # its second certificate are not public
    import inspect

    import hopfkit.integrals
    import hopfkit.polys
    import hopfkit.wedderburn

    assert "integrals" not in inspect.signature(hopfkit.primitive_idempotents).parameters
    pair = inspect.signature(hopfkit.integrals_report).parameters["p"]
    assert pair.default is inspect.Parameter.empty
    gone = [("wedderburn", "split_center"), ("wedderburn", "_certify_semisimple"),
            ("integrals", "left_absorption_failure")]
    assert [m for m, name in gone if hasattr(getattr(hopfkit, m), name)] == []
    assert list(inspect.signature(hopfkit.ParseError).parameters) == ["message", "line"]
    assert list(inspect.signature(hopfkit.polys.format_poly).parameters) == ["p"]


def test_reports_never_build_a_dense_matrix(monkeypatch):
    # Matrix and kernel_basis stay importable for dense callers, but no report
    # runs through them: the kernels take their sparse columns straight
    import json

    import hopfkit.linalg

    algebras = [hopfkit.group_algebra(hopfkit.builtin_group("S3")),
                hopfkit.drinfeld_double(hopfkit.builtin_group("C2"))]
    want = [json.dumps(hopfkit.Pipeline(h).report_document()) for h in algebras]

    def dense(*args, **kwargs):
        raise AssertionError("a report built a dense matrix")

    monkeypatch.setattr(hopfkit.linalg, "Matrix", dense)
    monkeypatch.setattr(hopfkit.linalg, "kernel_basis", dense)
    assert [json.dumps(hopfkit.Pipeline(h).report_document()) for h in algebras] == want


def test_one_store_for_h_and_its_dual():
    # H*'s views are read off H.dual, which shares H's tensors; the stand-ins
    # that HopfData kept for them are gone
    gone = ("mult_by_output", "dual_generating_rows")
    assert [name for name in gone if hasattr(hopfkit.HopfData, name)] == []


def test_every_module_stays_below_the_compile_peak_step():
    # the CLI's children compile hopfkit from source, and a module compiled
    # late (factor.py, cli.py) is compiled when the heap is already large:
    # past 4096 parser tokens its compile peak steps up by about 0.2 MB, which
    # reads as a peak_rss_mb regression on every benchmark workload without
    # any run-time cost
    import io
    import tokenize

    counts = {}
    for path in sorted(Path(hopfkit.__file__).parent.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        counts[path.name] = sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)
    assert "factor.py" in counts and "cli.py" in counts
    assert {name: n for name, n in counts.items() if n >= 4096} == {}
