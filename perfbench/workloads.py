"""The benchmark's workloads: fixed hopfkit CLI invocations over committed inputs.

Each op is one ``hopfkit`` command line.  Its input files live in
``perfbench/inputs`` (written once by ``make_inputs.py``); the sha256 of every
op's expected output bytes lives in ``perfbench/expected.json``.  The workload
seed reaches hopfkit as ``--seed`` (splitting-element draws, hence the
polynomials that get factored) and shuffles the op order of ``report-ladder``.
Every pass takes a few seconds, so that a run holds several passes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected.json"

BUILTIN_GROUPS = ("C2", "C3", "C4", "C2xC2", "S3", "D4", "Q8")
DOUBLE_GROUPS = ("C2", "C3")

# the subcommands that accept --seed; `build` does not
_SEEDED = ("report", "check-axioms", "integrals")


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    output: str | None = None  # file the op writes instead of stdout

    def command(self, seed: int) -> list[str]:
        argv = list(self.argv)
        if argv[0] in _SEEDED:
            argv += ["--seed", str(seed)]
        return argv


def _report(op_id: str, path: str, build_as: str | None = None) -> Op:
    argv = ["report", path] + (["--as", build_as] if build_as else []) + ["--json"]
    return Op(op_id, tuple(argv))


def _ladder() -> list[Op]:
    ops = []
    for g in BUILTIN_GROUPS:
        ops.append(_report(f"k{g}", f"{g}.grp", "group-algebra"))
        ops.append(_report(f"k^{g}", f"{g}.grp", "function-algebra"))
    for g in DOUBLE_GROUPS:
        ops.append(_report(f"D({g})", f"{g}.grp", "double"))
        ops.append(_report(f"D({g})*", f"D{g}-dual.hopf"))
    return ops


WORKLOADS: dict[str, list[Op]] = {
    "report-d36": [_report("D(S3)", "S3.grp", "double")],
    "report-ladder": _ladder(),
    "certify-d64": [
        Op("tensor", ("build", "tensor", "DC2xC2.hopf", "DC2-dual.hopf", "-o", "T.hopf"), output="T.hopf"),
        Op("check-axioms", ("check-axioms", "T.hopf", "--json")),
        Op("integrals", ("integrals", "T.hopf", "--json")),
    ],
}


def ops_for(workload: str, seed: int) -> list[Op]:
    """The ops of one pass, in the order the seed gives them."""
    ops = list(WORKLOADS[workload])
    if workload == "report-ladder":
        random.Random(seed).shuffle(ops)
    return ops


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    """Reference digests: ``{workload: {op id: {"stdout": sha, "file": sha}}}``.

    An op whose bytes depend on ``--seed`` would store ``{"by_seed": {seed:
    {...}}}`` instead; none does at the commit these were recorded from.
    """
    return json.loads(EXPECTED.read_text())


def expected_for(expected: dict, workload: str, op: Op, seed: int) -> dict | None:
    ref = expected.get(workload, {}).get(op.id)
    if ref is not None and "by_seed" in ref:
        return ref["by_seed"].get(str(seed))
    return ref
