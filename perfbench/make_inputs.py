"""Write the committed workload inputs and the reference digests of every op.

    python3 perfbench/make_inputs.py [--seeds 0,1,...]

Run from the root of a source checkout.  It writes ``perfbench/inputs`` (the
built-in ``.grp`` files, the D(G)* ``.hopf`` files and D(C2xC2)) and
``perfbench/expected.json``, the sha256 of each op's stdout and output file
with the given seeds (default 0).  An op whose bytes differ between seeds is
stored per seed under ``by_seed``.  Rerun it only when hopfkit's output
format changes on purpose, and say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import observed_digests, run_ops  # noqa: E402
from workloads import DOUBLE_GROUPS, EXPECTED, INPUTS, WORKLOADS  # noqa: E402


def write_inputs() -> None:
    from hopfkit import builtin_group, builtin_grp_text, drinfeld_double, dualize, format_hopf

    INPUTS.mkdir(exist_ok=True)
    for path in INPUTS.iterdir():
        path.unlink()
    for name in ("C2", "C3", "C4", "C2xC2", "S3", "D4", "Q8"):
        (INPUTS / f"{name}.grp").write_text(builtin_grp_text(name))
    for name in DOUBLE_GROUPS:
        (INPUTS / f"D{name}-dual.hopf").write_text(format_hopf(dualize(drinfeld_double(builtin_group(name)))))
    (INPUTS / "DC2xC2.hopf").write_text(format_hopf(drinfeld_double(builtin_group("C2xC2"))))


def digests_for(workload: str, seed: int) -> dict[str, dict]:
    import hopfkit.cli as cli

    work = HERE / "out" / "work" / f"make-{os.getpid()}"
    shutil.copytree(INPUTS, work)
    cwd = Path.cwd()
    os.chdir(work)
    try:
        ops = WORKLOADS[workload]
        _, _, outcomes = run_ops(cli, ops, seed, lambda op, main, args: main(args))
        out = {}
        for op, (stdout, code, _) in zip(ops, outcomes):
            if code != 0:
                raise SystemExit(f"{workload} {op.id}: exit {code}")
            out[op.id] = observed_digests(op, stdout)
        return out
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0")
    seeds = [int(s) for s in parser.parse_args().seeds.split(",")]
    sys.path.insert(0, str(Path.cwd() / "src"))
    write_inputs()
    expected: dict[str, dict] = {}
    for workload in WORKLOADS:
        per_seed = {seed: digests_for(workload, seed) for seed in seeds}
        expected[workload] = {}
        for op in WORKLOADS[workload]:
            refs = {seed: per_seed[seed][op.id] for seed in seeds}
            if all(ref == refs[seeds[0]] for ref in refs.values()):
                expected[workload][op.id] = refs[seeds[0]]
            else:
                print(f"{workload} {op.id}: output depends on --seed", file=sys.stderr)
                expected[workload][op.id] = {"by_seed": {str(s): r for s, r in refs.items()}}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
