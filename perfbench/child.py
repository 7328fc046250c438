"""One benchmark process: set up, then run at most one pass of a workload.

Started by ``run.py`` as ``python3 child.py ROOT WORKLOAD SEED WORKDIR [OPS]``
(OPS: comma-separated op ids to keep, for the self-test).  It
imports hopfkit from ``ROOT/src``, stages the committed inputs into WORKDIR
and prints ``ready`` with the speed samples of its set-up (see ``speed.py``).
Then it reads one command from stdin:

* ``exit``  - stop (a set-up-only sample);
* ``pass``  - run the workload's ops once, untraced, inside a
  ``speed.SpeedProbe``;
* ``trace`` - run the scalar microbenchmarks, then the ops once with
  spans installed.

It answers with one JSON line on stdout and removes WORKDIR.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from speed import SpeedProbe

SETUP_PROBE_SAMPLES = 3  # reference loops when the script starts, and again when it is ready


def run_ops(cli, ops, seed: int, call, probe: SpeedProbe | None = None) -> tuple[float, float, list[tuple[str, object, float]]]:
    """Run every op through ``call(op, main, argv)``; returns (pass wall
    seconds, pass CPU seconds, [(stdout, exit code or exception text, seconds)]).
    With a ``probe``, the pass runs inside it and the seconds spent in its
    loop are taken off both totals."""
    outcomes = []
    cpu = time.process_time()
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        for op in ops:
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = call(op, cli.main, op.command(seed))
            except Exception as exc:  # an op that raises is a failed op, not a crash of the benchmark
                code = f"{type(exc).__name__}: {exc}"
            outcomes.append((buf.getvalue(), code, time.perf_counter() - t0))
    probe_s = probe.probe_seconds() if probe else 0.0
    return time.perf_counter() - start - probe_s, time.process_time() - cpu - probe_s, outcomes


def observed_digests(op, stdout: str) -> dict:
    from workloads import digest

    got = {"stdout": digest(stdout.encode())}
    if op.output is not None and Path(op.output).is_file():
        got["file"] = digest(Path(op.output).read_bytes())
    return got


def _check(workload: str, ops, seed: int, outcomes) -> list[dict]:
    from workloads import expected_for, load_expected

    expected = load_expected()
    rows = []
    for op, (stdout, code, seconds) in zip(ops, outcomes):
        ref = expected_for(expected, workload, op, seed)
        got = observed_digests(op, stdout)
        if code != 0:
            status = f"exit {code}" if isinstance(code, int) else code
        elif ref is None:
            status = "no reference digest"
        elif got != ref:
            status = "output digest differs from reference"
        else:
            status = "ok"
        rows.append({"id": op.id, "status": status, "seconds": seconds, "digests": got})
    return rows


def main(argv: list[str]) -> int:
    root, workload, seed, workdir = Path(argv[0]), argv[1], int(argv[2]), Path(argv[3])
    keep = argv[4].split(",") if len(argv) > 4 else None
    setup_probe = SpeedProbe()
    for _ in range(SETUP_PROBE_SAMPLES):
        setup_probe.sample()
    sys.path.insert(0, str(root / "src"))
    import hopfkit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"hopfkit imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    from workloads import INPUTS, ops_for

    try:
        workdir.mkdir(parents=True)
        for path in INPUTS.iterdir():
            shutil.copyfile(path, workdir / path.name)
        os.chdir(workdir)
        ops = [op for op in ops_for(workload, seed) if keep is None or op.id in keep]
        for _ in range(SETUP_PROBE_SAMPLES):
            setup_probe.sample()
        speed = {"probe_s": setup_probe.probe_seconds(), "scale": setup_probe.reference_seconds(1.0)}
        print("ready", json.dumps(speed), flush=True)

        command = sys.stdin.readline().strip()
        if command == "exit":
            return 0
        result: dict = {}
        if command == "pass":
            probe = SpeedProbe()
            pass_s, cpu_s, outcomes = run_ops(cli, ops, seed, lambda op, main, args: main(args), probe)
            result["pass_ref_s"] = probe.reference_seconds(pass_s)
            result["probe_samples"] = len(probe.samples)
        elif command == "trace":
            import scalars_micro
            from spans import Tracer, layer_metrics

            # the microbenchmarks run first, in an interpreter no pass has used
            scalar_us, scalar_failures = scalars_micro.run(seed)
            tracer = Tracer()
            uninstall = tracer.install()

            def traced(op, main, args):
                tracer.begin_op(op.id)
                try:
                    return tracer.call("cli.main", main, (args,), {})
                finally:
                    tracer.end_op()

            try:
                pass_s, cpu_s, outcomes = run_ops(cli, ops, seed, traced)
            finally:
                uninstall()
            result["layers"] = layer_metrics(tracer) | scalar_us
            result["scalar_failures"] = scalar_failures
            result["spans"] = tracer.spans
        else:
            print(f"unknown command {command!r}", file=sys.stderr)
            return 2
        result["pass_s"] = pass_s
        result["pass_cpu_s"] = cpu_s
        result["ops"] = _check(workload, ops, seed, outcomes)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result), flush=True)
        return 0
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
