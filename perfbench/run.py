"""hopfkit's benchmark: the public CLI over fixed workloads, end to end and per layer.

    python3 perfbench/run.py --workload report-d36|report-ladder|certify-d64|all
                             --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; hopfkit is imported from ``src/``.

Load model: a closed loop with one client.  Every pass runs in a fresh child
interpreter (``child.py``), one child at a time, its ops one after another, so
one core is busy and nothing warm carries from one pass to the next.

``--trace 0`` measures the end-to-end metrics with tracing off: ``setup_s``
(start of the child to ready: interpreter, ``import hopfkit``, staging the
inputs; the median of several set-ups), ``pass_ref_s`` (median seconds of a
pass, timed in the child) and ``peak_rss_mb`` (median peak resident set of a
pass child).  Both times are rescaled to the reference core speed by
``speed.SpeedProbe``; the wall seconds (``setup_wall_s``, ``pass_s``) are
kept in the results file.  Passes repeat until ``--seconds`` have gone by,
at least one.

``--trace 1`` runs one untraced and one traced pass and reports the per-layer
metrics of the traced one (see ``spans.py``), the scalar microbenchmarks and
``trace.overhead_ratio`` (traced / untraced ``pass_s``).

Every op's output is checked against the committed sha256 in
``expected.json``; a failed op is one with a nonzero exit, an exception or a
digest mismatch.  The human-readable summary goes to stdout and a results
file with the environment record goes to ``perfbench/out/results``; the last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from scalars_micro import CASES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD = HERE / "child.py"
OUT = HERE / "out"
SETUP_SAMPLES = 9  # set-up-only children per run, besides the pass children
RUN_LIMIT_S = 170  # a run that takes longer is killed and reported as failed
ANSWER_LIMIT_S = 60  # a child must answer within this after reporting ready


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_s"):
        return "s"
    if "_us." in metric:
        return "us"
    return "count"


# -- child processes ------------------------------------------------------------


class Children:
    """Starts one child at a time and kills it if the run overruns."""

    def __init__(self, root: Path, workload: str, seed: int, ops: list[str] | None) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.ops = [] if ops is None else [",".join(ops)]
        self._count = 0
        self._current: subprocess.Popen | None = None
        self._watchdog = threading.Timer(RUN_LIMIT_S, self._kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def _kill(self) -> None:
        proc = self._current
        if proc is not None:
            proc.kill()

    def close(self) -> None:
        self._watchdog.cancel()
        self._kill()

    def run(self, command: str) -> tuple[float, float, dict | None]:
        """Start a child, time it to ready, send ``command``; returns (set-up
        seconds at the reference core speed, set-up wall seconds, the child's
        JSON answer or None for ``exit``)."""
        self._count += 1
        workdir = OUT / "work" / f"{os.getpid()}-{self._count}"
        argv = [sys.executable, str(CHILD), str(self.root), self.workload, str(self.seed), str(workdir), *self.ops]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._current = proc
        try:
            ready = proc.stdout.readline()
            wall_s = time.perf_counter() - start
            if not ready.startswith("ready "):
                raise BenchmarkError(f"child did not start (exit {proc.wait()}): {ready!r}")
            speed = json.loads(ready[len("ready "):])
            setup_s = (wall_s - speed["probe_s"]) * speed["scale"]
            proc.stdin.write(command + "\n")
            proc.stdin.close()
            answer = proc.stdout.readline()
            code = proc.wait(timeout=ANSWER_LIMIT_S)
            if code != 0:
                raise BenchmarkError(f"child exited with {code} on {command!r}")
            return setup_s, wall_s, (json.loads(answer) if command != "exit" else None)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            self._current = None


# -- environment record ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    src = root / "src" / "hopfkit"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    status = _git(root, "status", "--porcelain", "--", "src")
    return {
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "git_commit": _git(root, "rev-parse", "HEAD"),
        "src_dirty": None if status is None else bool(status),
        "src_sha256": h.hexdigest(),
        "seed": seed,
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# -- one workload ------------------------------------------------------------------


def _metric(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples)}


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool, ops: list[str] | None = None) -> dict:
    """Run one workload; returns the results record.  ``ops`` restricts the
    workload to the named op ids (used by the self-test)."""
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(root, seed)}
    children = Children(root, workload, seed, ops)
    try:
        setups: list[float] = []
        setup_walls: list[float] = []
        passes: list[dict] = []

        def child(command: str) -> dict | None:
            setup_s, wall_s, answer = children.run(command)
            setups.append(setup_s)
            setup_walls.append(wall_s)
            return answer

        if trace:
            passes = [child("pass"), child("trace")]
        else:
            for _ in range(SETUP_SAMPLES):
                child("exit")
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                passes.append(child("pass"))
    finally:
        children.close()
    record["env"]["loadavg_after"] = list(os.getloadavg())

    op_rows = [row for p in passes for row in p["ops"]]
    attempted = len(op_rows)
    failed = sum(row["status"] != "ok" for row in op_rows)
    if trace:
        untraced, traced = passes
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["pass_s"] / untraced["pass_s"]
        attempted += len(CASES)  # one identity check per scalar microbenchmark
        failed += len(traced["scalar_failures"])
        metrics = {name: {"value": value, "unit": unit_of(name), "samples": 1} for name, value in layers.items()}
        record["scalar_failures"] = traced["scalar_failures"]
        record["spans"] = traced.pop("spans")
        record["span_summary"] = _span_summary(record["spans"], traced["pass_s"])
    else:
        metrics = {
            "setup_s": _metric(setups, "s"),
            "pass_ref_s": _metric([p["pass_ref_s"] for p in passes], "s"),
            "peak_rss_mb": _metric([p["peak_rss_mb"] for p in passes], "MB"),
        }
    record["metrics"] = metrics
    record["failed_ops_ratio"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
    record["samples"] = {"setup_s": setups, "setup_wall_s": setup_walls, "pass_s": [p["pass_s"] for p in passes],
                         "pass_cpu_s": [p["pass_cpu_s"] for p in passes],
                         "pass_ref_s": [p.get("pass_ref_s") for p in passes],
                         "probe_samples": [p.get("probe_samples") for p in passes],
                         "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    record["passes"] = [{"traced": trace and i == 1, "pass_s": p["pass_s"], "ops": p["ops"]}
                        for i, p in enumerate(passes)]
    record["attempted"], record["failed"] = attempted, failed
    return record


def _span_summary(spans: list, pass_s: float) -> dict:
    from spans import summarize

    summary = summarize(spans)
    top = sum(end - start for _sid, parent, _n, _op, start, end in spans if parent < 0)
    rows = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    return {
        "pass_s": pass_s,
        "root_spans_s": top,
        "coverage": top / pass_s,
        "by_self_s": {name: row for name, row in rows},
    }


# -- output ------------------------------------------------------------------------


def _print_summary(record: dict) -> None:
    print(f"{record['workload']}  seed={record['seed']}  trace={record['trace']}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} (median of {m['samples']})")
    if not record["trace"]:
        wall = record["samples"]["pass_s"]
        print(f"  {'pass_s (wall, not rescaled)':40s} {statistics.median(wall):14.6g} {'s':6s} (median of {len(wall)})")
    f = record["failed_ops_ratio"]
    print(f"  {'failed_ops_ratio':40s} {f['value']:14.6g} {'ratio':6s} ({f['failed']} of {f['attempted']} ops)")
    if "span_summary" in record:
        s = record["span_summary"]
        print(f"  spans cover {s['coverage']:.4f} of the traced pass ({s['root_spans_s']:.3f} of {s['pass_s']:.3f} s);"
              " largest self times:")
        for name, row in list(s["by_self_s"].items())[:12]:
            print(f"    {name:38s} self {row['self_s']:10.4f} s  incl {row['inclusive_s']:10.4f} s  calls {row['calls']}")


def _write(record: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}"
    spans = record.pop("spans", None)
    if spans is not None:
        spans_path = results / f"{stem}-spans.json"
        spans_path.write_text(json.dumps({"fields": ["id", "parent", "name", "op", "start", "end"], "spans": spans}))
        record["spans_file"] = spans_path.name
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hopfkit" / "cli.py").is_file():
        print(f"error: {root} holds no hopfkit source tree (src/hopfkit)", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(root, name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        _print_summary(record)
        print(f"  results: {_write(record).relative_to(root)}")
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "/"
        for name, m in record["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
