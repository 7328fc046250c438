"""Self-test of the benchmark harness: one report-ladder op (kS3), one pass.

    python3 -m pytest perfbench -q

Run from the root of a source checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, load_expected  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: bool) -> dict:
    return run.run_workload(ROOT, "report-ladder", seed=3, seconds=1, trace=trace, ops=["kS3"])


def _assert_emitted(record: dict, declared: list[dict]) -> None:
    emitted = record["metrics"]
    assert sorted(emitted) == sorted(m["name"] for m in declared)
    for m in declared:
        assert emitted[m["name"]]["unit"] == m["unit"], m["name"]
        assert emitted[m["name"]]["samples"] >= 1


def test_untraced_pass_checks_the_digest_and_emits_every_end_to_end_metric():
    record = _run(trace=False)
    passes = record["passes"]  # a kS3 pass is short, so --seconds 1 repeats it
    for p in passes:
        (kS3,) = p["ops"]
        assert kS3["id"] == "kS3"
        assert kS3["status"] == "ok"
        assert kS3["digests"] == load_expected()["report-ladder"]["kS3"]
    assert record["failed"] == 0 and record["attempted"] == len(passes) >= 1
    _assert_emitted(record, DECLARED["end_to_end"])
    assert record["metrics"]["setup_s"]["samples"] == run.SETUP_SAMPLES + len(passes)
    assert record["metrics"]["pass_ref_s"]["samples"] == len(passes)
    assert record["env"]["src_sha256"]


def test_traced_pass_emits_every_per_layer_metric():
    record = _run(trace=True)
    assert record["failed"] == 0
    assert all(p["ops"][0]["status"] == "ok" for p in record["passes"])
    _assert_emitted(record, DECLARED["per_layer"])
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    assert metrics["pipeline.blocks_s"] > 0
    assert metrics["wedderburn.split_draws"] >= 1
    assert metrics["factor.rational_calls"] >= 1
    assert metrics["hopf.parse_s"] == 0  # kS3 is built from a .grp file
    assert 0.9 < record["span_summary"]["coverage"] <= 1.0


def test_every_op_has_a_reference_digest():
    expected = load_expected()
    for workload, ops in WORKLOADS.items():
        assert sorted(expected[workload]) == sorted(op.id for op in ops)


def test_a_nonzero_exit_or_different_bytes_fails_the_op():
    import child

    (kS3,) = [op for op in WORKLOADS["report-ladder"] if op.id == "kS3"]
    (row,) = child._check("report-ladder", [kS3], 0, [("not the report\n", 0, 0.1)])
    assert row["status"] == "output digest differs from reference"
    (row,) = child._check("report-ladder", [kS3], 0, [("", 1, 0.1)])
    assert row["status"] == "exit 1"


def test_speed_probe_samples_the_loop_while_the_block_runs_and_restores_the_handler():
    import signal
    import time

    from speed import INTERVAL_S, REFERENCE_LOOP_S, SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    start = time.perf_counter()
    with probe:
        while time.perf_counter() - start < 10 * INTERVAL_S:
            pass
    assert len(probe.samples) >= 2 + 5  # before, after, and the timer's ticks
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    mean_speed = sum(1 / s for s in probe.samples) / len(probe.samples)
    assert abs(probe.reference_seconds(2.0) - 2.0 * REFERENCE_LOOP_S * mean_speed) < 1e-9
