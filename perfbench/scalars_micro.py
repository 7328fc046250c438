"""Microbenchmarks of ``CycScalar`` add, multiply and inverse per cyclotomic order.

Operands are drawn from the workload seed.  Every timed result is checked
afterwards against an identity that does not use the operation being timed
the same way: ``(a + b) - b == a``, ``(a * b) * b.inverse() == a`` and
``a * a.inverse() == 1``.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# (metric name, order, operation)
CASES = (
    ("scalars.add_us.o1", 1, "add"),
    ("scalars.mul_us.o1", 1, "mul"),
    ("scalars.inv_us.o1", 1, "inv"),
    ("scalars.add_us.o4", 4, "add"),
    ("scalars.mul_us.o4", 4, "mul"),
    ("scalars.inv_us.o4", 4, "inv"),
    ("scalars.mul_us.o6", 6, "mul"),
    ("scalars.inv_us.o6", 6, "inv"),
)

_OPERANDS = 64
_REPEATS = 7
_TARGET_S = 0.05  # wall time of one timed repeat


def _operand(rng: random.Random, order: int):
    from hopfkit.scalars import CycScalar, euler_phi

    while True:
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(euler_phi(order))]
        a = CycScalar.from_coords(order, coords)
        if not a.is_zero():
            return a


def _timed(fn, pairs) -> tuple[float, list]:
    """Median microseconds per call over the repeats, and one repeat's results."""
    start = time.perf_counter()
    results = [fn(a, b) for a, b in pairs]
    once = time.perf_counter() - start
    rounds = max(1, int(_TARGET_S / max(once, 1e-9)))
    per_call = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        for _ in range(rounds):
            for a, b in pairs:
                fn(a, b)
        per_call.append((time.perf_counter() - start) / (rounds * len(pairs)))
    return statistics.median(per_call) * 1e6, results


def run(seed: int) -> tuple[dict[str, float], list[str]]:
    """Returns (metric values in microseconds, failed check descriptions)."""
    from hopfkit.scalars import ONE

    values: dict[str, float] = {}
    failures: list[str] = []
    for name, order, op in CASES:
        rng = random.Random(f"{seed}:{name}")
        pairs = [(_operand(rng, order), _operand(rng, order)) for _ in range(_OPERANDS)]
        if op == "add":
            us, results = _timed(lambda a, b: a + b, pairs)
            ok = all((r - b) == a for r, (a, b) in zip(results, pairs))
        elif op == "mul":
            us, results = _timed(lambda a, b: a * b, pairs)
            ok = all(r * b.inverse() == a for r, (a, b) in zip(results, pairs))
        else:
            us, results = _timed(lambda a, b: a.inverse(), pairs)
            ok = all(a * r == ONE for r, (a, _) in zip(results, pairs))
        values[name] = us
        if not ok:
            failures.append(f"{name}: identity check failed")
    return values, failures
