"""Kernel micro-benchmarks for cmscan.cyclo and cmscan.polycore.

    python3 perfbench/micro.py EXPECTED.json SECONDS

Times each operation on fixed operands and prints one JSON object:
``{"metrics": {name: microseconds per op}, "ops": {name: ops timed},
"problems": [...]}``.  Each figure is the median over batches of the
batch time divided by the batch's op count.

Operands:
- CycloNumber at m = 6 and m = 12: a has coordinates (2i+3)/(i+2) and b
  has (i+1)/(2i+5), i = 0 .. phi(m)-1, so every coordinate is nonzero;
  timed are a * b, a + b and a.inverse().
- LaurentPoly, from the recorded G(2,2,14) operands: P is the coinvariant
  Poincare polynomial (degree 182); ``divisor_pass`` is the primitive part
  of a dividing fake degree of degree near 91 and ``quotient`` is P divided
  by it; ``divisor_fail`` is the failing fake degree whose long division
  stops soonest; ``row`` is a fake degree as it appears in a dataset row.
  Timed are quotient * divisor_pass, divmod(P, divisor_pass),
  divmod(P, divisor_fail) and LaurentPoly.parse(row).
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction

BATCH_S = 0.01


def _time(op, budget: float) -> tuple[float, int]:
    """(median microseconds per op, ops timed) over batches of ~BATCH_S."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            op()
        if time.perf_counter() - start >= BATCH_S:
            break
        n *= 2
    per_op = []
    total = 0
    deadline = time.perf_counter() + budget
    while len(per_op) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(n):
            op()
        per_op.append((time.perf_counter() - start) / n * 1e6)
        total += n
    return statistics.median(per_op), total


def operations(expected: dict):
    """(metric name, zero-argument op, check) for every micro-benchmark."""
    from cmscan.cyclo import CycloNumber
    from cmscan.polycore import LaurentPoly

    ops = []
    for m in (6, 12):
        deg = len(CycloNumber.zero(m).coords)
        a = CycloNumber(m, [Fraction(2 * i + 3, i + 2) for i in range(deg)])
        b = CycloNumber(m, [Fraction(i + 1, 2 * i + 5) for i in range(deg)])
        ops += [
            (f"cyclo.mul_us.m{m}", lambda a=a, b=b: a * b,
             lambda a=a, b=b: (a * b) * b.inverse() == a),
            (f"cyclo.add_us.m{m}", lambda a=a, b=b: a + b,
             lambda a=a, b=b: (a + b) - b == a),
            (f"cyclo.inverse_us.m{m}", a.inverse,
             lambda a=a: (a * a.inverse()).is_one()),
        ]
    operands = {k: LaurentPoly.parse(v) for k, v in expected["micro"].items()}
    poincare = operands["poincare"]
    passing, failing = operands["divisor_pass"], operands["divisor_fail"]
    quotient, row = operands["quotient"], expected["micro"]["row"]
    ops += [
        ("polycore.mul_us", lambda: quotient * passing,
         lambda: quotient * passing == poincare),
        ("polycore.divmod_pass_us", lambda: divmod(poincare, passing),
         lambda: divmod(poincare, passing)[1].is_zero()),
        ("polycore.divmod_fail_us", lambda: divmod(poincare, failing),
         lambda: not divmod(poincare, failing)[1].is_zero()),
        ("polycore.parse_us", lambda: LaurentPoly.parse(row),
         lambda: LaurentPoly.parse(row).render() == row),
    ]
    return ops


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        expected = json.load(handle)
    seconds = float(argv[1])
    ops = operations(expected)
    metrics, counts, problems = {}, {}, []
    for name, op, check in ops:
        if not check():
            problems.append(f"{name}: operand check failed")
        metrics[name], counts[name] = _time(op, seconds / len(ops))
    print(json.dumps({"metrics": metrics, "ops": counts, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
