"""Smoke test of the benchmark harness at its smallest size.

    python3 perfbench/smoke.py

Run from the checkout root.  For each workload it runs one untraced pass
and one traced pass and checks that:
- BENCHMARK.json names exactly the metrics and units run.py emits;
- the untraced run emits every end-to-end metric with its unit and passes
  the correctness gate;
- the traced run emits every per-layer metric with its unit, and every
  span records at least one call on each workload said to exercise it
  (which catches a shim installed where the caller does not look);
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
Exits 1 and lists the failures if any check fails.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracer
import workloads as wl


def bench(*args: str, cwd=run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines: list[str], wanted: dict[str, str], what: str) -> list[str]:
    if not lines:
        return [f"{what}: no output"]
    result = json.loads(lines[-1])
    problems = [] if result["correct"] else [f"{what}: correctness gate failed"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{what}: metrics {sorted(set(got) ^ set(wanted))} "
                        "missing or unexpected, or units differ")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append(f"{what}: a metric value is not a number")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != dict(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if per_layer != dict(run.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if set(run.SPAN_WORKLOADS) != set(tracer.SPANS):
        problems.append("run.SPAN_WORKLOADS and tracer.SPANS name different spans")
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for workload in wl.WORKLOADS:
        code, lines = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", "0", "--passes", "1")
        problems += [f"exit {code}"] if code else []
        problems += check_result(lines, end_to_end, f"{workload} --trace 0")

        code, lines = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", "1", "--passes", "1")
        problems += [f"exit {code}"] if code else []
        problems += check_result(lines, per_layer, f"{workload} --trace 1")
        calls = next((json.loads(line.split(": ", 1)[1]) for line in lines
                      if line.startswith("trace-calls: ")), {})
        for span, workloads in run.SPAN_WORKLOADS.items():
            if workload in workloads and not calls.get(span):
                problems.append(f"{workload}: span {span} recorded no call")
        print(f"{workload}: checked", flush=True)

    bare = run.ROOT / wl.DATASET_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", "scan", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append("bare directory: benchmark did not fail cleanly")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
