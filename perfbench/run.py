"""cmscan benchmark.

    python3 perfbench/run.py --workload scan|dataset|elementwise|all \\
        --seed N --seconds S --trace 0|1 [--passes K]

Run from the root of a cmscan checkout; the program is taken from ./src.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 measures the end-to-end metrics.  One client runs the real
command line, ``python3 -m cmscan ...``, as one subprocess at a time
(a closed loop) through whole cycles of three passes (see workloads.py),
as many as end nearest to --seconds, at least one:

- wall_s       mean wall time of a pass over the run's whole cycles
               (a pass's time is the sum of its invocations, spawn to
               exit).  A mean, not a median: the host's core speed
               switches between two modes every few seconds, and the
               median of three passes jumps between them
- setup_s      mean spawn-to-exit time of ``python3 -m cmscan --help``
               (interpreter start, package import, parser build),
               sampled five times at the start and before every
               invocation; a mean for the same reason as wall_s
- peak_rss_mb  largest ru_maxrss of any invocation, from os.wait4
- items_per_s  work items per wall second over all passes: labels for
               scan, dataset rows for dataset, group elements (the
               group order of each verify-omega and molien) for
               elementwise
- pass_ratio   invocations that passed the correctness gate / attempted

--trace 1 runs one cycle, each invocation first untraced and then traced
(tracer.py, one in-process child per invocation), and the kernel
micro-benchmarks (micro.py), and reports the per-layer metrics of
PER_LAYER, summed over the cycle.  trace.overhead_s is the traced minus
the untraced wall time.

Every invocation's exit code and stdout sha256 are checked against
expected.json, recorded by record.py from the reference commit under
PYTHONHASHSEED=0, while the runs use other hash seeds; workloads.py adds
the semantic checks.  --passes K stops after K passes (smoke tests).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
EXPECTED = HERE / "expected.json"
INVOCATION_TIMEOUT_S = 120
# No cycle starts that would end past this, so a run stays well inside
# the 180 s it may take.
MEASURE_LIMIT_S = 75
SETUP_SAMPLES_AT_START = 5

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"), ("pass_ratio", "ratio"),
)

# Span -> workloads on which it must record calls.
SPAN_WORKLOADS = {
    "partitions.multipartitions": ("scan",),
    "fakedeg.group_orbits": ("scan",),
    "fakedeg.fake_degree": ("scan",),
    "fakedeg.coinvariant_poincare": ("scan",),
    "scan.scan_group": ("scan",),
    "scan.divisibility_test": ("scan", "dataset"),
    "scan.parse_dataset": ("dataset",),
    "scan.ExceptionalGroupData.validate": ("dataset",),
    "scan.scan_dataset": ("dataset",),
    "scan.ScanReport.render": ("scan",),
    "scan.ScanReport.to_dict": ("scan", "dataset"),
    "cli.main": wl.WORKLOADS,
    "groups.is_reflection": ("elementwise",),
    "groups.reflection_classes": ("elementwise",),
    "groups.is_irreducible_natural": ("elementwise",),
    "groups.omega_class_sum": ("elementwise",),
    "groups.molien_series": ("elementwise",),
    "groups.degrees_series": ("elementwise",),
    "linalg.sparse_rank": ("elementwise",),
    "linalg.restricted_form_matrix": ("elementwise",),
    "g4.run_battery": ("elementwise",),
}

PER_LAYER = (
    ("partitions.multipartitions.calls", "count"),
    ("partitions.multipartitions.self_s", "s"),
    ("fakedeg.group_orbits.calls", "count"),
    ("fakedeg.group_orbits.self_s", "s"),
    ("fakedeg.fake_degree.calls", "count"),
    ("fakedeg.fake_degree.self_s", "s"),
    ("fakedeg.coinvariant_poincare.self_s", "s"),
    ("fakedeg.labels", "count"),
    ("fakedeg.orbits", "count"),
    ("fakedeg.max_degree", "count"),
    ("scan.scan_group.self_s", "s"),
    ("scan.divisibility_test.calls", "count"),
    ("scan.divisibility_test.self_s", "s"),
    ("scan.failing_labels", "count"),
    ("scan.parse_dataset.self_s", "s"),
    ("scan.ExceptionalGroupData.validate.self_s", "s"),
    ("scan.scan_dataset.self_s", "s"),
    ("scan.ScanReport.render.self_s", "s"),
    ("scan.ScanReport.to_dict.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("groups.is_reflection.calls", "count"),
    ("groups.is_reflection.self_s", "s"),
    ("groups.reflection_classes.self_s", "s"),
    ("groups.is_irreducible_natural.calls", "count"),
    ("groups.is_irreducible_natural.self_s", "s"),
    ("groups.omega_class_sum.self_s", "s"),
    ("groups.molien_series.self_s", "s"),
    ("groups.degrees_series.self_s", "s"),
    ("groups.elements", "count"),
    ("groups.reflections", "count"),
    ("groups.classes", "count"),
    ("linalg.sparse_rank.calls", "count"),
    ("linalg.sparse_rank.self_s", "s"),
    ("linalg.restricted_form_matrix.calls", "count"),
    ("linalg.restricted_form_matrix.self_s", "s"),
    ("g4.run_battery.self_s", "s"),
    ("cyclo.mul_us.m6", "us"),
    ("cyclo.mul_us.m12", "us"),
    ("cyclo.add_us.m6", "us"),
    ("cyclo.add_us.m12", "us"),
    ("cyclo.inverse_us.m6", "us"),
    ("cyclo.inverse_us.m12", "us"),
    ("polycore.mul_us", "us"),
    ("polycore.divmod_pass_us", "us"),
    ("polycore.divmod_fail_us", "us"),
    ("polycore.parse_us", "us"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    wall: float
    rss_mb: float


def child_env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_child(cmd: list[str], hash_seed: str = "0") -> Child:
    """Run one subprocess to completion; wall time from spawn to reaping,
    peak RSS from its own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(hash_seed),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                proc.kill()

    timer = threading.Timer(INVOCATION_TIMEOUT_S, kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        with lock:
            reaped = True
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return Child(proc.returncode, out, errors[0] if errors else b"", wall,
                 usage.ru_maxrss / 1024)


def cmscan(argv, hash_seed: str = "0") -> Child:
    return run_child([sys.executable, "-m", "cmscan", *argv], hash_seed)


def load_expected() -> dict:
    if not (ROOT / "src" / "cmscan" / "cli.py").is_file():
        raise BenchError(f"no cmscan sources under {ROOT / 'src'}")
    if not EXPECTED.is_file():
        raise BenchError(f"missing {EXPECTED}")
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def build_datasets(indices, expected: dict | None) -> list[str]:
    """Write the dataset files of the given pool indices, two at a time,
    and check their sha256 against the recorded one (when given)."""
    (ROOT / wl.DATASET_DIR).mkdir(exist_ok=True)

    def build(index):
        cmd = [sys.executable, str(HERE / "gen_dataset.py"),
               wl.dataset_path(index), *wl.dataset_groups(index)]
        return index, run_child(cmd)

    problems = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for index, child in pool.map(build, sorted(set(indices))):
            if child.code != 0:
                raise BenchError(f"dataset {index} generation failed: "
                                 f"{child.err.decode(errors='replace')[-400:]}")
            if expected is None:
                continue
            digest = wl.sha256((ROOT / wl.dataset_path(index)).read_bytes())
            if digest != expected["datasets"][str(index)]["sha256"]:
                problems.append(f"{wl.dataset_path(index)}: sha256 differs "
                                "from the recorded dataset")
    return problems


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    if pct <= 50:
        return f"n={n}, no percentile above the median has 10 samples beyond it"
    return f"n={n}, p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.4f}"


def setup_probe(problems: list[str]) -> float:
    child = cmscan(["--help"])
    if child.code != 0 or not child.out.startswith(b"usage:"):
        problems.append(f"cmscan --help: exit {child.code}")
    return child.wall


def measure(plan: wl.Plan, expected: dict, seconds: float,
            passes: int | None) -> dict:
    """Closed-loop end-to-end run over whole cycles (or ``passes``)."""
    problems: list[str] = []
    if plan.workload == "dataset":
        count = passes or wl.CYCLE
        problems += build_datasets([plan.index(k) for k in range(count)], expected)
    setup = [setup_probe(problems) for _ in range(SETUP_SAMPLES_AT_START)]
    pass_walls: list[float] = []
    attempted = failed = items = 0
    peak = 0.0
    start = time.perf_counter()
    k = 0
    while True:
        cycle_start = time.perf_counter()
        for _ in range(wl.CYCLE):
            wall = 0.0
            for i, inv in enumerate(plan.invocations(k)):
                setup.append(setup_probe(problems))
                child = cmscan(inv.argv, plan.hash_seed(k, i))
                attempted += 1
                found = wl.check_output(inv, child.code, child.out, expected)
                if found:
                    failed += 1
                    problems += found
                wall += child.wall
                peak = max(peak, child.rss_mb)
                items += wl.work_items(inv, expected)
            pass_walls.append(wall)
            k += 1
            if passes and k >= passes:
                break
        if passes and k >= passes:
            break
        # Run another cycle only if that ends nearer to --seconds.
        now = time.perf_counter()
        elapsed, cycle = now - start, now - cycle_start
        if elapsed + cycle - seconds >= seconds - elapsed \
                or elapsed + cycle > MEASURE_LIMIT_S:
            break
    metrics = {
        "wall_s": statistics.mean(pass_walls),
        "setup_s": statistics.mean(setup),
        "peak_rss_mb": peak,
        "items_per_s": items / sum(pass_walls),
        "pass_ratio": (attempted - failed) / attempted,
    }
    notes = {
        "wall_s": "passes " + ", ".join(f"{w:.3f}" for w in pass_walls),
        "setup_s": tail(setup),
        "items_per_s": f"{items} items",
    }
    return {"metrics": metrics, "units": dict(END_TO_END), "notes": notes,
            "attempted": attempted, "failed": failed, "problems": problems}


def _span_metric(name: str):
    for suffix in (".calls", ".self_s"):
        if name.endswith(suffix) and name[:-len(suffix)] in SPAN_WORKLOADS:
            return name[:-len(suffix)], suffix[1:]
    return None


def trace(plan: wl.Plan, expected: dict, seconds: float,
          passes: int | None) -> dict:
    """One cycle (or ``passes``) with each invocation run untraced and
    then traced, plus the kernel micro-benchmarks."""
    count = passes or wl.CYCLE
    problems: list[str] = []
    if plan.workload == "dataset":
        problems += build_datasets([plan.index(k) for k in range(count)], expected)
    attempted = failed = 0
    untraced = traced = 0.0
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    absent: set[str] = set()
    out_path = ROOT / wl.DATASET_DIR / "trace.json"
    out_path.parent.mkdir(exist_ok=True)
    for k in range(count):
        for i, inv in enumerate(plan.invocations(k)):
            child = cmscan(inv.argv, plan.hash_seed(k, i))
            found = wl.check_output(inv, child.code, child.out, expected)
            attempted += 1
            failed += bool(found)
            problems += found
            untraced += child.wall

            child = run_child([sys.executable, str(HERE / "tracer.py"),
                               str(out_path), *inv.argv], plan.hash_seed(k, i))
            attempted += 1
            traced += child.wall
            if child.code != 0:
                failed += 1
                problems.append(f"traced {inv.key}: tracer exit {child.code}: "
                                f"{child.err.decode(errors='replace')[-400:]}")
                continue
            with open(out_path, encoding="utf-8") as handle:
                result = json.load(handle)
            want = expected["outputs"][inv.key]
            if result["exit"] != want["exit"] or result["sha256"] != want["sha256"]:
                failed += 1
                problems.append(f"traced {inv.key}: output differs from the recorded one")
            for name, agg in result["spans"].items():
                into = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                for key in into:
                    into[key] += agg[key]
            for name, value in result["counters"].items():
                if name in tracer.COUNTERS and tracer.COUNTERS[name][3] == "max":
                    counters[name] = max(counters.get(name, 0), value)
                else:
                    counters[name] = counters.get(name, 0) + value
            absent |= set(result["absent"])

    micro_budget = max(0.5, min(3.0, seconds / 10))
    child = run_child([sys.executable, str(HERE / "micro.py"), str(EXPECTED),
                       str(micro_budget)])
    if child.code != 0:
        raise BenchError(f"micro-benchmarks failed: "
                         f"{child.err.decode(errors='replace')[-400:]}")
    micro = json.loads(child.out)
    problems += micro["problems"]

    metrics = {}
    for name, _ in PER_LAYER:
        span = _span_metric(name)
        if span:
            metrics[name] = spans.get(span[0], {}).get(span[1], 0)
        elif name in micro["metrics"]:
            metrics[name] = micro["metrics"][name]
        elif name == "trace.overhead_s":
            metrics[name] = traced - untraced
        else:
            metrics[name] = counters.get(name, 0)
    notes = {"trace.overhead_s": f"traced {traced:.3f} s - untraced {untraced:.3f} s"}
    return {"metrics": metrics, "units": dict(PER_LAYER), "notes": notes,
            "attempted": attempted, "failed": failed, "problems": problems,
            "spans": spans, "absent": sorted(absent), "micro_ops": micro["ops"]}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": model}


def report(workload: str, result: dict, plan: wl.Plan) -> None:
    print(f"workload {workload}: seed {plan.seed}, picks {json.dumps(plan.picks())}")
    for name, value in result["metrics"].items():
        note = result.get("notes", {}).get(name)
        print(f"  {name} = {value:.6g} {result['units'][name]}"
              + (f"  ({note})" if note else ""))
    if "spans" in result:
        main_total = result["spans"].get("cli.main", {}).get("total_s", 0.0)
        for name, agg in sorted(result["spans"].items()):
            share = agg["self_s"] / main_total if main_total else 0.0
            print(f"  span {name}: {agg['calls']} calls, self {agg['self_s']:.4f} s "
                  f"({share:.1%} of cli.main), total {agg['total_s']:.4f} s")
        print(f"  micro ops timed: {json.dumps(result['micro_ops'])}")
        if result["absent"]:
            print(f"  absent (reported as 0): {', '.join(result['absent'])}")
        print("trace-calls: " + json.dumps(
            {name: agg["calls"] for name, agg in result["spans"].items()}))
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None,
                        help="stop after this many passes (smoke tests)")
    args = parser.parse_args(argv)
    try:
        expected = load_expected()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"machine: {json.dumps(machine())}")
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for workload in names:
        plan = wl.Plan(workload, args.seed)
        try:
            if args.trace:
                result = trace(plan, expected, args.seconds, args.passes)
            else:
                result = measure(plan, expected, args.seconds, args.passes)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        report(workload, result, plan)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": result["units"][name]}
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and not result["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
