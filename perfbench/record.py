"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Run from the root of the checkout whose outputs are the reference.  Runs
every invocation of every workload once under PYTHONHASHSEED=0 and writes
perfbench/expected.json with, per command line, the exit code, the stdout
sha256 and the work items (labels or dataset rows); per dataset file its
groups, rows and sha256; the scan failure count of every group a workload
uses; and the micro-benchmark operands.
"""
from __future__ import annotations

import json
import re
import sys

import run
import workloads as wl


def micro_operands() -> dict:
    """G(2,2,14) operands: its Poincare polynomial, a dividing divisor of
    degree near half of it with the quotient, the failing divisor whose
    long division stops soonest, and a dataset row's fake degree."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from cmscan.fakedeg import GroupSpec, coinvariant_poincare, fake_degree, irr_labels
    from cmscan.polycore import LaurentPoly

    g = GroupSpec.parse("G(2,2,14)")
    poincare = coinvariant_poincare(g)
    half = poincare.degree() / 2
    passing = failing = None
    for label in irr_labels(g):
        f = fake_degree(g, label.orbit)
        shifted = f.shift(-f.trailing_degree())
        divisor = shifted / LaurentPoly.monomial(shifted.content())
        quotient, remainder = divmod(poincare, divisor)
        if remainder.is_zero():
            key = abs(divisor.degree() - half)
            if passing is None or key < passing[0]:
                passing = (key, divisor, quotient, f)
        else:
            steps = len(list(quotient.items()))
            if failing is None or steps < failing[0]:
                failing = (steps, divisor)
    return {
        "poincare": poincare.render(),
        "divisor_pass": passing[1].render(),
        "quotient": passing[2].render(),
        "divisor_fail": failing[1].render(),
        "row": passing[3].render(),
    }


def main() -> int:
    run.build_datasets(range(wl.CYCLE), None)
    outputs, datasets = {}, {}
    for index in range(wl.CYCLE):
        data = (run.ROOT / wl.dataset_path(index)).read_bytes()
        datasets[str(index)] = {
            "groups": list(wl.dataset_groups(index)),
            "rows": len(re.findall(rb"^irrep ", data, re.M)),
            "sha256": wl.sha256(data),
        }
    scan_groups = sorted({g for pools in (wl.SCAN_POOLS, wl.DATASET_POOLS)
                          for pool in pools for g in pool})
    scan_failures = {}
    for g in scan_groups:
        child = run.cmscan(["scan", g])
        labels, failures = re.match(rb"^scan \S+: (\d+) labels, (\d+) failures",
                                    child.out).groups()
        scan_failures[g] = int(failures)
        outputs[f"scan {g}"] = {"exit": child.code, "sha256": wl.sha256(child.out),
                                "items": int(labels)}
        print(f"scan {g}: {int(labels)} labels, {int(failures)} failures "
              f"({child.wall:.2f} s)", flush=True)
    for workload in wl.WORKLOADS:
        for inv in wl.all_invocations(workload):
            if inv.key in outputs:
                continue
            child = run.cmscan(inv.argv)
            entry = {"exit": child.code, "sha256": wl.sha256(child.out)}
            if inv.kind == "table1":
                entry["items"] = sum(r["labels"] for r in json.loads(child.out)["reports"])
            outputs[inv.key] = entry
            print(f"{inv.key}: exit {child.code} ({child.wall:.2f} s)", flush=True)
    expected = {
        "outputs": dict(sorted(outputs.items())),
        "datasets": datasets,
        "scan_failures": scan_failures,
        "micro": micro_operands(),
    }
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
