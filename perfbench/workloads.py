"""Workload definitions: seeded group pools, per-pass invocations and the
correctness checks applied to every invocation's output.

Each workload is a cycle of three passes.  Every pool below holds three
similar-shaped groups; pass k of a run uses member (k + offset) % 3 of
every pool, where the offset comes from the seed.  A run therefore covers
every pool member once per cycle, so runs with different seeds measure the
same total work, while the seed decides which groups share a pass and
which pass comes first.  The pools are ordered so that the three passes of
a cycle cost about the same.

This module imports nothing from cmscan; it only builds argument lists and
checks output bytes.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

CYCLE = 3
WORKLOADS = ("scan", "dataset", "elementwise")

# scan: one group per stratum and pass.
SCAN_POOLS = (
    # type D, high Poincare degree, about a third of the labels fail
    ("G(2,2,14)", "G(2,2,13)", "G(2,2,12)"),
    # p > 1 and d > 1: most labels fail, many shift orbits
    ("G(8,4,6)", "G(6,3,7)", "G(10,5,6)"),
    # p = 1: every label divides
    ("G(3,1,9)", "G(2,1,12)", "G(5,1,6)"),
)

# dataset: pass k scans the file built from member k of each stratum.
DATASET_POOLS = (
    ("G(2,2,14)", "G(2,2,13)", "G(2,2,12)"),
    ("G(10,5,5)", "G(12,4,5)", "G(12,6,5)"),
    ("G(6,1,5)", "G(5,1,6)", "G(2,1,12)"),
)
DATASET_DIR = ".perfbench_work"

# elementwise: one verify-omega, three molien (one per stratum), one g4.
VERIFY_POOL = ("G(6,2,4)", "G(6,3,4)", "G(3,3,5)")
MOLIEN_POOLS = (
    ("G(4,1,4)", "G(5,1,4)", "G(10,1,3)"),      # p = 1
    ("G(6,2,4)", "G(12,4,3)", "G(10,2,3)"),     # 1 < p < m
    ("G(3,3,5)", "G(8,8,4)", "G(6,6,4)"),       # p = m
)

G4_CHECKS = 13

_SPEC = re.compile(r"^G\((\d+),(\d+),(\d+)\)$")


def group_order(spec: str) -> int:
    """|G(m,p,n)| = m^n n! / p, computed without importing cmscan."""
    m, p, n = (int(x) for x in _SPEC.match(spec).groups())
    return m ** n * math.factorial(n) // p


def dataset_path(index: int) -> str:
    return f"{DATASET_DIR}/dataset-{index}.fd"


def dataset_groups(index: int) -> tuple[str, ...]:
    return tuple(pool[index] for pool in DATASET_POOLS)


@dataclass(frozen=True)
class Invocation:
    """One cmscan command line; ``group`` is its G(m,p,n) argument."""

    argv: tuple[str, ...]
    kind: str
    group: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def pass_invocations(workload: str, index: int) -> tuple[Invocation, ...]:
    """The invocations of the pass that uses pool member ``index``."""
    if workload == "scan":
        return tuple(Invocation(("scan", pool[index]), "scan", pool[index])
                     for pool in SCAN_POOLS)
    if workload == "dataset":
        return (Invocation(("table1", "--data", dataset_path(index), "--json"),
                           "table1"),)
    if workload == "elementwise":
        g = VERIFY_POOL[index]
        out = [Invocation(("verify-omega", g), "verify-omega", g)]
        out += [Invocation(("molien", pool[index]), "molien", pool[index])
                for pool in MOLIEN_POOLS]
        out.append(Invocation(("g4", "--json"), "g4"))
        return tuple(out)
    raise ValueError(f"unknown workload {workload!r}")


def all_invocations(workload: str) -> tuple[Invocation, ...]:
    return tuple(inv for i in range(CYCLE) for inv in pass_invocations(workload, i))


class Plan:
    """The seeded schedule of one run: pool offset and hash seeds."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.offset = random.Random(f"{workload}:{seed}").randrange(CYCLE)

    def index(self, k: int) -> int:
        return (k + self.offset) % CYCLE

    def invocations(self, k: int) -> tuple[Invocation, ...]:
        return pass_invocations(self.workload, self.index(k))

    def hash_seed(self, k: int, i: int) -> str:
        """PYTHONHASHSEED for invocation i of pass k; never the value the
        expected outputs were recorded under (0)."""
        rng = random.Random(f"{self.workload}:{self.seed}:{k}:{i}")
        return str(rng.randrange(1, 2 ** 32))

    def picks(self) -> dict:
        """The groups of the first pass, for reporting."""
        return {"offset": self.offset,
                "first_pass": [inv.key for inv in self.invocations(0)]}


# -- correctness checks ---------------------------------------------------

_SCAN_HEAD = re.compile(r"^scan (\S+): (\d+) labels, (\d+) failures")
_OMEGA_HEAD = re.compile(r"^restricted form sums for (\S+): (\d+) reflection class")
_OMEGA_LINE = re.compile(
    r"^  class \d+: size (\d+), zeta = \S+, sum of forms = (\S+) \* omega")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def work_items(inv: Invocation, expected: dict) -> int:
    """Labels, dataset rows or group elements the invocation handles."""
    if inv.kind in ("scan", "table1"):
        return expected["outputs"][inv.key]["items"]
    if inv.kind in ("verify-omega", "molien"):
        return group_order(inv.group)
    return 0


def check_output(inv: Invocation, code: int, out: bytes,
                 expected: dict) -> list[str]:
    """Exit code and stdout hash against the recorded values, then the
    semantic checks of each command.  Returns the problems found."""
    want = expected["outputs"].get(inv.key)
    if want is None:
        return [f"{inv.key}: no recorded output"]
    problems = []
    if code != want["exit"]:
        problems.append(f"{inv.key}: exit {code}, expected {want['exit']}")
    if sha256(out) != want["sha256"]:
        problems.append(f"{inv.key}: stdout sha256 differs from the recorded one")
    try:
        problems += [f"{inv.key}: {p}" for p in _semantic(inv, out, expected)]
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        problems.append(f"{inv.key}: unreadable output ({exc})")
    return problems


def _semantic(inv: Invocation, out: bytes, expected: dict) -> list[str]:
    text = out.decode("utf-8")
    if inv.kind == "scan":
        head = _SCAN_HEAD.match(text)
        if not head:
            return ["no scan header"]
        labels, failures = int(head.group(2)), int(head.group(3))
        want = expected["scan_failures"][inv.group]
        problems = []
        if failures != want:
            problems.append(f"{failures} failures, expected {want}")
        if labels != expected["outputs"][inv.key]["items"]:
            problems.append(f"{labels} labels")
        if _SPEC.match(inv.group).group(2) == "1" and failures:
            problems.append("a G(m,1,n) label failed")
        return problems
    if inv.kind == "verify-omega":
        lines = text.splitlines()
        head = _OMEGA_HEAD.match(lines[0])
        n = int(_SPEC.match(inv.group).group(3))
        classes = [_OMEGA_LINE.match(line) for line in lines[1:]]
        if not head or not classes or None in classes:
            return ["unexpected verify-omega report"]
        problems = []
        if int(head.group(2)) != len(classes):
            problems.append("class count differs from the header")
        for c in classes:
            if Fraction(c.group(2)) != Fraction(int(c.group(1)), n):
                problems.append(f"lambda {c.group(2)} != k/n for size {c.group(1)}")
        return problems
    if inv.kind == "molien":
        return [] if text.rstrip().endswith("agreement: OK") else ["no agreement: OK"]
    if inv.kind == "g4":
        doc = json.loads(text)
        if doc["passed"] is not True or len(doc["checks"]) != G4_CHECKS:
            return [f"g4 battery: passed={doc['passed']}, "
                    f"{len(doc['checks'])} checks"]
        return []
    if inv.kind == "table1":
        doc = json.loads(text)
        problems = [] if doc["mismatches"] == 0 else ["count mismatches"]
        for report in doc["reports"]:
            want = expected["scan_failures"][report["group"]]
            if report["failures"] != want:
                problems.append(f"{report['group']}: {report['failures']} "
                                f"failures, scan_group finds {want}")
        return problems
    raise ValueError(f"unknown invocation kind {inv.kind!r}")
