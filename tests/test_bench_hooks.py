"""The benchmark's hooks still reach the program.

perfbench/tracer.py wraps cmscan functions by module and attribute path;
a target that no longer exists is only reported as absent, so a rename
would silently empty a per-layer metric.  perfbench/record.py derives the
micro-benchmark operands from cmscan; they must still be the recorded
ones.  perfbench/ is imported without writing bytecode and is never
changed.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmscan
from cmscan import scan
from cmscan.spec import GroupSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(cmscan.__file__).resolve().parent.parent

# Targets already gone from cmscan, by tracer name; the benchmark still
# lists them (see ROADMAP, item 2).
KNOWN_ABSENT = {
    "groups.is_reflection", "linalg.sparse_rank",
    "linalg.restricted_form_matrix", "groups.reflections", "groups.elements",
}


@pytest.fixture
def bench(monkeypatch):
    """perfbench's modules, imported by name and dropped afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def test_every_traced_target_resolves(bench):
    tracer = bench("tracer")
    targets = {name: (module, path)
               for table in (tracer.SPANS, tracer.YIELD_COUNTERS)
               for name, (module, path) in table.items()}
    targets.update((name, (module, path)) for name, (module, path, _, _)
                   in tracer.COUNTERS.items())
    absent = set()
    for name, (module, path) in targets.items():
        found = tracer._resolve(module, path)
        if found is None:
            absent.add(name)
        else:
            assert callable(found[2]), name
    assert absent <= KNOWN_ABSENT


def test_micro_operands_are_the_recorded_ones(bench):
    expected = json.loads((PERFBENCH / "expected.json").read_text("utf-8"))
    assert bench("record").micro_operands() == expected["micro"]


def test_micro_checks_hold(bench):
    # micro.py runs each timing's correctness check only when it times;
    # here the ten checks run alone, timing nothing.
    expected = json.loads((PERFBENCH / "expected.json").read_text("utf-8"))
    ops = bench("micro").operations(expected)
    assert len(ops) == 10
    assert [name for name, _, check in ops if not check()] == []


# Stands for the path of a dataset file written for the test.
DATA = "DATA.fd"


@pytest.mark.parametrize("argv, spans", [
    (("scan", "G(3,3,3)"), ("cli.main", "scan.scan_group",
                            "fakedeg.fake_degree", "scan.divisibility_test",
                            "fakedeg.coinvariant_poincare")),
    (("g4", "--json"), ("cli.main", "g4.run_battery")),
    (("table1", "--data", DATA, "--json"),
     ("cli.main", "scan.parse_dataset", "scan.ExceptionalGroupData.validate",
      "scan.scan_dataset", "scan.divisibility_test")),
])
def test_tracer_records_lazily_imported_callers(argv, spans, tmp_path):
    # The subcommands import their modules when they run; the shims the
    # tracer installed beforehand must still be what they call.
    data = tmp_path / "data.fd"
    data.write_text(scan.render_dataset(
        (scan.synthetic_dataset(GroupSpec(3, 3, 3)),)), "utf-8")
    argv = [str(data) if arg == DATA else arg for arg in argv]
    out = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "tracer.py"), str(out), *argv],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(out.read_text("utf-8"))
    assert result["exit"] == 0
    for span in spans:
        assert result["spans"][span]["calls"] > 0, span
