"""Traced in-process run of one cmscan command line.

    python3 perfbench/tracer.py OUT.json ARGV...

Wraps the public functions of each cmscan module in timing shims, runs
``cmscan.cli.main(ARGV)`` with stdout sent to a byte-counting sink, and
writes per-span totals and work counters to OUT.json.

A shim replaces every name under which cmscan modules hold the function,
so the caller's lookup finds it whether it goes through the module
(``linalg.sparse_rank``) or a from-import (``scan.fake_degree``).  Each
span records name, start, end and parent and stays in memory until the
command ends.  A span's self time is its duration minus the time its
child spans cover.  A call made while a span of the same name is open
(recursion) is not a new span.  A function that no longer exists is
reported under ``absent`` instead of failing the run.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import io
import json
import sys
import time

# Span name -> (module, attribute path).
SPANS = {
    "partitions.multipartitions": ("cmscan.partitions", "multipartitions"),
    "fakedeg.group_orbits": ("cmscan.fakedeg", "group_orbits"),
    "fakedeg.fake_degree": ("cmscan.fakedeg", "fake_degree"),
    "fakedeg.coinvariant_poincare": ("cmscan.fakedeg", "coinvariant_poincare"),
    "scan.scan_group": ("cmscan.scan", "scan_group"),
    "scan.divisibility_test": ("cmscan.scan", "divisibility_test"),
    "scan.parse_dataset": ("cmscan.scan", "parse_dataset"),
    "scan.ExceptionalGroupData.validate": ("cmscan.scan", "ExceptionalGroupData.validate"),
    "scan.scan_dataset": ("cmscan.scan", "scan_dataset"),
    "scan.ScanReport.render": ("cmscan.scan", "ScanReport.render"),
    "scan.ScanReport.to_dict": ("cmscan.scan", "ScanReport.to_dict"),
    "cli.main": ("cmscan.cli", "main"),
    "groups.is_reflection": ("cmscan.groups", "is_reflection"),
    "groups.reflection_classes": ("cmscan.groups", "reflection_classes"),
    "groups.is_irreducible_natural": ("cmscan.groups", "is_irreducible_natural"),
    "groups.omega_class_sum": ("cmscan.groups", "omega_class_sum"),
    "groups.molien_series": ("cmscan.groups", "molien_series"),
    "groups.degrees_series": ("cmscan.groups", "degrees_series"),
    "linalg.sparse_rank": ("cmscan.linalg", "sparse_rank"),
    "linalg.restricted_form_matrix": ("cmscan.linalg", "restricted_form_matrix"),
    "g4.run_battery": ("cmscan.g4", "run_battery"),
}

# Counter -> (module, attribute path, value of one call's result, how
# values combine).  Counters on functions without a span only count.
COUNTERS = {
    "fakedeg.labels": ("cmscan.fakedeg", "irr_labels", len, "sum"),
    "fakedeg.orbits": ("cmscan.fakedeg", "group_orbits", len, "sum"),
    "fakedeg.max_degree": ("cmscan.fakedeg", "coinvariant_poincare",
                           lambda p: p.degree(), "max"),
    "scan.failing_labels": ("cmscan.scan", "divisibility_test",
                            lambda v: int(not v.divides), "sum"),
    "groups.reflections": ("cmscan.groups", "is_reflection", int, "sum"),
    "groups.classes": ("cmscan.groups", "reflection_classes", len, "sum"),
}

# Generators whose yields are counted.
YIELD_COUNTERS = {
    "groups.elements": ("cmscan.groups", "elements"),
}

# Counted from the stdout sink.
OUTPUT_COUNTER = "cli.output_bytes"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.open: set[str] = set()
        self.counters: dict[str, int] = {}
        self.broken: set[str] = set()

    def count(self, name: str, value: int, how: str) -> None:
        old = self.counters.get(name, 0)
        self.counters[name] = old + value if how == "sum" else max(old, value)

    def shim(self, fn, span: str | None, hooks):
        tracer = self

        def record(result):
            for counter, value, how in hooks:
                try:
                    tracer.count(counter, value(result), how)
                except (AttributeError, TypeError):
                    tracer.broken.add(counter)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span is None or span in tracer.open:
                result = fn(*args, **kwargs)
                record(result)
                return result
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            entry = [span, time.perf_counter(), 0.0, parent]
            tracer.spans.append(entry)
            tracer.stack.append(index)
            tracer.open.add(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter()
                tracer.stack.pop()
                tracer.open.discard(span)
            record(result)
            return result

        return traced

    def yield_counter(self, fn, counter: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.count(counter, 1, "sum")
                yield item

        return counted

    def summary(self) -> dict[str, dict[str, float]]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child
            agg["total_s"] += end - start
        return out


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if classes:
        value = vars(owner).get(attr)
    else:
        value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _replace(owner, attr: str, original, replacement) -> None:
    """Install ``replacement`` wherever cmscan holds ``original``."""
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cmscan" or name.startswith("cmscan.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; return the names of those that do not exist."""
    importlib.import_module("cmscan.cli")
    targets: dict[tuple[str, str], dict] = {}
    for span, (module, path) in SPANS.items():
        targets.setdefault((module, path), {"span": None, "hooks": []})["span"] = span
    for counter, (module, path, value, how) in COUNTERS.items():
        targets.setdefault((module, path), {"span": None, "hooks": []})[
            "hooks"].append((counter, value, how))
    absent = []
    for (module, path), spec in targets.items():
        found = _resolve(module, path)
        if found is None:
            absent += [spec["span"]] if spec["span"] else []
            absent += [counter for counter, _, _ in spec["hooks"]]
            continue
        owner, attr, original = found
        _replace(owner, attr, original,
                 tracer.shim(original, spec["span"], spec["hooks"]))
    for counter, (module, path) in YIELD_COUNTERS.items():
        found = _resolve(module, path)
        if found is None:
            absent.append(counter)
            continue
        owner, attr, original = found
        _replace(owner, attr, original, tracer.yield_counter(original, counter))
    return absent


class CountingSink(io.TextIOBase):
    """A text stream that keeps only the size and hash of what it gets."""

    def __init__(self):
        super().__init__()
        self.size = 0
        self.digest = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.size += len(data)
        self.digest.update(data)
        return len(text)


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    absent = install(tracer)
    cli = importlib.import_module("cmscan.cli")
    sink = CountingSink()
    stdout = sys.stdout
    sys.stdout = sink
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = stdout
    tracer.counters[OUTPUT_COUNTER] = sink.size
    result = {
        "exit": code,
        "sha256": sink.digest.hexdigest(),
        "spans": tracer.summary(),
        "counters": tracer.counters,
        "absent": sorted(absent + sorted(tracer.broken)),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
