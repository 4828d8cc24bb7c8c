"""Command-line interface.

Subcommands: fake-degrees, scan, witness, verify-omega, molien, g4,
table1.  Exit status 0 means the command ran and any findings are in the
report (scan failures are findings, not errors); 1 means a verification
mismatch (a VerificationError: an exact identity that should hold did
not, or a comparison the command reports differed); 2 means bad usage
or bad input data; 3 means an internal error (an unexpected exception,
a bug in cmscan); 141 (128 + SIGPIPE) means stdout was closed before
the report was written, as by ``cmscan scan ... | head -1``, and
prints nothing.
Output is deterministic; --json replaces the text report with a JSON
document carrying the same content.

Each subcommand imports the modules it runs when it runs, so building
the parser, and ``--help``, loads none of them.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections.abc import Callable, Iterable


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# Characters a write to stdout gathers: few enough that a batch adds
# little to a command's peak memory, many enough that an unbuffered
# stdout (python -u) makes a system call a batch, not one a line.
BATCH_CHARS = 1 << 16


def _emit(args, doc: Callable[[], dict],
          lines: Callable[[], Iterable[str]]) -> None:
    """Stream the JSON document or the text report, building only that
    one, in writes of at least BATCH_CHARS characters but the last."""
    if args.json:
        import json
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        chunks = itertools.chain(encoder.iterencode(doc()), ("\n",))
    else:
        chunks = (line + "\n" for line in lines())
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= BATCH_CHARS:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    if batch:
        sys.stdout.write("".join(batch))


def cmd_fake_degrees(args) -> int:
    from .fakedeg import label_rows
    from .partitions import render_multipartition
    from .spec import GroupSpec
    g = GroupSpec.parse(args.group)
    rows = label_rows(g)

    def entries():
        for label, dim, f in rows:
            orbit = [render_multipartition(mp) for mp in label.orbit.members]
            yield {"label": label.render(), "orbit": orbit,
                   "stabiliser": label.orbit.stab_order, "dim": dim,
                   "b": f.trailing_degree(), "fake_degree": f.render()}

    def lines():
        yield f"fake degrees for {g}: {len(rows)} labels"
        for e in entries():
            yield (f"  {e['label']}  dim={e['dim']} b={e['b']} "
                   f"f={e['fake_degree']}  "
                   f"orbit[{len(e['orbit'])}]: {', '.join(e['orbit'])}")

    _emit(args, lambda: {"group": g.render(), "labels": list(entries())},
          lines)
    return 0


def cmd_scan(args) -> int:
    from .scan import scan_group
    from .spec import GroupSpec
    report = scan_group(GroupSpec.parse(args.group))
    _emit(args, report.to_dict, report.render)
    return 0


def cmd_witness(args) -> int:
    from .scan import witness_check
    from .spec import GroupSpec
    report = witness_check(GroupSpec.parse(args.group))
    _emit(args, report.to_dict, report.render)
    return 0 if report.matches_prediction else 1


def cmd_verify_omega(args) -> int:
    from .cyclo import CycloNumber
    from .groups import omega_class_sum, reflection_classes
    from .spec import GroupSpec
    g = GroupSpec.parse(args.group)
    classes, m = reflection_classes(g), g.m
    labels = {CycloNumber.zeta(m, e): "1" if e == 0 else "-1" if 2 * e == m
              else f"zeta_{m}" if e == 1 else f"zeta_{m}^{e}"
              for e in range(m if classes else 0)}  # no field for G(m,m,1)
    entries = [{"class": idx, "size": cls.size,
                "zeta": labels.get(cls.zeta) or repr(cls.zeta),
                "lambda": str(omega_class_sum(g, cls))}
               for idx, cls in enumerate(classes, start=1)]
    lines = [f"restricted form sums for {g}: "
             f"{len(classes)} reflection class(es)"]
    for e in entries:
        lines.append(
            f"  class {e['class']}: size {e['size']}, zeta = {e['zeta']}, "
            f"sum of forms = {e['lambda']} * omega (= k/n, closed form agrees)")
    doc = {"group": g.render(), "classes": entries, "verified": True}
    _emit(args, lambda: doc, lambda: lines)
    return 0


def cmd_molien(args) -> int:
    from .groups import degrees_series, molien_series
    from .spec import GroupSpec
    g = GroupSpec.parse(args.group)
    n = args.truncate
    computed = molien_series(g, n)
    oracle = degrees_series(g, n)
    match = computed == oracle
    doc = {"group": g.render(), "truncate": n, "molien": computed.render(),
           "degrees": list(g.degrees), "degrees_product": oracle.render(),
           "match": match}
    lines = [f"Molien series for {g} up to t^{n}:",
             f"  computed: {computed.render()}",
             f"  degrees {g.degrees} product: {oracle.render()}",
             f"  agreement: {'OK' if match else 'MISMATCH'}"]
    _emit(args, lambda: doc, lambda: lines)
    return 0 if match else 1


def cmd_g4(args) -> int:
    from .g4 import run_battery
    checks = run_battery()
    doc = {"checks": [{"name": name, "detail": detail} for name, detail in checks],
           "passed": True}
    lines = [f"PASS {name}: {detail}" for name, detail in checks]
    lines.append(f"all {len(checks)} checks passed")
    _emit(args, lambda: doc, lambda: lines)
    return 0


def cmd_table1(args) -> int:
    from .scan import compare_with_expected, parse_dataset, scan_dataset
    with open(args.data, encoding="utf-8") as handle:
        text = handle.read()
    groups = parse_dataset(text)
    reports = scan_dataset(groups)
    comparisons = compare_with_expected(reports)
    checked = [c for c in comparisons if c.matches is not None]
    mismatched = [c for c in checked if not c.matches]

    def lines():
        yield f"dataset: {len(groups)} group(s) from {args.data}"
        for report, comp in zip(reports, comparisons):
            yield "  " + comp.render()
            failing = [v.label for v in report.verdicts if not v.divides]
            if failing:
                yield f"    failing rows: {', '.join(failing)}"
        if checked:
            yield (f"  expected-count comparison: "
                   f"{len(checked) - len(mismatched)}/{len(checked)} match")

    def doc() -> dict:
        return {
            "data": args.data,
            "reports": [r.to_dict() for r in reports],
            "comparisons": [c.to_dict() for c in comparisons],
            "mismatches": len(mismatched),
        }

    _emit(args, doc, lines)
    return 1 if mismatched else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmscan",
        description="Exact fake-degree, divisibility and symplectic-form "
                    "checks for complex reflection groups G(m,p,n) and G4.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, group_arg=True):
        p = sub.add_parser(name, help=help_text)
        if group_arg:
            p.add_argument("group", help='group spec, e.g. "G(3,3,2)"')
        p.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of text")
        p.set_defaults(func=func)
        return p

    add("fake-degrees", cmd_fake_degrees,
        "list every irreducible label with orbit, dim, b and fake degree")
    add("scan", cmd_scan,
        "test every fake degree for divisibility into the coinvariant "
        "Poincaré polynomial")
    add("witness", cmd_witness,
        "test the designated witness label and compare with its "
        "predicted failure")
    add("verify-omega", cmd_verify_omega,
        "sum restricted symplectic forms over each reflection class and "
        "verify the k/n scaling")
    molien = add("molien", cmd_molien,
                 "compare the Molien series against the degrees product")
    molien.add_argument("--truncate", type=_nonnegative_int, default=30,
                        help="series truncation order (default 30)")
    add("g4", cmd_g4,
        "run the full binary-tetrahedral verification battery",
        group_arg=False)
    table1 = add("table1", cmd_table1,
                 "scan an exceptional-group fake-degree dataset and diff "
                 "failure counts against the published values",
                 group_arg=False)
    table1.add_argument("--data", required=True,
                        help="fake-degree dataset file path")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    from .polycore import VerificationError
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull, as the signal
        # module's docs advise for SIGPIPE, so the flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    # DatasetError and ReducibleRepresentationError are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"cmscan: error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"cmscan: verification mismatch{detail}", file=sys.stderr)
        return 1
    except Exception as exc:
        # A bug, not a finding: keep the traceback for the report and a
        # status no verification result uses.
        import traceback
        traceback.print_exc()
        print(f"cmscan: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
