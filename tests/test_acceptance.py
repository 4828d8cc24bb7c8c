"""One test per acceptance criterion, each printing a pass/fail line.

Every identity is exact (integer, rational or cyclotomic arithmetic); the
runtime bounds are asserted, not aspirational.  Criterion 7's comparison
against the published exceptional-group counts needs an external dataset
and is skipped as "not run - data required" unless CMSCAN_EXCEPTIONAL_DATA
points at one; its format round-trip and synthetic sanity check always run.
"""
import contextlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import partitions_oracle
from battery import configured_groups
from cmscan import fakedeg as fd
from cmscan import g4
from cmscan import groups as gr
from cmscan import partitions as pt
from cmscan import scan
from cmscan.cyclo import CycloNumber
from cmscan.polycore import LaurentPoly


@contextlib.contextmanager
def criterion(capsys, number, bound=None):
    """Time the body, enforce the bound, print one PASS/FAIL line."""
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
        elapsed = time.perf_counter() - start
        if bound is not None:
            assert elapsed < bound, (
                f"criterion {number} took {elapsed:.1f}s, bound {bound}s")
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {number}: FAIL -- {info['detail']}")
        raise
    timing = f" [{elapsed:.1f}s" + (f" < {bound}s]" if bound else "]")
    with capsys.disabled():
        print(f"\ncriterion {number}: PASS -- {info['detail']}{timing}")


def test_criterion_1_fake_degree_consistency_battery(capsys):
    with criterion(capsys, 1, bound=30.0) as info:
        groups = [fd.GroupSpec(m, p, n)
                  for n in range(1, 5) for m in range(1, 7)
                  for p in range(1, m + 1)
                  if m % p == 0 and fd.GroupSpec(m, p, n).order <= 5000]
        labels = 0
        for g in groups:
            graded = LaurentPoly.zero()
            square_sum = 0
            for label in fd.irr_labels(g):
                f = fd.fake_degree(g, label.orbit)
                dim = fd.irr_dimension(g, label.orbit)
                assert f.at_one() == dim
                k = min(pt.index_weight(mp) for mp in label.orbit.members)
                hooks = sum(pt.weighted_size(lam)
                            for lam in label.orbit.canonical)
                assert f.trailing_degree() == k + g.m * hooks
                graded = graded + f * dim
                square_sum += dim * dim
                labels += 1
            assert square_sum == g.order
            assert graded == fd.coinvariant_poincare(g)
        info["detail"] = (f"{len(groups)} groups, {labels} labels: "
                          "f(1)=dim, sum dim^2=|W|, graded sum=Poincaré, "
                          "trailing-degree identity")


def test_criterion_2_symmetric_group_oracle(capsys):
    with criterion(capsys, 2, bound=5.0) as info:
        checked = 0
        for n in range(1, 7):
            g = fd.GroupSpec(1, 1, n)
            for orbit in fd.group_orbits(g):
                (lam,) = orbit.canonical
                assert (fd.fake_degree(g, orbit)
                        == partitions_oracle.major_index_poly(lam))
                checked += 1
        info["detail"] = (f"fake degree = major-index polynomial for all "
                          f"{checked} partitions, n <= 6")


def test_criterion_3_molien_equals_degrees_product(capsys):
    with criterion(capsys, 3, bound=60.0) as info:
        groups = configured_groups(max_order=2000)
        for g in groups:
            assert gr.molien_series(g, truncate=30) == gr.degrees_series(
                g, truncate=30)
        info["detail"] = (f"Molien series = degrees product to t^30 for "
                          f"{len(groups)} groups of order <= 2000")


def test_criterion_4_restricted_form_class_sums(capsys):
    with criterion(capsys, 4, bound=60.0) as info:
        groups = [g for g in configured_groups(max_order=2000)
                  if gr.is_irreducible_natural(g)]
        classes = 0
        for g in groups:
            one = CycloNumber.one(g.m)
            two = CycloNumber.from_rational(g.m, 2)
            for cls in gr.reflection_classes(g):
                lam = gr.omega_class_sum(g, cls)
                zeta, zinv = cls.zeta, cls.zeta.conj()
                closed = ((one - zeta).inverse() * (one - zinv).inverse()
                          * (two - zeta - zinv) * Fraction(cls.size, g.n))
                assert CycloNumber.from_rational(g.m, lam) == closed
                classes += 1
        forms = g4.reflection_form_check(g4.build_g4())
        assert forms == {"Cl3": Fraction(2), "Cl4": Fraction(2)}
        info["detail"] = (f"class form sums match the closed form over "
                          f"{classes} classes in {len(groups)} monomial "
                          "groups; both binary-tetrahedral classes give 2")


def test_criterion_5_scan_verdicts(capsys):
    with criterion(capsys, 5, bound=10.0) as info:
        smooth = ([fd.GroupSpec(m, 1, n)
                   for m in range(1, 5) for n in range(1, 5)]
                  + [fd.GroupSpec(2, 2, 3), fd.GroupSpec(3, 3, 2),
                     fd.GroupSpec(4, 4, 2)])
        for g in smooth:
            assert scan.scan_group(g).failures == 0, g
        singular = [fd.GroupSpec(5, 5, 2), fd.GroupSpec(6, 6, 2),
                    fd.GroupSpec(2, 2, 4), fd.GroupSpec(2, 2, 5),
                    fd.GroupSpec(3, 3, 3)]
        for g in singular:
            assert scan.scan_group(g).failures >= 1, g

        witness = scan.witness_check(fd.GroupSpec(5, 5, 2))
        assert witness.fake == LaurentPoly.parse("t + t^4")
        assert not witness.verdict.divides

        g224 = scan.scan_group(fd.GroupSpec(2, 2, 4))
        assert "2,2|-" in {v.label for v in g224.verdicts if not v.divides}

        g333 = fd.GroupSpec(3, 3, 3)
        orbit = pt.orbit_of(((1,), (1, 1), ()), g333.p, g333.d)
        assert fd.fake_degree(g333, orbit) == LaurentPoly.parse("2*t^5 + t^8")
        failing = {v.label for v in scan.scan_group(g333).verdicts
                   if not v.divides}
        assert pt.render_multipartition(orbit.canonical) in failing
        info["detail"] = (f"0 failures on {len(smooth)} groups with smooth "
                          f"spaces, >= 1 on {len(singular)} singular ones, "
                          "both designated witnesses verified")


def test_criterion_6_binary_tetrahedral_battery(capsys):
    with criterion(capsys, 6, bound=5.0) as info:
        group = g4.build_g4()
        assert len(group.elements) == 24
        g4.presentation_check(group)
        assert tuple(len(c) for c in group.classes) == (1, 1, 4, 4, 6, 4, 4)
        g4.class_product_check(group)
        g4.orthogonality_check()
        assert g4.summand_absence_check() == {"End(E)": 0, "End(F)": 0}
        for (n, m), want in (((12, 12), (1, 0)), ((6, -6), (0, 1)),
                             ((24, 0), (1, 2)), ((18, 6), (1, 1))):
            assert g4.solve_ef_multiplicities(n, m) == want
        checks = g4.run_battery()
        assert len(checks) == 13
        info["detail"] = ("order 24, presentation, class sizes/products, "
                          "orthogonality, End(E)/End(F) decompositions, "
                          "aE+bF solver round-trips; 13-check battery clean")


def test_criterion_7_format_round_trip_and_synthetic_scan(capsys, tmp_path):
    with criterion(capsys, 7, bound=None) as info:
        synth = scan.synthetic_dataset(fd.GroupSpec(3, 3, 2))
        path = tmp_path / "synthetic.fd"
        path.write_text(scan.render_dataset((synth,)), encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        parsed = scan.parse_dataset(text)
        assert parsed == (synth,)
        assert scan.render_dataset(parsed) == text
        (report,) = scan.scan_dataset(parsed)
        assert report.failures == 0
        info["detail"] = ("dataset format round-trips byte-exactly; "
                          "synthetic G(3,3,2) file scans with 0 failures")


def test_criterion_7_published_failure_counts(capsys):
    data = os.environ.get("CMSCAN_EXCEPTIONAL_DATA")
    if not data:
        with capsys.disabled():
            print("\ncriterion 7 (published counts): not run - data required")
        pytest.skip("not run - data required")
    with criterion(capsys, "7 (published counts)") as info:
        with open(data, encoding="utf-8") as handle:
            groups = scan.parse_dataset(handle.read())
        reports = scan.scan_dataset(groups)
        comparisons = scan.compare_with_expected(reports)
        checked = [c for c in comparisons if c.matches is not None]
        assert checked, "no group in the dataset has a published count"
        mismatched = [c.render() for c in checked if not c.matches]
        assert not mismatched, "\n".join(mismatched)
        info["detail"] = (f"failure counts match the published values for "
                          f"all {len(checked)} tabulated groups")


def test_criterion_8_determinism(capsys, tmp_path):
    with criterion(capsys, 8, bound=None) as info:
        data = tmp_path / "synthetic.fd"
        data.write_text(scan.render_dataset(
            (scan.synthetic_dataset(fd.GroupSpec(3, 3, 3)),)),
            encoding="utf-8")
        commands = [
            ("fake-degrees", "G(4,4,3)"),
            ("scan", "G(3,3,3)", "--json"),
            ("witness", "G(5,5,2)"),
            ("verify-omega", "G(4,2,2)"),
            ("molien", "G(3,3,2)", "--truncate", "20"),
            ("g4", "--json"),
            ("table1", "--data", str(data)),
        ]
        for argv in commands:
            outputs = []
            for seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=seed)
                proc = subprocess.run(
                    [sys.executable, "-m", "cmscan", *argv],
                    capture_output=True, text=True, env=env)
                outputs.append((proc.returncode, proc.stdout, proc.stderr))
            assert outputs[0][0] == 0, (argv, outputs[0][2])
            assert outputs[0] == outputs[1], argv
            if "--json" in argv:
                json.loads(outputs[0][1])
        info["detail"] = (f"{len(commands)} commands byte-identical across "
                          "repeated runs and hash seeds")
