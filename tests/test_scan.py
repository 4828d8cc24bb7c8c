import functools
import math
import re
import subprocess
import sys
import time

import pytest

import partitions_oracle
from battery import configured_groups
from cmscan import cli, fakedeg, polycore
from cmscan import partitions as pt
from cmscan import scan
from cmscan.fakedeg import (
    GroupSpec, coinvariant_poincare, fake_degree, irr_dimension, irr_labels,
    isomorphism_note, label_rows, reducibility_note,
)
from cmscan.polycore import (
    MAX_SPAN, LaurentPoly, VerificationError, poincare_polynomial,
)
from polyoracle import DictPoly

P = LaurentPoly.parse


class TestDivisibilityTest:
    def test_dividing_label(self):
        g = GroupSpec(3, 3, 2)
        poincare = coinvariant_poincare(g)
        v = scan.divisibility_test(poincare, P("t + t^2"), 2, "1|1|-")
        assert v.divides and v.b == 1
        assert v.poly == P("1 + t + t^2")
        assert v.verdict == "divisible"

    def test_failing_label(self):
        g = GroupSpec(5, 5, 2)
        poincare = coinvariant_poincare(g)
        v = scan.divisibility_test(poincare, P("t + t^4"), 2, "1|1|-|-|-")
        assert not v.divides and v.b == 1
        assert not v.poly.is_zero()
        assert v.verdict == "fails"

    def test_content_is_stripped(self):
        v = scan.divisibility_test(P("2 + 2*t"), P("2*t"), 2, "x")
        assert v.divides and v.b == 1
        assert v.poly == P("2 + 2*t")

    def test_rejects_bad_input(self):
        # A zero f or f(1) != dim breaks an identity: a mismatch, not a
        # usage error.
        with pytest.raises(VerificationError, match="of x must be nonzero"):
            scan.divisibility_test(P("1 + t"), LaurentPoly.zero(), 0, "x")
        with pytest.raises(VerificationError, match="dim 2 != f\\(1\\) = 1"):
            scan.divisibility_test(P("1 + t"), P("t"), 2, "x")

    def test_to_dict_keys(self):
        good = scan.divisibility_test(P("1 + t"), P("t"), 1, "x")
        assert "quotient" in good.to_dict()
        bad = scan.divisibility_test(P("1 + t^2"), P("1 + t"), 2, "x")
        assert "remainder" in bad.to_dict()


SMOOTH = ([GroupSpec(m, 1, n) for m in range(1, 5) for n in range(1, 5)]
          + [GroupSpec(2, 2, 3), GroupSpec(3, 3, 2), GroupSpec(4, 4, 2)])
SINGULAR = {GroupSpec(5, 5, 2): 1, GroupSpec(6, 6, 2): 2,
            GroupSpec(2, 2, 4): 2, GroupSpec(2, 2, 5): 4,
            GroupSpec(3, 3, 3): 4}


class TestScanGroup:
    @pytest.mark.parametrize("g", SMOOTH, ids=str)
    def test_no_failures(self, g):
        report = scan.scan_group(g)
        assert report.failures == 0
        assert report.labels == len(report.verdicts)
        assert "no obstruction" in "\n".join(report.render())

    @pytest.mark.parametrize("g", sorted(SINGULAR, key=str), ids=str)
    def test_failure_counts(self, g):
        report = scan.scan_group(g)
        assert report.failures == SINGULAR[g]
        assert "singular for all parameters" in "\n".join(report.render())

    def test_g224_failing_orbit(self):
        report = scan.scan_group(GroupSpec(2, 2, 4))
        failing = {v.label for v in report.verdicts if not v.divides}
        assert "2,2|-" in failing

    def test_g333_failing_orbit(self):
        g = GroupSpec(3, 3, 3)
        orbit = pt.orbit_of(((1,), (1, 1), ()), g.p, g.d)
        assert fake_degree(g, orbit) == P("2*t^5 + t^8")
        report = scan.scan_group(g)
        failing = {v.label for v in report.verdicts if not v.divides}
        assert pt.render_multipartition(orbit.canonical) in failing

    def test_orbit_labels_share_verdicts(self):
        report = scan.scan_group(GroupSpec(2, 2, 4))
        by_base = {}
        for v in report.verdicts:
            base = v.label.split(" eps=")[0]
            by_base.setdefault(base, set()).add((v.divides, v.poly))
        assert all(len(outcomes) == 1 for outcomes in by_base.values())

    def test_notes_mention_known_isomorphism(self):
        report = scan.scan_group(GroupSpec(2, 2, 3))
        assert any("G(1,1,4)" in note for note in report.notes)


def _fields(verdicts):
    return [(v.label, v.b, v.dim, v.divides, v.poly) for v in verdicts]


def _primitive(f):
    shifted = f.shift(-f.trailing_degree())
    return shifted / LaurentPoly.monomial(shifted.content())


# Two rows of content 2 (2*t, 2*t^3) and six identical rows (t^2); all
# eight share the primitive divisor 1 of P = (1 + t)^4.
REPEATS = """\
group R order 16 rank 4 degrees 2,2,2,2
irrep a dim 1 fake 1
irrep b dim 2 fake 2*t
irrep c1 dim 1 fake t^2
irrep c2 dim 1 fake t^2
irrep c3 dim 1 fake t^2
irrep c4 dim 1 fake t^2
irrep c5 dim 1 fake t^2
irrep c6 dim 1 fake t^2
irrep d dim 2 fake 2*t^3
irrep e dim 1 fake t^4
"""


class TestDivisionMemo:
    """Each distinct primitive divisor is divided once per group; the
    oracle is the per-label divisibility_test with no memo."""

    @pytest.mark.parametrize("spec", [(3, 3, 3), (4, 2, 4), (2, 2, 8),
                                      (6, 3, 4), (5, 1, 4)])
    def test_scan_group_matches_unmemoized_loop(self, spec):
        g = GroupSpec(*spec)
        poincare = coinvariant_poincare(g)
        fakes = [fake_degree(g, label.orbit) for label in irr_labels(g)]
        oracle = [scan.divisibility_test(poincare, f,
                                         irr_dimension(g, label.orbit),
                                         label.render())
                  for label, f in zip(irr_labels(g), fakes)]
        report = scan.scan_group(g)
        assert _fields(report.verdicts) == _fields(oracle)
        # Labels sharing a primitive divisor share one poly object.
        assert len({id(v.poly) for v in report.verdicts}) == len(
            {_primitive(f) for f in fakes})

    def test_scan_dataset_matches_unmemoized_loop(self):
        groups = scan.parse_dataset(REPEATS) + (
            scan.synthetic_dataset(GroupSpec(3, 3, 3)),
            scan.synthetic_dataset(GroupSpec(4, 2, 3)))
        reports = scan.scan_dataset(groups)
        for g, report in zip(groups, reports):
            poincare = g.poincare()
            oracle = [scan.divisibility_test(poincare, row.fake, row.dim, row.ident)
                      for row in g.rows]
            assert _fields(report.verdicts) == _fields(oracle)
        (repeats, *_) = reports
        assert repeats.failures == 0
        assert len({id(v.poly) for v in repeats.verdicts}) == 1
        assert [(v.b, v.dim) for v in repeats.verdicts][:2] == [(0, 1), (1, 2)]

    def test_unit_lead_divisors_take_the_packed_path(self, monkeypatch):
        # A fallback to the loop gives the same output, so only the
        # packed division's own results show that it ran.
        results = []
        packed = polycore._packed_divmod

        def spy(*args):
            results.append(packed(*args))
            return results[-1]

        g = GroupSpec(2, 2, 14)
        degree = coinvariant_poincare(g).degree()
        divisors = {_primitive(f) for _, _, f in label_rows(g)}
        monkeypatch.setattr(polycore, "_packed_divmod", spy)
        scan.scan_group(g)
        assert len(results) == sum(
            abs(dict(d.items())[d.degree()]) == 1 and d.degree() <= degree
            for d in divisors) > 400
        assert None not in results

    def test_scan_group_work_is_per_orbit_and_per_shape(self, monkeypatch):
        # One fake_degree call an orbit, one expansion a shape key (hook
        # multiset, R'), one division of P a primitive part.
        g = GroupSpec(10, 5, 6)
        poincare = coinvariant_poincare(g)
        orbits = fakedeg.group_orbits(g)
        keys = set()
        for orbit in orbits:
            weight = partitions_oracle.orbit_weight_poly(orbit)
            low = weight.trailing_degree()
            keys.add((tuple(sorted(h for lam in orbit.canonical
                                   for h in pt._hook_lengths(lam))),
                      tuple(dict(weight.items()).get(low + i, 0)
                            for i in range(weight.degree() - low + 1))))
        primitives = {_primitive(f) for _, _, f in label_rows(g)}
        calls = {"fake_degree": 0, "_expand_shape": 0, "divisions": 0}

        def counted(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)
            return spy

        for name in ("fake_degree", "_expand_shape"):
            monkeypatch.setattr(fakedeg, name,
                                counted(name, getattr(fakedeg, name)))
        real_divmod = LaurentPoly.__divmod__

        def divmod_spy(a, b):
            calls["divisions"] += a == poincare
            return real_divmod(a, b)

        monkeypatch.setattr(LaurentPoly, "__divmod__", divmod_spy)
        report = scan.scan_group(g)
        assert report.labels == len(orbits) == 3883
        assert calls == {"fake_degree": len(orbits),
                         "_expand_shape": len(keys),
                         "divisions": len(primitives)}
        assert len(keys) == 232

    @staticmethod
    def _spy_divisions(monkeypatch):
        """The divisors that scan's own calls pass to divisibility_test."""
        divided = []
        real = scan.divisibility_test

        def spy(poincare, f, *rest):
            divided.append(f)
            return real(poincare, f, *rest)

        monkeypatch.setattr(scan, "divisibility_test", spy)
        return divided

    @staticmethod
    def _scan_rows(rows, poincare):
        """_scan_rows of (ident, dim, fake text) rows."""
        rows = [scan.DatasetRow(ident, dim, P(fake)) for ident, dim, fake in rows]
        _, row_shapes = scan._shape_rows(row.fake for row in rows)
        return scan._scan_rows("R", poincare, rows, row_shapes, ())

    def test_rows_sharing_a_primitive_part_share_one_division(self, monkeypatch):
        divided = self._spy_divisions(monkeypatch)
        report = self._scan_rows([("x", 2, "t + t^2"), ("y", 6, "3*t^4 + 3*t^5")],
                                 P("1 + 2*t + t^2"))
        v1, v2 = report.verdicts
        assert divided == [P("1 + t")]
        assert v1.poly is v2.poly and v1.poly == P("1 + t")
        assert (v1.b, v1.dim, v1.divides) == (1, 2, True)
        assert (v2.b, v2.dim, v2.divides) == (4, 6, True)
        # Through scan_dataset: REPEATS' eight rows have two shapes, 1
        # and 2, and one primitive divisor.
        divided.clear()
        (report,) = scan.scan_dataset(scan.parse_dataset(REPEATS))
        assert divided == [P("1")]
        assert len({id(v.poly) for v in report.verdicts}) == 1

    def test_dim_mismatch_raises_on_a_divided_divisor(self, monkeypatch):
        divided = self._spy_divisions(monkeypatch)
        with pytest.raises(VerificationError,
                           match="dim 3 != f\\(1\\) = 2 for y"):
            self._scan_rows([("x", 2, "1 + t"), ("y", 3, "t + t^2")],
                            P("1 + 2*t + t^2"))
        assert divided == [P("1 + t")]
        with pytest.raises(VerificationError, match="nonzero"):
            scan.divisibility_test(P("1 + 2*t + t^2"), LaurentPoly.zero(), 0, "z")

    def test_budget_pass_finds_no_primitive_part(self, monkeypatch):
        # validate's _shape_rows finds each shape's primitive part once;
        # between validate and _scan_rows the budget only reads it.
        calls = []
        events = []
        real_primitive = scan._primitive
        real_validate = scan.ExceptionalGroupData.validate
        real_scan_rows = scan._scan_rows

        def primitive(shape):
            calls.append(shape)
            return real_primitive(shape)

        def validate(self):
            out = real_validate(self)
            events.append(("validated", len(calls)))
            return out

        def scan_rows(*args):
            events.append(("scanning", len(calls)))
            return real_scan_rows(*args)

        groups = scan.parse_dataset(REPEATS) + (
            scan.synthetic_dataset(GroupSpec(4, 2, 3)),)
        shapes = [scan._shape_rows(row.fake for row in g.rows)[0] for g in groups]
        monkeypatch.setattr(scan, "_primitive", primitive)
        monkeypatch.setattr(scan.ExceptionalGroupData, "validate", validate)
        monkeypatch.setattr(scan, "_scan_rows", scan_rows)
        scan.scan_dataset(groups)
        assert [kind for kind, _ in events] == ["validated", "scanning"] * 2
        assert all(events[i][1] == events[i + 1][1]
                   for i in range(0, len(events), 2))
        # One call a distinct shape in validate, one a distinct divisor
        # in divisibility_test: REPEATS has two shapes and one divisor.
        assert len(shapes[0]) == 2
        assert len(calls) == sum(len(s) + len({x.divisor for x in s})
                                 for s in shapes)

    @pytest.mark.parametrize("spec", [(3, 3, 3), (2, 2, 6)])
    def test_reports_render_each_verdict_as_before(self, spec):
        report = scan.scan_group(GroupSpec(*spec))
        lines = list(report.render())
        assert lines[-len(report.verdicts):] == [
            "  " + v.render() for v in report.verdicts]
        assert report.to_dict()["verdicts"] == [
            v.to_dict() for v in report.verdicts]


def _dict_sum(terms):
    """sum(w * f) over (f, w) pairs, added as DictPoly values."""
    total = DictPoly.zero()
    for f, w in terms:
        total = total + DictPoly.of(f) * w
    return LaurentPoly(dict(total.items()))


def _per_row_sum(rows):
    """sum(dim * f) one row at a time."""
    return _dict_sum((f, dim) for dim, f in rows)


def graded_sum(rows):
    """sum(dim * f) over (dim, f) rows, the oracle of the packed graded
    sum.  The dims of equal fake degrees are added first, so each
    distinct f is scaled and added once."""
    weights = {}
    for dim, f in rows:
        weights[f] = weights.get(f, 0) + dim
    return _dict_sum(weights.items())


class TestGradedSum:
    """The oracle graded_sum adds the dims of equal fake degrees before
    scaling; its own oracle is the per-row sum."""

    @pytest.mark.parametrize("g", configured_groups(max_order=2000), ids=str)
    def test_label_rows(self, g):
        rows = [(dim, f) for _, dim, f in label_rows(g)]
        assert graded_sum(rows) == _per_row_sum(rows)
        assert graded_sum(rows) == coinvariant_poincare(g)

    def test_repeated_and_distinct_rows(self):
        rows = [(1, P("1")), (2, P("t + t^2")), (3, P("t^2 + t")),
                (1, P("2*t^3")), (2, P("t^3")), (0, P("t^9")),
                (4, P("t^-1 - 1")), (2, P("t + t^2")), (1, P("1 - t^-1"))]
        assert graded_sum(rows) == _per_row_sum(rows) == P(
            "4*t^3 + 7*t^2 + 7*t - 2 + 3*t^-1")
        assert graded_sum([]) == LaurentPoly.zero()


def _scanned_shapes(rows):
    """The per-shape record _shape_rows keeps of (label, dim, f) rows."""
    shapes, _ = scan._shape_rows(f for _, _, f in rows)
    return shapes


# The groups of the benchmark's three dataset files
# (perfbench/workloads.py, DATASET_POOLS).
BENCHMARK_DATASET_GROUPS = (
    "G(2,2,14)", "G(2,2,13)", "G(2,2,12)", "G(10,5,5)", "G(12,4,5)",
    "G(12,6,5)", "G(6,1,5)", "G(5,1,6)", "G(2,1,12)")


@functools.cache
def _synthetic(spec):
    return scan.synthetic_dataset(GroupSpec.parse(spec))


class TestPackedGradedSum:
    """scan_group and ExceptionalGroupData.validate check
    sum(dim * f) == P as one packed integer sum over the distinct
    shapes of the rows (``_graded_sum_holds``); the oracle is
    graded_sum."""

    @pytest.mark.parametrize("g", configured_groups(max_order=2000), ids=str)
    def test_agrees_with_graded_sum(self, g):
        rows = label_rows(g)
        poincare = coinvariant_poincare(g)
        (label, dim, f), *rest = rows
        moved = ((label, dim, f.shift(1)), *rest)
        for rows_, target in ((rows, poincare), (rows, poincare * 2),
                              (rows, poincare.shift(1)),
                              (rows, _dict_sum(((poincare, 1),
                                                (P("t^2 - t"), 1)))),
                              (moved, poincare)):
            shapes = _scanned_shapes(rows_)
            want = graded_sum((d, f) for _, d, f in rows_) == target
            assert scan._graded_sum_holds(shapes, target) is want
            assert want is (rows_ is rows and target is poincare)

    @pytest.mark.parametrize("moved", [False, True], ids=["as-is", "moved"])
    @pytest.mark.parametrize("spec", BENCHMARK_DATASET_GROUPS)
    def test_validate_record_agrees_with_graded_sum(self, spec, moved,
                                                    monkeypatch):
        # validate hands _graded_sum_holds the record its row loop built;
        # "moved" multiplies the first row below deg P by t.
        g = _synthetic(spec)
        poincare = coinvariant_poincare(GroupSpec.parse(spec))
        rows = g.rows
        if moved:
            k = next(k for k, row in enumerate(rows)
                     if row.fake.degree() < poincare.degree())
            rows = (*rows[:k], rows[k]._replace(fake=rows[k].fake.shift(1)),
                    *rows[k + 1:])
        want = graded_sum((row.dim, row.fake) for row in rows) == poincare
        assert want is not moved
        seen = []
        real = scan._graded_sum_holds

        def spy(shapes, target):
            seen.append(real(shapes, target))
            return seen[-1]

        monkeypatch.setattr(scan, "_graded_sum_holds", spy)
        if want:
            assert g._replace(rows=rows).validate()[0] == poincare
        else:
            with pytest.raises(scan.DatasetError, match="sum of dim \\* f "
                               "differs"):
                g._replace(rows=rows).validate()
        assert seen == [want]

    @pytest.mark.parametrize("g", configured_groups(max_order=2000), ids=str)
    def test_slot_width_holds_every_coefficient(self, g, monkeypatch):
        # Coefficients are nonnegative, so each partial sum's are at most
        # the total's, and those at most sum(dim * f(1)) = sum(dim^2);
        # one bit more than that bound's length leaves each slot's top
        # bit clear.  At t^0 of G(1,1,1) the bound is met.
        rows = label_rows(g)
        poincare = coinvariant_poincare(g)
        largest = max(c for _, c in poincare.items())
        bound = sum(dim * dim for _, dim, _ in rows)
        shapes = _scanned_shapes(rows)
        widths = set()

        def spy(f, width):
            widths.add(width)
            return polycore.packed_value(f, width)

        monkeypatch.setattr(scan, "packed_value", spy)
        assert scan._graded_sum_holds(shapes, poincare)
        (width,) = widths
        assert width % 8 == 0
        assert largest <= bound < 1 << width - 1
        if g.order == 1:
            assert largest == bound

    def test_negative_coefficient_is_refused(self):
        # dim = f(1) holds, but a negative coefficient voids the bound.
        (label, _, _), *_ = label_rows(GroupSpec(2, 1, 1))
        shapes = _scanned_shapes(((label, 1, P("2 - t")),))
        with pytest.raises(VerificationError, match=re.escape(
                "fake degree has a negative coefficient")):
            scan._graded_sum_holds(shapes, P("1"))

    def test_moved_row_raises_under_optimize(self):
        script = """
from cmscan import scan
from cmscan.fakedeg import GroupSpec
from cmscan.polycore import VerificationError
real = scan.label_rows

def moved(g):
    (label, dim, f), *rest = real(g)
    return ((label, dim, f.shift(1)), *rest)

scan.label_rows = moved
print("__debug__ =", __debug__)
try:
    scan.scan_group(GroupSpec(3, 3, 3))
except VerificationError as exc:
    print("VerificationError:", exc)
"""
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "__debug__ = False", "VerificationError: graded sum rule violated"]


class TestGroupScanIsDatasetScan:
    """scan_group is the dataset scan of the group's own label rows."""

    @pytest.mark.parametrize("g", configured_groups(max_order=2000), ids=str)
    def test_same_verdicts(self, g):
        report = scan.scan_group(g)
        (dataset,) = scan.scan_dataset((scan.synthetic_dataset(g),))
        assert report.failures == dataset.failures
        assert [(v.b, v.dim, v.divides, v.poly) for v in report.verdicts] == [
            (v.b, v.dim, v.divides, v.poly) for v in dataset.verdicts]
        assert [v.label.replace(" ", "_") for v in report.verdicts] == [
            v.label for v in dataset.verdicts]


def _hook_product(mp, m):
    """prod over the hook lengths h of mp of [m*h]_t = 1 + t + ... + t^(mh-1)."""
    out = DictPoly.one()
    for lam in mp:
        if lam:
            for h in pt._hook_lengths(lam):
                out = out * DictPoly({e: 1 for e in range(m * h)})
    return out


def _primitive_weight(orbit):
    """primitive(R'): the orbit weight polynomial over its lowest
    monomial and its content."""
    weight = DictPoly.of(partitions_oracle.orbit_weight_poly(orbit))
    coeffs = dict(weight.shift(-weight.trailing_degree()).items())
    content = math.gcd(*coeffs.values())
    return DictPoly({e: c // content for e, c in coeffs.items()})


# Every group of order <= 2000, and larger ones where p > 1 leaves a
# nontrivial R' and both verdicts occur.
QUOTIENT_GROUPS = configured_groups(max_order=2000) + tuple(
    GroupSpec(*spec) for spec in [(12, 6, 4), (12, 4, 4), (6, 3, 5),
                                  (4, 2, 6)])


class TestQuotientOracle:
    """P / primitive(t^-b f) = prod_h [m h]_t / primitive(R'), since
    P = prod_i [d_i]_t and f = t^b R' prod_i (1 - t^(d_i)) / prod_h
    (1 - t^(mh)) with n hooks; so a label divides exactly when
    primitive(R') divides the hook product, with that quotient."""

    @pytest.mark.parametrize("g", QUOTIENT_GROUPS, ids=str)
    def test_verdicts_match_hook_product_division(self, g):
        report = scan.scan_group(g)
        expected = {}
        for label, verdict in zip(irr_labels(g), report.verdicts):
            orbit = label.orbit
            if orbit not in expected:
                expected[orbit] = divmod(_hook_product(orbit.canonical, g.m),
                                         _primitive_weight(orbit))
            quotient, remainder = expected[orbit]
            assert verdict.divides == remainder.is_zero(), verdict.label
            if verdict.divides:
                assert DictPoly.of(verdict.poly) == quotient, verdict.label

    def test_larger_groups_have_both_verdicts(self):
        for g in QUOTIENT_GROUPS[-4:]:
            report = scan.scan_group(g)
            assert 0 < report.failures < report.labels, g


class TestChecksUnderOptimize:
    """The scan path raises VerificationError explicitly, so ``python -O``,
    which strips asserts, still runs every check."""

    SCRIPT = """
from cmscan import scan
from cmscan.fakedeg import GroupSpec
from cmscan.polycore import VerificationError
real = scan.coinvariant_poincare
scan.coinvariant_poincare = lambda g: {corrupt}
print("__debug__ =", __debug__)
try:
    scan.scan_group(GroupSpec(3, 3, 3))
except VerificationError as exc:
    print("VerificationError:", exc)
"""

    @pytest.mark.parametrize("corrupt, message", [
        # P(1) is unchanged, so only the graded sum rule catches this.
        ("real(g).shift(-1)", "graded sum rule violated"),
        ("real(g) * 2", "P(1) = 108 != |W| = 54"),
    ])
    def test_corrupted_poincare_raises(self, corrupt, message):
        code = self.SCRIPT.format(corrupt=corrupt)
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "__debug__ = False", f"VerificationError: {message}"]

    def test_only_verification_error_is_exit_1(self, monkeypatch, capsys):
        # A stray AssertionError is a bug, not a finding: exit 3 with its
        # traceback, where a VerificationError is a mismatch (exit 1).
        for error, code, last in (
                (VerificationError("boom"), 1,
                 "cmscan: verification mismatch: boom"),
                (AssertionError("boom"), 3,
                 "cmscan: internal error: AssertionError: boom")):
            def broken(g):
                raise error

            monkeypatch.setattr(scan, "scan_group", broken)
            assert cli.main(["scan", "G(3,3,3)"]) == code
            err = capsys.readouterr().err
            assert ("Traceback" in err) == (code == 3)
            assert err.splitlines()[-1] == last


class TestWitness:
    def test_families(self):
        assert scan.witness_multipartition(GroupSpec(6, 6, 2)) == (
            (1,), (1,), (), (), (), ())
        assert scan.witness_multipartition(GroupSpec(4, 2, 3)) == (
            (1,), (1, 1), (), ())
        assert scan.witness_multipartition(GroupSpec(2, 2, 3)) == (
            (1,), (1, 1))
        assert scan.witness_multipartition(GroupSpec(2, 2, 5)) == (
            (2, 2, 1), ())

    def test_refusals(self):
        with pytest.raises(ValueError):
            scan.witness_multipartition(GroupSpec(3, 1, 2))  # p == 1
        with pytest.raises(ValueError):
            scan.witness_multipartition(GroupSpec(4, 4, 1))  # n == 1

    @pytest.mark.parametrize("spec", [(5, 5, 2), (6, 6, 2), (2, 2, 4),
                                      (2, 2, 5), (5, 5, 3), (6, 6, 3),
                                      (6, 2, 3), (6, 2, 2), (3, 3, 3),
                                      (4, 4, 3), (4, 2, 3)])
    def test_predicted_failures(self, spec):
        report = scan.witness_check(GroupSpec(*spec))
        assert report.matches_prediction
        assert not report.verdict.divides
        assert report.notes == ()

    def test_size_bound_degree_is_that_of_p(self, monkeypatch):
        # The bound's closed form of deg P, read from its message with a
        # limit of 0, against P itself.
        monkeypatch.setattr(scan, "MAX_WITNESS_DEGREE", 0)
        for spec in [(2, 2, 4), (5, 5, 2), (6, 2, 3), (4, 2, 5), (1, 1, 6),
                     (3, 1, 1), (12, 4, 3)]:
            g = GroupSpec(*spec)
            degree = coinvariant_poincare(g).degree()
            assert degree == sum(d - 1 for d in g.degrees)
            with pytest.raises(ValueError,
                               match=f"of degree {degree}; the limit is 0"):
                scan._check_witness_size(g)

    def test_size_bounds(self, monkeypatch):
        # deg P of G(2,2,141) is 19,740 and G(447,447,2) has p*m = 199,809.
        for spec in [(2, 2, 141), (447, 447, 2), (5, 5, 2)]:
            scan._check_witness_size(GroupSpec(*spec))
        for spec in [(2, 2, 142), (448, 448, 2), (20001, 20001, 2)]:
            with pytest.raises(ValueError, match="the limit is"):
                scan.witness_check(GroupSpec(*spec))
        # Both limits are inclusive.
        monkeypatch.setattr(scan, "MAX_WITNESS_DEGREE", 19_740)
        scan._check_witness_size(GroupSpec(2, 2, 141))
        monkeypatch.setattr(scan, "MAX_WITNESS_DEGREE", 19_739)
        with pytest.raises(ValueError, match="the limit is 19739"):
            scan._check_witness_size(GroupSpec(2, 2, 141))
        monkeypatch.setattr(pt, "MAX_MULTIPARTITIONS", 25)
        scan._check_witness_size(GroupSpec(5, 5, 2))
        monkeypatch.setattr(pt, "MAX_MULTIPARTITIONS", 24)
        with pytest.raises(ValueError, match="p[*]m = 25 components"):
            scan._check_witness_size(GroupSpec(5, 5, 2))

    def test_g552_witness_fake_degree(self):
        report = scan.witness_check(GroupSpec(5, 5, 2))
        assert report.fake == P("t + t^4")

    @pytest.mark.parametrize("spec", [(2, 2, 2), (2, 2, 3), (3, 3, 2),
                                      (4, 4, 2)])
    def test_isomorphic_or_reducible_groups_divide(self, spec):
        # The groups outside the singular class, each named by its note.
        g = GroupSpec(*spec)
        report = scan.witness_check(g)
        assert not report.matches_prediction
        assert report.verdict.divides
        note = reducibility_note(g) or isomorphism_note(g)
        assert note and report.notes == (note,)
        lines = list(report.render())
        assert lines[2:] == ["  does NOT fail", f"  note: {note}"]

    def test_g333_wraparound_fake_degree(self):
        # f counts every orbit member, the wrapped-round 1,1|-|1 included.
        report = scan.witness_check(GroupSpec(3, 3, 3))
        assert report.fake == P("t^8 + 2*t^5")

    def test_g333_witness_is_the_criterion_5_orbit(self):
        g = GroupSpec(3, 3, 3)
        orbit = pt.orbit_of(((1,), (1, 1), ()), g.p, g.d)
        report = scan.witness_check(g)
        assert report.multipartition == "1|1,1|-"
        assert report.verdict.label == pt.render_multipartition(orbit.canonical)
        assert report.fake == fake_degree(g, orbit)


class TestDichotomySweep:
    """The paper's dichotomy on every small imprimitive group: no label
    fails exactly for G(m,1,n), for the cyclic G(m,p,1) = G(m/p,1,1), and
    for the p > 1 groups below, which are not in the singular class."""

    # Typed by hand from the theorem, not read from the code under test;
    # each value is part of the group's note.
    NOT_SINGULAR = {
        (2, 2, 2): "reducible",  # the Klein four-group on C^2
        (2, 2, 3): "isomorphic to G(1,1,4)",  # the symmetric group S_4
        (3, 3, 2): "isomorphic to G(1,1,3)",  # the symmetric group S_3
        (4, 4, 2): "isomorphic to G(2,1,2)",  # type B_2
    }

    GROUPS = [g for g in (GroupSpec(m, p, n) for m in range(1, 13)
                          for p in range(1, m + 1) if m % p == 0
                          for n in range(1, 7))
              if g.order <= 10**6]

    def test_scan_verdicts_follow_the_dichotomy(self):
        assert len(self.GROUPS) == 164
        failing = {(g.m, g.p, g.n): scan.scan_group(g).failures > 0
                   for g in self.GROUPS}
        for key, fails in failing.items():
            _, p, n = key
            smooth = p == 1 or n == 1 or key in self.NOT_SINGULAR
            assert fails != smooth, (key, self.NOT_SINGULAR.get(key))

    def test_witness_pins_the_other_singular_groups(self):
        singular = [g for g in self.GROUPS if g.p > 1 and g.n > 1
                    and (g.m, g.p, g.n) not in self.NOT_SINGULAR]
        assert len(singular) == 80
        missed = {(g.m, g.p, g.n) for g in singular
                  if not scan.witness_check(g).matches_prediction}
        assert missed == set()

    def test_witness_on_a_wider_grid(self):
        # Every p > 1, n >= 2 group with m <= 24, n <= 8 and deg P <= 3000:
        # the witness fails exactly outside NOT_SINGULAR, and each group of
        # NOT_SINGULAR carries its one note.
        grid = [g for g in (GroupSpec(m, p, n) for m in range(2, 25)
                            for p in range(2, m + 1) if m % p == 0
                            for n in range(2, 9))
                if sum(d - 1 for d in g.degrees) <= 3000]
        assert len(grid) == 420
        for g in grid:
            key = (g.m, g.p, g.n)
            report = scan.witness_check(g)
            assert report.matches_prediction != (key in self.NOT_SINGULAR), key
            if key in self.NOT_SINGULAR:
                (note,) = report.notes
                assert note.startswith(g.render())
                assert self.NOT_SINGULAR[key] in note
            else:
                assert report.notes == (), key


SAMPLE = """\
group C2 order 2 rank 1 degrees 2
irrep triv dim 1 fake 1
irrep sgn dim 1 fake t
"""


class TestDatasetFormat:
    def test_parse_sample(self):
        (g,) = scan.parse_dataset(SAMPLE)
        assert g.name == "C2" and g.order == 2 and g.degrees == (2,)
        assert [r.ident for r in g.rows] == ["triv", "sgn"]
        g.validate()

    def test_render_round_trip(self):
        groups = scan.parse_dataset(SAMPLE)
        assert scan.render_dataset(groups) == SAMPLE
        assert scan.parse_dataset(scan.render_dataset(groups)) == groups

    def test_comments_and_blank_lines(self):
        text = "# header\n\n" + SAMPLE + "\n# trailing\n"
        assert scan.parse_dataset(text) == scan.parse_dataset(SAMPLE)

    def test_unrecognized_line(self):
        with pytest.raises(scan.DatasetError, match="line 2"):
            scan.parse_dataset("group C1 order 1 rank 1 degrees 1\nbogus\n")

    def test_row_before_header(self):
        with pytest.raises(scan.DatasetError, match="before any group"):
            scan.parse_dataset("irrep triv dim 1 fake 1\n")

    def test_bad_polynomial(self):
        with pytest.raises(scan.DatasetError, match="line 2"):
            scan.parse_dataset(
                "group C1 order 1 rank 1 degrees 1\n"
                "irrep triv dim 1 fake t^\n")

    def test_empty_degree(self):
        with pytest.raises(scan.DatasetError, match="line 2: group C1: bad degree"):
            scan.parse_dataset("\ngroup C1 order 1 rank 2 degrees 1,,1\n")

    def test_degree_below_one(self):
        with pytest.raises(scan.DatasetError, match="line 1: .* at least 1"):
            scan.parse_dataset("group C1 order 1 rank 1 degrees 0\n")

    def test_degrees_bounded_before_factorising(self):
        # sum(d - 1) = MAX_SPAN passes the parser; one more is refused
        # before any Poincaré polynomial work.
        top = MAX_SPAN + 1
        (g,) = scan.parse_dataset(f"group X order 1 rank 1 degrees {top}\n")
        assert g.degrees == (top,)
        with pytest.raises(scan.DatasetError, match=f"degree {top},"):
            scan.parse_dataset(
                f"group X order 1 rank 2 degrees {top},2\n")
        with pytest.raises(scan.DatasetError, match="line 1: group X"):
            scan.parse_dataset("group X order 1 rank 1 degrees 1000000000\n")

    def test_fake_degrees_share_one_budget_per_file(self):
        # Two rows of MAX_SPAN / 2 coefficients fill the budget; one more
        # coefficient is refused, naming its line.
        head = "group X order 9 rank 1 degrees 2\n"
        rows = f"irrep r dim 2 fake t^{MAX_SPAN // 2 - 1} + 1\n" * 2
        (g,) = scan.parse_dataset(head + rows)
        assert len(g.rows) == 2
        with pytest.raises(scan.DatasetError,
                           match="^line 4: .* the limit for a file is"):
            scan.parse_dataset(head + rows + "irrep s dim 1 fake 1\n")

    def test_repeated_rows_are_each_charged(self):
        # Four equal rows of MAX_SPAN / 4 coefficients fill the budget;
        # a fifth, whose text was parsed before, is refused at its line.
        head = "group X order 9 rank 1 degrees 2\n"
        row = f"irrep r dim 2 fake t^{MAX_SPAN // 4 - 1} + 1\n"
        (g,) = scan.parse_dataset(head + row * 4)
        assert len(g.rows) == 4
        with pytest.raises(scan.DatasetError, match=(
                f"^line 6: the fake degrees so far hold {MAX_SPAN * 5 // 4} "
                f"coefficients; the limit for a file is {MAX_SPAN}$")):
            scan.parse_dataset(head + row * 5)

    def test_equal_fake_texts_share_one_poly(self):
        text = ("group X order 4 rank 1 degrees 2\n"
                "irrep a dim 2 fake t + 1\n"
                "group Y order 4 rank 1 degrees 2\n"
                "irrep b dim 2 fake t + 1\n"
                "irrep c dim 2 fake 1 + t\n")
        x, y = scan.parse_dataset(text)
        a, b, c = x.rows[0].fake, *(row.fake for row in y.rows)
        assert a is b
        assert a == c

    @pytest.mark.parametrize("field, lineno", [("order", 1), ("rank", 1),
                                               ("dim", 2)])
    def test_oversized_integer_names_its_line(self, field, lineno):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts ints of any length")
        text = ("group C1 order 1 rank 1 degrees 1\n"
                "irrep triv dim 1 fake 1\n").replace(
                    f"{field} 1", f"{field} {'9' * (limit + 1)}")
        with pytest.raises(scan.DatasetError, match=f"^line {lineno}: "):
            scan.parse_dataset(text)

    def test_validate_square_sum(self):
        text = SAMPLE.replace("order 2", "order 3")
        with pytest.raises(scan.DatasetError, match="dim\\^2"):
            scan.parse_dataset(text)[0].validate()

    def test_validate_value_at_one(self):
        text = SAMPLE.replace("fake t", "fake t + t^2")
        with pytest.raises(scan.DatasetError, match="f\\(1\\)"):
            scan.parse_dataset(text)[0].validate()

    def test_validate_graded_sum(self):
        # 1 + 1 != 1 + t; each row passes every row check.
        text = SAMPLE.replace("irrep sgn dim 1 fake t",
                              "irrep sgn dim 1 fake 1")
        with pytest.raises(scan.DatasetError, match="Poincaré"):
            scan.parse_dataset(text)[0].validate()

    @pytest.mark.parametrize("fake, message", [
        ("2*t - 1", "C2 row sgn: fake degree has a negative coefficient"),
        ("t^2", "C2 row sgn: fake degree has degree 2, above deg P = 1"),
        # Both faults in one row: the sign is named.
        ("t^2 - t^3 + t", "C2 row sgn: fake degree has a negative "
                          "coefficient"),
    ], ids=["negative", "above-deg-p", "both"])
    def test_validate_graded_multiplicity(self, fake, message):
        text = SAMPLE.replace("fake t", f"fake {fake}")
        with pytest.raises(scan.DatasetError, match=f"^{re.escape(message)}$"):
            scan.parse_dataset(text)[0].validate()

    @pytest.mark.parametrize("rows, message", [
        ("a dim 1 fake 2 - t^2\nirrep b dim 1 fake 2*t", "a: fake degree "
         "has a negative coefficient"),
        ("a dim 1 fake 2*t\nirrep b dim 1 fake 2 - t^2", "a: f\\(1\\) = 2"),
        ("a dim 1 fake 2*t - t^-1\nirrep b dim 1 fake 1",
         "a: fake degree has a negative exponent"),
        ("a dim 1 fake t^2\nirrep b dim 1 fake 2 - t", "a: fake degree has "
         "degree 2"),
    ], ids=["sign-before-later-row", "f1-before-later-row", "exponent-first",
            "degree-before-later-row"])
    def test_validate_reports_the_first_failing_row(self, rows, message):
        # Rows are checked in file order; within a row, dim, f(1), the
        # exponents, the coefficients' sign, then the degree.
        text = f"group C2 order 2 rank 1 degrees 2\nirrep {rows}\n"
        with pytest.raises(scan.DatasetError, match=f"^C2 row {message}"):
            scan.parse_dataset(text)[0].validate()

    def test_validate_graded_sum_is_near_linear(self):
        # [2^18]_t = sum of t^k: a valid dataset of 2^18 rows of one
        # shape.  Summed as s(X) * sum_b rows_b X^b, with the inner sum
        # one addition of the growing total per b, it took about 30 s on
        # a 2-core x86-64 host; added in pairs in order of b, under 1 s.
        n = 1 << 18
        g = scan.ExceptionalGroupData(
            "X", n, 1, (n,), tuple(scan.DatasetRow(f"r{k}", 1,
                                                   LaurentPoly.monomial(1, k))
                                   for k in range(n)))
        start = time.perf_counter()
        assert g.validate()[0] == g.poincare()
        assert time.perf_counter() - start < 5

    def test_validate_negative_exponent(self):
        text = SAMPLE.replace("fake t", "fake t^-1")
        with pytest.raises(scan.DatasetError, match="negative"):
            scan.parse_dataset(text)[0].validate()

    @pytest.mark.parametrize("fake", ["t - 1", "0"])
    def test_validate_positive_dim(self, fake):
        # Both rows pass the three identities; a dim-0 row would count as
        # a failing label, or reach the divisibility test with f = 0.
        text = SAMPLE + f"irrep z dim 0 fake {fake}\n"
        (g,) = scan.parse_dataset(text)
        with pytest.raises(scan.DatasetError,
                           match="^C2 row z: dim 0 is not positive$"):
            g.validate()

    def test_validate_rank(self):
        text = SAMPLE.replace("rank 1", "rank 2")
        with pytest.raises(scan.DatasetError, match="rank"):
            scan.parse_dataset(text)[0].validate()


class TestDatasetScan:
    def test_configured_groups_stay_far_below_the_division_limit(
            self, monkeypatch):
        # Scanned as one file, the 117 groups up to order 10^5 cost
        # 358,082, under a tenth of scan.MAX_DIVISION_COST.
        groups = tuple(scan.synthetic_dataset(g)
                       for g in configured_groups(max_order=10**5))
        monkeypatch.setattr(scan, "MAX_DIVISION_COST",
                            scan.MAX_DIVISION_COST // 10)
        reports = scan.scan_dataset(groups)
        assert len(reports) == len(groups) == 117

    def test_sample_scan(self):
        (report,) = scan.scan_dataset(scan.parse_dataset(SAMPLE))
        assert report.failures == 0 and report.labels == 2

    def test_synthetic_round_trip_and_agreement(self):
        g = GroupSpec(3, 3, 2)
        synth = scan.synthetic_dataset(g)
        synth.validate()
        assert scan.parse_dataset(scan.render_dataset((synth,))) == (synth,)
        (report,) = scan.scan_dataset((synth,))
        assert report.failures == scan.scan_group(g).failures == 0

    @pytest.mark.parametrize("spec", ["G(2,2,12)", "G(10,5,5)", "G(6,1,5)"])
    def test_round_trip_shares_equal_fake_degrees(self, spec):
        synth = scan.synthetic_dataset(GroupSpec.parse(spec))
        (g,) = scan.parse_dataset(scan.render_dataset((synth,)))
        assert g == synth
        first: dict[LaurentPoly, LaurentPoly] = {}
        for row in g.rows:
            assert first.setdefault(row.fake, row.fake) is row.fake
        assert len(first) < len(g.rows)

    def test_synthetic_detects_failures(self):
        (report,) = scan.scan_dataset((scan.synthetic_dataset(
            GroupSpec(3, 3, 3)),))
        assert report.failures == scan.scan_group(GroupSpec(3, 3, 3)).failures

    def test_each_poincare_is_built_once(self, monkeypatch):
        groups = (scan.synthetic_dataset(GroupSpec(3, 3, 2)),
                  scan.synthetic_dataset(GroupSpec(4, 2, 3)))
        built = []

        def counting(degrees):
            built.append(tuple(degrees))
            return poincare_polynomial(degrees)

        monkeypatch.setattr(scan, "poincare_polynomial", counting)
        reports = scan.scan_dataset(groups)
        assert built == [g.degrees for g in groups]
        assert [r.labels for r in reports] == [len(g.rows) for g in groups]
        assert groups[1].validate()[0] == coinvariant_poincare(
            GroupSpec(4, 2, 3))

    def test_each_row_is_shaped_once(self, monkeypatch):
        # validate splits each row's f into b and t^-b f, and the
        # division budget and the divisions read that split: one shift
        # a row.  Rows of equal text share their f.
        groups = scan.parse_dataset(REPEATS) + (
            scan.synthetic_dataset(GroupSpec(4, 2, 3)),)
        rows = {}
        for g in groups:
            for row in g.rows:
                rows[id(row.fake)] = rows.get(id(row.fake), 0) + 1
        shifts = dict.fromkeys(rows, 0)
        real = LaurentPoly.shift

        def spy(f, k):
            if id(f) in shifts:
                shifts[id(f)] += 1
            return real(f, k)

        monkeypatch.setattr(LaurentPoly, "shift", spy)
        reports = scan.scan_dataset(groups)
        assert shifts == rows
        assert [r.labels for r in reports] == [len(g.rows) for g in groups]

    def test_invalid_data_is_refused(self):
        bad = scan.parse_dataset(SAMPLE.replace("order 2", "order 3"))
        with pytest.raises(scan.DatasetError):
            scan.scan_dataset(bad)


class TestExpectedCounts:
    def test_table_shape(self):
        counts = scan.expected_failure_counts()
        assert sorted(counts) == list(range(5, 38))
        assert counts[5] == 3 and counts[12] == 1 and counts[23] == 4
        assert counts[28] == 5 and counts[35] == 9 and counts[37] == 75

    def test_comparison(self):
        reports = (
            scan.ScanReport("G5", 10, 3, (), ()),
            scan.ScanReport("G_12", 8, 2, (), ()),
            scan.ScanReport("H4", 6, 0, (), ()),
        )
        within = scan.compare_with_expected(reports)
        assert [c.matches for c in within] == [True, False, None]
        assert "OK" in within[0].render()
        assert "MISMATCH" in within[1].render()
        assert "no expected count" in within[2].render()
