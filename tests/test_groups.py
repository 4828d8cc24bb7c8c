import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import linalg_oracle as oracle
import polyoracle
from battery import configured_groups
from cmscan import groups as gr
from cmscan import linalg
from cmscan.cyclo import CycloNumber
from cmscan.fakedeg import GroupSpec
from cmscan.polycore import MAX_SPAN, LaurentPoly, VerificationError

P = LaurentPoly.parse


def reflection_count(m, p, n):
    """n(n-1)m/2 transposition-type plus n(d-1) diagonal reflections."""
    return n * (n - 1) * m // 2 + n * (m // p - 1)


class TestMonomialElements:
    def test_identity(self):
        e = oracle.identity_element(3, 2)
        assert oracle.is_identity(e)
        assert e.matrix() == linalg.identity(2, 3)

    def test_product_matches_matrix_product(self):
        g = GroupSpec(4, 2, 2)
        els = list(oracle.elements(g))
        for x in els[::5]:
            for y in els[::7]:
                assert oracle.mul(x, y).matrix() == linalg.mat_mul(
                    x.matrix(), y.matrix())

    def test_inverse(self):
        g = GroupSpec(6, 3, 2)
        for w in oracle.elements(g):
            assert oracle.is_identity(oracle.mul(w, oracle.inv(w)))
            assert oracle.is_identity(oracle.mul(oracle.inv(w), w))

    def test_trace_agrees_with_matrix(self):
        g = GroupSpec(3, 1, 2)
        for w in oracle.elements(g):
            mat = w.matrix()
            diag = mat[0][0] + mat[1][1]
            assert oracle.trace(w) == diag
            assert oracle.trace(oracle.inv(w)) == oracle.trace(w).conj()

    def test_validation(self):
        with pytest.raises(ValueError):
            gr.MonomialElement(3, (0, 0), (0, 0))  # not a permutation
        with pytest.raises(ValueError):
            gr.MonomialElement(3, (0, 1), (0, 3))  # exponent out of range

    def test_cycles(self):
        w = gr.MonomialElement(2, (1, 2, 0, 3), (1, 0, 1, 0))
        assert oracle.cycles(w) == [[0, 1, 2], [3]]


class TestEnumeration:
    @pytest.mark.parametrize("spec", [(1, 1, 3), (2, 1, 3), (3, 3, 2),
                                      (4, 2, 2), (6, 6, 3)])
    def test_count_is_group_order(self, spec):
        g = GroupSpec(*spec)
        assert sum(1 for _ in oracle.elements(g)) == g.order

    def test_identity_comes_first(self):
        first = next(oracle.elements(GroupSpec(4, 2, 3)))
        assert oracle.is_identity(first)

    def test_closure(self):
        g = GroupSpec(3, 3, 2)
        els = set(oracle.elements(g))
        assert all(oracle.mul(x, y) in els for x in els for y in els)

    def test_order_bound(self):
        with pytest.raises(oracle.GroupTooLargeError):
            list(oracle.elements(GroupSpec(12, 1, 5)))
        with pytest.raises(oracle.GroupTooLargeError):
            list(oracle.elements(GroupSpec(2, 1, 3), max_order=10))
        # |G(2, 1, 10^7)| has tens of millions of digits: the bound stops
        # multiplying it up once it is passed, so this is refused at once.
        for g in (GroupSpec(2, 1, 10**7), GroupSpec(10**4, 1, 1000)):
            with pytest.raises(oracle.GroupTooLargeError,
                               match=rf"^{re.escape(str(g))} has order > bound"):
                next(oracle.elements(g))

    def test_elements_equal_validated_elements(self):
        # The enumerator skips MonomialElement's validation; every element
        # must still be the validated one, in (perm, exps) order.
        for g in configured_groups(max_order=2000):
            els = list(oracle.elements(g))
            assert len(els) == g.order, g
            assert els == sorted(els, key=gr.MonomialElement.sort_key), g
            assert len(set(els)) == g.order, g
            for w in els:
                assert w == gr.MonomialElement(g.m, w.perm, w.exps), (g, w)
                assert sum(w.exps) % g.p == 0, (g, w)


class TestReflections:
    @pytest.mark.parametrize("spec", [(1, 1, 3), (2, 1, 2), (3, 1, 2),
                                      (3, 3, 2), (4, 2, 2), (4, 4, 2),
                                      (2, 2, 3)])
    def test_reflection_count(self, spec):
        g = GroupSpec(*spec)
        found = sum(1 for w in oracle.elements(g) if oracle.is_reflection(w))
        assert found == reflection_count(*spec)

    def test_identity_is_not_a_reflection(self):
        assert not oracle.is_reflection(oracle.identity_element(4, 2))

    def test_class_structure_g312(self):
        g = GroupSpec(3, 1, 2)
        classes = gr.reflection_classes(g)
        data = {(c.size, c.zeta) for c in classes}
        z = CycloNumber.zeta
        assert data == {(3, CycloNumber.from_rational(3, -1)),
                        (2, z(3, 1)), (2, z(3, 2))}

    def test_class_structure_g422(self):
        g = GroupSpec(4, 2, 2)
        classes = gr.reflection_classes(g)
        assert sorted(c.size for c in classes) == [2, 2, 2]
        assert sum(c.size for c in classes) == reflection_count(4, 2, 2)
        for c in classes:
            assert c.zeta == CycloNumber.from_rational(4, -1)

    @pytest.mark.parametrize("spec", [(2, 1, 2), (6, 2, 2), (6, 3, 2),
                                      (6, 6, 2), (3, 1, 3), (4, 2, 3),
                                      (3, 3, 3), (1, 1, 4), (2, 2, 4)])
    def test_cycle_rule_matches_rank(self, spec):
        for w in oracle.elements(GroupSpec(*spec)):
            rank_is_one = oracle.sparse_rank(oracle.one_minus_rows(w),
                                             stop_at=2) == 1
            assert oracle.is_reflection(w) == rank_is_one, w

    def test_classes_are_closed_under_conjugation(self):
        g = GroupSpec(3, 3, 2)
        (cls,) = gr.reflection_classes(g)
        members = set(cls.elements)
        for x in oracle.elements(g):
            for s in members:
                assert oracle.mul(oracle.mul(x, s), oracle.inv(x)) in members


def oracle_groups():
    """Every G(m,p,n) with m <= 8, n <= 4 and order <= 50,000."""
    return [GroupSpec(m, p, n) for n in range(1, 5) for m in range(1, 9)
            for p in range(1, m + 1)
            if m % p == 0 and GroupSpec(m, p, n).order <= 50_000]


class TestClosedFormClasses:
    """The closed-form reflection classes against the enumeration and
    conjugation they replaced (tests/linalg_oracle.py)."""

    @pytest.mark.parametrize("g", oracle_groups(), ids=str)
    def test_matches_conjugation_oracle(self, g):
        got = gr.reflection_classes(g)
        want = oracle.reflection_classes_by_conjugation(g)
        assert [c.elements for c in got] == [c.elements for c in want]
        assert [c.zeta for c in got] == [c.zeta for c in want]

    def test_oracle_grid_size(self):
        assert len(oracle_groups()) == 78

    @pytest.mark.parametrize("spec", [(1, 1, 1), (2, 1, 1), (6, 1, 1),
                                      (6, 2, 1), (8, 4, 1), (5, 5, 1)])
    def test_rank_one_has_only_diagonal_classes(self, spec):
        g = GroupSpec(*spec)
        classes = gr.reflection_classes(g)
        m, p, _ = spec
        assert [c.elements for c in classes] == [
            (gr.MonomialElement(m, (0,), (k,)),) for k in range(p, m, p)]
        assert [c.zeta for c in classes] == [
            CycloNumber.zeta(m, k) for k in range(p, m, p)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symmetric_group_has_only_transpositions(self, n):
        (cls,) = gr.reflection_classes(GroupSpec(1, 1, n))
        assert cls.size == n * (n - 1) // 2
        assert cls.zeta == CycloNumber.from_rational(1, -1)
        assert all(sum(i != j for i, j in enumerate(w.perm)) == 2
                   for w in cls.elements)

    @pytest.mark.parametrize("spec", [(4, 2, 2), (6, 2, 2), (6, 6, 2)])
    def test_rank_two_even_p_splits_by_parity(self, spec):
        m, p, _ = spec
        classes = gr.reflection_classes(GroupSpec(*spec))
        swaps = [c for c in classes if c.elements[0].perm == (1, 0)]
        assert len(swaps) == 2
        for parity, cls in enumerate(swaps):
            assert cls.size == m // 2
            assert cls.zeta == CycloNumber.from_rational(m, -1)
            assert [w.exps for w in cls.elements] == [
                (a, -a % m) for a in range(parity, m, 2)]
        assert len(classes) == 2 + (m // p - 1)

    @pytest.mark.parametrize("spec", [(6, 3, 2), (6, 1, 2), (4, 2, 3)])
    def test_odd_p_or_higher_rank_does_not_split(self, spec):
        m, _, n = spec
        classes = gr.reflection_classes(GroupSpec(*spec))
        swaps = [c for c in classes if c.elements[0].perm != tuple(range(n))]
        assert [c.size for c in swaps] == [m * n * (n - 1) // 2]

    def test_reflection_bound_before_any_work(self, monkeypatch):
        # G(2,1,3) has 3 diagonal reflections and 6 transpositions: a cost
        # of 9 * 3^3 * phi(2) = 243, and the bound is inclusive.
        monkeypatch.setattr(gr, "MAX_REFLECTION_COST", 243)
        assert sum(c.size for c in gr.reflection_classes(GroupSpec(2, 1, 3))) == 9
        monkeypatch.setattr(gr, "MAX_REFLECTION_COST", 242)
        monkeypatch.setattr(gr, "MonomialElement", None)
        with pytest.raises(ValueError, match=re.escape(
                "the 9 reflections of G(2,1,3) cost count * n^3 * phi(m) = 243; "
                "the limit is 242")):
            gr.reflection_classes(GroupSpec(2, 1, 3))
        # A huge n or m is refused at once, by this bound or the field's.
        monkeypatch.undo()
        monkeypatch.setattr(gr, "MonomialElement", None)
        for g in (GroupSpec(2, 1, 10**7), GroupSpec(10**4, 1, 1000),
                  GroupSpec(10**9, 1, 1), GroupSpec(2**89 - 1, 1, 1),
                  GroupSpec(2, 1, 33)):
            with pytest.raises(ValueError, match="the limit is"):
                gr.reflection_classes(g)

    def test_no_reflections_builds_no_field(self, monkeypatch):
        # G(m,m,1) is trivial: no class, for any m, and Q(zeta_m) is not built.
        monkeypatch.setattr(gr, "CycloNumber", None)
        for m in (1, 7, 10**7, 2**89 - 1):
            assert gr.reflection_classes(GroupSpec(m, m, 1)) == ()


class TestNaturalCharacter:
    def test_norms(self):
        assert oracle.character_norm(GroupSpec(1, 1, 3)) == 2
        assert oracle.character_norm(GroupSpec(2, 2, 2)) == 2
        assert oracle.character_norm(GroupSpec(3, 3, 2)) == 1
        assert oracle.character_norm(GroupSpec(2, 1, 3)) == 1

    def test_irreducibility_flag(self):
        assert gr.is_irreducible_natural(GroupSpec(4, 2, 2))
        assert not gr.is_irreducible_natural(GroupSpec(1, 1, 4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exceptions_match_character_norm(self, n):
        for m in range(1, 7):
            for p in (p for p in range(1, m + 1) if m % p == 0):
                g = GroupSpec(m, p, n)
                assert gr.is_irreducible_natural(g) == (
                    oracle.character_norm(g) == 1), g


def vec(m, h, hstar):
    """A vector of h + h* in (h coords, dual-basis h* coords)."""
    return tuple(CycloNumber.from_rational(m, c) for c in (*h, *hstar))


class TestOmega:
    def test_pairing_and_antisymmetry(self):
        j = oracle.symplectic_form_matrix(2, 4)
        x = vec(4, (1, 0), (0, 0))
        y = vec(4, (0, 0), (1, 0))
        one = CycloNumber.one(4)
        assert oracle.pairing(j, x, y) == -one
        assert oracle.pairing(j, y, x) == one
        assert oracle.pairing(j, x, x).is_zero()

    def test_restricted_form_projects_out_fixed_space(self):
        s = gr.MonomialElement(2, (0, 1), (1, 0))  # diag(-1, 1)
        form = oracle.gram(*linalg.reflection_sum((s.matrix(),), 2))
        x = vec(2, (1, 1), (0, 0))
        y = vec(2, (0, 0), (1, 1))
        fixed = vec(2, (0, 1), (0, 0))
        assert oracle.pairing(form, x, y) == CycloNumber.from_rational(2, -1)
        assert oracle.pairing(form, fixed, y).is_zero()

    def test_restricted_form_requires_reflection(self):
        w = gr.MonomialElement(2, (0, 1), (1, 1))  # diag(-1, -1)
        with pytest.raises(VerificationError):
            linalg.reflection_sum((w.matrix(),), 2)


class TestClassSums:
    @pytest.mark.parametrize("spec", [(3, 3, 2), (4, 4, 2), (3, 1, 2),
                                      (4, 2, 2), (2, 2, 3), (3, 3, 3),
                                      (2, 1, 3)])
    def test_scalar_is_size_over_rank(self, spec):
        g = GroupSpec(*spec)
        for cls in gr.reflection_classes(g):
            lam = gr.omega_class_sum(g, cls)
            assert lam == Fraction(cls.size, g.n)

    def test_reducible_refusal(self):
        g = GroupSpec(2, 2, 2)
        (cls, *_) = gr.reflection_classes(g)
        with pytest.raises(gr.ReducibleRepresentationError):
            gr.omega_class_sum(g, cls)

    def test_symmetric_group_natural_representation_refused(self):
        g = GroupSpec(1, 1, 3)
        (cls,) = gr.reflection_classes(g)
        with pytest.raises(gr.ReducibleRepresentationError):
            gr.omega_class_sum(g, cls)


class TestClassSumChecks:
    """omega_class_sum's checks on hand-built classes raise
    VerificationError, also under ``python -O``."""

    SCRIPT = """
from cmscan import groups as gr
from cmscan.fakedeg import GroupSpec
from cmscan.polycore import VerificationError
g = GroupSpec(5, 1, 2)
diag1, diag2, *_, swaps = gr.reflection_classes(g)
bad = gr.ReflectionClass({members}, {zeta})
print("__debug__ =", __debug__)
try:
    gr.omega_class_sum(g, bad)
except VerificationError as exc:
    print("VerificationError:", exc)
"""

    @pytest.mark.parametrize("members, zeta, message", [
        # diag(1, zeta) and diag(1, zeta^2) disagree on the eigenvalue.
        ("diag1.elements[:1] + diag2.elements[:1]", "diag1.zeta",
         "reflections summed together must share their eigenvalue"),
        # The identity: 1 - s = 0 has trace 0.
        ("diag1.elements + (gr.MonomialElement(5, (0, 1), (0, 0)),)",
         "diag1.zeta",
         "1 - s does not have rank one with nonzero trace: "
         "s is not a reflection"),
        # diag(zeta, zeta): 1 - s has rank two.
        ("(gr.MonomialElement(5, (0, 1), (1, 1)),)", "diag1.zeta",
         "1 - s does not have rank one with nonzero trace: "
         "s is not a reflection"),
        # Right members, wrong label: the closed form is k/n for every
        # root of unity, so only the trace check sees this.
        ("diag1.elements", "diag2.zeta",
         "members do not have the class's eigenvalue"),
        ("swaps.elements", "diag1.zeta",
         "members do not have the class's eigenvalue"),
        # Part of a class: diag(zeta, 1) alone sums to diag(t, 0), which
        # is not scalar.
        ("diag1.elements[:1]", "diag1.zeta",
         "class sum is not proportional to omega"),
    ])
    def test_bad_class_raises_under_optimize(self, members, zeta, message):
        # linalg.class_form_scalar names the group first in every message.
        code = self.SCRIPT.format(members=members, zeta=zeta)
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "__debug__ = False", f"VerificationError: G(5,1,2): {message}"]


class TestMolien:
    def test_rank_one(self):
        # invariants of <zeta_4> acting on one variable: C[x^4]
        got = gr.molien_series(GroupSpec(4, 1, 1), truncate=9)
        assert got == P("1 + t^4 + t^8")

    @pytest.mark.parametrize("spec", [(1, 1, 3), (2, 1, 2), (3, 3, 2),
                                      (4, 2, 2), (4, 4, 3), (6, 1, 2)])
    def test_matches_invariant_degrees(self, spec):
        g = GroupSpec(*spec)
        assert gr.molien_series(g, truncate=24) == gr.degrees_series(
            g, truncate=24)

    def test_degrees_series_hand_check(self):
        # G(3,3,2) has degrees (3, 2): 1/((1-t^2)(1-t^3))
        got = gr.degrees_series(GroupSpec(3, 3, 2), truncate=7)
        assert got == P("1 + t^2 + t^3 + t^4 + t^5 + 2*t^6 + t^7")

    def test_signature_bound(self, monkeypatch):
        # (m/p)(m+1)^(n-1) signature terms times (truncate + 1) * m:
        # 2 * 3^2 * 31 * 2 = 1116 for G(2,1,3); the bound is inclusive.
        monkeypatch.setattr(gr, "MAX_MOLIEN_TERMS", 1116)
        assert gr.molien_series(GroupSpec(2, 1, 3)) == (
            gr.degrees_series(GroupSpec(2, 1, 3)))
        monkeypatch.setattr(gr, "MAX_MOLIEN_TERMS", 1115)
        with pytest.raises(ValueError, match=re.escape(
                "molien series of G(2,1,3) to t^30 may expand more than 1115 "
                "signature-table entries")):
            gr.molien_series(GroupSpec(2, 1, 3))

    def test_truncate_bounded_before_any_work(self, monkeypatch):
        with pytest.raises(ValueError, match=f"the limit is {MAX_SPAN}"):
            gr.molien_series(GroupSpec(2, 1, 2), truncate=10**9)
        # The bound is on (truncate + 1) * m and is inclusive.
        monkeypatch.setattr(gr, "MAX_SPAN", 62)
        assert gr.molien_series(GroupSpec(2, 1, 2), truncate=30) == (
            gr.degrees_series(GroupSpec(2, 1, 2), truncate=30))
        with pytest.raises(ValueError, match="needs 64 coefficients"):
            gr.molien_series(GroupSpec(2, 1, 2), truncate=31)


class TestDegreesSeries:
    """The integer prefix sums against the Fraction series division they
    replaced (tests/polyoracle.py)."""

    @pytest.mark.parametrize("truncate", [0, 1, 30, 500])
    def test_configured_groups(self, truncate):
        for g in configured_groups(max_order=200):
            den = LaurentPoly.one()
            for d in g.degrees:
                den = den * LaurentPoly({0: 1, d: -1})
            assert gr.degrees_series(g, truncate) == (
                polyoracle.series_quotient(LaurentPoly.one(), den, truncate)), g

    def test_truncation_bounds(self):
        with pytest.raises(ValueError):
            gr.degrees_series(GroupSpec(3, 3, 2), -1)
        with pytest.raises(ValueError, match=f"{MAX_SPAN}"):
            gr.degrees_series(GroupSpec(3, 3, 2), MAX_SPAN + 1)


# m = 1, rank one, p = m and 1 < p < m.
EXTREMES = ([(1, 1, 4), (6, 6, 3), (12, 4, 2)]
            + [(m, 1, 1) for m in range(1, 13)])


class TestMolienAgainstInversion:
    """The group-ring sum against the per-signature CycloNumber inversion
    it replaced (tests/linalg_oracle.py)."""

    @pytest.mark.parametrize("truncate", [0, 1, 30])
    def test_configured_groups(self, truncate):
        groups = configured_groups(max_order=200)
        assert len(groups) > 30
        for g in groups:
            assert gr.molien_series(g, truncate) == (
                oracle.molien_series_by_inversion(g, truncate)), g

    @pytest.mark.parametrize("spec", EXTREMES)
    def test_extremes(self, spec):
        g = GroupSpec(*spec)
        got = gr.molien_series(g, truncate=30)
        assert got == oracle.molien_series_by_inversion(g, truncate=30)
        assert got == gr.degrees_series(g, truncate=30)

    def test_rank_one_is_powers_of_t_to_the_m(self):
        for m in range(1, 13):
            got = gr.molien_series(GroupSpec(m, 1, 1), truncate=25)
            assert got == LaurentPoly({k: 1 for k in range(0, 26, m)})


# The groups of the benchmark's `molien` commands, and the cyclic group
# of order 7 in its p = m form.
MOLIEN_GROUPS = [(10, 1, 3), (10, 2, 3), (12, 4, 3), (3, 3, 5), (4, 1, 4),
                 (5, 1, 4), (6, 2, 4), (6, 6, 4), (8, 8, 4), (7, 7, 1)]


class TestPackedMolien:
    """The packed group-ring sum against the list-of-lists expansion it
    replaced (tests/linalg_oracle.py)."""

    @pytest.mark.parametrize("truncate", [0, 1, 30])
    def test_configured_groups(self, truncate):
        groups = configured_groups(max_order=10**5)
        assert len(groups) == 117
        for g in groups:
            assert gr.molien_series(g, truncate) == (
                oracle.molien_series_by_group_ring(g, truncate)), g

    @pytest.mark.parametrize("spec", EXTREMES + MOLIEN_GROUPS)
    def test_extremes(self, spec):
        g = GroupSpec(*spec)
        for truncate in (0, 1, 30, 61):
            assert gr.molien_series(g, truncate) == (
                oracle.molien_series_by_group_ring(g, truncate)), truncate

    @pytest.mark.parametrize("spec", [(11, 1, 3), (11, 11, 4), (1, 1, 12),
                                      (12, 4, 3), (8, 8, 4)])
    @pytest.mark.parametrize("truncate", [0, 30])
    def test_slot_width_holds_every_entry(self, spec, truncate):
        # Every entry is at most |W| * C(truncate + n, n), and one bit
        # more than that bound's length leaves each slot's top bit clear.
        # At t^0 each element counts 1 at zeta^0, so the bound is met:
        # G(11,1,3)'s 7,986 fills 0.975 of 2^13.
        g = GroupSpec(*spec)
        table = oracle.group_ring_table(g, truncate)
        largest = max(map(max, table))
        bound = g.order * math.comb(truncate + g.n, g.n)
        assert largest <= bound < 1 << gr._slot_width(g, truncate) - 1
        if truncate == 0:
            assert largest == bound


class TestSignatureCounts:
    """The closed-form cycle-signature counts against the enumeration
    they replaced (tests/linalg_oracle.py)."""

    def test_matches_enumeration(self):
        grid = (list(configured_groups(max_order=50_000))
                + [GroupSpec(*spec) for spec in MOLIEN_GROUPS])
        assert len(grid) == 121
        for g in grid:
            counts = gr._signature_counts(g)
            assert counts == oracle.signature_counts_by_enumeration(g), g
            assert sum(counts.values()) == g.order, g

    def test_signature_bound_comes_before_the_count(self, monkeypatch):
        monkeypatch.setattr(gr, "_signature_counts", None)
        # Within this bound, but 2053 * phi(2053) is over the field's.
        with pytest.raises(ValueError, match="powers of zeta_2053 need"):
            gr.molien_series(GroupSpec(2053, 1, 1))
        monkeypatch.setattr(gr, "CycloNumber", None)
        # A huge n or m costs a product of at most 28 factors m + 1.
        for g in (GroupSpec(2, 1, 10**7), GroupSpec(10**4, 1, 1000),
                  GroupSpec(300, 1, 2), GroupSpec(20000, 1, 1)):
            with pytest.raises(ValueError, match=(
                    f"may expand more than {gr.MAX_MOLIEN_TERMS} ")):
                gr.molien_series(g)


class TestMolienChecks:
    """The rationality and integrality checks raise VerificationError,
    so the CLI reports exit 1 and ``python -O`` keeps them."""

    SCRIPT = """
from cmscan import groups as gr
from cmscan.fakedeg import GroupSpec
from cmscan.polycore import VerificationError
real = gr._signature_counts
def corrupted(g):
    counts = real(g)
    {corrupt}
    return counts
gr._signature_counts = corrupted
print("__debug__ =", __debug__)
try:
    gr.molien_series(GroupSpec(3, 1, 2), truncate=4)
except VerificationError as exc:
    print("VerificationError:", exc)
"""

    @pytest.mark.parametrize("corrupt, message", [
        # The identity counted twice: t^0 has coefficient 19/18.
        ("counts[((1, 0), (1, 0))] += 1",
         "Molien coefficient at t^0 is not integral"),
        # The identity's count moved to diag(zeta, 1): the count stays |W|
        # but the t^1 coefficient moves by (zeta - 1)/|W|.
        ("counts[((1, 0), (1, 0))] -= 1; counts[((1, 0), (1, 1))] += 1",
         "Molien coefficient at t^1 is not rational"),
    ], ids=["not-integral", "not-rational"])
    def test_corrupted_signatures_raise_under_optimize(self, corrupt, message):
        code = self.SCRIPT.format(corrupt=corrupt)
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "__debug__ = False", f"VerificationError: {message}"]

    def test_non_rational_class_scalar_raises(self, monkeypatch):
        # A ReflectionClass whose zeta is 2*zeta_5, not a root of unity,
        # makes the closed form irrational.  Its members' eigenvalue
        # check fails first; with the members' t patched to 1 - zeta the
        # closed-form check fails next, before the class sum is looked at.
        g = GroupSpec(5, 1, 2)
        cls = gr.reflection_classes(g)[0]
        zeta = CycloNumber.zeta(5) * 2
        bad = gr.ReflectionClass(cls.elements, zeta)
        one = CycloNumber.one(5)
        closed = ((one - zeta).inverse() * (one - zeta.conj()).inverse()
                  * (CycloNumber.from_rational(5, 2) - zeta - zeta.conj())
                  * Fraction(bad.size, g.n))
        assert not closed.is_rational()
        with pytest.raises(VerificationError, match=r"^G\(5,1,2\): members do "
                           "not have the class's eigenvalue$"):
            gr.omega_class_sum(g, bad)
        real = linalg.reflection_sum
        monkeypatch.setattr(linalg, "reflection_sum",
                            lambda mats, m: (real(mats, m)[0], one - zeta))
        with pytest.raises(VerificationError,
                           match=r"^G\(5,1,2\): closed form disagrees"):
            gr.omega_class_sum(g, bad)
