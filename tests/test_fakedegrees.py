import gc

import pytest

import partitions_oracle
import polyoracle
from battery import configured_groups
from cmscan import fakedeg as fd
from cmscan import partitions as pt
from cmscan.polycore import LaurentPoly, VerificationError
from polyoracle import DictPoly, GradedProduct

P = LaurentPoly.parse


class TestGroupSpec:
    def test_parse_and_render(self):
        g = fd.GroupSpec.parse("G(4, 2, 3)")
        assert (g.m, g.p, g.n) == (4, 2, 3)
        assert g.render() == "G(4,2,3)"

    def test_derived_quantities(self):
        g = fd.GroupSpec(6, 3, 2)
        assert g.d == 2
        assert g.order == 6**2 * 2 // 3
        assert g.degrees == (6, 4)
        assert fd.GroupSpec(4, 1, 3).degrees == (4, 8, 12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fd.GroupSpec.parse("G(4,3,2)")  # p must divide m
        with pytest.raises(ValueError):
            fd.GroupSpec.parse("H(2,1,2)")
        with pytest.raises(ValueError):
            fd.GroupSpec.parse("G(2,1)")
        with pytest.raises(ValueError):
            fd.GroupSpec(0, 1, 1)


def degrees_by_label(g):
    return {label.render(): fd.fake_degree(g, label.orbit)
            for label in fd.irr_labels(g)}


class TestSmallGroups:
    def test_g332_three_labels(self):
        g = fd.GroupSpec(3, 3, 2)
        got = degrees_by_label(g)
        assert got == {
            "2|-|-": P("1"),
            "1,1|-|-": P("t^3"),
            "1|1|-": P("t + t^2"),
        }

    def test_g222_epsilon_split(self):
        g = fd.GroupSpec(2, 2, 2)
        got = degrees_by_label(g)
        assert got == {
            "2|-": P("1"),
            "1,1|-": P("t^2"),
            "1|1 eps=0": P("t"),
            "1|1 eps=1": P("t"),
        }
        total = LaurentPoly.zero()
        for label in fd.irr_labels(g):
            f = fd.fake_degree(g, label.orbit)
            total = total + f * fd.irr_dimension(g, label.orbit)
        assert total == P("1 + 2*t + t^2")

    def test_g552_degenerate_family_member(self):
        g = fd.GroupSpec(5, 5, 2)
        orbit = pt.orbit_of(((1,), (1,), (), (), ()), g.p, g.d)
        assert fd.fake_degree(g, orbit) == P("t + t^4")

    def test_dimensions(self):
        g = fd.GroupSpec(3, 1, 2)
        dims = sorted(fd.irr_dimension(g, lab.orbit)
                      for lab in fd.irr_labels(g))
        assert dims == [1, 1, 1, 1, 1, 1, 2, 2, 2]
        g = fd.GroupSpec(2, 2, 2)
        assert all(fd.irr_dimension(g, lab.orbit) == 1
                   for lab in fd.irr_labels(g))


class TestLabelRows:
    @pytest.mark.parametrize("spec", [(2, 2, 4), (4, 2, 3), (6, 3, 4),
                                      (3, 1, 3), (12, 4, 3)])
    def test_rows_match_per_label_evaluation(self, spec):
        g = fd.GroupSpec(*spec)
        rows = fd.label_rows(g)
        assert [label for label, _, _ in rows] == list(fd.irr_labels(g))
        for label, dim, f in rows:
            assert dim == fd.irr_dimension(g, label.orbit)
            assert f == fd.fake_degree(g, label.orbit)
        # Equal fake degrees are one object.
        assert len({id(f) for _, _, f in rows}) == len({f for _, _, f in rows})


class TestSymmetricGroupOracle:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_fake_degree_is_major_index_polynomial(self, n):
        g = fd.GroupSpec(1, 1, n)
        for orbit in fd.group_orbits(g):
            (lam,) = orbit.canonical
            assert (fd.fake_degree(g, orbit)
                    == partitions_oracle.major_index_poly(lam))

    def test_tableaux_ground_truth(self):
        assert len(partitions_oracle.standard_tableaux((2, 1))) == 2
        assert partitions_oracle.major_index_poly((2, 1)) == P("t + t^2")
        assert partitions_oracle.major_index_poly((1, 1, 1)) == P("t^3")
        assert partitions_oracle.major_index_poly((4,)) == P("1")


class TestGlobalIdentities:
    GROUPS = [fd.GroupSpec(m, p, n)
              for (m, p, n) in [(1, 1, 4), (2, 1, 3), (3, 3, 2), (3, 3, 3),
                                (4, 2, 2), (4, 4, 3), (6, 2, 2), (6, 6, 2),
                                (5, 1, 2), (2, 2, 4)]]

    @pytest.mark.parametrize("g", GROUPS, ids=str)
    def test_value_at_one_is_dimension(self, g):
        for label in fd.irr_labels(g):
            f = fd.fake_degree(g, label.orbit)
            assert f.at_one() == fd.irr_dimension(g, label.orbit)

    @pytest.mark.parametrize("g", GROUPS, ids=str)
    def test_sum_of_squares_is_group_order(self, g):
        assert sum(fd.irr_dimension(g, lab.orbit)**2
                   for lab in fd.irr_labels(g)) == g.order

    @pytest.mark.parametrize("g", GROUPS, ids=str)
    def test_graded_sum_is_coinvariant_poincare(self, g):
        total = LaurentPoly.zero()
        for label in fd.irr_labels(g):
            f = fd.fake_degree(g, label.orbit)
            total = total + f * fd.irr_dimension(g, label.orbit)
        poincare = fd.coinvariant_poincare(g)
        assert total == poincare
        assert poincare.at_one() == g.order

    @pytest.mark.parametrize("g", GROUPS, ids=str)
    def test_trailing_degree_formula(self, g):
        for orbit in fd.group_orbits(g):
            f = fd.fake_degree(g, orbit)
            k = min(pt.index_weight(mp) for mp in orbit.members)
            hooks = sum(pt._weighted_size(lam) for lam in orbit.canonical)
            assert f.trailing_degree() == k + g.m * hooks



class TestClosedForm:
    """fake_degree and irr_dimension against the per-component formulas
    they replaced, kept in the test oracles."""

    FAKE_DEGREE_GROUPS = configured_groups(max_order=2000) + (
        fd.GroupSpec(10, 5, 6),)

    @staticmethod
    def graded_product(g, orbit):
        """The old assembly (1 - t^(dn)) / (1 - t^(mn)) * I(t^m), with I
        the hook quotient of the canonical member."""
        return (GradedProduct.of(g.d * g.n) * GradedProduct.of(g.m * g.n).inv()
                * partitions_oracle.hook_quotient(orbit.canonical).substitute(g.m))

    @pytest.mark.parametrize("g", FAKE_DEGREE_GROUPS, ids=str)
    def test_fake_degree_matches_graded_product_oracle(self, g):
        # The oracle expands through cyclotomic factorisations; it is
        # cached on its whole input, never on fake_degree's shape key.
        expanded = {}
        memo = {}
        for orbit in fd.group_orbits(g):
            weight = partitions_oracle.orbit_weight_poly(orbit)
            k = weight.trailing_degree()
            args = (self.graded_product(g, orbit), weight.shift(-k))
            if args not in expanded:
                expanded[args] = polyoracle.reduce_with(
                    args[0], DictPoly.of(args[1]))
            want = list(expanded[args].shift(k).items())
            assert list(fd.fake_degree(g, orbit).items()) == want, orbit
            assert list(fd.fake_degree(g, orbit, memo).items()) == want, orbit

    @pytest.mark.parametrize("g", configured_groups(max_order=2000), ids=str)
    def test_irr_dimension_matches_multinomial_oracle(self, g):
        for orbit in fd.group_orbits(g):
            assert fd.irr_dimension(g, orbit) == \
                partitions_oracle.irr_dimension(g.n, orbit), orbit

    @pytest.mark.parametrize("change, message", [
        # A hook of length n + 1 leaves a remainder in a division.
        (lambda hooks: hooks + (4,), "leaves a remainder"),
        # Without the largest hook the quotient is a polynomial again,
        # but not a nonnegative one.
        (lambda hooks: hooks[:-1], "negative coefficient"),
    ], ids=["extra-hook", "missing-hook"])
    def test_wrong_hook_multiset_is_caught(self, monkeypatch, change, message):
        real = fd._hooks
        monkeypatch.setattr(fd, "_hooks", lambda mp: change(real(mp)))
        g = fd.GroupSpec(4, 2, 3)
        with pytest.raises(VerificationError, match=message):
            for orbit in fd.group_orbits(g):
                fd.fake_degree(g, orbit)


class TestConfiguredBattery:
    def test_size_and_bounds(self):
        groups = configured_groups(max_order=2000)
        assert len(groups) == 80
        assert all(g.order <= 2000 for g in groups)
        assert fd.GroupSpec(2, 1, 4) in groups
        assert fd.GroupSpec(12, 12, 2) in groups

    def test_no_duplicate_rank_one_groups(self):
        groups = configured_groups(max_order=2000)
        assert all(g.p == 1 for g in groups if g.n == 1)


class TestNotes:
    def test_reducibility(self):
        assert fd.reducibility_note(fd.GroupSpec(1, 1, 3)) is not None
        assert fd.reducibility_note(fd.GroupSpec(2, 2, 2)) is not None
        assert fd.reducibility_note(fd.GroupSpec(3, 3, 2)) is None

    def test_isomorphisms(self):
        assert "G(1,1,4)" in fd.isomorphism_note(fd.GroupSpec(2, 2, 3))
        assert "G(2,1,2)" in fd.isomorphism_note(fd.GroupSpec(4, 4, 2))
        assert fd.isomorphism_note(fd.GroupSpec(4, 1, 2)) is None


def _live_orbits() -> int:
    # Tuple subclasses stay tracked by gc, so every live orbit is listed.
    gc.collect()
    return sum(type(o) is pt.MultipartitionOrbit for o in gc.get_objects())


def test_group_orbits_are_not_kept():
    # No cache holds a group's orbits once its caller drops them.
    before = _live_orbits()
    for m in range(1, 21):
        orbits = fd.group_orbits(fd.GroupSpec(m, m, 1))
        # Shift by 1 on the m components permutes the m one-box
        # multipartitions transitively.
        assert [len(o.members) for o in orbits] == [m]
    assert _live_orbits() == before + 1
    del orbits
    assert _live_orbits() == before
