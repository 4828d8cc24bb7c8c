import math

import pytest

import partitions_oracle
from cmscan import fakedeg as fd
from cmscan import partitions as pt
from cmscan.polycore import LaurentPoly

P = LaurentPoly.parse


class TestPartitions:
    def test_enumeration_order(self):
        assert pt.partitions(3) == ((3,), (2, 1), (1, 1, 1))
        assert pt.partitions(0) == ((),)

    def test_counts(self):
        # partition numbers p(0..9)
        want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        assert [len(pt.partitions(n)) for n in range(10)] == want

    def test_max_part(self):
        assert pt.partitions(4, max_part=2) == ((2, 2), (2, 1, 1),
                                                (1, 1, 1, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            pt.check_partition((1, 2))
        with pytest.raises(ValueError):
            pt.check_partition((2, 0))

    def test_public_entries_validate(self):
        # The unchecked helpers serve enumerated partitions only, so
        # outside input goes through check_partition first.
        with pytest.raises(ValueError):
            pt._hook_lengths(pt.check_partition((1, 2)))
        with pytest.raises(ValueError):
            pt._weighted_size(pt.check_partition((2, 0)))
        with pytest.raises(ValueError):
            pt.orbit_of(((1, 2), ()), 2, 1)


class TestHooksAndStatistics:
    def test_hook_lengths(self):
        assert pt._hook_lengths((2, 1)) == (3, 1, 1)
        assert pt._hook_lengths((3, 2)) == (4, 3, 2, 1, 1)
        assert pt._hook_lengths(()) == ()

    def test_conjugate(self):
        assert pt.conjugate((3, 1)) == (2, 1, 1)
        assert pt.conjugate(pt.conjugate((4, 2, 1))) == (4, 2, 1)

    def test_weighted_size(self):
        assert pt._weighted_size((2, 2)) == 2
        assert pt._weighted_size((1, 1, 1)) == 3
        assert pt._weighted_size((5,)) == 0

    def test_tableau_counts(self):
        count = partitions_oracle.standard_tableau_count
        assert count((2, 1)) == 2
        assert count((2, 2)) == 2
        assert count((3, 2)) == 5
        assert count(()) == 1


class TestMultipartitions:
    def test_enumeration_order_m2_n2(self):
        assert pt.multipartitions(2, 2) == (
            ((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1)))

    def test_total_count(self):
        # sum over compositions of n into m parts of products of p(k)
        assert len(pt.multipartitions(3, 2)) == 9
        assert len(pt.multipartitions(2, 3)) == 10

    def test_sizes(self):
        for mp in pt.multipartitions(3, 4):
            assert sum(map(sum, mp)) == 4

    @pytest.mark.parametrize("m", range(1, 5))
    def test_enumerated_multipartitions_are_valid(self, m):
        # Oracle for the checks the scan path skips on enumerated input.
        for n in range(7):
            for mp in pt.multipartitions(m, n):
                assert len(mp) == m
                assert pt.check_multipartition(mp) == mp

    @pytest.mark.parametrize("m", range(1, 5))
    def test_enumeration_order_is_key_order(self, m):
        # group_orbits sorts orbit members by enumeration position.
        for n in range(6):
            keys = [tuple(map(pt._partition_key, mp))
                    for mp in pt.multipartitions(m, n)]
            assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_count_matches_enumeration(self):
        for m in range(1, 6):
            for n in range(7):
                assert pt._multipartition_count(m, n) == len(
                    pt.multipartitions(m, n)), (m, n)

    def test_count_generating_function_values(self):
        assert [pt._multipartition_count(1, n) for n in range(10)] == [
            1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        assert pt._multipartition_count(12, 6) == 42_614

    def test_count_stops_above_the_limit(self):
        # G(20,1,8) has 9,869,990 labels.  Counts never decrease in n, so
        # one above the limit settles it; no call may walk to n = 10^9
        # or sum 10^9 terms.
        assert pt._multipartition_count(20, 8) > pt.MAX_MULTIPARTITIONS
        assert pt._multipartition_count(1, 10**9) > pt.MAX_MULTIPARTITIONS
        assert pt._multipartition_count(10**9, 10**9) > pt.MAX_MULTIPARTITIONS

    def test_refuses_before_enumerating(self):
        with pytest.raises(ValueError, match="more than 200000 20-multipartitions of 8"):
            pt.multipartitions(20, 8)
        with pytest.raises(ValueError, match="more than"):
            pt.multipartitions(1, 10**9)

    @pytest.mark.parametrize("m, n", [
        *((m, n) for m in range(1, 7) for n in range(7)),
        # The shapes of the benchmark's scan and dataset groups.
        (2, 12), (2, 13), (2, 14), (8, 6), (6, 7), (10, 6), (3, 9),
        (5, 6), (10, 5), (12, 5), (6, 5), (12, 6)])
    def test_matches_recursive_oracle(self, m, n):
        assert pt.multipartitions(m, n) == partitions_oracle.multipartitions(m, n)

    def test_recursion_is_bounded_by_the_boxes(self):
        # One level per component would pass the interpreter's default
        # recursion limit of 1000 here.
        mps = pt.multipartitions(1200, 1)
        assert len(mps) == 1200
        assert all(mp == ((),) * i + ((1,),) + ((),) * (1199 - i)
                   for i, mp in enumerate(mps))

    def test_refuses_too_many_components(self):
        # G(300,1,2): 45,450 labels, below MAX_MULTIPARTITIONS, but
        # 13,635,000 components.
        with pytest.raises(ValueError, match="the 45450 300-multipartitions "
                           "of 2 hold 13635000 components; the limit is"):
            pt.multipartitions(300, 2)
        assert len(pt.multipartitions(1000, 1)) * 1000 <= pt.MAX_COMPONENT_SLOTS

    @pytest.mark.parametrize("m, n, count", [
        (16, 6, 155_584), (57, 3, 35_815), (200, 2, 20_300), (2000, 1, 2000)])
    def test_admits_large_m_below_the_label_bound(self, m, n, count):
        # Each holds more than 2,000,000 components, an earlier value of
        # the bound, and has fewer than MAX_MULTIPARTITIONS labels.
        assert pt._multipartition_count(m, n) == count
        assert 2_000_000 < count * m <= pt.MAX_COMPONENT_SLOTS

    def test_enumerates_above_two_million_components(self):
        mps = pt.multipartitions(57, 3)
        assert len(mps) == 35_815
        assert len(set(mps)) == len(mps)

    def test_component_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pt, "MAX_COMPONENT_SLOTS", 27)
        assert len(pt.multipartitions(3, 2)) == 9
        monkeypatch.setattr(pt, "MAX_COMPONENT_SLOTS", 26)
        with pytest.raises(ValueError, match="hold 27 components; the limit is 26"):
            pt.multipartitions(3, 2)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pt, "MAX_MULTIPARTITIONS", 9)
        assert len(pt.multipartitions(3, 2)) == 9
        with pytest.raises(ValueError, match="more than 9 3-multipartitions of 3"):
            pt.multipartitions(3, 3)


class TestShiftOrbits:
    def test_shift_moves_components(self):
        mp = ((1,), (2,), (3,))
        assert partitions_oracle.shift(mp, 1) == ((3,), (1,), (2,))
        assert partitions_oracle.shift(partitions_oracle.shift(mp, 1), 2) == mp

    def test_orbit_and_stabiliser(self):
        orbit = pt.orbit_of(((1,), (1,)), 2, 1)
        assert len(orbit.members) == 1 and orbit.stab_order == 2
        orbit = pt.orbit_of(((2,), ()), 2, 1)
        assert len(orbit.members) == 2 and orbit.stab_order == 1
        assert orbit.canonical == ((2,), ())

    def test_orbits_partition_the_multipartitions(self):
        m, p, n = 4, 2, 3
        d = m // p
        seen = set()
        total = 0
        for mp in pt.multipartitions(m, n):
            if mp in seen:
                continue
            orbit = pt.orbit_of(mp, p, d)
            assert len(orbit.members) * orbit.stab_order == p
            seen.update(orbit.members)
            total += len(orbit.members)
        assert total == len(pt.multipartitions(m, n))

    @pytest.mark.parametrize("m, p, n", [(4, 2, 3), (6, 3, 3), (6, 6, 2),
                                         (2, 2, 5), (3, 1, 3), (8, 4, 2)])
    def test_group_orbits_match_orbit_of(self, m, p, n):
        # Oracle: orbit_of on each first-seen member, sorted by key.
        seen = set()
        want = []
        for mp in pt.multipartitions(m, n):
            if mp not in seen:
                orbit = pt.orbit_of(mp, p, m // p)
                seen.update(orbit.members)
                want.append(orbit)
        assert fd.group_orbits(fd.GroupSpec(m, p, n)) == tuple(want)

    @pytest.mark.parametrize("canonical", [((1, 2), ()), ((0,), ()),
                                           ((1.0,), ())])
    def test_hand_built_orbit_is_validated(self, canonical):
        with pytest.raises(ValueError):
            pt.MultipartitionOrbit(canonical, 2, 1)

    @pytest.mark.parametrize("p, stab_order", [(2, 1), (0, 1), (-3, 1),
                                               (3, 2), (3, 0)])
    def test_hand_built_orbit_needs_consistent_p(self, p, stab_order):
        # members reads d = m / p and p / stab_order shifts.
        with pytest.raises(ValueError):
            pt.MultipartitionOrbit(((1,), (1,), ()), p, stab_order)
        assert pt.MultipartitionOrbit(((1,), (1,), ()), 3, 1) == (
            pt.orbit_of(((1,), (), (1,)), 3, 1))

    @pytest.mark.parametrize("p, d", [(300, 1), (60, 4)])
    def test_long_orbits(self, p, d):
        free = ((1,),) + ((),) * (p * d - 1)
        orbit = pt.orbit_of(free, p, d)
        assert (len(orbit.members), orbit.stab_order) == (p, 1)
        assert orbit.canonical == free
        fixed = ((1,),) * (p * d)
        assert pt.orbit_of(fixed, p, d).members == (fixed,)

    def test_shift_preserves_size(self):
        for mp in pt.multipartitions(3, 3):
            assert sum(map(sum, partitions_oracle.shift(mp, 1))) == 3


class TestWeightPolynomials:
    def test_index_weight(self):
        # r(mu) = sum_i i * |mu^i| with components indexed from 0
        assert partitions_oracle.index_weight(((1,), (1,), ())) == 1
        assert partitions_oracle.index_weight(((), (), (2,))) == 4

    def test_orbit_weight_poly(self):
        orbit = pt.orbit_of(((1,), (1,), ()), 3, 1)
        assert partitions_oracle.orbit_weight_poly(orbit) == P("t + t^2 + t^3")
        orbit = pt.orbit_of(((1,), (1,), (), ()), 4, 1)
        assert partitions_oracle.orbit_weight_poly(orbit) == P("t + 2*t^3 + t^5")

    def test_hook_quotient(self):
        gp = partitions_oracle.hook_quotient(((1,), (1, 1), ()))
        assert gp.reduce_with(LaurentPoly.one()) == P("t + t^2 + t^3")


class TestTextFormat:
    def test_render(self):
        assert pt.render_multipartition(((2, 2), (), (1,))) == "2,2|-|1"
        assert pt.render_multipartition(((),)) == "-"


class TestBoundedCaches:
    def test_partitions_cache_is_bounded(self):
        for k in range(pt.PARTITIONS_CACHE_SIZE + 100):
            assert pt.partitions(1, k) == (((1,),) if k else ())
        info = pt.partitions.cache_info()
        assert info.maxsize == pt.PARTITIONS_CACHE_SIZE
        assert info.currsize <= pt.PARTITIONS_CACHE_SIZE
        assert pt.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1),
                                    (1, 1, 1, 1))

    def test_hook_lengths_cache_is_bounded(self):
        # Two-row shapes (a, b): (a + b)! / prod hooks counts their
        # standard tableaux, C(a + b, b) - C(a + b, b - 1).
        shapes = [(a, b) for a in range(1, 100) for b in range(1, a + 1)]
        assert len(shapes) > pt.PARTITIONS_CACHE_SIZE + 100
        for a, b in shapes:
            hooks = pt._hook_lengths((a, b))
            assert math.factorial(a + b) // math.prod(hooks) == (
                math.comb(a + b, b) - math.comb(a + b, b - 1))
        info = pt._hook_lengths.cache_info()
        assert info.maxsize == pt.PARTITIONS_CACHE_SIZE
        assert info.currsize <= pt.PARTITIONS_CACHE_SIZE
        assert pt._hook_lengths((3, 2)) == (4, 3, 2, 1, 1)
