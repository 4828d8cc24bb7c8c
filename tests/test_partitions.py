import pytest

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
        # The unchecked helpers behind them serve enumerated partitions only.
        with pytest.raises(ValueError):
            pt.hook_lengths((1, 2))
        with pytest.raises(ValueError):
            pt.weighted_size((2, 0))
        with pytest.raises(ValueError):
            pt.orbit_of(((1, 2), ()), 2, 1)
        with pytest.raises(ValueError):
            pt.parse_multipartition("1,2|-")


class TestHooksAndStatistics:
    def test_hook_lengths(self):
        assert pt.hook_lengths((2, 1)) == (3, 1, 1)
        assert pt.hook_lengths((3, 2)) == (4, 3, 2, 1, 1)
        assert pt.hook_lengths(()) == ()

    def test_conjugate(self):
        assert pt.conjugate((3, 1)) == (2, 1, 1)
        assert pt.conjugate(pt.conjugate((4, 2, 1))) == (4, 2, 1)

    def test_weighted_size(self):
        assert pt.weighted_size((2, 2)) == 2
        assert pt.weighted_size((1, 1, 1)) == 3
        assert pt.weighted_size((5,)) == 0

    def test_hook_poly(self):
        assert pt.hook_poly((1, 1)).reduce() == P("1 - t") * P("1 - t^2")

    def test_tableau_counts(self):
        assert pt.standard_tableau_count((2, 1)) == 2
        assert pt.standard_tableau_count((2, 2)) == 2
        assert pt.standard_tableau_count((3, 2)) == 5
        assert pt.standard_tableau_count(()) == 1

    def test_t_factorial(self):
        assert pt.t_factorial(3).reduce() == (
            P("1 - t") * P("1 - t^2") * P("1 - t^3"))


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
            assert pt.multipartition_size(mp) == 4

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
            keys = [pt.multipartition_key(mp) for mp in pt.multipartitions(m, n)]
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

    def test_limit_is_inclusive(self, monkeypatch):
        pt.multipartitions.cache_clear()
        monkeypatch.setattr(pt, "MAX_MULTIPARTITIONS", 9)
        try:
            assert len(pt.multipartitions(3, 2)) == 9
            with pytest.raises(ValueError, match="more than 9 3-multipartitions of 3"):
                pt.multipartitions(3, 3)
        finally:
            pt.multipartitions.cache_clear()


class TestShiftOrbits:
    def test_shift_moves_components(self):
        mp = ((1,), (2,), (3,))
        assert pt.shift(mp, 1) == ((3,), (1,), (2,))
        assert pt.shift(pt.shift(mp, 1), 2) == mp

    def test_orbit_and_stabiliser(self):
        orbit = pt.orbit_of(((1,), (1,)), 2, 1)
        assert orbit.size() == 1 and orbit.stab_order == 2
        orbit = pt.orbit_of(((2,), ()), 2, 1)
        assert orbit.size() == 2 and orbit.stab_order == 1
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
            assert orbit.size() * orbit.stab_order == p
            seen.update(orbit.members)
            total += orbit.size()
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
            pt.MultipartitionOrbit((canonical,), canonical, 1)

    def test_shift_preserves_size(self):
        for mp in pt.multipartitions(3, 3):
            assert pt.multipartition_size(pt.shift(mp, 1)) == 3


class TestWeightPolynomials:
    def test_index_weight(self):
        # r(mu) = sum_i i * |mu^i| with components indexed from 0
        assert pt.index_weight(((1,), (1,), ())) == 1
        assert pt.index_weight(((), (), (2,))) == 4

    def test_orbit_weight_poly(self):
        orbit = pt.orbit_of(((1,), (1,), ()), 3, 1)
        assert pt.orbit_weight_poly(orbit) == P("t + t^2 + t^3")
        orbit = pt.orbit_of(((1,), (1,), (), ()), 4, 1)
        assert pt.orbit_weight_poly(orbit) == P("t + 2*t^3 + t^5")

    def test_hook_quotient(self):
        gp = pt.hook_quotient(((1,), (1, 1), ()))
        assert gp.reduce() == P("t + t^2 + t^3")


class TestTextFormat:
    def test_render(self):
        assert pt.render_multipartition(((2, 2), (), (1,))) == "2,2|-|1"
        assert pt.render_multipartition(((),)) == "-"

    def test_parse(self):
        assert pt.parse_multipartition("2,2|-|1") == ((2, 2), (), (1,))
        assert pt.parse_multipartition("-") == ((),)

    def test_round_trip(self):
        for mp in pt.multipartitions(3, 4):
            assert pt.parse_multipartition(pt.render_multipartition(mp)) == mp

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            pt.parse_multipartition("2,|1")
        with pytest.raises(ValueError):
            pt.parse_multipartition("1,2|-")


class TestBoundedCaches:
    def test_partitions_cache_is_bounded(self):
        for k in range(pt.PARTITIONS_CACHE_SIZE + 100):
            assert pt.partitions(1, k) == (((1,),) if k else ())
        info = pt.partitions.cache_info()
        assert info.maxsize == pt.PARTITIONS_CACHE_SIZE
        assert info.currsize <= pt.PARTITIONS_CACHE_SIZE
        assert pt.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1),
                                    (1, 1, 1, 1))

    def test_multipartitions_cache_is_bounded(self):
        # Ascending m, so each call finds m - 1 cached and recurses once.
        for m in range(1, pt.MULTIPARTITIONS_CACHE_SIZE + 100):
            assert pt.multipartitions(m, 0) == (((),) * m,)
        info = pt.multipartitions.cache_info()
        assert info.maxsize == pt.MULTIPARTITIONS_CACHE_SIZE
        assert info.currsize <= pt.MULTIPARTITIONS_CACHE_SIZE
        assert len(pt.multipartitions(3, 3)) == pt._multipartition_count(3, 3)
