"""Differential tests: the dense LaurentPoly kernel, the factor-at-a-time
GradedProduct expansion (an oracle itself, in polyoracle) and
poincare_polynomial against the dict-based reference in polyoracle."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmscan.fakedeg import coinvariant_poincare, configured_groups
from cmscan.polycore import MAX_SPAN, LaurentPoly, poincare_polynomial
from cmscan.scan import DatasetError, parse_dataset
from polyoracle import DictPoly, GradedProduct, NotPolynomialError
import polyoracle

# Explicit zero coefficients are drawn on purpose: they must not widen
# the dense range or survive as terms.
coeff_maps = st.dictionaries(st.integers(-15, 25), st.integers(-40, 40),
                             max_size=9)
small_maps = st.dictionaries(st.integers(-4, 8), st.integers(-6, 6),
                             max_size=5)
factor_maps = st.dictionaries(st.integers(1, 12), st.integers(-3, 3),
                              max_size=4)


def same(p: LaurentPoly, o: DictPoly) -> bool:
    return list(p.items()) == list(o.items())


def pair(coeffs):
    return LaurentPoly(coeffs), DictPoly(coeffs)


class TestRing:
    @given(coeff_maps, coeff_maps)
    @settings(max_examples=300, deadline=None)
    def test_add_sub_mul(self, ac, bc):
        (a, oa), (b, ob) = pair(ac), pair(bc)
        assert same(a, oa)
        assert same(a + b, oa + ob)
        assert same(a - b, oa - ob)
        assert same(-a, -oa)
        assert same(a * b, oa * ob)
        assert same(a * 3 + 2, oa * 3 + 2)

    @given(small_maps, st.integers(0, 4), st.integers(-30, 30))
    @settings(max_examples=150, deadline=None)
    def test_pow_and_shift(self, ac, n, k):
        a, oa = pair(ac)
        assert same(a ** n, oa ** n)
        assert same(a.shift(k), oa.shift(k))

    @given(coeff_maps)
    @settings(max_examples=200, deadline=None)
    def test_inspection(self, ac):
        a, oa = pair(ac)
        terms = dict(oa.items())
        for e in range(-17, 28):
            assert a.coeff(e) == terms.get(e, 0)
        assert a.is_zero() == oa.is_zero() == (not a)
        assert a.at_one() == sum(terms.values())
        if terms:
            assert (a.trailing_degree(), a.degree()) == (min(terms), max(terms))
        assert LaurentPoly.parse(a.render()) == a


class TestDivision:
    @given(coeff_maps, coeff_maps)
    @settings(max_examples=300, deadline=None)
    def test_divmod(self, ac, bc):
        (a, oa), (b, ob) = pair(ac), pair(bc)
        if b.is_zero():
            return
        q, r = divmod(a, b)
        oq, orem = divmod(oa, ob)
        assert same(q, oq) and same(r, orem)
        assert q * b + r == a

    @given(small_maps, small_maps, small_maps, st.sampled_from([2, 3, -2, 5, -4]))
    @settings(max_examples=300, deadline=None)
    def test_non_monic_divisor_stops_early(self, qc, rc, bc, lead):
        # b has a leading coefficient that does not divide most of what
        # it meets, so the division usually stops before the bottom.
        b = LaurentPoly(bc) + LaurentPoly.monomial(lead, 10)
        a = LaurentPoly(qc) * b + LaurentPoly(rc)
        q, r = divmod(a, b)
        oq, orem = divmod(DictPoly.of(a), DictPoly.of(b))
        assert same(q, oq) and same(r, orem)
        assert q * b + r == a

    @given(coeff_maps, small_maps, st.integers(2, 4))
    @settings(max_examples=300, deadline=None)
    def test_operand_in_a_power_of_t(self, ac, bc, step):
        # Products and division steps by such an operand touch only every
        # step-th coefficient.
        a, b = LaurentPoly(ac), LaurentPoly({step * e: c for e, c in bc.items()})
        oa, ob = DictPoly.of(a), DictPoly.of(b)
        assert same(a * b, oa * ob) and same(b * b, ob * ob)
        if b.is_zero():
            return
        q, r = divmod(a, b)
        oq, orem = divmod(oa, ob)
        assert same(q, oq) and same(r, orem)
        assert q * b + r == a

    def test_early_stop_example(self):
        a, b = LaurentPoly.parse("3*t^5 + t^2 + 1"), LaurentPoly.parse("2*t^2 - 1")
        q, r = divmod(a, b)
        assert q.is_zero() and r == a
        oq, orem = divmod(DictPoly.of(a), DictPoly.of(b))
        assert same(q, oq) and same(r, orem)


class TestCanonicalForm:
    def test_far_explicit_zero_is_dropped(self):
        p = LaurentPoly({50: 0, 1: 1})
        assert p == LaurentPoly.t()
        assert hash(p) == hash(LaurentPoly.t())
        assert (p.trailing_degree(), p.degree()) == (1, 1)

    def test_cancelled_ends_are_trimmed(self):
        p = LaurentPoly.parse("t^9 + t^-3 + 1") - LaurentPoly.parse("t^9 + t^-3")
        assert p == LaurentPoly.one()
        assert (p.trailing_degree(), p.degree()) == (0, 0)
        assert (p - p).is_zero() and p - p == LaurentPoly.zero()

    @given(coeff_maps, coeff_maps, st.integers(-20, 20))
    @settings(max_examples=200, deadline=None)
    def test_equal_values_hash_equal(self, ac, bc, k):
        a, b = LaurentPoly(ac), LaurentPoly(bc)
        for p, q in (((a + b) - b, a), ((a * b) + a, a * (b + 1)),
                     (a.shift(k).shift(-k), a), (b - b, LaurentPoly.zero())):
            assert p == q
            assert hash(p) == hash(q)


class TestSpanLimit:
    def test_far_monomials_are_cheap(self):
        far = LaurentPoly.t(10 ** 9)
        assert (far * far).degree() == 2 * 10 ** 9
        assert divmod(far, LaurentPoly.t(-5)) == (LaurentPoly.t(10 ** 9 + 5),
                                                  LaurentPoly.zero())

    @pytest.mark.parametrize("make", [
        lambda: LaurentPoly.parse(f"t^{MAX_SPAN + 1} + 1"),
        lambda: LaurentPoly.t(MAX_SPAN) + LaurentPoly.t(-1),
        lambda: LaurentPoly({0: 1, MAX_SPAN: 1}) * LaurentPoly.parse("t + 1"),
        lambda: GradedProduct.of(MAX_SPAN + 1).reduce_with(LaurentPoly.one()),
    ])
    def test_wide_results_are_refused(self, make):
        with pytest.raises(ValueError, match="limit"):
            make()

    def test_wide_dataset_row_is_a_dataset_error(self):
        text = ("group G4 order 24 rank 2 degrees 4,6\n"
                f"irrep x dim 1 fake t^{10 ** 9} + 1\n")
        with pytest.raises(DatasetError, match="line 2"):
            parse_dataset(text)


def graded_products():
    return st.builds(GradedProduct, st.integers(-3, 3), st.integers(-6, 6),
                     factor_maps)


def reference(call):
    try:
        return call()
    except NotPolynomialError as exc:
        return ("NotPolynomialError", exc.cyclotomic_index)


class TestGradedProduct:
    @given(graded_products(), small_maps,
           st.lists(st.integers(1, 12), max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_reduce_with(self, gp, pc, extra):
        # Multiplying in random (1 - t^b) makes many of the denominators
        # divide, so both the quotient and the error path are exercised.
        poly = LaurentPoly(pc)
        for b in extra:
            poly = poly * GradedProduct.of(b).reduce_with(LaurentPoly.one())
        want = reference(lambda: polyoracle.reduce_with(gp, DictPoly.of(poly)))
        got = reference(lambda: gp.reduce_with(poly))
        if isinstance(want, DictPoly):
            assert same(got, want)
        else:
            assert got == want

    @pytest.mark.parametrize("a", [2, 5, 9])
    def test_divisor_longer_than_dividend(self, a):
        poly = LaurentPoly.parse("t + 1")
        gp = GradedProduct.of(a).inv()
        with pytest.raises(NotPolynomialError) as err:
            gp.reduce_with(poly)
        with pytest.raises(NotPolynomialError) as want:
            polyoracle.reduce_with(gp, DictPoly.of(poly))
        assert err.value.cyclotomic_index == want.value.cyclotomic_index == a

    def test_exact_division_by_longer_factor(self):
        # (1 - t^2)(t^4 + t^2 + 1) = 1 - t^6, so dividing by the factor
        # of the denominator, longer than poly, is exact.
        gp = GradedProduct.of(2) * GradedProduct.of(6).inv()
        poly = LaurentPoly.parse("t^4 + t^2 + 1").shift(-3)
        assert gp.reduce_with(poly) == LaurentPoly.t(-3)
        assert same(gp.reduce_with(poly),
                    polyoracle.reduce_with(gp, DictPoly.of(poly)))

    def test_zero_poly(self):
        gp = GradedProduct(3, 0, {4: -1})
        assert gp.reduce_with(LaurentPoly.zero()).is_zero()
        assert polyoracle.reduce_with(gp, DictPoly.zero()).is_zero()


def expanded_poincare(degrees) -> DictPoly:
    """prod (1 - t^d) / (1 - t)^n through the oracle's cyclotomic expansion."""
    gp = GradedProduct(factors=Counter(degrees)) * GradedProduct.of(1, -len(degrees))
    return polyoracle.reduce(gp)


class TestPoincarePolynomial:
    def test_configured_groups(self):
        groups = configured_groups(max_order=10**9, max_m=12, max_n=8)
        assert len(groups) == 204
        for g in groups:
            p = coinvariant_poincare(g)
            assert same(p, expanded_poincare(g.degrees)), g
            assert p.at_one() == g.order, g

    @given(st.lists(st.integers(1, 30), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_degree_tuples(self, degrees):
        assert same(poincare_polynomial(degrees), expanded_poincare(degrees))

    @pytest.mark.parametrize("degrees", [(0,), (2, -3), (4, 0, 6)])
    def test_degrees_below_one_are_refused(self, degrees):
        with pytest.raises(ValueError, match="at least 1"):
            poincare_polynomial(degrees)

    def test_span_limit_is_inclusive(self):
        # sum(d - 1) is the degree of P; MAX_SPAN itself is allowed.
        p = poincare_polynomial((MAX_SPAN // 2 + 1, MAX_SPAN - MAX_SPAN // 2 + 1))
        assert (p.trailing_degree(), p.degree()) == (0, MAX_SPAN)
        assert p.coeff(MAX_SPAN // 2) == MAX_SPAN // 2 + 1
        for degrees in [(MAX_SPAN + 2,), (2,) * (MAX_SPAN + 1), (10**18, 3)]:
            with pytest.raises(ValueError, match="the limit is"):
                poincare_polynomial(degrees)
