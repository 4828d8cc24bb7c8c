import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmscan import polycore
from cmscan.polycore import LaurentPoly, cyclotomic
import polyoracle
from polyoracle import (
    DictPoly, GradedProduct, NotPolynomialError, series_quotient,
)

P = LaurentPoly.parse


class TestParseRender:
    def test_parse_accepts_both_orders(self):
        assert P("t^8 + 2*t^5") == P("2*t^5 + t^8")

    def test_unit_coefficients_elided(self):
        assert P("1*t^3 + 1*t + 1").render() == "t^3 + t + 1"

    def test_descending_render(self):
        assert P("1 + t + t^4").render() == "t^4 + t + 1"

    def test_negative_exponents(self):
        p = P("t^-2 + 3")
        assert p.coeff(-2) == 1 and p.coeff(0) == 3
        assert p.render() == "3 + t^-2"

    def test_signs(self):
        p = P("-t^2 + 4*t - 1")
        assert p.coeff(2) == -1 and p.coeff(1) == 4 and p.coeff(0) == -1
        assert p.render() == "-t^2 + 4*t - 1"

    def test_zero(self):
        assert P("0").is_zero()
        assert LaurentPoly.zero().render() == "0"

    @pytest.mark.parametrize("bad", ["", "t +", "t^^2", "t^2 t", "x + 1",
                                     "1 2", "+ + t", "*t", "t^", "2*",
                                     "t ^2", "--t", "t2", "1+", "+", "-",
                                     " "])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            P(bad)

    # Each of these took the term-at-a-time scanner quadratic time; a
    # 1 MB line would have taken it minutes to hours.
    @pytest.mark.parametrize("text", [
        "2" + " " * 10**6 + "x",
        "+" + " " * 10**6 + "x",
        "t" + " " * 10**6 + "+ 1",
        "1" * 10**6 + "x",
        "t + " * 200_000 + "x",
    ], ids=["coefficient-spaces", "sign-spaces", "term-spaces", "digits",
            "many-terms"])
    def test_parse_time_is_linear(self, text):
        start = time.perf_counter()
        try:
            P(text)
        except ValueError as exc:
            assert len(str(exc)) < 80  # the text is quoted short
        assert time.perf_counter() - start < 5

    @given(st.lists(st.sampled_from(list("t^*+- 0123456789\t")
                                    + ["t^", " + ", " - "]), max_size=16))
    @settings(max_examples=1000, deadline=None)
    def test_parse_matches_scanner_oracle(self, pieces):
        text = "".join(pieces)
        try:
            expected = polyoracle.parse(text)
        except ValueError:
            with pytest.raises(ValueError):
                P(text)
        else:
            assert P(text) == expected

    @given(st.dictionaries(st.integers(-6, 30), st.integers(-9, 9),
                           max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, coeffs):
        p = LaurentPoly(coeffs)
        assert P(p.render()) == p


class TestArithmetic:
    def test_ring_ops(self):
        a, b = P("t + 1"), P("t - 1")
        assert a * b == P("t^2 - 1")
        assert a + b == P("2*t")
        assert a - b == P("2")
        assert a * 0 == LaurentPoly.zero()
        assert (a + 2) == P("t + 3")
        assert a ** 3 == P("t^3 + 3*t^2 + 3*t + 1")

    def test_shift_and_degrees(self):
        p = P("t^5 + t^2")
        assert p.trailing_degree() == 2 and p.degree() == 5
        assert p.shift(-2) == P("t^3 + 1")

    def test_content_and_at_one(self):
        p = P("6*t^2 + 4*t + 2")
        assert p.content() == 2
        assert p.at_one() == 12


class TestDivision:
    def test_frozen_indivisible_remainder(self):
        # 5th vs primitive 6th roots of unity: never divisible
        q, r = divmod(P("1 + t + t^2 + t^3 + t^4"), P("1 - t + t^2"))
        assert r == P("t - 1")
        assert q * P("1 - t + t^2") + r == P("1 + t + t^2 + t^3 + t^4")

    def test_frozen_divisible(self):
        num = P("1 + t") * P("1 + t + t^2 + t^3")
        assert num / P("1 + t^2") == P("1 + t") ** 2

    def test_truediv_raises_on_inexact(self):
        with pytest.raises(ValueError):
            P("t^2 + 1") / P("t + 1")

    def test_early_stop_on_leading_coefficient(self):
        q, r = divmod(P("t^2 + 1"), P("2*t + 1"))
        assert not r.is_zero()

    def test_trailing_shift_normalization(self):
        q, r = divmod(P("t^4 + t^3"), P("t"))
        assert (q, r) == (P("t^3 + t^2"), LaurentPoly.zero())

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P("t"), LaurentPoly.zero())

    @given(
        st.dictionaries(st.integers(0, 8), st.integers(-5, 5), max_size=5),
        st.dictionaries(st.integers(0, 5), st.integers(-5, 5), min_size=1,
                        max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_product_division_round_trip(self, ac, bc):
        a, b = LaurentPoly(ac), LaurentPoly(bc)
        if b.is_zero():
            return
        assert divmod(a * b, b) == (a, LaurentPoly.zero())


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == P("t - 1")
        assert cyclotomic(2) == P("t + 1")
        assert cyclotomic(6) == P("t^2 - t + 1")
        assert cyclotomic(12) == P("t^4 - t^2 + 1")

    def test_product_identity(self):
        for a in range(1, 61):
            product = LaurentPoly.one()
            for k in range(1, a + 1):
                if a % k == 0:
                    product = product * cyclotomic(k)
            assert product == P(f"t^{a} - 1"), a

    def test_closed_form_matches_oracle(self):
        # 210 = 2*3*5*7 and 1155 = 3*5*7*11 take 16 squarefree factors
        # (1 - t^d)^mu each.
        for k in [*range(1, 256), 1155]:
            assert DictPoly.of(cyclotomic(k)) == polyoracle.cyclotomic(k), k

    def test_degree_bound_comes_before_the_expansion(self, monkeypatch):
        # deg Phi_23 = phi(23) = 22, and the bound is inclusive.
        monkeypatch.setattr(polycore, "MAX_SPAN", 22)
        assert cyclotomic(23).degree() == 22
        monkeypatch.setattr(polycore, "MAX_SPAN", 21)
        monkeypatch.setattr(polycore, "mul_one_minus", None)
        with pytest.raises(ValueError, match="would span 22 exponents"):
            cyclotomic(23)


class TestGradedProduct:
    def test_reduce_quotient(self):
        gp = GradedProduct.of(4) * GradedProduct.of(2).inv()
        assert gp.reduce_with(LaurentPoly.one()) == P("1 + t^2")

    def test_reduce_reports_offending_cyclotomic(self):
        gp = GradedProduct.of(2) * GradedProduct.of(4).inv()
        with pytest.raises(NotPolynomialError) as err:
            gp.reduce_with(LaurentPoly.one())
        assert err.value.cyclotomic_index == 4

    def test_reduce_with_cancels_hidden_factors(self):
        # (1 - t^2)/(1 - t^4) alone is not a polynomial, but multiplying
        # by 1 + t^2 first makes it one.
        gp = GradedProduct.of(2) * GradedProduct.of(4).inv()
        assert gp.reduce_with(P("1 + t^2")) == LaurentPoly.one()

    def test_scalar_shift_substitute(self):
        one = LaurentPoly.one()
        gp = GradedProduct(-1, 3, {2: 1})
        assert gp.reduce_with(one) == P("-t^3 + t^5")
        assert GradedProduct.of(2).substitute(3).reduce_with(one) == P("1 - t^6")

    def test_agreement_with_expand_then_divide(self):
        num = GradedProduct.of(6) * GradedProduct.of(4)
        den = GradedProduct.of(2) * GradedProduct.of(2)
        both = num * den.inv()
        expanded = (P("1 - t^6") * P("1 - t^4")) / (P("1 - t^2") ** 2)
        assert both.reduce_with(LaurentPoly.one()) == expanded

    def test_inverse_of_nonunit_scalar_rejected(self):
        with pytest.raises(ValueError):
            GradedProduct(2, 0, {2: 1}).inv()


class TestSeriesQuotient:
    def test_exact_division_embeds(self):
        assert series_quotient(P("1 - t^2"), P("1 - t"), 4) == P("1 + t")

    def test_geometric_square(self):
        got = series_quotient(LaurentPoly.one(), P("1 - t") ** 2, 3)
        assert got == P("1 + 2*t + 3*t^2 + 4*t^3")

    def test_rejects_nonintegral(self):
        with pytest.raises(ValueError):
            series_quotient(LaurentPoly.one(), P("2 - t"), 3)

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ValueError):
            series_quotient(LaurentPoly.one(), P("t"), 3)
