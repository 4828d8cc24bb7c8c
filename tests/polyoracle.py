"""Reference kernel for differential tests of cmscan.polycore.

``DictPoly`` is the sparse dict-based Laurent polynomial that
``LaurentPoly`` used to be: a sorted map from exponents to nonzero
coefficients, with schoolbook multiplication and long division that
finds the leading term with ``max`` on every step.  ``reduce`` and
``reduce_with`` expand a ``GradedProduct`` through its cyclotomic
factorisation (``cyclotomic_factorisation``, the trial division of
every degree into Phi_k multiplicities that ``GradedProduct`` used to
carry), multiplying out Phi_k^e and dividing once at the end.
``series_quotient`` is the power-series division over ``Fraction`` that
``groups.degrees_series`` used before its integer prefix sums, and
``parse`` the term-at-a-time scanner that ``LaurentPoly.parse`` was
before its single grammar.  The code is kept as it was, so tests can
compare the dense kernel, the factor-at-a-time expansion, the degrees
series and the parser against it.

``GradedProduct`` is the formal product that ``fakedeg.fake_degree``
was assembled as before its closed form, and ``NotPolynomialError`` the
error its expansion raises; its ``reduce_with`` cancels equal degrees
and expands one (1 - t^a) factor at a time with the ``polycore``
kernels, reading ``LaurentPoly`` through its public methods only.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from cmscan.polycore import MAX_SPAN, LaurentPoly, div_one_minus, mul_one_minus


class NotPolynomialError(ArithmeticError):
    """A graded product failed to reduce to a polynomial.

    ``cyclotomic_index`` names the largest Phi_k left with negative
    multiplicity after cancellation.
    """

    def __init__(self, cyclotomic_index: int):
        self.cyclotomic_index = cyclotomic_index
        super().__init__(
            f"not a polynomial: Phi_{cyclotomic_index} has negative multiplicity"
        )


class GradedProduct:
    """Formal product ``scalar * t^shift * prod_a (1 - t^a)^e(a)``.

    Instances are immutable by convention; every operation returns a new
    value.  Equality is on the normalised data, so two products that
    differ only by cancelled factors compare equal.
    """

    __slots__ = ("scalar", "shift", "factors")

    def __init__(self, scalar: int = 1, shift: int = 0,
                 factors: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if factors:
            for a, e in factors.items():
                if a < 1:
                    raise ValueError("factor degrees must be positive")
                if e:
                    clean[a] = clean.get(a, 0) + e
        self.scalar = scalar
        self.shift = shift
        self.factors = {a: e for a, e in sorted(clean.items()) if e}

    @classmethod
    def of(cls, a: int, e: int = 1) -> GradedProduct:
        """The single factor (1 - t^a)^e."""
        return cls(factors={a: e})

    def __mul__(self, other: GradedProduct) -> GradedProduct:
        if not isinstance(other, GradedProduct):
            return NotImplemented
        factors = dict(self.factors)
        for a, e in other.factors.items():
            factors[a] = factors.get(a, 0) + e
        return GradedProduct(self.scalar * other.scalar,
                             self.shift + other.shift, factors)

    def inv(self) -> GradedProduct:
        """Formal reciprocal; only unit scalars are invertible over Z."""
        if self.scalar not in (1, -1):
            raise ValueError("only products with scalar +-1 are invertible")
        return GradedProduct(self.scalar, -self.shift,
                             {a: -e for a, e in self.factors.items()})

    def substitute(self, k: int) -> GradedProduct:
        """Substitute t -> t^k (k >= 1): degrees and shift scale by k."""
        if k < 1:
            raise ValueError("substitution degree must be positive")
        return GradedProduct(self.scalar, self.shift * k,
                             {a * k: e for a, e in self.factors.items()})

    def reduce_with(self, poly: LaurentPoly) -> LaurentPoly:
        """Expand ``poly * self`` when that product is a polynomial.

        Negative multiplicities are allowed here as long as the
        denominator divides ``poly`` times the numerator exactly.  First
        each factor (1 - t^a) of the numerator multiplies in, then each
        one of the denominator divides out by q[i] = c[i] + q[i - a].
        When the whole quotient is a polynomial every one of these
        divisions is exact, so a remainder proves it is not, and the
        error names the largest Phi_k of negative multiplicity.
        """
        if poly.is_zero():
            return LaurentPoly()
        lo = poly.trailing_degree()
        c = [poly.coeff(e) for e in range(lo, poly.degree() + 1)]
        span = len(c) - 1 + sum(a * e for a, e in self.factors.items() if e > 0)
        if span > MAX_SPAN:
            raise ValueError(f"polynomial would span {span} exponents; "
                             f"the limit is {MAX_SPAN}")
        for a, e in self.factors.items():
            for _ in range(e):
                c += [0] * a
                mul_one_minus(c, a)
        for a, e in self.factors.items():
            for _ in range(-e):
                div_one_minus(c, a)
                if any(c[max(len(c) - a, 0):]):
                    raise NotPolynomialError(
                        _largest_negative_cyclotomic(self.factors))
                del c[len(c) - a:]
        return LaurentPoly({lo + self.shift + i: self.scalar * x
                            for i, x in enumerate(c)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedProduct):
            return NotImplemented
        return (self.scalar, self.shift, self.factors) == \
            (other.scalar, other.shift, other.factors)

    def __hash__(self) -> int:
        return hash((self.scalar, self.shift, tuple(self.factors.items())))

    def __repr__(self) -> str:
        body = " ".join(f"(1-t^{a})^{e}" for a, e in self.factors.items())
        return f"GradedProduct({self.scalar} * t^{self.shift} * {body or '1'})"


def _largest_negative_cyclotomic(factors: Mapping[int, int]) -> int:
    """The largest k whose Phi_k has negative multiplicity in
    prod_a (1 - t^a)^e(a), by 1 - t^a = -prod_{k | a} Phi_k(t); 1 when
    none has."""
    return max((k for k in range(1, max(factors, default=0) + 1)
                if sum(e for a, e in factors.items() if a % k == 0) < 0),
               default=1)


class DictPoly:
    """Immutable Laurent polynomial with integer coefficients, stored sparsely."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(e, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be ints")
                if c:
                    clean[e] = clean.get(e, 0) + c
        self._coeffs = {e: c for e, c in sorted(clean.items()) if c}

    @classmethod
    def of(cls, p: LaurentPoly) -> DictPoly:
        return cls(dict(p.items()))

    @classmethod
    def zero(cls) -> DictPoly:
        return cls({})

    @classmethod
    def one(cls) -> DictPoly:
        return cls({0: 1})

    def items(self) -> Iterator[tuple[int, int]]:
        """Exponent/coefficient pairs in increasing exponent order."""
        return iter(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def trailing_degree(self) -> int:
        """Least exponent with nonzero coefficient; rejects the zero polynomial."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no trailing degree")
        return next(iter(self._coeffs))

    def _coerce(self, other) -> DictPoly | None:
        if isinstance(other, DictPoly):
            return other
        if isinstance(other, int):
            return DictPoly({0: other})
        return None

    def __add__(self, other) -> DictPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return DictPoly(out)

    __radd__ = __add__

    def __neg__(self) -> DictPoly:
        return DictPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> DictPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> DictPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return DictPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> DictPoly:
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = DictPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> DictPoly:
        """Multiply by t^k."""
        return DictPoly({e + k: c for e, c in self._coeffs.items()})

    def __divmod__(self, other) -> tuple[DictPoly, DictPoly]:
        """Long division ordered by descending exponent, over the integers.

        Returns ``(q, r)`` with ``self == q * other + r``.  Division stops
        as soon as the leading coefficient of ``other`` fails to divide the
        current leading coefficient, so the remainder is canonical and the
        quotient is always integral; ``r == 0`` iff ``other`` divides
        ``self`` in Z[t, t^-1].
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return DictPoly.zero(), DictPoly.zero()
        # Normalise both operands to honest polynomials with nonzero
        # constant term; units t^k are invertible so this loses nothing.
        a_tr, b_tr = self.trailing_degree(), other.trailing_degree()
        rem = {e - a_tr: c for e, c in self._coeffs.items()}
        den = {e - b_tr: c for e, c in other._coeffs.items()}
        den_deg = max(den)
        den_lead = den[den_deg]
        quot: dict[int, int] = {}
        while rem:
            rem_deg = max(rem)
            if rem_deg < den_deg:
                break
            lead, r = divmod(rem[rem_deg], den_lead)
            if r:
                break
            e = rem_deg - den_deg
            quot[e] = lead
            for de, dc in den.items():
                k = de + e
                v = rem.get(k, 0) - lead * dc
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        q = DictPoly(quot).shift(a_tr - b_tr)
        r = DictPoly(rem).shift(a_tr)
        return q, r

    def __truediv__(self, other) -> DictPoly:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(self._coeffs.items()))


@functools.lru_cache(maxsize=None)
def cyclotomic(k: int) -> DictPoly:
    """The k-th cyclotomic polynomial Phi_k, computed by exact division."""
    if k < 1:
        raise ValueError("cyclotomic index must be positive")
    num = DictPoly({k: 1, 0: -1})
    for d in range(1, k):
        if k % d == 0:
            num = num / cyclotomic(d)
    return num


@dataclass(frozen=True)
class CycloFactorisation:
    """Multiplicities of cyclotomic polynomials Phi_k, k >= 1."""

    multiplicities: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.multiplicities)

    def negative_indices(self) -> list[int]:
        return [k for k, e in self.multiplicities if e < 0]


def cyclotomic_factorisation(gp: GradedProduct) -> tuple[CycloFactorisation, int]:
    """Phi_k multiplicities of the (1 - t^a) part, plus the sign.

    Uses 1 - t^a = -(t^a - 1) = -prod_{k | a} Phi_k(t), so the
    returned sign is (-1)^(sum of multiplicities).
    """
    mult: dict[int, int] = {}
    sign_exp = 0
    for a, e in gp.factors.items():
        sign_exp += e
        for k in range(1, a + 1):
            if a % k == 0:
                mult[k] = mult.get(k, 0) + e
    sign = -1 if sign_exp % 2 else 1
    pairs = tuple((k, e) for k, e in sorted(mult.items()) if e)
    return CycloFactorisation(pairs), sign


def expand(multiplicities) -> DictPoly:
    """Product of the Phi_k^e; rejects negative multiplicities."""
    out = DictPoly.one()
    for k, e in multiplicities:
        if e < 0:
            raise NotPolynomialError(k)
        out = out * cyclotomic(k) ** e
    return out


def reduce(gp: GradedProduct) -> DictPoly:
    """Expand a GradedProduct by cyclotomic expansion; the error names
    the first Phi_k of negative multiplicity."""
    cf, sign = cyclotomic_factorisation(gp)
    negatives = cf.negative_indices()
    if negatives:
        raise NotPolynomialError(negatives[0])
    return (expand(cf.multiplicities) * (gp.scalar * sign)).shift(gp.shift)


def reduce_with(gp: GradedProduct, poly: DictPoly) -> DictPoly:
    """GradedProduct.reduce_with by cyclotomic expansion and one division."""
    cf, sign = cyclotomic_factorisation(gp)
    num = poly
    den = DictPoly.one()
    for k, e in cf.multiplicities:
        if e > 0:
            num = num * cyclotomic(k) ** e
        else:
            den = den * cyclotomic(k) ** (-e)
    q, r = divmod(num, den)
    if not r.is_zero():
        raise NotPolynomialError(max(cf.negative_indices(), default=1))
    return (q * (gp.scalar * sign)).shift(gp.shift)


def series_quotient(num: LaurentPoly, den: LaurentPoly, n: int) -> LaurentPoly:
    """First n+1 coefficients of num/den as a formal power series.

    ``den`` must be an honest polynomial with nonzero constant term and
    ``num`` must have no negative exponents.  The recurrence is run over
    exact rationals and the truncated result must be integral.
    """
    if den.is_zero():
        raise ZeroDivisionError("series division by zero")
    if den.trailing_degree() != 0:
        raise ValueError("series denominator needs a nonzero constant term")
    if not num.is_zero() and num.trailing_degree() < 0:
        raise ValueError("series numerator must not have negative exponents")
    if n < 0:
        raise ValueError("truncation order must be nonnegative")
    d0 = Fraction(den.coeff(0))
    coeffs: list[Fraction] = []
    for k in range(n + 1):
        acc = Fraction(num.coeff(k))
        for j, c in den.items():
            if 1 <= j <= k:
                acc -= c * coeffs[k - j]
        coeffs.append(acc / d0)
    out: dict[int, int] = {}
    for k, c in enumerate(coeffs):
        if c.denominator != 1:
            raise ValueError(f"series coefficient at t^{k} is not an integer: {c}")
        if c.numerator:
            out[k] = c.numerator
    return LaurentPoly(out)


_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<coeff>\d+)\s*\*?\s*t(?:\^(?P<cexp>-?\d+))?"
    r"|t(?:\^(?P<exp>-?\d+))?"
    r"|(?P<const>\d+)"
    r")\s*"
)


def parse(text: str) -> LaurentPoly:
    """Parse sparse ``c*t^e`` terms in either exponent order, one
    ``_TERM`` match at a time (quadratic on a long whitespace run)."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero()
    out: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial text {text!r} at offset {pos}")
        if not first and m.group("sign") is None:
            raise ValueError(f"missing +/- between terms in {text!r}")
        if m.group("const") is not None:
            coeff, exp = int(m.group("const")), 0
        elif m.group("coeff") is not None:
            coeff = int(m.group("coeff"))
            exp = int(m.group("cexp")) if m.group("cexp") is not None else 1
        else:
            coeff = 1
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        if m.group("sign") == "-":
            coeff = -coeff
        out[exp] = out.get(exp, 0) + coeff
        pos = m.end()
        first = False
    return LaurentPoly(out)
