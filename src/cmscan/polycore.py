"""Exact Laurent polynomial arithmetic over the integers.

One value type and two kernels cover everything the higher layers need:

* ``LaurentPoly`` stores a Laurent polynomial densely, as its trailing
  exponent and the tuple of integer coefficients from there up to its
  degree, trimmed so that both ends are nonzero.  Products are list
  convolutions and long division runs by index from the top
  coefficient.  All arithmetic is exact; there is no floating point
  anywhere in this package.

* ``mul_one_minus`` and ``div_one_minus`` multiply a coefficient list
  by 1 - t^a (a shift-and-subtract) and divide it by 1 - t^a (the
  recurrence q[i] = c[i] + q[i - a]), each linear in the length.
  ``poincare_polynomial`` expands the coinvariant Poincare polynomial
  prod_i [d_i]_t = prod_i (1 - t^d_i)/(1 - t) with them, one degree at
  a time; fake degrees and ``cyclotomic``'s closed form are expanded
  with them too.
"""
from __future__ import annotations

import math
import re
from itertools import accumulate, repeat
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence

# Largest degree minus trailing degree a polynomial may have.  Storage
# is dense, so this bounds the memory one value can take; it is checked
# before anything is allocated.
MAX_SPAN = 1 << 20


def _check_span(span: int) -> None:
    if span > MAX_SPAN:
        raise ValueError(f"polynomial would span {span} exponents; "
                         f"the limit is {MAX_SPAN}")


def mul_one_minus(c: list[int], a: int) -> None:
    """c *= 1 - t^a in place, truncated to len(c): c[i] -= c[i - a]."""
    c[a:] = map(sub, c[a:], c[:-a])


def div_one_minus(c: list[int], a: int) -> None:
    """c /= 1 - t^a as a power series in place, truncated to len(c):
    q[i] = c[i] + q[i - a], one prefix sum per residue class mod a."""
    for j in range(min(a, len(c))):
        c[j::a] = accumulate(c[j::a])


class VerificationError(Exception):
    """An exact identity that must hold did not.

    Raised explicitly, so the check also runs under ``python -O``; the
    CLI maps it to exit status 1, and no other exception.
    """


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients.

    Stored densely: ``_c[i]`` is the coefficient of t^(_lo + i), and the
    tuple ``_c`` has nonzero first and last entries (the zero polynomial
    is ``_lo == 0, _c == ()``), so equal polynomials have equal fields.
    Other modules use only the public methods.  Degree minus trailing
    degree may not exceed MAX_SPAN.

    >>> p = LaurentPoly({0: 1, 1: 1})
    >>> print(p * p)
    t^2 + 2*t + 1
    >>> print(LaurentPoly.parse("t^8 + 2*t^5"))
    t^8 + 2*t^5
    """

    __slots__ = ("_lo", "_c")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        terms: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(e, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be ints")
                if c:
                    terms[e] = c
        if not terms:
            self._lo, self._c = 0, ()
            return
        lo, hi = min(terms), max(terms)
        _check_span(hi - lo)
        dense = [0] * (hi - lo + 1)
        for e, c in terms.items():
            dense[e - lo] = c
        self._lo, self._c = lo, tuple(dense)

    @classmethod
    def _dense(cls, lo: int, coeffs: Iterable[int]) -> LaurentPoly:
        """Internal constructor trusting its input: ``coeffs`` are ints of
        t^lo, t^(lo+1), ...; only zero ends are trimmed."""
        c = tuple(coeffs)
        end = len(c)
        while end and not c[end - 1]:
            end -= 1
        start = 0
        while start < end and not c[start]:
            start += 1
        if start or end < len(c):
            c = c[start:end]
        out = object.__new__(cls)
        out._lo, out._c = (lo + start, c) if c else (0, c)
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls({})

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int = 0) -> LaurentPoly:
        return cls({exp: coeff})

    @classmethod
    def t(cls, exp: int = 1) -> LaurentPoly:
        return cls({exp: 1})

    # -- inspection --------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        """Exponent/coefficient pairs with nonzero coefficient, in
        increasing exponent order."""
        lo = self._lo
        return ((lo + i, c) for i, c in enumerate(self._c) if c)

    def coeff(self, exp: int) -> int:
        i = exp - self._lo
        return self._c[i] if 0 <= i < len(self._c) else 0

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def trailing_degree(self) -> int:
        """Least exponent with nonzero coefficient; rejects the zero polynomial."""
        if not self._c:
            raise ValueError("the zero polynomial has no trailing degree")
        return self._lo

    def degree(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no degree")
        return self._lo + len(self._c) - 1

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self._c)

    def at_one(self) -> int:
        return sum(self._c)

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other) -> LaurentPoly | None:
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly._dense(0, (other,))
        return None

    def __add__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._c:
            return self
        if not self._c:
            return other
        lo = min(self._lo, other._lo)
        span = max(self.degree(), other.degree()) - lo
        _check_span(span)
        out = [0] * (span + 1)
        i = self._lo - lo
        out[i:i + len(self._c)] = self._c
        j, k = other._lo - lo, other._lo - lo + len(other._c)
        out[j:k] = map(add, out[j:k], other._c)
        return LaurentPoly._dense(lo, out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._dense(self._lo, map(neg, self._c))

    def __sub__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> LaurentPoly:
        return -(self - other)

    def __mul__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return LaurentPoly()
        if len(a) < len(b):
            a, b = b, a
        n = len(a)
        _check_span(n + len(b) - 2)
        # As in division, a factor in t^step touches every step-th entry.
        step = math.gcd(*(i for i, c in enumerate(a) if c)) or 1
        a_terms = a[::step]
        out = [0] * (n + len(b) - 1)
        for j, cb in enumerate(b):
            if cb:
                out[j:j + n:step] = map(add, out[j:j + n:step],
                                        map(mul, a_terms, repeat(cb)))
        return LaurentPoly._dense(self._lo + other._lo, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        return LaurentPoly._dense(self._lo + k, self._c)

    def __divmod__(self, other) -> tuple[LaurentPoly, LaurentPoly]:
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
            return LaurentPoly.zero(), LaurentPoly.zero()
        # Index i is the coefficient of t^i after dividing each operand
        # by its trailing monomial, a unit, so both have nonzero constant
        # terms and rem[top] is the current leading coefficient.  When
        # ``other`` is a polynomial in t^step (fake degrees usually are),
        # each step updates only every step-th coefficient.
        den = other._c
        den_deg = len(den) - 1
        den_lead = den[-1]
        step = math.gcd(*(i for i, c in enumerate(den) if c)) or 1
        den_terms = den[::step]
        rem = list(self._c)
        quot = [0] * max(len(rem) - den_deg, 0)
        top = len(rem) - 1
        while top >= den_deg:
            c = rem[top]
            if c:
                lead, r = divmod(c, den_lead)
                if r:
                    break
                e = top - den_deg
                quot[e] = lead
                rem[e:top + 1:step] = map(sub, rem[e:top + 1:step],
                                          map(mul, den_terms, repeat(lead)))
            top -= 1
        q = LaurentPoly._dense(self._lo - other._lo, quot)
        r = LaurentPoly._dense(self._lo, rem[:top + 1])
        return q, r

    def __truediv__(self, other) -> LaurentPoly:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._lo == other._lo and self._c == other._c

    def __hash__(self) -> int:
        return hash((self._lo, self._c))

    # -- text format -------------------------------------------------

    _TERM = re.compile(
        r"\s*(?P<sign>[+-])?\s*(?:"
        r"(?P<coeff>\d+)\s*\*?\s*t(?:\^(?P<cexp>-?\d+))?"
        r"|t(?:\^(?P<exp>-?\d+))?"
        r"|(?P<const>\d+)"
        r")\s*"
    )

    @classmethod
    def parse(cls, text: str) -> LaurentPoly:
        """Parse sparse ``c*t^e`` terms in either exponent order.

        Accepts ``"t^8 + 2*t^5"`` and ``"2*t^5 + 1*t^8"`` alike.
        """
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero()
        out: dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(s):
            m = cls._TERM.match(s, pos)
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
        return cls(out)

    def render(self) -> str:
        """Canonical text: descending exponents, unit coefficients elided."""
        if not self._c:
            return "0"
        parts: list[str] = []
        for e, c in reversed(list(self.items())):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                body = tpow if mag == 1 else f"{mag}*{tpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly.parse({self.render()!r})"


def cyclotomic(k: int) -> LaurentPoly:
    """The k-th cyclotomic polynomial: Phi_1 = t - 1 and, for k > 1,
    Phi_k = prod_{d | k} (1 - t^d)^mu(k/d), over d = k/s for the products
    s of distinct primes of k, expanded as a power series on phi(k) + 1
    coefficients; that is exact, since deg Phi_k = phi(k).  A degree
    above MAX_SPAN is refused before they are allocated.

    >>> print(cyclotomic(1))
    t - 1
    >>> print(cyclotomic(6))
    t^2 - t + 1
    """
    if k < 1:
        raise ValueError("cyclotomic index must be positive")
    if k == 1:
        return LaurentPoly({1: 1, 0: -1})
    totient, rest, p = k, k, 2
    squarefree = [(1, 1)]  # (s, mu(s)) over the products s of the primes
    while rest > 1:  # trial division
        if p * p > rest:
            p = rest
        if rest % p == 0:
            totient = totient // p * (p - 1)
            squarefree += [(s * p, -mu) for s, mu in squarefree]
            while rest % p == 0:
                rest //= p
        p += 1
    _check_span(totient)
    c = [1] + [0] * totient
    for s, mu in squarefree:
        (mul_one_minus if mu == 1 else div_one_minus)(c, k // s)
    return LaurentPoly._dense(0, c)


def poincare_polynomial(degrees: Sequence[int]) -> LaurentPoly:
    """prod_i (1 - t^d_i)/(1 - t) = prod_i [d_i]_t for invariant degrees d_i.

    Per degree d: pad d - 1 zeros, divide by 1 - t (running sums), then
    multiply by 1 - t^d; truncating to the padded length is exact.
    Refuses a degree below 1 and a span above MAX_SPAN before allocating.

    >>> print(poincare_polynomial((2, 3)))
    t^3 + 2*t^2 + 2*t + 1
    """
    if any(d < 1 for d in degrees):
        raise ValueError(f"invariant degrees must be at least 1: {degrees}")
    _check_span(sum(d - 1 for d in degrees))
    c = [1]
    for d in degrees:
        c += [0] * (d - 1)
        div_one_minus(c, 1)
        mul_one_minus(c, d)
    return LaurentPoly._dense(0, c)
