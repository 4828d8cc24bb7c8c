"""Exact Laurent polynomial arithmetic over the integers.

One value type and two kernels cover everything the higher layers need:

* ``LaurentPoly`` stores a Laurent polynomial densely, as its trailing
  exponent and the tuple of integer coefficients from there up to its
  degree, trimmed so that both ends are nonzero.  Products are list
  convolutions.  Long division by a divisor with leading coefficient
  +-1 is one big-integer division of the coefficient lists packed at
  64 bits a slot, certified by a size bound; any other division runs by
  index from the top coefficient.  There is no addition: no command
  sums polynomials.  All arithmetic is exact; there is no floating
  point anywhere in this package.

* ``mul_one_minus`` and ``div_one_minus`` multiply a coefficient list
  by 1 - t^a (a shift-and-subtract) and divide it by 1 - t^a (the
  recurrence q[i] = c[i] + q[i - a]), each linear in the length.
  ``poincare_polynomial`` expands the coinvariant Poincare polynomial
  prod_i [d_i]_t = prod_i (1 - t^d_i)/(1 - t) with them, one degree
  above 1 at a time; fake degrees and ``cyclotomic``'s closed form
  are expanded with them too.
"""
from __future__ import annotations

import math
import re
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import accumulate, repeat
from operator import add, mul, sub

# Largest degree minus trailing degree a polynomial may have.  Storage
# is dense, so this bounds the memory one value can take; it is checked
# before anything is allocated.
MAX_SPAN = 1 << 20


def _check_span(span: int) -> None:
    if span > MAX_SPAN:
        raise ValueError(f"polynomial would span {clip(span)} exponents; "
                         f"the limit is {MAX_SPAN}")


def clip(value) -> str:
    """``str(value)`` cut to at most 40 characters, for quoting input in
    an error message; an int too long for ``str`` is named by its size."""
    try:
        text = str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"a {value.bit_length()}-bit integer"
    return text if len(text) <= 40 else text[:37] + "..."


def mul_one_minus(c: list[int], a: int) -> None:
    """c *= 1 - t^a in place, truncated to len(c): c[i] -= c[i - a]."""
    c[a:] = map(sub, c[a:], c[:-a])


def div_one_minus(c: list[int], a: int) -> None:
    """c /= 1 - t^a as a power series in place, truncated to len(c):
    q[i] = c[i] + q[i - a], one prefix sum per residue class mod a."""
    for j in range(min(a, len(c))):
        c[j::a] = accumulate(c[j::a])


# Packed division reads a coefficient list c as the integer
# sum_i c[i] * X^i at X = 2^64, one signed 64-bit slot per coefficient.
# Results are certified only while every coefficient involved stays
# below _PACKED_BOUND = X / 4 in absolute value (see _packed_divmod).
_PACKED_BOUND = 1 << 62
_HALF_SLOT = (1 << 63).to_bytes(8, sys.byteorder)


def _slot_bias(n: int) -> int:
    """sum_{i<n} 2^63 X^i: flipping the top bit of a slot maps its two's
    complement digit c to c + 2^63, a digit in [0, X)."""
    return int.from_bytes(_HALF_SLOT * n, sys.byteorder)


def _pack(c: Sequence[int]) -> int:
    """sum_i c[i] X^i for |c[i]| < 2^63."""
    bias = _slot_bias(len(c))
    return (int.from_bytes(array("q", c), sys.byteorder) ^ bias) - bias


def _unpack(v: int, n: int) -> list[int] | None:
    """The digits c[0..n) in [-2^63, 2^63) with sum_i c[i] X^i == v, or
    None when v has no such n digits."""
    bias = _slot_bias(n)
    w = v + bias
    if w < 0 or w.bit_length() > 64 * n:
        return None
    return memoryview((w ^ bias).to_bytes(8 * n, sys.byteorder)).cast("q").tolist()


def _packed_divmod(num: Sequence[int], terms: Sequence[int], step: int
                   ) -> tuple[list[int], list[int]] | None:
    """Quotient and remainder coefficients of num by the divisor
    den = sum_i terms[i] t^(i * step), whose leading coefficient is +-1
    and whose degree d is below len(num), or None when the operands are
    too large for the result to be certified.

    Each residue class of num mod step is divided by the terms on its
    own, as the long division does.  For each class, q = round(num(X) /
    den(X)) and r = num(X) - q * den(X) come from one big-integer
    division and are read back as digits: q with len(num) - deg(den) of
    them and r with deg(den).  If then every coefficient of
    q*den + r - num is below X/2, which the bound checked here ensures,
    that polynomial vanishes at X and so is zero: num = q*den + r with
    deg r < deg den, and with a unit leading coefficient that is the
    long division's (q, r).
    """
    den_max = max(map(abs, terms))
    if den_max >= _PACKED_BOUND:
        return None
    dv = _pack(terms)
    d = (len(terms) - 1) * step
    quot, rem = [0] * (len(num) - d), [0] * d
    for j in range(step):
        part = num[j::step]
        if len(part) < len(terms):  # q = 0 and r = part
            rem[j::step] = part
            continue
        num_max = max(map(abs, part))
        if num_max >= _PACKED_BOUND:
            return None
        nv = _pack(part)
        # Rounds num(X) / den(X) to the nearest integer for either sign
        # of den(X); the remainder gives num(X) - q * den(X).
        qv, rv = divmod(2 * nv + dv, 2 * dv)
        q = _unpack(qv, len(part) - len(terms) + 1)
        r = _unpack((rv - dv) >> 1, len(terms) - 1)
        if q is None or r is None:
            return None
        if (min(len(q), len(terms)) * max(map(abs, q)) * den_max
                + max(map(abs, r), default=0) + num_max >= _PACKED_BOUND):
            return None
        quot[j::step], rem[j::step] = q, r
    return quot, rem


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
    Other modules read values only through the public methods; the one
    private name they use is ``_dense``, to wrap a coefficient list they
    expanded themselves (``fakedeg._expand_shape``,
    ``groups.degrees_series``).  Degree minus trailing degree may not
    exceed MAX_SPAN.

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

    # -- inspection --------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        """Exponent/coefficient pairs with nonzero coefficient, in
        increasing exponent order."""
        lo = self._lo
        return ((lo + i, c) for i, c in enumerate(self._c) if c)

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

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        if not self._c:
            return self
        out = object.__new__(LaurentPoly)
        out._lo, out._c = self._lo + k, self._c  # already trimmed
        return out

    def __divmod__(self, other) -> tuple[LaurentPoly, LaurentPoly]:
        """Long division ordered by descending exponent, over the integers.

        Returns ``(q, r)`` with ``self == q * other + r``.  Division stops
        as soon as the leading coefficient of ``other`` fails to divide the
        current leading coefficient, so the remainder is canonical and the
        quotient is always integral; ``r == 0`` iff ``other`` divides
        ``self`` in Z[t, t^-1].  A leading coefficient +-1 never stops
        it, so that division is the packed one, when its operands are
        within the bound that certifies it (``_packed_divmod``).
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
        if den_lead in (1, -1) and len(self._c) > den_deg:
            packed = _packed_divmod(self._c, den_terms, step)
            if packed is not None:
                return (LaurentPoly._dense(self._lo - other._lo, packed[0]),
                        LaurentPoly._dense(self._lo, packed[1]))
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

    # One term: its sign (optional only at the start of the text), then
    # c*t^e, t^e or c, where ``c*`` may be ``c`` and ``^e`` may be left
    # out.  The last alternative takes a stray character, one that starts
    # no term and is not whitespace, with the rest of the text.  The
    # groups are (sign, coefficient, t, exponent, constant, stray).  The
    # text is terms and whitespace exactly when no match fills ``stray``;
    # only the last match can, as it ends the text.  A term starts with
    # its sign, and no two optional parts share a whitespace run, so
    # ``findall`` takes time linear in the text.  It keeps no state per
    # term, as one match of the whole text with a repeated group would,
    # and a bad text adds one match of one character.
    # Digits are [0-9]: \d and int() also take every other Unicode digit.
    _TERM = re.compile(r"([+-]|^)\s*(?:(?:([0-9]+)\s*(?:\*\s*)?)?(t)"
                       r"(?:\^(-?[0-9]+))?|([0-9]+))|(\S)[\s\S]*")

    @classmethod
    def parse(cls, text: str) -> LaurentPoly:
        """Parse sparse ``c*t^e`` terms in either exponent order.

        Accepts ``"t^8 + 2*t^5"`` and ``"2*t^5 + 1*t^8"`` alike: the
        text must be terms and the whitespace between them.  Equal
        exponents add up.
        """
        s = text.strip()
        terms = cls._TERM.findall(s)
        if not terms or terms[-1][5]:
            raise ValueError(f"bad polynomial text {clip(s)!r}")
        exps: list[int] = []
        coeffs: list[int] = []
        # In text order, so int()'s digit-limit error names the first
        # over-long number.
        for sign, coeff, t, exp, const, _ in terms:
            coeffs.append(int(sign + (const or coeff or "1")))
            exps.append(int(exp) if exp else 1 if t else 0)
        if 0 in coeffs or len(set(exps)) < len(exps):
            # Zero and cancelling terms must not widen the span.
            out: dict[int, int] = {}
            for e, c in zip(exps, coeffs):
                out[e] = out.get(e, 0) + c
            return cls(out)
        lo, hi = min(exps), max(exps)
        _check_span(hi - lo)
        dense = [0] * (hi - lo + 1)
        for e, c in zip(exps, coeffs):
            dense[e - lo] = c
        return cls._dense(lo, dense)

    def render(self) -> str:
        """Canonical text: descending exponents, unit coefficients elided."""
        parts: list[str] = []
        top = self._lo + len(self._c) - 1
        for e, c in zip(range(top, self._lo - 1, -1), reversed(self._c)):
            if not c:
                continue
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
        return " ".join(parts) or "0"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly.parse({self.render()!r})"


def packed_value(f: LaurentPoly, width: int) -> int | None:
    """f(2^width) for f with nonnegative exponents and every coefficient
    in [0, 2^width), the int whose width-bit slots are f's coefficients;
    None for any other f.  ``width`` is a multiple of 8.

    >>> packed_value(LaurentPoly.parse("3*t^2 + 1"), 8) == 3 << 16 | 1
    True
    """
    if f._lo < 0:
        return None
    try:
        slots = b"".join(map(int.to_bytes, f._c, repeat(width // 8),
                             repeat("little")))
    except OverflowError:  # a negative coefficient or one too wide
        return None
    return int.from_bytes(slots, "little") << width * f._lo


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

    Per degree d > 1 ([1]_t = 1 is skipped): pad d - 1 zeros, divide by
    1 - t (running sums), then multiply by 1 - t^d; truncating to the
    padded length is exact.  Refuses a degree below 1 and a span above
    MAX_SPAN before allocating.

    >>> print(poincare_polynomial((2, 3)))
    t^3 + 2*t^2 + 2*t + 1
    """
    if any(d < 1 for d in degrees):
        raise ValueError(f"invariant degrees must be at least 1: {degrees}")
    _check_span(sum(d - 1 for d in degrees))
    c = [1]
    for d in [d for d in degrees if d > 1]:
        c += [0] * (d - 1)
        div_one_minus(c, 1)
        mul_one_minus(c, d)
    return LaurentPoly._dense(0, c)
