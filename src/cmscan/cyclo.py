"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A CycloNumber is the residue of a rational polynomial in zeta modulo
the m-th cyclotomic polynomial, stored on the power basis
1, zeta, ..., zeta^(phi(m)-1) as a tuple of int numerators over one
positive int denominator, in lowest terms: the gcd of the numerators
and the denominator is 1, so each value has exactly one representation
and equality and hashing compare (m, num, den).

Phi_m is monic over Z, so every zeta^e has integer coordinates, and
one fold adds sum_i c_i * zeta^(e + i * step) onto a coordinate list
from the cached table of them.  Sums cross-multiply the numerators (not
at all when the denominators agree), and a difference adds the
negation.  A product is an integer convolution whose top coefficients
are folded down; complex conjugation and lifts along
Q(zeta_m) -> Q(zeta_M) for m | M fold the numerators with step -1 and
M/m; ``from_powers`` folds an element of the group ring Z[C_m].  Each
result is divided once by its content gcd.  An inverse is the
product of the other Galois conjugates over the norm, a rational.  The
Fraction-coordinate kernel this replaces is the test oracle in
tests/cyclo_oracle.py.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .polycore import VerificationError, clip, cyclotomic

# Distinct moduli whose integer tables are kept.
FIELD_CACHE_SIZE = 64
# Largest power table m * phi(m), in ints, one field may build.
MAX_FIELD_TABLE = 1 << 22


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _field_data(m: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The degree phi(m) and the integer coordinates of zeta^e for e in
    [0, m).  A table of more than MAX_FIELD_TABLE ints is refused with
    ValueError before it is built, and an m above that limit
    (m * phi(m) >= m) before m is factored."""
    if m < 1:
        raise ValueError("cyclotomic modulus must be positive")
    if m > MAX_FIELD_TABLE:
        raise ValueError(f"the powers of zeta_{clip(m)} need at least "
                         f"{clip(m)} coordinates; the limit is "
                         f"{MAX_FIELD_TABLE}")
    phi = cyclotomic(m)
    deg = phi.degree()
    if m * deg > MAX_FIELD_TABLE:
        raise ValueError(f"the powers of zeta_{m} need {m * deg} coordinates; "
                         f"the limit is {MAX_FIELD_TABLE}")
    dense = [0] * (deg + 1)
    for e, c in phi.items():
        dense[e] = c
    # zeta^(e+1) = zeta * zeta^e, with zeta^deg = -(Phi_m - t^deg).
    powers = []
    coords = [1] + [0] * (deg - 1)
    for _ in range(m):
        powers.append(tuple(coords))
        top = coords[-1]
        coords = [0] + coords[:-1]
        if top:
            coords = [c - top * p for c, p in zip(coords, dense)]
    return deg, tuple(powers)


def _fold(num: list[int], m: int, coeffs, first: int, step: int = 1) -> list[int]:
    """num + sum_i coeffs[i] * zeta_m^(first + i * step), on the power
    basis: each nonzero coefficient adds a multiple of one row of the
    table of powers."""
    powers = _field_data(m)[1]
    e = first
    for c in coeffs:
        if c:
            num = [n + c * z for n, z in zip(num, powers[e % m])]
        e += step
    return num


class CycloNumber:
    """An element of Q(zeta_m), exact and immutable."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, coords):
        deg = _field_data(m)[0]
        coords = list(coords)
        if not all(isinstance(c, (int, Fraction)) for c in coords):
            raise TypeError("coordinates must be ints or Fractions")
        if len(coords) != deg:
            raise ValueError(f"need {deg} coordinates for Q(zeta_{m})")
        # Each coordinate is in lowest terms, so for each prime p | lcm the
        # coordinate whose denominator holds p's full power scales to a
        # numerator prime to p: the result is already in lowest terms.
        den = math.lcm(*(c.denominator for c in coords))
        self.m = m
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @classmethod
    def _raw(cls, m: int, num: tuple[int, ...], den: int) -> CycloNumber:
        """num / den, already in lowest terms."""
        out = object.__new__(cls)
        out.m, out.num, out.den = m, num, den
        return out

    @classmethod
    def _reduced(cls, m: int, num, den: int) -> CycloNumber:
        """num / den for den > 0, divided through by the content gcd."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                return cls._raw(m, tuple(c // g for c in num), den // g)
        return cls._raw(m, tuple(num), den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> CycloNumber:
        deg = _field_data(m)[0]
        return cls._raw(m, (0,) * deg, 1)

    @classmethod
    def one(cls, m: int) -> CycloNumber:
        return cls.from_rational(m, 1)

    @classmethod
    def from_rational(cls, m: int, value) -> CycloNumber:
        deg = _field_data(m)[0]
        if not isinstance(value, (int, Fraction)):
            raise TypeError("a rational must be an int or a Fraction")
        return cls._raw(m, (value.numerator,) + (0,) * (deg - 1),
                        value.denominator)

    @classmethod
    def zeta(cls, m: int, e: int = 1) -> CycloNumber:
        """zeta_m^e."""
        return cls._raw(m, _field_data(m)[1][e % m], 1)

    @classmethod
    def from_powers(cls, m: int, counts) -> CycloNumber:
        """sum_e counts[e] * zeta_m^e for int counts, any number of them:
        an element of the group ring Z[C_m] reduced into Q(zeta_m)."""
        counts = list(counts)
        if not all(isinstance(c, int) for c in counts):
            raise TypeError("counts must be ints")
        return cls._raw(m, tuple(_fold([0] * _field_data(m)[0], m, counts, 0)), 1)

    # -- ring structure ----------------------------------------------

    def _coerce(self, other) -> CycloNumber | None:
        if isinstance(other, CycloNumber):
            if other.m != self.m:
                raise ValueError(f"mixed moduli {self.m} and {other.m}; lift first")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber.from_rational(self.m, other)
        return None

    def __add__(self, other) -> CycloNumber:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return CycloNumber._reduced(
                self.m, [a + b for a, b in zip(self.num, other.num)], da)
        return CycloNumber._reduced(
            self.m, [a * db + b * da for a, b in zip(self.num, other.num)], da * db)

    __radd__ = __add__

    def __neg__(self) -> CycloNumber:
        return CycloNumber._raw(self.m, tuple(-a for a in self.num), self.den)

    def __sub__(self, other) -> CycloNumber:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> CycloNumber:
        return -(self - other)

    def __mul__(self, other) -> CycloNumber:
        if isinstance(other, (int, Fraction)):
            return CycloNumber._reduced(
                self.m, [a * other.numerator for a in self.num],
                self.den * other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.num, other.num
        deg = len(a)
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        num = _fold(prod[:deg], self.m, prod[deg:], deg)
        return CycloNumber._reduced(self.m, num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> CycloNumber:
        """Multiplicative inverse by the field norm.

        N(x) = prod over k in (Z/m)* of sigma_k(x), sigma_k: zeta -> zeta^k,
        is a nonzero rational for x != 0, so 1/x is the product of the
        conjugates sigma_k(x), k != 1, divided by N(x).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        m = self.m
        others = CycloNumber.one(m)
        for k in range(2, m):
            if math.gcd(k, m) == 1:
                others = others * self._substitute(m, k)
        norm = self * others
        if not norm.is_rational() or norm.is_zero():
            raise VerificationError("inverse computation failed")
        result = others * Fraction(norm.den, norm.num[0])
        if not (result * self).is_one():
            raise VerificationError("inverse computation failed")
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNumber):
            return (self.m == other.m and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator
                    and self.num[0] == other.numerator and self.is_rational())
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self.num, self.den))

    # -- structure maps ----------------------------------------------

    def _substitute(self, big_m: int, step: int) -> CycloNumber:
        """Image in Q(zeta_M) under zeta_m^i -> zeta_M^(i * step)."""
        out = _fold([0] * _field_data(big_m)[0], big_m, self.num, 0, step)
        return CycloNumber._reduced(big_m, out, self.den)

    def conj(self) -> CycloNumber:
        """Complex conjugation zeta -> zeta^-1."""
        return self._substitute(self.m, -1)

    def lift(self, big_m: int) -> CycloNumber:
        """Image under Q(zeta_m) -> Q(zeta_M), zeta_m = zeta_M^(M/m)."""
        if big_m % self.m != 0:
            raise ValueError(f"{self.m} does not divide {big_m}")
        return self._substitute(big_m, big_m // self.m)

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and self.is_rational()

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.m}" if i == 1 else f"z{self.m}^{i}"
                terms.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(terms) if terms else "0"
