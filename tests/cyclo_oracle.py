"""Reference Fraction-coordinate kernel for differential tests of
cmscan.cyclo.

This is the cyclotomic arithmetic ``cmscan`` used before the integer
kernel, kept as it was so tests can compare every operation against it.
A CycloNumber is the residue of a rational polynomial in zeta modulo
the m-th cyclotomic polynomial, stored densely on the power basis
1, zeta, ..., zeta^(phi(m)-1) with Fraction coordinates.  Division goes
through the extended Euclidean algorithm in Q[t]; complex conjugation
and lifts along Q(zeta_m) -> Q(zeta_M) for m | M are Galois-style
monomial substitutions.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from cmscan.polycore import VerificationError, cyclotomic

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _psub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return out


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _pdivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Full rational long division on little-endian coefficient lists."""
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _trim(list(a))
    q = [_ZERO] * max(len(rem) - len(b) + 1, 1)
    lead = b[-1]
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        factor = rem[-1] / lead
        q[k] = factor
        for i, c in enumerate(b[:-1]):
            rem[i + k] -= factor * c
        rem.pop()
        _trim(rem)
    return _trim(q), rem


@functools.lru_cache(maxsize=None)
def _field_data(m: int) -> tuple[tuple[Fraction, ...], int, tuple[tuple[Fraction, ...], ...]]:
    """Dense Phi_m coefficients, degree, and reductions of zeta^j for
    j in [degree, 2*degree - 2] (the range reachable by products)."""
    if m < 1:
        raise ValueError("cyclotomic modulus must be positive")
    phi = cyclotomic(m)
    deg = phi.degree()
    dense = [_ZERO] * (deg + 1)
    for e, c in phi.items():
        dense[e] = Fraction(c)
    # zeta^deg = -(phi - t^deg), then recur upward.
    tails: list[tuple[Fraction, ...]] = []
    prev = [-dense[i] for i in range(deg)]
    tails.append(tuple(prev))
    for _ in range(deg, 2 * deg - 1):
        nxt = [_ZERO] + prev[:-1]
        top = prev[-1]
        if top:
            nxt = [nxt[i] + top * tails[0][i] for i in range(deg)]
        prev = nxt
        tails.append(tuple(prev))
    return tuple(dense), deg, tuple(tails)


def _reduce_power(m: int, e: int) -> tuple[Fraction, ...]:
    """Coordinates of zeta_m^e (any integer e)."""
    _, deg, tails = _field_data(m)
    e %= m
    if e < deg:
        coords = [_ZERO] * deg
        coords[e] = _ONE
        return tuple(coords)
    # e < m <= anything: fold down step by step via the tail table.
    coords = [_ZERO] * deg
    coords[deg - 1] = _ONE
    for _ in range(e - (deg - 1)):
        coords = _mul_by_zeta(m, coords)
    return tuple(coords)


def _mul_by_zeta(m: int, coords) -> tuple[Fraction, ...]:
    _, deg, tails = _field_data(m)
    shifted = [_ZERO] + list(coords[:-1])
    top = coords[-1]
    if top:
        t0 = tails[0]
        shifted = [shifted[i] + top * t0[i] for i in range(deg)]
    return tuple(shifted)


class CycloNumber:
    """An element of Q(zeta_m), exact and immutable."""

    __slots__ = ("m", "coords")

    def __init__(self, m: int, coords):
        _, deg, _ = _field_data(m)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != deg:
            raise ValueError(f"need {deg} coordinates for Q(zeta_{m})")
        self.m = m
        self.coords = coords

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> CycloNumber:
        _, deg, _ = _field_data(m)
        return cls(m, (_ZERO,) * deg)

    @classmethod
    def one(cls, m: int) -> CycloNumber:
        return cls.from_rational(m, 1)

    @classmethod
    def from_rational(cls, m: int, value) -> CycloNumber:
        _, deg, _ = _field_data(m)
        coords = [Fraction(value)] + [_ZERO] * (deg - 1)
        return cls(m, coords)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def zeta(cls, m: int, e: int = 1) -> CycloNumber:
        """zeta_m^e."""
        return cls(m, _reduce_power(m, e))

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
        return CycloNumber(self.m, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self) -> CycloNumber:
        return CycloNumber(self.m, tuple(-a for a in self.coords))

    def __sub__(self, other) -> CycloNumber:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNumber(self.m, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other) -> CycloNumber:
        return -(self - other)

    def __mul__(self, other) -> CycloNumber:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        _, deg, tails = _field_data(self.m)
        prod = [_ZERO] * (2 * deg - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    prod[i + j] += a * b
        coords = list(prod[:deg])
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                tail = tails[k - deg]
                for i in range(deg):
                    coords[i] += c * tail[i]
        return CycloNumber(self.m, coords)

    __rmul__ = __mul__

    def inverse(self) -> CycloNumber:
        """Multiplicative inverse via extended Euclid mod Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        dense, deg, _ = _field_data(self.m)
        # Invariant: r_i == s_i * self (mod Phi_m); Phi_m is irreducible
        # over Q so the last nonzero remainder is a nonzero constant.
        r0, r1 = _trim(list(dense)), _trim(list(self.coords))
        s0, s1 = [_ZERO], [_ONE]
        while r1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _trim(_psub(s0, _pmul(q, s1)))
        if len(r0) != 1:
            raise VerificationError("gcd with an irreducible must be constant")
        g = r0[0]
        inv = [c / g for c in s0]
        inv = (inv + [_ZERO] * deg)[:deg]
        result = CycloNumber(self.m, inv)
        if not (result * self).is_one():
            raise VerificationError("inverse computation failed")
        return result

    def __truediv__(self, other) -> CycloNumber:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(self.m, other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self.m == other.m and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.m, self.coords))

    # -- structure maps ----------------------------------------------

    def conj(self) -> CycloNumber:
        """Complex conjugation zeta -> zeta^-1."""
        out = CycloNumber.zero(self.m)
        for i, c in enumerate(self.coords):
            if c:
                out = out + CycloNumber.zeta(self.m, -i % self.m) * c
        return out

    def lift(self, big_m: int) -> CycloNumber:
        """Image under Q(zeta_m) -> Q(zeta_M), zeta_m = zeta_M^(M/m)."""
        if big_m % self.m != 0:
            raise ValueError(f"{self.m} does not divide {big_m}")
        step = big_m // self.m
        out = CycloNumber.zero(big_m)
        for i, c in enumerate(self.coords):
            if c:
                out = out + CycloNumber.zeta(big_m, i * step) * c
        return out

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def is_one(self) -> bool:
        return self.coords[0] == 1 and all(not c for c in self.coords[1:])

    def is_rational(self) -> bool:
        return all(not c for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

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
