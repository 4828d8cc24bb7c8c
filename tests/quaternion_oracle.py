"""Reference Fraction-coordinate quaternions for differential tests of
cmscan.g4.

``FracQuaternion`` is the quaternion ``cmscan.g4`` used before it stored
Hurwitz integers: four Fraction coordinates, the Hamilton product and
the rendering, kept as they were so tests can compare every product and
every rendered element against them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FracQuaternion:
    """a + b i + c j + d k with rational components."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @classmethod
    def of(cls, a, b=0, c=0, d=0) -> FracQuaternion:
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @classmethod
    def from_hurwitz(cls, q) -> FracQuaternion:
        """The quaternion whose doubled coordinates are q.a .. q.d."""
        return cls(Fraction(q.a, 2), Fraction(q.b, 2), Fraction(q.c, 2),
                   Fraction(q.d, 2))

    def __mul__(self, other: FracQuaternion) -> FracQuaternion:
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return FracQuaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def render(self) -> str:
        if self.a.denominator == 1:
            parts = []
            for coef, sym in zip((self.a, self.b, self.c, self.d),
                                 ("1", "i", "j", "k")):
                if coef == 0:
                    continue
                sign = "-" if coef < 0 else ("+" if parts else "")
                mag = abs(coef)
                body = sym if (mag == 1 and sym != "1") else str(mag)
                parts.append(f"{sign}{body}")
            return "".join(parts) or "0"
        inner = "".join(
            ("-" if coef < 0 else ("+" if idx else "")) + sym
            for idx, (coef, sym) in enumerate(
                zip((self.a, self.b, self.c, self.d), ("1", "i", "j", "k"))))
        return f"({inner})/2"
