"""The group spec G(m,p,n), shared by every subcommand that takes one.

It lives apart from the fake degrees, so that the element-wise commands
(``verify-omega``, ``molien``) parse a group without loading them.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple

from .polycore import clip

# [0-9], not \d: \d and int() also take every other Unicode digit.
_GROUP_RE = re.compile(r"^G\(\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\)$")


class GroupSpec(namedtuple("GroupSpec", "m p n")):
    """The group G(m,p,n) of n x n monomial matrices with m-th root of
    unity entries whose exponent sum is divisible by p; requires p | m."""

    __slots__ = ()

    def __new__(cls, m: int, p: int, n: int) -> GroupSpec:
        if m < 1 or p < 1 or n < 1:
            raise ValueError("G(m,p,n) needs positive m, p, n")
        if m % p != 0:
            raise ValueError("p must divide m in "
                             f"G({clip(m)},{clip(p)},{clip(n)})")
        return super().__new__(cls, m, p, n)

    @property
    def d(self) -> int:
        return self.m // self.p

    @property
    def order(self) -> int:
        return self.m**self.n * math.factorial(self.n) // self.p

    @property
    def degrees(self) -> tuple[int, ...]:
        """Invariant degrees: m, 2m, ..., (n-1)m, dn."""
        return tuple(self.m * i for i in range(1, self.n)) + (self.d * self.n,)

    def render(self) -> str:
        return f"G({self.m},{self.p},{self.n})"

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, text: str) -> GroupSpec:
        m = _GROUP_RE.match(text.strip())
        if not m:
            raise ValueError(f"bad group {clip(text)!r}; expected G(m,p,n)")
        return cls(*(int(g) for g in m.groups()))


def natural_is_reducible(g: GroupSpec) -> bool:
    """Whether the natural action of G(m,p,n) on C^n is reducible.

    That happens exactly for G(1,1,n) with n >= 2, the symmetric group
    fixing the all-ones line, and for G(2,2,2) = {+-1, +-swap}, which is
    abelian and fixes the lines of (1, 1) and (1, -1).
    """
    return (g.m == 1 and g.n >= 2) or (g.m, g.p, g.n) == (2, 2, 2)
