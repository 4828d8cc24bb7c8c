"""Fake degree polynomials for the groups G(m,p,n).

Irreducible representations of G(m,p,n) are indexed by shift orbits of
m-multipartitions of n together with an abstract label epsilon in
{0, ..., stab_order - 1}; all labels of one orbit share the same fake
degree

    f(t) = t^b * R'(t) * (1 - t^(dn)) * prod_{i<n} (1 - t^(mi))
                       / prod_h (1 - t^(mh)),

where d = m/p, R' is the orbit weight polynomial R, the sum of
t^index_weight over the orbit's members, divided by its lowest monomial
t^k and kept as a list of member counts, h runs over the hook lengths
of the nonempty components and b = k + m * sum n(lambda).  Equal
degrees cancel first; the rest is expanded one (1 - t^a) factor at a
time, and a division that leaves a remainder is an internal invariant
violation.
"""
from __future__ import annotations

import math
from collections import Counter, namedtuple

from . import partitions as pt
from .polycore import (
    LaurentPoly, VerificationError, div_one_minus, mul_one_minus,
    poincare_polynomial,
)
from .spec import GroupSpec, natural_is_reducible  # re-exported


class IrrLabel(namedtuple("IrrLabel", "orbit eps")):
    """One irreducible label: a shift orbit plus an epsilon index."""

    __slots__ = ()

    def render(self) -> str:
        base = pt.render_multipartition(self.orbit.canonical)
        if self.orbit.stab_order == 1:
            return base
        return f"{base} eps={self.eps}"


def group_orbits(g: GroupSpec) -> tuple[pt.MultipartitionOrbit, ...]:
    """Shift orbits of m-multipartitions of n, in enumeration order."""
    mps = pt.multipartitions(g.m, g.n)
    # Enumeration order is multipartition_key order, so positions sort
    # orbit members without re-keying them.
    unseen = {mp: i for i, mp in enumerate(mps)}
    orbits: list[pt.MultipartitionOrbit] = []
    for mp in mps:
        if mp in unseen:
            orbit = pt._orbit(mp, g.p, g.d, unseen.__getitem__)
            for member in orbit.members:
                del unseen[member]
            orbits.append(orbit)
    return tuple(orbits)


def irr_labels(g: GroupSpec) -> tuple[IrrLabel, ...]:
    """All irreducible labels, one per (orbit, epsilon)."""
    out: list[IrrLabel] = []
    for orbit in group_orbits(g):
        for eps in range(orbit.stab_order):
            out.append(IrrLabel(orbit, eps))
    return tuple(out)


def label_rows(g: GroupSpec) -> tuple[tuple[IrrLabel, int, LaurentPoly], ...]:
    """(label, dim, fake degree) for every irreducible label, in label
    order.  dim and f are evaluated once per shift orbit, with one shape
    memo; equal fake degrees are one object, held once by the rows."""
    shapes: dict[tuple, LaurentPoly] = {}
    fakes: dict[LaurentPoly, LaurentPoly] = {}  # each distinct f, by value
    rows, orbit = [], None
    for label in irr_labels(g):
        if label.orbit is not orbit:
            orbit = label.orbit
            f = fake_degree(g, orbit, shapes)
            dim, f = irr_dimension(g, orbit), fakes.setdefault(f, f)
        rows.append((label, dim, f))
    return tuple(rows)


def _hooks(mp: pt.Multipartition) -> tuple[int, ...]:
    """Hook lengths of all nonempty components, ascending."""
    return tuple(sorted(h for lam in mp if lam for h in pt._hook_lengths(lam)))


def irr_dimension(g: GroupSpec, orbit: pt.MultipartitionOrbit) -> int:
    """Dimension of each label of the orbit:
    n! / (stabiliser order * prod of all hook lengths)."""
    q, r = divmod(math.factorial(g.n),
                  orbit.stab_order * math.prod(_hooks(orbit.canonical)))
    if r:
        raise VerificationError(
            f"stabiliser order times hook product of {orbit.canonical} "
            f"does not divide {g.n}!")
    return q


def fake_degree(g: GroupSpec, orbit: pt.MultipartitionOrbit,
                memo: dict[tuple, LaurentPoly] | None = None) -> LaurentPoly:
    """Fake degree polynomial shared by every label of the orbit.

    The shape t^-b * f depends only on the group and on the key (hook
    multiset, coefficients of R'); ``memo``, when given, maps the keys
    of this same group to their shapes, so each shape is expanded once.
    """
    weights = [pt.index_weight(member) for member in orbit.members]
    k = min(weights)
    reduced_weight = [0] * (max(weights) - k + 1)
    for w in weights:
        reduced_weight[w - k] += 1
    b = k + g.m * sum(pt._weighted_size(lam) for lam in orbit.canonical if lam)
    key = (_hooks(orbit.canonical), tuple(reduced_weight))
    shape = None if memo is None else memo.get(key)
    if shape is None:
        shape = _expand_shape(g, *key)
        if memo is not None:
            memo[key] = shape
    return shape.shift(b)


def _expand_shape(g: GroupSpec, hooks: tuple[int, ...],
                  reduced_weight: tuple[int, ...]) -> LaurentPoly:
    """R' * (1 - t^(dn)) * prod_{i<n} (1 - t^(mi)) / prod_h (1 - t^(mh))."""
    num = Counter([g.d * g.n] + [g.m * i for i in range(1, g.n)])
    den = Counter(g.m * h for h in hooks)
    common = num & den
    num -= common
    den -= common
    c = list(reduced_weight)
    for a in num.elements():
        c += [0] * a
        mul_one_minus(c, a)
    for a in den.elements():
        div_one_minus(c, a)
        if any(c[max(len(c) - a, 0):]):
            raise VerificationError(
                f"fake degree with hooks {hooks} is not a polynomial: "
                f"dividing by 1 - t^{a} leaves a remainder")
        del c[len(c) - a:]
    if any(x < 0 for x in c):
        raise VerificationError("fake degree has a negative coefficient")
    return LaurentPoly._dense(0, c)


def coinvariant_poincare(g: GroupSpec) -> LaurentPoly:
    """Poincare polynomial of the coinvariant ring:
    prod (1 - t^degree) / (1 - t)^n."""
    return poincare_polynomial(g.degrees)


def reducibility_note(g: GroupSpec) -> str | None:
    """Known reducible or isomorphic-duplicate realizations, for report
    headers; verdicts are still computed."""
    if not natural_is_reducible(g):
        return None
    if g.m == 1:
        return f"{g}: natural n-dimensional realization is trivial + standard (reducible)"
    return "G(2,2,2): reducible (isomorphic to G(1,1,2) x G(1,1,2))"


def isomorphism_note(g: GroupSpec) -> str | None:
    if (g.m, g.p, g.n) == (2, 2, 3):
        return "G(2,2,3) is isomorphic to G(1,1,4) (the symmetric group S4)"
    if (g.m, g.p, g.n) == (4, 4, 2):
        return "G(4,4,2) is isomorphic to G(2,1,2) (the hyperoctahedral group B2)"
    if (g.m, g.p, g.n) == (3, 3, 2):
        return "G(3,3,2) is isomorphic to G(1,1,3) (the symmetric group S3)"
    if g.n == 1 and g.p > 1:
        return f"{g} coincides with G({g.d},1,1) as a matrix group"
    return None
