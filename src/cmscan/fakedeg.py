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
from collections import namedtuple
from itertools import chain, compress

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
    return pt.shift_orbits(g.m, g.p, g.n)


def irr_labels(g: GroupSpec) -> tuple[IrrLabel, ...]:
    """All irreducible labels, one per (orbit, epsilon)."""
    return tuple(IrrLabel(orbit, eps) for orbit in group_orbits(g)
                 for eps in range(orbit.stab_order))


def label_rows(g: GroupSpec) -> tuple[tuple[IrrLabel, int, LaurentPoly], ...]:
    """(label, dim, fake degree) for every irreducible label, in label
    order.  dim and f are evaluated once per shift orbit, for all its
    labels, with one memo, so orbits with the same shape key and b share
    one f."""
    fakes: dict[tuple, dict[int, LaurentPoly]] = {}
    rows = []
    for orbit in group_orbits(g):
        f, dim = fake_degree(g, orbit, fakes), irr_dimension(g, orbit)
        rows += [(IrrLabel(orbit, eps), dim, f)
                 for eps in range(orbit.stab_order)]
    return tuple(rows)


def _hooks(mp: pt.Multipartition) -> tuple[int, ...]:
    """Hook lengths of all nonempty components, ascending."""
    return tuple(sorted(chain.from_iterable(
        map(pt._hook_lengths, filter(None, mp)))))


def irr_dimension(g: GroupSpec, orbit: pt.MultipartitionOrbit) -> int:
    """Dimension of each label of the orbit:
    n! / (stabiliser order * prod of all hook lengths)."""
    hook_product = math.prod(map(math.prod, map(pt._hook_lengths,
                                                filter(None, orbit.canonical))))
    q, r = divmod(math.factorial(g.n), orbit.stab_order * hook_product)
    if r:
        raise VerificationError(
            f"stabiliser order times hook product of {orbit.canonical} "
            f"does not divide {g.n}!")
    return q


def _index_weights(g: GroupSpec, orbit: pt.MultipartitionOrbit) -> list[int]:
    """r(mu) = sum_i i * |mu^i| for each member mu of the orbit, the
    canonical member first, then its shifts by d, 2d, ...

    Shifting by k adds k to the index of every box and takes m off each
    box that wraps round, those of the last k components.  So the
    weights come from the indices and sizes of the canonical member's
    nonempty components, and no other member is built.
    """
    m, p, n = g
    mp = orbit.canonical
    boxes = [(i, sum(mp[i])) for i in compress(range(m), mp)]
    first = sum(i * size for i, size in boxes)
    d = m // p
    return [first] + [first + k * n - m * sum(size for i, size in boxes
                                               if i >= m - k)
                      for k in range(d, p // orbit.stab_order * d, d)]


def fake_degree(g: GroupSpec, orbit: pt.MultipartitionOrbit,
                memo: dict[tuple, dict[int, LaurentPoly]] | None = None
                ) -> LaurentPoly:
    """Fake degree polynomial shared by every label of the orbit.

    The shape t^-b * f depends only on the group and on the key (hook
    multiset, coefficients of R'); ``memo``, when given, maps the keys
    of this same group to their fake degrees by b, the shape at b = 0,
    so each shape is expanded once and each (key, b) has one f.
    """
    weights = _index_weights(g, orbit)
    k = min(weights)
    reduced_weight = [0] * (max(weights) - k + 1)
    for w in weights:
        reduced_weight[w - k] += 1
    b = k + g.m * sum(map(pt._weighted_size, filter(None, orbit.canonical)))
    key = (_hooks(orbit.canonical), tuple(reduced_weight))
    fakes = None if memo is None else memo.get(key)
    if fakes is None:
        fakes = {0: _expand_shape(g, *key)}
        if memo is not None:
            memo[key] = fakes
    f = fakes.get(b)
    if f is None:
        f = fakes[b] = fakes[0].shift(b)
    return f


def _expand_shape(g: GroupSpec, hooks: tuple[int, ...],
                  reduced_weight: tuple[int, ...]) -> LaurentPoly:
    """R' * prod_i (1 - t^(d_i)) / prod_h (1 - t^(mh)), d_i the degrees."""
    num = list(g.degrees)
    den = []
    for h in hooks:  # equal degrees cancel
        if g.m * h in num:
            num.remove(g.m * h)
        else:
            den.append(g.m * h)
    c = list(reduced_weight)
    for a in num:
        c += [0] * a
        mul_one_minus(c, a)
    for a in den:
        div_one_minus(c, a)
        if any(c[max(len(c) - a, 0):]):
            raise VerificationError(
                f"fake degree with hooks {hooks} is not a polynomial: "
                f"dividing by 1 - t^{a} leaves a remainder")
        del c[len(c) - a:]
    if min(c, default=0) < 0:
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
