"""Reference enumerator for differential tests of cmscan.partitions.

``multipartitions`` is the enumeration ``partitions.multipartitions``
used before it recursed on boxes: it places component 0 and recurses
on the other m - 1 components, one level per component, caching every
intermediate (m, n) enumeration.  The code is kept as it was, so tests
can compare the order and the members of the two.

``standard_tableau_count``, ``irr_dimension`` and ``hook_quotient`` are
the per-component formulas ``fakedeg`` used before its closed form: the
dimension as a multinomial times one hook-length count per component,
and the hook quotient as an unexpanded ``polyoracle.GradedProduct``.
``orbit_weight_poly`` is the orbit weight polynomial as a LaurentPoly,
which ``fakedeg.fake_degree`` now keeps as a list of member counts.

``shift``, ``index_weight`` and ``shift_orbits`` are the orbit builder
``fakedeg.group_orbits`` used before it enumerated rank tuples: every
multipartition in a dict, each orbit's members built by shifting its
first-seen member and deleted from the dict, and the index weights
summed member by member.

``standard_tableaux`` and ``major_index_poly`` enumerate standard Young
tableaux and their major indices: the G(1,1,n) fake degrees, by a route
independent of the hook formulas.
"""
from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple

from cmscan import partitions as pt
from cmscan.partitions import (
    MAX_MULTIPARTITIONS, Multipartition, Partition, _hook_lengths,
    _multipartition_count, _weighted_size, check_partition, partitions,
)
from cmscan.polycore import LaurentPoly, VerificationError
from polyoracle import GradedProduct


def shift(mp: Multipartition, d: int) -> Multipartition:
    """Cyclic shift moving component i to component (i + d) mod m.

    >>> shift(((1,), (1,), ()), 1)
    ((), (1,), (1,))
    """
    m = len(mp)
    return tuple(mp[(i - d) % m] for i in range(m))


def index_weight(mp: Multipartition) -> int:
    """r(mp) = sum_i i * |mp^i| (components indexed from 0).

    >>> index_weight(((1,), (1,), ()))
    1
    """
    return sum(i * sum(lam) for i, lam in enumerate(mp) if lam)


# An orbit as the dict-and-shift builder made it: its members in
# enumeration order, the first of them, and the stabiliser order.
ShiftOrbit = namedtuple("ShiftOrbit", "members canonical stab_order")


def shift_orbits(m: int, p: int, n: int) -> tuple[ShiftOrbit, ...]:
    """Shift orbits of the m-multipartitions of n under shift by m/p, in
    enumeration order of their first members."""
    d = m // p
    mps = pt.multipartitions(m, n)
    unseen = {mp: i for i, mp in enumerate(mps)}
    orbits: list[ShiftOrbit] = []
    for mp in mps:
        if mp not in unseen:
            continue
        seen = [mp]
        current = shift(mp, d)
        while current != mp and len(seen) < p:
            seen.append(current)
            current = shift(current, d)
        stab, rem = divmod(p, len(seen))
        if rem or current != mp:
            raise VerificationError("orbit size must divide p")
        members = tuple(sorted(seen, key=unseen.__getitem__))
        for member in members:
            del unseen[member]
        orbits.append(ShiftOrbit(members, members[0], stab))
    return tuple(orbits)


@functools.lru_cache(maxsize=None)
def multipartitions(m: int, n: int) -> tuple[Multipartition, ...]:
    """All m-multipartitions of n, deterministically ordered.

    The order sorts component 0 first (larger, lexicographically earlier
    partitions first), then recurses on the remaining components, which
    is ascending componentwise ``pt._partition_key`` order.

    Refuses, before enumerating, more than MAX_MULTIPARTITIONS.
    """
    if _multipartition_count(m, n) > MAX_MULTIPARTITIONS:
        raise ValueError(
            f"more than {MAX_MULTIPARTITIONS} {m}-multipartitions of {n}: "
            "too many labels to enumerate")
    if m == 1:
        return tuple((lam,) for lam in partitions(n))
    out: list[Multipartition] = []
    for first_size in range(n, -1, -1):
        for lam in partitions(first_size):
            for rest in multipartitions(m - 1, n - first_size):
                out.append((lam,) + rest)
    return tuple(out)


def standard_tableau_count(lam: Partition) -> int:
    """Number of standard Young tableaux, by the hook length formula;
    ``lam`` must be a valid partition (unchecked)."""
    n = sum(lam)
    denom = 1
    for h in _hook_lengths(lam):
        denom *= h
    count, rem = divmod(math.factorial(n), denom)
    if rem:
        raise VerificationError(f"hook product of {lam} does not divide {n}!")
    return count


def irr_dimension(n: int, orbit) -> int:
    """Dimension: multinomial(n; component sizes) * prod SYT counts,
    divided by the stabiliser order."""
    dim = math.factorial(n)
    for lam in orbit.canonical:
        dim //= math.factorial(sum(lam))
        dim *= standard_tableau_count(lam)
    q, r = divmod(dim, orbit.stab_order)
    if r:
        raise VerificationError("stabiliser order must divide the ambient dimension")
    return q


def hook_quotient(mp: Multipartition) -> GradedProduct:
    """(t)_n * t^(sum weighted_size) / prod hook polynomials, unexpanded.

    n is the total size of the multipartition; the monomial shift keeps
    the trailing-degree bookkeeping exact.  ``mp`` must be valid, as
    every orbit member is (unchecked).
    """
    factors = Counter(range(1, sum(map(sum, mp)) + 1))
    factors.subtract(h for lam in mp for h in _hook_lengths(lam))
    return GradedProduct(shift=sum(_weighted_size(lam) for lam in mp),
                         factors=factors)


def orbit_weight_poly(orbit) -> LaurentPoly:
    """R(t) = sum over orbit members of t^index_weight."""
    return LaurentPoly(Counter(map(index_weight, orbit.members)))


def standard_tableaux(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """All standard Young tableaux of shape lam, each encoded as the
    tuple row_of(1), ..., row_of(n)."""
    lam = check_partition(lam)
    n = sum(lam)
    out: list[tuple[int, ...]] = []

    def grow(fill_counts: list[int], rows: list[int]):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for i, row_len in enumerate(lam):
            if fill_counts[i] < row_len and (i == 0 or fill_counts[i - 1] > fill_counts[i]):
                fill_counts[i] += 1
                rows.append(i)
                grow(fill_counts, rows)
                rows.pop()
                fill_counts[i] -= 1

    grow([0] * len(lam), [])
    return tuple(out)


def major_index_poly(lam: Partition) -> LaurentPoly:
    """sum over SYT of t^maj, where maj adds i whenever i + 1 sits in a
    strictly lower row; independent oracle for G(1,1,n) fake degrees."""
    n = sum(lam)
    if n > 8:
        raise ValueError("tableau enumeration is limited to n <= 8")
    return LaurentPoly(Counter(
        sum(i + 1 for i in range(n - 1) if rows[i + 1] > rows[i])
        for rows in standard_tableaux(lam)))
