"""Partitions, m-multipartitions and their shift orbits.

Partitions are plain tuples of weakly decreasing positive ints; an
m-multipartition is a tuple of m partitions.  The cyclic shift action
moves component i to component (i + d) mod m; its orbits index the
irreducible representations of G(m,p,n) together with an abstract
epsilon label per stabiliser element.

Text format: components joined by "|", parts by ",", empty component
"-", e.g. ``"2,2|-|1"`` for ((2,2), (), (1)).

Partitions are validated where they enter from outside (the public
``check_*``, ``orbit_of``, ``parse_multipartition`` and the canonical
member of a ``MultipartitionOrbit`` built by hand); the enumerators
only produce valid ones, so the scan path, orbits included, works on
them through unchecked private helpers.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .polycore import VerificationError

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]

# The most multipartitions ``multipartitions`` enumerates: G(12,6,6)'s
# 42,614 five times over, while G(20,1,8)'s 9,869,990 exhausts memory.
MAX_MULTIPARTITIONS = 200_000

# The most component slots (count * m) the enumerated multipartitions
# hold.  The labels and their shift orbits take about 10 bytes a slot:
# G(300,1,2)'s 45,450 labels hold 13,635,000 slots and peak at 132 MB
# RSS, and scanning them runs out of a 512 MB address space.  Below
# MAX_MULTIPARTITIONS this admits G(16,p,6) (2,489,344 slots) and
# G(200,1,2) (4,060,000) and refuses G(300,1,2).
MAX_COMPONENT_SLOTS = 10_000_000

# Distinct (n, max_part) arguments whose partitions are kept, and
# distinct partitions whose hook lengths are kept.
PARTITIONS_CACHE_SIZE = 4096


def check_partition(parts: tuple[int, ...]) -> Partition:
    """Validate weakly decreasing positive parts."""
    parts = tuple(parts)
    for i, p in enumerate(parts):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"parts must be positive integers: {parts}")
        if i and parts[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


@functools.lru_cache(maxsize=PARTITIONS_CACHE_SIZE)
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order.

    >>> partitions(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out: list[Partition] = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@functools.lru_cache(maxsize=PARTITIONS_CACHE_SIZE)
def _hook_lengths(lam: Partition) -> tuple[int, ...]:
    """Hook length multiset of a valid partition, as a descending tuple.

    >>> _hook_lengths((2, 2))
    (3, 2, 2, 1)
    """
    conj = conjugate(lam)
    hooks = []
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = conj[j] - i - 1
            hooks.append(arm + leg + 1)
    return tuple(sorted(hooks, reverse=True))


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for row in lam if row > j) for j in range(lam[0]))


def _weighted_size(lam: Partition) -> int:
    """n(lam) = sum_i (i - 1) * lam_i of a valid partition.

    >>> _weighted_size((2, 2, 1))
    4
    """
    return sum(i * part for i, part in enumerate(lam))


# -- multipartitions ----------------------------------------------------

def check_multipartition(mp: Multipartition) -> Multipartition:
    return tuple(check_partition(lam) for lam in mp)


def _partition_key(lam: Partition) -> tuple:
    # Larger components first, then descending-lex on parts.
    return (-sum(lam), tuple(-p for p in lam))


def multipartition_key(mp: Multipartition) -> tuple:
    return tuple(_partition_key(lam) for lam in mp)


def _multipartition_count(m: int, n: int) -> int:
    """Number of m-multipartitions of n, without enumerating them, or
    the first count above MAX_MULTIPARTITIONS on the way to n.

    It is the coefficient a_n of x^n in prod_k (1 - x^k)^(-m), and
    i * a_i = m * sum_{j=1..i} sigma(j) * a_(i-j), where sigma(j) is the
    sum of the divisors of j.  The a_i never decrease, so the recurrence
    stops at the first a_i above the limit; the work then stays small
    however large m and n are.

    >>> _multipartition_count(2, 2)
    5
    """
    if m < 1:
        raise ValueError("need at least one component")
    if n < 0:
        raise ValueError("total size must be nonnegative")
    a = [1]
    sigma = [0]
    for i in range(1, n + 1):
        sigma.append(sum(k for k in range(1, i + 1) if i % k == 0))
        a.append(m * sum(sigma[j] * a[i - j] for j in range(1, i + 1)) // i)
        if a[i] > MAX_MULTIPARTITIONS:
            break
    return a[-1]


def multipartitions(m: int, n: int) -> tuple[Multipartition, ...]:
    """All m-multipartitions of n, deterministically ordered.

    The order sorts component 0 first (larger, lexicographically earlier
    partitions first), then the remaining components, which is
    ascending ``multipartition_key`` order:

    >>> multipartitions(2, 2)[0]
    ((2,), ())

    Refuses, before enumerating, more than MAX_MULTIPARTITIONS of them
    or more than MAX_COMPONENT_SLOTS components in all.
    """
    count = _multipartition_count(m, n)
    if count > MAX_MULTIPARTITIONS:
        raise ValueError(
            f"more than {MAX_MULTIPARTITIONS} {m}-multipartitions of {n}: "
            "too many labels to enumerate")
    if count * m > MAX_COMPONENT_SLOTS:
        raise ValueError(
            f"the {count} {m}-multipartitions of {n} hold {count * m} "
            f"components; the limit is {MAX_COMPONENT_SLOTS}")
    return tuple(_by_boxes(m, n))


def _by_boxes(m: int, n: int) -> list[Multipartition]:
    """The m-multipartitions of n in ``multipartitions`` order, as j
    empty components, one nonempty partition of some size s, then the
    (m - j - 1)-multipartitions of n - s; every level places at least
    one box, so the recursion is at most n deep."""
    if n == 0:
        return [((),) * m]
    out: list[Multipartition] = []
    for j in range(m):
        head = ((),) * j
        for size in range(n, 0, -1):
            rest = _by_boxes(m - j - 1, n - size)
            for lam in partitions(size):
                first = head + (lam,)
                out += [first + r for r in rest]
    return out


def shift(mp: Multipartition, d: int) -> Multipartition:
    """Cyclic shift moving component i to component (i + d) mod m.

    >>> shift(((1,), (1,), ()), 1)
    ((), (1,), (1,))
    """
    m = len(mp)
    return tuple(mp[(i - d) % m] for i in range(m))


@dataclass(frozen=True)
class MultipartitionOrbit:
    """Orbit of a multipartition under iterated shift by d.

    ``members`` lists the distinct multipartitions in deterministic
    order, ``canonical`` is the least member under the enumeration
    order, and ``stab_order * len(members) == p`` always holds.
    """

    members: tuple[Multipartition, ...]
    canonical: Multipartition
    stab_order: int

    def __post_init__(self):
        # fake_degree and irr_dimension read canonical through unchecked
        # helpers, so an orbit built by hand is checked here.
        check_multipartition(self.canonical)

    @classmethod
    def _of_valid(cls, members: tuple[Multipartition, ...],
                  canonical: Multipartition,
                  stab_order: int) -> MultipartitionOrbit:
        """The orbit of enumerated or checked members, built without
        ``__post_init__``'s check."""
        orbit = object.__new__(cls)
        orbit.__dict__.update(members=members, canonical=canonical,
                              stab_order=stab_order)
        return orbit


def orbit_of(mp: Multipartition, p: int, d: int) -> MultipartitionOrbit:
    """Orbit of mp under the order-p group generated by shift-by-d."""
    mp = check_multipartition(mp)
    if p < 1 or d < 1 or len(mp) != p * d:
        raise ValueError("need m = p * d components")
    return _orbit(mp, p, d, multipartition_key)


def _orbit(mp: Multipartition, p: int, d: int, key) -> MultipartitionOrbit:
    """Orbit of a valid mp, its members sorted by ``key``; the action is
    cyclic, so the first repeat is mp itself."""
    seen = [mp]
    current = shift(mp, d)
    while current != mp and len(seen) < p:
        seen.append(current)
        current = shift(current, d)
    stab, rem = divmod(p, len(seen))
    if rem or current != mp:
        raise VerificationError("orbit size must divide p")
    members = tuple(sorted(seen, key=key))
    return MultipartitionOrbit._of_valid(members, members[0], stab)


def index_weight(mp: Multipartition) -> int:
    """r(mp) = sum_i i * |mp^i| (components indexed from 0).

    >>> index_weight(((1,), (1,), ()))
    1
    """
    return sum(i * sum(lam) for i, lam in enumerate(mp) if lam)


# -- text format ---------------------------------------------------------

def render_multipartition(mp: Multipartition) -> str:
    """Canonical text, e.g. ((2,2),(),(1,)) -> "2,2|-|1"."""
    comps = []
    for lam in mp:
        comps.append(",".join(str(p) for p in lam) if lam else "-")
    return "|".join(comps)


def parse_multipartition(text: str) -> Multipartition:
    """Inverse of render_multipartition."""
    text = text.strip()
    if not text:
        raise ValueError("empty multipartition text")
    out: list[Partition] = []
    for comp in text.split("|"):
        comp = comp.strip()
        if comp == "-" or comp == "":
            out.append(())
            continue
        try:
            parts = tuple(int(tok) for tok in comp.split(","))
        except ValueError as exc:
            raise ValueError(f"bad multipartition component {comp!r}") from exc
        out.append(check_partition(parts))
    return tuple(out)
