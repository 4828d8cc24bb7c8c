"""Partitions, m-multipartitions and their shift orbits.

Partitions are plain tuples of weakly decreasing positive ints; an
m-multipartition is a tuple of m partitions.  The cyclic shift action
moves component i to component (i + d) mod m; its orbits index the
irreducible representations of G(m,p,n) together with an abstract
epsilon label per stabiliser element.

Text format: components joined by "|", parts by ",", empty component
"-", e.g. ``"2,2|-|1"`` for ((2,2), (), (1)).

Shift orbits are found on ranks: each partition a component can hold
gets its index in ``_partition_key`` order, so a multipartition becomes
a tuple of ints that compares as its components' keys do, and a shift
is two slices.  An orbit keeps only its least member, ``canonical``; its
other members are built when asked for.

Partitions are validated where they enter from outside (the public
``check_*``, ``orbit_of`` and the canonical member of a
``MultipartitionOrbit`` built by hand); the enumerators only produce
valid ones, so the scan path, orbits included, works on them through
unchecked private helpers.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from operator import mul

from .polycore import VerificationError, clip

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]

# The most multipartitions ``multipartitions`` enumerates: G(12,6,6)'s
# 42,614 five times over, while G(20,1,8)'s 9,869,990 exhausts memory.
MAX_MULTIPARTITIONS = 200_000

# The most component slots (count * m) the enumerated multipartitions
# hold.  Each label keeps its orbit's canonical m-tuple, so the labels
# take about 9 bytes a slot and a scan about 11: with this bound lifted,
# G(300,1,2)'s 45,450 labels hold 13,635,000 slots, and fake-degrees
# peaks at 131 MB RSS (206 MB with --json) and scan at 163 MB (2-core
# x86-64, CPython 3.11).  Below MAX_MULTIPARTITIONS this admits
# G(16,p,6) (2,489,344 slots) and G(200,1,2) (4,060,000) and refuses
# G(300,1,2).
MAX_COMPONENT_SLOTS = 10_000_000

# Distinct (n, max_part) arguments whose partitions are kept, and
# distinct partitions whose hook lengths, n(lambda) and text are kept.
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


@functools.lru_cache(maxsize=PARTITIONS_CACHE_SIZE)
def _weighted_size(lam: Partition) -> int:
    """n(lam) = sum_i (i - 1) * lam_i of a valid partition.

    >>> _weighted_size((2, 2, 1))
    4
    """
    return sum(map(mul, range(len(lam)), lam))


# -- multipartitions ----------------------------------------------------

def check_multipartition(mp: Multipartition) -> Multipartition:
    return tuple(check_partition(lam) for lam in mp)


def _partition_key(lam: Partition) -> tuple:
    # Larger components first, then descending-lex on parts.
    return (-sum(lam), tuple(-p for p in lam))


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


def _check_size(m: int, n: int) -> None:
    """Refuse more than MAX_MULTIPARTITIONS m-multipartitions of n, or
    more than MAX_COMPONENT_SLOTS components in all, before enumerating."""
    count = _multipartition_count(m, n)
    if count > MAX_MULTIPARTITIONS:
        raise ValueError(
            f"more than {MAX_MULTIPARTITIONS} {clip(m)}-multipartitions of "
            f"{clip(n)}: too many labels to enumerate")
    if count * m > MAX_COMPONENT_SLOTS:
        raise ValueError(
            f"the {count} {clip(m)}-multipartitions of {clip(n)} hold "
            f"{clip(count * m)} components; the limit is "
            f"{MAX_COMPONENT_SLOTS}")


def _by_boxes(m: int, n: int, parts: Callable[[int], Sequence],
              empty) -> Iterator[tuple]:
    """The m-multipartitions of n in ``multipartitions`` order, each
    component written as an item of ``parts(size)`` (its partitions of
    that size, in order) or as ``empty``: j empty components, one
    nonempty partition of some size s, then the (m - j - 1)-
    multipartitions of n - s.  Every level places at least one box, so
    the recursion is at most n deep; the first level yields its tuples
    one at a time, so they are not all held at once."""
    if n == 0:
        yield (empty,) * m
        return
    for j in range(m):
        head = (empty,) * j
        for size in range(n, 0, -1):
            rest = list(_by_boxes(m - j - 1, n - size, parts, empty))
            for lam in parts(size) if rest else ():
                first = head + (lam,)
                for tail in rest:
                    yield first + tail


def multipartitions(m: int, n: int) -> tuple[Multipartition, ...]:
    """All m-multipartitions of n, deterministically ordered.

    The order sorts component 0 first (larger, lexicographically earlier
    partitions first), then the remaining components, which is
    ascending componentwise ``_partition_key`` order:

    >>> multipartitions(2, 2)[0]
    ((2,), ())

    Refuses, before enumerating, more than MAX_MULTIPARTITIONS of them
    or more than MAX_COMPONENT_SLOTS components in all.
    """
    _check_size(m, n)
    return tuple(_by_boxes(m, n, partitions, ()))


def _orbit_size(r: tuple[int, ...], p: int, d: int) -> int:
    """The number of distinct shifts of the rank tuple r by multiples of
    d, when r is the least of them, else 0.  Shifting p times by d is
    the identity, so the first repeat is r itself and comes within p
    shifts; the check that its count divides p is kept explicit."""
    shifted = r
    for size in range(1, p):
        shifted = shifted[-d:] + shifted[:-d]
        if shifted <= r:
            if shifted < r:
                return 0
            break
    else:
        size = p
    if p % size:
        raise VerificationError("orbit size must divide p")
    return size


def _local_ranks(mp: Multipartition) -> tuple[list[Partition], tuple[int, ...]]:
    """mp's distinct components in ``_partition_key`` order, and mp
    as the tuple of its components' ranks among them."""
    parts = sorted(set(mp), key=_partition_key)
    rank = {lam: i for i, lam in enumerate(parts)}
    return parts, tuple(map(rank.__getitem__, mp))


def _shifts(r: tuple, d: int, count: int) -> list[tuple]:
    """r shifted by 0, d, ..., (count - 1) * d; a shift by k moves
    component i to component (i + k) mod m."""
    m = len(r)
    return [r[m - k:] + r[:m - k] for k in range(0, count * d, d)]


class MultipartitionOrbit(namedtuple("MultipartitionOrbit",
                                     "canonical p stab_order")):
    """Orbit of a multipartition under the order-p group of shifts by
    d = m/p.

    ``canonical`` is its least member in componentwise
    ``_partition_key`` order, and the orbit has p / stab_order members;
    ``members`` lists them, built when asked for.
    """

    __slots__ = ()

    def __new__(cls, canonical: Multipartition, p: int,
                stab_order: int) -> MultipartitionOrbit:
        # fake_degree, irr_dimension and members read canonical, p and
        # stab_order through unchecked helpers, so an orbit built by hand
        # is checked here.
        check_multipartition(canonical)
        if p < 1 or len(canonical) % p:
            raise ValueError("need m = p * d components")
        if stab_order < 1 or p % stab_order:
            raise ValueError("the stabiliser order must divide p")
        return super().__new__(cls, canonical, p, stab_order)

    @classmethod
    def _of_valid(cls, canonical: Multipartition, p: int,
                  stab_order: int) -> MultipartitionOrbit:
        """The orbit of an enumerated or checked canonical member, built
        without ``__new__``'s check."""
        return tuple.__new__(cls, (canonical, p, stab_order))

    @property
    def members(self) -> tuple[Multipartition, ...]:
        """The distinct shifts of canonical, in componentwise
        ``_partition_key`` order."""
        if self.stab_order == self.p:
            return (self.canonical,)
        parts, r = _local_ranks(self.canonical)
        shifts = _shifts(r, len(r) // self.p, self.p // self.stab_order)
        return tuple(tuple(map(parts.__getitem__, s)) for s in sorted(shifts))


def shift_orbits(m: int, p: int, n: int) -> tuple[MultipartitionOrbit, ...]:
    """The orbits of the m-multipartitions of n under shift by d = m/p,
    in enumeration order of their canonical members, refused first as
    ``multipartitions`` is.

    For p > 1 the multipartitions are enumerated as rank tuples: the
    table lists every partition of size n down to 1, descending-lex
    within a size, then the empty partition, which is
    ``_partition_key`` order, so a tuple of ranks (indices in the table)
    compares as its multipartition does.  A rank tuple is kept only when
    it is the least of its shifts, so no orbit's other members are
    built.
    """
    if p == 1:
        return tuple(MultipartitionOrbit._of_valid(mp, 1, 1)
                     for mp in multipartitions(m, n))
    _check_size(m, n)
    table: list[Partition] = []
    ranks: dict[int, range] = {}
    for size in range(n, 0, -1):
        ranks[size] = range(len(table), len(table) + len(partitions(size)))
        table += partitions(size)
    table.append(())
    d = m // p
    orbits: list[MultipartitionOrbit] = []
    for r in _by_boxes(m, n, ranks.__getitem__, len(table) - 1):
        # A shift by a multiple of d brings some r[j * d] to the front,
        # so most tuples that are not least are seen at once.
        if min(r[::d]) < r[0]:
            continue
        size = _orbit_size(r, p, d)
        if size:
            orbits.append(MultipartitionOrbit._of_valid(
                tuple(map(table.__getitem__, r)), p, p // size))
    return tuple(orbits)


def orbit_of(mp: Multipartition, p: int, d: int) -> MultipartitionOrbit:
    """Orbit of mp under the order-p group generated by shift-by-d."""
    mp = check_multipartition(mp)
    if p < 1 or d < 1 or len(mp) != p * d:
        raise ValueError("need m = p * d components")
    parts, r = _local_ranks(mp)
    least = min(_shifts(r, d, p))
    stab = p // _orbit_size(least, p, d)
    return MultipartitionOrbit._of_valid(tuple(map(parts.__getitem__, least)),
                                         p, stab)


# -- text format ---------------------------------------------------------

@functools.lru_cache(maxsize=PARTITIONS_CACHE_SIZE)
def _component_text(lam: Partition) -> str:
    return ",".join(map(str, lam))


def render_multipartition(mp: Multipartition) -> str:
    """Canonical text, e.g. ((2,2),(),(1,)) -> "2,2|-|1"."""
    return "|".join([_component_text(lam) if lam else "-" for lam in mp])
