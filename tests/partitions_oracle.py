"""Reference enumerator for differential tests of cmscan.partitions.

``multipartitions`` is the enumeration ``partitions.multipartitions``
used before it recursed on boxes: it places component 0 and recurses
on the other m - 1 components, one level per component, caching every
intermediate (m, n) enumeration.  The code is kept as it was, so tests
can compare the order and the members of the two.
"""
from __future__ import annotations

import functools

from cmscan.partitions import (
    MAX_MULTIPARTITIONS, Multipartition, _multipartition_count, partitions,
)


@functools.lru_cache(maxsize=None)
def multipartitions(m: int, n: int) -> tuple[Multipartition, ...]:
    """All m-multipartitions of n, deterministically ordered.

    The order sorts component 0 first (larger, lexicographically earlier
    partitions first), then recurses on the remaining components, which
    is ascending ``multipartition_key`` order.

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
