"""The battery of G(m,p,n) groups that the element-level, fake-degree
and scan tests run over."""
from cmscan.fakedeg import GroupSpec


def configured_groups(max_order: int = 2000, max_m: int = 12,
                      max_n: int = 5) -> tuple[GroupSpec, ...]:
    """All G(m,p,n) with p | m, m <= max_m, n <= max_n and order <= max_order;
    for n = 1 only p = 1 is kept because G(m,p,1) and G(m/p,1,1) are the
    same subgroup of GL_1.
    """
    out: list[GroupSpec] = []
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            for p in range(1, m + 1):
                if m % p != 0:
                    continue
                if n == 1 and p > 1:
                    continue
                g = GroupSpec(m, p, n)
                if g.order <= max_order:
                    out.append(g)
    return tuple(out)
