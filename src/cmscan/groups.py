"""Exact matrix realizations of G(m,p,n).

Elements are monomial matrices stored as (permutation, exponent vector):
the matrix has entry zeta_m^exps[i] in row perm[i], column i.  The
conjugacy classes of reflections, sums of restricted symplectic forms
on h + h* and Molien series all live here, exact and in closed form
where one is known: no group is enumerated.  The enumeration and the
group operations are the oracle in tests/linalg_oracle.py.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction

from .cyclo import CycloNumber
from .polycore import MAX_SPAN, LaurentPoly, VerificationError, clip, div_one_minus
from .spec import GroupSpec, natural_is_reducible


# Largest cost of the reflection classes: members times n^3 (each member's
# rank check multiplies two n x n matrices) times phi(m) coordinates.
MAX_REFLECTION_COST = 1 << 25
# Largest number of table entries the Molien series may expand: its
# signature terms times (truncate + 1) * m.
MAX_MOLIEN_TERMS = 1 << 28


class ReducibleRepresentationError(ValueError):
    pass


class MonomialElement(namedtuple("MonomialElement", "m perm exps")):
    """One monomial matrix: entry zeta^exps[i] at (perm[i], i)."""

    __slots__ = ()

    def __new__(cls, m: int, perm: tuple[int, ...],
                exps: tuple[int, ...]) -> MonomialElement:
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("perm must be a permutation of 0..n-1")
        if len(exps) != len(perm):
            raise ValueError("need one exponent per coordinate")
        if any(not 0 <= e < m for e in exps):
            raise ValueError("exponents must be reduced mod m")
        return super().__new__(cls, m, perm, exps)

    @property
    def n(self) -> int:
        return len(self.perm)

    def matrix(self) -> tuple[tuple[CycloNumber, ...], ...]:
        zero = CycloNumber.zero(self.m)
        rows = [[zero] * self.n for _ in range(self.n)]
        for j in range(self.n):
            rows[self.perm[j]][j] = CycloNumber.zeta(self.m, self.exps[j])
        return tuple(tuple(r) for r in rows)

    def sort_key(self) -> tuple:
        return (self.perm, self.exps)


class ReflectionClass(namedtuple("ReflectionClass", "elements zeta")):
    """A conjugacy class of reflections with its nontrivial eigenvalue."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.elements)


def reflection_classes(g: GroupSpec) -> tuple[ReflectionClass, ...]:
    """Conjugacy classes of reflections, in closed form.

    One class of the n matrices diag(..., zeta^k, ...) per k in pZ/m,
    k != 0, then one of the m n(n-1)/2 transpositions (i j) with
    exponents a at i and -a at j, split by the parity of a for n = 2
    with p even (conjugation moves a only by even steps there).  That is
    the (perm, exps) order of first members, as an enumeration meets
    them; members are sorted the same way.  Unless count is 0 (G(m,m,1)),
    Q(zeta_m) is built, then a cost count * n^3 * phi(m) above
    MAX_REFLECTION_COST is refused with ValueError before any member is.
    """
    m, n = g.m, g.n
    count = n * (g.d - 1) + m * n * (n - 1) // 2
    cost = count and count * n**3 * len(CycloNumber.zero(m).num)
    if cost > MAX_REFLECTION_COST:
        raise ValueError(f"the reflections of {clip(g)}, count = "
                         f"{clip(count)}, cost count * n^3 * phi(m) = "
                         f"{clip(cost)}; the limit is {MAX_REFLECTION_COST}")
    ident = tuple(range(n))
    classes = [([MonomialElement(m, ident, tuple(k if x == i else 0 for x in ident))
                 for i in ident], CycloNumber.zeta(m, k)) for k in range(g.p, m, g.p)]
    swaps: dict[int, list[MonomialElement]] = {}
    split = n == 2 and g.p % 2 == 0
    for i, j in itertools.combinations(ident, 2):
        perm = tuple(j if x == i else i if x == j else x for x in ident)
        for a in range(m):
            exps = tuple(a if x == i else -a % m if x == j else 0 for x in ident)
            swaps.setdefault(a % 2 if split else 0, []).append(
                MonomialElement(m, perm, exps))
    classes += [(members, CycloNumber.from_rational(m, -1)) for members in swaps.values()]
    return tuple(ReflectionClass(tuple(sorted(members, key=MonomialElement.sort_key)),
                                 zeta) for members, zeta in classes)


def is_irreducible_natural(g: GroupSpec) -> bool:
    """Whether G(m,p,n) acts irreducibly on C^n (spec.natural_is_reducible)."""
    return not natural_is_reducible(g)


def omega_class_sum(g: GroupSpec, refl_class: ReflectionClass) -> Fraction:
    """Scalar lambda = k/n with sum_{s in class} omega_s == lambda * omega,
    for a class of k reflections, verified by ``linalg.class_form_scalar``.
    Refuses reducible natural representations, where the Schur argument
    does not apply.
    """
    if not is_irreducible_natural(g):
        raise ReducibleRepresentationError(
            f"natural representation of {g} is reducible")
    from . import linalg  # only verify-omega runs the class sums
    return linalg.class_form_scalar((s.matrix() for s in refl_class.elements),
                                    refl_class.size, refl_class.zeta, str(g))


# -- Molien series --------------------------------------------------------

def _signature_counts(g: GroupSpec) -> dict[tuple[tuple[int, int], ...], int]:
    """How many elements of G(m,p,n) have each sorted (L, E mod m) cycle
    signature, with L a cycle's length and E its exponent sum.

    A cycle type lam of n with k cycles, a_L of them of length L, is
    taken by n!/z_lam permutations, z_lam = prod_L L^a_L a_L!, and a
    cycle of length L carries m^(L-1) exponent vectors of each sum E.
    So each tuple of cycle sums (E_1, ..., E_k) with sum E = 0 mod p
    counts n!/z_lam * m^(n-k) elements; the last E steps by p.
    """
    from .partitions import partitions  # only molien counts signatures
    m, p, n = g.m, g.p, g.n
    counts: dict[tuple[tuple[int, int], ...], int] = {}
    for lam in partitions(n):
        z = 1
        for length, mult in Counter(lam).items():
            z *= length**mult * math.factorial(mult)
        weight = math.factorial(n) // z * m ** (n - len(lam))
        for head in itertools.product(range(m), repeat=len(lam) - 1):
            for last in range(-sum(head) % p, m, p):
                key = tuple(sorted(zip(lam, head + (last,))))
                counts[key] = counts.get(key, 0) + weight
    return counts


def _slot_width(g: GroupSpec, truncate: int) -> int:
    """Bits of one zeta-power slot of a packed Molien coefficient: the
    bit length of |W| * C(truncate + n, n), the largest count a slot
    holds, plus one, so no slot carries into the next."""
    return (g.order * math.comb(truncate + g.n, g.n)).bit_length() + 1


def molien_series(g: GroupSpec, truncate: int = 30) -> LaurentPoly:
    """(1/|W|) sum_w 1/det(1 - t w) to order ``truncate``, exactly.

    det(1 - t w) = prod over the cycles of w of (1 - zeta^E t^L), with L
    the cycle length and E its exponent sum, so only the number of
    elements with each sorted (L, E mod m) signature matters, and that
    is known in closed form (``_signature_counts``); no element is
    enumerated.  Each signature contributes
    count * prod_cycles sum_j zeta^(E j) t^(L j).  Those products are
    summed in the group ring Z[C_m]: each t-coefficient is one int of m
    slots of w bits, slot e holding the count at zeta^e, so multiplying
    by zeta^E rotates the slots and adding a signature is one int
    addition.  An element's t^k coefficient counts at most the monomials
    of degree k in n variables, so every slot stays at most
    |W| * C(truncate + n, n), and w is one bit wider than that bound:
    no slot carries into the next.  Each coefficient's slots are read
    back and reduced into Q(zeta_m) once (``CycloNumber.from_powers``)
    and divided by |W|; it must be rational and integral (else
    VerificationError).  The series are expanded term by term, never
    summed in closed form: that sum collapses to the degrees product
    this series is checked against.
    Refused with ValueError before any work: a table of (truncate + 1) * m
    ints above polycore.MAX_SPAN, that width times (m/p)(m+1)^(n-1), which
    bounds the signature terms, above MAX_MOLIEN_TERMS, and a field over
    cyclo.MAX_FIELD_TABLE.
    """
    m = g.m
    n_terms = truncate + 1
    if n_terms * m > MAX_SPAN:
        raise ValueError(
            f"molien series of {clip(g)} to t^{truncate} needs "
            f"{clip(n_terms * m)} coefficients; the limit is {MAX_SPAN}")
    # (m+1)^(n-1) >= 2^(n-1), so capping n - 1 at the limit's bit length
    # refuses the same groups and keeps a huge n cheap.
    cap = MAX_MOLIEN_TERMS.bit_length()
    terms = g.d * n_terms * m * (m + 1) ** min(g.n - 1, cap)
    if terms > MAX_MOLIEN_TERMS:
        raise ValueError(
            f"molien series of {clip(g)} to t^{truncate} may expand more than "
            f"{MAX_MOLIEN_TERMS} signature-table entries")
    CycloNumber.zero(m)  # builds the field, or refuses it, before the count
    signatures = _signature_counts(g)

    order, w = g.order, _slot_width(g, truncate)
    full = (1 << m * w) - 1
    table = [0] * n_terms
    for sig, count in sorted(signatures.items()):
        series = [1] + [0] * truncate
        for length, exp in sig:
            # times 1/(1 - zeta^exp t^length): s[k] += zeta^exp * s[k - length],
            # k ascending, so s[k - length] already carries the new factor.
            up, down = exp * w, (m - exp) * w
            for k in range(length, n_terms):
                prev = series[k - length]
                series[k] += ((prev << up) & full) | (prev >> down)
        for k, v in enumerate(series):
            table[k] += count * v

    mask = (1 << w) - 1
    out: dict[int, int] = {}
    for k, v in enumerate(table):
        row = [v >> (e * w) & mask for e in range(m)]
        total = CycloNumber.from_powers(m, row)
        if not total.is_rational():
            raise VerificationError(f"Molien coefficient at t^{k} is not rational")
        coeff, rem = divmod(total.num[0], order)
        if rem:
            raise VerificationError(f"Molien coefficient at t^{k} is not integral")
        if coeff:
            out[k] = coeff
    return LaurentPoly(out)


def degrees_series(g: GroupSpec, truncate: int = 30) -> LaurentPoly:
    """prod 1/(1 - t^degree) truncated; the invariant-theory prediction.
    Dividing by 1 - t^d is q[i] += q[i - d], i ascending, over ints."""
    if not 0 <= truncate <= MAX_SPAN:
        raise ValueError(f"truncation order must be in [0, {MAX_SPAN}]")
    q = [1] + [0] * truncate
    for d in g.degrees:
        div_one_minus(q, d)
    return LaurentPoly._dense(0, q)
