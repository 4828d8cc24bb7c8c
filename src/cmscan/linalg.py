"""Exact linear algebra over cyclotomic fields.

Matrices are tuples of row tuples of CycloNumber, all sharing one
modulus.  The only nontrivial matrix a check needs is the sum of 1 - s
over a class of reflections s: as 1 - s has rank one, the class's sum
of restricted symplectic forms on h + h* is a multiple of omega exactly
when that sum is scalar (``reflection_sum``), and no field inverse is
taken; ``class_form_scalar`` makes that check for groups and g4 alike.
The generic projection pipeline and the Gram matrices it replaces are
the test oracle in tests/linalg_oracle.py.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .cyclo import CycloNumber
from .polycore import VerificationError

Matrix = tuple[tuple[CycloNumber, ...], ...]


def identity(n: int, m: int) -> Matrix:
    one, zero = CycloNumber.one(m), CycloNumber.zero(m)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x if y.is_zero() else x - y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(_dot(row, col) for col in bt)
        for row in a
    )


def _dot(u, v) -> CycloNumber:
    """sum u[i] v[i], skipping (exactly) the pairs with a zero factor."""
    acc = None
    for x, y in zip(u, v):
        if x.is_zero() or y.is_zero():
            continue
        acc = x * y if acc is None else acc + x * y
    return CycloNumber.zero(u[0].m) if acc is None else acc


def scalar_mul(c: CycloNumber, a: Matrix) -> Matrix:
    return tuple(tuple(x if x.is_zero() else c * x for x in row) for row in a)


def reflection_sum(reflections: Iterable[Matrix],
                   m: int) -> tuple[Matrix, CycloNumber]:
    """(sum of M = 1 - s, t = 1 - zeta) for reflections s of h that
    share one eigenvalue zeta.

    This is all a class sum of restricted symplectic forms needs.
    omega_s = omega(pi ., pi .), where pi projects onto Im(1 - S) along
    Ker(1 - S) for the action S = diag(s, (s^-1)^T) on h + h*.  With
    M = 1 - s of rank one and t = tr M = 1 - zeta, M^2 = t M, so M / t is
    that projection on h; on h* it is N / (1 - zeta^-1) for
    N = 1 - (s^-1)^T, and N^T M = -zeta^-1 M^2 because s^-1 acts on
    Im M by zeta^-1.  Both cross blocks of pi^T J pi then reduce to
    M / t, giving omega_s = t^-1 [[0, -M^T], [M, 0]], and as t is shared
    the class sum is t^-1 [[0, -sum M^T], [sum M, 0]].  That equals
    lambda * omega = lambda [[0, -I], [I, 0]] exactly when
    sum M = lambda * t * I, so a caller checks sum M against a scalar
    matrix and never forms the Gram matrix on h + h*.

    Raises VerificationError unless each s has the same t, t != 0 and
    M M == t M, which in characteristic 0 holds exactly when s is a
    reflection: rank M = 1 with Im M and Ker M complementary.
    """
    total = t = None
    for s in reflections:
        n = len(s)
        b = mat_sub(identity(n, m), s)
        tr = sum((b[i][i] for i in range(1, n)), b[0][0])
        if tr.is_zero() or mat_mul(b, b) != scalar_mul(tr, b):
            raise VerificationError("1 - s does not have rank one with nonzero "
                                    "trace: s is not a reflection")
        if t is None:
            total, t = b, tr
        elif tr != t:
            raise VerificationError("reflections summed together must share "
                                    "their eigenvalue")
        else:
            total = tuple(tuple(x if y.is_zero() else x + y
                                for x, y in zip(rx, ry))
                          for rx, ry in zip(total, b))
    if t is None:
        raise ValueError("no reflections to sum")
    return total, t


def class_form_scalar(reflections: Iterable[Matrix], k: int,
                      zeta: CycloNumber, name: str) -> Fraction:
    """lambda = k/n with the restricted symplectic forms of k reflections
    s of h = C^n, eigenvalue zeta, summing to lambda * omega.

    By ``reflection_sum`` that identity is sum (1 - s) = lambda * t * I
    with t = 1 - zeta; its trace k * t holds member by member, so the
    claim is that the sum is scalar.  Checked in order: the members' t
    is 1 - zeta; the closed form (k/n)(1-zeta)^-1(1-zeta^-1)^-1
    (2-zeta-zeta^-1) is k/n, cross-multiplied so no inverse is taken (it
    holds for every root of unity zeta != 1); and the sum is
    (k/n) * t * I, which also fails unless k counts the reflections.
    Every failure raises VerificationError with a message starting with
    name.
    """
    m = zeta.m
    try:
        total, t = reflection_sum(reflections, m)
    except VerificationError as exc:
        raise VerificationError(f"{name}: {exc}") from exc
    one = CycloNumber.one(m)
    if t != one - zeta:
        raise VerificationError(
            f"{name}: members do not have the class's eigenvalue")
    if 2 - zeta - zeta.conj() != (one - zeta) * (one - zeta.conj()):
        raise VerificationError(
            f"{name}: closed form disagrees with the computed scalar")
    n = len(total)
    lam = Fraction(k, n)
    if total != scalar_mul(t * lam, identity(n, m)):
        raise VerificationError(f"{name}: class sum is not proportional to omega")
    return lam
