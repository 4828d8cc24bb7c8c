"""Exact linear algebra over cyclotomic fields.

Matrices are tuples of row tuples of CycloNumber, all sharing one
modulus.  The only nontrivial matrix a check needs is the restricted
symplectic form of a reflection, which has a closed form because 1 - s
has rank one; the generic projection pipeline it replaces is the test
oracle in tests/linalg_oracle.py.
"""
from __future__ import annotations

from .cyclo import CycloNumber
from .polycore import VerificationError

Matrix = tuple[tuple[CycloNumber, ...], ...]


def identity(n: int, m: int) -> Matrix:
    one, zero = CycloNumber.one(m), CycloNumber.zero(m)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(_dot(row, col) for col in bt)
        for row in a
    )


def _dot(u, v) -> CycloNumber:
    it = iter(zip(u, v))
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


def scalar_mul(c: CycloNumber, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def symplectic_form_matrix(n: int, m: int) -> Matrix:
    """Gram matrix of omega on h + h*: omega(x, y) = x^T J y with
    J = [[0, -I], [I, 0]] in the (h coords, h* coords) basis."""
    zero, one = CycloNumber.zero(m), CycloNumber.one(m)
    rows = []
    for i in range(2 * n):
        row = [zero] * (2 * n)
        if i < n:
            row[n + i] = -one
        else:
            row[i - n] = one
        rows.append(tuple(row))
    return tuple(rows)


def reflection_form(s: Matrix, m: int) -> Matrix:
    """Gram matrix on h + h* of the restricted form omega_s of a
    reflection s of h.

    omega_s = omega(pi ., pi .), where pi projects onto Im(1 - S) along
    Ker(1 - S) for the action S = diag(s, (s^-1)^T) on h + h*.  With
    M = 1 - s of rank one and t = tr M = 1 - zeta, M^2 = t M, so M / t is
    that projection on h; on h* it is N / (1 - zeta^-1) for
    N = 1 - (s^-1)^T, and N^T M = -zeta^-1 M^2 because s^-1 acts on
    Im M by zeta^-1.  Both cross blocks of pi^T J pi then reduce to
    M / t, giving t^-1 [[0, -M^T], [M, 0]] with no inverse matrix.

    Raises VerificationError unless t != 0 and M M == t M, which in
    characteristic 0 holds exactly when s is a reflection: rank M = 1
    with Im M and Ker M complementary.
    """
    n = len(s)
    b = mat_sub(identity(n, m), s)
    t = sum((b[i][i] for i in range(1, n)), b[0][0])
    if t.is_zero() or mat_mul(b, b) != scalar_mul(t, b):
        raise VerificationError("1 - s does not have rank one with nonzero "
                                "trace: s is not a reflection")
    scaled = scalar_mul(t.inverse(), b)
    zero = (CycloNumber.zero(m),) * n
    return (tuple(zero + tuple(-scaled[j][i] for j in range(n))
                  for i in range(n))
            + tuple(row + zero for row in scaled))


def proportionality_scalar(a: Matrix, b: Matrix) -> CycloNumber | None:
    """The exact scalar c with a == c * b, or None if there is none."""
    c = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if y.is_zero():
                if not x.is_zero():
                    return None
                continue
            ratio = x / y
            if c is None:
                c = ratio
            elif c != ratio:
                return None
    if c is None:
        c = CycloNumber.zero(a[0][0].m)
    return c
