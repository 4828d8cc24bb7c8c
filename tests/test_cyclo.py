import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmscan.cyclo import CycloNumber


def test_basic_ring_ops():
    z = CycloNumber.zeta(5, 1)
    one = CycloNumber.one(5)
    zero = CycloNumber.zero(5)
    assert z - z == zero
    assert z * one == z
    assert one + 2 == CycloNumber.from_rational(5, 3)
    assert (z + 1) - 1 == z


def test_minimal_polynomial():
    # sum of all powers of a primitive p-th root is -1 + ... = 0 adjusted
    for m in (3, 5, 7):
        acc = CycloNumber.zero(m)
        for e in range(m):
            acc = acc + CycloNumber.zeta(m, e)
        assert acc.is_zero()


def test_powers_wrap():
    z = CycloNumber.zeta(12, 1)
    assert z * CycloNumber.zeta(12, 11) == CycloNumber.one(12)
    assert CycloNumber.zeta(12, 7) == z * CycloNumber.zeta(12, 6)


@given(st.integers(2, 12), st.lists(st.fractions(min_value=-3, max_value=3,
                                                 max_denominator=6),
                                    min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_inverse(m, coords):
    x = CycloNumber.zero(m)
    for e, c in enumerate(coords):
        x = x + CycloNumber.zeta(m, e % m) * c
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert x * x.inverse() == CycloNumber.one(m)


def test_division():
    a = CycloNumber.zeta(8, 1) + 1
    b = CycloNumber.zeta(8, 3) - 2
    assert (a / b) * b == a


def test_conjugation_is_inversion_on_roots():
    for m in (3, 4, 5, 12):
        for e in range(m):
            z = CycloNumber.zeta(m, e)
            assert z * z.conj() == CycloNumber.one(m)


def test_galois_action():
    z = CycloNumber.zeta(7, 1)
    x = z + z * z * 3
    assert x.conj() == CycloNumber.zeta(7, 6) + CycloNumber.zeta(7, 5) * 3


def test_lift_preserves_arithmetic():
    omega = CycloNumber.zeta(3, 1)
    i = CycloNumber.zeta(4, 1)
    w12, i12 = omega.lift(12), i.lift(12)
    assert w12 == CycloNumber.zeta(12, 4)
    assert i12 == CycloNumber.zeta(12, 3)
    # 2 - omega - omega^2 = 3 survives lifting
    two = CycloNumber.from_rational(12, 2)
    assert two - w12 - w12 * w12 == CycloNumber.from_rational(12, 3)
    # mixed product only exists upstairs
    assert (w12 * i12) == CycloNumber.zeta(12, 7)


def test_rationality_predicates():
    x = CycloNumber.from_rational(6, Fraction(3, 2))
    assert x.is_rational() and x.as_rational() == Fraction(3, 2)
    z = CycloNumber.zeta(6, 1)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.as_rational()


def test_rational_reduction_of_real_combinations():
    omega = CycloNumber.zeta(3, 1)
    expr = (CycloNumber.from_rational(3, 2) - omega - omega.conj())
    assert expr.as_rational() == 3
    lam = (CycloNumber.one(3) - omega).inverse() \
        * (CycloNumber.one(3) - omega.conj()).inverse() * expr
    assert lam.as_rational() == 1


def test_inverse_check_runs_under_optimize():
    # The check that result * self == 1 raises VerificationError
    # explicitly, so python -O, which strips asserts, still runs it.
    code = """
from cmscan.cyclo import CycloNumber
from cmscan.polycore import VerificationError
real = CycloNumber.__mul__
CycloNumber.__mul__ = lambda a, b: real(a, b) + 1
print("__debug__ =", __debug__)
try:
    (CycloNumber.zeta(7, 1) + 3).inverse()
except VerificationError as exc:
    print("VerificationError:", exc)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "__debug__ = False", "VerificationError: inverse computation failed"]
