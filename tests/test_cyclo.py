import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclo_oracle as oracle
from cmscan import cyclo
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


# -- differential tests against the Fraction-coordinate oracle -------------

MODULI = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15)
SMALL = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-4, max_value=4, max_denominator=6))


def _degree(m):
    return len(oracle.CycloNumber.zero(m).coords)


@st.composite
def operands(draw, count=2):
    """(m, [coordinate lists]) for count elements of Q(zeta_m)."""
    m = draw(st.sampled_from(MODULI))
    coords = st.lists(SMALL, min_size=_degree(m), max_size=_degree(m))
    return m, [draw(coords) for _ in range(count)]


def assert_normal(x):
    assert isinstance(x.den, int) and x.den > 0
    assert all(isinstance(c, int) for c in x.num)
    assert len(x.num) == _degree(x.m)
    assert math.gcd(x.den, *x.num) == 1


def assert_agrees(x, want):
    """x (the integer kernel) and want (the oracle) are the same number,
    and every inspection method says so."""
    assert_normal(x)
    assert x.m == want.m
    assert x.coords == want.coords
    assert all(type(c) is Fraction for c in x.coords)
    assert repr(x) == repr(want)
    assert x.is_zero() == want.is_zero()
    assert x.is_one() == want.is_one()
    assert x.is_rational() == want.is_rational()
    if want.is_rational():
        assert x.as_rational() == want.as_rational()
    else:
        with pytest.raises(ValueError):
            x.as_rational()


def _pair(m, coords):
    return CycloNumber(m, coords), oracle.CycloNumber(m, coords)


@given(operands())
@settings(max_examples=200, deadline=None)
def test_ring_operations_match_oracle(case):
    m, (ca, cb) = case
    a, oa = _pair(m, ca)
    b, ob = _pair(m, cb)
    assert_agrees(a, oa)
    assert_agrees(a + b, oa + ob)
    assert_agrees(a - b, oa - ob)
    assert_agrees(a * b, oa * ob)
    assert_agrees(-a, -oa)
    assert (a == b) == (oa == ob)
    if not ob.is_zero():
        assert_agrees(b.inverse(), ob.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()


@given(operands(count=1), SMALL, st.integers(-5, 5))
@settings(max_examples=150, deadline=None)
def test_mixed_rational_operations_match_oracle(case, r, k):
    m, (ca,) = case
    a, oa = _pair(m, ca)
    for s in (r, k):
        assert_agrees(a + s, oa + s)
        assert_agrees(s + a, s + oa)
        assert_agrees(a - s, oa - s)
        assert_agrees(s - a, s - oa)
        assert_agrees(a * s, oa * s)
        assert_agrees(s * a, s * oa)
        assert (a == s) == (oa == s)


@given(operands(count=1))
@settings(max_examples=150, deadline=None)
def test_conj_and_lift_match_oracle(case):
    m, (ca,) = case
    a, oa = _pair(m, ca)
    assert_agrees(a.conj(), oa.conj())
    for big_m in (2 * m, 3 * m):
        assert_agrees(a.lift(big_m), oa.lift(big_m))
    if m > 1:
        with pytest.raises(ValueError):
            a.lift(m + 1)


def test_degree_48_field_matches_oracle():
    # Phi_105 (phi = 48) is the first cyclotomic polynomial with a
    # coefficient -2.  Sampling m = 105 in the ring test above took
    # about 40 s on a 2-core host, nearly all of it in the oracle's
    # inverses; this case covers the product's fold, the difference,
    # conjugation and a lift.
    m = 105
    a, oa = _pair(m, [Fraction(i % 7 - 3, i % 4 + 1) for i in range(48)])
    b, ob = _pair(m, [Fraction(5 * i % 11 - 5, i % 3 + 2) for i in range(48)])
    assert_agrees(a - b, oa - ob)
    assert_agrees(a * b, oa * ob)
    assert_agrees(a.conj(), oa.conj())
    assert_agrees(b.lift(210), ob.lift(210))


@st.composite
def power_counts(draw):
    """(m, counts) with up to 2m + 3 int counts, zeros drawn on purpose,
    so that exponents wrap past m and most lists are longer than phi(m)."""
    m = draw(st.sampled_from((1, 2, 12, 105)))
    count = st.one_of(st.just(0), st.integers(-50, 50))
    return m, draw(st.lists(count, max_size=2 * m + 3))


@given(power_counts())
@example((105, [1] * 105))  # the 105th roots of unity sum to 0
@example((12, [0] * 36))
@example((1, [3, -1, 0, 2]))
@example((2, []))
@settings(max_examples=100, deadline=None)
def test_from_powers_matches_oracle(case):
    m, counts = case
    want = oracle.CycloNumber.zero(m)
    for e, c in enumerate(counts):
        if c:
            want = want + oracle.CycloNumber.zeta(m, e) * c
    assert_agrees(CycloNumber.from_powers(m, counts), want)


@pytest.mark.parametrize("m", MODULI)
def test_roots_of_unity_match_oracle(m):
    for e in range(-m, 2 * m + 1):
        assert_agrees(CycloNumber.zeta(m, e), oracle.CycloNumber.zeta(m, e))
    assert_agrees(CycloNumber.zero(m), oracle.CycloNumber.zero(m))
    assert_agrees(CycloNumber.one(m), oracle.CycloNumber.one(m))
    assert_agrees(CycloNumber.from_rational(m, Fraction(-6, 4)),
                  oracle.CycloNumber.from_rational(m, Fraction(-6, 4)))


# -- normal form ------------------------------------------------------------

def test_equal_values_have_one_representation():
    half = CycloNumber.from_rational(6, Fraction(1, 2))
    routes = [
        CycloNumber(6, [Fraction(2, 4), 0]),
        CycloNumber(6, [Fraction(1, 2), Fraction(0, 3)]),
        CycloNumber.from_rational(6, Fraction(3, 6)),
        CycloNumber.one(6) * CycloNumber.from_rational(6, 2).inverse(),
        CycloNumber.one(6) * Fraction(1, 2),
        CycloNumber.from_rational(6, Fraction(1, 6)) * 3,
        CycloNumber.from_rational(6, Fraction(1, 4)) + Fraction(1, 4),
        CycloNumber(6, [Fraction(1, 3), Fraction(1, 3)])
        + CycloNumber(6, [Fraction(1, 6), Fraction(-1, 3)]),
        (CycloNumber.zeta(6, 2) * Fraction(-1, 2)
         + CycloNumber.zeta(6, 1) * Fraction(1, 2)),
        (CycloNumber.zeta(6, 1) + 1)
        * (2 * CycloNumber.zeta(6, 1) + 2).inverse(),
    ]
    for x in routes:
        assert_normal(x)
        assert (x.num, x.den) == ((1, 0), 2)
        assert x == half and hash(x) == hash(half)
        assert x == Fraction(1, 2) and x != 1
    assert len(set(routes)) == 1
    # Same numerators, other denominator or other field: not equal.
    assert half != CycloNumber.one(6) and half != CycloNumber.from_rational(6, 1)
    assert half != CycloNumber.from_rational(3, Fraction(1, 2))


@given(operands())
@settings(max_examples=100, deadline=None)
def test_cancellation_gives_the_canonical_zero(case):
    m, (ca, cb) = case
    a, b = CycloNumber(m, ca), CycloNumber(m, cb)
    zero = CycloNumber.zero(m)
    for x in (a - a, a + (-a), (a + b) - b - a, a * 0, a * zero,
              a.conj() - a.conj(), a.lift(2 * m) - a.lift(2 * m)):
        assert_normal(x)
        assert x.den == 1 and not any(x.num)
        assert x.is_zero() and x == 0
        assert x == CycloNumber.zero(x.m) and hash(x) == hash(CycloNumber.zero(x.m))


@given(operands())
@settings(max_examples=100, deadline=None)
def test_every_result_is_in_lowest_terms(case):
    m, (ca, cb) = case
    a, b = CycloNumber(m, ca), CycloNumber(m, cb)
    results = [a, b, a + b, a - b, b - a, -a, a * b, a.conj(), a.lift(2 * m),
               a.lift(3 * m), a + Fraction(1, 3), a * Fraction(-2, 3), 2 - a]
    if not b.is_zero():
        results += [a * b.inverse(), b.inverse()]
    for x in results:
        assert_normal(x)
    # Equal values built by different routes hash alike.
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert a + b == b + a and hash(a + b) == hash(b + a)


def test_constructor_accepts_ints_and_fractions():
    x = CycloNumber(4, [3, Fraction(-6, 4)])
    assert (x.num, x.den) == ((6, -3), 2)
    assert x.coords == (Fraction(3), Fraction(-3, 2))
    assert CycloNumber(4, [Fraction(4, 2), 0]) == 2
    with pytest.raises(ValueError):
        CycloNumber(4, [1, 2, 3])
    with pytest.raises(ValueError):
        CycloNumber(0, [])


@pytest.mark.parametrize("value", [0.1, 2.5, "1/3", "2", None])
def test_constructors_refuse_inexact_values(value):
    # Floats and strings would go through Fraction(): 0.1 becomes
    # 3602879701896397/36028797018963968 and "1/3" a rational.
    with pytest.raises(TypeError):
        CycloNumber(3, [value, 0])
    with pytest.raises(TypeError):
        CycloNumber(3, [Fraction(1, 3), value])
    with pytest.raises(TypeError):
        CycloNumber.from_rational(3, value)
    with pytest.raises(TypeError):
        CycloNumber.from_powers(3, [1, value])


def test_from_powers_refuses_fraction_counts():
    with pytest.raises(TypeError):
        CycloNumber.from_powers(12, [1, Fraction(1, 2)])


# -- size bounds -----------------------------------------------------------

def test_field_table_bound_is_inclusive(monkeypatch):
    # The powers of zeta_97 take 97 * phi(97) = 9312 coordinates.
    monkeypatch.setattr(cyclo, "MAX_FIELD_TABLE", 9312)
    assert cyclo._field_data.__wrapped__(97)[0] == 96
    monkeypatch.setattr(cyclo, "MAX_FIELD_TABLE", 9311)
    with pytest.raises(ValueError, match="need 9312 coordinates; the limit is 9311$"):
        cyclo._field_data.__wrapped__(97)


def test_modulus_over_the_limit_is_refused_before_factoring(monkeypatch):
    # m * phi(m) >= m, so m = 2^89 - 1, a prime whose trial division
    # would take about 2.5e13 steps, is refused without calling cyclotomic.
    def never(k):
        raise AssertionError("cyclotomic called")

    monkeypatch.setattr(cyclo, "cyclotomic", never)
    m = 2**89 - 1
    with pytest.raises(ValueError, match=f"need at least {m} coordinates"):
        cyclo._field_data.__wrapped__(m)
    monkeypatch.setattr(cyclo, "MAX_FIELD_TABLE", 96)
    with pytest.raises(ValueError, match="need at least 97 coordinates"):
        cyclo._field_data.__wrapped__(97)


def test_huge_moduli_are_refused_before_allocation():
    # The powers of zeta_(10^9) would take at least 10^9 ints and those
    # of zeta_20000 160,000,000.  Under a 512 MB address space a
    # regression fails the test instead of exhausting memory.
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
from cmscan.cyclo import CycloNumber
for m in (10**9, 20000):
    try:
        CycloNumber.zero(m)
    except ValueError as exc:
        print(exc)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "the powers of zeta_1000000000 need at least 1000000000 coordinates; "
        "the limit is 4194304",
        "the powers of zeta_20000 need 160000000 coordinates; "
        "the limit is 4194304"]


# -- bounded caches ---------------------------------------------------------

def test_zeta_reduces_the_exponent_before_caching():
    # zeta_m^e is read from the cached table of powers at e mod m.
    assert CycloNumber.zeta(7, 3) == CycloNumber.zeta(7, 7 * 10**12 + 3)
    assert CycloNumber.zeta(7, -4) == CycloNumber.zeta(7, 3)
    assert CycloNumber.zeta(7, -4).num is cyclo._field_data(7)[1][3]


def test_caches_are_bounded():
    for m in range(1, cyclo.FIELD_CACHE_SIZE + 20):
        CycloNumber.zeta(m, 1)
    assert cyclo._field_data.cache_info().maxsize == cyclo.FIELD_CACHE_SIZE
    assert cyclo._field_data.cache_info().currsize <= cyclo.FIELD_CACHE_SIZE
    # Evicted tables are rebuilt on demand and agree with the oracle.
    assert_agrees(CycloNumber.zeta(12, 5) * CycloNumber.zeta(12, 9),
                  oracle.CycloNumber.zeta(12, 2))
