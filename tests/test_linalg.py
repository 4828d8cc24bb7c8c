import random
import subprocess
import sys
from fractions import Fraction

import pytest

import linalg_oracle as oracle
from battery import configured_groups
from cmscan import g4, groups, linalg
from cmscan.cyclo import CycloNumber
from cmscan.fakedeg import GroupSpec
from cmscan.polycore import VerificationError


def c(m, value):
    return CycloNumber.from_rational(m, value)


def zmat(m, rows):
    return tuple(tuple(c(m, v) if not isinstance(v, CycloNumber) else v
                       for v in row) for row in rows)


def test_invert_round_trip():
    m = 3
    z = CycloNumber.zeta(m, 1)
    a = zmat(m, [[1, z, 0], [z, 1 + z, 1], [0, 1, 2]])
    ainv = oracle.invert(a, m)
    assert linalg.mat_mul(a, ainv) == linalg.identity(3, m)
    assert linalg.mat_mul(ainv, a) == linalg.identity(3, m)


def test_singular_matrix_rejected():
    m = 3
    z = CycloNumber.zeta(m, 1)
    sing = ((CycloNumber.one(m), z), (z, z * z))
    with pytest.raises(ValueError):
        oracle.invert(sing, m)


def test_rank_and_kernel():
    m = 3
    z = CycloNumber.zeta(m, 1)
    sing = ((CycloNumber.one(m), z), (z, z * z))
    assert oracle.rank(sing) == 1
    basis = oracle.kernel_basis(sing, m)
    assert len(basis) == 1
    assert all(v.is_zero() for v in oracle.mat_vec(sing, basis[0]))


def test_sparse_rank_early_exit():
    m = 4
    rows = [{0: CycloNumber.one(m)}, {1: CycloNumber.one(m)},
            {2: CycloNumber.one(m)}]
    assert oracle.sparse_rank([dict(r) for r in rows]) == 3
    assert oracle.sparse_rank([dict(r) for r in rows], stop_at=2) == 2


def test_projection_properties():
    m = 4
    i = CycloNumber.zeta(m, 1)
    s = zmat(m, [[i, 0], [0, 1]])
    b = linalg.mat_sub(linalg.identity(2, m), s)
    p = oracle.projection_onto_image(b, m)
    assert linalg.mat_mul(p, p) == p
    assert linalg.mat_mul(p, b) == b
    assert oracle.rank(p) == oracle.rank(b)


def test_symplectic_form_matrix_pairing():
    m = 2
    j = oracle.symplectic_form_matrix(2, m)
    # x^T J y with x in h, y in h*: omega(e_i, e*_i) = -1, omega(e*_i, e_i) = 1
    x = (c(m, 1), c(m, 0), c(m, 0), c(m, 0))
    y = (c(m, 0), c(m, 0), c(m, 1), c(m, 0))
    assert oracle.pairing(j, x, y) == c(m, -1)
    assert oracle.pairing(j, y, x) == c(m, 1)


def test_symplectic_extension_preserves_form():
    # diag(a, (a^-1)^T) is a symplectic map: S^T J S = J
    m = 12
    z = CycloNumber.zeta(m, 1)
    a = zmat(m, [[1, z], [0, z * z]])
    s = oracle.symplectic_extension(a, m)
    j = oracle.symplectic_form_matrix(2, m)
    assert linalg.mat_mul(oracle.transpose(s), linalg.mat_mul(j, s)) == j


def test_restricted_form_of_diagonal_reflection():
    # s = diag(-1, 1) acting on h + h*: the restricted form pairs only
    # the (h_0, h*_0) plane.
    m = 2
    s = zmat(m, [[-1, 0], [0, 1]])
    expected = zmat(m, [[0, 0, -1, 0], [0, 0, 0, 0],
                        [1, 0, 0, 0], [0, 0, 0, 0]])
    assert oracle.gram(*linalg.reflection_sum((s,), m)) == expected
    ext = oracle.symplectic_extension(s, m)
    assert oracle.restricted_form_matrix(ext, m) == expected


# Groups whose every reflection is compared with the generic pipeline:
# diagonal and transposition-type reflections, p = 1, 1 < p < m and
# p = m, ranks 2 to 4.
GRID = [(2, 1, 2), (3, 1, 2), (4, 2, 2), (3, 3, 2), (4, 4, 2), (6, 2, 2),
        (6, 3, 2), (2, 1, 3), (2, 2, 3), (3, 3, 3), (1, 1, 4), (2, 2, 4)]


def oracle_form(s, m):
    return oracle.restricted_form_matrix(oracle.symplectic_extension(s, m), m)


def reflection_form(s, m):
    """omega_s as the Gram matrix built from ``reflection_sum``."""
    return oracle.gram(*linalg.reflection_sum((s,), m))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(rx, ry)) for rx, ry in zip(a, b))


@pytest.mark.parametrize("spec", GRID)
def test_reflection_form_matches_generic_pipeline(spec):
    g = GroupSpec(*spec)
    reflections = [w for w in oracle.elements(g) if oracle.is_reflection(w)]
    assert reflections
    for w in reflections:
        s = w.matrix()
        assert reflection_form(s, g.m) == oracle_form(s, g.m), w


def test_reflection_form_matches_generic_pipeline_on_g4():
    group = g4.build_g4()
    for index in (2, 3):  # Cl3 and Cl4
        for q in group.classes[index]:
            rho = g4.reflection_matrix(group, q)
            assert reflection_form(rho, 12) == oracle_form(rho, 12), q


@pytest.mark.parametrize("rows", [
    [[-1, 0], [0, -1]],   # rank(1 - s) = 2
    [[1, 0], [0, 1]],     # rank(1 - s) = 0
    [[1, 1], [0, 1]],     # rank one, but 1 - s is nilpotent
])
def test_reflection_form_rejects_non_reflections(rows):
    with pytest.raises(VerificationError, match="not a reflection"):
        linalg.reflection_sum((zmat(2, rows),), 2)


def test_reflection_form_rejects_non_reflection_under_optimize():
    code = """
from cmscan import linalg
from cmscan.cyclo import CycloNumber
from cmscan.polycore import VerificationError
minus, zero = CycloNumber.from_rational(2, -1), CycloNumber.zero(2)
try:
    linalg.reflection_sum((((minus, zero), (zero, minus)),), 2)
except VerificationError as exc:
    print("VerificationError:", exc)
print("__debug__ =", __debug__)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "__debug__ = False"
    assert proc.stdout.startswith("VerificationError:")


def random_sparse(rng, m, rows, cols):
    """A matrix over Q(zeta_m) with about two thirds of its entries zero;
    some nonzero-looking entries cancel to zero too."""
    def entry():
        acc = CycloNumber.zero(m)
        for _ in range(rng.choice((0, 0, 1, 2))):
            acc = acc + CycloNumber.zeta(m, rng.randrange(m)) * Fraction(
                rng.randint(-3, 3), rng.randint(1, 4))
        return acc
    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


def unskipped_mul(a, b, m):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)),
                           CycloNumber.zero(m)) for col in zip(*b))
                 for row in a)


@pytest.mark.parametrize("m", [1, 3, 4, 5, 12])
def test_sparse_kernels_match_unskipped_arithmetic(m):
    # mat_mul, mat_sub and scalar_mul skip zero entries; the results must
    # equal the plain products and differences entry for entry.
    rng = random.Random(7000 + m)
    for rows, inner, cols in [(1, 1, 1), (2, 3, 2), (4, 4, 4), (5, 2, 5),
                              (3, 6, 1)] * 3:
        a = random_sparse(rng, m, rows, inner)
        b = random_sparse(rng, m, inner, cols)
        assert linalg.mat_mul(a, b) == unskipped_mul(a, b, m)
        a2 = random_sparse(rng, m, rows, inner)
        assert linalg.mat_sub(a, a2) == tuple(
            tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, a2))
        scalar = random_sparse(rng, m, 1, 1)[0][0]
        assert linalg.scalar_mul(scalar, a) == tuple(
            tuple(scalar * x for x in row) for row in a)


@pytest.mark.parametrize("spec", [(3, 1, 2), (4, 2, 3), (6, 6, 2), (2, 2, 4)])
def test_reflection_form_sum_is_the_sum_of_oracle_forms(spec):
    g = GroupSpec(*spec)
    one = CycloNumber.one(g.m)
    for cls in groups.reflection_classes(g):
        mats = [w.matrix() for w in cls.elements]
        total, t = linalg.reflection_sum(mats, g.m)
        want = oracle_form(mats[0], g.m)
        for s in mats[1:]:
            want = mat_add(want, oracle_form(s, g.m))
        assert oracle.gram(total, t) == want, (g, cls.zeta)
        assert t == one - cls.zeta


def test_reflection_form_sum_on_g4_classes():
    group = g4.build_g4()
    for index in (2, 3):  # Cl3 and Cl4
        mats = [g4.reflection_matrix(group, q) for q in group.classes[index]]
        want = oracle_form(mats[0], 12)
        for s in mats[1:]:
            want = mat_add(want, oracle_form(s, 12))
        assert oracle.gram(*linalg.reflection_sum(mats, 12)) == want


def test_reflection_form_sum_rejects_mixed_eigenvalues_and_no_members():
    minus = zmat(3, [[-1, 0], [0, 1]])
    zeta = zmat(3, [[1, 0], [0, CycloNumber.zeta(3)]])
    with pytest.raises(VerificationError, match="share their eigenvalue"):
        linalg.reflection_sum([minus, zeta], 3)
    with pytest.raises(ValueError, match="no reflections"):
        linalg.reflection_sum([], 3)


@pytest.mark.parametrize("spec", [(3, 1, 2), (4, 2, 3), (6, 6, 2), (2, 2, 4)])
def test_scalar_sum_is_exactly_a_multiple_of_omega(spec):
    # The Gram matrix of a sum of forms is lambda * J exactly when the
    # sum of 1 - s is lambda * t * I: on every class (lambda = k/n) and
    # on every proper part of one (the sum is not scalar there).
    g = GroupSpec(*spec)
    j = oracle.symplectic_form_matrix(g.n, g.m)
    ident = linalg.identity(g.n, g.m)
    for cls in groups.reflection_classes(g):
        mats = [w.matrix() for w in cls.elements]
        for k in range(1, len(mats) + 1):
            total, t = linalg.reflection_sum(mats[:k], g.m)
            lam = Fraction(k, g.n)
            form = oracle.gram(total, t)
            scalar = total == linalg.scalar_mul(t * lam, ident)
            assert scalar == (k == len(mats)), (g, cls.zeta, k)
            assert (form == linalg.scalar_mul(c(g.m, lam), j)) == scalar


def test_class_form_scalar_checks_the_count():
    # k/n * t * I has trace k * t while the sum has trace (members) * t,
    # so a k that does not count the reflections fails the last check.
    g = GroupSpec(5, 1, 2)
    cls = groups.reflection_classes(g)[0]
    mats = [w.matrix() for w in cls.elements]
    assert linalg.class_form_scalar(mats, 2, cls.zeta, "G") == 1
    for k in (1, 3):
        with pytest.raises(VerificationError, match="^G: class sum is not "
                           "proportional to omega$"):
            linalg.class_form_scalar(mats, k, cls.zeta, "G")


def test_class_sums_take_no_field_inverse(monkeypatch):
    # The criterion-4 battery and the G4 form sums run with division in
    # Q(zeta_m) disabled: every check is a product or a comparison.
    battery = [g for g in configured_groups(max_order=2000)
               if groups.is_irreducible_natural(g)]
    group = g4.build_g4()

    def refuse(*args):
        raise AssertionError("a class-sum check divided in Q(zeta_m)")
    monkeypatch.setattr(CycloNumber, "inverse", refuse)
    monkeypatch.setattr(CycloNumber, "__truediv__", refuse)
    for g in battery:
        for cls in groups.reflection_classes(g):
            assert groups.omega_class_sum(g, cls) == Fraction(cls.size, g.n)
    assert g4.reflection_form_check(group) == {
        "Cl3": Fraction(2), "Cl4": Fraction(2)}
