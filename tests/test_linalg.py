import subprocess
import sys

import pytest

import linalg_oracle as oracle
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
    j = linalg.symplectic_form_matrix(2, m)
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
    j = linalg.symplectic_form_matrix(2, m)
    assert linalg.mat_mul(oracle.transpose(s), linalg.mat_mul(j, s)) == j


def test_restricted_form_of_diagonal_reflection():
    # s = diag(-1, 1) acting on h + h*: the restricted form pairs only
    # the (h_0, h*_0) plane.
    m = 2
    s = zmat(m, [[-1, 0], [0, 1]])
    expected = zmat(m, [[0, 0, -1, 0], [0, 0, 0, 0],
                        [1, 0, 0, 0], [0, 0, 0, 0]])
    assert linalg.reflection_form(s, m) == expected
    ext = oracle.symplectic_extension(s, m)
    assert oracle.restricted_form_matrix(ext, m) == expected


# Groups whose every reflection is compared with the generic pipeline:
# diagonal and transposition-type reflections, p = 1, 1 < p < m and
# p = m, ranks 2 to 4.
GRID = [(2, 1, 2), (3, 1, 2), (4, 2, 2), (3, 3, 2), (4, 4, 2), (6, 2, 2),
        (6, 3, 2), (2, 1, 3), (2, 2, 3), (3, 3, 3), (1, 1, 4), (2, 2, 4)]


def oracle_form(s, m):
    return oracle.restricted_form_matrix(oracle.symplectic_extension(s, m), m)


@pytest.mark.parametrize("spec", GRID)
def test_reflection_form_matches_generic_pipeline(spec):
    g = GroupSpec(*spec)
    reflections = [w for w in groups.elements(g) if groups.is_reflection(w)]
    assert reflections
    for w in reflections:
        s = w.matrix()
        assert linalg.reflection_form(s, g.m) == oracle_form(s, g.m), w


def test_reflection_form_matches_generic_pipeline_on_g4():
    group = g4.build_g4()
    for index in (2, 3):  # Cl3 and Cl4
        for q in group.classes[index]:
            rho = g4.reflection_matrix(group, q)
            assert linalg.reflection_form(rho, 12) == oracle_form(rho, 12), q


@pytest.mark.parametrize("rows", [
    [[-1, 0], [0, -1]],   # rank(1 - s) = 2
    [[1, 0], [0, 1]],     # rank(1 - s) = 0
    [[1, 1], [0, 1]],     # rank one, but 1 - s is nilpotent
])
def test_reflection_form_rejects_non_reflections(rows):
    with pytest.raises(VerificationError, match="not a reflection"):
        linalg.reflection_form(zmat(2, rows), 2)


def test_reflection_form_rejects_non_reflection_under_optimize():
    code = """
from cmscan import linalg
from cmscan.cyclo import CycloNumber
from cmscan.polycore import VerificationError
minus, zero = CycloNumber.from_rational(2, -1), CycloNumber.zero(2)
try:
    linalg.reflection_form(((minus, zero), (zero, minus)), 2)
except VerificationError as exc:
    print("VerificationError:", exc)
print("__debug__ =", __debug__)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "__debug__ = False"
    assert proc.stdout.startswith("VerificationError:")


def test_proportionality_scalar():
    m = 3
    j = linalg.symplectic_form_matrix(1, m)
    doubled = linalg.scalar_mul(c(m, 2), j)
    assert linalg.proportionality_scalar(doubled, j) == c(m, 2)
    zero = linalg.scalar_mul(c(m, 0), j)
    assert linalg.proportionality_scalar(zero, j) == c(m, 0)
    skewed = zmat(m, [[0, 1], [1, 0]])
    assert linalg.proportionality_scalar(skewed, j) is None
    offset = zmat(m, [[1, -1], [1, 0]])
    assert linalg.proportionality_scalar(offset, j) is None
