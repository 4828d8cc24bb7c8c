import subprocess
import sys
from fractions import Fraction

import pytest

from cmscan import g4
from cmscan.cyclo import CycloNumber
from cmscan.polycore import VerificationError
from quaternion_oracle import FracQuaternion


@pytest.fixture(scope="module")
def group():
    return g4.build_g4()


class TestQuaternions:
    def test_hamilton_products(self):
        assert g4.I * g4.J == g4.K
        assert g4.J * g4.I == -g4.K
        assert g4.I * g4.I == -g4.ONE
        assert g4.K * g4.I == g4.J

    def test_inverse_and_norm(self):
        for q in (g4.I, g4.S1, g4.T3):
            assert q * q.conjugate() == g4.ONE == q.conjugate() * q

    def test_orders(self):
        assert g4.ONE.order() == 1
        assert (-g4.ONE).order() == 2
        assert g4.S1.order() == 3
        assert g4.T1.order() == 3
        assert g4.I.order() == 4
        assert (-g4.T1).order() == 6
        with pytest.raises(VerificationError, match="exceeds 24"):
            g4.Quaternion(4, 0, 0, 0).order()

    def test_mixed_parity_is_refused(self):
        for coords in ((1, 0, 0, 0), (2, 1, 1, 1), (0, 0, 0, 1)):
            with pytest.raises(ValueError, match="mixes parities"):
                g4.Quaternion(*coords)
        assert g4.Quaternion(3, 1, -1, 1).render() == "(3+i-j+k)/2"
        assert g4.Quaternion(0, 4, 0, -2).render() == "2i-k"

    def test_matrix_is_homomorphic(self):
        a, b = g4.S1, g4.T2
        import cmscan.linalg as linalg
        assert (a * b).matrix() == linalg.mat_mul(a.matrix(), b.matrix())

    def test_render(self):
        assert g4.I.render() == "i"
        assert (-g4.ONE).render() == "-1"
        assert g4.S1.render() == "(-1+i+j-k)/2"


class TestGroupStructure:
    def test_order_24(self, group):
        assert len(group.elements) == 24

    def test_class_sizes_and_orders(self, group):
        assert tuple(len(c) for c in group.classes) == g4.CLASS_SIZES
        for cls, order in zip(group.classes, g4.CLASS_ORDERS):
            assert all(q.order() == order for q in cls)

    def test_central_involution_is_its_own_class(self, group):
        assert group.classes[1] == (-g4.ONE,)
        assert (-g4.ONE).order() == 2

    def test_reflection_class_membership(self, group):
        assert set(group.classes[2]) == {g4.S1, g4.S2, g4.S3, g4.S4}
        assert set(group.classes[3]) == {g4.T1, g4.T2, g4.T3, g4.T4}
        assert set(group.classes[4]) == {g4.I, g4.J, g4.K,
                                         -g4.I, -g4.J, -g4.K}

    def test_presentation_and_products(self, group):
        g4.presentation_check(group)
        g4.class_product_check(group)

    def test_class_index_is_conjugation_invariant(self, group):
        for q in group.elements:
            k = group.class_index(g4.S1)
            assert group.class_index(q * g4.S1 * q.conjugate()) == k


class TestCharacterTable:
    def test_orthogonality(self):
        g4.orthogonality_check()

    def test_degrees(self):
        dims = sorted(int(row[0].as_rational())
                      for row in g4.CHARACTER_TABLE.values())
        assert dims == [1, 1, 1, 2, 2, 2, 3]
        assert sum(d * d for d in dims) == 24

    def test_quaternion_traces_match_table(self, group):
        g4.trace_consistency_check(group)

    def test_decompose_regular(self):
        reg = g4.class_function((24, 0, 0, 0, 0, 0, 0))
        assert g4.decompose(reg) == {"T": 1, "V1": 1, "V2": 1, "W": 2,
                                     "h": 2, "h*": 2, "U": 3}

    def test_decompose_rejects_non_virtual(self):
        with pytest.raises(ValueError, match="virtual"):
            g4.decompose(g4.class_function((1, 0, 0, 0, 0, 0, 0)))

    def test_inner_product_normalisation(self):
        chi = g4.CHARACTER_TABLE["h"]
        assert g4.inner_product(chi, chi) == CycloNumber.one(3)


class TestModuleShapes:
    def test_endomorphism_decompositions(self):
        absent = g4.summand_absence_check()
        assert absent == {"End(E)": 0, "End(F)": 0}

    def test_e_and_f_characters(self):
        assert g4.E_CHARACTER[0] == CycloNumber.from_rational(3, 12)
        assert g4.E_CHARACTER[1] == CycloNumber.from_rational(3, 12)
        assert g4.F_CHARACTER[0] == CycloNumber.from_rational(3, 6)
        assert g4.F_CHARACTER[1] == CycloNumber.from_rational(3, -6)
        assert all(v.is_zero() for v in g4.E_CHARACTER[2:])
        assert all(v.is_zero() for v in g4.F_CHARACTER[2:])

    @pytest.mark.parametrize("n,m,want", [(12, 12, (1, 0)), (6, -6, (0, 1)),
                                          (24, 0, (1, 2)), (18, 6, (1, 1))])
    def test_solver_round_trips(self, n, m, want):
        assert g4.solve_ef_multiplicities(n, m) == want

    @pytest.mark.parametrize("n,m", [(1, 2), (12, 11), (13, 13), (-12, -12),
                                     (6, 6)])
    def test_solver_rejects_infeasible(self, n, m):
        assert g4.solve_ef_multiplicities(n, m) is None

    def test_admissible_shapes(self):
        shapes = g4.admissible_shapes()
        assert len(shapes) == 8
        survivors = {(s.a, s.b) for s in shapes if not s.eliminated}
        assert survivors == {(1, 1), (1, 2)}
        regular = next(s for s in shapes if (s.a, s.b) == (1, 2))
        assert regular.dim == 24
        assert "regular representation" in regular.render()

    def test_tensor_positivity(self):
        g4.tensor_positivity_check()


class TestReflectionRepresentation:
    def test_homomorphism(self, group):
        g4.homomorphism_check(group)

    def test_form_sums_are_twice_omega(self, group):
        assert g4.reflection_form_check(group) == {
            "Cl3": Fraction(2), "Cl4": Fraction(2)}

    @staticmethod
    def conjugate_matrices(monkeypatch, members):
        """Patch reflection_matrix to conjugate the matrices of
        ``members``, which turns eigenvalue omega into omega^2."""
        real = g4.reflection_matrix

        def patched(grp, q):
            rho = real(grp, q)
            if q not in members:
                return rho
            return tuple(tuple(x.conj() for x in row) for row in rho)
        monkeypatch.setattr(g4, "reflection_matrix", patched)

    def check_fails(self, group, message):
        with pytest.raises(VerificationError) as info:
            g4.reflection_form_check(group)
        assert str(info.value) == message

    def test_wrong_eigenvalue_is_caught(self, group, monkeypatch):
        self.conjugate_matrices(monkeypatch, group.elements)
        self.check_fails(group, "Cl3: members do not have the class's eigenvalue")

    def test_mixed_eigenvalues_are_caught(self, group, monkeypatch):
        self.conjugate_matrices(monkeypatch, group.classes[3][:1])
        self.check_fails(
            group, "Cl4: reflections summed together must share their eigenvalue")

    def test_closed_form_is_checked(self, group, monkeypatch):
        # Label Cl3 by 2 * omega, no root of unity, with the members' t
        # patched to match it: only the closed form can fail.
        real_zeta, real_sum = CycloNumber.zeta, g4.linalg.reflection_sum
        bad = real_zeta(12, 4) * 2
        monkeypatch.setattr(CycloNumber, "zeta", staticmethod(
            lambda m, e=1: bad if (m, e) == (12, 4) else real_zeta(m, e)))
        monkeypatch.setattr(g4.linalg, "reflection_sum", lambda mats, m: (
            real_sum(mats, m)[0], CycloNumber.one(12) - bad))
        self.check_fails(
            group, "Cl3: closed form disagrees with the computed scalar")

    def test_partial_class_is_caught(self, group):
        classes = group.classes[:3] + (group.classes[3][:2],) + group.classes[4:]
        self.check_fails(group._replace(classes=classes),
                         "Cl4: class sum is not proportional to omega")


class TestBattery:
    def test_runs_clean(self):
        results = g4.run_battery()
        names = [name for name, _ in results]
        assert len(results) == 13
        assert names[0] == "group order"
        assert "aE + bF solver" in names
        assert all(detail for _, detail in results)

    def test_corrupted_table_raises_under_optimize(self):
        # V1 overwritten by V2 breaks row orthogonality; the battery
        # raises VerificationError explicitly, so python -O, which strips
        # asserts, still catches it.
        code = """
from cmscan import g4
from cmscan.polycore import VerificationError
g4.CHARACTER_TABLE["V1"] = g4.CHARACTER_TABLE["V2"]
print("__debug__ =", __debug__)
try:
    g4.run_battery()
except VerificationError as exc:
    print("VerificationError:", exc)
else:
    print("battery passed")
"""
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "__debug__ = False",
            "VerificationError: rows V1 and V2 are not orthonormal"]


class TestCayleyTable:
    """The group's multiplication, read from quaternion products."""

    def test_products_match_fraction_oracle(self, group):
        # All 576 products and every rendering agree with the
        # Fraction-coordinate quaternions.
        frac = {q: FracQuaternion.from_hurwitz(q) for q in group.elements}
        for x in group.elements:
            assert x.render() == frac[x].render()
            for y in group.elements:
                assert FracQuaternion.from_hurwitz(x * y) == frac[x] * frac[y]

    def test_orders_match_powers(self, group):
        for cls, order in zip(group.classes, g4.CLASS_ORDERS):
            assert {q.order() for q in cls} == {order}

    def test_class_index_matches_membership(self, group):
        for q in group.elements:
            want = [idx for idx, cls in enumerate(group.classes) if q in cls]
            assert [group.class_index(q)] == want
        outsider = g4.Quaternion(4, 0, 0, 0)
        with pytest.raises(ValueError, match="not a group element"):
            group.class_index(outsider)

    def test_classes_are_conjugation_orbits(self, group):
        for cls in group.classes:
            q = cls[0]
            assert set(cls) == {x * q * x.conjugate() for x in group.elements}

    def test_checks_raise_under_optimize(self):
        # Each corruption trips one _require of build_g4,
        # presentation_check or class_product_check, which raise
        # VerificationError explicitly and so also run under python -O.
        code = """
from cmscan import g4
from cmscan.polycore import VerificationError

def attempt(label, fn, *patches):
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        fn()
    except VerificationError as exc:
        print(label, "VerificationError:", exc)
    else:
        print(label, "passed")
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)

def product(pair, value):
    real = g4.Quaternion.__mul__
    return (g4.Quaternion, "__mul__",
            lambda a, b: value if (a, b) == pair else real(a, b))

def swapped(group, i, j):
    classes = list(group.classes)
    classes[i], classes[j] = classes[j], classes[i]
    return group._replace(classes=tuple(classes))

print("__debug__ =", __debug__)
Q = g4.Quaternion
attempt("closure", g4.build_g4, product((g4.I, g4.J), Q(4, 0, 0, 0)))
attempt("generation", g4.build_g4, (g4, "S2", g4.S1))
attempt("units", g4.build_g4, (Q, "conjugate", lambda q: q))
attempt("representatives", g4.build_g4, (g4, "T2", g4.T1))
attempt("sizes", g4.build_g4, (g4, "CLASS_SIZES", (1, 1, 4, 4, 4, 6, 4)))
attempt("orders", g4.build_g4,
        (g4, "CLASS_ORDERS", g4.CLASS_ORDERS[:-1] + (3,)))
attempt("Cl3", g4.build_g4, (g4, "S3", g4.T3))
attempt("Cl4", g4.build_g4, (g4, "T3", g4.S3))
attempt("Cl5", g4.build_g4, (g4, "K", g4.I))

group = g4.build_g4()
s1s2 = g4.S1 * g4.S2
real_order = Q.order
present = lambda grp=group: g4.presentation_check(grp)
attempt("presentation", present, (Q, "order", lambda q: 1))
attempt("presentation", present,
        (Q, "order", lambda q: 3 if q == s1s2 else real_order(q)))
attempt("presentation", present, product((g4.I, g4.J), -g4.K))
attempt("presentation", present, product((g4.S1, g4.T1), -g4.ONE))
attempt("presentation", lambda: present(
    group._replace(elements=group.elements[:-1])))
for i, j in ((5, 6), (1, 4), (1, 5), (2, 3)):
    attempt("products", lambda: g4.class_product_check(swapped(group, i, j)))
attempt("clean", lambda: (g4.presentation_check(group),
                          g4.class_product_check(group)))
"""
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "__debug__ = False",
            "closure VerificationError: not closed",
            "generation VerificationError: s1, s2 must generate all 24 elements",
            "units VerificationError: every element times its conjugate must be 1",
            "representatives VerificationError: the representatives must lie "
            "in 7 distinct classes",
            "sizes VerificationError: class sizes differ from CLASS_SIZES",
            "orders VerificationError: element orders differ from CLASS_ORDERS",
            "Cl3 VerificationError: Cl3 is not {s1..s4}",
            "Cl4 VerificationError: Cl4 is not {t1..t4}",
            "Cl5 VerificationError: Cl5 is not {+-i, +-j, +-k}",
            "presentation VerificationError: s1, s2 must have order 3",
            "presentation VerificationError: s1*s2 must have order 6",
            "presentation VerificationError: i*j must be k",
            "presentation VerificationError: t1 must invert s1",
            "presentation VerificationError: s1, s2 must generate the group",
            "products VerificationError: s1*(-1+i-j+k)/2 not in Cl7",
            "products VerificationError: s1*(-1+i-j-k)/2 not in Cl5",
            "products VerificationError: t1*(-1+i-j-k)/2 not in Cl6",
            "products VerificationError: t1^2 not in Cl3",
            "clean passed"]
