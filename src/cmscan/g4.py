"""The binary tetrahedral group as unit quaternions, its character
table, and the trace/form identities behind generic smoothness of its
Calogero-Moser space.

The 24 elements are +-1, +-i, +-j, +-k and the sixteen half-quaternions
(+-1 +- i +- j +- k)/2, the units of the Hurwitz integers; each is
stored as four ints, twice its coordinates.  Class functions live over
Q(omega); the reflection representation h is realized as the V1-twist
of the quaternionic 2x2 matrices, with entries in Q(zeta_12) where Q(i)
and Q(omega) must mix.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .cyclo import CycloNumber
from .polycore import VerificationError

__all__ = [
    "Quaternion", "G4", "build_g4", "ROW_NAMES", "decompose",
    "inner_product", "solve_ef_multiplicities", "admissible_shapes",
    "ModuleShape", "reflection_form_check", "run_battery",
]


def _require(ok: bool, detail: str) -> None:
    """Raise VerificationError(detail) unless ok; unlike assert, the
    check also runs under python -O."""
    if not ok:
        raise VerificationError(detail)


class Quaternion(namedtuple("Quaternion", "a b c d")):
    """The Hurwitz quaternion (a + b i + c j + d k)/2: a, b, c, d are
    ints of one parity, twice the real coordinates."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> Quaternion:
        if not a % 2 == b % 2 == c % 2 == d % 2:
            raise ValueError(f"{(a, b, c, d)} mixes "
                             "parities: not a Hurwitz quaternion")
        return super().__new__(cls, a, b, c, d)

    def __mul__(self, other: Quaternion) -> Quaternion:
        # Stored x = 2p and y = 2q multiply to x*y = 2 * (2pq), and 2pq has
        # int coordinates because the Hurwitz quaternions are closed under
        # multiplication: the halving is exact.
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quaternion(
            (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2) // 2,
            (a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2) // 2,
            (a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2) // 2,
            (a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2) // 2,
        )

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def conjugate(self) -> Quaternion:
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def order(self) -> int:
        power = self
        for k in range(1, 25):
            if power == ONE:
                return k
            power = power * self
        raise VerificationError("element order exceeds 24")

    def matrix(self) -> linalg.Matrix:
        """2x2 matrix [[x+yi, z+wi], [-z+wi, x-yi]] of x + y i + z j + w k,
        over Q(zeta_12)."""
        i = CycloNumber.zeta(12, 3)
        a, b, c, d = (CycloNumber.from_rational(12, Fraction(x, 2))
                      for x in (self.a, self.b, self.c, self.d))
        return ((a + b * i, c + d * i), (-c + d * i, a - b * i))

    def render(self) -> str:
        scale = 1 if self.a % 2 else 2
        terms: list[str] = []
        for x, sym in zip((self.a, self.b, self.c, self.d), ("", "i", "j", "k")):
            if x:
                mag = abs(x) // scale
                body = ("" if mag == 1 and sym else str(mag)) + sym
                terms.append(("-" if x < 0 else "+" if terms else "") + body)
        text = "".join(terms) or "0"
        return text if scale == 2 else f"({text})/2"

    def __str__(self) -> str:
        return self.render()


ONE = Quaternion(2, 0, 0, 0)
I = Quaternion(0, 2, 0, 0)
J = Quaternion(0, 0, 2, 0)
K = Quaternion(0, 0, 0, 2)

S1 = Quaternion(-1, 1, 1, -1)
S2 = Quaternion(-1, 1, -1, 1)
S3 = Quaternion(-1, -1, 1, 1)
S4 = Quaternion(-1, -1, -1, -1)
T1 = Quaternion(-1, -1, -1, 1)
T2 = Quaternion(-1, 1, -1, -1)
T3 = Quaternion(-1, -1, 1, -1)
T4 = Quaternion(-1, 1, 1, 1)

CLASS_SIZES = (1, 1, 4, 4, 6, 4, 4)
# Element orders per class; Cl2 = {-1} is the central involution, so its
# order is 2 (a size-1 class of order 1 could only be the identity class,
# and the W character separates Cl2 from Cl1).
CLASS_ORDERS = (1, 2, 3, 3, 4, 6, 6)
ROW_NAMES = ("T", "V1", "V2", "W", "h", "h*", "U")

ClassFunction = tuple  # 7 CycloNumber(3) values on Cl1..Cl7


def _omega_row(*spec) -> ClassFunction:
    """Row values given as ints or (coeff, omega_power) pairs."""
    out = []
    for entry in spec:
        if isinstance(entry, tuple):
            coeff, power = entry
            val = CycloNumber.zeta(3, power) * Fraction(coeff)
        else:
            val = CycloNumber.from_rational(3, entry)
        out.append(val)
    return tuple(out)


CHARACTER_TABLE: dict[str, ClassFunction] = {
    "T":  _omega_row(1, 1, 1, 1, 1, 1, 1),
    "V1": _omega_row(1, 1, (1, 2), (1, 1), 1, (1, 2), (1, 1)),
    "V2": _omega_row(1, 1, (1, 1), (1, 2), 1, (1, 1), (1, 2)),
    "W":  _omega_row(2, -2, -1, -1, 0, 1, 1),
    "h":  _omega_row(2, -2, (-1, 2), (-1, 1), 0, (1, 2), (1, 1)),
    "h*": _omega_row(2, -2, (-1, 1), (-1, 2), 0, (1, 1), (1, 2)),
    "U":  _omega_row(3, 3, 0, 0, -1, 0, 0),
}


class G4(namedtuple("G4", "elements classes")):
    """The group with its conjugacy classes labeled Cl1..Cl7: a tuple of
    Quaternions and a tuple of classes, each a tuple of Quaternions."""

    __slots__ = ()

    def class_index(self, q: Quaternion) -> int:
        for idx, cls in enumerate(self.classes):
            if q in cls:
                return idx
        raise ValueError(f"{q} is not a group element")


def _generated(gens) -> set[Quaternion]:
    """The closure of gens under multiplication."""
    group = set(gens)
    frontier = list(gens)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in group:
                    group.add(y)
                    fresh.append(y)
        frontier = fresh
    return group


def build_g4() -> G4:
    """Construct the 24 elements and label the seven conjugacy classes.

    The listed elements are checked to be closed under all 576 products,
    generated by s1 and s2, and units (x * conj(x) = 1), so the class of
    q is its orbit {x q conj(x)}.  Labels are pinned by representatives
    (1, -1, s1, t1, i, t1*t2, s1*s2): element order and quaternionic
    trace alone cannot separate Cl3 from Cl4 or Cl6 from Cl7.  Sizes,
    orders and the explicit element lists of Cl3, Cl4 and Cl5 are
    checked during construction.
    """
    # +-1, +-i, +-j, +-k, then the sixteen (+-1 +- i +- j +- k)/2.
    listed = [Quaternion(*(2 * sign if k == axis else 0 for k in range(4)))
              for axis in range(4) for sign in (1, -1)]
    listed += [Quaternion(*signs)
               for signs in itertools.product((1, -1), repeat=4)]
    members = set(listed)
    _require(all(x * y in members for x in listed for y in listed), "not closed")
    _require(_generated((S1, S2)) == members,
             "s1, s2 must generate all 24 elements")
    _require(all(x * x.conjugate() == ONE for x in listed),
             "every element times its conjugate must be 1")

    orbit_of: dict[Quaternion, tuple[Quaternion, ...]] = {}
    for q in listed:
        if q not in orbit_of:
            orbit = tuple(sorted({x * q * x.conjugate() for x in listed},
                                 key=lambda p: (p.a, p.b, p.c, p.d),
                                 reverse=True))
            orbit_of.update((p, orbit) for p in orbit)
    classes = tuple(orbit_of[rep]
                    for rep in (ONE, -ONE, S1, T1, I, T1 * T2, S1 * S2))
    _require(len(set(classes)) == 7,
             "the representatives must lie in 7 distinct classes")
    _require(tuple(len(c) for c in classes) == CLASS_SIZES,
             "class sizes differ from CLASS_SIZES")
    _require(all(q.order() == order
                 for cls, order in zip(classes, CLASS_ORDERS) for q in cls),
             "element orders differ from CLASS_ORDERS")
    _require(set(classes[2]) == {S1, S2, S3, S4}, "Cl3 is not {s1..s4}")
    _require(set(classes[3]) == {T1, T2, T3, T4}, "Cl4 is not {t1..t4}")
    _require(set(classes[4]) == {I, -I, J, -J, K, -K}, "Cl5 is not {+-i, +-j, +-k}")
    return G4(tuple(listed), classes)


def presentation_check(group: G4) -> None:
    """s1^3 = s2^3 = (s1 s2)^6 = 1, with the intermediate powers != 1."""
    _require(S1.order() == 3 and S2.order() == 3, "s1, s2 must have order 3")
    _require((S1 * S2).order() == 6, "s1*s2 must have order 6")
    _require(I * J == K, "i*j must be k")
    _require(S1 * T1 == ONE, "t1 must invert s1")
    _require(_generated((S1, S2)) == set(group.elements),
             "s1, s2 must generate the group")


def class_product_check(group: G4) -> None:
    """Membership facts used by the trace argument: products of the two
    reflection classes land in prescribed classes."""
    for t in (S2, S3, S4):
        _require(group.class_index(S1 * t) == 6, f"s1*{t} not in Cl7")
    for t in (T2, T3, T4):
        _require(group.class_index(S1 * t) == 4, f"s1*{t} not in Cl5")
    for t in (T2, T3, T4):
        _require(group.class_index(T1 * t) == 5, f"t1*{t} not in Cl6")
    _require(group.class_index(T1 * T1) == 2, "t1^2 not in Cl3")


# -- character arithmetic over Q(omega) ------------------------------------

def class_function(values) -> ClassFunction:
    """Lift 7 integers (or CycloNumbers over Q(omega)) to a class function."""
    out = []
    for v in values:
        out.append(v if isinstance(v, CycloNumber)
                   else CycloNumber.from_rational(3, v))
    if len(out) != 7:
        raise ValueError("class functions have 7 values")
    return tuple(out)


# conj(psi) * |C| / 24 for each row psi: <chi, psi> = sum chi * this.
_DUAL_ROWS = {name: tuple(y.conj() * Fraction(size, 24)
                          for size, y in zip(CLASS_SIZES, row))
              for name, row in CHARACTER_TABLE.items()}


def inner_product(chi: ClassFunction, psi: ClassFunction) -> CycloNumber:
    acc = CycloNumber.zero(3)
    for size, x, y in zip(CLASS_SIZES, chi, psi):
        acc = acc + x * y.conj() * Fraction(size)
    return acc * Fraction(1, 24)


def decompose(chi: ClassFunction) -> dict[str, int]:
    """Multiplicities against the table rows, <chi, psi> as chi times
    psi's dual row over the classes where chi is nonzero; rejects
    non-virtual input."""
    support = [(i, x) for i, x in enumerate(chi) if not x.is_zero()]
    out = {}
    for name in ROW_NAMES:
        dual = _DUAL_ROWS[name]
        mult = CycloNumber.zero(3)
        for i, x in support:
            mult = mult + x * dual[i]
        if not mult.is_rational():
            raise ValueError(f"not a virtual character: <chi, {name}> "
                             "is irrational")
        value = mult.as_rational()
        if value.denominator != 1:
            raise ValueError(f"not a virtual character: <chi, {name}> = {value}")
        out[name] = value.numerator
    return out


def pointwise_product(chi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    return tuple(x * y for x, y in zip(chi, psi))


def character_of(multiplicities: dict[str, int]) -> ClassFunction:
    acc = [CycloNumber.zero(3)] * 7
    for name, mult in multiplicities.items():
        row = CHARACTER_TABLE[name]
        acc = [a + v * Fraction(mult) for a, v in zip(acc, row)]
    return tuple(acc)


E_CHARACTER = character_of({"T": 1, "V1": 1, "V2": 1, "U": 3})
F_CHARACTER = character_of({"h": 1, "h*": 1, "W": 1})


def endomorphism_character(chi: ClassFunction) -> ClassFunction:
    return pointwise_product(chi, tuple(v.conj() for v in chi))


def orthogonality_check() -> None:
    rows = [CHARACTER_TABLE[name] for name in ROW_NAMES]
    one, zero = CycloNumber.one(3), CycloNumber.zero(3)
    for i, chi in enumerate(rows):
        for j, psi in enumerate(rows):
            want = one if i == j else zero
            _require(inner_product(chi, psi) == want,
                     f"rows {ROW_NAMES[i]} and {ROW_NAMES[j]} are not orthonormal")
    for ci in range(7):
        for cj in range(7):
            acc = CycloNumber.zero(3)
            for chi in rows:
                acc = acc + chi[ci] * chi[cj].conj()
            want = (CycloNumber.from_rational(3, Fraction(24, CLASS_SIZES[ci]))
                    if ci == cj else zero)
            _require(acc == want, f"columns Cl{ci + 1} and Cl{cj + 1} "
                     "fail column orthogonality")


def trace_consistency_check(group: G4) -> None:
    """Quaternionic 2x2 trace (= 2 * real part) matches the W row."""
    w_row = CHARACTER_TABLE["W"]
    for q in group.elements:
        value = w_row[group.class_index(q)].lift(12)
        mat = q.matrix()
        _require(mat[0][0] + mat[1][1] == value,
                 f"trace of {q} differs from the W row")


# -- the (n, m) -> aE + bF solver and the shape enumeration ----------------

def solve_ef_multiplicities(n: int, m: int) -> tuple[int, int] | None:
    """Solve chi = (n, m, 0, ..., 0) = a*chi_E + b*chi_F.

    a = (n + m)/24 and b = 2(n - m)/24; returns None unless both are
    nonnegative integers (then 12a + 6b = n and 12a - 6b = m).
    """
    a_num, b_num = n + m, 2 * (n - m)
    if a_num % 24 or b_num % 24:
        return None
    a, b = a_num // 24, b_num // 24
    if a < 0 or b < 0:
        return None
    _require(12 * a + 6 * b == n and 12 * a - 6 * b == m,
             f"({a}, {b}) does not solve ({n}, {m})")
    return a, b


class ModuleShape(namedtuple("ModuleShape", "a b eliminated")):
    """One candidate aE + bF with the End-summand facts that decide it."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return 12 * self.a + 6 * self.b

    def render(self) -> str:
        e_part = [] if self.a == 0 else [f"{self.a if self.a > 1 else ''}E"]
        f_part = [] if self.b == 0 else [f"{self.b if self.b > 1 else ''}F"]
        name = " + ".join(e_part + f_part)
        if (self.a, self.b) == (1, 2):
            name += " (regular representation)"
        status = "eliminated" if self.eliminated else "admissible"
        return f"{name}: dim {self.dim}, {status}"


def admissible_shapes() -> tuple[ModuleShape, ...]:
    """All nonzero aE + bF with dim <= 24, flagged by the trace argument.

    A shape is eliminated exactly when h and h* both have multiplicity 0
    in End(aE + bF): then h + h* acts as zero and the commutation
    relation collapses to 0 = 2(c1 + c2) omega(x, y), impossible for
    generic parameters.  Only E + F and the regular representation
    E + 2F survive.
    """
    shapes = []
    for a in range(3):
        for b in range(5):
            if (a, b) == (0, 0) or 12 * a + 6 * b > 24:
                continue
            chi = tuple(x * Fraction(a) + y * Fraction(b)
                        for x, y in zip(E_CHARACTER, F_CHARACTER))
            mults = decompose(endomorphism_character(chi))
            eliminated = mults["h"] == 0 and mults["h*"] == 0
            shapes.append(ModuleShape(a, b, eliminated))
    shapes.sort(key=lambda s: (s.dim, s.b))
    _require(len(shapes) == 8, f"{len(shapes)} candidate shapes, not 8")
    _require({(s.a, s.b) for s in shapes if not s.eliminated} == {(1, 1), (1, 2)},
             "survivors are not E + F and E + 2F")
    return tuple(shapes)


def summand_absence_check() -> dict[str, int]:
    """h and h* are absent from End(E) and End(F); the full published
    decompositions are checked."""
    end_e = decompose(endomorphism_character(E_CHARACTER))
    end_f = decompose(endomorphism_character(F_CHARACTER))
    _require(end_e == {"T": 12, "V1": 12, "V2": 12, "W": 0,
                       "h": 0, "h*": 0, "U": 36}, f"End(E) = {end_e}")
    _require(end_f == {"T": 3, "V1": 3, "V2": 3, "W": 0,
                       "h": 0, "h*": 0, "U": 9}, f"End(F) = {end_f}")
    return {"End(E)": end_e["h"] + end_e["h*"],
            "End(F)": end_f["h"] + end_f["h*"]}


# -- the reflection representation and its restricted-form sums ------------

def reflection_matrix(group: G4, q: Quaternion) -> linalg.Matrix:
    """Action of q on h: the V1-twist of the quaternionic matrix, over
    Q(zeta_12).  On Cl3/Cl4 this has eigenvalues {1, omega} / {1, omega^2},
    so those classes act by genuine reflections (the untwisted quaternionic
    matrices do not)."""
    twist = CHARACTER_TABLE["V1"][group.class_index(q)].lift(12)
    return linalg.scalar_mul(twist, q.matrix())


def reflection_form_check(group: G4) -> dict[str, Fraction]:
    """Sum the restricted symplectic forms over Cl3 (eigenvalue omega)
    and over Cl4 (omega^2) on h + h*; each sum must equal exactly 2 times
    the standard form (``linalg.class_form_scalar``)."""
    results: dict[str, Fraction] = {}
    for label, index, power in (("Cl3", 2, 1), ("Cl4", 3, 2)):
        members = group.classes[index]
        scalar = linalg.class_form_scalar(
            (reflection_matrix(group, q) for q in members), len(members),
            CycloNumber.zeta(12, 4 * power), label)
        _require(scalar == 2, f"{label} scalar is {scalar}, expected 2")
        results[label] = scalar
    return results


def homomorphism_check(group: G4) -> None:
    """The h-realization is multiplicative and has the h-row character."""
    h_row = CHARACTER_TABLE["h"]
    for q in group.elements:
        rho = reflection_matrix(group, q)
        _require(rho[0][0] + rho[1][1] == h_row[group.class_index(q)].lift(12),
                 f"trace of {q} on h differs from the h row")
    for q1 in (S1, S2, T1, I, J):
        for q2 in (S1, T2, K, S1 * S2):
            lhs = reflection_matrix(group, q1 * q2)
            rhs = linalg.mat_mul(reflection_matrix(group, q1),
                                 reflection_matrix(group, q2))
            _require(lhs == rhs, f"rho({q1} * {q2}) != rho({q1}) rho({q2})")


def tensor_positivity_check() -> None:
    """Products of genuine characters decompose with multiplicities >= 0."""
    for name_a in ROW_NAMES:
        for name_b in ROW_NAMES:
            mults = decompose(pointwise_product(
                CHARACTER_TABLE[name_a], CHARACTER_TABLE[name_b]))
            _require(all(v >= 0 for v in mults.values()),
                     f"{name_a} x {name_b} has a negative multiplicity")


def run_battery() -> tuple[tuple[str, str], ...]:
    """Run every check; returns (name, detail) lines, raising on failure."""
    group = build_g4()
    checks: list[tuple[str, str]] = []
    checks.append(("group order", f"|G4| = {len(group.elements)}"))
    presentation_check(group)
    checks.append(("presentation", "s1^3 = s2^3 = (s1*s2)^6 = 1; "
                   "s1, s2 generate; i*j = k"))
    checks.append(("conjugacy classes",
                   f"sizes {CLASS_SIZES}, orders {CLASS_ORDERS}, "
                   "reflection classes Cl3/Cl4 as listed"))
    class_product_check(group)
    checks.append(("class products",
                   "s1*s_i in Cl7, s1*t_j in Cl5, t1*t_j in Cl6, t1^2 in Cl3"))
    orthogonality_check()
    checks.append(("character table", "row and column orthogonality over Q(omega)"))
    trace_consistency_check(group)
    checks.append(("quaternionic traces", "2 * Re(q) matches the W row"))
    homomorphism_check(group)
    checks.append(("reflection representation",
                   "V1-twisted quaternionic action realizes the h row"))
    regular = class_function((24, 0, 0, 0, 0, 0, 0))
    reg = decompose(regular)
    _require(reg == {"T": 1, "V1": 1, "V2": 1, "W": 2, "h": 2, "h*": 2, "U": 3},
             f"regular character decomposes as {reg}")
    checks.append(("regular character", "multiplicities equal the degrees"))
    summand_absence_check()
    checks.append(("End decompositions",
                   "End(E) = 12T + 12V1 + 12V2 + 36U, "
                   "End(F) = 3T + 3V1 + 3V2 + 9U; no h or h* summand"))
    tensor_positivity_check()
    checks.append(("tensor positivity",
                   "all 49 products of rows decompose nonnegatively"))
    for (n, m), want in (((12, 12), (1, 0)), ((6, -6), (0, 1)),
                         ((24, 0), (1, 2)), ((18, 6), (1, 1))):
        got = solve_ef_multiplicities(n, m)
        _require(got == want, f"solver gives {got} for ({n}, {m}), not {want}")
    _require(solve_ef_multiplicities(1, 2) is None, "(1, 2) must be infeasible")
    checks.append(("aE + bF solver",
                   "(12,12)->(1,0) (6,-6)->(0,1) (24,0)->(1,2) "
                   "(18,6)->(1,1); (1,2) infeasible"))
    shapes = admissible_shapes()
    survivors = [s.render() for s in shapes if not s.eliminated]
    checks.append(("module shapes", f"8 candidates with dim <= 24; "
                   f"surviving: {'; '.join(survivors)}"))
    forms = reflection_form_check(group)
    checks.append(("restricted form sums",
                   f"sum over Cl3 = {forms['Cl3']} * omega, "
                   f"sum over Cl4 = {forms['Cl4']} * omega"))
    return tuple(checks)
