"""What callers rely on from cmscan's record types: fields cannot be
assigned, equal values are equal and hash alike, and the records that
validate their fields refuse bad ones, under ``python -O`` too."""
import subprocess
import sys

import pytest

from cmscan import fakedeg, g4, groups, partitions, scan
from cmscan.cyclo import CycloNumber
from cmscan.polycore import LaurentPoly
from cmscan.spec import GroupSpec

ORBIT = partitions.orbit_of(((1,), (), (), ()), 2, 2)
VERDICT = scan.DivisibilityVerdict("1|-", 0, 1, True, LaurentPoly.one())
ROW = scan.DatasetRow("triv", 1, LaurentPoly.one())


# How to build one value of each record type, so that it can be built
# twice from equal fields.
RECORDS = {
    "GroupSpec": lambda: GroupSpec(3, 3, 2),
    "IrrLabel": lambda: fakedeg.IrrLabel(ORBIT, 0),
    "MultipartitionOrbit": lambda: partitions.MultipartitionOrbit(
        ORBIT.canonical, 2, 1),
    "MonomialElement": lambda: groups.MonomialElement(3, (1, 0), (2, 1)),
    "ReflectionClass": lambda: groups.ReflectionClass(
        (groups.MonomialElement(2, (0,), (1,)),), CycloNumber.zeta(2, 1)),
    "Quaternion": lambda: g4.Quaternion(1, -1, 1, 1),
    "G4": lambda: g4.G4((g4.ONE,), ((g4.ONE,),)),
    "ModuleShape": lambda: g4.ModuleShape(1, 2, False),
    "DivisibilityVerdict": lambda: scan.DivisibilityVerdict(
        "1|-", 0, 1, True, LaurentPoly.one()),
    "DatasetRow": lambda: scan.DatasetRow("triv", 1, LaurentPoly.one()),
    "ScanReport": lambda: scan.ScanReport("G", 1, 0, (VERDICT,), ("n",)),
    "WitnessReport": lambda: scan.WitnessReport(
        "G", "1|-", LaurentPoly.one(), VERDICT, False, ()),
    "ExceptionalGroupData": lambda: scan.ExceptionalGroupData(
        "G", 1, 1, (1,), (ROW,)),
    "CountComparison": lambda: scan.CountComparison("G5", 3, 3, True),
}


def test_every_record_type_is_listed():
    assert len(RECORDS) == 14
    assert {make().__class__.__name__ for make in RECORDS.values()} == (
        set(RECORDS))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    value = RECORDS[name]()
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_hashable_values(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a == b and a is not b
    assert len({a, b}) == 1
    assert a._replace(**{a._fields[-1]: None}) != a


def test_quaternions_form_sets_by_value():
    group = g4.build_g4()
    rebuilt = {g4.Quaternion(*q) for q in group.elements}
    assert rebuilt == set(group.elements) and len(rebuilt) == 24
    assert g4.I * g4.J in {g4.K}


def test_dataset_round_trip_is_value_equal():
    data = scan.synthetic_dataset(GroupSpec(3, 3, 2))
    (back,) = scan.parse_dataset(scan.render_dataset((data,)))
    assert back == data and hash(back) == hash(data)
    assert back.rows is not data.rows


VALIDATION = """
from cmscan import g4, groups, partitions
from cmscan.spec import GroupSpec
print("__debug__ =", __debug__)
for make in (lambda: GroupSpec(0, 1, 1), lambda: GroupSpec(4, 3, 2),
             lambda: groups.MonomialElement(3, (0, 0), (0, 0)),
             lambda: groups.MonomialElement(3, (0, 1), (0,)),
             lambda: groups.MonomialElement(3, (0, 1), (0, 3)),
             lambda: partitions.MultipartitionOrbit(((1, 2),), 1, 1),
             lambda: g4.Quaternion(1, 0, 0, 0)):
    try:
        make()
    except ValueError as exc:
        print("ValueError:", exc)
    else:
        print("accepted")
"""


def test_validation_runs_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", VALIDATION],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "__debug__ = False",
        "ValueError: G(m,p,n) needs positive m, p, n",
        "ValueError: p must divide m in G(4,3,2)",
        "ValueError: perm must be a permutation of 0..n-1",
        "ValueError: need one exponent per coordinate",
        "ValueError: exponents must be reduced mod m",
        "ValueError: parts must be weakly decreasing: (1, 2)",
        "ValueError: (1, 0, 0, 0) mixes parities: not a Hurwitz quaternion",
    ]
