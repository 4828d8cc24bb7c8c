"""Divisibility scans of fake degrees against the coinvariant Poincaré
polynomial.

A label passes when t^{-b} f(t) divides P(t) = prod (1-t^{d_i})/(1-t)^n;
a failure certifies that every associated graded simple module is smaller
than the regular representation, i.e. an obstruction to smoothness of the
associated Calogero-Moser space.  Divisibility over C[t] is decided by
integer long division against the primitive part (Gauss's lemma).

Exceptional groups are handled through ingested fake-degree datasets in a
line-oriented text format; the bundled expected failure counts for G5-G37
let `table1` diff a dataset scan against the published values.
"""
from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

from . import partitions as pt
from .fakedeg import (
    coinvariant_poincare, fake_degree, irr_dimension, isomorphism_note,
    label_rows, reducibility_note,
)
from .polycore import (
    MAX_SPAN, LaurentPoly, VerificationError, clip, packed_value,
    poincare_polynomial,
)
from .spec import GroupSpec


class DatasetError(ValueError):
    """A dataset file is malformed or violates a consistency identity."""


class DivisibilityVerdict(namedtuple("DivisibilityVerdict",
                                     "label b dim divides poly")):
    """Outcome of one division of P by t^{-b} f.

    ``poly`` is the quotient when ``divides`` (so P = primitive(t^{-b}f)
    * poly), otherwise the nonzero long-division remainder.
    """

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return "divisible" if self.divides else "fails"

    def to_dict(self, render_poly: Callable[[LaurentPoly], str]
                = LaurentPoly.render) -> dict:
        out = {"label": self.label, "b": self.b, "dim": self.dim,
               "verdict": self.verdict}
        out["quotient" if self.divides else "remainder"] = render_poly(self.poly)
        return out

    def render(self, render_poly: Callable[[LaurentPoly], str]
               = LaurentPoly.render) -> str:
        kind = "quotient" if self.divides else "remainder"
        return (f"{self.label}  dim={self.dim} b={self.b} "
                f"{self.verdict}  {kind}={render_poly(self.poly)}")


class DatasetRow(namedtuple("DatasetRow", "ident dim fake")):
    """One row of a scan: an irreducible's name, dimension and fake degree."""

    __slots__ = ()


Division = tuple[bool, LaurentPoly]


def _primitive(shape: LaurentPoly) -> LaurentPoly:
    """A nonzero shape t^-b f over the gcd of its coefficients."""
    content = shape.content()
    return shape if content == 1 else LaurentPoly(
        {e: c // content for e, c in shape.items()})


def divisibility_test(poincare: LaurentPoly, f: LaurentPoly, dim: int,
                      label: str) -> DivisibilityVerdict:
    """Divide the b-shifted fake degree into the Poincaré polynomial.

    f must be nonzero and ``dim`` must equal f(1).  Both are identities
    of the fake degrees, so a violation raises VerificationError;
    ``ExceptionalGroupData.validate`` refuses such dataset rows first, as
    a DatasetError.  The divisor is normalized to its primitive part, so
    the verdict is divisibility in C[t]; when it divides, the quotient
    satisfies quotient(1) * primitive(1) = P(1) = |W|.  A scan calls it
    once per distinct primitive divisor (``_scan_rows``).
    """
    if f.is_zero():
        raise VerificationError(f"fake degree of {label} must be nonzero")
    if f.at_one() != dim:
        raise VerificationError(f"dim {dim} != f(1) = {f.at_one()} for {label}")
    b = f.trailing_degree()
    primitive = _primitive(f.shift(-b))
    quotient, remainder = divmod(poincare, primitive)
    divides = remainder.is_zero()
    if divides and (quotient.at_one() * primitive.at_one()
                    != poincare.at_one()):
        raise VerificationError(f"quotient(1) * primitive(1) != P(1) for {label}")
    return DivisibilityVerdict(label, b, dim, divides,
                               quotient if divides else remainder)


class ScanReport(namedtuple("ScanReport",
                            "group labels failures verdicts notes")):
    """A scan: the group's name, its label and failure counts, a
    DivisibilityVerdict per row in row order, and the notes (strs)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        # Verdicts of labels sharing a primitive divisor share their poly.
        render_poly = functools.cache(LaurentPoly.render)
        return {
            "group": self.group,
            "labels": self.labels,
            "failures": self.failures,
            "notes": list(self.notes),
            "verdicts": [v.to_dict(render_poly) for v in self.verdicts],
        }

    def render(self) -> Iterator[str]:
        """The text report, one line at a time."""
        conclusion = ("no obstruction found" if self.failures == 0
                      else f"{self.failures} failing label(s): "
                           "Calogero-Moser space is singular for all parameters")
        yield (f"scan {self.group}: {self.labels} labels, "
               f"{self.failures} failures -- {conclusion}")
        for n in self.notes:
            yield f"  note: {n}"
        render_poly = functools.cache(LaurentPoly.render)
        for v in self.verdicts:
            yield "  " + v.render(render_poly)


_CONVENTION_NOTES = (
    "each label is tested on its own fake degree; dualising permutes the "
    "labels, so the failure count is convention-independent",
    "labels in the same shift orbit share one fake degree and receive "
    "identical verdicts",
)


def _group_notes(g: GroupSpec) -> tuple[str, ...]:
    """The group's reducibility and isomorphism notes that apply."""
    return tuple(note for note in (reducibility_note(g), isomorphism_note(g))
                 if note)


class _Shape(namedtuple("_Shape", "shape at_one first degrees divisor")):
    """A distinct shape t^-b f of a scan's rows: the shape, its value at
    1, the index of its first row, its row count at each b (a dict) and
    its primitive part, the divisor its rows are tested with."""

    __slots__ = ()


def _shape_rows(fakes: Iterable[LaurentPoly]
                ) -> tuple[list[_Shape], list[_Shape]]:
    """Split each row's fake degree f once into its b and its shape
    t^-b f: a _Shape per distinct shape, in order of first row, and each
    row's _Shape, in row order.  A zero f is the shape 0 at b = 0;
    divisibility_test and validate refuse it."""
    shapes: dict[LaurentPoly, _Shape] = {}
    row_shapes = []
    for row, f in enumerate(fakes):
        b = f.trailing_degree() if f else 0
        shape = f.shift(-b)
        known = shapes.get(shape)
        if known is None:
            known = shapes[shape] = _Shape(shape, shape.at_one(), row, {},
                                           _primitive(shape))
        known.degrees[b] = known.degrees.get(b, 0) + 1
        row_shapes.append(known)
    return list(shapes.values()), row_shapes


def _scan_rows(name: str, poincare: LaurentPoly, rows: Iterable[DatasetRow],
               row_shapes: list[_Shape], notes: tuple[str, ...]) -> ScanReport:
    """Test every row in order and count the failing rows.

    ``row_shapes`` gives each row its _Shape (``_shape_rows``).  Every
    row's dim is checked against its shape's f(1); the first row of each
    distinct primitive divisor then divides it into P by
    divisibility_test, and the loop's one dict gives that division to
    every row with the same divisor.
    """
    divisions: dict[LaurentPoly, Division] = {}  # by primitive divisor
    verdicts = []
    for row, known in zip(rows, row_shapes):
        if known.at_one != row.dim:
            raise VerificationError(
                f"dim {row.dim} != f(1) = {known.at_one} for {row.ident}")
        division = divisions.get(known.divisor)
        if division is None:  # the verdict's (divides, poly)
            division = divisions[known.divisor] = divisibility_test(
                poincare, known.divisor, known.divisor.at_one(), row.ident)[3:]
        verdicts.append(DivisibilityVerdict(
            row.ident, row.fake.trailing_degree(), row.dim, *division))
    failures = sum(1 for v in verdicts if not v.divides)
    return ScanReport(name, len(verdicts), failures, tuple(verdicts), notes)


def _graded_sum_holds(shapes: list[_Shape], poincare: LaurentPoly) -> bool:
    """sum(dim * f) == P over the rows recorded in ``shapes``, as one
    sum of integers: each polynomial is read at X = 2^w, w bits a slot.

    The rule at t = 1, sum(dim^2) == P(1), is checked first; w is then
    its bit length plus one, rounded up to whole bytes.  A row of shape
    s at b has f = s * t^b, dim = s(1) and degree at most deg P (the
    callers check these), so the terms are s(1) * rows_b * s * t^b over
    the (shape, b) pairs, none wider than P.  They are added in pairs,
    in order of b, so a round costs about the total's size however many
    terms there are.  Every s is nonnegative, so no coefficient of a
    partial sum exceeds the total's, which are at most sum(dim^2) <
    2^(w-1): no slot carries into the next.
    """
    bound = sum(s.at_one * s.at_one * sum(s.degrees.values()) for s in shapes)
    if bound != poincare.at_one():
        return False
    width = -(-(bound.bit_length() + 1) // 8) * 8
    terms = []
    for shape, at_one, _, degrees, _ in shapes:
        value = packed_value(shape, width)
        if value is None:
            raise VerificationError("fake degree has a negative coefficient")
        terms += [(b, rows * at_one * value) for b, rows in degrees.items()]
    terms.sort(key=lambda term: term[0])
    while len(terms) > 1:  # the last term of an odd count waits a round
        terms = [(b, low + (high << width * (c - b))) for (b, low), (c, high)
                 in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    total = sum(value << width * b for b, value in terms)
    return total == packed_value(poincare, width)


def scan_group(g: GroupSpec) -> ScanReport:
    """Run the divisibility test over every irreducible label of G(m,p,n):
    the dataset scan of the group's own label rows, followed by the
    graded sum rule sum(dim * f) == P."""
    rows = label_rows(g)  # refuses too many labels before other work
    poincare = coinvariant_poincare(g)
    if poincare.at_one() != g.order:
        raise VerificationError(f"P(1) = {poincare.at_one()} != |W| = {g.order}")
    shapes, row_shapes = _shape_rows(f for _, _, f in rows)
    report = _scan_rows(g.render(), poincare,
                        (DatasetRow(label.render(), dim, f)
                         for label, dim, f in rows),
                        row_shapes, _CONVENTION_NOTES + _group_notes(g))
    if not _graded_sum_holds(shapes, poincare):
        raise VerificationError("graded sum rule violated")
    return report


# -- the designated witness families ---------------------------------------

# witness_check expands P and divides it by one fake degree, which is
# quadratic in deg P, and orbit_of builds p shifted m-tuples to find the
# least; both are bounded before any work.
MAX_WITNESS_DEGREE = 20_000


def _check_witness_size(g: GroupSpec) -> None:
    """Refuse with ValueError a witness whose P has degree above
    MAX_WITNESS_DEGREE or whose orbit has p * m above
    partitions.MAX_MULTIPARTITIONS, before anything of size n or m is built.

    deg P = sum(d_i - 1) over the degrees m, 2m, ..., (n-1)m, dn, in
    closed form so that no tuple of n degrees is allocated.
    """
    degree = g.m * g.n * (g.n - 1) // 2 + g.d * g.n - g.n
    if degree > MAX_WITNESS_DEGREE:
        raise ValueError(
            f"the witness of {clip(g)} needs a Poincaré polynomial of "
            f"degree {clip(degree)}; the limit is {MAX_WITNESS_DEGREE}")
    if g.p * g.m > pt.MAX_MULTIPARTITIONS:
        raise ValueError(
            f"the witness orbit of {clip(g)} spans p*m = {clip(g.p * g.m)} "
            f"components; the limit is {pt.MAX_MULTIPARTITIONS}")


def witness_multipartition(g: GroupSpec) -> pt.Multipartition:
    """The designated failing multipartition for G(m,p,n), p > 1:
    ((1),(1^(n-1)),-,...) for n = 2, 3 and ((2,2,1^(n-4)),-,...) for
    n >= 4, padded with empty components to m of them."""
    if g.p == 1:
        raise ValueError(
            "witness families are defined only for p > 1; "
            "G(m,1,n) has no failing label")
    if g.n == 1:
        raise ValueError("no witness family is defined for n = 1")
    if g.n <= 3:  # p > 1, so m >= 2
        return ((1,), (1,) * (g.n - 1)) + ((),) * (g.m - 2)
    return ((2, 2) + (1,) * (g.n - 4),) + ((),) * (g.m - 1)


class WitnessReport(namedtuple("WitnessReport", "group multipartition fake "
                               "verdict matches_prediction notes")):
    """The witness test of a group: its name, the witness multipartition
    as text, its fake degree (a LaurentPoly), the DivisibilityVerdict,
    whether it fails as predicted, and the notes (strs)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "multipartition": self.multipartition,
            "fake_degree": self.fake.render(),
            "predicted": "fails",
            "matches_prediction": self.matches_prediction,
            "notes": list(self.notes),
            "verdict": self.verdict.to_dict(),
        }

    def render(self) -> Iterator[str]:
        status = ("matches the predicted failure" if self.matches_prediction
                  else "does NOT fail")
        yield (f"witness {self.group}: label {self.multipartition}, "
               f"f = {self.fake.render()}")
        yield f"  {self.verdict.render()}"
        yield f"  {status}"
        for n in self.notes:
            yield f"  note: {n}"


def witness_check(g: GroupSpec) -> WitnessReport:
    """Test the designated witness label and compare with its predicted
    failure; discrepancies are reported, never corrected.  The notes are
    the group's reducibility and isomorphism notes, which name the groups
    where it divides.  Groups over the witness size bounds are refused
    first (ValueError)."""
    _check_witness_size(g)
    mp = witness_multipartition(g)
    orbit = pt.orbit_of(mp, g.p, g.d)
    f = fake_degree(g, orbit)
    dim = irr_dimension(g, orbit)
    verdict = divisibility_test(coinvariant_poincare(g), f, dim,
                                pt.render_multipartition(orbit.canonical))
    return WitnessReport(g.render(), pt.render_multipartition(mp), f,
                         verdict, not verdict.divides, _group_notes(g))


# -- exceptional groups via ingested fake-degree data ----------------------

class ExceptionalGroupData(namedtuple("ExceptionalGroupData",
                                      "name order rank degrees rows")):
    """One group of a dataset: its name, order and rank, the tuple of
    its degrees and a DatasetRow per irreducible."""

    __slots__ = ()

    def poincare(self) -> LaurentPoly:
        return poincare_polynomial(self.degrees)

    def validate(self) -> tuple[LaurentPoly, list[_Shape], list[_Shape]]:
        """Check that every dim is positive, the three consistency
        identities, and that every fake degree has nonnegative coefficients
        and degree at most deg P; return the Poincaré polynomial checked
        against and the rows' ``_shape_rows``.  Raise DatasetError naming
        the failing row and identity, with each value from the file
        quoted to at most 40 characters."""
        name = clip(self.name)
        if len(self.degrees) != self.rank:
            raise DatasetError(f"{name}: {len(self.degrees)} degrees "
                               f"for rank {clip(self.rank)}")
        square_sum = sum(row.dim ** 2 for row in self.rows)
        if square_sum != self.order:
            raise DatasetError(
                f"{name}: sum of dim^2 is {clip(square_sum)}, "
                f"order is {clip(self.order)}")

        def refuse(row: DatasetRow, what: str) -> DatasetError:
            return DatasetError(f"{name} row {clip(row.ident)}: {what}")

        top = sum(d - 1 for d in self.degrees)  # deg P
        shapes, row_shapes = _shape_rows(row.fake for row in self.rows)
        for i, (row, known) in enumerate(zip(self.rows, row_shapes)):
            if row.dim < 1:
                raise refuse(row, f"dim {clip(row.dim)} is not positive")
            if known.at_one != row.dim:
                raise refuse(row, f"f(1) = {clip(known.at_one)} != dim "
                                  f"{clip(row.dim)}")
            if row.fake.trailing_degree() < 0:
                raise refuse(row, "fake degree has a negative exponent")
            if known.first == i and any(c < 0 for _, c in known.shape.items()):
                raise refuse(row, "fake degree has a negative coefficient")
            if row.fake.degree() > top:  # refused before anything is packed
                raise refuse(row, "fake degree has degree "
                                  f"{clip(row.fake.degree())}, above deg P = {top}")
        poincare = self.poincare()
        if not _graded_sum_holds(shapes, poincare):
            raise DatasetError(f"{name}: sum of dim * f differs from the "
                               "coinvariant Poincaré polynomial")
        return poincare, shapes, row_shapes


# [0-9], not \d: \d and int() also take every other Unicode digit.
_GROUP_LINE = re.compile(r"^group\s+(\S+)\s+order\s+([0-9]+)\s+rank\s+([0-9]+)"
                         r"\s+degrees\s+([0-9,\s]+)$")
_IRREP_LINE = re.compile(r"^irrep\s+(\S+)\s+dim\s+([0-9]+)\s+fake\s+(.+)$")


# Largest cost of a header's Poincaré expansion: one pass per degree
# above 1, each over at most deg P + 1 coefficients of at most
# ceil(sum bit_length(d_i) / 64) words.  At 2^26 the expansion takes
# at most about 0.3 s on a 2-core x86-64 host (CPython 3.11).
MAX_POINCARE_COST = 1 << 26


def _parse_degrees(text: str, name: str) -> tuple[int, ...]:
    """The degrees of a group header, each at least 1, with
    sum(d_i - 1), the degree of the Poincaré polynomial, at most
    polycore.MAX_SPAN and the cost of expanding it at most
    MAX_POINCARE_COST, so no header can make that expansion run long."""
    name = clip(name)
    try:
        degrees = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise DatasetError(f"group {name}: bad degree list "
                           f"{clip(text.strip())!r}") from None
    if min(degrees) < 1:
        raise DatasetError(f"group {name}: degrees must be at least 1")
    span = sum(d - 1 for d in degrees)
    if span > MAX_SPAN:
        raise DatasetError(f"group {name}: the degrees give a Poincaré "
                           f"polynomial of degree {clip(span)}, above "
                           f"the limit {MAX_SPAN}")
    factors = [d for d in degrees if d > 1]
    words = -(-sum(d.bit_length() for d in factors) // 64)
    cost = len(factors) * (span + 1) * words
    if cost > MAX_POINCARE_COST:
        raise DatasetError(f"group {name}: expanding the Poincaré polynomial "
                           f"of these degrees costs {cost}; the limit is "
                           f"{MAX_POINCARE_COST}")
    return degrees


def parse_dataset(text: str) -> tuple[ExceptionalGroupData, ...]:
    """Parse the line-oriented dataset format.

    ``group <name> order <int> rank <n> degrees <d1,...,dn>`` opens a
    group; each following ``irrep <id> dim <int> fake <poly>`` adds a row.
    Blank lines and ``#`` comments are ignored.  Each distinct fake-degree
    text is parsed once, so rows with equal text share one LaurentPoly.
    The fake degrees of a file hold at most polycore.MAX_SPAN
    coefficients in all, counted densely (degree - trailing degree + 1
    each) for every row, repeated or not, so no file can make the rows
    exhaust memory.  Every error is a DatasetError that names its line.
    """
    blocks: list[tuple[tuple, list[DatasetRow]]] = []  # (header, rows)
    fakes: dict[str, LaurentPoly] = {}
    coefficients = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            mg = _GROUP_LINE.match(line)
            if mg:
                name, order, rank, degrees = mg.groups()
                blocks.append(((name, int(order), int(rank),
                                _parse_degrees(degrees, name)), []))
                continue
            mi = _IRREP_LINE.match(line)
            if not mi:
                raise DatasetError(f"unrecognized line {clip(line)!r}")
            if not blocks:
                raise DatasetError("irrep row before any group header")
            ident, dim, poly = mi.groups()
            fake = fakes.get(poly)
            if fake is None:
                fake = fakes[poly] = LaurentPoly.parse(poly)
            if fake:
                coefficients += fake.degree() - fake.trailing_degree() + 1
            if coefficients > MAX_SPAN:
                raise DatasetError(
                    f"the fake degrees so far hold {coefficients} "
                    f"coefficients; the limit for a file is {MAX_SPAN}")
            blocks[-1][1].append(DatasetRow(ident, int(dim), fake))
        # Besides DatasetError: LaurentPoly.parse's errors, and int()'s
        # refusal of more than sys.get_int_max_str_digits() digits.
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
    return tuple(ExceptionalGroupData(*header, tuple(rows))
                 for header, rows in blocks)


def render_dataset(groups: tuple[ExceptionalGroupData, ...]) -> str:
    """Canonical text form; parse(render(x)) == x and render round-trips
    byte-exactly on canonical files."""
    blocks = []
    for g in groups:
        lines = [f"group {g.name} order {g.order} rank {g.rank} "
                 f"degrees {','.join(str(d) for d in g.degrees)}"]
        lines += [f"irrep {r.ident} dim {r.dim} fake {r.fake.render()}"
                  for r in g.rows]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# Largest division cost of a dataset file: the sum, over each group's
# distinct primitive divisors g of its P, a polynomial in t^step, of
# (len P - deg g) * (deg g / step + 1) * ceil(bit_length(max |P_i|) / 64),
# the quotient steps times the divisor's terms times the words of P's
# largest coefficient, summed in row order before a group's first
# division (the one place a cost model per division path would go).  At
# 2^25 the packed division takes about 0.22 s on a 2-core x86-64 host
# (CPython 3.11), 6.7 ns a unit.  The long-division loop, which runs
# once a coefficient reaches 2^62, is outside this model: it took 25-50
# ns a unit on three-term divisors but 120-300 ns on one- and two-term
# ones, and a divisor whose remainder's coefficients grow (t^2 - 3t + 3)
# makes it quadratic in len P however small the count.
MAX_DIVISION_COST = 1 << 25


def scan_dataset(groups: tuple[ExceptionalGroupData, ...]) -> tuple[ScanReport, ...]:
    """Validate then scan each dataset group row by row, dividing each
    distinct primitive divisor into the group's P once.  Before a group's
    first division its divisors' costs (see MAX_DIVISION_COST) are added
    to the file's total in row order, and the row whose divisor takes the
    total past the limit is refused, as a DatasetError."""
    note = ("row identities follow the source tabulation; verdicts and "
            "counts are per row")
    reports = []
    spent = 0
    for g in groups:
        poincare, shapes, row_shapes = g.validate()
        length = poincare.degree() + 1
        words = -(-max(abs(c) for _, c in poincare.items()).bit_length() // 64)
        firsts: dict[LaurentPoly, int] = {}  # each divisor's first row
        for shape in shapes:
            firsts.setdefault(shape.divisor, shape.first)
        for divisor, first in firsts.items():
            degree = divisor.degree()
            step = math.gcd(*(e for e, _ in divisor.items())) or 1
            spent += max(length - degree, 0) * (degree // step + 1) * words
            if spent > MAX_DIVISION_COST:
                raise DatasetError(
                    f"{clip(g.name)} row {clip(g.rows[first].ident)}: the "
                    f"file's divisions would cost {spent}; the limit is "
                    f"{MAX_DIVISION_COST}")
        reports.append(_scan_rows(g.name, poincare, g.rows, row_shapes, (note,)))
    return tuple(reports)


def expected_failure_counts() -> dict[int, int]:
    """Published failing-label counts for the exceptional groups G5-G37."""
    return {
        5: 3, 6: 6, 7: 13, 8: 2, 9: 16, 10: 15, 11: 43, 12: 1, 13: 4,
        14: 9, 15: 18, 16: 15, 17: 55, 18: 70, 19: 164, 20: 18, 21: 42,
        22: 12, 23: 4, 24: 8, 25: 3, 26: 10, 27: 26, 28: 5, 29: 24,
        30: 24, 31: 40, 32: 33, 33: 30, 34: 148, 35: 9, 36: 30, 37: 75,
    }


_GROUP_ID = re.compile(r"^G_?([0-9]+)$")


class CountComparison(namedtuple("CountComparison",
                                 "group failures expected matches")):
    """A dataset group's failure count against the published one;
    ``expected`` and ``matches`` are None when none is published."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"group": self.group, "failures": self.failures,
                "expected": self.expected, "matches": self.matches}

    def render(self) -> str:
        if self.expected is None:
            return f"{self.group}: {self.failures} failures (no expected count)"
        status = "OK" if self.matches else "MISMATCH"
        return (f"{self.group}: {self.failures} failures, "
                f"expected {self.expected} -- {status}")


def compare_with_expected(reports: tuple[ScanReport, ...]) -> tuple[CountComparison, ...]:
    """Diff dataset failure counts against the bundled expected values;
    groups whose names do not look like G<k> get expected = None."""
    expected = expected_failure_counts()
    out = []
    for report in reports:
        match = _GROUP_ID.match(report.group)
        want = expected.get(int(match.group(1))) if match else None
        out.append(CountComparison(
            report.group, report.failures, want,
            None if want is None else report.failures == want))
    return tuple(out)


def synthetic_dataset(g: GroupSpec) -> ExceptionalGroupData:
    """Express a G(m,p,n) scan's inputs in the dataset format; useful as a
    round-trip fixture (its scan must agree with scan_group)."""
    rows = tuple(DatasetRow(label.render().replace(" ", "_"), dim, f)
                 for label, dim, f in label_rows(g))
    return ExceptionalGroupData(g.render(), g.order, g.n, g.degrees, rows)
