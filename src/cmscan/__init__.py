"""Exact arithmetic for smoothness obstructions of generalised
Calogero-Moser spaces.

The package computes fake-degree polynomials of the irreducible
representations of the complex reflection groups G(m,p,n), tests them
for divisibility into the coinvariant Poincaré polynomial, verifies the
reflection-class sums of restricted symplectic forms on exact monomial
(and, for the binary tetrahedral group, quaternionic) realizations, and
scans ingested fake-degree datasets for the exceptional groups.  All
arithmetic is over the integers, the rationals or cyclotomic fields;
nothing is floating point.
"""
from .cyclo import CycloNumber
from .fakedeg import (
    GroupSpec, IrrLabel, coinvariant_poincare, configured_groups,
    fake_degree, irr_dimension, irr_labels,
)
from .groups import (
    MonomialElement, ReflectionClass, molien_series, omega_class_sum,
    reflection_classes,
)
from .partitions import (
    Multipartition, MultipartitionOrbit, Partition, multipartitions,
    parse_multipartition, render_multipartition,
)
from .polycore import LaurentPoly
from .scan import (
    DivisibilityVerdict, ExceptionalGroupData, ScanReport,
    divisibility_test, expected_failure_counts, parse_dataset,
    render_dataset, scan_dataset, scan_group, witness_check,
)

__version__ = "0.1.0"

__all__ = [
    "CycloNumber", "DivisibilityVerdict", "ExceptionalGroupData",
    "GroupSpec", "IrrLabel", "LaurentPoly",
    "MonomialElement", "Multipartition", "MultipartitionOrbit",
    "Partition", "ReflectionClass", "ScanReport", "coinvariant_poincare",
    "configured_groups", "divisibility_test", "expected_failure_counts",
    "fake_degree", "irr_dimension", "irr_labels", "molien_series",
    "multipartitions", "omega_class_sum", "parse_dataset",
    "parse_multipartition", "reflection_classes", "render_dataset",
    "render_multipartition", "scan_dataset", "scan_group", "witness_check",
    "__version__",
]
