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

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a command line
compiles only the modules its subcommand runs.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cyclo": ("CycloNumber",),
    "fakedeg": ("IrrLabel", "coinvariant_poincare", "fake_degree",
                "irr_dimension", "irr_labels"),
    "groups": ("MonomialElement", "ReflectionClass", "molien_series",
               "omega_class_sum", "reflection_classes"),
    "partitions": ("Multipartition", "MultipartitionOrbit", "Partition",
                   "multipartitions", "render_multipartition"),
    "polycore": ("LaurentPoly",),
    "scan": ("DivisibilityVerdict", "ExceptionalGroupData", "ScanReport",
             "divisibility_test", "expected_failure_counts", "parse_dataset",
             "render_dataset", "scan_dataset", "scan_group", "witness_check"),
    "spec": ("GroupSpec",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
