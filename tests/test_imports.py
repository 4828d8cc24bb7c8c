"""What importing cmscan and running one subcommand loads.

`import cmscan` loads none of its modules: the names in `__all__` are
imported from their modules on first use.  Each subcommand imports only
the modules it runs, so `cmscan --help` compiles no math module, and no
command loads `dataclasses`, `inspect` or `typing` beyond what the bare
interpreter already has.  The budgets are checked in a fresh
`python -B` interpreter per command line, since this test process has
long since imported everything.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmscan
from cmscan import scan
from cmscan.spec import GroupSpec

SRC = Path(cmscan.__file__).resolve().parent.parent

# Standard modules that cost start-up time and that no command needs.
STARTUP = ("dataclasses", "inspect", "typing")

PROBE = f"""\
import io, sys
from cmscan import cli
sys.stdout = io.StringIO()
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout = sys.__stdout__
print(code)
print(*sorted(m for m in sys.modules if m.split(".")[0] == "cmscan"))
print(*(m for m in ("dataclasses", "fractions", "json") if m in sys.modules))
print(*(m for m in {STARTUP!r} if m in sys.modules))
"""
BARE = f"import sys; print(*(m for m in {STARTUP!r} if m in sys.modules))"

SCAN = {"scan", "fakedeg", "partitions", "polycore", "spec"}
FAKE_DEGREES = {"fakedeg", "partitions", "polycore", "spec"}
VERIFY_OMEGA = {"groups", "linalg", "cyclo", "polycore", "spec"}
MOLIEN = {"groups", "partitions", "cyclo", "polycore", "spec"}
G4 = {"g4", "linalg", "cyclo", "polycore"}

# The module that defines each name of `__all__`.
HOMES = {
    "cyclo": ["CycloNumber"],
    "fakedeg": ["IrrLabel", "coinvariant_poincare", "fake_degree",
                "irr_dimension", "irr_labels"],
    "groups": ["MonomialElement", "ReflectionClass", "molien_series",
               "omega_class_sum", "reflection_classes"],
    "partitions": ["Multipartition", "MultipartitionOrbit", "Partition",
                   "multipartitions", "parse_multipartition",
                   "render_multipartition"],
    "polycore": ["LaurentPoly"],
    "scan": ["DivisibilityVerdict", "ExceptionalGroupData", "ScanReport",
             "divisibility_test", "expected_failure_counts", "parse_dataset",
             "render_dataset", "scan_dataset", "scan_group", "witness_check"],
    "spec": ["GroupSpec"],
}


def run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-B", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split("\n")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "g332.fd"
    path.write_text(scan.render_dataset(
        [scan.synthetic_dataset(GroupSpec(3, 3, 2))]), encoding="utf-8")
    return str(path)


BUDGETS = [
    (("--help",), set()),
    (("scan", "G(3,3,3)"), SCAN),
    (("witness", "G(5,5,2)"), SCAN),
    (("table1", "--data", "DATA"), SCAN),
    (("fake-degrees", "G(3,3,3)"), FAKE_DEGREES),
    (("verify-omega", "G(3,3,3)"), VERIFY_OMEGA),
    (("molien", "G(3,3,3)"), MOLIEN),
    (("g4",), G4),
]


@pytest.fixture(scope="module")
def bare_startup():
    """The STARTUP modules a bare interpreter loads here, as through a
    site .pth file."""
    loaded, _ = run_python("-c", BARE)
    return set(loaded.split())


@pytest.mark.parametrize("argv, modules", BUDGETS,
                         ids=[argv[0].lstrip("-") for argv, _ in BUDGETS])
def test_subcommand_loads_only_its_modules(argv, modules, dataset,
                                           bare_startup):
    argv = [dataset if arg == "DATA" else arg for arg in argv]
    code, loaded, heavy, startup, _ = run_python("-c", PROBE, *argv)
    assert code == "0"
    assert set(loaded.split()) == (
        {"cmscan", "cmscan.cli"} | {f"cmscan.{name}" for name in modules})
    assert set(startup.split()) <= bare_startup
    if argv == ["--help"]:
        assert heavy == ""


def test_fakedeg_re_exports_the_spec():
    from cmscan import fakedeg, spec
    assert fakedeg.GroupSpec is spec.GroupSpec
    assert fakedeg.natural_is_reducible is spec.natural_is_reducible


def test_import_loads_no_module():
    loaded, _ = run_python("-c", "import sys, cmscan; print(*sorted("
                           "m for m in sys.modules if m.startswith('cmscan')))")
    assert loaded == "cmscan"


class TestLazyExports:
    @pytest.fixture
    def package(self, monkeypatch):
        """cmscan with every name resolved on an earlier access dropped,
        so each access below goes through the lazy lookup."""
        for name in cmscan.__all__:
            if name != "__version__" and name in vars(cmscan):
                monkeypatch.delitem(vars(cmscan), name)
        return cmscan

    def test_homes_cover_all(self):
        names = [name for names in HOMES.values() for name in names]
        assert sorted(names) == sorted(set(cmscan.__all__) - {"__version__"})

    @pytest.mark.parametrize("module", sorted(HOMES))
    def test_names_are_the_defining_modules_objects(self, package, module):
        home = importlib.import_module(f"cmscan.{module}")
        for name in HOMES[module]:
            assert getattr(package, name) is getattr(home, name), name

    def test_dir_lists_all(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_all(self, package):
        namespace = {}
        exec("from cmscan import *", namespace)
        assert set(package.__all__) <= set(namespace)
        for module, names in HOMES.items():
            home = importlib.import_module(f"cmscan.{module}")
            for name in names:
                assert namespace[name] is getattr(home, name), name
        assert namespace["__version__"] == package.__version__

    @pytest.mark.parametrize("name", ["no_such_name", "_MODULE", "label_rows"])
    def test_unknown_name_is_attribute_error(self, package, name):
        with pytest.raises(AttributeError, match=name):
            getattr(package, name)
        assert not hasattr(package, name)
