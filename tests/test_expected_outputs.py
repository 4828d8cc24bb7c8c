"""The benchmark invocations reproduce their recorded output.

perfbench/expected.json records the exit code and stdout sha256 of every
command the benchmark runs.  The `elementwise` ones (`g4 --json`, three
`verify-omega` and nine `molien`) exercise the cyclotomic kernel, the
reflection classes and the Molien series; the 13 `scan` ones the
multipartition enumeration, fake-degree assembly and division; the three
`table1 --data .perfbench_work/dataset-N.fd --json` ones the dataset
parser, validation and JSON output.  Any drift in their output fails
here, in process, and not only in the benchmark's gate.  The dataset
files are rebuilt in a temporary directory from their recorded groups
and checked against the recorded sha256 first.  The file is read, never
written.

PINNED holds, in the same form, commands the benchmark does not run.
The `fake-degrees` and `witness G(6,3,4)` ones were recorded before fake
degrees were expanded in closed form, from the graded-product assembly;
the two n = 3 `witness` ones when its label became ((1),(1,1),-,...); the
`verify-omega` and text `g4` ones while the restricted-form sums were
still checked as Gram matrices on h + h*.
"""
import hashlib
import json
from pathlib import Path

import pytest

from cmscan import cli, scan
from cmscan.fakedeg import GroupSpec

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
COMMANDS = ("g4", "verify-omega", "molien", "scan", "table1")


PINNED = {
    "fake-degrees G(10,5,6)": (0, "3a52e4353d39432a3f649c5b4bc51f34"
                                  "7b61df98ffcfc118f3fda37e9bab1ec5"),
    "fake-degrees G(10,5,6) --json": (0, "2ccf15972aed9018c8c4d9ddd58fc43a"
                                         "51de3ca12c1d21aa2b9d2da97bf4db62"),
    "fake-degrees G(2,2,8)": (0, "5601943c49a976aa79aadc90007e3a53"
                                 "cc0df0eb1df4696c7318a607cebc937d"),
    "fake-degrees G(5,1,4) --json": (0, "720a55a1a802fdd3ba8e3afb6dfdc0b5"
                                        "52b4ca6918df518f3f0991fb244ea965"),
    "witness G(6,3,4)": (0, "a96223953e45178973ebef0c1134c3f8"
                            "95bbf4ba1e9f45372b3845b48b0e51ec"),
    "witness G(12,4,3) --json": (0, "4b145807829b170d628e2081ea2ce576"
                                    "48d3e7fbf4e16a7c7bf04e1b40ec4e70"),
    "witness G(3,3,3)": (0, "dd9113d51a928252ce3b3c3eb30a84a6"
                            "3e24a638d2e642884be90b232c6d6890"),
    "verify-omega G(105,1,1)": (0, "5e9d9384635fdf16eea8756cae12693e"
                                   "90e98d7327fffeb78a33ededc83797b7"),
    "verify-omega G(24,1,2) --json": (0, "a5768b70d7964ecd21d8869a8ab05211"
                                         "21ff39cf45b9a9566c37a2da2232338e"),
    "g4": (0, "35295c76871d535576e7a6566a4d02eb"
              "6783a24fb2e460ca688cf1aac43130c3"),
}


def _expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def _outputs():
    return {key: want for key, want in sorted(_expected()["outputs"].items())
            if key.split()[0] in COMMANDS}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A directory holding .perfbench_work/dataset-N.fd for every
    recorded dataset, byte-identical to the recorded files."""
    root = tmp_path_factory.mktemp("perfbench")
    for index, entry in sorted(_expected()["datasets"].items()):
        text = scan.render_dataset(tuple(
            scan.synthetic_dataset(GroupSpec.parse(spec))
            for spec in entry["groups"]))
        data = text.encode("utf-8")
        assert _sha256(data) == entry["sha256"], f"dataset {index}"
        path = root / ".perfbench_work" / f"dataset-{index}.fd"
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(data)
    return root


def test_thirteen_elementwise_invocations_are_recorded():
    kinds = [key.split()[0] for key in _outputs()]
    assert (kinds.count("g4"), kinds.count("verify-omega"),
            kinds.count("molien")) == (1, 3, 9)


def test_scan_and_table1_invocations_are_recorded():
    kinds = [key.split()[0] for key in _outputs()]
    assert (kinds.count("scan"), kinds.count("table1")) == (13, 3)


@pytest.mark.parametrize("key", sorted(_outputs()))
def test_output_matches_recording(key, capsys, request, monkeypatch):
    want = _outputs()[key]
    if key.startswith("table1 "):
        # The recorded command names its file relative to the checkout.
        monkeypatch.chdir(request.getfixturevalue("dataset_dir"))
        # Each file costs under a tenth of the division limit.
        monkeypatch.setattr(scan, "MAX_DIVISION_COST",
                            scan.MAX_DIVISION_COST // 10)
    code = cli.main(key.split())
    out = capsys.readouterr().out
    assert code == want["exit"]
    assert _sha256(out.encode("utf-8")) == want["sha256"]


def test_pinned_commands_are_not_benchmark_invocations():
    assert not set(PINNED) & set(_expected()["outputs"])


@pytest.mark.parametrize("key", sorted(PINNED))
def test_output_matches_pin(key, capsys):
    code = cli.main(key.split())
    out = capsys.readouterr().out
    assert (code, _sha256(out.encode("utf-8"))) == PINNED[key]
