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
"""
import hashlib
import json
from pathlib import Path

import pytest

from cmscan import cli, scan
from cmscan.fakedeg import GroupSpec

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
COMMANDS = ("g4", "verify-omega", "molien", "scan", "table1")


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
    code = cli.main(key.split())
    out = capsys.readouterr().out
    assert code == want["exit"]
    assert _sha256(out.encode("utf-8")) == want["sha256"]
