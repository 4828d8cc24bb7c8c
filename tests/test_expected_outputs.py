"""The element-level benchmark invocations reproduce their recorded output.

perfbench/expected.json records the exit code and stdout sha256 of every
command the benchmark runs.  The `elementwise` ones (`g4 --json`, three
`verify-omega` and nine `molien`) exercise the cyclotomic kernel, the
reflection classes and the Molien series, so any drift in their output
fails here, in process, and not only in the benchmark's gate.  The file
is read, never written.
"""
import hashlib
import json
from pathlib import Path

import pytest

from cmscan import cli

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
ELEMENTWISE = ("g4", "verify-omega", "molien")


def _elementwise_outputs():
    outputs = json.loads(EXPECTED.read_text(encoding="utf-8"))["outputs"]
    return {key: want for key, want in sorted(outputs.items())
            if key.split()[0] in ELEMENTWISE}


def test_thirteen_elementwise_invocations_are_recorded():
    kinds = [key.split()[0] for key in _elementwise_outputs()]
    assert (kinds.count("g4"), kinds.count("verify-omega"),
            kinds.count("molien")) == (1, 3, 9)


@pytest.mark.parametrize("key", sorted(_elementwise_outputs()))
def test_output_matches_recording(key, capsys):
    want = _elementwise_outputs()[key]
    code = cli.main(key.split())
    out = capsys.readouterr().out
    assert code == want["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["sha256"]
