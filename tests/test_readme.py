"""README's `$ cmscan ...` examples against what the commands print.

Each example is a fenced block whose first line is the command and whose
other lines are its output, with a `...` line standing for lines left
out.  The shown lines must appear in the real stdout in order, each run
of them contiguous, the first run at the start of the output and the
last at its end unless a `...` comes before or after it.
"""
import re
import shlex
from pathlib import Path

import pytest

from cmscan import cli

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE = re.compile(r"^```\n\$ cmscan ([^\n]*)\n(.*?)^```$", re.M | re.S)

# The exit code of each example, as README's text describes it.
EXIT = {
    "fake-degrees G(3,3,2)": 0,
    "scan G(3,3,3)": 0,
    "witness G(5,5,2)": 0,
    "verify-omega G(4,2,2)": 0,
}
# The dataset of the exceptional groups that README's table1 example
# reads does not ship with cmscan, so that example is not run.
NOT_RUN = {"table1 --data exceptional.fd"}


def _examples() -> dict[str, list[str]]:
    return {" ".join(shlex.split(command)): shown.splitlines()
            for command, shown in EXAMPLE.findall(README.read_text("utf-8"))}


def shown_in(shown: list[str], out: list[str]) -> bool:
    """Whether the shown lines are those of ``out``, as described above."""
    runs: list[list[str]] = [[]]
    for line in shown:
        if line.strip() == "...":
            runs.append([])
        else:
            runs[-1].append(line)
    first, *rest = runs
    if out[:len(first)] != first:
        return False
    if not rest:
        return len(out) == len(first)
    *middle, last = rest
    start = len(first)
    for run in middle:
        while out[start:start + len(run)] != run:
            start += 1
            if start + len(run) > len(out):
                return False
        start += len(run)
    return (len(out) - len(last) >= start
            and out[len(out) - len(last):] == last)


def test_every_example_is_checked():
    assert set(_examples()) == set(EXIT) | NOT_RUN


@pytest.mark.parametrize("command", sorted(EXIT))
def test_example_output(command, capsys):
    code = cli.main(shlex.split(command))
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT[command]
    assert shown_in(_examples()[command], out), "\n".join(out)


@pytest.mark.parametrize("shown, matches", [
    (["a", "b", "c"], True),
    (["a", "b"], False),
    (["a", "...", "c"], True),
    (["...", "b", "..."], True),
    (["a", "...", "b", "...", "c"], True),
    (["a", "...", "c", "b"], False),
    (["b", "..."], False),
    (["...", "a"], False),
    (["a", "...", "d", "..."], False),
])
def test_shown_in(shown, matches):
    assert shown_in(shown, ["a", "b", "c"]) == matches
