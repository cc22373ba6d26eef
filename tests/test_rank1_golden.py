"""The full `--machine` reports of `dl --check all` and `dualsym` against a
recorded transcript: every identity name, its order and its verdict, plus
one summary-format report of each verb.

golden/rank1_reports.txt holds one block per command: a `$ rigikit ARGS`
line followed by the command's exact stdout (each command exits 0).
"""

from pathlib import Path

import pytest

from rigikit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "rank1_reports.txt"


def _transcript():
    blocks = []
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("$ rigikit "):
            blocks.append((line[len("$ rigikit "):].split(), []))
        else:
            blocks[-1][1].append(line)
    return [(argv, "".join(out)) for argv, out in blocks]


CASES = _transcript()


@pytest.mark.parametrize("argv,expected", CASES,
                         ids=["_".join(argv) for argv, _ in CASES])
def test_rank1_machine_report(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
