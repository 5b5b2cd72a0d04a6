"""Byte-for-byte comparison of the CLI text reports on both fixtures
against the files in tests/golden.

Regenerate the files, after a deliberate change to the text output, with
    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib
import sys

import pytest

from collindiag.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
COMMANDS = {
    "rdetr": (),
    "vif": (),
    "cn": (),
    "cns": (),
    "ki": (),
    "cv": (),
    "multicol": (),
    "ols": (),
    "perturb": ("--seed", "5", "--iterations", "1000"),
}
CASES = [(command, name) for name in ("kg", "theil") for command in COMMANDS]


def _argv(command: str, name: str) -> list[str]:
    return [command, "--fixture", name, *COMMANDS[command]]


def _path(command: str, name: str) -> pathlib.Path:
    return GOLDEN / f"{name}_{command}.txt"


@pytest.mark.parametrize("command,name", CASES)
def test_text_report_matches_golden(capsys, command, name):
    assert main(_argv(command, name)) == 0
    assert capsys.readouterr().out == _path(command, name).read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    for command, name in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(_argv(command, name))
        _path(command, name).write_text(buf.getvalue(), encoding="utf-8")
    sys.exit(0)
