"""Comparison of the CLI reports on both fixtures, and of `slm` on two
small CSVs, against the files in tests/golden.

Text reports must match byte for byte.  JSON reports must match in keys,
key order, strings, ints, bools and nulls exactly, and in floats to
1e-12 relative.

Regenerate the files, after a deliberate change to the output, with
    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import pathlib
import sys

import pytest

from collindiag.cli import main
from collindiag.fixtures import FIXTURE_NAMES

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
# CSV files in tests/golden, read with the CWD there, and their role flags:
# one intercept-plus-quantitative and one intercept-plus-dummy design.
DATA = {
    "theil_income": ("--response", "consumption"),
    "theil_twenties": ("--response", "consumption", "--dummy", "twenties"),
}
CASES = [(command, name) for name in ("kg", "theil") for command in COMMANDS]
CASES += [("slm", name) for name in DATA]


def _argv(command: str, name: str) -> list[str]:
    if name in FIXTURE_NAMES:
        return [command, "--fixture", name, *COMMANDS[command]]
    return [command, "--data", f"{name}.csv", *DATA[name]]


def _path(command: str, name: str, suffix: str) -> pathlib.Path:
    return GOLDEN / f"{name}_{command}.{suffix}"


def _assert_matches(actual, expected, where="$"):
    if isinstance(expected, float):
        assert isinstance(actual, float), where
        assert (math.isclose(actual, expected, rel_tol=1e-12)
                or math.isnan(actual) and math.isnan(expected)), (where, actual, expected)
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key, value in expected.items():
            _assert_matches(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, value in enumerate(expected):
            _assert_matches(actual[i], value, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (where, actual, expected)


@pytest.fixture(autouse=True)
def _in_golden_dir(monkeypatch):
    monkeypatch.chdir(GOLDEN)


@pytest.mark.parametrize("command,name", CASES)
def test_text_report_matches_golden(capsys, command, name):
    assert main(_argv(command, name)) == 0
    assert capsys.readouterr().out == _path(command, name, "txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("command,name", CASES)
def test_json_report_matches_golden(capsys, command, name):
    assert main([*_argv(command, name), "--format", "json"]) == 0
    expected = json.loads(_path(command, name, "json").read_text(encoding="utf-8"))
    _assert_matches(json.loads(capsys.readouterr().out), expected)


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(GOLDEN)
    for command, name in CASES:
        for suffix, extra in (("txt", []), ("json", ["--format", "json"])):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main([*_argv(command, name), *extra])
            _path(command, name, suffix).write_text(buf.getvalue(), encoding="utf-8")
    sys.exit(0)
