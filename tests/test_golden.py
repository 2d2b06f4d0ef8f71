"""Golden CLI bytes: every subcommand form on every data/*.el file gives the
exit code and the stdout, stderr and trace CSV bytes recorded in
golden_cli.json (as sha256 digests).

The `--help` text of the parser and of each subcommand, at COLUMNS=80, is
recorded whole in golden_help.json. argparse's layout is not promised
across Python versions, so those bytes are compared, and rewritten, on
HELP_PYTHON only.

Refactors must not change a byte of CLI output, so these files are only
rewritten on purpose, from a commit whose output is the intended one:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from densefw.cli import run

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
HELP_GOLDEN = Path(__file__).resolve().parent / "golden_help.json"
HELP_PYTHON = (3, 11)  # the minor version golden_help.json was recorded with
HELP_COMMANDS = ("", "density", "decompose", "greedypp", "supergreedypp", "treepack", "idealloads", "fw-qp", "verify")
FILES = sorted(p.name for p in DATA_DIR.glob("*.el"))

TRACE = ["--trace", "TRACE"]  # TRACE stands for a fresh file path
FORMS = {
    "density": ["density"],
    "decompose": ["decompose"],
    "decompose-sub-del": ["decompose", "--variant", "sub-del"],
    "idealloads": ["idealloads"],
    "verify": ["verify"],
    "greedypp": ["greedypp"],
    "greedypp-eps-trace": ["greedypp", "--iters", "200", "--epsilon", "0.001", *TRACE],
    "supergreedypp-edges-trace": ["supergreedypp", "--fn", "edges", "--iters", "60", *TRACE],
    "supergreedypp-rank-dual-trace": ["supergreedypp", "--fn", "rank-dual", "--iters", "60", *TRACE],
    "treepack-trace": ["treepack", "--iters", "300", *TRACE],
    "treepack-fw-standard-trace": ["treepack", "--mode", "fw", "--schedule", "standard", "--iters", "300", *TRACE],
    "fw-qp": ["fw-qp"],
    "fw-qp-standard": ["fw-qp", "--schedule", "standard"],
    "fw-qp-exact": ["fw-qp", "--exact", "--iters", "20"],
    "fw-qp-exact-standard": ["fw-qp", "--exact", "--iters", "20", "--schedule", "standard"],
    "fw-qp-exact-over-cap": ["fw-qp", "--exact", "--iters", "21"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call(form: str, file: str) -> dict:
    """Run one form in process: its exit code and the digests of stdout,
    stderr and the trace CSV (None when no trace was written)."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        argv = [str(trace) if a == "TRACE" else a for a in FORMS[form]] + [str(DATA_DIR / file)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        return {
            "exit": code,
            "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()),
            "trace": _sha(trace.read_bytes()) if trace.exists() else None,
        }


def help_text(command: str) -> str:
    """`densefw [command] --help` on stdout, 80 columns wide."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out):
        assert run([command, "--help"] if command else ["--help"]) == 0
    return out.getvalue()


def _key(file: str, form: str) -> str:
    return f"{file} {form}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_file_and_form(golden):
    assert sorted(golden) == sorted(_key(f, form) for f in FILES for form in FORMS)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("file", FILES)
def test_cli_bytes_match_golden(golden, file, form):
    assert call(form, file) == golden[_key(file, form)]


@pytest.mark.skipif(sys.version_info[:2] != HELP_PYTHON, reason="argparse's help layout varies across Python versions")
@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_bytes_match_golden(command):
    assert help_text(command) == json.loads(HELP_GOLDEN.read_text(encoding="utf-8"))[command]


if __name__ == "__main__":
    table = {_key(f, form): call(form, f) for f in FILES for form in FORMS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if sys.version_info[:2] == HELP_PYTHON:
        helps = {command: help_text(command) for command in HELP_COMMANDS}
        HELP_GOLDEN.write_text(json.dumps(helps, indent=1) + "\n", encoding="utf-8")
