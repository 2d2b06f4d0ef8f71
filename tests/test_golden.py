"""Golden CLI bytes: every subcommand form on every data/*.el file gives the
exit code and the stdout, stderr and trace CSV bytes recorded in
golden_cli.json (as sha256 digests).

Refactors must not change a byte of CLI output, so this file is only
rewritten on purpose, from a commit whose output is the intended one:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from densefw.cli import run

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
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


if __name__ == "__main__":
    table = {_key(f, form): call(form, f) for f in FILES for form in FORMS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
