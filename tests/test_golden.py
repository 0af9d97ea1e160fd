"""Byte-identity corpus of the command line.

Each file in ``tests/golden/records`` holds one command line with the
exact stdout, stderr and exit code it gives; the input files it names sit
in ``tests/golden`` and are given relative to that directory.  A change
that alters output on purpose rewrites the records with
``pytest tests/test_golden.py --regen-golden`` and names every record it
changed.  To add a record, write a file holding only its ``argv`` and
regenerate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crseifert
from crseifert.cli import main

GOLDEN = Path(__file__).parent / "golden"
RECORDS = sorted((GOLDEN / "records").glob("*.json"))


def _lines(text: str) -> list:
    return text.splitlines(keepends=True)


def _run_in_process(argv, capsys) -> dict:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    return {"argv": list(argv), "exit": code,
            "stdout": _lines(captured.out), "stderr": _lines(captured.err)}


def _write(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")


def test_corpus_is_present():
    assert len(RECORDS) >= 90


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.stem)
def test_golden_in_process(path, capsys, monkeypatch, request):
    expected = json.loads(path.read_text(encoding="utf-8"))
    monkeypatch.chdir(GOLDEN)
    got = _run_in_process(expected["argv"], capsys)
    if request.config.getoption("--regen-golden"):
        _write(path, got)
        return
    assert "exit" in expected, f"{path.name} has no output; run --regen-golden"
    assert got == expected


def test_golden_through_python_m():
    """One record through a fresh ``python -m crseifert``, so the exit
    code reaches the shell through ``__main__``."""
    expected = json.loads((GOLDEN / "records" / "nu_--lens_1_1.json")
                          .read_text(encoding="utf-8"))
    src = os.path.dirname(os.path.dirname(crseifert.__file__))
    proc = subprocess.run([sys.executable, "-m", "crseifert", *expected["argv"]],
                          cwd=GOLDEN, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, _lines(proc.stdout), _lines(proc.stderr)) == (
        expected["exit"], expected["stdout"], expected["stderr"])
