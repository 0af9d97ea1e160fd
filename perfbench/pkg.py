"""Locate the package under test: ``<checkout>/src/crseifert``.

The benchmark measures the source tree it sits beside, never an installed
copy, so a checkout without ``src/crseifert`` is an error.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def load():
    """Import crseifert from ``SRC``; exit with status 1 if it is absent."""
    if not (SRC / "crseifert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'crseifert'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crseifert
    if Path(crseifert.__file__).resolve().parent != SRC / "crseifert":
        raise SystemExit(f"perfbench: imported crseifert from "
                         f"{crseifert.__file__}, not from {SRC}")
    return crseifert


def child_env() -> dict:
    """Environment for a child interpreter that imports only ``SRC``.

    ``CRSF_THREADS`` is pinned to 1: a sweep would otherwise run on a
    thread pool, adding threads to the one-client load and interleaving
    the traced child's spans."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["CRSF_THREADS"] = "1"
    return env
