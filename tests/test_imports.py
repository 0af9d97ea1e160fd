"""The package and the CLI import lazily: each subcommand loads only the
modules it uses, and every name the package re-exported when it imported
all of its modules eagerly still imports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crseifert
from crseifert import cli, verify

GOLDEN = Path(__file__).parent / "golden"

# Every name crseifert/__init__.py re-exported when it imported all ten
# modules at package import, by the module that defines it.
REEXPORTED = {
    "berger": ("berger_eta0", "berger_mu", "berger_nu", "berger_webster",
               "hitchin_eta", "hitchin_eta0_limit"),
    "dedekind": ("NonCoprime", "dedekind_fast", "dedekind_float_oracle",
                 "dedekind_rademacher", "dedekind_sum", "reduce_to_classical"),
    "exactq": ("LaurentEps", "PiLaurent", "Rational", "frac",
               "hurwitz_zeta_at_zero", "mod_inverse", "zeta_at_minus_one"),
    "invariants": ("ROUND_T2", "OuyangEta", "check_cor15", "diabatic_expansion",
                   "eta0", "eta_dstar", "nu", "nu_from_eta0", "ouyang_eta",
                   "ouyang_polynomial", "zeta_Q_expansion", "zeta_deltaH"),
    "obstruct": ("burns_epstein", "check_chi2_over_4d", "check_integer_nu",
                 "cusp_signature", "disk_bundle_solve", "filling_identity",
                 "lens_nu_direct", "lens_report", "miyaoka_yau_bound"),
    "rrketa": ("EtaBreakdown", "chi_del", "eta0_via_rrk",
               "regularized_eta_difference", "sphere_h_counts"),
    "seifert": ("ConePoint", "GeomIntegrals", "SeifertData",
                "geom_integrals_const", "from_genus", "lens_space", "sphere",
                "validate", "webster_curvature_const"),
    "spectrum": ("HoloCounts", "SpectralLine", "SpectralMode",
                 "delta2_spectrum", "dstar_limit_spectrum", "lambda_pm",
                 "negative_holomorphic_count", "partial_eta",
                 "virtual_spectrum"),
}

# Runs each command line of argv[1] (a JSON list) in a forked child of one
# interpreter that has imported only crseifert.cli, which is where a fresh
# `python -m crseifert` stands before it dispatches, and prints the
# modules the child then holds, one JSON list per command.
PROBE = """
import json, os, sys
from crseifert.cli import main
for argv in json.loads(sys.argv[1]):
    pid = os.fork()
    if pid == 0:
        sys.stdout = open(os.devnull, "w")
        main(argv)
        os.write(1, (json.dumps(sorted(sys.modules)) + "\\n").encode())
        os._exit(0)
    os.waitpid(pid, 0)
"""

MANIFOLD_COMMANDS = ("nu", "eta0", "eta-dstar", "ouyang", "diabatic", "rrk-eta")
SOURCES = (("--lens", "3", "2"), ("--sphere",),
           ("--input", str(GOLDEN / "manifold.json")))


def _loaded_modules(argvs) -> list:
    src = os.path.dirname(os.path.dirname(crseifert.__file__))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [set(json.loads(line)) for line in proc.stdout.splitlines()]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the probe forks")
def test_each_subcommand_loads_only_its_modules():
    manifold = [[cmd, *where] for cmd in MANIFOLD_COMMANDS for where in SOURCES]
    loaded = _loaded_modules(manifold + [["dedekind", "3", "1", "1"]])
    assert len(loaded) == len(manifold) + 1
    unused = {"crseifert.berger", "crseifert.obstruct", "crseifert.spectrum",
              "crseifert.verify", "dataclasses"}
    for argv, modules in zip(manifold, loaded):
        assert not modules & unused, (argv, sorted(modules & unused))
    assert {m for m in loaded[-1] if m.startswith("crseifert")} == {
        "crseifert", "crseifert.cli", "crseifert.exactq", "crseifert.dedekind"}


def test_every_reexported_name_imports():
    for module, names in REEXPORTED.items():
        defining = importlib.import_module(f"crseifert.{module}")
        for name in names:
            namespace = {}
            exec(f"from crseifert import {name}", namespace)
            assert namespace[name] is getattr(defining, name), name
    assert set(crseifert.__all__) == ({n for ns in REEXPORTED.values() for n in ns}
                                      | set(REEXPORTED))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        crseifert.no_such_name


def test_cli_scopes_match_verify():
    assert cli.VERIFY_SCOPES == tuple(verify.scopes())
