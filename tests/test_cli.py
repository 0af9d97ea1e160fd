import json
import os
import subprocess
import sys
from fractions import Fraction

import crseifert
from crseifert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_nu_lens(capsys):
    code, out = run(capsys, "nu", "--lens", "3", "2")
    assert code == 0 and out == "-11/3\n"


def test_eta0_lens(capsys):
    code, out = run(capsys, "eta0", "--lens", "3", "2")
    assert code == 0 and out == "4/3\n"


def test_eta_dstar_sphere(capsys):
    code, out = run(capsys, "eta-dstar", "--sphere")
    assert code == 0 and out == "2/3 - 1/32*pi^2\n"


def test_json_output(capsys):
    code, out = run(capsys, "nu", "--lens", "3", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"invariant": "nu", "value": "-11/3",
                               "route": "constant-curvature"}


def test_dedekind_command(capsys):
    code, out = run(capsys, "dedekind", "3", "1", "1")
    assert code == 0 and out == "1/18\n"


def test_dedekind_command_large_alpha(capsys):
    alpha = 1_000_000_007
    code, out = run(capsys, "dedekind", str(alpha), "1", "1")
    assert code == 0
    assert out == f"{Fraction((alpha - 1) * (alpha - 2), 12 * alpha)}\n"


def test_import_and_nu_leave_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(crseifert.__file__))
    script = ("import sys, crseifert\n"
              "assert 'numpy' not in sys.modules\n"
              "from crseifert.cli import main\n"
              "assert main(['nu', '--lens', '3', '2']) == 0\n"
              "assert 'numpy' not in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "-11/3\n"


def test_ouyang_polynomial(capsys):
    code, out = run(capsys, "ouyang", "--sphere")
    assert code == 0 and out == "2/3 + -2/3*t^2 + 1/6*t^4\n"


def test_rrk_breakdown(capsys):
    code, out = run(capsys, "rrk-eta", "--lens", "3", "2", "--breakdown")
    assert code == 0
    assert json.loads(out) == {"affine_part": "-1/18", "periodic_part": "2/9",
                               "total": "1/6", "eta0": "4/3"}


def test_input_file(tmp_path, capsys):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({
        "genus": 0, "degree": "-1/3",
        "cone_points": [{"alpha": 3, "rho": 1, "beta": 1},
                        {"alpha": 3, "rho": 2, "beta": 2}]}))
    code, out = run(capsys, "eta0", "--input", str(path))
    assert code == 0 and out == "4/3\n"


def test_nu_with_supplied_integral(capsys):
    # constant-curvature base integral for the sphere: 8*pi
    code, out = run(capsys, "nu", "--sphere", "--int-r2-base", "8*pi")
    assert code == 0 and out == "-1\n"


def test_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(capsys, "nu", "--input", str(path))
    assert code == 2
    path.write_text(json.dumps({"degree": "-1"}))
    code, _ = run(capsys, "nu", "--input", str(path))
    assert code == 2


def test_domain_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"genus": 0, "degree": "1"}))
    code, _ = run(capsys, "nu", "--input", str(path))
    assert code == 3
    code, _ = run(capsys, "lens", "2", "1")
    assert code == 3
    code, _ = run(capsys, "dedekind", "4", "2", "1")
    assert code == 3


def test_lens_report_command(capsys):
    code, out = run(capsys, "lens", "3", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,lhs,rhs,status"
    assert any("EXACT-PASS" in line for line in lines)
    assert any("REPORT-MISMATCH" in line for line in lines)


def test_obstruction_command(capsys):
    code, out = run(capsys, "obstruction", "--sphere", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == "-1"
    assert payload["nu_integer"] == "pass"
    assert payload["einstein_filling_bound"] == "1"


def test_verify_all(capsys):
    code, out = run(capsys, "verify", "all")
    assert code == 0
    assert "0 exact failures" in out
    assert "REPORT-MISMATCH" in out   # surfaced, not failing


def test_verify_single_scope(capsys):
    code, out = run(capsys, "verify", "rrketa")
    assert code == 0
    assert "eta0_via_rrk" in out or "holomorphic" in out


def test_sweep_lens(capsys):
    code, out = run(capsys, "sweep", "lens", "--pmax", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p,q,nu,eta_round")
    assert lines[1].startswith("3,2,-11/3,10/9,EXACT-PASS,-1,REPORT-MISMATCH")
    # deterministic: second run byte-identical
    code, out2 = run(capsys, "sweep", "lens", "--pmax", "10")
    assert out2 == out


def test_sweep_berger(capsys):
    code, out = run(capsys, "sweep", "berger", "--samples", "5", "--format", "md")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("|")]
    assert len(rows) == 2 + 5
    assert all("True" in row for row in rows[2:])


def test_sweep_berger_exact_output(capsys):
    code, out = run(capsys, "sweep", "berger", "--samples", "3")
    assert code == 0
    assert out == (
        "lambda2,nu,eta0,mu,R2,tau2,id_sum,id_mu,id_curvature\n"
        "10/21,83/280,89/315,-159/280,961/840,121/840,True,True,True\n"
        "13/21,-43/91,418/819,-75/91,289/273,16/273,True,True,True\n"
        "16/21,-373/448,311/504,-423/448,1369/1344,25/1344,True,True,True\n")


BERGER_3_2 = (("eta0", "5/9"), ("nu", "-5/8"), ("mu", "-7/8"),
              ("R2", "25/24"), ("tau2", "1/24"))
BERGER_3_2_IDENTITIES = (("id_nu_plus_3eta0_is_R2", "True"),
                         ("id_nu_is_3mu_plus_2", "True"),
                         ("id_limit_matches", "True"))


def test_berger_command(capsys):
    code, out = run(capsys, "berger", "--lambda2", "3/2")
    assert code == 0
    assert out == "".join(f"{k} = {v}\n" for k, v in BERGER_3_2)


def test_berger_all_identities(capsys):
    expected = BERGER_3_2 + BERGER_3_2_IDENTITIES
    code, out = run(capsys, "berger", "--lambda2", "3/2", "--all-identities")
    assert code == 0
    assert out == "".join(f"{k} = {v}\n" for k, v in expected)
    code, out = run(capsys, "berger", "--lambda2", "3/2", "--all-identities",
                    "--json")
    assert code == 0
    assert list(json.loads(out).items()) == list(expected)


def test_berger_nonpositive_is_domain_error(capsys):
    code = main(["berger", "--lambda2", "-1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "domain error: lambda^2 must be positive, got -1\n"


def test_sweep_disk(capsys):
    code, out = run(capsys, "sweep", "disk", "--chimin", "-8", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["chi"] for row in rows] == ["-2", "-4", "-6", "-8"]
    assert all(row["is_half_chi"] == "True" for row in rows)


def test_spectrum_command(tmp_path, capsys):
    modes = tmp_path / "modes.json"
    modes.write_text(json.dumps([{"k": "4", "n": 0, "mult": 1},
                                 {"k": "2", "n": 2, "mult": 2}]))
    holo = tmp_path / "holo.json"
    holo.write_text(json.dumps({"h0": {"2": 1}, "h2": {"3": 2}}))
    code, out = run(capsys, "spectrum", "--modes", str(modes),
                    "--holo", str(holo), "--eps", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value,mult,family,origin"
    assert "-2,1,minus,k=4;n=0" in lines
    assert "3,4,holomorphic,n=3" in lines

    code, out = run(capsys, "spectrum", "--modes", str(modes),
                    "--holo", str(holo), "--limit")
    assert code == 0
    assert "-4,1,minus,k=4;n=0" in out.splitlines()


def test_spectrum_missing_eps(tmp_path, capsys):
    modes = tmp_path / "modes.json"
    modes.write_text(json.dumps([{"k": "1", "n": 0, "mult": 1}]))
    code, _ = run(capsys, "spectrum", "--modes", str(modes))
    assert code == 2


def test_spectrum_infeasible_subtraction(tmp_path, capsys):
    modes = tmp_path / "modes.json"
    modes.write_text(json.dumps([{"k": "1", "n": 1, "mult": 1}]))
    holo = tmp_path / "holo.json"
    holo.write_text(json.dumps({"h0": {"1": 5}, "h2": {}}))
    code, _ = run(capsys, "spectrum", "--modes", str(modes),
                  "--holo", str(holo), "--eps", "1/2")
    assert code == 3


def test_spectrum_rejects_non_finite_numbers(tmp_path, capsys):
    modes = tmp_path / "modes.json"
    holo = tmp_path / "holo.json"
    holo.write_text(json.dumps({"h0": {"1": float("inf")}}))
    for entry in ({"k": float("nan"), "n": 1, "mult": 1},
                  {"k": float("inf"), "n": 2, "mult": 1},
                  {"k": float("-inf"), "n": 2, "mult": 1},
                  {"k": 1, "n": float("inf"), "mult": 1},
                  {"k": 1, "n": 1, "mult": float("nan")}):
        modes.write_text(json.dumps([entry]))
        for mode_args in (("--eps", "1/4"), ("--limit",)):
            code, out = run(capsys, "spectrum", "--modes", str(modes),
                            *mode_args)
            assert code == 2 and out == ""
    modes.write_text(json.dumps([{"k": 1, "n": 1, "mult": 1}]))
    code, out = run(capsys, "spectrum", "--modes", str(modes),
                    "--holo", str(holo), "--eps", "1/4")
    assert code == 2 and out == ""


def test_manifold_rejects_infinite_integers(tmp_path, capsys):
    path = tmp_path / "data.json"
    for doc in ({"genus": float("inf"), "degree": "-1"},
                {"genus": 0, "degree": "-1",
                 "cone_points": [{"alpha": float("inf"), "rho": 1, "beta": 1}]}):
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "nu", "--input", str(path))
        assert code == 2 and out == ""
