"""Self-tests of the benchmark itself, not of crseifert:

    python3 -m pytest perfbench -q
"""

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pkg  # noqa: E402

pkg.load()

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT_UNITS = ("count", "ratio")


@pytest.fixture
def workdir():
    path = pkg.OUT / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def first(name, workdir, seed=1, where=lambda inp: True):
    wl = workloads.WORKLOADS[name](seed, workdir)
    inp = next(i for i in wl.stream() if where(i))
    return inp, wl.keep(inp, wl.run(inp))


def test_tampered_invariant_sweep_fails(workdir):
    wl = workloads.InvariantSweep(1, workdir)
    inp = next(i for i in wl.stream() if i[0] == "lens")
    result = wl.run(inp)
    assert checks.check(wl.name, inp, wl.keep(inp, result), {}) == []
    tampered_eta0 = (result[0] + 1,) + result[1:]
    assert checks.check(wl.name, inp, wl.keep(inp, tampered_eta0), {})
    report = result[5]
    row = dataclasses.replace(report[0], status=checks.FAIL)
    tampered_report = result[:5] + ([row] + report[1:],)
    assert checks.check(wl.name, inp, wl.keep(inp, tampered_report), {})


def test_tampered_rrk_crosscheck_fails(workdir):
    inp, value = first("rrk-crosscheck", workdir)
    assert checks.check("rrk-crosscheck", inp, value, {}) == []
    assert checks.check("rrk-crosscheck", inp, value + Fraction(1, 3), {})


def test_tampered_spectrum_build_fails(workdir):
    inp, (full, digest) = first("spectrum-build", workdir)
    assert checks.check("spectrum-build", inp, (full, digest), {}) == []
    spectra, csvs = full
    line = spectra[0][0]
    bumped = [dataclasses.replace(line, mult=line.mult + 1)] + spectra[0][1:]
    tampered = ([bumped] + spectra[1:], csvs)
    assert checks.check("spectrum-build", inp, (tampered, digest), {})
    assert checks.check("spectrum-build", inp, (None, "0" * 64), {inp[0]: digest})


@pytest.mark.parametrize("case", [
    workloads.CliCase(("nu", "--lens", "7", "2"), "nu", manifold=("lens", 7, 2)),
    workloads.CliCase(("verify", "invariants"), "verify", value="invariants"),
    workloads.CliCase(("sweep", "lens", "--pmax", "12"), "sweep", value=12),
])
def test_tampered_cli_output_fails(workdir, case):
    wl = workloads.WORKLOADS["cli-oneshot"](1, workdir)
    result = wl.run(case)
    assert checks.check("cli-oneshot", case, result, {}) == []
    lines = result.stdout.splitlines()
    if case.command == "nu":
        lines[0] = str(Fraction(lines[0]) + 1)
    elif case.command == "verify":
        lines[-1] = lines[-1].replace(" 0 exact failures", " 1 exact failures")
    else:
        lines.pop()
    tampered = dataclasses.replace(result, stdout="\n".join(lines) + "\n")
    assert checks.check("cli-oneshot", case, tampered, {})
    assert checks.check("cli-oneshot", case,
                        dataclasses.replace(result, code=3), {})


def test_tampered_cli_spectrum_fails(workdir):
    wl = workloads.WORKLOADS["cli-oneshot"](1, workdir)
    case = next(c for c in wl.stream() if c.command == "spectrum")
    result = wl.run(case)
    assert checks.check("cli-oneshot", case, result, {}) == []
    kept_rows = result.stdout.splitlines()[:-1]
    dropped = dataclasses.replace(result, stdout="\n".join(kept_rows) + "\n")
    assert checks.check("cli-oneshot", case, dropped, {})


@pytest.mark.parametrize("n", [20, 21, 203, 9456, 10001])
def test_latency_tail_leaves_ten_samples_beyond(n):
    ordered = list(range(n))
    tail = run.quantile(ordered, run.tail_percentile(n))
    assert sum(x > tail for x in ordered) == 10


def test_latency_tail_is_the_median_below_twenty_samples():
    assert run.tail_percentile(5) == 50.0


def exact_counts(name, workdir, seed, n_ops):
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.trace_ops = n_ops
    outcome, _ = run.traced_run(argparse.Namespace(seed=seed), wl, wl.stream())
    assert outcome["failed"] == 0
    return {k: v["value"] for k, v in outcome["metrics"].items()
            if v["unit"] in EXACT_UNITS and k != "trace.overhead_ratio"}


@pytest.mark.parametrize("name,n_ops", [
    ("invariant-sweep", 30), ("rrk-crosscheck", 5), ("spectrum-build", 2),
    ("cli-oneshot", 3)])
def test_traced_counts_repeat_at_one_seed(workdir, name, n_ops):
    counts = exact_counts(name, workdir, 1, n_ops)
    assert counts == exact_counts(name, workdir, 1, n_ops)
    assert counts["dedekind.oracle.calls"] == 0


def test_trace_sees_lens_report_structure(workdir):
    counts = exact_counts("invariant-sweep", workdir, 1, 30)
    assert counts["obstruct.lens_report.calls"] > 0
    assert counts["obstruct.sawtooth_per_report"] == 6
    assert counts["obstruct.lens_report.dedekind_distinct_ratio"] == 0.5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(workdir, name):
    def inputs(seed):
        return list(islice(workloads.WORKLOADS[name](seed, workdir).stream(), 10))
    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_tracer_restores_originals():
    from crseifert import dedekind, invariants
    from crseifert.exactq import PiLaurent
    before = (dedekind.dedekind_rademacher, invariants.dedekind_rademacher,
              PiLaurent.__add__)
    trace = tracer.Tracer()
    trace.install()
    try:
        assert invariants.dedekind_rademacher is dedekind.dedekind_rademacher
        assert invariants.dedekind_rademacher is not before[1]
    finally:
        trace.uninstall()
    assert (dedekind.dedekind_rademacher, invariants.dedekind_rademacher,
            PiLaurent.__add__) == before


def test_benchmark_json_matches_the_code():
    bench = json.loads((pkg.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(tracer.PER_LAYER)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)


def test_fails_without_the_package():
    bare = pkg.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(pkg.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(pkg.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-oneshot",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
