"""Independent checks of every kept result; they run after the timed loop.

Each check recomputes the value along a route the timed operation did not
take and returns a list of problems, empty when the result is right.
Dedekind sums are taken both by the sawtooth sum and by
reduce_to_classical + dedekind_fast, and the two must agree, so the checks
stay independent whichever route ``cone_sum`` uses.  Invariants are
rebuilt from the manifold spec (degree, Euler characteristic and cone
list worked out here), not from the package's ``SeifertData``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from crseifert import berger, dedekind, invariants
from crseifert.exactq import LaurentEps, PiLaurent
from crseifert.spectrum import SpectralLine

import workloads

PASS, FAIL = "EXACT-PASS", "EXACT-FAIL"
MATCH, MISMATCH = "REPORT-MATCH", "REPORT-MISMATCH"
TABLE_HEAD = ("check", "lhs", "rhs", "status")
SWEEP_HEAD = ("p,q,nu,eta_round,internal_identity,nu_direct,nu_compare,"
              "eta_aps,eta_compare")
RATIONAL = re.compile(r"-?\d+(/\d+)?")
VERIFY_SUMMARY = re.compile(r"# (\d+) checks, 0 exact failures, \d+ reported mismatches")


class Mismatch(Exception):
    """Two independent routes disagree inside the checker itself."""


def dedekind_sum(alpha: int, rho: int, beta: int) -> Fraction:
    saw = dedekind.dedekind_rademacher(alpha, rho, beta)
    _, c = dedekind.reduce_to_classical(alpha, rho, beta)
    fast = dedekind.dedekind_fast(c, alpha)
    if saw != fast:
        raise Mismatch(f"s({alpha},{rho},{beta}): sawtooth {saw} != "
                       f"reciprocity {fast}")
    return fast


@dataclass(frozen=True)
class Expected:
    degree: Fraction
    chi: Fraction
    eta0: Fraction
    nu: Fraction
    eta_dstar: dict      # pi exponent -> coefficient, zeros left out
    eta_round: Fraction  # ouyang eta at the round metric t^2 = 2


def _nonzero(coeffs: dict) -> dict:
    return {e: c for e, c in coeffs.items() if c != 0}


def expected(spec) -> Expected:
    """Closed forms from the manifold spec.

    L(p, q) is the degree -1/p bundle over a sphere with cones
    (p, q-1, 1) and (p, 1-q, q); the sphere is degree -1 with no cones;
    genus data has chi = 2 - 2g - sum(1 - 1/alpha).
    """
    if spec[0] == "lens":
        p, q = spec[1], spec[2]
        degree, chi = Fraction(-1, p), Fraction(2, p)
        cones = ((p, (q - 1) % p, 1), (p, (1 - q) % p, q % p))
    elif spec[0] == "sphere":
        degree, chi, cones = Fraction(-1), Fraction(2), ()
    else:
        _, g, degree, cones = spec
        chi = Fraction(2 - 2 * g) - sum(1 - Fraction(1, a) for a, _, _ in cones)
    s = sum((dedekind_sum(*c) for c in cones), Fraction(0))
    eta0 = 1 + degree / 3 + 4 * s
    # eta(D*) = eta0 - int_R2/512 with int_R2 = -4 chi^2/d * pi^2
    return Expected(degree, chi, eta0,
                    nu=-degree - 3 - 12 * s - chi * chi / (4 * degree),
                    eta_dstar=_nonzero({0: eta0, 2: chi * chi / (128 * degree)}),
                    eta_round=eta0 - 2 * chi / 3 - 2 * degree / 3)


def lens_rows(p: int, q: int, e: Expected = None) -> list:
    """(check, lhs, rhs, status) of lens_report(p, q), recomputed; ``e``
    is ``expected(("lens", p, q))`` when the caller has it already."""
    e = e or expected(("lens", p, q))
    s = dedekind_sum(p, q, 1)
    internal = e.nu + 3 * e.eta_round
    direct, aps = Fraction(-1, p) + 12 * s, -4 * s
    return [
        (f"lens({p},{q}): nu + 3*eta_round == -1/p", internal, Fraction(-1, p),
         PASS if internal == Fraction(-1, p) else FAIL),
        (f"lens({p},{q}): nu vs direct closed form", e.nu, direct,
         MATCH if e.nu == direct else MISMATCH),
        (f"lens({p},{q}): eta_round vs -4*s(p,q,1)", e.eta_round, aps,
         MATCH if e.eta_round == aps else MISMATCH),
    ]


def _compare(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_invariant_sweep(spec, kept) -> list:
    """``kept`` is the digest of InvariantSweep.values(result)."""
    e = expected(spec)
    want = (e.eta0, e.nu, sorted(e.eta_dstar.items()),
            [sorted(_nonzero({0: c}).items())
             for c in (-e.degree / 6, -e.chi / 3, e.eta0)] + [[], []],
            True,
            [row[1:] for row in lens_rows(spec[1], spec[2], e)]
            if spec[0] == "lens" else None)
    if kept != workloads.fingerprint(want):
        return [f"invariant bundle differs from the Dedekind closed forms "
                f"(eta0 = {e.eta0}, nu = {e.nu})"]
    return []


def check_rrk_crosscheck(spec, value) -> list:
    problems = []
    _compare(problems, "eta0_via_rrk vs Dedekind closed form", value,
             expected(spec).eta0)
    _compare(problems, "eta0_via_rrk vs invariants.eta0", value,
             invariants.eta0(workloads.build(spec)))
    return problems


def check_lines(lines, ms, eps) -> list:
    """Problems with one spectrum of mode set ``ms``: the virtual spectrum
    at ``eps``, or the D* limit when ``eps`` is None.  Checks the total
    multiplicity, the holomorphic lines and, for every exact line, the
    quadratic residual (or -k in the limit)."""
    added = sum(2 * m for n, m in ms.holo.h2.items() if m > 0 and n != 0)
    removed = sum(2 * m for n, m in ms.holo.h0.items() if m > 0 and n >= 1)
    if eps is None:
        total = sum(m.mult for m in ms.modes if m.k != 0)
    else:
        total = sum(m.mult * (1 if m.k == 0 and m.n == 0 else 2) for m in ms.modes)
    problems = []
    _compare(problems, "total multiplicity", sum(l.mult for l in lines),
             total - removed + added)
    _compare(problems, "holomorphic lines",
             sorted((l.value, l.mult) for l in lines if l.family == "holomorphic"),
             sorted((Fraction(n), 2 * m) for n, m in ms.holo.h2.items()
                    if m > 0 and n != 0))
    for line in lines:
        if line.family == "holomorphic" or isinstance(line.value, float):
            continue
        k_text, n_text = line.origin.split(";")
        k, n = Fraction(k_text[2:]), int(n_text[2:])
        if eps is None:
            residual = line.value + k
        else:
            lam = line.value * eps
            residual = lam * lam - lam - (eps * k + eps * eps * n * n)
        if residual != 0:
            problems.append(f"line {line} has residual {residual}")
            break
    return problems


def check_spectrum_build(inp, kept, first_digest: dict) -> list:
    """Every spectrum of the first use of a mode set, and its CSV row
    count; a repeated mode set must reproduce the CSV byte for byte."""
    index, ms = inp
    full, digest = kept
    if full is None:
        return [] if first_digest.get(index) == digest else [
            f"mode set {index}: CSV differs from its first use"]
    first_digest[index] = digest
    spectra, csvs = full
    problems = []
    for lines, eps, csv in zip(spectra, ms.eps + (None,), csvs):
        problems += check_lines(lines, ms, eps)
        _compare(problems, "CSV rows", csv.count("\n"), len(lines))
    return problems


def _csv_lines(text: str) -> list:
    """SpectralLines back from ``spectrum`` CSV output (header skipped)."""
    lines = []
    for row in text.splitlines()[1:]:
        value, mult, family, origin = row.split(",")
        exact = RATIONAL.fullmatch(value) is not None
        lines.append(SpectralLine(Fraction(value) if exact else float(value),
                                  int(mult), family, origin))
    return lines


def exact_line_share(spectra) -> tuple:
    """(exact lines, all lines) over the given spectra, counted as lines."""
    exact = total = 0
    for lines in spectra:
        total += len(lines)
        exact += sum(1 for l in lines if not isinstance(l.value, float))
    return exact, total


def _key_values(text: str) -> dict:
    return dict(line.split(" = ", 1) for line in text.splitlines())


def _table(text: str, fmt: str) -> tuple:
    """(header, rows) of a check/lhs/rhs/status table in any CLI format."""
    if fmt == "json":
        return TABLE_HEAD, [tuple(row[h] for h in TABLE_HEAD)
                            for row in json.loads(text)]
    lines = text.splitlines()
    if fmt == "csv":
        return (tuple(lines[0].split(",")),
                [tuple(line.rsplit(",", 3)) for line in lines[1:]])
    cells = [tuple(line[2:-2].split(" | ")) for line in lines
             if line.startswith("| ") and not line.startswith("| ---")]
    return cells[0], cells[1:]


def _admissible_count(pmax: int) -> int:
    return sum(1 for p in range(2, pmax + 1) for q in range(1, p)
               if math.gcd(p, q) == 1 and math.gcd(q - 1, p) == 1)


def _invariant_output(case, e: Expected):
    """Expected stdout of a manifold command: a dict when it prints JSON."""
    as_json = "--json" in case.flags
    if case.command == "ouyang":
        c1, c2 = -e.chi / 3, -e.degree / 6
        if case.value is not None:
            t2 = case.value
            value = e.eta0 + c1 * t2 + c2 * t2 * t2
            return ({"invariant": "ouyang_eta", "value": str(value),
                     "route": f"t2={t2}"} if as_json else f"{value}\n")
        if as_json:
            return {"invariant": "ouyang_eta_polynomial", "c0": str(e.eta0),
                    "c1": str(c1), "c2": str(c2)}
        return f"{e.eta0} + {c1}*t^2 + {c2}*t^4\n"
    if case.command == "diabatic":
        coeffs = {-2: -e.degree / 6, -1: -e.chi / 3, 0: e.eta0}
        if as_json:
            return {"invariant": "diabatic_expansion",
                    "coefficients": {str(i): str(c) for i, c in coeffs.items()
                                     if c != 0}}
        return f"{LaurentEps(coeffs)}\n"
    if case.command == "obstruction":
        chi2 = e.chi * e.chi / (4 * e.degree)
        payload = {
            "nu": str(e.nu),
            "nu_integer": "pass" if e.nu.denominator == 1 else "obstructed",
            "chi2_over_4d": str(chi2),
            "chi2_over_4d_integer": "pass" if chi2.denominator == 1 else "obstructed",
            "einstein_filling_bound": str(-e.nu),
        }
        return payload if as_json else "".join(f"{k} = {v}\n"
                                               for k, v in payload.items())
    if case.command == "rrk-eta" and "--breakdown" in case.flags:
        affine, total = e.degree / 6, (e.eta0 - 1) / 2
        return {"affine_part": str(affine), "periodic_part": str(total - affine),
                "total": str(total), "eta0": str(e.eta0)}
    value, route = {
        "nu": (e.nu, "constant-curvature"),
        "eta0": (e.eta0, "closed-form"),
        "eta-dstar": (PiLaurent(e.eta_dstar), "constant-curvature"),
        "rrk-eta": (e.eta0, "holomorphic-counting"),
    }[case.command]
    invariant = {"eta-dstar": "eta_dstar", "rrk-eta": "eta0"}.get(
        case.command, case.command)
    if as_json:
        return {"invariant": invariant, "value": str(value), "route": route}
    return f"{value}\n"


def _check_berger(case, out: str) -> list:
    values = json.loads(out) if "--json" in case.flags else _key_values(out)
    lam, problems = case.value, []
    got = {k: Fraction(values[k]) for k in ("eta0", "nu", "mu", "R2", "tau2")}
    r2 = (1 + lam) ** 2 / (4 * lam)
    _compare(problems, "berger eta0 vs hitchin limit", got["eta0"],
             berger.hitchin_eta0_limit(lam))
    _compare(problems, "berger R2", got["R2"], r2)
    _compare(problems, "berger tau2 = R2 - 1", got["tau2"], r2 - 1)
    _compare(problems, "berger nu = 9 tau2 - 1", got["nu"], 9 * (r2 - 1) - 1)
    _compare(problems, "berger mu = 3 tau2 - 1", got["mu"], 3 * (r2 - 1) - 1)
    identities = sorted(k for k in values if k.startswith("id_"))
    _compare(problems, "berger identities",
             [values[k] for k in identities],
             ["True"] * (3 if "--all-identities" in case.flags else 0))
    return problems


def _compare_output(problems: list, case, out: str, want) -> None:
    got = json.loads(out) if isinstance(want, dict) else out
    _compare(problems, " ".join(case.argv), got, want)


def check_cli_oneshot(case, result) -> list:
    if result.code != 0:
        return [f"{' '.join(case.argv)}: exit {result.code}: {result.stderr[-300:]}"]
    out, problems = result.stdout, []
    if case.manifold is not None and case.command != "lens":
        _compare_output(problems, case, out,
                        _invariant_output(case, expected(case.manifold)))
    elif case.command == "dedekind":
        s = dedekind_sum(*case.value)
        _compare_output(problems, case, out,
                        {"invariant": "dedekind_rademacher", "value": str(s),
                         "args": list(case.value)} if "--json" in case.flags
                        else f"{s}\n")
    elif case.command == "berger":
        problems += _check_berger(case, out)
    elif case.command == "lens":
        p, q = case.manifold[1:]
        want = [(c, str(l), str(r), s) for c, l, r, s in lens_rows(p, q)]
        _compare(problems, " ".join(case.argv), _table(out, case.value),
                 (TABLE_HEAD, want))
    elif case.command == "spectrum":
        ms, eps = case.value
        lines = _csv_lines(out)
        problems += check_lines(lines, ms, eps)
        _compare(problems, "spectrum CSV header", out.split("\n", 1)[0],
                 "value,mult,family,origin")
    elif case.command == "verify":
        lines = out.splitlines()
        summary = VERIFY_SUMMARY.fullmatch(lines[-1])
        if FAIL in out or summary is None:
            problems.append(f"verify {case.value}: {lines[-1]!r}")
        else:
            _compare(problems, f"verify {case.value} row count",
                     int(summary.group(1)), len(lines) - 2)
    else:
        lines = out.splitlines()
        _compare(problems, "sweep header", lines[0], SWEEP_HEAD)
        _compare(problems, f"sweep lens --pmax {case.value} rows",
                 len(lines) - 1, _admissible_count(case.value))
        _compare(problems, "sweep internal identity",
                 {line.split(",")[4] for line in lines[1:]}, {PASS})
    return problems


def check(workload: str, inp, kept, state: dict) -> list:
    """Problems with one kept result; ``state`` carries what a workload's
    checks share across results (the first digest of each mode set)."""
    try:
        if workload == "invariant-sweep":
            return check_invariant_sweep(inp, kept)
        if workload == "rrk-crosscheck":
            return check_rrk_crosscheck(inp, kept)
        if workload == "spectrum-build":
            return check_spectrum_build(inp, kept, state)
        return check_cli_oneshot(inp, kept)
    except (Mismatch, ValueError, KeyError, IndexError, TypeError,
            AttributeError) as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]
