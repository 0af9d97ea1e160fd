"""Command-line front end.

Exit codes: 0 success, 1 verify-battery assertion failure, 2 schema
violation in an input file or literal, 3 domain error (e.g. non-negative
degree, failed gcd condition).  All output is deterministic: identical
inputs yield byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import berger, dedekind, invariants, obstruct, rrketa, seifert, spectrum
from . import verify as verify_mod
from .exactq import (DomainError, ExponentMismatch, ExponentOverflow,
                     NotInvertible, PiLaurent, parse_pilaurent, parse_rational)
from .seifert import GcdCondition, InvalidConePoint, NotPseudoconvex

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3

_SCHEMA_ERRORS = (DomainError,)
_DOMAIN_ERRORS = (NotPseudoconvex, InvalidConePoint, GcdCondition,
                  dedekind.NonCoprime, NotInvertible, ExponentMismatch,
                  ExponentOverflow, spectrum.NegativeMultiplicity, ValueError)


def fmt_value(value) -> str:
    if isinstance(value, (Fraction, PiLaurent, bool, int)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_table(headers, rows, fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(headers) + "\n")
        for row in rows:
            out.write(",".join(str(c) for c in row) + "\n")
    elif fmt == "md":
        out.write("| " + " | ".join(headers) + " |\n")
        out.write("|" + "|".join(" --- " for _ in headers) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(str(c) for c in row) + " |\n")
    elif fmt == "json":
        out.write(json.dumps([dict(zip(headers, (str(c) for c in row)))
                              for row in rows], indent=2) + "\n")
    else:
        raise DomainError(f"unknown format {fmt!r}")


def _add_input_options(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", metavar="FILE",
                       help="manifold description (JSON)")
    group.add_argument("--lens", nargs=2, type=int, metavar=("P", "Q"),
                       help="lens space L(p, q)")
    group.add_argument("--sphere", action="store_true",
                       help="the standard sphere")


def _resolve_data(args) -> seifert.SeifertData:
    if getattr(args, "sphere", False):
        return seifert.sphere()
    if getattr(args, "lens", None):
        p, q = args.lens
        return seifert.lens_space(p, q)
    return seifert.load(args.input)


def _print_invariant(args, name: str, value, route: str) -> None:
    if args.json:
        print(json.dumps({"invariant": name, "value": fmt_value(value),
                          "route": route}))
    else:
        print(fmt_value(value))


def _parse_integral(text: str):
    """A curvature integral literal: exact pi-multiple (mentions pi) or a
    float; a bare number cannot be an exact pi-multiple, so it goes float."""
    if "pi" in text:
        return parse_pilaurent(text)
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"not a pi-multiple or float: {text!r}")


def cmd_nu(args) -> int:
    data = _resolve_data(args)
    if args.int_r2_base is not None:
        value = invariants.nu(data, _parse_integral(args.int_r2_base))
        route = "supplied-integral"
    else:
        value = invariants.nu(data)
        route = "constant-curvature"
    _print_invariant(args, "nu", value, route)
    return EXIT_OK


def cmd_eta0(args) -> int:
    data = _resolve_data(args)
    _print_invariant(args, "eta0", invariants.eta0(data), "closed-form")
    return EXIT_OK


def cmd_eta_dstar(args) -> int:
    data = _resolve_data(args)
    _print_invariant(args, "eta_dstar", invariants.eta_dstar(data),
                     "constant-curvature")
    return EXIT_OK


def cmd_dedekind(args) -> int:
    value = dedekind.dedekind_sum(args.alpha, args.rho, args.beta)
    if args.json:
        print(json.dumps({"invariant": "dedekind_rademacher",
                          "value": str(value),
                          "args": [args.alpha, args.rho, args.beta]}))
    else:
        print(value)
    return EXIT_OK


def cmd_ouyang(args) -> int:
    data = _resolve_data(args)
    if args.t2 is not None:
        value = invariants.ouyang_eta(data, parse_rational(args.t2))
        _print_invariant(args, "ouyang_eta", value, f"t2={args.t2}")
    else:
        poly = invariants.ouyang_polynomial(data)
        if args.json:
            print(json.dumps({"invariant": "ouyang_eta_polynomial",
                              "c0": str(poly.c0), "c1": str(poly.c1),
                              "c2": str(poly.c2)}))
        else:
            print(f"{poly.c0} + {poly.c1}*t^2 + {poly.c2}*t^4")
    return EXIT_OK


def cmd_diabatic(args) -> int:
    data = _resolve_data(args)
    exp = invariants.diabatic_expansion(data)
    if args.json:
        print(json.dumps({"invariant": "diabatic_expansion",
                          "coefficients": {str(i): str(exp.coefficient(i))
                                           for i in exp.exponents()}}))
    else:
        print(exp)
    return EXIT_OK


def cmd_rrk_eta(args) -> int:
    data = _resolve_data(args)
    breakdown = rrketa.regularized_eta_difference(data)
    if args.breakdown:
        print(json.dumps({"affine_part": str(breakdown.affine_part),
                          "periodic_part": str(breakdown.periodic_part),
                          "total": str(breakdown.total),
                          "eta0": str(breakdown.eta0)}))
    else:
        _print_invariant(args, "eta0", breakdown.eta0, "holomorphic-counting")
    return EXIT_OK


def cmd_berger(args) -> int:
    values = berger.identities(parse_rational(args.lambda2))
    if not args.all_identities:
        values = {k: v for k, v in values.items() if not k.startswith("id_")}
    if args.json:
        print(json.dumps({k: fmt_value(v) for k, v in values.items()}))
    else:
        for key, val in values.items():
            print(f"{key} = {fmt_value(val)}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    modes = spectrum.load_modes(args.modes)
    holo = (spectrum.load_holo(args.holo) if args.holo
            else spectrum.HoloCounts.empty())
    if args.limit:
        lines = spectrum.dstar_limit_spectrum(modes, holo)
    else:
        if args.eps is None:
            raise DomainError("--eps is required unless --limit is given")
        lines = spectrum.virtual_spectrum(modes, holo, parse_rational(args.eps))
    print(spectrum.lines_csv(lines))
    return EXIT_OK


def _report_rows(rows) -> list:
    return [(r.check, fmt_value(r.lhs), fmt_value(r.rhs), r.status)
            for r in rows]


def cmd_lens(args) -> int:
    rows = obstruct.lens_report(args.p, args.q)
    _emit_table(("check", "lhs", "rhs", "status"), _report_rows(rows),
                args.format, sys.stdout)
    return EXIT_ASSERTION if any(r.is_hard_failure() for r in rows) else EXIT_OK


def cmd_obstruction(args) -> int:
    data = _resolve_data(args)
    integer_nu = obstruct.check_integer_nu(data)
    chi2 = obstruct.check_chi2_over_4d(data.chi_orb, data.degree)
    bound = obstruct.miyaoka_yau_bound(data)
    payload = {
        "nu": str(integer_nu.value),
        "nu_integer": integer_nu.label,
        "chi2_over_4d": str(chi2.value),
        "chi2_over_4d_integer": chi2.label,
        "einstein_filling_bound": str(bound),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            print(f"{key} = {val}")
    return EXIT_OK


def _sweep_lens(args, out) -> None:
    headers = ("p", "q", "nu", "eta_round", "internal_identity",
               "nu_direct", "nu_compare", "eta_aps", "eta_compare")
    rows = []
    for p, q in obstruct.admissible_lens_pairs(args.pmax):
        internal, nu_cmp, eta_cmp = obstruct.lens_report(p, q)
        rows.append((p, q, nu_cmp.lhs, eta_cmp.lhs, internal.status,
                     nu_cmp.rhs, nu_cmp.status, eta_cmp.rhs, eta_cmp.status))
    _emit_table(headers, rows, args.format, out)


def _sweep_berger(args, out) -> None:
    headers = ("lambda2", "nu", "eta0", "mu", "R2", "tau2",
               "id_sum", "id_mu", "id_curvature")
    rows = []
    for i in range(1, args.samples + 1):
        l = Fraction(i, 7) + Fraction(1, 3)
        v = berger.identities(l)
        # berger_webster defines R2 as (1 + l)^2 / (4l), so the sum and
        # curvature columns are one identity
        rows.append((l, v["nu"], v["eta0"], v["mu"], v["R2"], v["tau2"],
                     v["id_nu_plus_3eta0_is_R2"], v["id_nu_is_3mu_plus_2"],
                     v["id_nu_plus_3eta0_is_R2"]))
    _emit_table(headers, rows, args.format, out)


def _sweep_disk(args, out) -> None:
    headers = ("chi", "solutions", "is_half_chi")
    rows = []
    for chi in range(-2, args.chimin - 1, -2):
        sols = obstruct.disk_bundle_solve(chi)
        rows.append((chi, ";".join(str(s) for s in sorted(sols)),
                     sols == {Fraction(chi, 2)}))
    _emit_table(headers, rows, args.format, out)


def cmd_sweep(args) -> int:
    if args.family == "lens":
        _sweep_lens(args, sys.stdout)
    elif args.family == "berger":
        _sweep_berger(args, sys.stdout)
    else:
        _sweep_disk(args, sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    rows = verify_mod.run(args.scope)
    _emit_table(("check", "lhs", "rhs", "status"), _report_rows(rows),
                args.format, sys.stdout)
    failures = sum(1 for r in rows if r.is_hard_failure())
    if args.format != "json":  # keep json output machine-parseable
        mismatches = sum(1 for r in rows if r.status == obstruct.REPORT_MISMATCH)
        print(f"# {len(rows)} checks, {failures} exact failures, "
              f"{mismatches} reported mismatches")
    return EXIT_ASSERTION if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crseifert",
        description="Exact spectral/geometric invariants of CR-Seifert "
                    "3-manifolds, with a cross-validating verify battery.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help_text in (
            ("nu", cmd_nu, "the nu invariant"),
            ("eta0", cmd_eta0, "the renormalized eta invariant"),
            ("eta-dstar", cmd_eta_dstar, "the contact eta invariant"),
            ("ouyang", cmd_ouyang, "closed-form eta of the t^2 metric family"),
            ("diabatic", cmd_diabatic, "homogeneous eps-expansion of eta"),
            ("rrk-eta", cmd_rrk_eta, "eta0 via holomorphic counting")):
        s = sub.add_parser(name, help=help_text)
        _add_input_options(s)
        s.add_argument("--json", action="store_true")
        if name == "nu":
            s.add_argument("--int-r2-base", metavar="VAL", default=None,
                           help="base integral of R^2 (pi-multiple or float)")
        if name == "ouyang":
            s.add_argument("--t2", metavar="RAT", default=None,
                           help="squared fiber scale; omit for the polynomial")
        if name == "rrk-eta":
            s.add_argument("--breakdown", action="store_true",
                           help="emit the affine/periodic split as JSON")
        s.set_defaults(fn=fn)

    s = sub.add_parser("dedekind", help="Dedekind-Rademacher sum")
    s.add_argument("alpha", type=int)
    s.add_argument("rho", type=int)
    s.add_argument("beta", type=int)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_dedekind)

    s = sub.add_parser("berger", help="squashed-sphere invariants")
    s.add_argument("--lambda2", required=True, metavar="RAT")
    s.add_argument("--all-identities", action="store_true")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_berger)

    s = sub.add_parser("spectrum", help="virtual/limit spectrum from mode data")
    s.add_argument("--modes", required=True, metavar="FILE")
    s.add_argument("--holo", metavar="FILE", default=None)
    s.add_argument("--eps", metavar="RAT", default=None)
    s.add_argument("--limit", action="store_true",
                   help="emit the limit spectrum instead")
    s.set_defaults(fn=cmd_spectrum)

    s = sub.add_parser("lens", help="two-tier lens-space report")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    s.set_defaults(fn=cmd_lens)

    s = sub.add_parser("obstruction", help="filling obstruction checks")
    _add_input_options(s)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_obstruction)

    s = sub.add_parser("sweep", help="parameter sweeps")
    fam = s.add_subparsers(dest="family", required=True)
    f = fam.add_parser("lens")
    f.add_argument("--pmax", type=int, default=50)
    f.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    f.set_defaults(fn=cmd_sweep)
    f = fam.add_parser("berger")
    f.add_argument("--samples", type=int, default=20)
    f.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    f.set_defaults(fn=cmd_sweep)
    f = fam.add_parser("disk")
    f.add_argument("--chimin", type=int, default=-20)
    f.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    f.set_defaults(fn=cmd_sweep)

    s = sub.add_parser("verify", help="run the identity battery")
    s.add_argument("scope", nargs="?", default="all",
                   choices=["all"] + verify_mod.scopes())
    s.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    s.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _SCHEMA_ERRORS as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
