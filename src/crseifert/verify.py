"""The identity battery behind the `verify` subcommand.

Each check produces a ReportRow; EXACT rows must pass (nonzero exit
otherwise), REPORT rows surface convention comparisons and never fail the
run.  Pseudo-random samples are drawn from a fixed seed so runs are
byte-reproducible.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import berger, dedekind, invariants, obstruct, rrketa, seifert, spectrum
from .exactq import (PiLaurent, frac, hurwitz_zeta_at_zero, mod_inverse,
                     zeta_at_minus_one)
from .obstruct import EXACT_FAIL, EXACT_PASS, ReportRow

_SEED = 20230517


def random_cone(rng: random.Random, max_alpha: int = 60) -> seifert.ConePoint:
    alpha = rng.randint(2, max_alpha)
    units = [u for u in range(1, alpha) if math.gcd(u, alpha) == 1]
    return seifert.ConePoint(alpha, rng.choice(units), rng.choice(units))


def random_seifert_data(rng: random.Random, max_alpha: int = 60,
                        max_cones: int = 4) -> seifert.SeifertData:
    """Random valid data: genus <= 3, up to max_cones cone points, random
    negative rational degree."""
    genus = rng.randint(0, 3)
    cones = [random_cone(rng, max_alpha) for _ in range(rng.randint(0, max_cones))]
    degree = -Fraction(rng.randint(1, 9), rng.randint(1, 6))
    return seifert.from_genus(genus, degree, cones)


def _exact(check: str, lhs, rhs) -> ReportRow:
    return ReportRow(check=check, lhs=lhs, rhs=rhs,
                     status=EXACT_PASS if lhs == rhs else EXACT_FAIL)


def check_exactq() -> list:
    rows = [
        _exact("mod_inverse(7, 11)", mod_inverse(7, 11), 8),
        _exact("mod_inverse(a, 1) convention", mod_inverse(5, 1), 0),
        _exact("frac(-1/3)", frac(Fraction(-1, 3)), Fraction(2, 3)),
        _exact("hurwitz zeta(0, 1/3)", hurwitz_zeta_at_zero(Fraction(1, 3)),
               Fraction(1, 6)),
        _exact("zeta(-1)", zeta_at_minus_one(), Fraction(-1, 12)),
    ]
    x = PiLaurent.pi_power(2, Fraction(16, 3))
    rows.append(_exact("pi-Laurent roundtrip 16/3*pi^2",
                       str(x), "16/3*pi^2"))
    return rows


def check_dedekind() -> list:
    rng = random.Random(_SEED)
    rows = [
        _exact("s(3,1,1)", dedekind.dedekind_rademacher(3, 1, 1), Fraction(1, 18)),
        _exact("s(5,1,1)", dedekind.dedekind_rademacher(5, 1, 1), Fraction(1, 5)),
    ]
    worst = Fraction(0)
    for _ in range(50):
        alpha = rng.randint(1, 2000)
        units = [u for u in range(1, alpha + 1) if math.gcd(u, alpha) == 1]
        rho, beta = rng.choice(units), rng.choice(units)
        saw = dedekind.dedekind_rademacher(alpha, rho, beta)
        _, c = dedekind.reduce_to_classical(alpha, rho, beta)
        fast = dedekind.dedekind_fast(c, alpha)
        if saw != fast:
            worst = saw - fast
            break
    rows.append(_exact("sawtooth == fast reciprocity (50 random triples)",
                       worst, Fraction(0)))
    float_ok = True
    for _ in range(20):
        alpha = rng.randint(2, 400)
        units = [u for u in range(1, alpha) if math.gcd(u, alpha) == 1]
        rho, beta = rng.choice(units), rng.choice(units)
        exact = dedekind.dedekind_rademacher(alpha, rho, beta)
        if abs(dedekind.dedekind_float_oracle(alpha, rho, beta) - float(exact)) >= 1e-9:
            float_ok = False
            break
    rows.append(_exact("cotangent oracle within 1e-9 (20 random triples)",
                       float_ok, True))
    return rows


def check_seifert() -> list:
    l32 = seifert.lens_space(3, 2)
    s3 = seifert.sphere()
    g = seifert.geom_integrals_const(s3)
    return [
        _exact("L(3,2) degree", l32.degree, Fraction(-1, 3)),
        _exact("L(3,2) chi", l32.chi_orb, Fraction(2, 3)),
        _exact("L(3,2) cones",
               tuple((c.alpha, c.rho, c.beta) for c in l32.cone_points),
               ((3, 1, 1), (3, 2, 2))),
        _exact("sphere volume integral", g.vol, PiLaurent.pi_power(2, 4)),
        _exact("sphere R^2 integral", g.int_R2, PiLaurent.pi_power(2, 16)),
    ]


def check_invariants() -> list:
    rng = random.Random(_SEED)
    s3 = seifert.sphere()
    l32 = seifert.lens_space(3, 2)
    rows = [
        _exact("eta0(sphere)", invariants.eta0(s3), Fraction(2, 3)),
        _exact("nu(sphere)", invariants.nu(s3), Fraction(-1)),
        _exact("eta0(L(3,2))", invariants.eta0(l32), Fraction(4, 3)),
        _exact("nu(L(3,2))", invariants.nu(l32), Fraction(-11, 3)),
        _exact("eta(D*)(sphere)", str(invariants.eta_dstar(s3)),
               "2/3 - 1/32*pi^2"),
        _exact("zeta(Delta_H)(0) on the sphere",
               invariants.zeta_deltaH(PiLaurent.pi_power(2, 16)),
               PiLaurent.pi_power(2, Fraction(1, 32))),
        _exact("round-metric eta(sphere)",
               invariants.ouyang_eta(s3, invariants.ROUND_T2), Fraction(0)),
    ]
    ok = True
    for _ in range(25):
        data = random_seifert_data(rng, max_alpha=30)
        g = seifert.geom_integrals_const(data)
        if invariants.nu(data) != invariants.nu_from_eta0(
                invariants.eta0(data), g.int_R2):
            ok = False
            break
        if not invariants.check_cor15(data):
            ok = False
            break
    rows.append(_exact("nu route equality and eta(D*) identity "
                       "(25 random data)", ok, True))
    return rows


def check_rrketa() -> list:
    rng = random.Random(_SEED)
    s3 = seifert.sphere()
    b = rrketa.regularized_eta_difference(s3)
    rows = [
        _exact("sphere series affine part", b.affine_part, Fraction(-1, 6)),
        _exact("sphere series periodic part", b.periodic_part, Fraction(0)),
        _exact("eta0 via holomorphic counting (sphere)",
               rrketa.eta0_via_rrk(s3), Fraction(2, 3)),
        _exact("eta0 via holomorphic counting (L(3,2))",
               rrketa.eta0_via_rrk(seifert.lens_space(3, 2)), Fraction(4, 3)),
    ]
    ok = True
    for _ in range(25):
        data = random_seifert_data(rng, max_alpha=30)
        if rrketa.eta0_via_rrk(data) != invariants.eta0(data):
            ok = False
            break
    rows.append(_exact("route equality eta0 == eta0_via_rrk (25 random data)",
                       ok, True))
    return rows


def check_berger() -> list:
    rows = [
        _exact("berger_eta0(1)", berger.berger_eta0(1), Fraction(2, 3)),
        _exact("berger_nu(1)", berger.berger_nu(1), Fraction(-1)),
        _exact("hitchin_eta(1,1,1)", berger.hitchin_eta(1, 1, 1), Fraction(0)),
    ]
    samples = [Fraction(i, 7) + Fraction(1, 3) for i in range(1, 21)]
    ok = all(holds
             for l in samples
             for name, holds in berger.identities(l).items()
             if name.startswith("id_"))
    rows.append(_exact("identity battery at 20 rational lambda^2", ok, True))
    return rows


def check_spectrum() -> list:
    rng = random.Random(_SEED)
    ok_sum = ok_res = True
    for _ in range(200):
        k = Fraction(rng.randint(0, 40), rng.randint(1, 4))
        n = rng.randint(-10, 10)
        eps = Fraction(rng.randint(1, 8), rng.randint(8, 32))
        lp, lm = spectrum.lambda_pm(k, n, eps)
        if isinstance(lp, float):
            if abs(lp + lm - 1.0) > 1e-12:
                ok_sum = False
            if abs(lp * lp - lp - float(eps * k) - float(eps * eps) * n * n) > 1e-12:
                ok_res = False
        else:
            if lp + lm != 1:
                ok_sum = False
            if lp * lp - lp - eps * k - eps * eps * n * n != 0:
                ok_res = False
    rows = [
        _exact("lambda_plus + lambda_minus == 1 (200 samples)", ok_sum, True),
        _exact("quadratic residual vanishes (200 samples)", ok_res, True),
    ]
    # observed first-order collapse rate |lambda_minus/eps + k| = O(eps)
    k, n = Fraction(3), 2
    ratios = []
    prev = None
    for j in range(1, 11):
        eps = Fraction(1, 2**j)
        _, lm = spectrum.lambda_pm(k, n, eps)
        r = abs(lm / eps + k)
        if prev is not None:
            ratios.append(float(prev / r))
        prev = r
    rate_ok = all(1.5 < q < 2.5 for q in ratios[2:])
    rows.append(_exact("first-order collapse rate on eps = 2^-1..2^-10",
                       rate_ok, True))
    return rows


def check_obstruct(pmax: int = 12) -> list:
    rows = []
    ok = all(obstruct.disk_bundle_solve(chi) == {Fraction(chi, 2)}
             for chi in range(-40, -1, 2))
    rows.append(_exact("disk bundle solver: only d = chi/2", ok, True))
    v = obstruct.check_chi2_over_4d(-2, -3)
    rows.append(_exact("chi^2/4d non-integer on the worked example",
                       (v.ok, v.value), (False, Fraction(1, -3))))
    for p, q in obstruct.admissible_lens_pairs(pmax):
        rows.extend(obstruct.lens_report(p, q))
    return rows


_CHECKS = {
    "exactq": check_exactq,
    "dedekind": check_dedekind,
    "seifert": check_seifert,
    "invariants": check_invariants,
    "rrketa": check_rrketa,
    "berger": check_berger,
    "spectrum": check_spectrum,
    "obstruct": check_obstruct,
}


def scopes() -> list:
    return list(_CHECKS)


def run(scope: str = "all") -> list:
    """Run the battery for one module or all of them; returns rows."""
    if scope == "all":
        names = list(_CHECKS)
    elif scope in _CHECKS:
        names = [scope]
    else:
        raise ValueError(f"unknown verify scope {scope!r}; "
                         f"choose from {['all'] + list(_CHECKS)}")
    rows = []
    for name in names:
        rows.extend(_CHECKS[name]())
    return rows
