"""Filling obstructions and lens-space cross-checks.

The complex-hyperbolic filling condition forces the nu-invariant to be an
integer equal to -chi(N) + 3*tau(N); for smooth circle bundles this
reduces to the integrality of chi^2/(4d).  The lens-space harness is
deliberately two-tiered: identities provable from the formulas
implemented here are asserted exactly, while comparisons against the
externally sourced closed forms (direct nu, round-metric eta) are
reported, never asserted, so that convention mismatches surface in the
output instead of being hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dedekind import NonCoprime, dedekind_sum
from .exactq import rational_sqrt
from .invariants import ROUND_T2, nu, ouyang_eta
from .seifert import SeifertData, lens_space

EXACT_PASS = "EXACT-PASS"
EXACT_FAIL = "EXACT-FAIL"
REPORT_MATCH = "REPORT-MATCH"
REPORT_MISMATCH = "REPORT-MISMATCH"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    value: Fraction

    @property
    def label(self) -> str:
        return "pass" if self.ok else "obstructed"


@dataclass(frozen=True)
class ReportRow:
    check: str
    lhs: object
    rhs: object
    status: str

    def is_hard_failure(self) -> bool:
        return self.status == EXACT_FAIL


def check_integer_nu(data: SeifertData) -> Verdict:
    """Filling requires nu to be an integer; verdict plus the exact value."""
    value = nu(data)
    return Verdict(ok=value.denominator == 1, value=value)


def check_chi2_over_4d(chi, d) -> Verdict:
    """Integrality of chi^2/(4d); non-integer rules out a smooth
    complex-hyperbolic filling."""
    chi, d = Fraction(chi), Fraction(d)
    if d >= 0:
        raise ValueError(f"degree must be negative, got {d}")
    value = chi * chi / (4 * d)
    return Verdict(ok=value.denominator == 1, value=value)


def filling_identity(chi_N: int, tau_N: int, nu_value) -> bool:
    """Does nu equal -chi(N) + 3*tau(N)?"""
    return Fraction(nu_value) == -chi_N + 3 * tau_N


def disk_bundle_solve(chi: int) -> set:
    """All negative rational degrees d solving chi + 3 = d + 3 + chi^2/(4d)
    for a disk bundle (chi(N) = chi, tau(N) = -1); exact quadratic solve.

    The equation is 4d^2 - 4*chi*d + chi^2 = 0, i.e. (2d - chi)^2 = 0.
    """
    if chi >= 0 or chi % 2 != 0:
        raise ValueError(f"chi must be a negative even integer, got {chi}")
    a, b, c = 4, -4 * chi, chi * chi
    root = rational_sqrt(Fraction(b * b - 4 * a * c))
    if root is None:
        return set()
    candidates = {Fraction(-b + root, 2 * a), Fraction(-b - root, 2 * a)}
    return {d for d in candidates if d < 0}


def miyaoka_yau_bound(data: SeifertData, int_R2_base=None):
    """Lower bound for chi(N) - 3*tau(N) over Einstein fillings: -nu."""
    return -nu(data, int_R2_base)


def cusp_signature(tau_N: int, self_intersections) -> Fraction:
    """Cusp-modified signature: tau - (1/3) * sum of the self-intersection
    numbers of the compactifying surfaces."""
    return Fraction(tau_N) - Fraction(sum(self_intersections), 3)


def lens_nu_direct(p: int, q: int) -> Fraction:
    """Direct closed form -1/p + 12*s(p, q, 1) for the lens space."""
    if math.gcd(p, q) != 1:
        raise NonCoprime(f"need gcd(p, q) = 1, got ({p}, {q})")
    return Fraction(-1, p) + 12 * dedekind_sum(p, q, 1)


def burns_epstein(chi, d) -> tuple:
    """Closed forms mu = chi^2/(4d) and nu = -chi^2/(4d) - d - 3 for a
    smooth circle bundle, plus the integrality verdict on 3*mu.

    The 3*mu condition is weaker than integrality of chi^2/(4d) by a
    factor 3.
    """
    chi, d = Fraction(chi), Fraction(d)
    if d >= 0:
        raise ValueError(f"degree must be negative, got {d}")
    mu = chi * chi / (4 * d)
    nu_value = -mu - d - 3
    three_mu = 3 * mu
    return mu, nu_value, Verdict(ok=three_mu.denominator == 1, value=three_mu)


def lens_report(p: int, q: int) -> list:
    """Two-tier lens-space report.

    Hard rows (EXACT-PASS/EXACT-FAIL): the internal identity
    nu + 3*eta_round = -1/p, an algebraic consequence of the formulas this
    package implements.  Report rows (REPORT-MATCH/REPORT-MISMATCH):
    comparisons of nu against the direct closed form and of eta_round
    against -4*s(p, q, 1), which rest on an external orientation
    convention and are surfaced, not asserted.
    """
    data = lens_space(p, q)
    nu_value = nu(data)
    eta_round = ouyang_eta(data, ROUND_T2)

    internal_lhs = nu_value + 3 * eta_round
    internal_rhs = Fraction(-1, p)
    rows = [ReportRow(
        check=f"lens({p},{q}): nu + 3*eta_round == -1/p",
        lhs=internal_lhs, rhs=internal_rhs,
        status=EXACT_PASS if internal_lhs == internal_rhs else EXACT_FAIL,
    )]

    nu_direct = lens_nu_direct(p, q)
    rows.append(ReportRow(
        check=f"lens({p},{q}): nu vs direct closed form",
        lhs=nu_value, rhs=nu_direct,
        status=REPORT_MATCH if nu_value == nu_direct else REPORT_MISMATCH,
    ))

    # -4*s(p, q, 1), with s(p, q, 1) read back from nu_direct = -1/p + 12*s
    eta_aps = -(nu_direct + Fraction(1, p)) / 3
    rows.append(ReportRow(
        check=f"lens({p},{q}): eta_round vs -4*s(p,q,1)",
        lhs=eta_round, rhs=eta_aps,
        status=REPORT_MATCH if eta_round == eta_aps else REPORT_MISMATCH,
    ))
    return rows


def admissible_lens_pairs(pmax: int):
    """All (p, q) with 2 <= p <= pmax, 1 <= q < p, gcd(p, q) = 1 and
    gcd(q - 1, p) = 1, in lexicographic order."""
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1 and math.gcd(q - 1, p) == 1:
                yield p, q
