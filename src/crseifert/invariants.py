"""The headline invariants of a CR-Seifert manifold and their
interrelations: the renormalized eta invariant eta0, the CR invariant nu,
the contact eta invariant eta(D*), the closed-form eta family of circle
bundles, the diabatic expansion, and the zeta-correction terms.

All constant-curvature values are exact rationals or pi-Laurent values;
non-constant-curvature curvature integrals enter only as user-supplied
values (exact pi-multiples or floats) and are never computed from a
metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dedekind import dedekind_sum
# Unused here; perfbench's tracer self-test wraps the oracle in this namespace.
from .dedekind import dedekind_rademacher  # noqa: F401
from .exactq import ExponentMismatch, LaurentEps, PiLaurent
from .seifert import GeomIntegrals, SeifertData, geom_integrals_const

# Parameter of the round metric in our normalization (fibers of length
# 2*pi over the curvature-2 base): the closed-form eta vanishes there.
ROUND_T2 = Fraction(2)


def cone_sum(data: SeifertData) -> Fraction:
    """Sum of the Dedekind-Rademacher sums over all cone points."""
    return sum((dedekind_sum(c.alpha, c.rho, c.beta)
                for c in data.cone_points), Fraction(0))


def eta0(data: SeifertData) -> Fraction:
    """Renormalized eta invariant: 1 + d/3 + 4 * sum of cone sums."""
    return 1 + data.degree / 3 + 4 * cone_sum(data)


def nu(data: SeifertData, int_R2_over_base=None):
    """The CR invariant nu.

    With no supplied integral, uses the constant-curvature closed form
    -d - 3 - chi^2/(4d) - 12*sum.  A user-supplied base integral of R^2
    switches to the general form -d - 3 - 12*sum + integral/(8*pi); exact
    if the integral is an exact pi-multiple (PiLaurent), float otherwise.
    """
    d = data.degree
    base = -d - 3 - 12 * cone_sum(data)
    if int_R2_over_base is None:
        return base - data.chi_orb**2 / (4 * d)
    if isinstance(int_R2_over_base, PiLaurent):
        return base + (int_R2_over_base.shift(-1) / 8).rational_value()
    if isinstance(int_R2_over_base, (int, Fraction)):
        raise ExponentMismatch(
            "supply the base R^2 integral as a PiLaurent pi-multiple or a float")
    return float(base) + float(int_R2_over_base) / (8 * math.pi)


def nu_from_eta0(eta0_value: Fraction, int_R2):
    """nu = -3*eta0 + int_R2/(16*pi^2); exact when int_R2 is a PiLaurent
    whose pi-powers cancel, float when int_R2 is a float."""
    if isinstance(int_R2, PiLaurent):
        return (PiLaurent.from_rational(-3 * eta0_value)
                + int_R2.shift(-2) / 16).rational_value()
    return -3 * float(eta0_value) + float(int_R2) / (16 * math.pi**2)


def eta_dstar(data: SeifertData) -> PiLaurent:
    """Contact eta invariant eta(D*) = eta0 - int_R2/512 on the
    constant-curvature path; a genuine pi-Laurent value."""
    g = geom_integrals_const(data)
    return PiLaurent.from_rational(eta0(data)) - g.int_R2 / 512


def zeta_deltaH(int_R2: PiLaurent) -> PiLaurent:
    """Zeta value at 0 of the horizontal Laplacian: int_R2 / 512."""
    return int_R2 / 512


@dataclass(frozen=True)
class OuyangEta:
    """The closed-form eta of the metric family t^2*theta^2 + gamma, as a
    polynomial c0 + c1*t^2 + c2*t^4 in t^2.

    c0 is the renormalized invariant eta0; c1 = -chi/3; c2 = -d/6.
    """

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __call__(self, t2) -> Fraction:
        t2 = Fraction(t2)
        return self.c0 + self.c1 * t2 + self.c2 * t2 * t2


def ouyang_polynomial(data: SeifertData) -> OuyangEta:
    return OuyangEta(c0=eta0(data),
                     c1=-data.chi_orb / 3,
                     c2=-data.degree / 6)


def ouyang_eta(data: SeifertData, t2) -> Fraction:
    """Eta invariant of the metric t^2*theta^2 + gamma, evaluated exactly.

    The base area is -2*pi*d in our normalization; with that value the
    pi's cancel and the result is the rational polynomial
    1 + d/3 + 4*sum - chi*t^2/3 - d*t^4/6.  The round metric is t^2 = 2
    and the standard sphere then has eta = 0.
    """
    t2 = Fraction(t2)
    if t2 <= 0:
        raise ValueError(f"t^2 must be positive, got {t2}")
    return ouyang_polynomial(data)(t2)


def diabatic_expansion(data: SeifertData) -> LaurentEps:
    """The homogeneous expansion of eta along the contact rescaling
    (eps = t^{-2}): eps^-2 and eps^-1 coefficients are -d/6 and -chi/3,
    the constant term is eta0, and nothing survives at positive exponents
    in vanishing torsion."""
    return LaurentEps({
        -2: PiLaurent.from_rational(-data.degree / 6),
        -1: PiLaurent.from_rational(-data.chi_orb / 3),
        0: PiLaurent.from_rational(eta0(data)),
    })


def zeta_Q_expansion(g: GeomIntegrals) -> LaurentEps:
    """Eps-expansion of the zeta value at 0 of the positive half of the
    non-collapsing spectrum:

        (vol - 2*eps*int_R + eps^2*int_tau2) / (48*pi^2*eps^2).

    The eps^0 coefficient is int_tau2/(48*pi^2); doubled, it is the full
    constant term of the symmetric difference, which vanishes exactly in
    vanishing torsion.
    """
    scale = Fraction(1, 48)
    return LaurentEps({
        -2: g.vol.shift(-2) * scale,
        -1: g.int_R.shift(-2) * (-2 * scale),
        0: g.int_tau2.shift(-2) * scale,
    })


def check_cor15(data: SeifertData) -> bool:
    """Exact identity nu = -3*eta(D*) + (1/(16*pi^2) - 3/512) * int_R2,
    checked as pi-Laurent values."""
    g = geom_integrals_const(data)
    lhs = PiLaurent.from_rational(nu(data))
    rhs = (-3 * eta_dstar(data)
           + g.int_R2.shift(-2) / 16
           - g.int_R2 * Fraction(3, 512))
    return lhs == rhs
