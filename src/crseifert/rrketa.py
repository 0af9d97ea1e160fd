"""The holomorphic-counting route to eta0: orbifold Riemann-Roch Euler
characteristics chi(n) of the dual bundle powers, and the exact
zeta-regularized value of the signed series sum_{n != 0} sgn(n) chi(n) / |n|^s
at s = 0.

The series splits into an affine part (regularized through zeta(-1)) and
mean-zero periodic parts (regularized through the Hurwitz closed form
zeta(0, x) = 1/2 - x).  The route must reproduce the closed-form eta0 of
the invariants module exactly; that equality is the central
cross-validation of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactq import frac, hurwitz_zeta_at_zero, mod_inverse, zeta_at_minus_one
from .seifert import SeifertData


@dataclass(frozen=True)
class EtaBreakdown:
    """Regularized eta difference split into its affine and periodic parts."""

    affine_part: Fraction
    periodic_part: Fraction

    @property
    def total(self) -> Fraction:
        return self.affine_part + self.periodic_part

    @property
    def eta0(self) -> Fraction:
        """eta0 = 1 + 2 * (regularized signed series)."""
        return 1 + 2 * self.total


def _cone_residue(cone) -> int:
    """The classical residue c = beta * rho^{-1} mod alpha driving the
    fractional-part term of the cone contribution."""
    return (cone.beta * mod_inverse(cone.rho, cone.alpha)) % cone.alpha


def chi_del(data: SeifertData, n: int) -> Fraction:
    """Euler characteristic of the n-th dual bundle power:

        chi/2 - n*d + sum_i [ (1/2)(1 - 1/alpha_i) - frac(n*c_i/alpha_i) ].

    The sign inside frac() is pinned so that the regularized series
    reproduces the closed-form eta0; see the per-cone sawtooth identity
    exercised in the tests.
    """
    total = data.chi_orb / 2 - n * data.degree
    for cone in data.cone_points:
        c = _cone_residue(cone)
        total += (Fraction(cone.alpha - 1, 2 * cone.alpha)
                  - frac(Fraction(n * c, cone.alpha)))
    return total


def _periodic_value(alpha: int, c: int) -> Fraction:
    """Regularized signed series of the mean-zero periodic cone term
    h(n) = (alpha-1)/(2*alpha) - frac(n*c/alpha), via the Hurwitz closed
    form over one period:

        sum_{r=1}^{alpha} (h(r) - h(-r)) * zeta(0, r/alpha).
    """
    if alpha == 1:
        return Fraction(0)
    mean = Fraction(alpha - 1, 2 * alpha)

    def h(n: int) -> Fraction:
        return mean - Fraction((n * c) % alpha, alpha)

    return sum((h(r) - h(-r)) * hurwitz_zeta_at_zero(Fraction(r, alpha))
               for r in range(1, alpha + 1))


def regularized_eta_difference(data: SeifertData) -> EtaBreakdown:
    """Value at s = 0 of sum_{n != 0} sgn(n) chi_del(n) / |n|^s.

    Constant-in-n terms cancel by odd symmetry; the -n*d term contributes
    -2*d*zeta(-1) = d/6; each cone contributes its Hurwitz-regularized
    periodic value.
    """
    affine = -2 * data.degree * zeta_at_minus_one()
    periodic = sum((_periodic_value(c.alpha, _cone_residue(c))
                    for c in data.cone_points), Fraction(0))
    return EtaBreakdown(affine_part=affine, periodic_part=periodic)


def eta0_via_rrk(data: SeifertData) -> Fraction:
    """eta0 through the holomorphic-counting route:
    1 + 2 * (regularized signed series)."""
    return regularized_eta_difference(data).eta0


def sphere_h_counts(n: int) -> tuple:
    """Dimensions (h0, h2) of the weight-n CR functions and holomorphic
    2-forms on the standard sphere: h0 = n + 1 for n >= 0, h2 = n - 1 for
    n >= 2, zero otherwise."""
    h0 = n + 1 if n >= 0 else 0
    h2 = n - 1 if n >= 2 else 0
    return h0, h2
