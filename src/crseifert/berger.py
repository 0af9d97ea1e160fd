"""The diagonal left-invariant metric family on the 3-sphere: the closed
form for its eta invariant, the renormalized limit along the squashing
family, Webster curvature/torsion, and the mu- and nu-invariants.

All formulas are rational functions of the squared scaling parameters, so
twenty exact sample points certify each identity outright (the degrees
are tiny).  The frame normalization fixes the volume integral to 16*pi^2,
which is what reconciles nu + 3*eta0 with the squared curvature.
"""

from __future__ import annotations

from fractions import Fraction

from .exactq import PiLaurent

# Volume of the frame-normalized sphere: integral of theta ^ d(theta).
FRAME_VOLUME = PiLaurent.pi_power(2, 16)


def _positive(lambda2) -> Fraction:
    l = Fraction(lambda2)
    if l <= 0:
        raise ValueError(f"lambda^2 must be positive, got {l}")
    return l


def hitchin_eta(l1, l2, l3) -> Fraction:
    """Eta invariant of the diagonal left-invariant metric with squared
    parameters (l1, l2, l3): (2/3) * ((s1^3 - 4*s1*s2)/s3 + 9) with s_i
    the elementary symmetric polynomials in the l_i."""
    l1, l2, l3 = Fraction(l1), Fraction(l2), Fraction(l3)
    if l1 <= 0 or l2 <= 0 or l3 <= 0:
        raise ValueError("squared parameters must be positive")
    s1 = l1 + l2 + l3
    s2 = l1 * l2 + l1 * l3 + l2 * l3
    s3 = l1 * l2 * l3
    return Fraction(2, 3) * ((s1**3 - 4 * s1 * s2) / s3 + 9)


def berger_eta0(lambda2) -> Fraction:
    """Renormalized eta invariant of the squashed sphere:
    (2/(3*lambda^2)) * (-lambda^4 + 3*lambda^2 - 1)."""
    l = _positive(lambda2)
    return Fraction(2, 3) / l * (-l * l + 3 * l - 1)


def berger_webster(lambda2) -> tuple:
    """Squared Webster curvature and torsion of the squashed sphere:
    R^2 = (1 + lambda^2)^2 / (4*lambda^2), |tau|^2 = (1 - lambda^2)^2 / (4*lambda^2)."""
    l = _positive(lambda2)
    return (1 + l) ** 2 / (4 * l), (1 - l) ** 2 / (4 * l)


def berger_mu(lambda2) -> Fraction:
    """mu-invariant of the squashed sphere: -1 + 3*(1 - lambda^2)^2/(4*lambda^2)."""
    l = _positive(lambda2)
    return -1 + 3 * (1 - l) ** 2 / (4 * l)


def berger_nu(lambda2) -> Fraction:
    """nu-invariant of the squashed sphere: -1 + 9*(1 - lambda^2)^2/(4*lambda^2)."""
    l = _positive(lambda2)
    return -1 + 9 * (1 - l) ** 2 / (4 * l)


def hitchin_eta0_limit(lambda2) -> Fraction:
    """Constant term of hitchin_eta(1, lambda^2, L) as the third parameter
    L blows up, extracted exactly.

    L * eta(1, lambda^2, L) is a cubic polynomial in L, so four exact
    evaluations determine it; the constant term of eta is the degree-1
    coefficient of that cubic.  Must equal berger_eta0(lambda^2).
    """
    l = Fraction(lambda2)
    nodes = [Fraction(m) for m in (1, 2, 3, 4)]
    values = [L * hitchin_eta(1, l, L) for L in nodes]
    return _poly_coefficient(nodes, values, degree=3, index=1)


def identities(lambda2) -> dict:
    """The squashed-sphere invariants at lambda^2 and the exact identities
    tying them together: eta0, nu, mu, R2, tau2, then the booleans
    id_nu_plus_3eta0_is_R2, id_nu_is_3mu_plus_2 and id_limit_matches."""
    l = _positive(lambda2)
    eta0 = berger_eta0(l)
    nu = berger_nu(l)
    mu = berger_mu(l)
    r2, tau2 = berger_webster(l)
    return {
        "eta0": eta0,
        "nu": nu,
        "mu": mu,
        "R2": r2,
        "tau2": tau2,
        "id_nu_plus_3eta0_is_R2": nu + 3 * eta0 == r2,
        "id_nu_is_3mu_plus_2": nu == 3 * mu + 2,
        "id_limit_matches": hitchin_eta0_limit(l) == eta0,
    }


def _poly_coefficient(xs, ys, degree: int, index: int) -> Fraction:
    """Coefficient of x^index of the unique degree-`degree` polynomial
    through the given points (Lagrange interpolation, exact)."""
    assert len(xs) == degree + 1 == len(ys)
    coeffs = [Fraction(0)] * (degree + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        # numerator polynomial prod_{j != i} (x - xj), expanded
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                nxt[k + 1] += b
                nxt[k] -= b * xj
            basis = nxt
        for k, b in enumerate(basis):
            coeffs[k] += yi * b / denom
    return coeffs[index]
