"""Data model for CR-Seifert manifolds: orbifold circle bundles over
orbifold surfaces, described by a negative rational degree, the orbifold
Euler characteristic of the base, and a list of cone points (alpha, rho,
beta).

Normalization: regular fibers have length 2*pi and the base has area
-2*pi*d, so the total volume integral is -4*pi^2*d; every derived
constant below assumes this.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exactq import DomainError, PiLaurent, parse_rational

_VALID_KEYS = {"genus", "chi_orb", "degree", "cone_points"}


class NotPseudoconvex(ValueError):
    """Degree >= 0: the bundle carries no strictly pseudoconvex structure."""


class InvalidConePoint(ValueError):
    """Cone data violates alpha >= 2, 1 <= rho, beta < alpha, coprimality."""


class GcdCondition(ValueError):
    """The lens-space decomposition needs gcd(q - 1, p) = 1."""


@dataclass(frozen=True)
class ConePoint:
    """Orbifold point data: local group Z/alpha acting on the base chart
    with rotation number rho and on the fiber with rotation number beta."""

    alpha: int
    rho: int
    beta: int

    def check(self) -> None:
        if self.alpha < 2:
            raise InvalidConePoint(f"alpha must be >= 2, got {self.alpha}")
        if not 1 <= self.rho < self.alpha or not 1 <= self.beta < self.alpha:
            raise InvalidConePoint(
                f"rho, beta must lie in [1, alpha), got {self}")
        if math.gcd(self.rho, self.alpha) != 1 or math.gcd(self.beta, self.alpha) != 1:
            raise InvalidConePoint(f"rho, beta must be prime to alpha: {self}")


@dataclass(frozen=True)
class SeifertData:
    """Global data: rational degree d < 0, orbifold Euler characteristic
    chi, cone points.  Construction does not validate; use from_genus for
    checked construction or validate() for diagnostics."""

    degree: Fraction
    chi_orb: Fraction
    cone_points: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "degree", Fraction(self.degree))
        object.__setattr__(self, "chi_orb", Fraction(self.chi_orb))
        object.__setattr__(self, "cone_points",
                           tuple(_as_cone(c) for c in self.cone_points))


@dataclass(frozen=True)
class GeomIntegrals:
    """The four geometric integrals feeding the invariant formulas:
    volume, curvature, squared curvature and squared torsion integrals
    over the total space."""

    vol: PiLaurent
    int_R: PiLaurent
    int_R2: PiLaurent
    int_tau2: PiLaurent


def _as_cone(c) -> ConePoint:
    if isinstance(c, ConePoint):
        return c
    return ConePoint(*c)


def from_genus(g: int, degree, cone_points=()) -> SeifertData:
    """Checked constructor: chi = 2 - 2g - sum_i (1 - 1/alpha_i)."""
    if g < 0:
        raise DomainError(f"genus must be >= 0, got {g}")
    degree = Fraction(degree)
    if degree >= 0:
        raise NotPseudoconvex(f"degree must be negative, got {degree}")
    cones = tuple(_as_cone(c) for c in cone_points)
    for c in cones:
        c.check()
    chi = Fraction(2 - 2 * g) - sum(1 - Fraction(1, c.alpha) for c in cones)
    return SeifertData(degree=degree, chi_orb=chi, cone_points=cones)


def lens_space(p: int, q: int) -> SeifertData:
    """The lens space L(p, q) as an orbifold circle bundle over a sphere
    with two order-p cone points.

    Requires gcd(p, q) = 1 and gcd(q - 1, p) = 1; the two-fixed-point
    decomposition does not apply otherwise.
    """
    if p < 2:
        raise DomainError(f"p must be >= 2, got {p}")
    if math.gcd(p, q) != 1:
        raise GcdCondition(f"need gcd(p, q) = 1, got ({p}, {q})")
    if math.gcd(q - 1, p) != 1:
        raise GcdCondition(f"need gcd(q - 1, p) = 1, got ({p}, {q})")
    cones = (ConePoint(p, (q - 1) % p, 1),
             ConePoint(p, (1 - q) % p, q % p))
    for c in cones:
        c.check()
    return SeifertData(degree=Fraction(-1, p), chi_orb=Fraction(2, p),
                       cone_points=cones)


def sphere() -> SeifertData:
    """The standard sphere: the smooth degree -1 bundle over a smooth base."""
    return from_genus(0, Fraction(-1))


def webster_curvature_const(data: SeifertData) -> Fraction:
    """Constant Webster curvature R = -chi/d of the base metric."""
    return -data.chi_orb / data.degree


def geom_integrals_const(data: SeifertData) -> GeomIntegrals:
    """Geometric integrals in the constant-curvature normalization:
    vol = -4*pi^2*d, int_R = R*vol, int_R2 = R^2*vol, torsion = 0."""
    d, chi = data.degree, data.chi_orb
    vol = PiLaurent.pi_power(2, -4 * d)
    return GeomIntegrals(
        vol=vol,
        int_R=PiLaurent.pi_power(2, 4 * chi),
        int_R2=PiLaurent.pi_power(2, -4 * chi * chi / d),
        int_tau2=PiLaurent.zero(),
    )


def validate(data: SeifertData) -> list:
    """Diagnostics list; empty iff all invariants hold.  Never raises."""
    problems = []
    if data.degree >= 0:
        problems.append(f"NotPseudoconvex: degree {data.degree} >= 0")
    for c in data.cone_points:
        if c.alpha < 2 or not 1 <= c.rho < c.alpha or not 1 <= c.beta < c.alpha:
            problems.append(f"InvalidConePoint: {c}")
        elif math.gcd(c.rho, c.alpha) != 1 or math.gcd(c.beta, c.alpha) != 1:
            problems.append(f"NonCoprime: {c}")
    return problems


def to_json_dict(data: SeifertData) -> dict:
    return {
        "chi_orb": str(data.chi_orb),
        "degree": str(data.degree),
        "cone_points": [
            {"alpha": c.alpha, "rho": c.rho, "beta": c.beta}
            for c in data.cone_points
        ],
    }


def from_json_dict(obj: dict) -> SeifertData:
    """Build SeifertData from the documented JSON schema.

    {"genus": int | "chi_orb": "p/q", "degree": "p/q",
     "cone_points": [{"alpha": int, "rho": int, "beta": int}]}
    """
    if not isinstance(obj, dict):
        raise DomainError("manifold description must be a JSON object")
    unknown = set(obj) - _VALID_KEYS
    if unknown:
        raise DomainError(f"unknown keys in manifold description: {sorted(unknown)}")
    if "degree" not in obj:
        raise DomainError("missing required key 'degree'")
    cones = []
    for raw in obj.get("cone_points", []):
        try:
            cones.append(ConePoint(int(raw["alpha"]), int(raw["rho"]),
                                   int(raw["beta"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"bad cone point entry: {raw!r}") from exc
    degree = _rational_field(obj["degree"], "degree")
    if "genus" in obj:
        if "chi_orb" in obj:
            raise DomainError("give either 'genus' or 'chi_orb', not both")
        try:
            genus = int(obj["genus"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"bad genus: {obj['genus']!r}") from exc
        return from_genus(genus, degree, cones)
    if "chi_orb" not in obj:
        raise DomainError("missing 'genus' or 'chi_orb'")
    chi = _rational_field(obj["chi_orb"], "chi_orb")
    data = SeifertData(degree=degree, chi_orb=chi, cone_points=tuple(cones))
    for c in data.cone_points:
        c.check()
    if data.degree >= 0:
        raise NotPseudoconvex(f"degree must be negative, got {data.degree}")
    return data


def _rational_field(value, name: str) -> Fraction:
    if isinstance(value, bool):
        raise DomainError(f"bad rational for {name!r}: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise DomainError(f"bad rational for {name!r}: {value!r}")


def load(path) -> SeifertData:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON in {path}: {exc}") from exc
    return from_json_dict(obj)
