"""Enumeration of the rescaled boundary-signature spectrum of the contact
rescaling family and its limit, from user-supplied mode data.

A mode (k, n, mult) is a joint eigenmode of the horizontal Laplacian
(eigenvalue k) and the squared circle generator (eigenvalue -n^2).  For
each mode the rescaled operator contributes the pair of roots of

    lambda^2 - lambda - (eps*k + eps^2*n^2) = 0,

and the full virtual spectrum is those two families together with
holomorphic correction lines: added lines at +n with multiplicity
2*h2(n), removed lines at -n with multiplicity 2*h0(n).  Mode data comes
from a file, never from a metric; the structural identities (root sums,
collapse rates, limit matching) are what this module certifies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactq import DomainError, rational_sqrt


class NegativeMultiplicity(ValueError):
    """A spectral multiset subtraction was infeasible: inconsistent data."""


@dataclass(frozen=True)
class SpectralMode:
    """Input mode: horizontal eigenvalue k >= 0 (Fraction for the exact
    path, float otherwise), Fourier index n, multiplicity."""

    k: object
    n: int
    mult: int

    def __post_init__(self):
        if isinstance(self.k, int):
            object.__setattr__(self, "k", Fraction(self.k))
        if self.k < 0:
            raise DomainError(f"mode needs k >= 0, got {self.k}")
        if self.mult < 1:
            raise DomainError(f"mode needs mult >= 1, got {self.mult}")


@dataclass(frozen=True)
class SpectralLine:
    """One enumerated eigenvalue line: exact Fraction when the discriminant
    is a perfect rational square, float otherwise."""

    value: object
    mult: int
    family: str  # plus | minus | holomorphic
    origin: str

    def sort_key(self):
        return (float(self.value), self.family, self.origin)


@dataclass(frozen=True)
class HoloCounts:
    """Holomorphic section counts per Fourier index: h0 for CR functions
    (zero for negative index), h2 for holomorphic 2-forms."""

    h0: dict
    h2: dict

    def __post_init__(self):
        for n, m in self.h0.items():
            if n < 0 and m != 0:
                raise DomainError(f"h0({n}) must vanish for negative index")
            if m < 0:
                raise DomainError(f"h0({n}) must be >= 0")
        for n, m in self.h2.items():
            if m < 0:
                raise DomainError(f"h2({n}) must be >= 0")

    @classmethod
    def empty(cls) -> "HoloCounts":
        return cls(h0={}, h2={})


def lambda_pm(k, n: int, eps) -> tuple:
    """The two roots (lambda_plus, lambda_minus) of
    lambda^2 - lambda - (eps*k + eps^2*n^2) = 0.

    Roots satisfy lambda_plus + lambda_minus = 1 and
    lambda_plus * lambda_minus = -(eps*k + eps^2*n^2).  Exact Fractions
    when the radicand 1 + 4*eps*(k + eps*n^2) is a perfect rational
    square, floats otherwise.
    """
    if not isinstance(eps, float):
        eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if isinstance(k, int):
        k = Fraction(k)
    if not isinstance(k, float) and not isinstance(eps, float):
        radicand = 1 + 4 * eps * (k + eps * n * n)
        root = rational_sqrt(radicand)
        if root is not None:
            return (1 + root) / 2, (1 - root) / 2
    kf, ef = float(k), float(eps)
    root = math.sqrt(1.0 + 4.0 * ef * (kf + ef * n * n))
    return (1.0 + root) / 2.0, (1.0 - root) / 2.0


def _merge(lines) -> list:
    """Deterministic merge: collapse equal (value, family, origin) lines,
    sort by value then labels."""
    merged = {}
    for line in lines:
        key = (line.value, line.family, line.origin)
        if key in merged:
            merged[key] = SpectralLine(line.value, merged[key].mult + line.mult,
                                       line.family, line.origin)
        else:
            merged[key] = line
    return sorted(merged.values(), key=SpectralLine.sort_key)


def _holo_lines(holo: HoloCounts) -> tuple:
    """(added, removals): lines at +n with mult 2*h2(n) for n != 0, and
    removal requests (-n, 2*h0(n)) for n >= 1."""
    added = [SpectralLine(Fraction(n), 2 * m, "holomorphic", f"n={n}")
             for n, m in sorted(holo.h2.items()) if m > 0 and n != 0]
    removals = [(Fraction(-n), 2 * m)
                for n, m in sorted(holo.h0.items()) if m > 0 and n >= 1]
    return added, removals


def _subtract(lines: list, removals: list) -> list:
    """Remove multiplicity at given exact values, minus family first."""
    out = list(lines)
    for value, mult in removals:
        remaining = mult
        for idx, line in enumerate(out):
            if remaining == 0:
                break
            if line.family == "holomorphic" or isinstance(line.value, float):
                continue
            if line.value == value:
                take = min(line.mult, remaining)
                remaining -= take
                out[idx] = SpectralLine(line.value, line.mult - take,
                                        line.family, line.origin)
        if remaining:
            raise NegativeMultiplicity(
                f"cannot remove multiplicity {mult} at {value}; "
                f"short by {remaining}")
    return [line for line in out if line.mult > 0]


def virtual_spectrum(modes, holo: HoloCounts, eps) -> list:
    """The rescaled virtual spectrum at the given eps: lines lambda_pm/eps
    for every mode (zero eigenvalue of the trivial mode dropped), plus the
    holomorphic corrections."""
    lines = []
    for mode in modes:
        lp, lm = lambda_pm(mode.k, mode.n, eps)
        origin = f"k={mode.k};n={mode.n}"
        scale = float(eps) if isinstance(lp, float) else Fraction(eps)
        lines.append(SpectralLine(lp / scale, mode.mult, "plus", origin))
        if lm != 0:
            lines.append(SpectralLine(lm / scale, mode.mult, "minus", origin))
    added, removals = _holo_lines(holo)
    return _merge(_subtract(_merge(lines), removals) + added)


def dstar_limit_spectrum(modes, holo: HoloCounts) -> list:
    """The limit spectrum of the middle contact operator: lines -k per
    mode (zero dropped) plus the same holomorphic corrections."""
    lines = []
    for mode in modes:
        if mode.k == 0:
            continue
        lines.append(SpectralLine(-mode.k, mode.mult, "minus",
                                  f"k={mode.k};n={mode.n}"))
    added, removals = _holo_lines(holo)
    return _merge(_subtract(_merge(lines), removals) + added)


def delta2_spectrum(dstar_lines, deltaH_lines) -> list:
    """Multiset union of the two spectra (multiplicities add)."""
    return _merge(list(dstar_lines) + list(deltaH_lines))


def negative_holomorphic_count(lines) -> int:
    """Multiplicity-weighted count of negative holomorphic lines.

    Finitely many can occur (tied to curvature); no value is asserted
    anywhere, the count is only reported.
    """
    return sum(line.mult for line in lines
               if line.family == "holomorphic" and line.value < 0)


def partial_eta(lines, s: float) -> float:
    """Finite partial sum of the spectral asymmetry series
    sum mult * sgn(lambda) / |lambda|^s over the given nonzero lines."""
    if s <= 0:
        raise DomainError(f"s must be positive, got {s}")
    total = 0.0
    for line in lines:
        v = float(line.value)
        if v == 0.0:
            continue
        total += line.mult * math.copysign(abs(v) ** (-s), v)
    return total


def load_modes(path) -> list:
    """Mode file: JSON list [{"k": "p/q" | number, "n": int, "mult": int}]."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, list):
        raise DomainError("mode file must hold a JSON list")
    modes = []
    for entry in raw:
        try:
            k = entry["k"]
            if isinstance(k, str):
                k = Fraction(k)
            elif isinstance(k, int):
                k = Fraction(k)
            elif not isinstance(k, float) or not math.isfinite(k):
                raise DomainError(f"bad k: {k!r}")
            modes.append(SpectralMode(k=k, n=int(entry["n"]),
                                      mult=int(entry["mult"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"bad mode entry {entry!r}") from exc
    return modes


def load_holo(path) -> HoloCounts:
    """Holo counts file: JSON {"h0": {"n": mult}, "h2": {"n": mult}}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON in {path}: {exc}") from exc
    try:
        h0 = {int(n): int(m) for n, m in raw.get("h0", {}).items()}
        h2 = {int(n): int(m) for n, m in raw.get("h2", {}).items()}
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad holo counts in {path}") from exc
    return HoloCounts(h0=h0, h2=h2)


def lines_csv(lines) -> str:
    """CSV emission: value,mult,family,origin (deterministic order)."""
    rows = ["value,mult,family,origin"]
    for line in sorted(lines, key=SpectralLine.sort_key):
        value = str(line.value) if isinstance(line.value, Fraction) else repr(line.value)
        rows.append(f"{value},{line.mult},{line.family},{line.origin}")
    return "\n".join(rows)
