"""Exact rational arithmetic, symbolic pi-Laurent values, and the
number-theoretic primitives the rest of the package consumes.

Every invariant computed here is either a rational number or a finite
Laurent polynomial in pi with rational coefficients, so we never touch
floating point on the exact paths.  ``Rational`` is the standard library
``fractions.Fraction`` (always reduced, positive denominator), exposed
under the name the rest of the code uses.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction

# All in-scope closed forms live within pi^-4 .. pi^4.
PI_EXPONENT_MIN = -4
PI_EXPONENT_MAX = 4


class NotInvertible(ValueError):
    """Raised when a modular inverse does not exist."""


class DomainError(ValueError):
    """Raised when an argument leaves the documented domain."""


class ExponentOverflow(ArithmeticError):
    """A pi-Laurent operation produced an exponent outside [-4, 4]."""


class ExponentMismatch(ArithmeticError):
    """An exact computation required pi-powers to cancel and they did not."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (the serialized form used everywhere)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [1, m); by convention 0 when m == 1."""
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    if m == 1:
        return 0
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise NotInvertible(f"{a} is not invertible mod {m}") from exc


def frac(x: Fraction) -> Fraction:
    """Fractional part in [0, 1): frac(7/3) = 1/3, frac(-1/3) = 2/3."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def rational_sqrt(x: Fraction):
    """Exact square root of a rational, or None when x is negative or not
    the square of a rational."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def hurwitz_zeta_at_zero(x: Fraction) -> Fraction:
    """Value at s = 0 of the Hurwitz zeta function zeta(s, x), 0 < x <= 1.

    This is the closed form 1/2 - x, the only zeta special value needed to
    regularize the periodic parts of the eta series.
    """
    x = Fraction(x)
    if not 0 < x <= 1:
        raise DomainError(f"hurwitz_zeta_at_zero needs 0 < x <= 1, got {x}")
    return Fraction(1, 2) - x


def zeta_at_minus_one() -> Fraction:
    """zeta(-1) = -1/12, the regularized value of the affine series part."""
    return Fraction(-1, 12)


class PiLaurent:
    """Finite Laurent polynomial in pi with rational coefficients.

    Immutable.  Exponents are confined to [-4, 4]; any operation that
    would leave the range raises ExponentOverflow.  Zero coefficients are
    never stored.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for e, c in (coeffs or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            e = int(e)
            if not PI_EXPONENT_MIN <= e <= PI_EXPONENT_MAX:
                raise ExponentOverflow(f"pi exponent {e} outside range")
            clean[e] = c
        self._coeffs = clean

    @classmethod
    def zero(cls) -> "PiLaurent":
        return cls()

    @classmethod
    def from_rational(cls, c) -> "PiLaurent":
        return cls({0: Fraction(c)})

    @classmethod
    def pi_power(cls, exponent: int, coeff=1) -> "PiLaurent":
        return cls({exponent: Fraction(coeff)})

    def coefficient(self, exponent: int) -> Fraction:
        return self._coeffs.get(exponent, Fraction(0))

    def coefficients(self) -> dict:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_rational(self) -> bool:
        return set(self._coeffs) <= {0}

    def rational_value(self) -> Fraction:
        """The value as a plain rational; the pi-terms must have cancelled."""
        if not self.is_rational():
            raise ExponentMismatch(f"not a rational value: {self}")
        return self.coefficient(0)

    def shift(self, by: int) -> "PiLaurent":
        """Multiply by pi**by (exponent shift with range check)."""
        return PiLaurent({e + by: c for e, c in self._coeffs.items()})

    def __add__(self, other):
        other = _as_pilaurent(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return PiLaurent(out)

    __radd__ = __add__

    def __neg__(self):
        return PiLaurent({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = _as_pilaurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_pilaurent(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_pilaurent(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return PiLaurent(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return PiLaurent({e: c / Fraction(other) for e, c in self._coeffs.items()})
        return NotImplemented

    def __eq__(self, other):
        other = _as_pilaurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        # equal to its Fraction when rational, so it must hash like one
        if self.is_rational():
            return hash(self.coefficient(0))
        return hash(frozenset(self._coeffs.items()))

    def __float__(self):
        return float(sum(float(c) * math.pi**e for e, c in self._coeffs.items()))

    def __repr__(self):
        return f"PiLaurent({self})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            if e == 0:
                term = format_rational(abs(c))
            elif e == 1:
                term = f"{format_rational(abs(c))}*pi"
            else:
                term = f"{format_rational(abs(c))}*pi^{e}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _as_pilaurent(value):
    if isinstance(value, PiLaurent):
        return value
    if isinstance(value, (int, Fraction)):
        return PiLaurent.from_rational(value)
    return NotImplemented


def _parse_pi_term(term: str, source: str) -> tuple:
    sign = 1
    if term.startswith("-"):
        sign, term = -1, term[1:]
    try:
        if "pi" in term:
            coeff_src, _, tail = term.partition("pi")
            coeff_src = coeff_src.rstrip("*")
            coeff = Fraction(coeff_src) if coeff_src else Fraction(1)
            if tail == "":
                exponent = 1
            elif tail.startswith("^"):
                exponent = int(tail[1:])
            else:
                raise ValueError(tail)
        else:
            coeff, exponent = Fraction(term), 0
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad pi-Laurent term {term!r} in {source!r}") from exc
    return sign * coeff, exponent


def parse_pilaurent(text: str) -> PiLaurent:
    """Parse the serialized form, e.g. "2/3 - 1/32*pi^2" or "16*pi^2"."""
    src = text.strip().replace("**", "^").replace(" ", "")
    if not src:
        raise DomainError("empty pi-Laurent literal")
    # shield exponent signs while splitting on term signs
    src = src.replace("^-", "^@").replace("^+", "^")
    src = src.replace("-", "+-").replace("^@", "^-")
    coeffs = {}
    for term in (t for t in src.split("+") if t):
        coeff, exponent = _parse_pi_term(term, text)
        coeffs[exponent] = coeffs.get(exponent, Fraction(0)) + coeff
    return PiLaurent(coeffs)


# Homogeneous eps-expansions stay within eps^-2 .. eps^2.
EPS_EXPONENT_MIN = -2
EPS_EXPONENT_MAX = 2


class LaurentEps:
    """Finite Laurent polynomial in the rescaling parameter eps, with
    PiLaurent coefficients; exponents confined to [-2, 2]."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for i, v in (coeffs or {}).items():
            v = _as_pilaurent(v)
            if v is NotImplemented:
                raise TypeError(f"bad coefficient for eps^{i}")
            if v.is_zero():
                continue
            i = int(i)
            if not EPS_EXPONENT_MIN <= i <= EPS_EXPONENT_MAX:
                raise ExponentOverflow(f"eps exponent {i} outside range")
            clean[i] = v
        self._coeffs = clean

    def coefficient(self, exponent: int) -> PiLaurent:
        return self._coeffs.get(exponent, PiLaurent.zero())

    def coefficients(self) -> dict:
        return dict(self._coeffs)

    def exponents(self):
        return sorted(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentEps):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        return f"LaurentEps({self})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for i in sorted(self._coeffs):
            v = self._coeffs[i]
            if i == 0:
                parts.append(f"({v})")
            elif i == 1:
                parts.append(f"({v})*eps")
            else:
                parts.append(f"({v})*eps^{i}")
        return " + ".join(parts)
