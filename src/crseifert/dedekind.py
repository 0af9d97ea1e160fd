"""Dedekind-Rademacher sums: one production route and two oracles.

The production route, ``dedekind_sum``, normalizes to the classical sum
(``reduce_to_classical``) and evaluates it by the Euclidean reciprocity
recursion (``dedekind_fast``) in O(log alpha) integer steps.  Everything
outside the tests and the verify battery uses it.

The oracles recompute the same value independently, for cross-validation
only.  ``dedekind_rademacher`` is the defining sawtooth sum

    s(alpha, rho, beta) = sum_{k=1}^{alpha-1} ((k*rho/alpha)) ((k*beta/alpha))

with ((x)) = frac(x) - 1/2 off the integers and 0 on them, O(alpha) in
exact integers; numpy, when installed, only speeds it up for mid-sized
alpha.  ``dedekind_float_oracle`` is the floating cotangent sum.  None of
the three routes is allowed to shortcut through another.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactq import mod_inverse

# Largest alpha for which the int64 vectorized sawtooth sum is provably
# overflow-free: |sum| <= alpha^3 must stay below 2^63.
_NUMPY_ALPHA_MAX = 2_000_000
_NUMPY_ALPHA_MIN = 512


class NonCoprime(ValueError):
    """A Dedekind-sum argument violates the coprimality precondition."""


def _check_coprime(alpha: int, rho: int, beta: int) -> None:
    if alpha < 1:
        raise NonCoprime(f"alpha must be positive, got {alpha}")
    if math.gcd(rho, alpha) != 1 or math.gcd(beta, alpha) != 1:
        raise NonCoprime(f"need gcd(rho, alpha) = gcd(beta, alpha) = 1, "
                         f"got ({alpha}, {rho}, {beta})")


def _sawtooth_sum_scaled(alpha: int, rho: int, beta: int) -> int:
    """sum_k (2(k*rho mod alpha) - alpha) * (2(k*beta mod alpha) - alpha).

    Integer-only inner sum; the true sawtooth sum is this over 4*alpha^2.
    Residues k*rho mod alpha never vanish for coprime rho, so the
    integer-argument branch of ((x)) never triggers inside the sum.
    """
    if _NUMPY_ALPHA_MIN <= alpha <= _NUMPY_ALPHA_MAX:
        # imported here so that only this oracle pays numpy's import time
        try:
            import numpy as np
        except ImportError:
            pass
        else:
            k = np.arange(1, alpha, dtype=np.int64)
            a = (k * (rho % alpha)) % alpha
            b = (k * (beta % alpha)) % alpha
            return int(np.sum((2 * a - alpha) * (2 * b - alpha)))
    total = 0
    a = b = 0
    for _ in range(1, alpha):
        a = (a + rho) % alpha
        b = (b + beta) % alpha
        total += (2 * a - alpha) * (2 * b - alpha)
    return total


def dedekind_rademacher(alpha: int, rho: int, beta: int) -> Fraction:
    """Exact Dedekind-Rademacher sum s(alpha, rho, beta) via the sawtooth
    sum; O(alpha), an oracle for ``dedekind_sum``."""
    _check_coprime(alpha, rho, beta)
    if alpha == 1:
        return Fraction(0)
    return Fraction(_sawtooth_sum_scaled(alpha, rho, beta), 4 * alpha * alpha)


def reduce_to_classical(alpha: int, rho: int, beta: int) -> tuple:
    """Normalize to (alpha, c) with s(alpha, rho, beta) = s(alpha, 1, c).

    c = beta * rho^{-1} mod alpha; k -> k*rho^{-1} permutes the residues so
    the sawtooth sum is unchanged.
    """
    _check_coprime(alpha, rho, beta)
    return alpha, (beta * mod_inverse(rho, alpha)) % alpha


def dedekind_fast(c: int, alpha: int) -> Fraction:
    """Classical Dedekind sum s(c, alpha) = s(alpha, 1, c) by reciprocity.

    Euclidean recursion: s(h, k) = -1/4 + (h^2 + k^2 + 1)/(12hk) - s(k, h),
    with s(h, k) = s(h mod k, k); O(log alpha) arithmetic steps.  Each
    step adds sign * (h^2 + k^2 + 1 - 3hk)/(12hk) to an integer
    numerator/denominator pair, reduced once at the end.
    """
    if alpha < 1:
        raise NonCoprime(f"alpha must be positive, got {alpha}")
    if math.gcd(c, alpha) != 1:
        raise NonCoprime(f"need gcd(c, alpha) = 1, got ({c}, {alpha})")
    num, den, sign = 0, 1, 1
    h, k = c % alpha, alpha
    while k > 1:
        step = 12 * h * k
        num = num * step + sign * (h * h + k * k + 1 - 3 * h * k) * den
        den *= step
        sign = -sign
        h, k = k % h, h
    return Fraction(num, den)


def dedekind_sum(alpha: int, rho: int, beta: int) -> Fraction:
    """Exact Dedekind-Rademacher sum s(alpha, rho, beta): the production
    route, ``reduce_to_classical`` then ``dedekind_fast``; O(log alpha)."""
    alpha, c = reduce_to_classical(alpha, rho, beta)
    return dedekind_fast(c, alpha)


def dedekind_float_oracle(alpha: int, rho: int, beta: int) -> float:
    """Literal cotangent summation (1/4a) sum cot(k*rho*pi/a) cot(k*beta*pi/a).

    Accurate to well under 1e-9 for alpha <= 500; used only to validate the
    exact routes.
    """
    _check_coprime(alpha, rho, beta)
    total = 0.0
    for k in range(1, alpha):
        a = (k * rho) % alpha
        b = (k * beta) % alpha
        ta = math.pi * a / alpha
        tb = math.pi * b / alpha
        total += (math.cos(ta) / math.sin(ta)) * (math.cos(tb) / math.sin(tb))
    return total / (4 * alpha)
