"""Dedekind-Rademacher sums: one production route and two oracles.

The production route, ``dedekind_sum``, normalizes to the classical sum
(``reduce_to_classical``) and evaluates it by the Euclidean reciprocity
recursion (``dedekind_fast``) in O(log alpha) integer steps.  Everything
outside the tests and the verify battery uses it.

The oracles recompute the same value independently, for cross-validation
only.  ``dedekind_rademacher`` is the defining sawtooth sum

    s(alpha, rho, beta) = sum_{k=1}^{alpha-1} ((k*rho/alpha)) ((k*beta/alpha))

with ((x)) = frac(x) - 1/2 off the integers and 0 on them, O(alpha) in
exact integers.  Reindexing k -> k*rho^{-1} with c = beta*rho^{-1} mod
alpha turns its scaled form into one residue sequence,

    sum_k (2(k*rho mod alpha) - alpha)(2(k*beta mod alpha) - alpha)
        = 4 * sum_{r=1}^{alpha-1} r*(r*c mod alpha) - alpha^2 (alpha - 1),

because both residue sequences run over 1..alpha-1 and sum to
alpha(alpha-1)/2: the two cross terms give -2 alpha^2 (alpha-1) and the
constant term alpha^2 (alpha-1).  The sum on the right is at most
alpha^3/2, below 2^63 for alpha <= 2*10^6, where numpy, when installed,
evaluates it in int64.  numpy is used only from alpha = 2048 up: below
that the pure-Python sum takes at most ~0.2 ms, against ~70 ms and ~12 MB
for importing numpy, and the floor sits above the verify battery's
largest alpha (2000), so no CLI command loads numpy.
``dedekind_float_oracle`` is the floating cotangent sum.  None of the
three routes is allowed to shortcut through another.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import repeat

from .exactq import mod_inverse

# numpy's branch of the sawtooth sum; the module docstring gives the
# int64 overflow bound behind the maximum and the reason for the minimum.
_NUMPY_ALPHA_MAX = 2_000_000
_NUMPY_ALPHA_MIN = 2048


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

    Integer-only; the true sawtooth sum is this over 4*alpha^2.  Evaluated
    by the module docstring's reindexing identity as
    4 * sum_r r*(r*c mod alpha) - alpha^2 (alpha - 1), c = beta*rho^{-1}
    mod alpha.  The sum over r is at most alpha^3/2, so numpy's int64
    cannot overflow up to _NUMPY_ALPHA_MAX; numpy is not imported below
    _NUMPY_ALPHA_MIN = 2048, above every alpha the verify battery draws.
    Residues never vanish for coprime arguments, so the integer-argument
    branch of ((x)) never triggers inside the sum.  The inverse is taken here, not through ``reduce_to_classical``, so the
    oracle shares nothing with the production route.  Needs alpha >= 2.
    """
    c = beta * pow(rho, -1, alpha) % alpha
    if _NUMPY_ALPHA_MIN <= alpha <= _NUMPY_ALPHA_MAX:
        # imported here so that only this oracle pays numpy's import time
        try:
            import numpy as np
        except ImportError:
            pass
        else:
            k = np.arange(1, alpha, dtype=np.int64)
            m = k * c
            m %= alpha
            return 4 * int(k @ m) - alpha * alpha * (alpha - 1)
    residues = map(operator.mod, range(c, c * alpha, c), repeat(alpha))
    return (4 * sum(map(operator.mul, range(1, alpha), residues))
            - alpha * alpha * (alpha - 1))


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
