import math
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from crseifert.exactq import (DomainError, ExponentMismatch, ExponentOverflow,
                              LaurentEps, NotInvertible, PiLaurent, frac,
                              hurwitz_zeta_at_zero, mod_inverse,
                              parse_pilaurent, parse_rational, rational_sqrt,
                              zeta_at_minus_one)

from conftest import nonzero_rationals


def brute_mod_inverse(a, m):
    for x in range(m):
        if (a * x - 1) % m == 0:
            return x
    return None


def test_mod_inverse_examples():
    assert mod_inverse(1, 5) == 1
    assert mod_inverse(2, 3) == 2
    assert brute_mod_inverse(7, 11) == 8
    assert mod_inverse(7, 11) == 8


def test_mod_inverse_unit_modulus_convention():
    assert mod_inverse(0, 1) == 0
    assert mod_inverse(7, 1) == 0


def test_mod_inverse_not_invertible():
    with pytest.raises(NotInvertible):
        mod_inverse(2, 4)
    with pytest.raises(DomainError):
        mod_inverse(1, 0)


@given(st.integers(min_value=-500, max_value=500),
       st.integers(min_value=2, max_value=300))
def test_mod_inverse_involution(a, m):
    if math.gcd(a, m) != 1:
        return
    x = mod_inverse(a, m)
    assert 1 <= x < m
    assert (a * x) % m == 1
    assert mod_inverse(x, m) == a % m


def test_frac_examples():
    assert frac(Fraction(7, 3)) == Fraction(1, 3)
    assert frac(Fraction(-1, 3)) == Fraction(2, 3)
    assert frac(Fraction(4)) == 0


@given(nonzero_rationals(), st.integers(min_value=-100, max_value=100))
def test_frac_shift_invariance(x, n):
    assert frac(x + n) == frac(x)
    assert 0 <= frac(x) < 1
    assert (x - frac(x)).denominator == 1


def test_hurwitz_zeta_at_zero_values():
    assert hurwitz_zeta_at_zero(Fraction(1, 2)) == 0
    assert hurwitz_zeta_at_zero(Fraction(1)) == Fraction(-1, 2)
    assert hurwitz_zeta_at_zero(Fraction(1, 3)) == Fraction(1, 6)


def test_hurwitz_zeta_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta_at_zero(Fraction(0))
    with pytest.raises(DomainError):
        hurwitz_zeta_at_zero(Fraction(3, 2))


def test_zeta_at_minus_one():
    assert zeta_at_minus_one() == Fraction(-1, 12)
    # the affine regularization -2*d*zeta(-1) must be d/6
    for d in (Fraction(-1), Fraction(-1, 3)):
        assert -2 * d * zeta_at_minus_one() == d / 6


@given(st.integers(-1000, 1000), st.integers(1, 1000),
       st.integers(-1000, 1000), st.integers(1, 1000))
def test_rational_arithmetic_exact(a, b, c, d):
    total = Fraction(a, b) + Fraction(c, d)
    assert total * b * d == a * d + c * b


def test_rational_serialization():
    assert str(Fraction(-11, 3)) == "-11/3"
    assert str(Fraction(4)) == "4"
    assert parse_rational("-11/3") == Fraction(-11, 3)
    assert parse_rational("4") == 4
    with pytest.raises(DomainError):
        parse_rational("1/0")
    with pytest.raises(DomainError):
        parse_rational("nope")


# exponents kept in [-1, 1] so triple products stay inside the legal range
small_pilaurents = st.builds(
    PiLaurent,
    st.dictionaries(st.integers(min_value=-1, max_value=1),
                    st.fractions(min_value=-5, max_value=5, max_denominator=30),
                    max_size=3))


@given(small_pilaurents, small_pilaurents, small_pilaurents)
def test_pilaurent_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(small_pilaurents)
def test_pilaurent_no_zero_coefficients_stored(x):
    assert all(c != 0 for c in x.coefficients().values())
    assert (x - x).is_zero()


def test_pilaurent_exponent_overflow():
    with pytest.raises(ExponentOverflow):
        PiLaurent.pi_power(3) * PiLaurent.pi_power(2)
    with pytest.raises(ExponentOverflow):
        PiLaurent.pi_power(-3).shift(-2)
    with pytest.raises(ExponentOverflow):
        PiLaurent({5: 1})


def test_pilaurent_rational_value():
    assert PiLaurent.from_rational(Fraction(2, 3)).rational_value() == Fraction(2, 3)
    assert PiLaurent.zero().rational_value() == 0
    with pytest.raises(ExponentMismatch):
        PiLaurent.pi_power(2).rational_value()


def test_pilaurent_hash_matches_equal_rationals():
    one = PiLaurent.from_rational(1)
    assert one == 1
    assert len({one, 1}) == 1
    assert {one: "x"}.get(1) == "x"
    assert hash(PiLaurent.zero()) == hash(0)
    assert hash(PiLaurent.from_rational(Fraction(2, 3))) == hash(Fraction(2, 3))


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(4, 3)) is None
    assert rational_sqrt(Fraction(-4)) is None


@given(st.fractions(min_value=0, max_value=1000, max_denominator=1000))
def test_rational_sqrt_of_square(x):
    assert rational_sqrt(x * x) == x


def test_pilaurent_serialization():
    x = PiLaurent({0: Fraction(2, 3), 2: Fraction(-1, 32)})
    assert str(x) == "2/3 - 1/32*pi^2"
    assert str(PiLaurent.zero()) == "0"
    assert str(PiLaurent.pi_power(2, 16)) == "16*pi^2"
    assert str(PiLaurent.pi_power(-2, Fraction(1, 12))) == "1/12*pi^-2"


@given(small_pilaurents)
def test_pilaurent_parse_roundtrip(x):
    assert parse_pilaurent(str(x)) == x


def test_pilaurent_float_conversion():
    x = PiLaurent({0: Fraction(1), 2: Fraction(1)})
    assert abs(float(x) - (1 + math.pi**2)) < 1e-12


def test_laurent_eps_range_and_lookup():
    e = LaurentEps({-2: Fraction(1, 6), 0: Fraction(2, 3)})
    assert e.coefficient(-2) == PiLaurent.from_rational(Fraction(1, 6))
    assert e.coefficient(1).is_zero()
    assert e.exponents() == [-2, 0]
    with pytest.raises(ExponentOverflow):
        LaurentEps({3: Fraction(1)})
