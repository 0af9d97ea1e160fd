"""Cross-validation of the three Dedekind-sum routes.

The brute-force oracle below re-implements the sawtooth sum directly from
the definition ((x)) = frac(x) - 1/2 (0 on integers), term by term in
exact arithmetic, with no shortcuts shared with the library code.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from crseifert import dedekind
from crseifert.cli import main
from crseifert.dedekind import (NonCoprime, dedekind_fast,
                                dedekind_float_oracle, dedekind_rademacher,
                                dedekind_sum, reduce_to_classical)
from crseifert.invariants import check_cor15, eta0, eta_dstar, nu
from crseifert.obstruct import lens_report
from crseifert.seifert import ConePoint, from_genus

from conftest import coprime_triples


def sawtooth(x: Fraction) -> Fraction:
    f = x - (x.numerator // x.denominator)
    return Fraction(0) if f == 0 else f - Fraction(1, 2)


def dedekind_brute(alpha, rho, beta) -> Fraction:
    return sum((sawtooth(Fraction(k * rho, alpha)) *
                sawtooth(Fraction(k * beta, alpha))
                for k in range(1, alpha)), Fraction(0))


def test_examples_against_brute_force():
    cases = [(1, 1, 1, Fraction(0)),
             (2, 1, 1, Fraction(0)),
             (3, 1, 1, Fraction(1, 18)),
             (5, 1, 1, Fraction(1, 5)),
             (3, 2, 1, Fraction(-1, 18))]
    for alpha, rho, beta, expected in cases:
        assert dedekind_brute(alpha, rho, beta) == expected
        assert dedekind_rademacher(alpha, rho, beta) == expected


def test_classical_closed_form():
    # s(alpha, 1, 1) = (alpha - 1)(alpha - 2) / (12 alpha)
    for alpha in range(1, 40):
        assert dedekind_rademacher(alpha, 1, 1) == \
            Fraction((alpha - 1) * (alpha - 2), 12 * alpha)


def test_reduce_to_classical_examples():
    assert reduce_to_classical(3, 2, 2) == (3, 1)
    assert reduce_to_classical(5, 3, 2) == (5, 4)
    assert reduce_to_classical(7, 1, 3) == (7, 3)
    assert reduce_to_classical(7, 1, 10) == (7, 3)


def test_dedekind_fast_examples():
    assert dedekind_fast(1, 3) == Fraction(1, 18)
    assert dedekind_fast(1, 1) == 0
    assert dedekind_fast(2, 5) == 0
    assert dedekind_brute(5, 1, 2) == 0


def test_float_oracle_examples():
    assert abs(dedekind_float_oracle(3, 1, 1) - 1 / 18) < 1e-12
    assert abs(dedekind_float_oracle(2, 1, 1)) < 1e-12
    assert abs(dedekind_float_oracle(5, 1, 1) - 0.2) < 1e-12


def test_noncoprime_rejected():
    with pytest.raises(NonCoprime):
        dedekind_rademacher(4, 2, 1)
    with pytest.raises(NonCoprime):
        dedekind_rademacher(4, 1, 2)
    with pytest.raises(NonCoprime):
        dedekind_fast(2, 4)
    with pytest.raises(NonCoprime):
        dedekind_float_oracle(6, 3, 1)
    with pytest.raises(NonCoprime):
        reduce_to_classical(4, 2, 1)


def test_alpha_one_empty_sum():
    assert dedekind_rademacher(1, 1, 1) == 0
    assert dedekind_rademacher(1, 7, -3) == 0


@given(coprime_triples(max_alpha=120))
def test_sawtooth_matches_brute_force(triple):
    alpha, rho, beta = triple
    assert dedekind_rademacher(alpha, rho, beta) == \
        dedekind_brute(alpha, rho, beta)


# The explicit examples sit on both sides of the sawtooth's numpy branch
# (512 <= alpha <= 2*10^6) and at the top of the drawn range.
@given(coprime_triples(max_alpha=200_000))
@example((511, 2, 3))
@example((512, 3, 5))
@example((199_999, 7, -11))
@settings(max_examples=60, deadline=None)
def test_sawtooth_matches_fast_reciprocity(triple):
    alpha, rho, beta = triple
    assert dedekind_rademacher(alpha, rho, beta) == dedekind_sum(alpha, rho, beta)


def test_sawtooth_without_numpy(monkeypatch):
    with_numpy = dedekind_rademacher(1009, 3, 5)
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy fails
    assert dedekind_rademacher(1009, 3, 5) == with_numpy == \
        dedekind_sum(1009, 3, 5)


def test_production_route_skips_the_sawtooth(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the production route summed the sawtooth")
    monkeypatch.setattr(dedekind, "_sawtooth_sum_scaled", refuse)
    with pytest.raises(AssertionError):
        dedekind_rademacher(3, 1, 1)
    data = from_genus(1, Fraction(-7, 5),
                      [ConePoint(101, 7, 33), ConePoint(9973, 12, 5)])
    eta0(data)
    nu(data)
    eta_dstar(data)
    assert check_cor15(data)
    assert len(lens_report(1001, 17)) == 3
    assert main(["dedekind", "1999993", "3", "5"]) == 0
    assert capsys.readouterr().out == "22221277781/1999993\n"


@given(coprime_triples(max_alpha=500))
@settings(max_examples=40)
def test_float_oracle_agrees(triple):
    alpha, rho, beta = triple
    exact = float(dedekind_rademacher(alpha, rho, beta))
    assert abs(dedekind_float_oracle(alpha, rho, beta) - exact) < 1e-9


@given(coprime_triples(max_alpha=400))
def test_symmetry(triple):
    alpha, rho, beta = triple
    assert dedekind_rademacher(alpha, rho, beta) == \
        dedekind_rademacher(alpha, beta, rho)


@given(coprime_triples(max_alpha=200), st.integers(1, 199))
def test_unit_invariance_and_mod_reduction(triple, m):
    alpha, rho, beta = triple
    if math.gcd(m, alpha) != 1:
        return
    s = dedekind_rademacher(alpha, rho, beta)
    assert dedekind_rademacher(alpha, m * rho, m * beta) == s
    assert dedekind_rademacher(alpha, rho + alpha, beta - alpha) == s


@given(st.integers(1, 400), st.integers(1, 400))
def test_reciprocity_law(b, c):
    if math.gcd(b, c) != 1:
        return
    lhs = dedekind_fast(b, c) + dedekind_fast(c, b)
    rhs = Fraction(-1, 4) + (Fraction(b, c) + Fraction(c, b)
                             + Fraction(1, b * c)) / 12
    assert lhs == rhs
