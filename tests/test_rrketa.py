import math
from fractions import Fraction

from hypothesis import given, settings

from crseifert.dedekind import dedekind_rademacher
from crseifert.exactq import frac, hurwitz_zeta_at_zero, mod_inverse
from crseifert.invariants import eta0
from crseifert.rrketa import (chi_del, eta0_via_rrk,
                              regularized_eta_difference, sphere_h_counts)
from crseifert.seifert import SeifertData, from_genus, lens_space, sphere

from conftest import seifert_datas


def test_chi_del_sphere():
    s3 = sphere()
    assert chi_del(s3, 3) == 4
    assert chi_del(s3, 0) == 1
    assert chi_del(s3, -1) == 0
    assert chi_del(s3, -3) == -2


def test_chi_del_lens():
    assert chi_del(lens_space(3, 2), 1) == Fraction(2, 3)


def test_breakdown_sphere():
    b = regularized_eta_difference(sphere())
    assert b.affine_part == Fraction(-1, 6)
    assert b.periodic_part == 0
    assert b.total == Fraction(-1, 6)


def test_breakdown_lens32():
    b = regularized_eta_difference(lens_space(3, 2))
    assert b.affine_part == Fraction(-1, 18)
    assert b.periodic_part == Fraction(2, 9)
    assert b.total == Fraction(1, 6)


def test_breakdown_single_cone_matches_dedekind():
    # per-cone periodic contribution is twice the Dedekind-Rademacher sum
    data = from_genus(0, -1, [(3, 1, 1)])
    b = regularized_eta_difference(data)
    assert b.periodic_part == 2 * dedekind_rademacher(3, 1, 1) == Fraction(1, 9)


@given(seifert_datas(max_alpha=30))
@settings(max_examples=60)
def test_periodic_part_is_twice_cone_sum(data):
    b = regularized_eta_difference(data)
    assert b.affine_part == data.degree / 6
    assert b.periodic_part == 2 * sum(
        (dedekind_rademacher(c.alpha, c.rho, c.beta) for c in data.cone_points),
        Fraction(0))


def test_eta0_via_rrk_examples():
    assert eta0_via_rrk(sphere()) == Fraction(2, 3)
    assert eta0_via_rrk(lens_space(3, 2)) == Fraction(4, 3)
    assert eta0_via_rrk(SeifertData(-2, 2)) == Fraction(1, 3)


@given(seifert_datas())
@settings(max_examples=100)
def test_route_equality(data):
    assert eta0_via_rrk(data) == eta0(data)


def _periodic_value_full_period(data):
    """Reference evaluation of the periodic part over the common period
    A = lcm(alpha_i), in O(A) terms; must agree with the per-cone sum
    (additivity of the regularized value)."""
    cones = data.cone_points
    if not cones:
        return Fraction(0)
    period = 1
    for cone in cones:
        period = math.lcm(period, cone.alpha)
    residues = [(cone.alpha,
                 (cone.beta * mod_inverse(cone.rho, cone.alpha)) % cone.alpha)
                for cone in cones]

    def g(n: int) -> Fraction:
        return sum((Fraction(alpha - 1, 2 * alpha)
                    - Fraction((n * c) % alpha, alpha))
                   for alpha, c in residues)

    return sum((g(r) - g(-r)) * hurwitz_zeta_at_zero(Fraction(r, period))
               for r in range(1, period + 1))


@given(seifert_datas(max_alpha=9, max_cones=3))
@settings(max_examples=40)
def test_full_period_additivity(data):
    # the lcm-period evaluation of the periodic part must match the
    # per-cone evaluation (regularization is additive)
    per_cone = regularized_eta_difference(data)
    assert per_cone.periodic_part == _periodic_value_full_period(data)


@given(seifert_datas(max_alpha=30))
def test_cone_terms_are_mean_zero(data):
    # the (1/2)(1 - 1/alpha) constants absorb the fractional-part means
    for cone in data.cone_points:
        c = (cone.beta * mod_inverse(cone.rho, cone.alpha)) % cone.alpha
        terms = [Fraction(cone.alpha - 1, 2 * cone.alpha)
                 - frac(Fraction(n * c, cone.alpha))
                 for n in range(cone.alpha)]
        assert sum(terms) == 0


@given(seifert_datas(max_alpha=20))
def test_chi_del_periodicity(data):
    # chi_del minus its affine part is periodic with the lcm period
    import math
    period = 1
    for cone in data.cone_points:
        period = math.lcm(period, cone.alpha)
    for n in (-7, -1, 0, 3, 11):
        lhs = chi_del(data, n) + n * data.degree
        rhs = chi_del(data, n + period) + (n + period) * data.degree
        assert lhs == rhs


def test_sphere_h_counts():
    assert sphere_h_counts(0) == (1, 0)
    assert sphere_h_counts(3) == (4, 2)
    assert sphere_h_counts(-1) == (0, 0)
    assert sphere_h_counts(1) == (2, 0)
    assert sphere_h_counts(2) == (3, 1)


def test_sphere_consistency_with_h_counts():
    # the Euler characteristic counts sections minus dual sections
    s3 = sphere()
    for n in range(-8, 9):
        h0_n, _ = sphere_h_counts(n)
        _, h2_neg = sphere_h_counts(-n)
        assert chi_del(s3, n) == h0_n - h2_neg
