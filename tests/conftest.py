import math
from fractions import Fraction

import hypothesis.strategies as st

from crseifert.seifert import ConePoint, from_genus


def units_mod(alpha: int) -> list:
    return [u for u in range(1, alpha + 1) if math.gcd(u, alpha) == 1]


@st.composite
def coprime_triples(draw, max_alpha=200):
    """(alpha, rho, beta) with both rho and beta prime to alpha."""
    alpha = draw(st.integers(min_value=1, max_value=max_alpha))
    units = units_mod(alpha)
    return alpha, draw(st.sampled_from(units)), draw(st.sampled_from(units))


@st.composite
def cone_points(draw, max_alpha=24):
    alpha = draw(st.integers(min_value=2, max_value=max_alpha))
    units = [u for u in units_mod(alpha) if u < alpha]
    return ConePoint(alpha, draw(st.sampled_from(units)),
                     draw(st.sampled_from(units)))


@st.composite
def seifert_datas(draw, max_alpha=24, max_cones=3):
    genus = draw(st.integers(min_value=0, max_value=3))
    cones = draw(st.lists(cone_points(max_alpha=max_alpha),
                          max_size=max_cones))
    degree = -Fraction(draw(st.integers(min_value=1, max_value=9)),
                       draw(st.integers(min_value=1, max_value=6)))
    return from_genus(genus, degree, cones)


@st.composite
def nonzero_rationals(draw, max_abs=50):
    num = draw(st.integers(min_value=-max_abs, max_value=max_abs).filter(bool))
    den = draw(st.integers(min_value=1, max_value=max_abs))
    return Fraction(num, den)


@st.composite
def positive_rationals(draw, max_abs=50):
    return Fraction(draw(st.integers(min_value=1, max_value=max_abs)),
                    draw(st.integers(min_value=1, max_value=max_abs)))


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true",
        help="rewrite each tests/golden record from the current CLI output "
             "instead of comparing with it")
