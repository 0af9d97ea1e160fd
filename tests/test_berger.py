from fractions import Fraction

import pytest
from hypothesis import given

from crseifert.berger import (FRAME_VOLUME, berger_eta0, berger_mu,
                              berger_nu, berger_webster, hitchin_eta,
                              hitchin_eta0_limit, identities)
from crseifert.exactq import PiLaurent
from crseifert.invariants import eta0, nu
from crseifert.seifert import sphere

from conftest import positive_rationals


def two_parameter_expansion(l2, l3):
    """The intermediate closed form for hitchin_eta(1, l2, l3), expanded in
    powers of the third squared parameter; an independent polynomial
    identity check for the symmetric-function route."""
    l2, l3 = Fraction(l2), Fraction(l3)
    return Fraction(2, 3) / (l2 * l3) * (
        l3**3 - (1 + l2) * l3**2 - (l2**2 - 3 * l2 + 1) * l3
        + (l2**3 - l2**2 - l2 + 1))


def test_hitchin_round_sphere():
    assert hitchin_eta(1, 1, 1) == 0


def test_hitchin_example_1_1_4():
    # s1 = 6, s2 = 9, s3 = 4: (216 - 216)/4 + 9 = 9, times 2/3
    assert hitchin_eta(1, 1, 4) == Fraction(2, 3) * 9
    assert two_parameter_expansion(1, 4) == hitchin_eta(1, 1, 4)


@given(positive_rationals(max_abs=12), positive_rationals(max_abs=12))
def test_hitchin_matches_two_parameter_expansion(l2, l3):
    assert hitchin_eta(1, l2, l3) == two_parameter_expansion(l2, l3)


def test_positivity_required():
    with pytest.raises(ValueError):
        hitchin_eta(1, 0, 1)
    for fn in (berger_eta0, berger_webster, berger_mu, berger_nu, identities):
        with pytest.raises(ValueError, match=r"lambda\^2 must be positive"):
            fn(0)


def test_berger_eta0_values():
    assert berger_eta0(1) == Fraction(2, 3)
    assert berger_eta0(2) == Fraction(1, 3)
    assert berger_eta0(Fraction(1, 2)) == Fraction(1, 3)


def test_berger_webster_values():
    assert berger_webster(1) == (Fraction(1), Fraction(0))
    assert berger_webster(4) == (Fraction(25, 16), Fraction(9, 16))


@given(positive_rationals(max_abs=30))
def test_webster_hyperbolic_identity(l):
    r2, tau2 = berger_webster(l)
    assert r2 - tau2 == 1


def test_berger_mu_values():
    assert berger_mu(1) == -1
    assert berger_mu(2) == Fraction(-5, 8)
    assert berger_mu(4) == Fraction(11, 16)


def test_berger_nu_values():
    assert berger_nu(1) == -1
    assert berger_nu(2) == Fraction(1, 8)


def sample_points(count=20):
    return [Fraction(i, 7) + Fraction(1, 3) for i in range(1, count + 1)]


def test_identity_battery():
    # rational-function identities of bounded degree: twenty exact sample
    # points certify them outright
    for l in sample_points(20):
        nu_v = berger_nu(l)
        eta0_v = berger_eta0(l)
        mu_v = berger_mu(l)
        r2, _ = berger_webster(l)
        assert nu_v + 3 * eta0_v == (1 + l) ** 2 / (4 * l)
        assert nu_v == 3 * mu_v + 2
        assert nu_v + 3 * eta0_v == r2


@given(positive_rationals(max_abs=25))
def test_identities_collects_the_closed_forms(l):
    values = identities(l)
    assert list(values) == ["eta0", "nu", "mu", "R2", "tau2",
                            "id_nu_plus_3eta0_is_R2", "id_nu_is_3mu_plus_2",
                            "id_limit_matches"]
    assert (values["eta0"], values["nu"], values["mu"]) == \
        (berger_eta0(l), berger_nu(l), berger_mu(l))
    assert (values["R2"], values["tau2"]) == berger_webster(l)
    assert all(values[k] is True for k in values if k.startswith("id_"))


@given(positive_rationals(max_abs=25))
def test_limit_extraction_matches_eta0(l):
    assert hitchin_eta0_limit(l) == berger_eta0(l)


def test_matches_seifert_route_at_round_point():
    assert berger_eta0(1) == eta0(sphere())
    assert berger_nu(1) == nu(sphere())


def test_frame_volume_reconciles_curvature_identity():
    # nu + 3*eta0 equals int R^2 theta^dtheta / (16 pi^2) with the frame
    # volume 16 pi^2, i.e. equals R^2 itself
    assert FRAME_VOLUME == PiLaurent.pi_power(2, 16)
    for l in sample_points(5):
        r2, _ = berger_webster(l)
        int_r2 = FRAME_VOLUME * r2
        assert (int_r2.shift(-2) / 16).rational_value() == \
            berger_nu(l) + 3 * berger_eta0(l)
