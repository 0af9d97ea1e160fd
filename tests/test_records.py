"""The frozen value records keep the repr, equality, hash and
immutability they had as frozen dataclasses; the expected values were
taken from the dataclass versions."""

from fractions import Fraction

import pytest

from crseifert.invariants import OuyangEta
from crseifert.rrketa import EtaBreakdown
from crseifert.seifert import (ConePoint, GeomIntegrals, InvalidConePoint,
                               SeifertData, geom_integrals_const, lens_space)

L32 = lens_space(3, 2)

# (record, a second record with equal fields, its fields as a tuple, repr)
CASES = [
    (ConePoint(3, 1, 2), ConePoint(3, 1, 2), (3, 1, 2),
     "ConePoint(alpha=3, rho=1, beta=2)"),
    (L32, SeifertData(-Fraction(1, 3), Fraction(2, 3), ((3, 1, 1), (3, 2, 2))),
     (Fraction(-1, 3), Fraction(2, 3), (ConePoint(3, 1, 1), ConePoint(3, 2, 2))),
     "SeifertData(degree=Fraction(-1, 3), chi_orb=Fraction(2, 3), "
     "cone_points=(ConePoint(alpha=3, rho=1, beta=1), "
     "ConePoint(alpha=3, rho=2, beta=2)))"),
    (geom_integrals_const(L32), geom_integrals_const(lens_space(3, 2)),
     tuple(getattr(geom_integrals_const(L32), f)
           for f in ("vol", "int_R", "int_R2", "int_tau2")),
     "GeomIntegrals(vol=PiLaurent(4/3*pi^2), int_R=PiLaurent(8/3*pi^2), "
     "int_R2=PiLaurent(16/3*pi^2), int_tau2=PiLaurent(0))"),
    (OuyangEta(Fraction(4, 3), Fraction(-2, 9), Fraction(1, 18)),
     OuyangEta(c0=Fraction(4, 3), c1=Fraction(-2, 9), c2=Fraction(1, 18)),
     (Fraction(4, 3), Fraction(-2, 9), Fraction(1, 18)),
     "OuyangEta(c0=Fraction(4, 3), c1=Fraction(-2, 9), c2=Fraction(1, 18))"),
    (EtaBreakdown(Fraction(1, 18), Fraction(-1, 3)),
     EtaBreakdown(affine_part=Fraction(1, 18), periodic_part=Fraction(-1, 3)),
     (Fraction(1, 18), Fraction(-1, 3)),
     "EtaBreakdown(affine_part=Fraction(1, 18), periodic_part=Fraction(-1, 3))"),
]

# hash() of each record above, as the dataclass versions gave it
# (Fractions and ints hash the same in every process).
DATACLASS_HASHES = [-4267894587036932458, 1364524134483399332,
                    -4512044603694396400, -8756148337393364945,
                    -6814485336436608515]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_record_semantics(case):
    record, equal, fields, text = CASES[case]
    assert repr(record) == text
    assert record == equal and not record != equal
    assert record != fields and not record == fields
    assert hash(record) == hash(equal) == hash(fields) == DATACLASS_HASHES[case]
    name = text[text.index("(") + 1:text.index("=")]  # the first field
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[0]


def test_records_of_different_types_differ():
    assert OuyangEta(1, 2, 3) != ConePoint(1, 2, 3)
    assert SeifertData(-1, 2) == SeifertData(Fraction(-1), Fraction(2), ())


def test_cone_point_repr_reaches_the_error_message():
    with pytest.raises(InvalidConePoint,
                       match=r"got ConePoint\(alpha=3, rho=0, beta=1\)$"):
        ConePoint(3, 0, 1).check()
