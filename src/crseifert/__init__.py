"""Exact-arithmetic calculator and verification harness for the spectral
and geometric invariants of compact CR-Seifert 3-manifolds."""

from .berger import (berger_eta0, berger_mu, berger_nu, berger_webster,
                     hitchin_eta, hitchin_eta0_limit)
from .dedekind import (NonCoprime, dedekind_fast, dedekind_float_oracle,
                       dedekind_rademacher, dedekind_sum, reduce_to_classical)
from .exactq import (LaurentEps, PiLaurent, Rational, frac,
                     hurwitz_zeta_at_zero, mod_inverse, zeta_at_minus_one)
from .invariants import (ROUND_T2, OuyangEta, check_cor15, diabatic_expansion,
                         eta0, eta_dstar, nu, nu_from_eta0, ouyang_eta,
                         ouyang_polynomial, zeta_Q_expansion, zeta_deltaH)
from .obstruct import (burns_epstein, check_chi2_over_4d, check_integer_nu,
                       cusp_signature, disk_bundle_solve, filling_identity,
                       lens_nu_direct, lens_report, miyaoka_yau_bound)
from .rrketa import (EtaBreakdown, chi_del, eta0_via_rrk,
                     regularized_eta_difference, sphere_h_counts)
from .seifert import (ConePoint, GeomIntegrals, SeifertData,
                      geom_integrals_const, from_genus, lens_space, sphere,
                      validate, webster_curvature_const)
from .spectrum import (HoloCounts, SpectralLine, SpectralMode,
                       delta2_spectrum, dstar_limit_spectrum, lambda_pm,
                       negative_holomorphic_count, partial_eta,
                       virtual_spectrum)

__version__ = "0.1.0"
