"""Exact-arithmetic calculator and verification harness for the spectral
and geometric invariants of compact CR-Seifert 3-manifolds.

Modules load on first use (PEP 562): ``from crseifert import nu`` imports
``crseifert.invariants`` and what it needs, and nothing else.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "berger": ("berger_eta0", "berger_mu", "berger_nu", "berger_webster",
               "hitchin_eta", "hitchin_eta0_limit"),
    "dedekind": ("NonCoprime", "dedekind_fast", "dedekind_float_oracle",
                 "dedekind_rademacher", "dedekind_sum", "reduce_to_classical"),
    "exactq": ("LaurentEps", "PiLaurent", "Rational", "frac",
               "hurwitz_zeta_at_zero", "mod_inverse", "zeta_at_minus_one"),
    "invariants": ("ROUND_T2", "OuyangEta", "check_cor15", "diabatic_expansion",
                   "eta0", "eta_dstar", "nu", "nu_from_eta0", "ouyang_eta",
                   "ouyang_polynomial", "zeta_Q_expansion", "zeta_deltaH"),
    "obstruct": ("burns_epstein", "check_chi2_over_4d", "check_integer_nu",
                 "cusp_signature", "disk_bundle_solve", "filling_identity",
                 "lens_nu_direct", "lens_report", "miyaoka_yau_bound"),
    "rrketa": ("EtaBreakdown", "chi_del", "eta0_via_rrk",
               "regularized_eta_difference", "sphere_h_counts"),
    "seifert": ("ConePoint", "GeomIntegrals", "SeifertData",
                "geom_integrals_const", "from_genus", "lens_space", "sphere",
                "validate", "webster_curvature_const"),
    "spectrum": ("HoloCounts", "SpectralLine", "SpectralMode",
                 "delta2_spectrum", "dstar_limit_spectrum", "lambda_pm",
                 "negative_holomorphic_count", "partial_eta",
                 "virtual_spectrum"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted({*_EXPORTS, *_MODULE_OF})


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
