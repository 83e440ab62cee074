import types

import bentkit

# The public API, sorted.  A change here is a change to the API: record it
# in CHANGES.md.
EXPORTS = [
    "CensusReport",
    "CharSumReport",
    "DEFAULT_POLYS",
    "DistributionRow",
    "Duality",
    "DualityClass",
    "GF2k",
    "LINE_INFINITY",
    "MetricIdentity",
    "NotBentError",
    "ReduciblePolynomialError",
    "SingularMatrixError",
    "SpreadLine",
    "SpreadSelection",
    "SymmetricRecord",
    "TruthTable",
    "WalshSpectrum",
    "affine_transform",
    "anti_selfdual_check",
    "balanced_g_functions",
    "census",
    "desarguesian",
    "dist_formula_general",
    "dist_formula_ps_minus",
    "dist_formula_ps_plus",
    "dist_to_dual",
    "distribution_table",
    "dual",
    "duality_class",
    "hamming_dist",
    "intersection_index",
    "is_bent",
    "is_orthogonal",
    "is_selfdual_selection",
    "kloosterman_sum",
    "line_dual",
    "line_points",
    "metric_identity_check",
    "mm_bent",
    "mm_dual",
    "nf_formula",
    "nonlinearity",
    "ps_general",
    "ps_minus",
    "ps_plus",
    "psap_from_g",
    "rayleigh",
    "rayleigh_quotient",
    "rayleigh_vs_charsum",
    "run_verification_suite",
    "selection",
    "selection_from_g",
    "selfdual_counts",
    "subspace_indicator",
    "subspace_span",
    "symmetric_bent",
    "symmetric_report",
    "symmetric_value_pattern",
    "wht",
]


def test_all_is_every_public_name_the_package_binds():
    names = bentkit.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(bentkit, name) for name in names)
    # submodules are bound too (by the package's own imports and by any
    # `import bentkit.x`), but are not exports
    public = {
        name for name, value in vars(bentkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


def test_all_is_the_pinned_export_list():
    assert sorted(bentkit.__all__) == EXPORTS == sorted(EXPORTS)
