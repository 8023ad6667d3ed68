"""The public API is this literal list: a name joins or leaves `__all__`
only by editing it here, so every change to the surface is a reviewed diff."""

import microloc

PUBLIC = [
    "BudgetExceeded", "BumpWindow", "CoefficientTable", "Cone", "ConeSumSeries",
    "DegenerateBoxes", "DomainClipped", "EpsilonTooLarge", "EquivalenceReport",
    "FrequencyOutOfRange", "GaborSystem", "GridSignal", "InadmissibleParameters", "Lattice",
    "LatticeBall", "LatticePair", "MicrolocError", "NotFitted", "Parallelepiped",
    "ScanConfig", "SingularBasis", "TooFewShells", "Verdict", "WavefrontDetector",
    "WavefrontEstimate", "WavefrontQuery", "WavefrontRecord", "Weight", "aperture_sweep",
    "build_agp", "check_equivalence", "check_partition", "classify", "classify_pair",
    "coefficients", "df_fl_point", "df_mod_point", "discrete_mod_norm", "discrete_mod_series",
    "fourier_at", "fourier_batch", "load_signal", "make_cutoff", "make_lattice", "multiply",
    "parallelepiped_containing", "points_in_ball", "reconstruct", "save_signal",
    "scaled_integer_lattice", "scan", "smooth_bump_window", "support_index_set",
]


def test_public_names_are_pinned():
    assert sorted(microloc.__all__) == PUBLIC
    assert len(PUBLIC) == 53
    for name in PUBLIC:
        assert getattr(microloc, name) is not None
