"""Discrete wave-front sets of sampled signals.

Computes cone-restricted Fourier-Lebesgue and Gabor-coefficient seminorm
series over frequency lattices, classifies their growth, and reports
wave-front membership verdicts; includes the continuous quadrature oracle
and an equivalence harness for cross-checking the two discrete definitions.
"""

from .errors import (
    BudgetExceeded,
    DegenerateBoxes,
    DomainClipped,
    EpsilonTooLarge,
    FrequencyOutOfRange,
    InadmissibleParameters,
    MicrolocError,
    NotFitted,
    SingularBasis,
    TooFewShells,
)
from .estimator import WavefrontDetector
from .gabor import (
    CoefficientTable,
    GaborSystem,
    build_agp,
    check_partition,
    coefficients,
    discrete_mod_norm,
    reconstruct,
    support_index_set,
)
from .geometry import Cone, Weight
from .lattice import (
    Lattice,
    LatticeBall,
    LatticePair,
    Parallelepiped,
    classify_pair,
    make_lattice,
    parallelepiped_containing,
    points_in_ball,
    scaled_integer_lattice,
)
from .seminorm import (
    ConeSumSeries,
    Verdict,
    classify,
    discrete_mod_series,
)
from .signal import (
    BumpWindow,
    GridSignal,
    fourier_at,
    fourier_batch,
    load_signal,
    make_cutoff,
    multiply,
    save_signal,
    smooth_bump_window,
)
from .wavefront import (
    EquivalenceReport,
    ScanConfig,
    WavefrontEstimate,
    WavefrontQuery,
    WavefrontRecord,
    aperture_sweep,
    check_equivalence,
    df_fl_point,
    df_mod_point,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "BumpWindow",
    "CoefficientTable",
    "Cone",
    "ConeSumSeries",
    "DegenerateBoxes",
    "DomainClipped",
    "EpsilonTooLarge",
    "EquivalenceReport",
    "FrequencyOutOfRange",
    "GaborSystem",
    "GridSignal",
    "InadmissibleParameters",
    "Lattice",
    "LatticeBall",
    "LatticePair",
    "MicrolocError",
    "NotFitted",
    "Parallelepiped",
    "ScanConfig",
    "SingularBasis",
    "TooFewShells",
    "Verdict",
    "WavefrontDetector",
    "WavefrontEstimate",
    "WavefrontQuery",
    "WavefrontRecord",
    "Weight",
    "aperture_sweep",
    "build_agp",
    "check_equivalence",
    "check_partition",
    "classify",
    "classify_pair",
    "coefficients",
    "df_fl_point",
    "df_mod_point",
    "discrete_mod_norm",
    "discrete_mod_series",
    "fourier_at",
    "fourier_batch",
    "load_signal",
    "make_cutoff",
    "make_lattice",
    "multiply",
    "parallelepiped_containing",
    "points_in_ball",
    "reconstruct",
    "save_signal",
    "scaled_integer_lattice",
    "scan",
    "smooth_bump_window",
    "support_index_set",
]
