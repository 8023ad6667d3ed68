"""Exception types shared across the package."""


class MicrolocError(Exception):
    """Base class for all package-specific errors."""


class SingularBasis(MicrolocError):
    """Lattice basis vectors are linearly dependent (or numerically so)."""


class BudgetExceeded(MicrolocError):
    """An enumeration exceeded its configured candidate budget."""


class FrequencyOutOfRange(MicrolocError):
    """Requested frequency exceeds the grid's safe anti-alias band."""


class DegenerateBoxes(MicrolocError):
    """Cutoff construction requires the inner box strictly inside the outer."""


class InadmissibleParameters(MicrolocError):
    """Gabor lattice parameters must satisfy alpha * beta < 2*pi."""


class TooFewShells(MicrolocError):
    """Series classification needs at least four usable shells."""


class DomainClipped(MicrolocError):
    """No admissible cutoff fits inside the cell/domain intersection."""


class EpsilonTooLarge(MicrolocError):
    """Window supports around the query point stick out of the domain."""


class NotFitted(MicrolocError):
    """Estimator method called before fit()."""
