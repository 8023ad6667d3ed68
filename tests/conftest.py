import numpy as np
import pytest

from microloc import ScanConfig, scaled_integer_lattice
from microloc.fixtures import jump_1d, smooth_bump_1d
from microloc.lattice import LatticeBall
from microloc.seminorm import ShellGeometry


def whole_ball(lat, r_max):
    """The shell geometry of every point of lat with |xi| <= r_max, shells
    from 4 x its minimal spacing: the whole ball, which no verdict enumerates."""
    return ShellGeometry(LatticeBall.of(lat, r_max), 4 * lat.min_spacing)


@pytest.fixture(scope="session")
def jump():
    """Default-grid 1D jump fixture (shared; signals are immutable)."""
    return jump_1d()


@pytest.fixture(scope="session")
def bump():
    return smooth_bump_1d()


@pytest.fixture(scope="session")
def unit_pair():
    """Strongly admissible (Z - 1/2, Z) pair with cells centered on 0."""
    return ScanConfig(alpha=1.0, beta=1.0).lattice_pair(1)


@pytest.fixture(scope="session")
def z2():
    return scaled_integer_lattice(1.0, 2)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
