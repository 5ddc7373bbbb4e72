import pathlib

import numpy as np
import pytest

from refractor import load_scene
from refractor.geometry import build_quadrature
from refractor.solver import solve_refractor

REPO = pathlib.Path(__file__).resolve().parents[1]
SCENES = REPO / "scenes"


@pytest.fixture(scope="session")
def canonical_scene():
    return load_scene(SCENES / "canonical.json")


@pytest.fixture(scope="session")
def single_scene():
    return load_scene(SCENES / "single.json")


@pytest.fixture(scope="session")
def mirror_scene():
    return load_scene(SCENES / "mirror_pair.json")


@pytest.fixture(scope="session")
def grid64(canonical_scene):
    return build_quadrature(canonical_scene.cap, 64, 64)


@pytest.fixture(scope="session")
def grid256(canonical_scene):
    return build_quadrature(canonical_scene.cap, 256, 256)


@pytest.fixture(scope="session")
def solution256(canonical_scene, grid256):
    """In-process 256x256 solve at the default tolerance."""
    return solve_refractor(canonical_scene, grid256)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture(scope="session")
def edge_values():
    """Float64 values a text writer must keep apart byte for byte: both zeros,
    both infinities, NaNs of either sign and with a payload, subnormals, and
    ordinary values with long reprs."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123],
                    dtype=np.uint64).view(np.float64)
    plain = [0.0, -0.0, np.inf, -np.inf, 5e-324, 1e-310, 0.1, 1.0 / 3.0, -2.5e-17, 1e300]
    return np.concatenate((plain, nans))


@pytest.fixture(scope="session")
def edge_column(edge_values):
    """make(rng, n): n >= 2 draws from edge_values at scattered positions, with
    -0.0 right after 0.0."""
    def make(rng, n):
        col = edge_values[rng.integers(0, len(edge_values), n)]
        col[:2] = (0.0, -0.0)
        return col
    return make
