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
