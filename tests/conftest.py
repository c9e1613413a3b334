import numpy as np
import pytest

from cyclic6j.algebra import AlgebraError, RootData
from cyclic6j.fixtures import boundary4simplex_scene
from cyclic6j.triangulation import (
    Scene, TopologyError, bubble_plus, pachner_plus,
)


@pytest.fixture(scope="session")
def root3() -> RootData:
    return RootData(3)


@pytest.fixture(scope="session")
def root5() -> RootData:
    return RootData(5)


@pytest.fixture(scope="session")
def fixture_scene():
    return boundary4simplex_scene()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)


def _grow(scene: Scene, n_tets: int, seed: int) -> Scene:
    """Seeded pachner+/bubble+ moves at random cells up to ``n_tets``."""
    rng = np.random.default_rng(seed)
    for _ in range(10_000):
        if scene.complex.n_tets >= n_tets:
            return scene
        move = pachner_plus if rng.random() < 0.5 else bubble_plus
        t = int(rng.integers(scene.complex.n_tets))
        try:
            scene = move(scene, t, int(rng.integers(4)))
        except (TopologyError, AlgebraError):
            continue
    raise AssertionError(f"walk did not reach {n_tets} tetrahedra")


@pytest.fixture(scope="session")
def grown_s3(fixture_scene):
    """``grown_s3(n)``: the fixture grown to at least n tetrahedra by the
    walk seeded with n, built once per size."""
    cache: dict[int, Scene] = {}

    def grow(n_tets: int) -> Scene:
        if n_tets not in cache:
            cache[n_tets] = _grow(fixture_scene, n_tets, seed=n_tets)
        return cache[n_tets]
    return grow
