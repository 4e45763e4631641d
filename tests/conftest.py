import os

import numpy as np
import pytest
from hypothesis import settings

from semiwkb import RadialGrid, ball_data, smooth_ball_data

# HYPOTHESIS_PROFILE=ci prints the blob that reproduces a failing example;
# example counts and deadlines stay each test's own
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def ball():
    """Exact compatible unit-ball data (closed-form fields attached)."""
    return ball_data(grid=RadialGrid(40.0, 4096))


@pytest.fixture(scope="session")
def ball_zero_velocity():
    return ball_data(velocity="zero", grid=RadialGrid(40.0, 4096))


@pytest.fixture(scope="session")
def smooth():
    """Quadrature-built compatible mollified ball (real amplitude)."""
    return smooth_ball_data(grid=RadialGrid(40.0, 8192))


@pytest.fixture(scope="session")
def smooth_chirped():
    """Compatible mollified ball with a complex O(1) chirp on the amplitude."""
    return smooth_ball_data(chirp=1.0, grid=RadialGrid(40.0, 8192))


@pytest.fixture(scope="session")
def smooth_small():
    return smooth_ball_data(grid=RadialGrid(40.0, 2048))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
