import math
import os
from pathlib import Path

import numpy as np
import pytest

from freebdry import domains
from freebdry.geometry import rasterize
from freebdry.rearrange import ScalarField

# interpreters the tests start (``python -m freebdry.cli``) import the same
# checkout as the tests themselves
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def cone(X, Y):
    return np.clip(1.0 - np.hypot(X, Y), 0.0, None)


def paraboloid(X, Y):
    return np.clip(1.0 - (X * X + Y * Y), 0.0, None)


@pytest.fixture(scope="session")
def half_disk_domain():
    return domains.half_disk()


@pytest.fixture(scope="session")
def disk_domain():
    return domains.disk()


@pytest.fixture(scope="session")
def square_domain():
    return domains.unit_square()


@pytest.fixture(scope="session")
def square_free_bottom():
    return domains.unit_square(free_bottom=True)


@pytest.fixture(scope="session")
def half_disk_grid_128(half_disk_domain):
    return rasterize(half_disk_domain, 1.0 / 128)


@pytest.fixture(scope="session")
def disk_cone_128(disk_domain):
    return ScalarField.from_function(disk_domain, 1.0 / 128, cone)


@pytest.fixture(scope="session")
def disk_paraboloid_128(disk_domain):
    return ScalarField.from_function(disk_domain, 1.0 / 128, paraboloid)


@pytest.fixture(scope="session")
def half_disk_cone_128(half_disk_grid_128):
    return ScalarField.on_grid(half_disk_grid_128, cone)
