import numpy as np
import pytest

from polygal import compile_cone, spherical_grid_normals, validate_normals


def regular_normals(n, offset=0.0):
    """n equally spaced unit normals in the plane."""
    angles = offset + 2.0 * np.pi * np.arange(n) / n
    return validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))


TRANSFORMS = ("identity", "rotation", "reflection", "permutation")


def transformed_grid(level, transform, seed):
    """The planar grid normals of `level` under one of TRANSFORMS."""
    ns = spherical_grid_normals(2, level)
    rng = np.random.default_rng(seed)
    m = ns.matrix
    if transform == "rotation":
        theta = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        m = np.column_stack([c * m[:, 0] - s * m[:, 1],
                             s * m[:, 0] + c * m[:, 1]])
    elif transform == "reflection":
        # Negating x turns increasing angles into decreasing ones.
        m = m * np.array([-1.0, 1.0])
    elif transform == "permutation":
        m = m[rng.permutation(m.shape[0])]
    return validate_normals(m)


@pytest.fixture(scope="session")
def square_ns():
    return regular_normals(4)


@pytest.fixture(scope="session")
def hexagon_ns():
    return regular_normals(6)


@pytest.fixture(scope="session")
def octagon_ns():
    return regular_normals(8)


@pytest.fixture(scope="session")
def square_cone(square_ns):
    return compile_cone(square_ns)


@pytest.fixture(scope="session")
def hexagon_cone(hexagon_ns):
    return compile_cone(hexagon_ns)


@pytest.fixture(scope="session")
def octagon_cone(octagon_ns):
    return compile_cone(octagon_ns)


def random_point_hull(rng, max_points=10, radius=1.0, d=2):
    from polygal import PointHull
    count = int(rng.integers(1, max_points + 1))
    points = rng.normal(size=(count, d))
    norms = np.linalg.norm(points, axis=1)
    scale = radius * rng.uniform(0.05, 1.0, size=count) / np.maximum(norms, 1e-12)
    return PointHull(points * scale[:, None])
