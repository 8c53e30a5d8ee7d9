"""Deterministic unit-direction samplers with covering-radius information."""

from functools import lru_cache

import numpy as np


def circle_directions(m: int, offset: float = 0.0) -> np.ndarray:
    """m equally spaced unit directions in the plane."""
    angles = offset + 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([np.cos(angles), np.sin(angles)])


def circle_mesh(m: int) -> float:
    """Exact covering radius (chord) of the m-point angular grid."""
    return 2.0 * np.sin(np.pi / (2.0 * m))


def fibonacci_sphere(m: int) -> np.ndarray:
    """Golden-angle lattice on the 2-sphere, near-uniform for any m."""
    i = np.arange(m)
    z = 1.0 - (2.0 * i + 1.0) / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def sphere_mesh_estimate(points: np.ndarray, probe_factor: int = 4) -> float:
    """Covering radius of a sample set, estimated against a denser probe
    lattice.  An estimate, not a certificate."""
    m = points.shape[0]
    probes = fibonacci_sphere(probe_factor * m + 1)
    worst = 0.0
    chunk = max(1, 2_000_000 // max(m, 1))
    for start in range(0, probes.shape[0], chunk):
        block = probes[start:start + chunk]
        dots = np.clip(block @ points.T, -1.0, 1.0)
        nearest = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots.max(axis=1)))
        worst = max(worst, float(nearest.max()))
    return worst


@lru_cache(maxsize=8)
def fibonacci_mesh(m: int) -> float:
    """`sphere_mesh_estimate` of `fibonacci_sphere(m)`, cached per m."""
    return sphere_mesh_estimate(fibonacci_sphere(m))


def unit_directions(d: int, m: int) -> np.ndarray:
    if d == 2:
        return circle_directions(m)
    if d == 3:
        return fibonacci_sphere(m)
    raise ValueError("direction sampling implemented for d in {2, 3}")


def covering_mesh(d: int, m: int) -> float:
    """Covering radius of the sample `unit_directions(d, m)`; exact for the
    planar grid, probe-estimated on the sphere."""
    if d == 2:
        return circle_mesh(m)
    if d == 3:
        return fibonacci_mesh(m)
    raise ValueError("direction sampling implemented for d in {2, 3}")
