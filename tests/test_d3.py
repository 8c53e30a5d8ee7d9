from functools import lru_cache

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from polygal import (Ball, PointHull, canonicalize, check_bounded, classify,
                     compile_cone, estimate_delta, estimate_kappa,
                     hausdorff_body_vs_polytope, hausdorff_polytopes,
                     polytope_volume, project_coords, prune_redundant, realize,
                     spherical_grid_normals, support_coordinates,
                     validate_normals)
from polygal.cone import DIAMOND_TARGET, touching_rows
from polygal.coordinates import facet_area_jacobian, facet_measures

from conftest import assert_realization_matches_oracle, rotated_grid_3d


@pytest.fixture(scope="module")
def cube_cone():
    axes = np.vstack([np.eye(3), -np.eye(3)])
    return compile_cone(validate_normals(axes))


@pytest.fixture(scope="module")
def grid_cone():
    return compile_cone(spherical_grid_normals(3, 2))


def test_cube_realization(cube_cone):
    real = realize(np.ones(6), cube_cone)
    assert real.vertex_count == 8
    assert polytope_volume(real) == pytest.approx(8.0, abs=1e-9)
    assert support_coordinates(real) == pytest.approx(np.ones(6), abs=1e-12)
    double = realize(2 * np.ones(6), cube_cone)
    assert hausdorff_polytopes(real, double) == pytest.approx(np.sqrt(3),
                                                              abs=1e-9)


def test_cube_cone_structure(cube_cone):
    # Three antipodal axis pairs span the nonemptiness conditions; no
    # touching conditions exist for orthogonal normals.
    assert cube_cone.diamond_count == 3
    assert cube_cone.touching_count == 0


def test_grid_ball_projection(grid_cone):
    ball = Ball([0, 0, 0], 1.0)
    res = project_coords(ball, grid_cone, with_realization=True)
    assert res.coords.classification == "interior"
    assert res.coords.b == pytest.approx(np.ones(26))
    volume = polytope_volume(res.realization)
    assert volume > 4.0 * np.pi / 3.0
    lower, upper = hausdorff_body_vs_polytope(ball, res.realization, 2000)
    assert 0 < lower <= upper
    # Circumscribed polytope: the support gap equals the outward bulge.
    assert upper < 0.5


def test_grid_prune_keeps_membership(grid_cone):
    pruned = prune_redundant(grid_cone)
    assert 0 < pruned.pruned_count < pruned.touching_count
    rng = np.random.default_rng(31)
    full = grid_cone.matrix()
    kept = pruned.matrix()
    for _ in range(200):
        b = rng.uniform(-1, 2, size=26)
        tol = 1e-9
        assert ((full.T @ b).min() >= -tol) == ((kept.T @ b).min() >= -tol)


def test_grid_constants():
    g = spherical_grid_normals(3, 2)
    delta = estimate_delta(g, samples=10_000)
    # Ring spacing pi/4 gives a chord of ~0.39 inside a ring; the estimate
    # sits above it and stays well below the trivial bound 2.
    assert 0.3 < delta < 1.0
    kappa = estimate_kappa(g, samples=10_000)
    assert 0.0 < kappa < 1.0


def test_point_hull_projection_round_trip(grid_cone):
    rng = np.random.default_rng(33)
    pts = rng.normal(size=(6, 3))
    pts /= 2 * np.abs(pts).max()
    hull = PointHull(pts)
    res = project_coords(hull, grid_cone, with_realization=True)
    assert res.coords.classification in ("interior", "boundary")
    b = support_coordinates(res.realization)
    assert b == pytest.approx(res.coords.b, abs=1e-9)


def test_facet_area_jacobian_matches_central_differences(grid_cone):
    rng = np.random.default_rng(37)
    h = 1e-6
    for _ in range(3):
        b = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, 26)
        assert classify(b, grid_cone).classification == "interior"
        jac = facet_area_jacobian(realize(b, grid_cone))
        for j in range(26):
            probe = b.copy()
            probe[j] += h
            up = facet_measures(realize(probe, grid_cone))
            probe[j] -= 2 * h
            dn = facet_measures(realize(probe, grid_cone))
            assert np.abs(jac[:, j] - (up - dn) / (2 * h)).max() <= 1e-7
        assert (jac == jac.T).all()


@lru_cache(maxsize=4)
def rotated_grid_cone(seed):
    return compile_cone(rotated_grid_3d(2, seed))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([0.01, 0.05, 0.1]))
def test_facet_areas_are_half_the_jacobian_times_b(seed, draw, spread):
    # F is homogeneous of degree 2 in b, so F = J b / 2 (Euler) wherever
    # J is the derivative: at interior b, the only b the barrier visits.
    cone = rotated_grid_cone(seed)
    b = 1.0 + spread * np.random.default_rng(draw).uniform(-1.0, 1.0, 26)
    assume(classify(b, cone).classification == "interior")
    real = realize(b, cone)
    areas = facet_measures(real)
    assert np.abs(0.5 * facet_area_jacobian(real) @ b - areas).max() \
        <= 1e-12 * areas.max()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_realization_matches_the_oracle_on_rotated_grids(seed):
    # Support values of a random hull (degenerate vertices, boundary of the
    # cone) and canonical coordinates near the unit ball.
    ns = rotated_grid_3d(2, seed)
    cone = compile_cone(ns)
    rng = np.random.default_rng(seed)
    hull = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 7)), 3))
    ball = 1.0 + 0.02 * rng.uniform(size=ns.count)
    for b in ((ns.matrix @ hull.T).max(axis=1), canonicalize(ball, ns).b):
        assert_realization_matches_oracle(realize(b, cone))


def test_polar_grid_realization_reports_each_vertex_once(grid_cone):
    assert realize(np.ones(26), grid_cone).vertex_count == 32


def bounded_random_system(seed):
    """8 to 14 seeded random unit normals in R^3 that span polytopes."""
    rng = np.random.default_rng(seed)
    while True:
        ns = validate_normals(rng.normal(size=(int(rng.integers(8, 15)), 3)))
        if check_bounded(ns):
            return ns


@pytest.mark.parametrize("kind", ["rotated_grid", "random"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_touching_rows_are_the_pruned_touching_columns(kind, seed):
    def make():
        return (rotated_grid_3d(2, seed) if kind == "rotated_grid"
                else bounded_random_system(seed))
    rows, covered = touching_rows(make())
    # A fresh system: the compile must not read the rows' cache.
    ns = make()
    cone = prune_redundant(compile_cone(ns))
    targets = cone.target[cone.column_indices()]
    touching = cone.matrix()[:, targets != DIAMOND_TARGET].T
    assert rows.shape == touching.shape
    assert rows.tobytes() == touching.tobytes()
    assert covered == np.isin(np.arange(ns.count), targets).all()
