from functools import lru_cache

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from polygal import (Ball, DegenerateBody, HalfspacePolytope, MinkowskiSum,
                     PointHull, Scaled, UnboundedBody,
                     compile_cone, estimate_delta, estimate_kappa,
                     hausdorff_body_vs_polytope, project_coords,
                     project_interior, realize, spherical_grid_normals,
                     support)
from polygal.coordinates import classification_band
from polygal.spheres import circle_directions

from conftest import (body_from_realization, random_point_hull,
                      regular_normals, transformed_grid)


def test_support_examples():
    ball = Ball([0, 0], 1.0)
    assert support(ball, [1, 0]) == pytest.approx(1.0)
    hull = PointHull([[1, 0], [0, 1]])
    assert support(hull, [1, 0]) == pytest.approx(1.0)
    summed = MinkowskiSum((ball, PointHull([[2, 0]])))
    assert support(summed, [0, 1]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        support(ball, [1, 1])


def test_body_norms():
    assert Ball([1, 0], 1.0).norm() == pytest.approx(2.0)
    assert PointHull([[1, 1], [1, -1], [-1, 1], [-1, -1]]).norm() == \
        pytest.approx(np.sqrt(2))
    assert MinkowskiSum((Ball([0, 0], 1.0), Ball([0, 0], 1.0))).norm() == \
        pytest.approx(2.0)
    assert Scaled(3.0, Ball([0, 0], 1.0)).norm() == pytest.approx(3.0)


def test_halfspace_body(square_ns):
    body = HalfspacePolytope(square_ns.matrix, np.ones(4))
    assert support(body, [1, 0]) == pytest.approx(1.0, abs=1e-9)
    assert body.norm() == pytest.approx(np.sqrt(2), abs=1e-9)
    open_strip = HalfspacePolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                   np.ones(2))
    # A body is compact, so an unbounded description is refused in every
    # direction, including those in which its support is finite.
    for u in ([0, 1], [1, 0]):
        with pytest.raises(UnboundedBody):
            support(open_strip, u)
    with pytest.raises(UnboundedBody):
        open_strip.norm()
    with pytest.raises(ValueError):
        HalfspacePolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                          np.array([1.0, -2.0]))


def test_projection_examples(hexagon_ns, hexagon_cone):
    assert project_coords(Ball([0, 0], 1.0), hexagon_ns).coords.b == \
        pytest.approx(np.ones(6))
    assert project_coords(PointHull([[0, 0]]), hexagon_ns).coords.b == \
        pytest.approx(np.zeros(6), abs=1e-12)
    corners = PointHull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    b = project_coords(corners, hexagon_ns).coords.b
    assert b[0] == pytest.approx(1.0)
    assert b[1] == pytest.approx((1 + np.sqrt(3)) / 2)
    cv = project_coords(corners, hexagon_cone).coords
    assert cv.classification in ("interior", "boundary")


def test_projection_never_exterior_random(hexagon_cone):
    rng = np.random.default_rng(12)
    for _ in range(50):
        hull = random_point_hull(rng)
        cv = project_coords(hull, hexagon_cone).coords
        assert cv.classification in ("interior", "boundary")


def test_interior_shift(square_cone, hexagon_cone):
    ball = Ball([0, 0], 1.0)
    res = project_interior(ball, hexagon_cone, 0.1)
    assert res.coords.b == pytest.approx(np.ones(6))
    assert res.coords.classification == "interior"

    seg = PointHull([[1, 0], [-1, 0]])
    res = project_interior(seg, square_cone, 0.5)
    assert res.coords.b == pytest.approx([1.0, 0.5, 1.0, 0.5])
    assert res.coords.classification == "interior"

    with pytest.raises(DegenerateBody):
        project_interior(PointHull([[0, 0]]), square_cone, 0.2)


def test_interior_shift_distance_bound(hexagon_cone):
    rng = np.random.default_rng(13)
    for lam in (0.01, 0.1, 0.5):
        for _ in range(20):
            hull = random_point_hull(rng)
            plain = project_coords(hull, hexagon_cone).coords.b
            shifted = project_interior(hull, hexagon_cone, lam).coords.b
            assert np.abs(shifted - plain).max() <= 2 * lam * hull.norm() + 1e-9


def test_hausdorff_intervals(square_cone, hexagon_cone):
    ball = Ball([0, 0], 1.0)
    square = realize(np.ones(4), square_cone)
    lo, up = hausdorff_body_vs_polytope(ball, square, 720)
    assert lo <= np.sqrt(2) - 1 <= up
    assert up - lo <= 0.02
    hexa = realize(np.ones(6), hexagon_cone)
    lo, up = hausdorff_body_vs_polytope(ball, hexa, 720)
    assert lo <= 2 / np.sqrt(3) - 1 <= up

    same = body_from_realization(square)
    lo, up = hausdorff_body_vs_polytope(same, square, 360)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert up <= 2 * same.norm() * (2 * np.sin(np.pi / 720)) + 1e-12


def test_projector_inclusion_sampled(hexagon_cone):
    rng = np.random.default_rng(14)
    dirs = circle_directions(360)
    for _ in range(25):
        hull = random_point_hull(rng)
        real = project_coords(hull, hexagon_cone, with_realization=True).realization
        sigma_body = hull.support_many(dirs)
        sigma_poly = (dirs @ real.vertices.T).max(axis=1)
        assert (sigma_poly - sigma_body).min() >= -1e-9


def test_projector_monotone_on_nested_balls(hexagon_ns):
    inner = project_coords(Ball([0.1, -0.2], 0.5), hexagon_ns).coords.b
    outer = project_coords(Ball([0.1, -0.2], 1.5), hexagon_ns).coords.b
    assert (inner <= outer + 1e-12).all()


def test_projector_lipschitz_on_known_pairs(hexagon_ns):
    rng = np.random.default_rng(15)
    for _ in range(20):
        c = rng.normal(size=2)
        shift = rng.normal(size=2)
        r1, r2 = rng.uniform(0.2, 1.5, size=2)
        b1 = project_coords(Ball(c, r1), hexagon_ns).coords.b
        b2 = project_coords(Ball(c + shift, r2), hexagon_ns).coords.b
        dist = np.linalg.norm(shift) + abs(r1 - r2)
        assert np.abs(b1 - b2).max() <= dist + 1e-9


def test_projector_idempotent(hexagon_cone):
    rng = np.random.default_rng(16)
    for _ in range(20):
        hull = random_point_hull(rng)
        b = project_coords(hull, hexagon_cone).coords.b
        real = realize(b, hexagon_cone)
        again = project_coords(body_from_realization(real), hexagon_cone).coords.b
        assert np.abs(again - b).max() <= 1e-9


@lru_cache(maxsize=8)
def _cone(d, level, transform="identity", seed=0):
    if d == 3:
        return compile_cone(spherical_grid_normals(3, level))
    return compile_cone(transformed_grid(level, transform, seed))


@st.composite
def cones(draw):
    """Planar grid cones of levels 2 to 4 under a transform, or the d = 3
    grid cone of level 2."""
    if draw(st.integers(0, 3)) == 0:
        return _cone(3, 2)
    return _cone(2, draw(st.integers(2, 4)),
                 draw(st.sampled_from(["identity", "rotation", "reflection",
                                       "permutation"])),
                 draw(st.integers(0, 2)))


@settings(max_examples=40, deadline=None)
@given(cones(), st.integers(0, 2**32 - 1))
def test_projector_monotone_on_nested_hulls(cone, seed):
    # K is the hull of convex combinations of L's points, so K lies in L.
    rng = np.random.default_rng(seed)
    d = cone.normal_system.dimension
    outer = random_point_hull(rng, d=d)
    weights = rng.dirichlet(np.ones(outer.points.shape[0]),
                            size=int(rng.integers(1, 6)))
    inner = PointHull(weights @ outer.points)
    small = project_coords(inner, cone).coords.b
    large = project_coords(outer, cone).coords.b
    assert (small <= large + 1e-12 * (1.0 + np.abs(large).max())).all()


@settings(max_examples=40, deadline=None)
@given(cones(), st.integers(0, 2**32 - 1))
def test_projector_idempotent_on_admissible_coordinates(cone, seed):
    # Support values of a hull are admissible; projecting their polytope
    # gives them back to the classification band.
    rng = np.random.default_rng(seed)
    hull = random_point_hull(rng, d=cone.normal_system.dimension)
    b = project_coords(hull, cone).coords.b
    again = project_coords(body_from_realization(realize(b, cone)),
                           cone).coords.b
    assert np.abs(again - b).max() <= classification_band(b)


def test_projection_error_bounds():
    ns = regular_normals(32)
    cone = compile_cone(ns)
    delta = estimate_delta(ns)
    kappa = estimate_kappa(ns)
    assert delta == pytest.approx(2 * np.sin(np.pi / 64), abs=1e-12)
    rng = np.random.default_rng(18)
    for _ in range(20):
        hull = random_point_hull(rng)
        real = project_coords(hull, cone, with_realization=True).realization
        _, upper = hausdorff_body_vs_polytope(hull, real, 5760)
        size = hull.norm()
        assert upper <= kappa * size + 1e-6
        assert upper <= (2 - delta) / (1 - delta) * delta * size + 1e-6
