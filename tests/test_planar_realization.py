"""The d = 2 realization fast path against the line-clipping generic path
and the exhaustive vertex oracle, and the closed forms L = Lam b, area
b . Lam b / 2 and perimeter w . b against the realized geometry.

The fast path must return exactly what the generic path and the oracle
return, bit for bit, whenever it is taken.  It must decline boundary
coordinates and every input where the tolerances make the generic path
return something other than the N consecutive intersections.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polygal import (canonicalize, compile_cone, perimeter_2d, polygon_area,
                     realize, spherical_grid_normals, validate_normals)
from polygal.coordinates import (_realize_generic, _realize_planar,
                                 facet_lengths_2d)
from polygal.normals import planar_forms

from conftest import (TRANSFORMS, assert_realization_matches_oracle,
                      exhaustive_vertices, regular_normals, transformed_grid)


@st.composite
def interior_problems(draw):
    """A planar grid system and strictly interior coordinates for it: the
    support values of a disc, each raised by under half the amount that
    would shrink a facet of the regular polygon to a point."""
    level = draw(st.integers(2, 5))
    transform = draw(st.sampled_from(TRANSFORMS))
    ns = transformed_grid(level, transform, draw(st.integers(0, 2**32 - 1)))
    n = ns.count
    center = np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))])
    radius = draw(st.floats(0.1, 10.0))
    rise = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    headroom = 1.0 / np.cos(2.0 * np.pi / n) - 1.0
    b = ns.matrix @ center + radius * (1.0 + 0.5 * headroom * np.array(rise))
    return ns, b


def loop_facet_lengths(real):
    """Reference facet lengths by a loop over the facets: the spread of
    each facet's vertices along its tangent."""
    A = real.normals.matrix
    lengths = np.zeros(real.normals.count)
    for k, idx in enumerate(real.facet_vertices):
        if len(idx) > 1:
            proj = real.vertices[list(idx)] @ np.array([-A[k, 1], A[k, 0]])
            lengths[k] = proj.max() - proj.min()
    return lengths


def assert_lengths_match_loop(real):
    scale = 1.0 + np.abs(real.vertices).max()
    assert np.abs(facet_lengths_2d(real) - loop_facet_lengths(real)).max() \
        <= 1e-12 * scale


def assert_same_realization(fast, generic):
    assert np.array_equal(fast.vertices, generic.vertices)
    assert fast.active_sets == generic.active_sets
    assert fast.facet_vertices == generic.facet_vertices


@settings(max_examples=80, deadline=None)
@given(interior_problems())
def test_planar_path_equals_generic_enumeration(problem):
    ns, b = problem
    fast = _realize_planar(ns, b)
    assert fast is not None
    generic = _realize_generic(ns, b)
    assert_same_realization(fast, generic)
    assert_realization_matches_oracle(fast, bitwise=True)
    assert np.array_equal(facet_lengths_2d(fast), facet_lengths_2d(generic))
    assert_lengths_match_loop(fast)


@settings(max_examples=80, deadline=None)
@given(interior_problems())
def test_closed_forms_match_realized_geometry(problem):
    ns, b = problem
    real = _realize_planar(ns, b)
    assert real is not None
    lam, w = planar_forms(ns)
    tol = 1e-12 * (1.0 + np.abs(b).max()) ** 2
    assert np.abs(lam @ b - facet_lengths_2d(real)).max() <= tol
    assert abs(0.5 * b @ lam @ b - polygon_area(real)) <= tol
    assert abs(w @ b - perimeter_2d(real)) <= tol


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_closed_forms_are_bitwise_invariant_under_axis_reflections(level):
    ns = spherical_grid_normals(2, level)
    lam, w = planar_forms(ns)
    for signs in ([-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]):
        lam_r, w_r = planar_forms(validate_normals(ns.matrix * signs))
        assert lam_r.tobytes() == lam.tobytes()
        assert w_r.tobytes() == w.tobytes()


def declined(ns, b, cone):
    assert _realize_planar(ns, b) is None
    real = realize(b, cone)
    generic = _realize_generic(ns, b)
    assert_same_realization(real, generic)
    assert np.array_equal(facet_lengths_2d(real), facet_lengths_2d(generic))
    assert_lengths_match_loop(real)
    return real


def test_zero_length_edge_falls_back():
    ns = regular_normals(16, offset=0.3)
    cone = compile_cone(ns)
    rng = np.random.default_rng(5)
    b = ns.matrix @ np.array([0.1, -0.2]) + 1.0
    canon = canonicalize(b + rng.uniform(0.0, 0.5, ns.count), ns).b
    real = declined(ns, canon, cone)
    assert max(len(act) for act in real.active_sets) > 2


def test_short_facet_apex_falls_back():
    # Facet 0 is 4e-7 long on a polygon of inradius 100: every consecutive
    # vertex has exactly its two rows active, yet the apex of lines 15 and 1
    # lies within the feasibility slack of line 0, so the exhaustive oracle
    # reports it as a seventeenth vertex.  Line clipping stops both lines at
    # row 0 and never solves the apex.  Only the slack certificate on the
    # non-incident rows declines the input.
    n, r, length = 16, 100.0, 4e-7
    ns = regular_normals(n, offset=0.2)
    gap = 2.0 * np.pi / n
    b = np.full(n, r)
    b[0] += ((2.0 * r * (1.0 - np.cos(gap)) - length * np.sin(gap))
             / (2.0 * np.cos(gap)))
    real = declined(ns, b, compile_cone(ns))
    assert real.vertex_count == n
    assert all(len(act) == 2 for act in real.active_sets)
    _, active_sets = exhaustive_vertices(ns.matrix, b)
    assert [act for act in active_sets if len(act) != 2] == [(0, 1, 15)]


def test_far_polygon_with_rounded_activity_falls_back():
    # Row 2 is perpendicular to the offset, so b_2 stays near 1 and its
    # slack near 2e-9, while the vertices sit 1e8 from the origin: the
    # rounding of a_2 . v exceeds that slack and the enumeration finds
    # row 2 inactive at a vertex on line 2.
    ns = regular_normals(6, offset=0.3)
    a = ns.matrix[2]
    b = ns.matrix @ (1e8 * np.array([-a[1], a[0]])) + 1.0
    real = declined(ns, b, compile_cone(ns))
    assert min(len(act) for act in real.active_sets) == 1


def test_tiny_polygon_merged_by_enumeration_falls_back(square_ns,
                                                       square_cone):
    # A square of side 8e-9: its corners lie within the merge radius of one
    # another, so the enumeration reports one vertex.
    real = declined(square_ns, np.full(4, 4e-9), square_cone)
    assert real.vertex_count == 1


def test_nearly_parallel_neighbours_fall_back():
    # Two consecutive normals 1e-6 apart: |det| is below the floor under
    # which the certificate no longer covers the rounding.
    angles = np.array([0.0, 1e-6, 2.0, 4.0])
    ns = validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))
    declined(ns, np.ones(4), compile_cone(ns))


def test_square_segment_falls_back(square_ns, square_cone):
    real = declined(square_ns, np.array([1.0, 1.0, -1.0, 1.0]), square_cone)
    assert real.vertex_count == 2


def test_single_point_falls_back(hexagon_ns, hexagon_cone):
    b = hexagon_ns.matrix @ np.array([0.3, -0.7])
    real = declined(hexagon_ns, b, hexagon_cone)
    assert real.vertex_count == 1
    assert real.active_sets == (tuple(range(6)),)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_small_regular_polygons_take_the_planar_path(n):
    ns = regular_normals(n, offset=0.1)
    b = np.full(n, 1.5)
    fast = _realize_planar(ns, b)
    assert fast is not None
    assert_same_realization(fast, _realize_generic(ns, b))


@st.composite
def boundary_and_loose_problems(draw):
    """A planar grid system and the support values of a hull of 1 to 6
    points, canonical (on the boundary of the cone) or loosened past it."""
    level = draw(st.integers(2, 5))
    ns = transformed_grid(level, draw(st.sampled_from(TRANSFORMS)),
                          draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 7)), 2))
    b = (ns.matrix @ points.T).max(axis=1)
    if draw(st.booleans()):
        b = b + rng.uniform(0.0, draw(st.sampled_from([0.5, 2.0])), ns.count)
    return ns, b


@settings(max_examples=60, deadline=None)
@given(boundary_and_loose_problems())
def test_generic_path_matches_the_oracle_on_boundary_and_loose_coordinates(
        problem):
    ns, b = problem
    assert_realization_matches_oracle(_realize_generic(ns, b))
