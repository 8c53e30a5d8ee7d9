import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polygal import (EmptyPolytope, ExteriorCoordinates, LinearProgram,
                     PointHull, UnboundedRegion, canonicalize, classify,
                     compile_cone, diagnose_boundary,
                     enumerate_primal_vertices, facet_dimension,
                     farkas_feasible, hausdorff_polytopes, perimeter_2d,
                     polygon_area, project_coords, project_interior, realize,
                     solve_lp, support_coordinates, validate_normals)
from polygal.coordinates import (_realize_admissible, facet_lengths_2d,
                                 phi_expansion_ratio)
from polygal.normals import planar_forms
from polygal.lp import OPTIMAL

from conftest import (TRANSFORMS, bounded_planar_systems, random_point_hull,
                      reference_hausdorff, regular_normals, rotated_grid_3d,
                      transformed_grid)


def interior_sample(rng, cone, radius=1.0):
    hull = random_point_hull(rng, radius=radius)
    lam = rng.uniform(0.1, 0.5)
    return project_interior(hull, cone, lam).coords.b


def test_classify_examples(square_cone, hexagon_cone):
    assert classify(np.ones(6), hexagon_cone).classification == "interior"
    cv = classify(np.array([1.0, 1.0, -1.0, 1.0]), square_cone)
    assert cv.classification == "boundary"
    active = [square_cone.vertex(i) for i in cv.active_columns]
    assert [v.support for v in active] == [(0, 2)]
    assert classify(np.array([1.0, 1.0, -2.0, 1.0]),
                    square_cone).classification == "exterior"


def test_canonicalize_examples(square_ns, hexagon_ns):
    cv = canonicalize(np.array([3.0, 1, 1, 1, 1, 1]), hexagon_ns)
    assert cv.b == pytest.approx([2, 1, 1, 1, 1, 1], abs=1e-9)
    assert canonicalize(np.ones(4), square_ns).b == pytest.approx(np.ones(4))
    # Row 0 participates in its own support problem, so a loose-but-attained
    # bound stays put.
    cv = canonicalize(np.array([5.0, 1, 1, 1]), square_ns)
    assert cv.b == pytest.approx([5, 1, 1, 1], abs=1e-9)
    with pytest.raises(EmptyPolytope):
        canonicalize(np.array([1.0, 1.0, -2.0, 1.0]), square_ns)


def test_canonical_minimality_random(hexagon_ns, hexagon_cone):
    rng = np.random.default_rng(2)
    for _ in range(25):
        b_tilde = rng.uniform(0.2, 2.0, size=6)
        cv = canonicalize(b_tilde, hexagon_ns)
        assert (cv.b <= b_tilde + 1e-9).all()
        assert classify(cv.b, hexagon_cone).classification != "exterior"


def lp_canonicalize(b_tilde, ns):
    """Reference canonicalization: a Farkas test, then one simplex LP per
    row, max{a_i . x : Ax <= b_tilde}."""
    b_tilde = np.asarray(b_tilde, dtype=float)
    if not farkas_feasible(ns.matrix, b_tilde)[0]:
        raise EmptyPolytope("right-hand side describes the empty set")
    b = np.empty(ns.count)
    for i in range(ns.count):
        outcome = solve_lp(LinearProgram(ns.matrix[i], ns.matrix, b_tilde))
        assert outcome.status == OPTIMAL
        b[i] = outcome.value
    return np.minimum(b, b_tilde)


@st.composite
def loose_coordinates(draw):
    """(ns, b_tilde): a bounded planar system (grid levels up to 5) or the
    d = 3 grid level 2 under a seeded rotation, with the support values of
    a seeded hull of 1 to 6 points loosened row by row by U[0, s]."""
    if draw(st.integers(0, 3)) == 0:
        ns = rotated_grid_3d(2, draw(st.integers(0, 2**32 - 1)))
    else:
        ns = draw(bounded_planar_systems(max_level=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 7)), ns.dimension))
    loosen = rng.uniform(0.0, draw(st.sampled_from([0.5, 2.0])), ns.count)
    return ns, (ns.matrix @ points.T).max(axis=1) + loosen


_CONES = {}


def cone_of(ns):
    """compile_cone, memoized on the matrix: the drawn grids repeat."""
    key = ns.matrix.tobytes()
    if key not in _CONES:
        _CONES[key] = compile_cone(ns)
    return _CONES[key]


@settings(max_examples=25, deadline=None)
@given(loose_coordinates())
def test_canonicalize_matches_lp_oracle(case):
    ns, b_tilde = case
    got = canonicalize(b_tilde, ns).b
    tol = 1e-12 * (1.0 + np.abs(b_tilde).max())
    assert np.abs(got - lp_canonicalize(b_tilde, ns)).max() <= tol


def test_canonicalize_on_empty_fan_and_strip(square_ns):
    empty = np.array([1.0, 1.0, -2.0, 1.0])
    with pytest.raises(EmptyPolytope):
        lp_canonicalize(empty, square_ns)
    with pytest.raises(EmptyPolytope):
        canonicalize(empty, square_ns)
    # The fan spans no polytopes, but its region has a vertex, which
    # attains every row's maximum.
    angles = np.array([0.0, np.pi / 6, np.pi / 3])
    fan = validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))
    b_tilde = np.array([1.0, 2.0, 1.0])
    got = canonicalize(b_tilde, fan).b
    assert np.abs(got - lp_canonicalize(b_tilde, fan)).max() <= 1e-12 * 3.0
    assert got[1] < b_tilde[1]
    # A strip has no vertex: its support values exist, but the region is
    # not a polytope.
    strip = validate_normals(np.array([[0.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(UnboundedRegion):
        canonicalize(np.ones(2), strip)


def test_canonicalize_matches_lp_oracle_on_d3_grid_level_3():
    # N = 114: the line clipping runs in several blocks.
    ns = rotated_grid_3d(3, 5)
    rng = np.random.default_rng(5)
    points = rng.uniform(-1.0, 1.0, (6, 3))
    b_tilde = (ns.matrix @ points.T).max(axis=1) + rng.uniform(0.0, 0.5, ns.count)
    got = canonicalize(b_tilde, ns).b
    tol = 1e-12 * (1.0 + np.abs(b_tilde).max())
    assert np.abs(got - lp_canonicalize(b_tilde, ns)).max() <= tol


def test_canonicalize_resolves_a_small_polytope():
    # A triangle of side 1e-7: merging its vertices would move support
    # values by about that much.
    ns = regular_normals(16, offset=0.1)
    points = np.array([0.3, -0.2]) + 1e-7 * np.array([[0.0, 0.0], [1.0, 0.0],
                                                      [0.0, 1.0]])
    b_tilde = (ns.matrix @ points.T).max(axis=1) + np.linspace(0.0, 1e-8, 16)
    got = canonicalize(b_tilde, ns).b
    tol = 1e-12 * (1.0 + np.abs(b_tilde).max())
    assert np.abs(got - lp_canonicalize(b_tilde, ns)).max() <= tol


@settings(max_examples=15, deadline=None)
@given(loose_coordinates())
def test_canonical_coordinates_round_trip_and_are_idempotent(case):
    ns, b_tilde = case
    canon = canonicalize(b_tilde, ns).b
    tol = 1e-12 * (1.0 + np.abs(canon).max())
    assert np.abs(canonicalize(canon, ns).b - canon).max() <= tol
    again = support_coordinates(realize(canon, cone_of(ns)))
    assert np.abs(again - canon).max() <= 1e-9 * (1.0 + np.abs(canon).max())


def test_realize_examples(square_cone, hexagon_cone):
    real = realize(np.ones(4), square_cone)
    assert real.vertex_count == 4
    assert all(len(f) == 2 for f in real.facet_vertices)
    real = realize(np.ones(6), hexagon_cone)
    assert real.vertex_count == 6
    assert np.linalg.norm(real.vertices, axis=1) == pytest.approx(
        np.full(6, 2 / np.sqrt(3)), abs=1e-9)
    seg = realize(np.array([1.0, 1.0, -1.0, 1.0]), square_cone)
    assert seg.vertex_count == 2
    assert len(seg.facet_vertices[0]) == 2
    assert len(seg.facet_vertices[2]) == 2
    with pytest.raises(ExteriorCoordinates):
        realize(np.array([1.0, 1.0, -2.0, 1.0]), square_cone)


def test_support_coordinates_round_trip(square_cone, hexagon_cone, hexagon_ns):
    assert support_coordinates(realize(np.ones(4), square_cone)) == \
        pytest.approx(np.ones(4), abs=1e-9)
    assert support_coordinates(realize(np.ones(6), hexagon_cone)) == \
        pytest.approx(np.ones(6), abs=1e-9)
    canonical = canonicalize(np.array([3.0, 1, 1, 1, 1, 1]), hexagon_ns)
    real = realize(canonical.b, hexagon_cone)
    assert support_coordinates(real) == pytest.approx(canonical.b, abs=1e-9)


def test_hausdorff_examples(square_cone):
    unit = realize(np.ones(4), square_cone)
    double = realize(2 * np.ones(4), square_cone)
    assert hausdorff_polytopes(unit, double) == pytest.approx(np.sqrt(2), abs=1e-9)
    assert hausdorff_polytopes(unit, unit) == 0.0
    seg = realize(np.array([1.0, 1.0, -1.0, 1.0]), square_cone)
    assert hausdorff_polytopes(unit, seg) == pytest.approx(2.0, abs=1e-9)


@st.composite
def realization_pairs(draw):
    """Realizations of two point hulls: on planar grid levels 3-5 under one
    of TRANSFORMS, or on rotations of d = 3 grid level 2.  A hull of one
    to three points realizes on the cone's boundary (a point, a segment or,
    in d = 3, a triangle).  Support values are admissible, so the
    realization skips the classification."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        transform = draw(st.sampled_from(TRANSFORMS))
        systems = [transformed_grid(draw(st.integers(3, 5)), transform, seed)
                   for _ in range(2)]
    else:
        systems = [rotated_grid_3d(2, seed), rotated_grid_3d(2, seed + 1)]
    d = systems[0].dimension
    rng = np.random.default_rng(seed)
    reals = []
    for ns in systems:
        count = draw(st.integers(1, 6))
        center = rng.uniform(-0.5, 0.5, d)
        hull = PointHull(center + rng.uniform(0.05, 1.0) * rng.normal(
            size=(count, d)))
        reals.append(_realize_admissible(ns, project_coords(hull, ns).coords.b))
    return reals


@settings(max_examples=40, deadline=None)
@given(realization_pairs())
def test_hausdorff_matches_the_all_subset_projection(reals):
    exact = reference_hausdorff(*reals)
    assert abs(hausdorff_polytopes(*reals) - exact) <= 1e-12 * (1.0 + exact)


def test_round_trip_and_inverse_lipschitz_random():
    ns = regular_normals(16)
    cone = compile_cone(ns)
    rng = np.random.default_rng(4)
    for _ in range(30):
        b = interior_sample(rng, cone)
        real = realize(b, cone)
        assert np.abs(support_coordinates(real) - b).max() <= 1e-7
    for _ in range(20):
        b1 = interior_sample(rng, cone)
        b2 = interior_sample(rng, cone)
        dist = hausdorff_polytopes(realize(b1, cone), realize(b2, cone))
        assert np.abs(b1 - b2).max() <= dist + 1e-7
        assert phi_expansion_ratio(realize(b1, cone), realize(b2, cone)) >= 1 - 1e-7


def test_cone_axioms(hexagon_cone):
    rng = np.random.default_rng(6)
    for _ in range(10):
        b1 = interior_sample(rng, hexagon_cone)
        b2 = interior_sample(rng, hexagon_cone)
        for lam in (0.0, 0.5, 2.0, 10.0):
            assert classify(lam * b1, hexagon_cone).classification != "exterior"
        assert classify(b1 + b2, hexagon_cone).classification != "exterior"


def test_facet_dimensions(square_cone, hexagon_cone):
    real = realize(np.ones(4), square_cone)
    assert all(facet_dimension(real, k) == 1 for k in range(4))
    pinched = realize(np.array([2.0, 1, 1, 1, 1, 1]), hexagon_cone)
    assert facet_dimension(pinched, 0) == 0
    assert facet_dimension(pinched, 1) == 1
    seg = realize(np.array([1.0, 1.0, -1.0, 1.0]), square_cone)
    dims = [facet_dimension(seg, k) for k in range(4)]
    assert dims == [1, 0, 1, 0]


def test_diagnose_boundary_examples(square_cone, hexagon_cone):
    report = diagnose_boundary(np.array([2.0, 1, 1, 1, 1, 1]), hexagon_cone)
    assert not report.flat
    assert report.degenerate_facets == (0,)
    assert [set(v.support) for v in report.facet_witnesses[0]] == [{1, 5}]

    report = diagnose_boundary(np.array([1.0, 1.0, -1.0, 1.0]), square_cone)
    assert report.flat
    witness = report.flat_witnesses[0]
    assert witness.support == (0, 2)
    assert witness.weights == pytest.approx((0.5, 0.5), abs=1e-12)

    report = diagnose_boundary(np.ones(6), hexagon_cone)
    assert not report.flat and not report.degenerate_facets

    with pytest.raises(ExteriorCoordinates):
        diagnose_boundary(np.array([1.0, 1.0, -2.0, 1.0]), square_cone)


def test_boundary_strata_match_realized_dimensions(hexagon_cone, square_cone):
    cases = [
        (hexagon_cone, np.array([2.0, 1, 1, 1, 1, 1])),
        (square_cone, np.array([1.0, 1.0, -1.0, 1.0])),
        (square_cone, np.ones(4)),
        (hexagon_cone, np.ones(6)),
    ]
    for cone, b in cases:
        d = cone.normal_system.dimension
        report = diagnose_boundary(b, cone)
        real = realize(b, cone)
        whole = real.vertices - real.vertices[0]
        dim = int(np.linalg.matrix_rank(whole, tol=1e-9)) if real.vertex_count > 1 else 0
        assert report.flat == (dim <= d - 1)
        for k in range(cone.normal_system.count):
            if k in report.degenerate_facets:
                assert facet_dimension(real, k) <= d - 2
            elif not report.flat:
                assert facet_dimension(real, k) == d - 1


def test_active_touching_row_is_algebraically_redundant(hexagon_ns):
    # With the first bound attained through its neighbors, dropping it
    # leaves the polytope unchanged.
    b = np.array([2.0, 1, 1, 1, 1, 1])
    full = enumerate_primal_vertices(hexagon_ns.matrix, b)
    reduced = enumerate_primal_vertices(hexagon_ns.matrix[1:], b[1:])
    got = sorted(tuple(np.round(v, 9)) for v, _ in full)
    want = sorted(tuple(np.round(v, 9)) for v, _ in reduced)
    assert got == want


def test_point_projection_distance_flat_target(square_cone):
    # Distance from the unit square's far corners to the segment {1} x [-1, 1].
    seg = realize(np.array([1.0, 1.0, -1.0, 1.0]), square_cone)
    sq = realize(np.ones(4), square_cone)
    assert hausdorff_polytopes(sq, seg) == pytest.approx(2.0, abs=1e-9)


def test_geometry_helpers(square_cone, hexagon_cone):
    sq = realize(np.ones(4), square_cone)
    assert polygon_area(sq) == pytest.approx(4.0, abs=1e-9)
    assert perimeter_2d(sq) == pytest.approx(8.0, abs=1e-9)
    hexa = realize(np.ones(6), hexagon_cone)
    assert polygon_area(hexa) == pytest.approx(2 * np.sqrt(3), abs=1e-9)
    # Support decomposition: area = (1/2) sum b_k len_k on admissible b.
    lengths = facet_lengths_2d(hexa)
    assert 0.5 * float(hexa.b @ lengths) == pytest.approx(2 * np.sqrt(3), abs=1e-9)


def test_length_form_matches_differences(hexagon_cone):
    # Lam is the exact Jacobian of the facet lengths on interior
    # coordinates, where the lengths are linear in b.
    rng = np.random.default_rng(9)
    b = interior_sample(rng, hexagon_cone)
    lam, _ = planar_forms(hexagon_cone.normal_system)
    h = 1e-6
    for j in range(6):
        probe = b.copy()
        probe[j] += h
        up = facet_lengths_2d(realize(probe, hexagon_cone))
        probe[j] -= 2 * h
        dn = facet_lengths_2d(realize(probe, hexagon_cone))
        fd = (up - dn) / (2 * h)
        assert lam[:, j] == pytest.approx(fd, abs=1e-5)
