import numpy as np
import pytest

from polygal import (EmptyPolytope, ExteriorCoordinates,
                     canonicalize, classify, compile_cone, diagnose_boundary,
                     enumerate_primal_vertices, facet_dimension,
                     hausdorff_polytopes, perimeter_2d, polygon_area,
                     project_interior, realize, support_coordinates)
from polygal.coordinates import (facet_lengths_2d, phi_expansion_ratio,
                                 planar_forms)

from conftest import random_point_hull, regular_normals


def interior_sample(rng, cone, radius=1.0):
    hull = random_point_hull(rng, radius=radius)
    lam = rng.uniform(0.1, 0.5)
    return project_interior(hull, cone, lam).coords.b


def test_classify_examples(square_cone, hexagon_cone):
    assert classify(np.ones(6), hexagon_cone).classification == "interior"
    cv = classify(np.array([1.0, 1.0, -1.0, 1.0]), square_cone)
    assert cv.classification == "boundary"
    active = [square_cone.columns[i].vertex for i in cv.active_columns]
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
