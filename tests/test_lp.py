import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polygal.lp as lp_module
from polygal import (LinearProgram, check_bounded, enumerate_primal_vertices,
                     farkas_feasible, solve_lp, spherical_grid_normals,
                     validate_normals)
from polygal.lp import (BOUNDED_MARGIN, VERTEX_DEDUP_TOL,
                        recession_bounded, vertex_points)

from conftest import (bounded_planar_systems, exhaustive_vertices,
                      lp_recession_bounded, regular_normals, rotated_grid_3d)


def test_axis_objective_on_unit_square(square_ns):
    out = solve_lp(LinearProgram([1, 0], square_ns.matrix, np.ones(4)))
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert out.primal_point[0] == pytest.approx(1.0, abs=1e-9)


def test_contradictory_strip_is_infeasible():
    A = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b = np.array([1.0, -2.0])
    out = solve_lp(LinearProgram([1, 0], A, b))
    assert out.status == "infeasible"
    p = out.dual_certificate
    assert (p >= -1e-12).all()
    assert np.abs(A.T @ p).max() <= 1e-9
    assert b @ p < 0


def test_phase1_passes_over_a_rounding_column():
    # A bounded fan (largest gap 2.14 < pi).  Probing +e_1, phase 1 met a
    # reduced cost of -1.86e-9, just past the cost tolerance, on a column
    # with no positive entry; a phase-1 objective is bounded below by 0, so
    # that column is rounding, not an improving ray.
    angles = np.array([3.0, 1e-7, 1.0, 2.0, 1.0 + np.pi])
    ns = validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))
    out = solve_lp(LinearProgram([1.0, 0.0], ns.matrix, np.zeros(5)))
    assert out.status == "optimal"
    assert abs(out.value) <= 1e-9
    p = out.dual_certificate
    assert (p >= -1e-12).all()
    assert np.abs(ns.matrix.T @ p - [1.0, 0.0]).max() <= 1e-8
    assert check_bounded(ns)


def test_halfplane_is_unbounded():
    out = solve_lp(LinearProgram([-1, 0], np.array([[1.0, 0.0]]), np.array([1.0])))
    assert out.status == "unbounded"
    assert out.primal_point is None and out.dual_certificate is None


def test_unbounded_status_confirmed_by_capping():
    # Adding an artificial cap c.x <= M must give an optimum at the cap.
    A = np.array([[1.0, 0.0]])
    b = np.array([1.0])
    c = np.array([-1.0, 0.0])
    for cap in (10.0, 1e3):
        capped = solve_lp(LinearProgram(c, np.vstack([A, c]), np.append(b, cap)))
        assert capped.status == "optimal"
        assert capped.value == pytest.approx(cap, rel=1e-9)


def test_hexagon_vertices_match_adjacent_systems(hexagon_ns):
    found = enumerate_primal_vertices(hexagon_ns.matrix, np.ones(6))
    assert len(found) == 6
    expected = []
    for i in range(6):
        M = hexagon_ns.matrix[[i, (i + 1) % 6]]
        expected.append(np.linalg.solve(M, np.ones(2)))
    got = sorted(tuple(np.round(v, 9)) for v, _ in found)
    want = sorted(tuple(np.round(v, 9)) for v in expected)
    assert got == want
    radius = 2.0 / np.sqrt(3.0)
    for v, active in found:
        assert np.linalg.norm(v) == pytest.approx(radius, abs=1e-9)
        assert len(active) == 2


def test_pinned_first_coordinate_gives_segment(square_ns):
    b = np.array([1.0, 1.0, -1.0, 1.0])
    found = enumerate_primal_vertices(square_ns.matrix, b)
    points = sorted(tuple(np.round(v, 9)) for v, _ in found)
    assert points == [(1.0, -1.0), (1.0, 1.0)]


def test_degenerate_vertex_reported_once_with_full_active_set():
    # Three lines through (1, 0): x1 <= 1 twice via a diagonal pair plus caps.
    A = np.array([[1.0, 0.0],
                  [np.cos(np.pi / 4), np.sin(np.pi / 4)],
                  [np.cos(-np.pi / 4), np.sin(-np.pi / 4)],
                  [-1.0, 0.0]])
    b = np.array([1.0, np.cos(np.pi / 4), np.cos(np.pi / 4), 1.0])
    found = enumerate_primal_vertices(A, b)
    corner = [item for item in found
              if np.abs(item[0] - np.array([1.0, 0.0])).max() < 1e-8]
    assert len(corner) == 1
    assert corner[0][1] == (0, 1, 2)


def test_farkas_examples(square_ns, hexagon_ns):
    assert farkas_feasible(square_ns.matrix, np.ones(4))[0]
    feasible, p = farkas_feasible(square_ns.matrix, np.array([1.0, 1.0, -2.0, 0.0]))
    assert not feasible
    assert (p >= -1e-12).all()
    assert np.abs(square_ns.matrix.T @ p).max() <= 1e-9
    assert np.array([1.0, 1.0, -2.0, 0.0]) @ p < 0
    feasible, p = farkas_feasible(hexagon_ns.matrix, -np.ones(6))
    assert not feasible
    assert -np.ones(6) @ p < 0


def test_enumeration_leaves_boundedness_to_the_caller():
    # A strip contains a line and has no vertex; capping it on one side
    # gives a region with two vertices that is still unbounded.
    strip = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert enumerate_primal_vertices(strip, np.ones(2)) == []
    capped = np.vstack([strip, [0.0, 1.0]])
    found = enumerate_primal_vertices(capped, np.ones(3))
    assert [act for _, act in found] == [(0, 2), (1, 2)]
    assert not check_bounded(validate_normals(capped))


def assert_enumeration_matches_oracle(A, b):
    """`enumerate_primal_vertices` reports the oracle's vertices with the
    same active sets, each vertex within 1e-12 (1 + |b|_inf)."""
    found = enumerate_primal_vertices(A, b)
    vertices, active_sets = exhaustive_vertices(A, b)
    assert tuple(act for _, act in found) == active_sets
    if found:
        gap = np.abs(np.array([v for v, _ in found]) - vertices).max()
        assert gap <= 1e-12 * (1.0 + np.abs(b).max())
    return found


def _nearest(P, Q):
    """Max-norm distance from each point of P to the nearest point of Q."""
    best = np.full(P.shape[0], np.inf)
    for q in Q:
        best = np.minimum(best, np.abs(P - q).max(axis=1))
    return best


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_vertex_points_match_enumeration(data):
    # Systems as in the canonicalize properties; offsets from a hull of 1
    # to 6 points, tight (degenerate vertices) or loosened.
    if data.draw(st.integers(0, 3)) == 0:
        ns = rotated_grid_3d(2, data.draw(st.integers(0, 2**32 - 1)))
    else:
        ns = data.draw(bounded_planar_systems(max_level=5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 7)), ns.dimension))
    loosen = data.draw(st.sampled_from([0.0, 0.5, 2.0]))
    b = (ns.matrix @ points.T).max(axis=1) + rng.uniform(0.0, loosen, ns.count)
    found = vertex_points(ns.matrix, b)
    vertices, _ = exhaustive_vertices(ns.matrix, b)
    assert _nearest(vertices, found).max() <= VERTEX_DEDUP_TOL
    assert _nearest(found, vertices).max() <= VERTEX_DEDUP_TOL
    assert_enumeration_matches_oracle(ns.matrix, b)
    # One line per block gives the same support values; at a degenerate
    # vertex a tie may close a different subset, which rounds differently.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "LINE_BLOCK", 1)
        one_line = vertex_points(ns.matrix, b)
    support = (ns.matrix @ found.T).max(axis=1)
    assert np.abs((ns.matrix @ one_line.T).max(axis=1) - support).max() <= \
        1e-12 * (1.0 + np.abs(b).max())


def test_vertex_points_empty_without_a_vertex(square_ns):
    assert vertex_points(square_ns.matrix, np.array([1.0, 1.0, -2.0, 1.0])).shape == (0, 2)
    strip = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert vertex_points(strip, np.ones(2)).shape == (0, 2)
    assert vertex_points(strip[:1], np.ones(1)).shape == (0, 2)
    # The region of a fan is unbounded but has its vertex.
    fan = np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    assert vertex_points(fan, np.array([1.0, 1.0, 2.0])) == pytest.approx(
        np.array([[1.0, 1.0]]))


@pytest.mark.parametrize("n", [5, 8, 12])
def test_oracle_equivalence_small_systems(n):
    rng = np.random.default_rng(n)
    ns = regular_normals(n, offset=0.1)
    for _ in range(8):
        b = rng.uniform(0.2, 2.0, size=n)
        found = assert_enumeration_matches_oracle(ns.matrix, b)
        for v, active in found:
            rank = np.linalg.matrix_rank(ns.matrix[list(active)], tol=1e-10)
            assert rank == 2


@pytest.mark.parametrize("level, count", [(2, 32), (3, 128)])
def test_polar_of_symmetric_grid_reports_each_vertex_once(level, count):
    # The polar {x : Ax <= 1} of the d = 3 grid has 4 rows tight at each
    # vertex, and copies of a vertex closed by different row triples differ
    # by rounding; lexsort-adjacent or floor-cell merges kept 51 and 275.
    A = spherical_grid_normals(3, level).matrix
    found = enumerate_primal_vertices(A, np.ones(A.shape[0]))
    assert len(found) == count
    vertices = np.array([v for v, _ in found])
    gaps = np.abs(vertices[:, None] - vertices[None]).max(axis=2)
    assert gaps[~np.eye(count, dtype=bool)].min() > VERTEX_DEDUP_TOL
    assert_enumeration_matches_oracle(A, np.ones(A.shape[0]))


def test_merge_keeps_the_first_of_each_cluster():
    # Copies of two vertices 3e-8 apart, scattered by rounding-sized
    # offsets, and a chain of points 0.6 tol apart.  In lexsort order each
    # point within tol of a kept one is dropped: one copy of each vertex
    # and every other point of the chain remain.
    rng = np.random.default_rng(3)
    base = np.array([[0.25, -1.0, 3.0], [0.25, -1.0 + 3e-8, 3.0]])
    copies = np.repeat(base, 20, axis=0) + rng.uniform(-1e-15, 1e-15, (40, 3))
    chain = np.array([1.0, 1.0, 1.0]) + np.outer(np.arange(5) * 0.6
                                                 * VERTEX_DEDUP_TOL, [1, 0, 0])
    kept = lp_module._distinct_points(rng.permutation(np.vstack([copies,
                                                                 chain])))
    firsts = [group[np.lexsort(group.T[::-1])][0]
              for group in (copies[:20], copies[20:])]
    assert np.array_equal(kept, np.vstack(firsts + [chain[::2]]))


def test_strong_duality_and_certificates_random():
    rng = np.random.default_rng(7)
    ns = regular_normals(8)
    A = ns.matrix
    seen = set()
    for trial in range(200):
        c = rng.normal(size=2)
        b = rng.uniform(-2, 2, size=8) if trial % 2 else rng.uniform(0.1, 2, size=8)
        out = solve_lp(LinearProgram(c, A, b))
        seen.add(out.status)
        if out.status == "optimal":
            x, p = out.primal_point, out.dual_certificate
            assert (A @ x <= b + 1e-7).all()
            assert (p >= -1e-12).all()
            assert np.abs(A.T @ p - c).max() <= 1e-8
            assert abs(b @ p - out.value) <= 1e-7 * (1 + abs(out.value))
            assert abs(c @ x - out.value) <= 1e-9 * (1 + abs(out.value))
        elif out.status == "infeasible":
            p = out.dual_certificate
            assert (p >= -1e-12).all()
            assert np.abs(A.T @ p).max() <= 1e-9
            assert b @ p < 0
    assert {"optimal", "infeasible"} <= seen


def ray_margin(A):
    """min over the unit directions +-u orthogonal to d - 1 rows (cofactor
    vector u != 0) of max_i a_i . u, one subset at a time."""
    d = A.shape[1]
    margin = np.inf
    for subset in itertools.combinations(range(A.shape[0]), d - 1):
        M = A[list(subset)]
        u = np.array([(-1) ** j * np.linalg.det(np.delete(M, j, axis=1))
                      for j in range(d)])
        if u @ u > 0.0:
            g = A @ (u / np.linalg.norm(u))
            margin = min(margin, g.max(), -g.min())
    return margin


def _turned(row, angle):
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    out = row.copy()
    out[:2] = rot @ row[:2]
    return out


@st.composite
def recession_systems(draw):
    """1 to 8 unit rows on a grid of step 1/4 in d = 2 or 3, plus up to two
    rows turned 1e-9 to 1e-3 rad from a drawn row."""
    d = draw(st.integers(2, 3))
    grid = st.integers(-4, 4).map(lambda k: k / 4.0)
    rows = draw(st.lists(st.lists(grid, min_size=d, max_size=d).filter(any),
                         min_size=1, max_size=8))
    A = np.array(rows) / np.linalg.norm(rows, axis=1)[:, None]
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2,
                           unique=True)):
        angle = draw(st.sampled_from([1e-9, 1e-8, 1e-7, 1e-5, 1e-3]))
        A = np.vstack([A, _turned(A[i], angle)])
    return A


# The open-cone fan whose largest gap, pi - 3e-10, needed dual weights of
# 3e9 in the LP probe; its ray margin is 3e-10, inside the band.
_GAP_NEAR_PI = np.array([0.0, 0.3584, np.pi + 0.3584 - 3e-10])


@settings(max_examples=300, deadline=None)
@given(recession_systems())
@example(np.column_stack([np.cos(_GAP_NEAR_PI), np.sin(_GAP_NEAR_PI)]))
@example(np.vstack([np.eye(3), -np.ones((1, 3)) / np.sqrt(3.0),
                    _turned(np.eye(3)[0], 1e-7)]))
def test_recession_bounded_agrees_with_the_lp_probe(A):
    # The LP probe misreads ray margins up to about 1e-8 in both
    # directions, so the two are compared outside |margin| <= 1e-7.
    bounded = recession_bounded(A)
    if np.linalg.matrix_rank(A) < A.shape[1]:
        assert not bounded
        return
    margin = ray_margin(A)
    if abs(margin - BOUNDED_MARGIN) > 1e-15:
        assert bounded == (margin > BOUNDED_MARGIN)
    if abs(margin) > 1e-7:
        assert bounded == lp_recession_bounded(A)


def test_gap_near_pi_is_decided_by_the_margin():
    # In d = 2 the ray margin is at least half of pi minus the largest
    # gap: 3e-10 short of pi reads unbounded by policy, 1e-8 short bounded.
    for short, bounded in ((3e-10, False), (1e-8, True), (0.0, False)):
        angles = np.array([0.0, 0.3584, np.pi + 0.3584 - short])
        A = np.column_stack([np.cos(angles), np.sin(angles)])
        assert recession_bounded(A) == bounded


@pytest.mark.parametrize("d, level", [(2, 6), (3, 2), (3, 3), (3, 4)])
def test_grid_levels_read_bounded(d, level):
    A = spherical_grid_normals(d, level).matrix
    assert recession_bounded(A)
    assert not recession_bounded(A[A[:, 0] < 0.0])


def test_recession_bounded_blocks_agree():
    A = spherical_grid_normals(3, 2).matrix
    open_cap = A[A[:, 2] > 0.0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "LINE_BLOCK", 1)
        assert recession_bounded(A) and not recession_bounded(open_cap)
