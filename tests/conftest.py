from collections import namedtuple
import itertools

import numpy as np
import pytest
from hypothesis import assume, settings, strategies as st

from polygal import (EmptyPolytope, LinearProgram, PointHull, compile_cone,
                     solve_lp, spherical_grid_normals, validate_normals)
from polygal.cone import _all_subsets, _positive_combinations
from polygal.coordinates import _projection_distance
from polygal.galerkin import (_hull_subsets, _kappa_directions,
                              _mixture_minimum, _subset_solvers,
                              _vertex_cost_minima)
from polygal.lp import (OPTIMAL, UNBOUNDED, VERTEX_DEDUP_TOL,
                        _combinations_array, _solve_subsystems,
                        feasibility_slack)

# A failing example prints the blob that reproduces it with
# @reproduce_failure, so a rare draw can be replayed.
settings.register_profile("polygal", print_blob=True)
settings.load_profile("polygal")


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


def exhaustive_vertices(A, b):
    """Vertex oracle: (vertices, active_sets) of {x : Ax <= b}.

    Every nonsingular d-subset system is solved (`lp._solve_subsystems`,
    so a vertex that one subset closes is bitwise the library's) and kept
    when feasible.  In lexsort order, a solution is dropped when it lies
    within VERTEX_DEDUP_TOL (max norm) of one kept before it, all of them
    compared.  The vertices are reported with the rows active there,
    sorted by active set.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n, d = A.shape
    slack = feasibility_slack(b)
    combos = np.array(list(itertools.combinations(range(n), d)),
                      dtype=np.intp).reshape(-1, d)
    x, ok = _solve_subsystems(A, b, combos)
    x = x[ok]
    x = x[(A @ x.T <= (b + slack)[:, None]).all(axis=0)]
    kept = []
    for v in x[np.lexsort(x.T[::-1])]:
        if all(np.abs(v - u).max() > VERTEX_DEDUP_TOL for u in kept):
            kept.append(v)
    x = np.array(kept).reshape(-1, d)
    activity = np.abs(A @ x.T - b[:, None]) <= slack[:, None]
    active = [tuple(np.nonzero(col)[0].tolist()) for col in activity.T]
    order = sorted(range(len(active)), key=active.__getitem__)
    return x[order].reshape(-1, d), tuple(active[j] for j in order)


def dual_vertices_for_direction(ns, c):
    """Dual vertex oracle: the extreme points of {p >= 0 : A^T p = c} as
    (support, weights) pairs in lexicographic order of the supports.

    Every subset of at most d normals is solved by its own SVD, as the cone
    compiler solves its candidates, and kept when its columns are
    independent and its solution is strictly positive and exact.
    """
    supports, weights = _positive_combinations(
        ns.matrix.T, np.asarray(c, dtype=float),
        _all_subsets(np.arange(ns.count), range(1, ns.dimension + 1)),
        ns.dimension)
    return [(tuple(s[s >= 0].tolist()), tuple(w[s >= 0].tolist()))
            for s, w in zip(supports, weights)]


def representation_cost(ns, c, support, weights):
    """sum_i w_i |a_i - c / sum w| of one dual representation."""
    weights = np.asarray(weights)
    shrunk = c / weights.sum()
    gaps = np.linalg.norm(ns.matrix[list(support)] - shrunk, axis=1)
    return float(weights @ gaps)


def reference_direction_cost(ns, c):
    """Kappa cost oracle of one direction: the cheapest of the oracle's
    dual vertices and of the two-point mixtures of the four cheapest,
    ordered by cost and then by support."""
    vertices = dual_vertices_for_direction(ns, c)
    costs = sorted((representation_cost(ns, c, *v), i)
                   for i, v in enumerate(vertices))
    best = costs[0][0]
    leaders = [vertices[i] for _, i in costs[:4]]
    for rep_a, rep_b in itertools.combinations(leaders, 2):
        best = min(best, _mixture_minimum(ns, c, rep_a, rep_b))
    return best


def reference_kappa(ns):
    """Kappa oracle: directions bounded by their cheapest dual vertex on
    the normals' hull facets are refined with `reference_direction_cost` in
    decreasing bound until the bound cannot beat the worst cost found."""
    dirs = _kappa_directions(ns, 1024 if ns.dimension == 2 else 10_000)
    bound = _vertex_cost_minima(ns, dirs,
                                _subset_solvers(ns, _hull_subsets(ns)))
    assert np.isfinite(bound).all()
    worst = -np.inf
    for idx in np.argsort(-bound):
        if bound[idx] <= worst:
            break
        worst = max(worst, reference_direction_cost(ns, dirs[idx]))
    return float(worst)


def affine_faces(A, b):
    """Hausdorff face oracle: per subset size, the rows, Gram matrices and
    right-hand sides of every independent row subset of {x : Ax <= b}
    (d <= 3)."""
    n, d = A.shape
    faces = []
    for size in range(1, d + 1):
        combos = _combinations_array(n, size)
        As = A[combos]                                   # (P, s, d)
        G = As @ As.transpose(0, 2, 1)
        ok = np.linalg.det(G) > 1e-16
        if ok.any():
            faces.append((As[ok], G[ok], b[combos[ok]]))
    return faces


def reference_hausdorff(real1, real2):
    """Hausdorff oracle: each vertex outside the other polytope is
    projected onto the affine hulls of all its `affine_faces`, and the
    nearest feasible projection is its distance."""
    def directed(source, target):
        A, b = target.normals.matrix, target.b
        slack = feasibility_slack(b)
        faces = affine_faces(A, b)
        worst = 0.0
        for v in source.vertices:
            if not ((A @ v) <= b + slack).all():
                dist = _projection_distance(v, A, b, slack, faces)
                assert np.isfinite(dist)
                worst = max(worst, dist)
        return worst
    return max(directed(real1, real2), directed(real2, real1))


def body_from_realization(real):
    """The point hull of a realization's vertices."""
    if real.vertex_count == 0:
        raise EmptyPolytope("realization has no vertices")
    return PointHull(real.vertices)


TouchingColumn = namedtuple("TouchingColumn", "vertex pruned")


def touching_for(cone, k):
    """The columns of `cone` that touch facet k, pruned or not, each as its
    dual vertex and pruned flag."""
    return tuple(TouchingColumn(cone.vertex(j), bool(cone.pruned[j]))
                 for j in np.flatnonzero(cone.target == k))


def chebyshev_slack(G, h):
    """Phase-1 oracle: the largest s with G x - h >= s |G_i| for some x
    (the slack of the Chebyshev center of the rows normalized to unit
    length), by one LP; None when the LP is not optimal."""
    norms = np.linalg.norm(G, axis=1)
    norms[norms == 0] = 1.0
    A = np.hstack([-G / norms[:, None], np.ones((G.shape[0], 1))])
    c = np.zeros(G.shape[1] + 1)
    c[-1] = 1.0
    outcome = solve_lp(LinearProgram(c, A, -h / norms))
    return outcome.value if outcome.status == OPTIMAL else None


def lp_recession_bounded(A):
    """Boundedness oracle: True iff every probe max{c . x : Ax <= 0},
    c = +-e_1..+-e_d, is bounded, by the LP kernel."""
    d = A.shape[1]
    for c in np.vstack([np.eye(d), -np.eye(d)]):
        if solve_lp(LinearProgram(c, A, np.zeros(A.shape[0]))).status \
                == UNBOUNDED:
            return False
    return True


def assert_realization_matches_oracle(real, *, bitwise=False):
    """The realization has the `exhaustive_vertices` active sets and facet
    incidence, and its vertices, bit for bit or within 1e-12 (1 + |b|_inf).
    """
    b = real.b
    vertices, active_sets = exhaustive_vertices(real.normals.matrix, b)
    assert real.active_sets == active_sets
    assert real.facet_vertices == tuple(
        tuple(j for j, act in enumerate(active_sets) if k in act)
        for k in range(b.size))
    if bitwise:
        assert np.array_equal(real.vertices, vertices)
    else:
        assert np.abs(real.vertices - vertices).max() \
            <= 1e-12 * (1.0 + np.abs(b).max())


def rotated_grid_3d(level, seed):
    """The d = 3 grid normals of `level` under a seeded rotation, applied
    row by row so that levels rotated by one seed stay nested bitwise."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    m = spherical_grid_normals(3, level).matrix
    return validate_normals(np.column_stack(
        [q[i, 0] * m[:, 0] + q[i, 1] * m[:, 1] + q[i, 2] * m[:, 2]
         for i in range(3)]))


@st.composite
def bounded_planar_systems(draw, max_level=4):
    """Irregular systems of 3 to 24 normals whose angular gaps stay below
    pi - 0.05, or a planar grid of level 2 to `max_level` under one of
    TRANSFORMS."""
    if draw(st.booleans()):
        return transformed_grid(draw(st.integers(2, max_level)),
                                draw(st.sampled_from(TRANSFORMS)),
                                draw(st.integers(0, 2**32 - 1)))
    angles = np.sort(draw(st.lists(st.floats(0.0, 2.0 * np.pi),
                                   min_size=3, max_size=24)))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    assume(gaps.min() > 1e-6 and gaps.max() < np.pi - 0.05)
    return validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))


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
