"""Coordinates for polytope spaces.

Classification of right-hand sides against the compiled cone, canonical
(minimal) representatives, vertex realizations with facet incidence, exact
polytope Hausdorff distances, and boundary-stratum diagnosis.
"""

from dataclasses import dataclass
import itertools

import numpy as np

from .cone import CompiledCone, DIAMOND, DIAMOND_TARGET
from .errors import EmptyPolytope, ExteriorCoordinates, NumericalFailure, UnboundedRegion
from .lp import (_close_pairs, _solve_subsystems,
                 enumerate_primal_vertices, farkas_feasible, feasibility_slack,
                 vertex_points)
from .normals import NormalSystem, angle_pairs, check_bounded

UNCLASSIFIED = "unclassified"
EXTERIOR = "exterior"
BOUNDARY = "boundary"
INTERIOR = "interior"

# Smallest |det| of a consecutive row pair for which the planar realization
# certificate holds up under rounding (see _realize_planar).
_PLANAR_DET_FLOOR = 1e-4


def classification_band(b) -> float:
    """Relative tolerance 1e-9 * (1 + |b|_inf); boundary is a closed band."""
    return 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0)))


@dataclass
class CoordinateVector:
    """A right-hand side with its classification against the cone."""

    b: np.ndarray
    classification: str = UNCLASSIFIED
    active_columns: tuple = ()

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)


@dataclass(eq=False)
class PolytopeRealization:
    """Vertex enumeration of {x : Ax <= b} with per-facet incidence."""

    normals: NormalSystem
    b: np.ndarray
    vertices: np.ndarray
    active_sets: tuple
    facet_vertices: tuple

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @property
    def dimension(self) -> int:
        return self.normals.dimension

    def body_norm(self) -> float:
        if self.vertex_count == 0:
            raise EmptyPolytope("realization has no vertices")
        return float(np.linalg.norm(self.vertices, axis=1).max())


def classify(b, cone: CompiledCone) -> CoordinateVector:
    """Classify b as exterior / boundary / interior of the coordinate cone.

    Boundary classifications record which membership columns are active.
    """
    b = np.asarray(b, dtype=float)
    dots = cone.matrix().T @ b
    eps = classification_band(b)
    if (dots < -eps).any():
        return CoordinateVector(b, EXTERIOR)
    if (dots > eps).all():
        return CoordinateVector(b, INTERIOR)
    active = cone.column_indices()[np.abs(dots) <= eps]
    return CoordinateVector(b, BOUNDARY, tuple(int(i) for i in active))


def _vertex_array(ns: NormalSystem, b) -> np.ndarray:
    """Vertices of {x : Ax <= b} as a (V, d) array, from `vertex_points`.

    A region with a vertex attains every row's maximum at one, bounded or
    not, since a_i . r <= 0 on its recession cone.  Only when no vertex is
    found does `farkas_feasible` run: an empty region is EmptyPolytope; a
    nonempty one contains a line, which is UnboundedRegion when `ns` spans
    no polytopes and a NumericalFailure when it does.
    """
    vertices = vertex_points(ns.matrix, b)
    if vertices.size:
        return vertices
    if not farkas_feasible(ns.matrix, b)[0]:
        raise EmptyPolytope("right-hand side describes the empty set")
    if check_bounded(ns):
        raise NumericalFailure("feasible bounded region has no vertex")
    raise UnboundedRegion("right-hand side describes a set containing a line")


def canonicalize(b_tilde, ns: NormalSystem) -> CoordinateVector:
    """Minimal right-hand side describing the same polyhedron.

    Computes b_i = max{a_i . x : Ax <= b_tilde} for every row as the
    largest a_i . v over the vertices v of the region (`vertex_points`:
    C(N, d - 1) lines clipped by the N rows); the result is the unique
    admissible representative and satisfies b <= b_tilde.
    """
    b_tilde = np.asarray(b_tilde, dtype=float)
    vertices = _vertex_array(ns, b_tilde)
    return CoordinateVector(np.minimum((ns.matrix @ vertices.T).max(axis=1),
                                       b_tilde))


def realize(b, cone: CompiledCone, *, precomputed_class=None) -> PolytopeRealization:
    """Vertex enumeration of the polytope behind admissible coordinates.

    In d = 2 the vertices of a polygon whose facets all have positive length
    are the N intersections of angle-consecutive lines.  That path is taken
    when a certificate (see `_realize_planar`) shows that
    `enumerate_primal_vertices` would return the same list; the result is
    then bitwise equal to it.  Every other input, and every d = 3 input,
    goes through `enumerate_primal_vertices`, the line clipping of
    `lp.vertex_points` with its merge.
    """
    b = np.asarray(b, dtype=float)
    cv = precomputed_class or classify(b, cone)
    if cv.classification == EXTERIOR:
        raise ExteriorCoordinates("coordinates lie outside the cone")
    return _realize_admissible(cone.normal_system, b)


def _realize_admissible(ns: NormalSystem, b) -> PolytopeRealization:
    """The part of `realize` after classification: the certified planar
    path where it applies, else the line clipping."""
    if ns.dimension == 2:
        real = _realize_planar(ns, b)
        if real is not None:
            return real
    return _realize_generic(ns, b)


def _planar_cycle(ns: NormalSystem):
    """(pairs, det_min, active_sets, facet_vertices) of a planar system,
    cached on `ns`: its `angle_pairs`, their smallest |det|, and the
    incidence of a realization with exactly their intersections as
    vertices."""
    cached = ns._cache.get("planar_cycle")
    if cached is not None:
        return cached
    pairs = angle_pairs(ns)
    owner = np.repeat(np.arange(ns.count), 2)
    facets = owner[np.lexsort((owner, pairs.ravel()))].reshape(-1, 2)
    m = ns.matrix[pairs]
    det_min = float(np.abs(m[:, 0, 0] * m[:, 1, 1]
                           - m[:, 0, 1] * m[:, 1, 0]).min())
    cached = (pairs, det_min, tuple(map(tuple, pairs.tolist())),
              tuple(map(tuple, facets.tolist())))
    ns._cache["planar_cycle"] = cached
    return cached


def _realize_planar(ns: NormalSystem, b):
    """Consecutive-intersection realization, or None when not certified.

    The vertices v_k are solved by `_solve_subsystems` on the same (lo, hi)
    row pairs the line clipping closes, so they are bitwise equal to its
    candidates.  The generic path returns exactly these vertices, in this
    order, with these active sets, when

    1. every consecutive pair has |det| >= `_PLANAR_DET_FLOOR`, far above
       the generic RANK_TOL;
    2. every v_k has its own two rows active within half the slack;
    3. every other row r is slack at v_k by more than tau = 2 max(slack) /
       min|det|, i.e. a_r . v_k < b_r - tau;
    4. no two v_k are within VERTEX_DEDUP_TOL in the max norm
       (`_close_pairs` finds none).

    Why (3) rules out every other pair (i, j): its intersection y lies on
    line i, whose part inside both neighbouring rows of i is the segment
    [v', v] between the two vertices on row i.  Row j is slack by s > tau
    at both ends, so y is off the segment, past v say, at distance
    s / |a_j . t_i| >= s.  Past v the other row at v is violated at rate
    |det| >= min|det|, hence by more than 2 max(slack).  The factor 2 and
    the det floor absorb the rounding of the computed y: its error is below
    4 eps / (|det_ij| min|det|) < 0.1 times that violation, as |det_ij| >
    RANK_TOL.  So the feasible candidates are the v_k (each passes the
    feasibility test by (2)-(3)): line lo is clipped on either side by the
    row next to it, closing the pair (lo, hi) once.  By (4) the merge keeps
    every v_k, (2)-(3) fix each active set with margin to spare for the
    rounding of the activity test, and the final sort by active set is the
    order of `pairs`.
    """
    pairs, det_min, active_sets, facet_vertices = _planar_cycle(ns)
    if not det_min >= _PLANAR_DET_FLOOR:
        return None
    A = ns.matrix
    vertices, _ = _solve_subsystems(A, b, pairs)
    slack = feasibility_slack(b)
    resid = A @ vertices.T - b[:, None]
    rows = pairs.ravel()
    cols = np.repeat(np.arange(ns.count), 2)
    if not (np.abs(resid[rows, cols]) <= 0.5 * slack[rows]).all():
        return None
    resid[rows, cols] = -np.inf
    if not resid.max() < -2.0 * slack.max() / det_min:
        return None
    if _close_pairs(vertices)[0].size:
        return None
    return PolytopeRealization(ns, b, vertices, active_sets, facet_vertices)


def _realize_generic(ns: NormalSystem, b) -> PolytopeRealization:
    """Realization from `enumerate_primal_vertices` (any d, any input)."""
    found = enumerate_primal_vertices(ns.matrix, b)
    if not found:
        raise NumericalFailure("admissible coordinates produced no vertices")
    vertices = np.array([v for v, _ in found])
    active_sets = tuple(act for _, act in found)
    facet_vertices = [[] for _ in range(ns.count)]
    for j, act in enumerate(active_sets):
        for k in act:
            facet_vertices[k].append(j)
    return PolytopeRealization(ns, b, vertices, active_sets,
                               tuple(map(tuple, facet_vertices)))


def support_coordinates(real: PolytopeRealization) -> np.ndarray:
    """Row-wise support values max_v a_i . v of a realization."""
    if real.vertex_count == 0:
        raise EmptyPolytope("realization has no vertices")
    return (real.normals.matrix @ real.vertices.T).max(axis=1)


def _projection_distance(v, A, b, slack, faces):
    """Distance from v to its nearest projection onto the affine hulls of
    `faces` that lies in {x : Ax <= b}; inf when none does.

    faces holds, per subset size, the rows (P, s, d), their Gram matrices
    and right-hand sides of independent row subsets.
    """
    best = np.inf
    for As, G, bs in faces:
        lam = np.linalg.solve(G, (As @ v - bs)[:, :, None])[:, :, 0]
        x = v[None, :] - np.einsum("psd,ps->pd", As, lam)
        feas = ((A @ x.T) <= (b + slack)[:, None]).all(axis=0)
        if feas.any():
            dist = np.linalg.norm(x[feas] - v[None, :], axis=1).min()
            best = min(best, float(dist))
    return best


def _realized_faces(real: PolytopeRealization):
    """The faces of `_projection_distance` that a realization spans: the rows
    whose facet has a vertex and, in d = 3, the independent row pairs that
    share at least two vertices (the edge lines)."""
    A, b = real.normals.matrix, real.b
    subsets = [np.array([[k] for k, idx in enumerate(real.facet_vertices)
                         if idx], dtype=np.intp).reshape(-1, 1)]
    if real.dimension == 3:
        incidence = np.zeros((real.vertex_count, real.normals.count), dtype=int)
        for v, active in enumerate(real.active_sets):
            incidence[v, list(active)] = 1
        subsets.append(np.argwhere(np.triu(incidence.T @ incidence >= 2, 1)))
    faces = []
    for combos in subsets:
        As = A[combos]                                   # (P, s, d)
        G = As @ As.transpose(0, 2, 1)
        ok = np.linalg.det(G) > 1e-16
        if ok.any():
            faces.append((As[ok], G[ok], b[combos[ok]]))
    return faces


def _directed_distance(source: PolytopeRealization, target: PolytopeRealization):
    """max over the source's vertices of the distance to the target.

    The projection of a point onto the target lies in the relative
    interior of one face, so it is the projection onto that face's affine
    hull: a vertex, a facet's hyperplane or, in d = 3, an edge line.  The
    vertices are in the target, and only projections inside it are kept,
    so the smallest candidate distance is exact.
    """
    A = target.normals.matrix
    b = target.b
    slack = feasibility_slack(b)
    outside = [v for v in source.vertices if not ((A @ v) <= b + slack).all()]
    if not outside:
        return 0.0
    faces = _realized_faces(target)
    return max(min(float(np.linalg.norm(target.vertices - v, axis=1).min()),
                   _projection_distance(v, A, b, slack, faces))
               for v in outside)


def hausdorff_polytopes(real1: PolytopeRealization,
                        real2: PolytopeRealization) -> float:
    """Exact Hausdorff distance between two realized polytopes.

    The supremum over a polytope of the (convex) distance-to-the-other-set
    function is attained at a vertex, so vertex-to-polytope projections give
    the exact value.  Each vertex is projected onto the faces the other
    realization spans (`_directed_distance`), not onto every row subset.
    """
    if real1.vertex_count == 0 or real2.vertex_count == 0:
        raise EmptyPolytope("realizations must be nonempty")
    return max(_directed_distance(real1, real2),
               _directed_distance(real2, real1))


def phi_expansion_ratio(real1: PolytopeRealization,
                        real2: PolytopeRealization) -> float:
    """Observed dist_H / |b - b'|_inf for a pair of realizations.

    A diagnostic only: the library asserts no Lipschitz constant for the
    coordinates-to-polytope direction.
    """
    gap = float(np.abs(real1.b - real2.b).max())
    dist = hausdorff_polytopes(real1, real2)
    if gap == 0.0:
        return np.inf if dist > 0 else 1.0
    return dist / gap


def facet_dimension(real: PolytopeRealization, k: int) -> int:
    """Affine dimension of facet k's vertex hull; -1 for an empty facet."""
    idx = real.facet_vertices[k]
    if not idx:
        return -1
    pts = real.vertices[list(idx)]
    if pts.shape[0] == 1:
        return 0
    diffs = pts[1:] - pts[0]
    scale = 1.0 + float(np.abs(pts).max())
    sv = np.linalg.svd(diffs, compute_uv=False)
    return int((sv > 1e-7 * scale).sum())


@dataclass
class DegeneracyReport:
    """Boundary-stratum diagnosis of admissible coordinates."""

    flat: bool
    flat_witnesses: tuple
    facet_witnesses: dict

    @property
    def degenerate_facets(self) -> tuple:
        return tuple(sorted(self.facet_witnesses))


def diagnose_boundary(b, cone: CompiledCone) -> DegeneracyReport:
    """Read the boundary strata off the active membership columns.

    An active diamond column certifies a flat polytope (dimension < d); an
    active touching column at facet k certifies a degenerate facet
    (dimension <= d-2).  Pruned diamond columns are implied, not absent: on
    the boundary they are tested too, so a pruned planar cone still
    reports flatness.
    """
    cv = classify(b, cone)
    if cv.classification == EXTERIOR:
        raise ExteriorCoordinates("coordinates lie outside the cone")
    active = cv.active_columns
    if cv.classification == BOUNDARY:
        hidden = np.flatnonzero(cone.pruned & (cone.target == DIAMOND_TARGET))
        dots = (cone.weights[hidden] * cv.b[cone.support[hidden]]).sum(axis=1)
        active = np.union1d(hidden[np.abs(dots) <= classification_band(cv.b)],
                            np.asarray(active, dtype=np.intp))
    flat_witnesses = []
    facet_witnesses = {}
    for i in active:
        vertex = cone.vertex(i)
        if vertex.target == DIAMOND:
            flat_witnesses.append(vertex)
        else:
            facet_witnesses.setdefault(vertex.target, []).append(vertex)
    return DegeneracyReport(
        flat=bool(flat_witnesses),
        flat_witnesses=tuple(flat_witnesses),
        facet_witnesses={k: tuple(v) for k, v in facet_witnesses.items()})


# ---------------------------------------------------------------------------
# Realization geometry (consumed by objectives and constraints)

def facet_lengths_2d(real: PolytopeRealization) -> np.ndarray:
    """Facet lengths of a planar realization: the spread of each facet's
    vertices along its tangent (0 for a facet with under two vertices)."""
    if real.dimension != 2:
        raise ValueError("facet lengths require d = 2")
    n = real.normals.count
    counts = [len(idx) for idx in real.facet_vertices]
    facet = np.repeat(np.arange(n), counts)
    pts = real.vertices[np.fromiter(itertools.chain.from_iterable(
        real.facet_vertices), dtype=np.intp, count=facet.size)]
    A = real.normals.matrix
    proj = A[facet, 0] * pts[:, 1] - A[facet, 1] * pts[:, 0]
    hi = np.full(n, -np.inf)
    lo = np.full(n, np.inf)
    np.maximum.at(hi, facet, proj)
    np.minimum.at(lo, facet, proj)
    return np.where(np.array(counts) > 1, hi - lo, 0.0)


def _shoelace(x, y):
    """Area of the convex polygon with vertices (x, y), taken in angle
    order about their centroid."""
    x, y = x - x.mean(), y - y.mean()
    order = np.argsort(np.arctan2(y, x))
    x, y = x[order], y[order]
    return 0.5 * float(np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def polygon_area(real: PolytopeRealization) -> float:
    """Shoelace area of a planar realization."""
    if real.dimension != 2:
        raise ValueError("shoelace area requires d = 2")
    if real.vertex_count < 3:
        return 0.0
    return _shoelace(real.vertices[:, 0], real.vertices[:, 1])


def _facet_polygon_area_3d(real, k):
    idx = real.facet_vertices[k]
    if len(idx) < 3:
        return 0.0
    pts = real.vertices[list(idx)]
    a = real.normals.matrix[k]
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(a)))] = 1.0
    u = np.cross(a, seed)
    u /= np.linalg.norm(u)
    return _shoelace(pts @ u, pts @ np.cross(a, u))


def facet_measures(real: PolytopeRealization) -> np.ndarray:
    """(d-1)-volume of every facet (length for d=2, polygon area for d=3)."""
    if real.dimension == 2:
        return facet_lengths_2d(real)
    if real.dimension == 3:
        return np.array([_facet_polygon_area_3d(real, k)
                         for k in range(real.normals.count)])
    raise ValueError("facet measures implemented for d in {2, 3}")


def facet_area_jacobian(real: PolytopeRealization) -> np.ndarray:
    """Jacobian dF_k / db_j of the facet areas of a d = 3 realization,
    which is the Hessian of the volume.

    Facets k != j meeting along an edge of length l_kj give l_kj / |a_k x
    a_j|: moving plane j out by db slides that edge across facet k by
    db / |a_k x a_j|.  Moving plane k itself slides every edge of facet k
    by -(a_k . a_j) db / |a_k x a_j|, so the diagonal is the sum of those
    terms; this is the d = 3 form of the planar Lam of
    `normals.planar_forms`.
    Exact where the polytope is simple; elsewhere the volume is only
    piecewise smooth.
    """
    if real.dimension != 3:
        raise ValueError("the facet-area Jacobian requires d = 3")
    A = real.normals.matrix
    n = real.normals.count
    incidence = np.zeros((real.vertex_count, n), dtype=bool)
    for v, active in enumerate(real.active_sets):
        incidence[v, list(active)] = True
    shared = incidence.T.astype(int) @ incidence
    k, j = np.nonzero(np.triu(shared >= 2, 1))
    cross = np.cross(A[k], A[j])
    sine = np.linalg.norm(cross, axis=1)
    # Edge kj spans the shared vertices along the line direction a_k x a_j.
    on_edge = incidence[:, k] & incidence[:, j]
    proj = real.vertices @ (cross / sine[:, None]).T
    length = (np.where(on_edge, proj, -np.inf).max(axis=0)
              - np.where(on_edge, proj, np.inf).min(axis=0))
    rate = length / sine
    jac = np.zeros((n, n))
    jac[k, j] = rate
    jac[j, k] = rate
    slide = -np.einsum("pd,pd->p", A[k], A[j]) * rate
    np.add.at(jac, (k, k), slide)
    np.add.at(jac, (j, j), slide)
    return jac


def polytope_volume(real: PolytopeRealization) -> float:
    """Volume via the support decomposition V = (1/d) sum_k b_k |facet_k|.

    Exact when b holds the attained support values, which realize()
    guarantees for admissible coordinates.  For d = 2 the shoelace value is
    used directly.
    """
    if real.dimension == 2:
        return polygon_area(real)
    measures = facet_measures(real)
    return float(real.b @ measures) / real.dimension


def perimeter_2d(real: PolytopeRealization) -> float:
    return float(facet_lengths_2d(real).sum())
