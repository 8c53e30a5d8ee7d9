"""Nested spherical-grid normal systems and approximation constants.

Grids are generated from dyadic angle indices so that coarse rows reappear
bitwise-identically in every finer level; nesting is then a plain
subsequence property.  The two constants attached to a system measure how
densely its normals cover the sphere (delta) and how efficiently dual
representations average nearby normals (kappa).
"""

from dataclasses import dataclass
import itertools

import numpy as np

from .cone import INDEP_TOL, _size_guard
from .coordinates import (CoordinateVector, EXTERIOR, UNCLASSIFIED,
                          _vertex_array, classify, realize)
from .errors import (BadDimension, BadLevel, EmptyPolytope,
                     ExteriorCoordinates, NumericalFailure, UnboundedSpace)
from .lp import _combinations_array, enumerate_primal_vertices
from .normals import NormalSystem, check_bounded, validate_normals
from .spheres import fibonacci_mesh, fibonacci_sphere

MIN_SAMPLES = {2: 1000, 3: 10_000}


def spherical_grid_normals(d: int, k: int) -> NormalSystem:
    """Normals on the dyadic spherical grid with angle step pi / 2^k.

    Poles and the azimuthal seam are deduplicated by index arithmetic, so
    rows of level k appear bitwise among rows of level k+1.
    """
    if d == 2:
        if k < 1:
            raise BadLevel("planar grids start at level 1")
        step = np.pi / 2 ** k
        angles = step * np.arange(2 ** (k + 1))
        rows = np.column_stack([np.cos(angles), np.sin(angles)])
    elif d == 3:
        if k < 2:
            raise BadLevel("spherical grids start at level 2")
        step = np.pi / 2 ** k
        rows = []
        for i1 in range(2 ** k + 1):
            theta1 = step * i1
            azimuthal = [0] if i1 in (0, 2 ** k) else range(2 ** (k + 1))
            for i2 in azimuthal:
                theta2 = step * i2
                rows.append((np.cos(theta1),
                             np.sin(theta1) * np.cos(theta2),
                             np.sin(theta1) * np.sin(theta2)))
        rows = np.array(rows)
    else:
        raise BadDimension("grid generators cover d in {2, 3}")
    ns = validate_normals(rows)
    if not check_bounded(ns):
        raise UnboundedSpace("grid produced a non-spanning normal set")
    return ns


def _subsequence_map(coarse: np.ndarray, fine: np.ndarray):
    """Positions of the coarse rows inside the fine matrix, in order;
    None when the coarse rows are not a subsequence."""
    positions = np.empty(coarse.shape[0], dtype=np.intp)
    j = 0
    for i in range(coarse.shape[0]):
        while j < fine.shape[0] and not np.array_equal(fine[j], coarse[i]):
            j += 1
        if j == fine.shape[0]:
            return None
        positions[i] = j
        j += 1
    return positions


@dataclass(eq=False)
class GalerkinSequence:
    """Nested normal systems: rows of each level reappear, in order, in the
    next one, and every level spans a space of bounded polytopes."""

    levels: tuple
    row_maps: tuple

    @classmethod
    def from_systems(cls, systems):
        systems = tuple(systems)
        if not systems:
            raise ValueError("sequence needs at least one level")
        maps = []
        for coarse, fine in zip(systems, systems[1:]):
            positions = _subsequence_map(coarse.matrix, fine.matrix)
            if positions is None:
                raise ValueError("levels are not nested row-subsequences")
            maps.append(positions)
        for ns in systems:
            if not check_bounded(ns):
                raise UnboundedSpace("every level must span polytopes")
        return cls(levels=systems, row_maps=tuple(maps))

    @classmethod
    def from_grid(cls, d: int, ks):
        ks = list(ks)
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise BadLevel("grid levels must be strictly increasing")
        return cls.from_systems([spherical_grid_normals(d, k) for k in ks])

    def row_map(self, from_level: int, to_level: int) -> np.ndarray:
        """Indices of the from-level rows inside the to-level matrix."""
        if not 0 <= from_level <= to_level < len(self.levels):
            raise ValueError("invalid level pair")
        positions = np.arange(self.levels[from_level].count)
        for step in range(from_level, to_level):
            positions = self.row_maps[step][positions]
        return positions


def estimate_delta(ns: NormalSystem, samples: int | None = None) -> float:
    """Covering density of the normals in the unit sphere.

    d=2: exact value from the largest angular gap (the farthest direction
    within a gap is its midpoint).  d=3: sampled supremum inflated by the
    probe mesh; an estimate, not a certificate.
    """
    d = ns.dimension
    if samples is None:
        samples = 2048 if d == 2 else MIN_SAMPLES[3]
    if d in MIN_SAMPLES and samples < MIN_SAMPLES[d]:
        raise ValueError(f"need at least {MIN_SAMPLES[d]} samples for d={d}")
    if d == 2:
        angles = np.sort(ns.angles())
        gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
        return float(2.0 * np.sin(gaps.max() / 4.0))
    if d != 3:
        raise BadDimension("delta estimation covers d in {2, 3}")
    dirs = fibonacci_sphere(samples)
    worst = 0.0
    chunk = max(1, 2_000_000 // max(ns.count, 1))
    for start in range(0, samples, chunk):
        block = dirs[start:start + chunk]
        dots = np.clip(block @ ns.matrix.T, -1.0, 1.0)
        nearest = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots.max(axis=1)))
        worst = max(worst, float(nearest.max()))
    return worst + fibonacci_mesh(samples)


_MIX_TS = np.linspace(0.0, 1.0, 33)[1:-1]


def _mixture_minimum(ns, c, rep_a, rep_b):
    """Cheapest cost along the segment between two dual representations."""
    support = sorted(set(rep_a[0]) | set(rep_b[0]))
    index = {s: j for j, s in enumerate(support)}
    qa = np.zeros(len(support))
    qb = np.zeros(len(support))
    for s, w in zip(*rep_a):
        qa[index[s]] += w
    for s, w in zip(*rep_b):
        qb[index[s]] += w
    q = (1.0 - _MIX_TS[:, None]) * qa + _MIX_TS[:, None] * qb
    r = q.sum(axis=1)
    diffs = ns.matrix[support][None, :, :] - c[None, None, :] / r[:, None, None]
    gaps = np.linalg.norm(diffs, axis=2)
    return float((q * gaps).sum(axis=1).min())


def _every_subset(ns):
    """Per subset size 1..d, every index subset of the normals."""
    return [_combinations_array(ns.count, size)
            for size in range(1, ns.dimension + 1)]


def _hull_subsets(ns):
    """Per subset size 1..d, the index subsets of the active sets of the
    vertices of the polar {x : Ax <= 1}.  Those active sets are the facets
    of the normals' convex hull, so every direction lies in the cone of one
    of these subsets."""
    families = [set() for _ in range(ns.dimension)]
    for _, facet in enumerate_primal_vertices(ns.matrix, np.ones(ns.count)):
        for size, family in enumerate(families, start=1):
            family.update(itertools.combinations(facet, size))
    return [np.array(sorted(family), dtype=np.intp).reshape(-1, size)
            for size, family in enumerate(families, start=1)]


def _subset_solvers(ns, subsets):
    """Per subset size: (index rows, normals rows, equation matrix,
    pseudoinverse) of the linearly independent index subsets among
    `subsets`, one array of index rows per size, precomputed once."""
    data = []
    for combos in subsets:
        E = ns.matrix[combos].transpose(0, 2, 1)        # (S, d, size)
        U, S, Vt = np.linalg.svd(E, full_matrices=False)
        ok = S[:, -1] > INDEP_TOL
        U, S, Vt = U[ok], S[ok], Vt[ok]
        pinv = Vt.transpose(0, 2, 1) @ (U.transpose(0, 2, 1) / S[:, :, None])
        data.append((combos[ok], ns.matrix[combos[ok]], E[ok], pinv))
    return data


def _vertex_costs(dirs, solvers, block=65_536):
    """Per block of about `block` (direction, subset) entries and per
    family of solvers, (direction indices, family, subset indices, weights,
    costs) of the dual vertices of the directions on the solvers' subsets:
    the entries with a strictly positive exact representation, the only
    ones priced."""
    largest = max(len(pinv) for *_, pinv in solvers)
    chunk = max(1, block // max(largest, 1))
    for start in range(0, dirs.shape[0], chunk):
        C = dirs[start:start + chunk]
        for family, (_, rows, E, pinv) in enumerate(solvers):
            W = np.einsum("psd,cd->cps", pinv, C)
            ci, pi = np.nonzero((W > 1e-12).all(axis=2))
            w = W[ci, pi]
            resid = np.einsum("eds,es->ed", E[pi], w) - C[ci]
            exact = np.abs(resid).max(axis=1) <= 1e-9
            ci, pi, w = ci[exact], pi[exact], w[exact]
            shrunk = C[ci] / w.sum(axis=1)[:, None]
            gaps = np.linalg.norm(rows[pi] - shrunk[:, None, :], axis=2)
            yield start + ci, family, pi, w, (w * gaps).sum(axis=1)


def _vertex_cost_minima(ns, dirs, solvers, block=65_536):
    """Per direction, the cheapest cost over the dual vertices supported on
    the solvers' subsets; inf where none represents the direction."""
    out = np.full(dirs.shape[0], np.inf)
    for ci, _, _, _, costs in _vertex_costs(dirs, solvers, block):
        np.minimum.at(out, ci, costs)
    return out


def _direction_cost(ns, c, solvers):
    """The cost of direction c: the cheapest of its dual vertices supported
    on the solvers' subsets and of the two-point mixtures of the four
    cheapest, ordered by cost and then by support.  The vertex costs are
    `_vertex_cost_minima`'s, so the result never exceeds its value for c.
    """
    found = sorted((cost, tuple(s), tuple(w))
                   for _, f, pi, weights, costs in _vertex_costs(c[None],
                                                                 solvers)
                   for s, w, cost in zip(solvers[f][0][pi].tolist(),
                                         weights.tolist(), costs.tolist()))
    if not found:
        raise NumericalFailure("direction admits no dual representation")
    best = found[0][0]
    for (_, *rep_a), (_, *rep_b) in itertools.combinations(found[:4], 2):
        best = min(best, _mixture_minimum(ns, c, rep_a, rep_b))
    return best


def _kappa_directions(ns, samples):
    """The directions estimate_kappa maximizes over: in d=2 `samples`
    uniform angles plus every adjacent-pair angular midpoint, in d=3 a
    Fibonacci sphere."""
    if ns.dimension == 2:
        angles = np.sort(ns.angles())
        mids = angles + np.diff(np.append(angles, angles[0] + 2 * np.pi)) / 2.0
        thetas = np.concatenate([2 * np.pi * np.arange(samples) / samples, mids])
        return np.column_stack([np.cos(thetas), np.sin(thetas)])
    if ns.dimension == 3:
        return fibonacci_sphere(samples)
    raise BadDimension("kappa estimation covers d in {2, 3}")


def estimate_kappa(ns: NormalSystem, samples: int | None = None) -> float:
    """Sampled supremum over directions of the cheapest dual representation
    cost; minimization runs over dual vertices and two-point mixtures, so
    the per-direction value over-estimates the true infimum.  Reported as
    an estimate, not a certificate.

    The dimension picks only the directions: in d=2, `samples` uniform
    angles plus every adjacent-pair angular midpoint, where the supremum
    sits for evenly spread systems; in d=3, a Fibonacci sphere.

    Every direction first gets an upper bound u: the cheapest dual vertex
    supported on a subset of one facet of the normals' convex hull (the
    rows tight at a vertex of the polar {x : Ax <= 1}, bounded because the
    space is).  Every direction lies in the cone of such a facet, so in d=2
    the N adjacent pairs and N singletons serve, and on d = 3 grid level 2
    194 subsets instead of 2,402 independent ones.  A direction whose bound
    is not finite (rounding on a facet boundary) is bounded over every
    independent subset instead.  The directions are then refined with
    `_direction_cost` over every independent subset in decreasing u until
    u cannot beat the worst cost found.  Bound and refinement price a
    vertex with one kernel, so the refined cost never exceeds u, and every
    direction left out costs at most the worst: the value is the maximum
    of the refined cost over all directions, exactly what bounding over
    every subset returns.  d=3 is refused above SIZE_GUARDS[3] before any
    subset is enumerated; d=2 is unguarded.
    """
    d = ns.dimension
    if samples is None:
        samples = 1024 if d == 2 else MIN_SAMPLES[3]
    if d in MIN_SAMPLES and samples < MIN_SAMPLES[d]:
        raise ValueError(f"need at least {MIN_SAMPLES[d]} samples for d={d}")
    if not check_bounded(ns):
        raise UnboundedSpace("kappa requires a space of polytopes")
    if d == 3:
        _size_guard(ns, allow_large=False)
    dirs = _kappa_directions(ns, samples)
    every = _subset_solvers(ns, _every_subset(ns))
    bound = _vertex_cost_minima(ns, dirs,
                                _subset_solvers(ns, _hull_subsets(ns)))
    missed = ~np.isfinite(bound)
    if missed.any():
        bound[missed] = _vertex_cost_minima(ns, dirs[missed], every)
    if not np.isfinite(bound).all():
        raise NumericalFailure("a direction admits no dual representation")
    worst = -np.inf
    for idx in np.argsort(-bound):
        if bound[idx] <= worst:
            break
        worst = max(worst, _direction_cost(ns, dirs[idx], every))
    return float(worst)


def adjacent_rho(ns: NormalSystem) -> float:
    """Minimum dot product of angularly adjacent normals (d = 2)."""
    angles = np.sort(ns.angles())
    nxt = np.roll(angles, -1)
    gaps = np.mod(nxt - angles, 2 * np.pi)
    return float(np.cos(gaps.max()))


def kappa_rho_bound(rho: float) -> float:
    """Upper bound sqrt((2 - 2 rho) / rho) valid whenever adjacent-pair
    representations exist with pairwise dot products >= rho > 0."""
    if rho <= 0.0:
        return np.inf
    return float(np.sqrt((2.0 - 2.0 * rho) / rho))


def embed_coordinates(b, seq: GalerkinSequence, from_level: int,
                      to_level: int, *, coarse_cone=None) -> CoordinateVector:
    """Coordinates of a coarse-level polytope inside a finer level.

    Shared rows are copied; each new row gets the support value of the
    coarse polytope, max_v a_i . v over its vertices.  With `coarse_cone`
    the vertices come from `realize` (in d = 2 usually its O(N) path);
    without it, from the line clipping of `lp.vertex_points`, which also
    checks that `b` is minimal.  The result always lands on the boundary
    of the fine cone.
    """
    if from_level >= to_level:
        raise ValueError("target level must be finer than the source")
    b = np.asarray(b, dtype=float)
    coarse = seq.levels[from_level]
    fine = seq.levels[to_level]
    if b.shape != (coarse.count,):
        raise ValueError("coordinate length does not match the source level")

    if coarse_cone is not None:
        cv = classify(b, coarse_cone)
        if cv.classification == EXTERIOR:
            raise ExteriorCoordinates("source coordinates are not admissible")
        vertices = realize(b, coarse_cone, precomputed_class=cv).vertices
    else:
        try:
            vertices = _vertex_array(coarse, b)
        except EmptyPolytope as exc:
            raise ExteriorCoordinates("source coordinates are infeasible") from exc
        support = (coarse.matrix @ vertices.T).max(axis=1)
        tol = 1e-7 * (1.0 + float(np.abs(b).max()))
        if (b - support).max() > tol:
            raise ExteriorCoordinates("source coordinates are not minimal")

    mapping = seq.row_map(from_level, to_level)
    new_rows = np.ones(fine.count, dtype=bool)
    new_rows[mapping] = False
    fine_b = np.empty(fine.count)
    fine_b[mapping] = b
    fine_b[new_rows] = (fine.matrix[new_rows] @ vertices.T).max(axis=1)
    return CoordinateVector(fine_b, UNCLASSIFIED)
