"""Support-function oracles for convex compact bodies.

Bodies are immutable evaluation trees closed under Minkowski sums and
nonnegative scaling (both free on support functions).  The projector into a
polytope space reads the support values along the facet normals; an interior
variant blends the result toward the all-ones ray to make it strictly
admissible.
"""

from dataclasses import dataclass, field

import numpy as np

from .cone import CompiledCone
from .coordinates import (CoordinateVector, INTERIOR, PolytopeRealization,
                          classify, realize)
from .errors import DegenerateBody, NumericalFailure, UnboundedBody
from .lp import farkas_feasible, recession_bounded, vertex_points
from .normals import NormalSystem
from .spheres import covering_mesh, unit_directions

UNIT_DIRECTION_TOL = 1e-9


class ConvexBody:
    """Base oracle: a positively homogeneous, subadditive support evaluator."""

    def support(self, u) -> float:
        raise NotImplementedError

    def support_many(self, U) -> np.ndarray:
        return np.array([self.support(u) for u in U])

    def norm(self) -> float:
        """The size sup_{c in C} |c|_2, or a certified over-estimate
        (see MinkowskiSum)."""
        raise NotImplementedError


@dataclass(eq=False)
class PointHull(ConvexBody):
    """Convex hull of finitely many points."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.size == 0:
            raise ValueError("point hull needs at least one point")

    def support(self, u):
        return float((self.points @ np.asarray(u, dtype=float)).max())

    def support_many(self, U):
        return (U @ self.points.T).max(axis=1)

    def norm(self):
        return float(np.linalg.norm(self.points, axis=1).max())


@dataclass(eq=False)
class Ball(ConvexBody):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    def support(self, u):
        return float(np.asarray(u) @ self.center) + self.radius

    def support_many(self, U):
        return U @ self.center + self.radius

    def norm(self):
        return float(np.linalg.norm(self.center)) + self.radius


@dataclass(eq=False)
class HalfspacePolytope(ConvexBody):
    """Body given by its own inequality description A' x <= b'."""

    normals: np.ndarray
    offsets: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.normals = np.asarray(self.normals, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=float)
        if self.normals.ndim != 2 or self.normals.shape[0] != self.offsets.shape[0]:
            raise ValueError("inconsistent halfspace description")
        feasible, _ = farkas_feasible(self.normals, self.offsets)
        if not feasible:
            raise ValueError("halfspace description is empty")

    def support(self, u):
        return float((self._vertices() @ np.asarray(u, dtype=float)).max())

    def support_many(self, U):
        return (U @ self._vertices().T).max(axis=1)

    def _vertices(self):
        """Vertex array (`lp.vertex_points`), found once.  Bodies are
        compact, so an unbounded description raises UnboundedBody in every
        direction."""
        verts = self._cache.get("vertices")
        if verts is None:
            if not recession_bounded(self.normals):
                raise UnboundedBody("halfspace body is unbounded")
            verts = vertex_points(self.normals, self.offsets)
            if not verts.size:
                raise NumericalFailure("bounded halfspace body has no vertex")
            self._cache["vertices"] = verts
        return verts

    def norm(self):
        return float(np.linalg.norm(self._vertices(), axis=1).max())


@dataclass(eq=False)
class MinkowskiSum(ConvexBody):
    parts: tuple

    def __post_init__(self):
        self.parts = tuple(self.parts)
        if not self.parts:
            raise ValueError("Minkowski sum needs at least one part")

    def support(self, u):
        return float(sum(part.support(u) for part in self.parts))

    def support_many(self, U):
        total = np.zeros(U.shape[0])
        for part in self.parts:
            total += part.support_many(U)
        return total

    def norm(self):
        # Triangle-inequality over-estimate; safe wherever an upper bound on
        # the size is required.
        return float(sum(part.norm() for part in self.parts))


@dataclass(eq=False)
class Scaled(ConvexBody):
    factor: float
    body: ConvexBody

    def __post_init__(self):
        if self.factor < 0:
            raise ValueError("scale factor must be nonnegative")

    def support(self, u):
        return self.factor * self.body.support(u)

    def support_many(self, U):
        return self.factor * self.body.support_many(U)

    def norm(self):
        return self.factor * self.body.norm()


def support(body: ConvexBody, direction) -> float:
    """Support value in a unit direction."""
    u = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > UNIT_DIRECTION_TOL:
        raise ValueError("direction must be a unit vector")
    return body.support(u)


@dataclass
class ProjectionResult:
    coords: CoordinateVector
    body_norm: float
    realization: PolytopeRealization | None = None


def project_coords(body: ConvexBody, space, *,
                   with_realization=False) -> ProjectionResult:
    """Support values of the body along the facet normals.

    `space` may be a NormalSystem (coordinates stay unclassified) or a
    CompiledCone (coordinates are classified; admissible by construction).
    """
    cone = space if isinstance(space, CompiledCone) else None
    ns = cone.normal_system if cone is not None else space
    if not isinstance(ns, NormalSystem):
        raise TypeError("space must be a NormalSystem or CompiledCone")
    b = body.support_many(ns.matrix)
    if cone is None:
        if with_realization:
            raise ValueError("realization requires a compiled cone")
        result = CoordinateVector(b)
        return ProjectionResult(result, body.norm())
    cv = classify(b, cone)
    real = realize(b, cone, precomputed_class=cv) if with_realization else None
    return ProjectionResult(cv, body.norm(), real)


def project_interior(body: ConvexBody, cone: CompiledCone, lam: float, *,
                     with_realization=False) -> ProjectionResult:
    """Blend the projection toward the all-ones ray: strictly interior
    coordinates at distance at most 2*lam*|C| from the plain projection."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    nrm = body.norm()
    if nrm <= 0.0:
        raise DegenerateBody("zero-size body cannot be shifted to interior")
    plain = body.support_many(cone.normal_system.matrix)
    b = (1.0 - lam) * plain + lam * nrm
    cv = classify(b, cone)
    if cv.classification != INTERIOR:
        raise NumericalFailure("interior shift failed to clear the boundary")
    real = realize(b, cone, precomputed_class=cv) if with_realization else None
    return ProjectionResult(cv, nrm, real)


def hausdorff_body_vs_polytope(body: ConvexBody, real: PolytopeRealization,
                               sphere_samples: int = 720):
    """Bracket [lower, upper] of the Hausdorff distance body vs realization.

    lower is the largest sampled support gap; upper adds the Lipschitz
    modulus 2 * max(sizes) * covering mesh of the direction sample.
    """
    d = real.dimension
    dirs = unit_directions(d, sphere_samples)
    mesh = covering_mesh(d, sphere_samples)
    sig_body = body.support_many(dirs)
    sig_poly = (dirs @ real.vertices.T).max(axis=1)
    lower = float(np.abs(sig_body - sig_poly).max())
    upper = lower + 2.0 * max(body.norm(), real.body_norm()) * mesh
    return lower, upper
