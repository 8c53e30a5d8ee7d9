"""Normal systems: validated matrices of unit outer facet normals, and the
closed forms of a planar system (its angle order and facet-length form)."""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimension, DuplicateRow, ZeroRow
from .lp import recession_bounded

UNIT_TOL = 1e-12
DISTINCT_TOL = 1e-9


@dataclass(eq=False)
class NormalSystem:
    """Matrix of pairwise distinct unit outer normals a_1..a_N in R^d.

    `renormalized` flags inputs whose rows needed rescaling to unit length.
    Treat instances as immutable after construction.
    """

    matrix: np.ndarray
    renormalized: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def angles(self) -> np.ndarray:
        """Row angles in [0, 2pi), d = 2 only."""
        if self.dimension != 2:
            raise BadDimension("angles are defined for d = 2")
        return np.mod(np.arctan2(self.matrix[:, 1], self.matrix[:, 0]), 2 * np.pi)


def validate_normals(raw) -> NormalSystem:
    """Build a NormalSystem from a raw matrix.

    Rows are rescaled to unit length when needed (flagged via
    `renormalized`); zero rows, duplicate rows and d < 2 are rejected.
    """
    matrix = np.asarray(raw, dtype=float)
    if matrix.ndim != 2:
        raise BadDimension("normal matrix must be 2-dimensional")
    n, d = matrix.shape
    if d < 2:
        raise BadDimension(f"ambient dimension must be >= 2, got {d}")
    if n < 1:
        raise BadDimension("normal matrix needs at least one row")
    if not np.isfinite(matrix).all():
        raise ValueError("normal matrix has non-finite entries")

    norms = np.linalg.norm(matrix, axis=1)
    zero = np.nonzero(norms <= UNIT_TOL)[0]
    if zero.size:
        raise ZeroRow(f"row {int(zero[0])} has zero length")
    renormalized = bool((np.abs(norms - 1.0) > UNIT_TOL).any())
    matrix = matrix / norms[:, None]

    for i in range(n):
        gaps = np.abs(matrix[i + 1:] - matrix[i]).max(axis=1)
        hit = np.nonzero(gaps <= DISTINCT_TOL)[0]
        if hit.size:
            raise DuplicateRow(f"rows {i} and {i + 1 + int(hit[0])} coincide")

    matrix.setflags(write=False)
    return NormalSystem(matrix=matrix, renormalized=renormalized)


def check_bounded(ns: NormalSystem) -> bool:
    """True iff {x : Ax <= 0} = {0}, i.e. the space consists of polytopes;
    `lp.recession_bounded`, cached on `ns`."""
    cached = ns._cache.get("bounded")
    if cached is None:
        cached = ns._cache["bounded"] = recession_bounded(ns.matrix)
    return cached


def angle_pairs(ns: NormalSystem) -> np.ndarray:
    """Angle-consecutive (lo, hi) row pairs of a planar system in
    lexicographic order, as the generic vertex search sorts active sets;
    cached on `ns`.  A reflected or permuted system is not in index order."""
    cached = ns._cache.get("angle_pairs")
    if cached is None:
        order = np.argsort(ns.angles(), kind="stable")
        pairs = np.sort(np.column_stack([order, np.roll(order, -1)]), axis=1)
        cached = pairs[np.lexsort(pairs.T[::-1])]
        cached.setflags(write=False)
        ns._cache["angle_pairs"] = cached
    return cached


def planar_forms(ns: NormalSystem):
    """(Lam, w) of a planar system, cached on `ns`.

    For coordinates b in the cone, the facet lengths are L = Lam b, the
    area is b . Lam b / 2 and the perimeter is w . b with w = Lam^T 1 (the
    mixed-area identity).  Lam is symmetric and cyclic tridiagonal in angle
    order: the vertex on row k and its neighbour j lies (b_j - (a_k . a_j)
    b_k) / |a_k x a_j| from the point b_k a_k along facet k, towards j, and
    L_k sums this over the two neighbours.  Dot and cross products, not
    angle differences, make Lam bitwise invariant under axis reflections.
    """
    cached = ns._cache.get("planar_forms")
    if cached is not None:
        return cached
    pairs = angle_pairs(ns)
    a, c = ns.matrix[pairs[:, 0]], ns.matrix[pairs[:, 1]]
    cross = np.abs(a[:, 0] * c[:, 1] - a[:, 1] * c[:, 0])
    dot = a[:, 0] * c[:, 0] + a[:, 1] * c[:, 1]
    lam = np.zeros((ns.count, ns.count))
    lam[pairs[:, 0], pairs[:, 1]] = 1.0 / cross
    lam[pairs[:, 1], pairs[:, 0]] = 1.0 / cross
    np.add.at(lam, (pairs.ravel(),) * 2, np.repeat(-dot / cross, 2))
    w = lam.sum(axis=0)
    lam.setflags(write=False)
    w.setflags(write=False)
    cached = ns._cache["planar_forms"] = (lam, w)
    return cached
