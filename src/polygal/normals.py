"""Normal systems: validated matrices of unit outer facet normals."""

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
