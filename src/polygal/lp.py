"""Linear-programming kernel.

Solves max{c.x : Ax <= b} with a two-phase primal simplex (Bland's rule) run
on the dual standard form min{b.p : A^T p = c, p >= 0}.  Every outcome carries
a certificate: an optimal dual vector, or a Farkas vector proving emptiness.
Also hosts the library's one general vertex search: `vertex_points` clips
the lines on which d - 1 rows are tight, and `enumerate_primal_vertices`
merges its points and adds the active sets; the lines' directions decide
boundedness (`recession_bounded`).
"""

from dataclasses import dataclass
from functools import lru_cache
import itertools

import numpy as np

from .errors import NumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
RANK_TOL = 1e-10
VERTEX_DEDUP_TOL = 1e-8
# Values per block of the line clipping and the ray test (rows x lines).
LINE_BLOCK = 250_000
BOUNDED_MARGIN = 1e-9   # see recession_bounded


def feasibility_slack(rhs):
    """Per-row feasibility tolerance 1e-9 * (1 + |b_i|)."""
    return 1e-9 * (1.0 + np.abs(rhs))


@dataclass
class LinearProgram:
    """max{objective . x : constraint_matrix x <= rhs}."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.constraint_matrix = np.asarray(self.constraint_matrix, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.constraint_matrix.ndim != 2:
            raise ValueError("constraint matrix must be 2-dimensional")
        m, d = self.constraint_matrix.shape
        if self.objective.shape != (d,):
            raise ValueError("objective dimension mismatch")
        if self.rhs.shape != (m,):
            raise ValueError("rhs length must equal constraint row count")
        if d < 1 or m < 1:
            raise ValueError("need at least one variable and one constraint")
        for arr in (self.objective, self.constraint_matrix, self.rhs):
            if not np.isfinite(arr).all():
                raise ValueError("non-finite entries in linear program")


@dataclass
class LpOutcome:
    """Result of solve_lp with status-dependent certificate fields.

    optimal:    primal_point x, value c.x, dual_certificate p with
                p >= 0, A^T p = c, b.p = value.
    infeasible: dual_certificate p with p >= 0, A^T p = 0, b.p < 0.
    unbounded:  no certificate fields.
    """

    status: str
    primal_point: np.ndarray | None = None
    value: float | None = None
    dual_certificate: np.ndarray | None = None


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    basis[row] = col


def _run_simplex(T, basis, max_iter, bounded=False):
    """Bland-rule simplex on a canonical tableau; returns ('optimal', -1) or
    ('unbounded', entering_column).

    With `bounded` the objective is known to be bounded below (phase 1), so
    a column with negative reduced cost and no positive entry is rounding,
    not an improving ray: it is passed over for the next Bland candidate.
    """
    m = len(basis)
    for _ in range(max_iter):
        reduced = T[-1, :-1]
        for j in np.nonzero(reduced < -_COST_TOL)[0]:
            col = T[:m, j]
            pos = np.nonzero(col > _PIVOT_TOL)[0]
            if pos.size:
                break
            if not bounded:
                return UNBOUNDED, int(j)
        else:
            return OPTIMAL, -1
        ratios = T[:m, -1][pos] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12 * (1.0 + abs(best))]
        row = int(min(ties, key=lambda i: basis[i]))
        _pivot(T, basis, row, int(j))
    raise NumericalFailure("simplex exceeded its iteration budget")


def _standard_form_simplex(cost, A_eq, b_eq):
    """min{cost . z : A_eq z = b_eq, z >= 0} by two-phase simplex.

    Returns (status, z, y, ray) where y are the equality multipliers
    (zero on rows found redundant in phase 1) and ray is an unbounded
    improving direction when status is 'unbounded' (None when the final
    basis is singular).
    """
    A_eq = np.asarray(A_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, n = A_eq.shape
    max_iter = 2000 + 100 * (n + m)

    A = A_eq.copy()
    b = b_eq.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial variables form the initial basis.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    _run_simplex(T, basis, max_iter, bounded=True)
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    if -T[-1, -1] > 1e-8 * scale:
        return INFEASIBLE, None, None, None

    # Drive leftover artificials out of the basis; rows with no eligible
    # pivot are redundant equalities and get dropped.
    drop_rows = []
    for row in range(m):
        if basis[row] < n:
            continue
        eligible = np.nonzero(np.abs(T[row, :n]) > _PIVOT_TOL)[0]
        if eligible.size == 0:
            drop_rows.append(row)
        else:
            _pivot(T, basis, row, int(eligible[0]))
    keep = [i for i in range(m) if i not in drop_rows]
    if drop_rows:
        rows = keep + [m]
        T = T[rows]
    basis = [basis[i] for i in keep]
    mk = len(basis)

    # Phase 2 cost row over the original columns.
    T = np.hstack([T[:, :n], T[:, -1:]])
    T[-1, :n] = cost - cost[basis] @ T[:mk, :n]
    T[-1, -1] = -cost[basis] @ T[:mk, -1]
    status, enter = _run_simplex(T, basis, max_iter)

    orig_rows = np.array([i for i in range(m) if i not in drop_rows], dtype=int)
    B = A_eq[np.ix_(orig_rows, basis)] if mk else np.zeros((0, 0))

    if status == UNBOUNDED:
        ray = np.zeros(n)
        ray[enter] = 1.0
        if mk:
            try:
                ray[basis] = np.linalg.solve(B, -A_eq[orig_rows, enter])
            except np.linalg.LinAlgError:
                # Rounding let dependent columns into the basis, which
                # then yields no ray; the caller certifies another way.
                return UNBOUNDED, None, None, None
        np.clip(ray, 0.0, None, out=ray)
        return UNBOUNDED, None, None, ray

    z = np.zeros(n)
    y = np.zeros(m)
    if mk:
        try:
            z[basis] = np.linalg.solve(B, b_eq[orig_rows])
            y[orig_rows] = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular optimal basis") from exc
    np.clip(z, 0.0, None, out=z)
    residual = np.abs(A_eq @ z - b_eq).max(initial=0.0)
    if residual > 1e-6 * scale:
        raise NumericalFailure("optimal basis failed to reproduce equalities")
    return OPTIMAL, z, y, None


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve max{c.x : Ax <= b} with the status trichotomy and certificates."""
    A = lp.constraint_matrix
    b = lp.rhs
    c = lp.objective
    status, p, x, ray = _standard_form_simplex(cost=b, A_eq=A.T, b_eq=c)
    if status == OPTIMAL:
        return LpOutcome(OPTIMAL, primal_point=x, value=float(c @ x),
                         dual_certificate=p)
    if ray is not None:
        # The dual decreases without bound along ray r >= 0 with A^T r = 0 and
        # b.r < 0, which is exactly a Farkas certificate for the primal.
        return LpOutcome(INFEASIBLE, dual_certificate=ray)
    feasible, certificate = farkas_feasible(A, b)
    if not feasible:
        return LpOutcome(INFEASIBLE, dual_certificate=certificate)
    if status == UNBOUNDED:
        raise NumericalFailure("singular basis at unbounded ray")
    return LpOutcome(UNBOUNDED)


def farkas_feasible(A, b):
    """Decide whether {x : Ax <= b} is nonempty.

    Returns (True, None) or (False, p) with p >= 0, A^T p = 0 and b.p < 0.
    The certificate is found by minimizing b.p over the normalized dual
    slice {p >= 0 : A^T p = 0, 1^T p = 1}.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, d = A.shape
    A_eq = np.vstack([A.T, np.ones((1, m))])
    b_eq = np.zeros(d + 1)
    b_eq[-1] = 1.0
    status, p, _, _ = _standard_form_simplex(cost=b, A_eq=A_eq, b_eq=b_eq)
    if status == INFEASIBLE:
        # The slice is empty, so no nonnegative combination of the rows
        # vanishes and every right-hand side is feasible.
        return True, None
    if status != OPTIMAL:
        raise NumericalFailure("normalized dual slice reported unbounded")
    tol = 1e-9 * (1.0 + float(np.abs(b).max()))
    value = float(b @ p)
    if value < -tol:
        return False, p
    return True, None


@lru_cache(maxsize=64)
def _combinations_array(n, k):
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


def _solve_subsystems(A, b, combos):
    """Solve the square systems A[S] x = b[S] for every index subset S,
    returning (solutions, mask of nonsingular subsets)."""
    M = A[combos]
    if A.shape[1] == 2:
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        ok = np.abs(det) > RANK_TOL
        r = b[combos]
        x = np.empty((combos.shape[0], 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            x[:, 0] = (M[:, 1, 1] * r[:, 0] - M[:, 0, 1] * r[:, 1]) / det
            x[:, 1] = (M[:, 0, 0] * r[:, 1] - M[:, 1, 0] * r[:, 0]) / det
        return x, ok
    det = np.linalg.det(M)
    ok = np.abs(det) > RANK_TOL
    x = np.zeros((combos.shape[0], A.shape[1]))
    if ok.any():
        x[ok] = np.linalg.solve(M[ok], b[combos[ok]][:, :, None])[:, :, 0]
    return x, ok


def _tight_lines(A):
    """Blocks (lines, M, u) of about LINE_BLOCK values (rows x lines) of the
    lines on which d - 1 rows M of A are tight, with u the cofactor vector
    of M: a . u is the determinant of M with the row a appended, the test
    `_solve_subsystems` applies, and |u|^2 is det(M M^T)."""
    n, d = A.shape
    lines_all = _combinations_array(n, d - 1)
    size = max(1, LINE_BLOCK // n)
    for start in range(0, lines_all.shape[0], size):
        lines = lines_all[start:start + size]
        M = A[lines]
        yield lines, M, np.stack(
            [(-1) ** j * np.linalg.det(np.delete(M, j, axis=2))
             for j in range(d)], axis=1)


def recession_bounded(A):
    """True iff {x : Ax <= 0} = {0}, with no LP.

    Where rank A = d, a nonzero recession cone is pointed, so it has an
    extreme ray +-u from `_tight_lines`, with max_i a_i . u <= 0.  Bounded
    means every unit +-u (u != 0) has max_i a_i . u > BOUNDED_MARGIN, in
    units of |a_i|: a margin in (0, BOUNDED_MARGIN] reads as unbounded by
    policy.  Rounding may turn the u of nearly dependent rows, which only
    matters where every unit direction's margin is that small.  In d = 2
    the margin is at least half of pi minus the largest angular gap.
    """
    A = np.asarray(A, dtype=float)
    if np.linalg.matrix_rank(A) < A.shape[1]:
        return False
    for _, _, u in _tight_lines(A):
        u = u[(u != 0.0).any(axis=1)]
        g = A @ (u / np.linalg.norm(u, axis=1)[:, None]).T
        if (g.max(axis=0) <= BOUNDED_MARGIN).any() \
                or (g.min(axis=0) >= -BOUNDED_MARGIN).any():
            return False
    return True


def vertex_points(A, b):
    """Vertices of {x : Ax <= b} as a (P, d) array, a vertex once for each
    subset found to close it; empty when the region is empty or contains a
    line.

    Each vertex ends the segment that the region cuts from a line through
    it on which d - 1 independent rows hold with equality.  Every such line
    is clipped by all rows at once, and the row bounding it most tightly on
    either side closes a d-subset; those subsets are solved and kept when
    feasible to the slack of `feasibility_slack`.  That is C(n, d - 1) clips
    of n rows, in blocks of about LINE_BLOCK values.  Repeats are left in:
    maxima over the points do not see them, and `enumerate_primal_vertices`
    merges them.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n, d = A.shape
    points = [np.empty((0, d))]
    if n < d:
        return points[0]
    bound = b + feasibility_slack(b)
    for lines, M, u in _tight_lines(A):
        # Skip lines with |u|^2 <= RANK_TOL: their vertices close subsets
        # with |det| <= 1e-5 and also end the lines of their other rows.
        keep = (u * u).sum(axis=1) > RANK_TOL
        lines, M, u = lines[keep], M[keep], u[keep]
        w = np.linalg.solve(M @ M.transpose(0, 2, 1), b[lines][:, :, None])
        x0 = (M.transpose(0, 2, 1) @ w)[:, :, 0]
        # On x0 + t u, row k caps t at r_k / g_k from above when g_k > 0
        # and from below when g_k < 0.
        g = A @ u.T
        r = b[:, None] - A @ x0.T
        upper = np.full(g.shape, np.inf)
        np.divide(r, g, out=upper, where=g > RANK_TOL)
        lower = np.full(g.shape, -np.inf)
        np.divide(r, g, out=lower, where=g < -RANK_TOL)
        ends = []
        for t, k in ((upper, upper.argmin(axis=0)),
                     (lower, lower.argmax(axis=0))):
            finite = np.isfinite(t[k, np.arange(k.size)])
            ends.append(np.column_stack([lines[finite], k[finite]]))
        combos = np.sort(np.vstack(ends), axis=1)
        # One solve per subset: its rows as the digits of a base-n key.
        _, first = np.unique(combos @ n ** np.arange(d - 1, -1, -1),
                             return_index=True)
        combos = combos[first]
        x, ok = _solve_subsystems(A, b, combos)
        x = x[ok]
        points.append(x[(A @ x.T <= bound[:, None]).all(axis=0)])
    return np.vstack(points)


def _close_pairs(points):
    """Index pairs (i, j), i < j, of rows of `points` within
    VERTEX_DEDUP_TOL of each other in the max norm.

    Two such points are within the tolerance along s = points . w for
    every w with |w|_1 = 1, so only points that neighbour in the order of s
    are compared; a w with irrational ratios keeps distinct vertices of a
    symmetric polytope from sharing a value of s.
    """
    P, d = points.shape
    w = np.sqrt(np.arange(2.0, d + 2.0))
    s = points @ (w / w.sum())
    order = np.argsort(s, kind="stable")
    s = s[order]
    span = np.searchsorted(s, s + VERTEX_DEDUP_TOL, side="right") \
        - np.arange(1, P + 1)
    first = np.repeat(np.arange(P), span)
    second = first + 1 + np.arange(first.size) \
        - np.repeat(np.cumsum(span) - span, span)
    i, j = order[first], order[second]
    close = np.abs(points[i] - points[j]).max(axis=1) <= VERTEX_DEDUP_TOL
    i, j = i[close], j[close]
    return np.minimum(i, j), np.maximum(i, j)


def _distinct_points(points):
    """The points in lexsort order, each dropped when it lies within
    VERTEX_DEDUP_TOL of an earlier point that is kept; no two that remain
    are that close."""
    points = points[np.lexsort(points.T[::-1])]
    keep = np.ones(points.shape[0], dtype=bool)
    i, j = _close_pairs(points)
    for second, first in sorted(zip(j.tolist(), i.tolist())):
        keep[second] &= not keep[first]
    return points[keep]


def enumerate_primal_vertices(A, b):
    """Vertices of {x : Ax <= b} with their active index sets: a list of
    (vertex, active_set) sorted by active set, empty when the region is
    empty or contains a line.

    The `vertex_points` of the region, merged by `_distinct_points`; a row
    is active where |a_i . v - b_i| is within `feasibility_slack`.  Whether
    the region is bounded is the caller's question (`check_bounded`).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    verts = _distinct_points(vertex_points(A, b))
    slack = feasibility_slack(b)
    activity = np.abs(A @ verts.T - b[:, None]) <= slack[:, None]
    vertex, row = np.nonzero(activity.T)
    cuts = np.searchsorted(vertex, np.arange(verts.shape[0] + 1)).tolist()
    row = row.tolist()
    out = [(v, tuple(row[lo:hi])) for v, lo, hi in zip(verts, cuts, cuts[1:])]
    out.sort(key=lambda item: item[1])
    return out
