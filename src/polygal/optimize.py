"""Constrained optimization over nested polytope spaces.

Each level minimizes an objective in coordinates subject to cone membership
(touching columns only; the nonemptiness conditions are implied by the inner
box), support boxes from the inner/outer bodies, and shifted functional
constraints.  Every constraint is a linear row in coordinates: in d = 2 the
perimeter is w . b (see `coordinates.planar_forms`).  Levels are solved with
a log-barrier method whose inner loop is gradient descent with backtracking;
coarse minimizers warm-start finer levels through the embedding.
"""

from dataclasses import dataclass, field
import time

import numpy as np

from .bodies import ConvexBody, project_coords
from .cone import compile_cone, prune_redundant
from .coordinates import (CoordinateVector, INTERIOR, PolytopeRealization,
                          facet_lengths_2d, facet_measures,
                          hausdorff_polytopes, planar_forms, polytope_volume,
                          realize)
from .errors import InfeasibleLevel, NumericalFailure
from .galerkin import GalerkinSequence, embed_coordinates, estimate_kappa
from .lp import LinearProgram, OPTIMAL, solve_lp

NEG_VOLUME = "neg_volume"
LINEAR_SUPPORT = "linear_support"
TARGET_TRACKING = "target_tracking"

PERIMETER_LE = "perimeter_le"
SUPPORT_BOX = "support_box"
LINEAR_SUPPORT_LE = "linear_support_le"


def uniform_sphere_weights(d: int, n: int) -> np.ndarray:
    """Quadrature weights turning support values into the sphere integral
    of the support function (2 pi / N on the circle)."""
    total = 2.0 * np.pi if d == 2 else 4.0 * np.pi
    return np.full(n, total / n)


UNIFORM_SPHERE = "uniform_sphere"


@dataclass
class ObjectiveSpec:
    """Objective evaluated on (coordinates, realization); minimized.

    neg_volume:      -(area | volume) of the realization (d in {2, 3}).
    linear_support:  weights . b, exactly linear on admissible coordinates;
                     weights may be the string "uniform_sphere" to request
                     the per-level quadrature rule.
    target_tracking: |b - target|_inf; the target may be given as a body
                     whose projection is tracked per level.
    """

    kind: str
    weights: object = None
    target: np.ndarray | None = None
    target_body: ConvexBody | None = None

    def __post_init__(self):
        if self.kind not in (NEG_VOLUME, LINEAR_SUPPORT, TARGET_TRACKING):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == LINEAR_SUPPORT:
            if self.weights is None:
                raise ValueError("linear_support needs weights")
            if isinstance(self.weights, str):
                if self.weights != UNIFORM_SPHERE:
                    raise ValueError("unknown weight rule " + self.weights)
            else:
                self.weights = np.asarray(self.weights, dtype=float)
        if self.kind == TARGET_TRACKING:
            if self.target is None and self.target_body is None:
                raise ValueError("target_tracking needs a target")
            if self.target is not None:
                self.target = np.asarray(self.target, dtype=float)

    @property
    def needs_realization(self) -> bool:
        return self.kind == NEG_VOLUME

    def resolve(self, ns) -> "ObjectiveSpec":
        """Concrete per-level spec with vectors sized for the system."""
        if self.kind == LINEAR_SUPPORT:
            w = self.weights
            if isinstance(w, str):
                w = uniform_sphere_weights(ns.dimension, ns.count)
            elif w.shape != (ns.count,):
                raise ValueError("weight vector does not match the level size")
            return ObjectiveSpec(self.kind, weights=w)
        if self.kind == TARGET_TRACKING:
            t = self.target
            if t is None:
                t = project_coords(self.target_body, ns).coords.b
            elif t.shape != (ns.count,):
                raise ValueError("target vector does not match the level size")
            return ObjectiveSpec(self.kind, target=t)
        return self

    def value(self, b, realization=None) -> float:
        if self.kind == NEG_VOLUME:
            if realization is None:
                raise ValueError("neg_volume needs a realization")
            return -polytope_volume(realization)
        if self.kind == LINEAR_SUPPORT:
            if isinstance(self.weights, str):
                raise ValueError("resolve the objective against a level first")
            return float(self.weights @ b)
        if self.target is None:
            raise ValueError("resolve the objective against a level first")
        return float(np.abs(np.asarray(b) - self.target).max())

    def gradient(self, b, realization=None):
        """Analytic gradient, or None to request finite differences."""
        if self.kind == NEG_VOLUME:
            return -facet_measures(realization)
        if self.kind == LINEAR_SUPPORT:
            return self.weights.copy()
        return None


@dataclass
class ConstraintSpec:
    """A functional constraint Psi(C) <= 0 in coordinates.

    perimeter_le:      perimeter(realization) - limit        (d = 2)
    linear_support_le: weights . b - limit
    support_box:       b - upper and lower - b, componentwise

    lipschitz_L is the declared Lipschitz constant of Psi with respect to
    the Hausdorff distance; defaults: 2 pi for the perimeter (the perimeter
    is the circle integral of the support function), |w|_1 for weighted
    support sums, 1 for boxes.
    """

    kind: str
    limit: float | None = None
    weights: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    lipschitz_L: float | None = None

    def __post_init__(self):
        if self.kind not in (PERIMETER_LE, SUPPORT_BOX, LINEAR_SUPPORT_LE):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind in (PERIMETER_LE, LINEAR_SUPPORT_LE) and self.limit is None:
            raise ValueError(f"{self.kind} needs a limit")
        if self.kind == LINEAR_SUPPORT_LE:
            if self.weights is None:
                raise ValueError("linear_support_le needs weights")
            self.weights = np.asarray(self.weights, dtype=float)
        if self.kind == SUPPORT_BOX:
            if self.lower is None and self.upper is None:
                raise ValueError("support_box needs a bound")
            if self.lower is not None:
                self.lower = np.asarray(self.lower, dtype=float)
            if self.upper is not None:
                self.upper = np.asarray(self.upper, dtype=float)
        if self.lipschitz_L is None:
            if self.kind == PERIMETER_LE:
                self.lipschitz_L = 2.0 * np.pi
            elif self.kind == LINEAR_SUPPORT_LE:
                self.lipschitz_L = float(np.abs(self.weights).sum())
            else:
                self.lipschitz_L = 1.0
        if self.lipschitz_L <= 0:
            raise ValueError("lipschitz_L must be positive")


@dataclass
class ShiftedConstraint:
    """Constraint evaluator with the discretization compensation applied:
    Psi_k = Psi - shift, shift = L * kappa * |outer|."""

    spec: ConstraintSpec
    shift: float

    def values(self, b, realization=None) -> np.ndarray:
        s = self.spec
        if s.kind == PERIMETER_LE:
            lengths = facet_lengths_2d(realization)
            return np.array([float(lengths.sum()) - s.limit - self.shift])
        if s.kind == LINEAR_SUPPORT_LE:
            return np.array([float(s.weights @ b) - s.limit - self.shift])
        parts = []
        if s.upper is not None:
            parts.append(b - s.upper - self.shift)
        if s.lower is not None:
            parts.append(s.lower - b - self.shift)
        return np.concatenate(parts)


def shift_constraints(constraints, kappa: float, outer_norm: float):
    """Apply the level shift Psi_k = Psi - L * kappa * |outer| * 1 to every
    scalar constraint; kappa = 0 leaves the constraints untouched."""
    if kappa < 0 or outer_norm < 0:
        raise ValueError("kappa and outer_norm must be nonnegative")
    return tuple(ShiftedConstraint(c, c.lipschitz_L * kappa * outer_norm)
                 for c in constraints)


@dataclass
class SolverTolerances:
    mu_init: float = 1.0
    mu_floor: float = 1e-8
    mu_factor: float = 0.5
    step_tol: float = 1e-9
    max_inner: int = 60
    feas_eps: float = 1e-6
    fd_step: float = 1e-6


@dataclass
class GalerkinProblem:
    """The model problem min Phi s.t. Psi <= 0 and inner <= . <= outer,
    discretized over the levels of a nested sequence."""

    objective: ObjectiveSpec
    constraints: list
    inner_body: ConvexBody
    outer_body: ConvexBody
    sequence: GalerkinSequence
    levels: list | None = None
    lam: float = 0.1
    kappa_shift: object = None      # None/0, a number, or "estimate"
    report_kappa: bool = True
    kappa_samples: int | None = None
    tolerances: SolverTolerances = field(default_factory=SolverTolerances)

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        base = self.sequence.levels[0]
        inner = project_coords(self.inner_body, base).coords.b
        outer = project_coords(self.outer_body, base).coords.b
        if (inner > outer + 1e-9 * (1.0 + np.abs(outer).max())).any():
            raise ValueError("inner body is not contained in the outer body")

    def level_indices(self):
        if self.levels is None:
            return list(range(len(self.sequence.levels)))
        return list(self.levels)


@dataclass
class LevelResult:
    level: int
    row_count: int
    b: np.ndarray
    realization: PolytopeRealization
    objective_value: float
    constraint_values: np.ndarray
    kappa_hat: float | None
    iterations: int
    wall_ms: float
    start_count: int


@dataclass
class SequenceResult:
    levels: list
    cross_level: list


class _BarrierProblem:
    """Barrier view of one level: the linear slack rows G b - h > 0 and the
    objective.  In d = 2 the area is the quadratic form of
    `coordinates.planar_forms`; otherwise realizations are cached per
    iterate."""

    def __init__(self, cone, objective, shifted, lower, upper, tol):
        self.cone = cone
        self.objective = objective
        self.tol = tol
        ns = cone.normal_system
        n = ns.count
        rows = [cone.matrix(touching_only=True).T]
        offsets = [np.zeros(rows[0].shape[0])]
        eye = np.eye(n)
        rows.append(eye)
        offsets.append(lower)
        rows.append(-eye)
        offsets.append(-upper)
        for sc in shifted:
            if sc.spec.kind == SUPPORT_BOX:
                if sc.spec.upper is not None:
                    rows.append(-eye)
                    offsets.append(-(sc.spec.upper + sc.shift))
                if sc.spec.lower is not None:
                    rows.append(eye)
                    offsets.append(sc.spec.lower - sc.shift)
                continue
            if sc.spec.kind == LINEAR_SUPPORT_LE:
                weights = sc.spec.weights
            elif ns.dimension == 2:
                weights = planar_forms(ns)[1]
            else:
                raise ValueError("perimeter_le requires d = 2")
            rows.append(-weights[None, :])
            offsets.append(np.array([-(sc.spec.limit + sc.shift)]))
        self.G = np.vstack(rows)
        self.h = np.concatenate(offsets)
        self.area_form = (planar_forms(ns)[0] if objective.kind == NEG_VOLUME
                          and ns.dimension == 2 else None)
        self.scale = 1.0 + float(np.abs(self.h).max(initial=0.0))
        self._real_cache = {}

    def lin_slacks(self, b):
        return self.G @ b - self.h

    def realization(self, b):
        if not self.objective.needs_realization:
            return None
        # Value and gradient evaluations hit the same iterate; cache the
        # realization keyed by the exact coordinates.
        key = b.tobytes()
        real = self._real_cache.get(key)
        if real is None:
            cv = CoordinateVector(np.asarray(b, dtype=float), INTERIOR)
            real = realize(b, self.cone, precomputed_class=cv)
            if len(self._real_cache) > 8:
                self._real_cache.clear()
            self._real_cache[key] = real
        return real

    def objective_value(self, b):
        if self.area_form is not None:
            return -0.5 * float(b @ (self.area_form @ b))
        return self.objective.value(b, self.realization(b))

    def objective_gradient(self, b):
        if self.area_form is not None:
            return -(self.area_form @ b)
        grad = self.objective.gradient(b, self.realization(b))
        if grad is not None:
            return grad
        h = self.tol.fd_step * (1.0 + float(np.abs(b).max()))
        grad = np.zeros(b.size)
        for i in range(b.size):
            probe = b.copy()
            probe[i] += h
            up = self.objective.value(probe, self.realization(probe))
            probe[i] -= 2 * h
            dn = self.objective.value(probe, self.realization(probe))
            grad[i] = (up - dn) / (2 * h)
        return grad


def _max_step(problem, b, direction):
    slacks = problem.lin_slacks(b)
    rate = problem.G @ direction
    shrink = rate < -1e-300
    if not shrink.any():
        return np.inf
    return float((slacks[shrink] / -rate[shrink]).min())


def _descend(problem, b, value_fn, grad_fn, *, max_iter, step_tol,
             improve_tol=0.0):
    """Backtracking gradient descent keeping all linear slacks strictly
    positive; value_fn returns +inf outside the barrier domain.
    Stops on small steps or, when improve_tol > 0, on stalling progress
    (approximate centering is enough away from the barrier floor)."""
    b = b.copy()
    f = value_fn(b)
    if not np.isfinite(f):
        raise NumericalFailure("descent started outside the barrier domain")
    t_prev = 1.0
    iterations = 0
    for _ in range(max_iter):
        g = grad_fn(b)
        gnorm = float(np.abs(g).max())
        if gnorm < 1e-12 * (1.0 + abs(f)):
            break
        direction = -g
        t_cap = 0.99 * _max_step(problem, b, direction)
        t = min(2.0 * t_prev, t_cap, 0.25 * (1.0 + np.abs(b).max()) / gnorm)
        if t <= 0 or not np.isfinite(t):
            break
        slope = -float(g @ g)
        accepted = False
        for _ in range(40):
            trial = b + t * direction
            f_trial = value_fn(trial)
            if np.isfinite(f_trial) and f_trial <= f + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        step = float(np.abs(t * direction).max())
        gain = f - f_trial
        b = trial
        f = f_trial
        t_prev = t
        iterations += 1
        if step < step_tol or (improve_tol > 0.0 and gain < improve_tol):
            break
    return b, f, iterations


def _solve_from_start(problem, b0, tol):
    iterations = 0
    b = b0.copy()
    mu = tol.mu_init
    while mu >= tol.mu_floor:
        def value(x, mu=mu):
            slacks = problem.lin_slacks(x)
            if (slacks <= 0).any():
                return np.inf
            return float(problem.objective_value(x)
                         - mu * np.log(slacks).sum())

        def grad(x, mu=mu):
            slacks = problem.lin_slacks(x)
            return (problem.objective_gradient(x)
                    - mu * (problem.G / slacks[:, None]).sum(axis=0))

        b, _, its = _descend(problem, b, value, grad,
                             max_iter=tol.max_inner, step_tol=tol.step_tol,
                             improve_tol=1e-3 * mu)
        iterations += its
        mu *= tol.mu_factor
    return b, problem.objective_value(b), iterations


def _chebyshev_start(problem):
    """Largest-slack point of the linear rows, via one LP."""
    G, h = problem.G, problem.h
    norms = np.linalg.norm(G, axis=1)
    norms[norms == 0] = 1.0
    n = G.shape[1]
    A = np.hstack([-G / norms[:, None], np.ones((G.shape[0], 1))])
    rhs = -h / norms
    c = np.zeros(n + 1)
    c[-1] = 1.0
    outcome = solve_lp(LinearProgram(c, A, rhs))
    if outcome.status != OPTIMAL or outcome.value <= 1e-9 * problem.scale:
        raise InfeasibleLevel("no strictly feasible point for the level")
    return outcome.primal_point[:n]


def solve_level(problem: GalerkinProblem, level: int, *, cone=None,
                warm_b=None, kappa_hat=None) -> LevelResult:
    """Solve the discretized problem on one level of the sequence.

    The constraint set enforces the touching membership columns (the
    nonemptiness columns are implied by the inner box), the projected
    support boxes, and the shifted functional constraints, all as linear
    rows.  Multi-start: the warm start (when given), the interior-blended
    inner projection, and the box midpoint, each kept only when it is
    strictly inside every row; when none is, the Chebyshev center of the
    rows is the one start.  Under a perimeter cap the warm start and the
    box midpoint usually lie outside the cap and are dropped.  Results
    merge by (objective, lexicographic b).
    """
    t_start = time.perf_counter()
    tol = problem.tolerances
    ns = problem.sequence.levels[level]
    if cone is None:
        cone = prune_redundant(compile_cone(ns))
    lower = project_coords(problem.inner_body, ns).coords.b
    upper = project_coords(problem.outer_body, ns).coords.b
    gap_tol = 1e-9 * (1.0 + float(np.abs(upper).max()))
    if (lower > upper + gap_tol).any():
        raise InfeasibleLevel("inner projection exceeds the outer projection")

    outer_norm = problem.outer_body.norm()
    if kappa_hat is None and (problem.report_kappa
                              or problem.kappa_shift == "estimate"):
        kappa_hat = estimate_kappa(ns, problem.kappa_samples)
    if problem.kappa_shift in (None, 0, 0.0):
        kappa_used = 0.0
    elif problem.kappa_shift == "estimate":
        kappa_used = kappa_hat
    else:
        kappa_used = float(problem.kappa_shift)
    shifted = shift_constraints(problem.constraints, kappa_used, outer_norm)

    objective = problem.objective.resolve(ns)
    barrier = _BarrierProblem(cone, objective, shifted, lower, upper, tol)

    candidates = []
    if warm_b is not None:
        candidates.append(np.asarray(warm_b, dtype=float))
    candidates.append((1.0 - problem.lam) * lower + problem.lam * outer_norm)
    candidates.append(0.5 * (lower + upper))
    strict = 1e-9 * barrier.scale
    starts = [b for b in candidates if barrier.lin_slacks(b).min() > strict]
    if not starts:
        starts = [_chebyshev_start(barrier)]

    results = []
    iterations = 0
    for b0 in starts:
        b, phi, its = _solve_from_start(barrier, b0, tol)
        iterations += its
        results.append((phi, tuple(b), b))
    results.sort(key=lambda r: (r[0], r[1]))
    b_best = results[0][2]

    if barrier.lin_slacks(b_best).min() < -tol.feas_eps * barrier.scale:
        raise NumericalFailure("solver returned an infeasible point")

    realization = realize(b_best, cone)
    phi_best = objective.value(b_best, realization)
    constraint_values = (np.concatenate(
        [sc.values(b_best, realization) for sc in shifted])
        if shifted else np.zeros(0))
    wall_ms = 1000.0 * (time.perf_counter() - t_start)
    return LevelResult(level=level, row_count=ns.count, b=b_best,
                       realization=realization, objective_value=phi_best,
                       constraint_values=constraint_values,
                       kappa_hat=kappa_hat, iterations=iterations,
                       wall_ms=wall_ms, start_count=len(starts))


def run_sequence(problem: GalerkinProblem) -> SequenceResult:
    """Solve every requested level, warm-starting each from the previous
    minimizer (embedded, then blended toward the interior), and report the
    cross-level convergence table.  A warm start outside a level's rows,
    as under a tight perimeter cap, is dropped like any other start (see
    `solve_level`)."""
    indices = problem.level_indices()
    if not indices:
        raise ValueError("no levels to run")
    results = []
    warm = None
    prev = None
    prev_cone = None
    for level in indices:
        ns = problem.sequence.levels[level]
        cone = prune_redundant(compile_cone(ns))
        if prev is not None:
            embedded = embed_coordinates(prev.b, problem.sequence,
                                         prev.level, level,
                                         coarse_cone=prev_cone)
            radius = prev.realization.body_norm()
            warm = (1.0 - problem.lam) * embedded.b + problem.lam * radius
        result = solve_level(problem, level, cone=cone, warm_b=warm)
        results.append(result)
        prev = result
        prev_cone = cone
    cross = []
    for a, b in zip(results, results[1:]):
        cross.append({
            "level": a.level,
            "level_next": b.level,
            "hausdorff": hausdorff_polytopes(a.realization, b.realization),
            "objective_delta": b.objective_value - a.objective_value,
        })
    return SequenceResult(levels=results, cross_level=cross)


def set_distance(reals1, reals2):
    """Semi-distance and distance between two finite collections of
    realizations under the polytope Hausdorff metric."""
    if not reals1 or not reals2:
        raise ValueError("collections must be nonempty")
    table = np.array([[hausdorff_polytopes(r1, r2) for r2 in reals2]
                      for r1 in reals1])
    forward = float(table.min(axis=1).max())
    backward = float(table.min(axis=0).max())
    return forward, max(forward, backward)
