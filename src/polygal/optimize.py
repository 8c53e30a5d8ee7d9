"""Constrained optimization over nested polytope spaces.

Each level minimizes an objective in coordinates subject to cone membership
(the touching rows of `cone.touching_rows`; the nonemptiness conditions are
implied by the inner box), support boxes from the inner/outer bodies, and
shifted functional constraints, each a linear row in coordinates (in d = 2
the perimeter is w . b, `normals.planar_forms`).  Every objective is convex
on the cone, so each level is solved by one damped Newton barrier path
from one start, to within a duality gap m / t that the result reports.
The result is realized by `coordinates._realize_admissible`, as is each
d = 3 iterate of the volume, and must be its realization's support vector
within the classification band; the level holds no cone.
"""

from dataclasses import dataclass, field
import time

import numpy as np

from .bodies import ConvexBody, project_coords
from .cone import touching_rows
from .coordinates import (PolytopeRealization, _realize_admissible,
                          classification_band, facet_area_jacobian,
                          facet_lengths_2d, hausdorff_polytopes,
                          polytope_volume, support_coordinates)
from .errors import ExteriorCoordinates, InfeasibleLevel, NumericalFailure
from .galerkin import GalerkinSequence, estimate_kappa
from .normals import planar_forms

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
    """feas_eps: largest row violation, relative to 1 + |h|_inf, that a
    returned point may show before the level counts as a numerical
    failure."""

    feas_eps: float = 1e-6


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
    """One solved level.  iterations counts every Newton step, phase 1's
    too, gap is the final barrier's m / t, and start_count is always 1."""

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
    gap: float


@dataclass
class SequenceResult:
    levels: list
    cross_level: list


def _level_rows(ns, touching, shifted, lower, upper):
    """The linear rows G b - h > 0 of one level: the touching rows
    (`cone.touching_rows`), the inner/outer support boxes and the shifted
    constraints."""
    eye = np.eye(ns.count)
    rows = [touching, eye, -eye]
    offsets = [np.zeros(touching.shape[0]), lower, -upper]
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
    return np.vstack(rows), np.concatenate(offsets)


def _convex_objective(objective, ns, G, h):
    """(phi, G, h): the level objective as a convex phi(z) returning value,
    gradient and Hessian, on the barrier variables z with their rows.

    z is b, except for target tracking, where z = (b, s) with the epigraph
    rows s >= +-(b - target) and phi = s.  The volume enters as -log V,
    which Brunn-Minkowski makes convex on the cone: in d = 2 V is the
    quadratic form of `planar_forms`, in d = 3 it is read off one
    realization, with the Hessian J = `facet_area_jacobian` and the facet
    areas J b / 2 (Euler; exact at the interior b the barrier visits).
    """
    n = ns.count
    if objective.kind == LINEAR_SUPPORT:
        w, flat = objective.weights, np.zeros((n, n))
        return (lambda b: (float(w @ b), w, flat)), G, h
    if objective.kind == TARGET_TRACKING:
        eye, one = np.eye(n), np.ones((n, 1))
        G = np.block([[G, np.zeros((G.shape[0], 1))], [-eye, one], [eye, one]])
        h = np.concatenate([h, -objective.target, objective.target])
        unit, flat = np.eye(n + 1)[n], np.zeros((n + 1, n + 1))
        return (lambda z: (float(z[n]), unit, flat)), G, h
    if ns.dimension == 2:
        lam = planar_forms(ns)[0]

        def volume(b):
            lam_b = lam @ b
            return 0.5 * float(b @ lam_b), lam_b, lam
    else:
        def volume(b):
            jac = facet_area_jacobian(_realize_admissible(ns, b))
            areas = 0.5 * (jac @ b)
            return float(b @ areas) / 3.0, areas, jac

    def neg_log_volume(b):
        v, dv, d2v = volume(b)
        if not v > 0.0:
            return np.inf, None, None
        g = dv / v
        return -np.log(v), -g, np.outer(g, g) - d2v / v
    return neg_log_volume, G, h


_GAP = 1e-10            # stop once the duality gap m / t is this small
_T_GROWTH = 8.0
_MAX_CENTERING = 100    # Newton steps per centering before giving up


def _barrier_point(phi, G, h, z):
    """(phi value, gradient, Hessian, sum log s, slacks s = G z - h), or
    None outside the barrier domain."""
    slacks = G @ z - h
    if not (slacks > 0.0).all():
        return None
    value, grad, hess = phi(z)
    if not np.isfinite(value):
        return None
    return value, grad, hess, float(np.log(slacks).sum()), slacks


def _newton_barrier(phi, G, h, z):
    """Minimize phi over {G z > h} from a strictly feasible z.

    Damped Newton centers t phi(z) - sum log(G z - h) for t = 1, 8, 64, ...
    until m / t <= _GAP, m = rows.  A step is capped at 0.99 of the largest
    feasible one and halved until it passes Armijo.  Centering ends on a
    Newton decrement lambda^2 / 2 <= 1e-9, on an accepted step that lowers
    the merit by no more than rounding (1e-13 (1 + |f|)), or when no step
    passes.  The Newton system is solved by least squares: near the
    optimum the active rows make it singular to working precision.
    Returns (z, Newton steps, m / t).
    """
    m = G.shape[0]
    t = 1.0
    steps = 0
    point = _barrier_point(phi, G, h, z)
    if point is None:
        raise NumericalFailure("barrier start outside the level's rows")
    while True:
        for _ in range(_MAX_CENTERING):
            value, grad, hess, log_sum, slacks = point
            f = t * value - log_sum
            scaled = G / slacks[:, None]
            g = t * grad - scaled.sum(axis=0)
            dz = np.linalg.lstsq(t * hess + scaled.T @ scaled, -g,
                                 rcond=None)[0]
            decrement = -float(g @ dz)
            if not decrement > 2e-9:
                break
            rate = G @ dz
            falling = rate < 0.0
            alpha = min(1.0, 0.99 * float(
                (slacks[falling] / -rate[falling]).min(initial=np.inf)))
            while alpha > 1e-12:
                trial = _barrier_point(phi, G, h, z + alpha * dz)
                f_trial = np.inf if trial is None else t * trial[0] - trial[3]
                if f_trial <= f - 1e-4 * alpha * decrement:
                    break
                alpha *= 0.5
            else:
                break           # no step passes: the centering is done
            z = z + alpha * dz
            point = trial
            steps += 1
            if f - f_trial <= 1e-13 * (1.0 + abs(f_trial)):
                break
        else:
            raise NumericalFailure("Newton centering did not converge")
        if m / t <= _GAP:
            return z, steps, m / t
        t *= _T_GROWTH


def _phase_one(G, h, b, scale):
    """A point strictly inside {G b > h}: barrier phase 1 from b, which
    maximizes s subject to G b - h >= s on the rows normalized to unit
    length (the boxes bound s), from s = min slack - 1.  The level is
    infeasible when the optimal s is at most 1e-9 scale.  Returns (b,
    Newton steps)."""
    norms = np.linalg.norm(G, axis=1)
    norms[norms == 0] = 1.0
    G_s = np.hstack([G / norms[:, None], -np.ones((G.shape[0], 1))])
    h = h / norms
    n = G.shape[1]
    unit, flat = -np.eye(n + 1)[n], np.zeros((n + 1, n + 1))
    z0 = np.append(b, (G_s[:, :n] @ b - h).min() - 1.0)
    z, steps, _ = _newton_barrier(lambda z: (-z[n], unit, flat), G_s, h, z0)
    if z[n] <= 1e-9 * scale:
        raise InfeasibleLevel("no strictly feasible point for the level")
    return z[:n], steps


def solve_level(problem: GalerkinProblem, level: int) -> LevelResult:
    """Solve the discretized problem on one level of the sequence.

    Every objective is convex on the cone of linear rows (`_level_rows`),
    so one barrier path from one start reaches the level's optimum within
    the reported gap m / t (exactly so where phi is twice differentiable;
    in d = 3 where the polytope is simple).  The start is the blend
    (1 - lambda) inner + lambda |outer| when it is strictly inside every
    row, else the end of a barrier phase 1 from the blend (`_phase_one`).
    """
    t_start = time.perf_counter()
    ns = problem.sequence.levels[level]
    touching = touching_rows(ns)[0]
    lower = project_coords(problem.inner_body, ns).coords.b
    upper = project_coords(problem.outer_body, ns).coords.b
    gap_tol = 1e-9 * (1.0 + float(np.abs(upper).max()))
    if (lower > upper + gap_tol).any():
        raise InfeasibleLevel("inner projection exceeds the outer projection")

    outer_norm = problem.outer_body.norm()
    kappa_hat = None
    if problem.report_kappa or problem.kappa_shift == "estimate":
        kappa_hat = estimate_kappa(ns, problem.kappa_samples)
    if problem.kappa_shift in (None, 0, 0.0):
        kappa_used = 0.0
    elif problem.kappa_shift == "estimate":
        kappa_used = kappa_hat
    else:
        kappa_used = float(problem.kappa_shift)
    shifted = shift_constraints(problem.constraints, kappa_used, outer_norm)

    objective = problem.objective.resolve(ns)
    G, h = _level_rows(ns, touching, shifted, lower, upper)
    scale = 1.0 + float(np.abs(h).max(initial=0.0))
    b0 = (1.0 - problem.lam) * lower + problem.lam * outer_norm
    start_steps = 0
    if not (G @ b0 - h).min() > 1e-9 * scale:
        b0, start_steps = _phase_one(G, h, b0, scale)
    phi, G_z, h_z = _convex_objective(objective, ns, G, h)
    z0 = b0
    if objective.kind == TARGET_TRACKING:
        z0 = np.append(b0, 1.0 + 2.0 * np.abs(b0 - objective.target).max())
    z, steps, gap = _newton_barrier(phi, G_z, h_z, z0)
    b = z[:ns.count]

    if (G @ b - h).min() < -problem.tolerances.feas_eps * scale:
        raise NumericalFailure("solver returned an infeasible point")

    # Unlike the rows, this also checks facets that have no touching row.
    realization = _realize_admissible(ns, b)
    if (b - support_coordinates(realization)).max() > classification_band(b):
        raise ExteriorCoordinates("coordinates lie outside the cone")
    constraint_values = (np.concatenate(
        [sc.values(b, realization) for sc in shifted])
        if shifted else np.zeros(0))
    wall_ms = 1000.0 * (time.perf_counter() - t_start)
    return LevelResult(level=level, row_count=ns.count, b=b,
                       realization=realization,
                       objective_value=objective.value(b, realization),
                       constraint_values=constraint_values,
                       kappa_hat=kappa_hat, iterations=start_steps + steps,
                       wall_ms=wall_ms, start_count=1, gap=gap)


def run_sequence(problem: GalerkinProblem) -> SequenceResult:
    """Solve every requested level, each from its own start (see
    `solve_level`), and report the cross-level convergence table."""
    indices = problem.level_indices()
    if not indices:
        raise ValueError("no levels to run")
    results = [solve_level(problem, level) for level in indices]
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
