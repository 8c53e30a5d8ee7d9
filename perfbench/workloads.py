"""The four benchmark workloads.

Each workload makes its inputs from the seed (`instance(k)` is the input of
the k-th operation), runs one timed operation on an input (`op`), and checks
the output (`check` returns a list of problems; empty means correct).  The
library receives only the generated inputs.  README.md says why each
workload exists and what it should show.
"""

import numpy as np

import polygal as pg
from polygal.coordinates import EXTERIOR, INTERIOR
from polygal.normals import validate_normals


def _rng(seed, *keys):
    """Independent stream per (seed, keys); keys name what the stream makes."""
    return np.random.default_rng([seed, *keys])


def _rotate_2d(ns, theta):
    # Elementwise, so rows shared between nested levels stay bitwise equal.
    m = ns.matrix
    c, s = np.cos(theta), np.sin(theta)
    return validate_normals(np.column_stack([c * m[:, 0] - s * m[:, 1],
                                             s * m[:, 0] + c * m[:, 1]]))


def _reflect_2d(ns, signs):
    # Negating a column is exact, so an axis reflection repeats the
    # unreflected arithmetic bit for bit, up to sign.
    return validate_normals(ns.matrix * np.asarray(signs, dtype=float))


def _rotate_3d(ns, rot):
    m = ns.matrix
    return validate_normals(np.column_stack(
        [rot[i, 0] * m[:, 0] + rot[i, 1] * m[:, 1] + rot[i, 2] * m[:, 2]
         for i in range(3)]))


def _random_rotation_3d(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class Workload:
    """Defaults: at least one operation per run; set-up makes the first
    input; a traced operation repeats the first input."""

    min_ops = 1

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.instance(0)

    def traced_instance(self):
        return self.instance(0)


class _Sequence(Workload):
    """An operation is one run_sequence over a Galerkin problem.  Every
    operation repeats the seed's instance, so the check requires the
    result's `signature` to repeat exactly across operations."""

    min_ops = 2

    def __init__(self, seed):
        super().__init__(seed)
        self._first = None

    def op(self, problem):
        return pg.run_sequence(problem)

    def _repeats(self, res):
        seen = self.signature(res)
        if self._first is None:
            self._first = seen
        elif seen != self._first:
            return [f"{seen} did not repeat {self._first}"]
        return []

    def counts(self, res):
        return {"iterations": sum(lv.iterations for lv in res.levels),
                "starts": sum(lv.start_count for lv in res.levels)}

    def workload_metrics(self, durations):
        return {"solve_s": (float(np.median(durations)), "s")}


class IsoSeq(_Sequence):
    """Criterion-8 isoperimetric sequence: max area at perimeter 2 pi on
    planar grid levels [3, 4, 5], reflected through a seeded choice of the
    axes.

    Descent iteration counts are chaotic in the grid's orientation: level 5
    takes 890 iterations on the paper's grid, 1024 with the axes swapped and
    about 800 to 1300 under generic rotations.  A reflection through the
    axes only flips signs, so every seed solves the paper's instance with
    its 107 / 146 / 890 iterations, and the seed-to-seed spread is the
    machine's, not the input's."""

    name = "iso_seq"
    levels = (3, 4, 5)

    def instance(self, k):
        signs = _rng(self.seed, 0).choice([-1.0, 1.0], 2)
        seq = pg.GalerkinSequence.from_systems(
            [_reflect_2d(pg.spherical_grid_normals(2, lv), signs)
             for lv in self.levels])
        return pg.GalerkinProblem(
            objective=pg.ObjectiveSpec("neg_volume"),
            constraints=[pg.ConstraintSpec("perimeter_le", limit=2 * np.pi)],
            inner_body=pg.PointHull([[0.0, 0.0]]),
            outer_body=pg.Ball([0.0, 0.0], 2.0),
            sequence=seq)

    def signature(self, res):
        return tuple((lv.iterations, lv.start_count) for lv in res.levels)

    def check(self, problem, res):
        problems = self._repeats(res)
        area = pg.polygon_area(res.levels[-1].realization)
        if abs(area - np.pi) > 0.02 * np.pi:
            problems.append(f"finest area {area!r} is more than 2 % off pi")
        dists = [row["hausdorff"] for row in res.cross_level]
        if any(b >= a for a, b in zip(dists, dists[1:])):
            problems.append(f"cross-level Hausdorff not decreasing: {dists}")
        return problems


class Grid3Opt(_Sequence):
    """d = 3 grid level 2 (N = 26): max volume at uniform-sphere mean
    support 4 pi inside Ball(0, 2), with kappa reported, on a seeded
    rotation of the grid.  Its iteration count (1,157) did not move across
    the rotations tried."""

    name = "grid3_opt"
    level = 2

    def instance(self, k):
        rot = _random_rotation_3d(_rng(self.seed, 0))
        ns = _rotate_3d(pg.spherical_grid_normals(3, self.level), rot)
        seq = pg.GalerkinSequence.from_systems([ns])
        constraint = pg.ConstraintSpec(
            "linear_support_le", limit=4 * np.pi,
            weights=pg.uniform_sphere_weights(3, ns.count))
        return pg.GalerkinProblem(
            objective=pg.ObjectiveSpec("neg_volume"),
            constraints=[constraint],
            inner_body=pg.PointHull([[0.0, 0.0, 0.0]]),
            outer_body=pg.Ball([0.0, 0.0, 0.0], 2.0),
            sequence=seq, report_kappa=True)

    def signature(self, res):
        level = res.levels[0]
        return (level.kappa_hat, level.iterations, level.start_count)

    def check(self, problem, res):
        problems = self._repeats(res)
        level = res.levels[0]
        limit = problem.constraints[0].limit
        feas = problem.tolerances.feas_eps * (1.0 + abs(limit))
        if level.constraint_values.max() > feas:
            problems.append(
                f"constraint violated: {level.constraint_values.max()!r}")
        return problems


class PlanarCone(Workload):
    """compile_cone + prune_redundant on regular planar systems N = 32, 64,
    128 at a seeded rotation.  N = 256 is left out: it is OOM-killed today."""

    name = "planar_cone"
    sizes = (32, 64, 128)
    probes = 4

    def instance(self, k):
        rng = _rng(self.seed, k)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        systems, probes = [], []
        for n in self.sizes:
            angles = theta + 2.0 * np.pi * np.arange(n) / n
            ns = validate_normals(np.column_stack([np.cos(angles),
                                                   np.sin(angles)]))
            systems.append(ns)
            # Support values of a disc: every facet touches it, so the
            # coordinates are interior.  Raising one value by the radius
            # lifts that facet off the polygon: exterior.
            inside, outside = [], []
            for _ in range(self.probes):
                center = rng.uniform(-0.5, 0.5, 2)
                radius = rng.uniform(0.5, 1.5)
                b = ns.matrix @ center + radius
                inside.append(b)
                lifted = b.copy()
                lifted[rng.integers(n)] += radius
                outside.append(lifted)
            probes.append((inside, outside))
        return systems, probes

    def op(self, inst):
        systems, _ = inst
        return [pg.prune_redundant(pg.compile_cone(ns)) for ns in systems]

    def check(self, inst, cones):
        _, probes = inst
        problems = []
        for cone, (inside, outside) in zip(cones, probes):
            n = cone.normal_system.count
            for b in inside:
                label = pg.classify(b, cone).classification
                if label != INTERIOR:
                    problems.append(f"N={n}: interior probe labelled {label}")
            for b in outside:
                label = pg.classify(b, cone).classification
                if label != EXTERIOR:
                    problems.append(f"N={n}: exterior probe labelled {label}")
        return problems

    def counts(self, cones):
        return {"columns": sum(c.count for c in cones),
                "pruned": sum(c.pruned_count for c in cones)}

    def workload_metrics(self, durations):
        return {"build_s": (float(np.median(durations)), "s")}


class PlanarQuery(Workload):
    """Queries against the level-5 planar cone (N = 64, seeded rotation),
    built in set-up.  A query takes a seeded random point hull (3 to 10
    points) through project_interior (lambda 0.1), classify, realize, area,
    perimeter, hausdorff_body_vs_polytope(720) and canonicalize of the
    coordinates loosened by U[0, 0.5].  An untraced operation is one query;
    a traced operation is the seed's first 200 queries."""

    name = "planar_query"
    level = 5
    batch = 200
    lam = 0.1

    def setup(self):
        theta = _rng(self.seed, 1).uniform(0.0, 2.0 * np.pi)
        ns = _rotate_2d(pg.spherical_grid_normals(2, self.level), theta)
        self.cone = pg.prune_redundant(pg.compile_cone(ns))
        # One query outside the timed runs fills the cone's lazy caches.
        self.op([self._query(_rng(self.seed, 2))])

    def _query(self, rng):
        points = rng.uniform(-1.0, 1.0, (int(rng.integers(3, 11)), 2))
        loosen = rng.uniform(0.0, 0.5, self.cone.normal_system.count)
        return pg.PointHull(points), loosen

    def instance(self, k):
        return [self._query(_rng(self.seed, 0, k))]

    def traced_instance(self):
        return [self._query(_rng(self.seed, 0, k)) for k in range(self.batch)]

    def op(self, queries):
        cone = self.cone
        ns = cone.normal_system
        out = []
        for hull, loosen in queries:
            proj = pg.project_interior(hull, cone, self.lam)
            b = proj.coords.b
            cv = pg.classify(b, cone)
            real = pg.realize(b, cone, precomputed_class=cv)
            area = pg.polygon_area(real)
            perimeter = pg.perimeter_2d(real)
            bracket = pg.hausdorff_body_vs_polytope(hull, real, 720)
            canon = pg.canonicalize(b + loosen, ns)
            out.append((cv.classification, area, perimeter, bracket, canon.b))
        return out

    def check(self, queries, out):
        cone = self.cone
        problems = []
        for label, area, perimeter, (lower, upper), canon in out:
            if label != INTERIOR:
                problems.append(f"projection labelled {label}")
            if not (area > 0.0 and perimeter > 0.0 and 0.0 <= lower <= upper):
                problems.append(f"bad geometry: area {area!r}, perimeter "
                                f"{perimeter!r}, bracket {lower!r}..{upper!r}")
            if pg.classify(canon, cone).classification == EXTERIOR:
                problems.append("canonical coordinates labelled exterior")
                continue
            again = pg.support_coordinates(pg.realize(canon, cone))
            if np.abs(again - canon).max() > 1e-7 * (1.0 + np.abs(canon).max()):
                problems.append("support values of the realization do not "
                                "reproduce the canonical coordinates")
        return problems

    def counts(self, out):
        return {"queries": len(out)}

    def workload_metrics(self, durations):
        d = np.asarray(durations)
        return {"query_per_s": (float(d.size / d.sum()), "1/s"),
                "query_p50_ms": (float(1e3 * np.median(d)), "ms"),
                "query_p95_ms": (float(1e3 * np.percentile(d, 95)), "ms")}


WORKLOADS = {w.name: w for w in (IsoSeq, PlanarCone, PlanarQuery, Grid3Opt)}
