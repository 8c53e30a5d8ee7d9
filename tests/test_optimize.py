from hypothesis import given, settings
import numpy as np
import pytest

from polygal import (Ball, ConstraintSpec, GalerkinProblem, GalerkinSequence,
                     InfeasibleLevel, NumericalFailure, ObjectiveSpec,
                     PointHull, classify, compile_cone, estimate_kappa,
                     perimeter_2d, polygon_area, polytope_volume,
                     project_coords, prune_redundant, realize, run_sequence,
                     set_distance, shift_constraints, solve_level,
                     spherical_grid_normals, support_coordinates,
                     uniform_sphere_weights, validate_normals)
from polygal import (cone as cone_module, lp as lp_module,
                     optimize as optimize_module)
from polygal.cone import DIAMOND_TARGET, touching_rows
from polygal.coordinates import EXTERIOR, facet_lengths_2d, facet_measures
from polygal.errors import ExteriorCoordinates
from polygal.normals import planar_forms

from conftest import (bounded_planar_systems, chebyshev_slack,
                      random_point_hull, regular_normals)


ORIGIN = PointHull([[0, 0]])


def test_shift_identity_and_formula():
    perim = ConstraintSpec("perimeter_le", limit=2 * np.pi)
    (unshifted,) = shift_constraints([perim], 0.0, 2.0)
    assert unshifted.shift == 0.0
    (shifted,) = shift_constraints([perim], 0.1, 2.0)
    assert shifted.shift == pytest.approx(2 * np.pi * 0.1 * 2.0)
    # The shift relaxes: shifted values sit below the raw ones pointwise.
    ns = regular_normals(16)
    cone = compile_cone(ns)
    real = realize(np.ones(16), cone)
    raw = unshifted.values(np.ones(16), real)
    eased = shifted.values(np.ones(16), real)
    assert (eased <= raw).all()


def test_default_lipschitz_constants():
    assert ConstraintSpec("perimeter_le", limit=1.0).lipschitz_L == \
        pytest.approx(2 * np.pi)
    w = np.array([1.0, -2.0, 0.5])
    assert ConstraintSpec("linear_support_le", limit=1.0,
                          weights=w).lipschitz_L == pytest.approx(3.5)
    assert ConstraintSpec("support_box", upper=np.ones(3)).lipschitz_L == 1.0


def test_evaluate_objective_examples(square_cone, hexagon_cone):
    sq = realize(np.ones(4), square_cone)
    assert ObjectiveSpec("neg_volume").value(np.ones(4), sq) == \
        pytest.approx(-4.0, abs=1e-9)
    hexa = realize(np.ones(6), hexagon_cone)
    assert ObjectiveSpec("neg_volume").value(np.ones(6), hexa) == \
        pytest.approx(-2 * np.sqrt(3), abs=1e-9)
    b = project_coords(Ball([0, 0], 1.0), hexagon_cone.normal_system).coords.b
    spec = ObjectiveSpec("linear_support",
                         weights=uniform_sphere_weights(2, 6))
    assert spec.value(b) == pytest.approx(2 * np.pi)


def test_objective_resolution(hexagon_ns):
    spec = ObjectiveSpec("linear_support", weights="uniform_sphere")
    resolved = spec.resolve(hexagon_ns)
    assert resolved.weights == pytest.approx(np.full(6, np.pi / 3))
    tracking = ObjectiveSpec("target_tracking", target_body=Ball([0, 0], 1.0))
    resolved = tracking.resolve(hexagon_ns)
    assert resolved.target == pytest.approx(np.ones(6))
    with pytest.raises(ValueError):
        ObjectiveSpec("linear_support", weights=np.ones(4)).resolve(hexagon_ns)


def test_neg_volume_gradient_matches_shoelace_differences():
    ns = regular_normals(8)
    cone = compile_cone(ns)
    rng = np.random.default_rng(23)
    from polygal import project_interior
    for _ in range(5):
        hull = random_point_hull(rng)
        b = project_interior(hull, cone, 0.3).coords.b
        real = realize(b, cone)
        grad = -facet_lengths_2d(real)
        h = 1e-6 * (1 + np.abs(b).max())
        for j in range(8):
            probe = b.copy()
            probe[j] += h
            up = -polygon_area(realize(probe, cone))
            probe[j] -= 2 * h
            dn = -polygon_area(realize(probe, cone))
            fd = (up - dn) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-5 * (1 + abs(fd))


def test_maximize_support_hits_outer_box():
    seq = GalerkinSequence.from_grid(2, [2])
    spec = ObjectiveSpec("linear_support",
                         weights=-uniform_sphere_weights(2, 8))
    problem = GalerkinProblem(objective=spec, constraints=[],
                              inner_body=ORIGIN,
                              outer_body=Ball([0, 0], 1.0),
                              sequence=seq, report_kappa=False)
    result = solve_level(problem, 0)
    assert result.b == pytest.approx(np.ones(8), abs=1e-5)
    assert result.objective_value == pytest.approx(-2 * np.pi, abs=1e-5)
    upper = project_coords(Ball([0, 0], 1.0), seq.levels[0]).coords.b
    assert (result.b <= upper + 1e-9).all()


def test_box_outer_body_is_optimal_for_area(square_ns):
    seq = GalerkinSequence.from_systems([square_ns])
    box = PointHull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    problem = GalerkinProblem(objective=ObjectiveSpec("neg_volume"),
                              constraints=[], inner_body=ORIGIN,
                              outer_body=box, sequence=seq,
                              report_kappa=False)
    result = solve_level(problem, 0)
    assert result.b == pytest.approx(np.ones(4), abs=1e-5)
    assert result.objective_value == pytest.approx(-4.0, abs=1e-4)


def test_level_result_feasibility_invariants():
    seq = GalerkinSequence.from_grid(2, [3])
    problem = GalerkinProblem(
        objective=ObjectiveSpec("neg_volume"),
        constraints=[ConstraintSpec("perimeter_le", limit=2 * np.pi)],
        inner_body=ORIGIN, outer_body=Ball([0, 0], 2.0),
        sequence=seq, report_kappa=False)
    result = solve_level(problem, 0)
    ns = seq.levels[0]
    cone = prune_redundant(compile_cone(ns))
    touching = cone.matrix()[:, cone.target[cone.column_indices()]
                             != DIAMOND_TARGET]
    eps = 1e-6
    assert (touching.T @ result.b).min() >= -eps
    lower = project_coords(ORIGIN, ns).coords.b
    upper = project_coords(Ball([0, 0], 2.0), ns).coords.b
    assert (lower <= result.b + eps).all()
    assert (result.b <= upper + eps).all()
    assert (lower <= upper).all()
    assert result.constraint_values.max() <= eps
    assert perimeter_2d(result.realization) <= 2 * np.pi + 1e-5


def test_infeasible_level_detected(square_ns):
    seq = GalerkinSequence.from_systems([square_ns])
    # Perimeter cap far below the perimeter the inner body forces.
    problem = GalerkinProblem(
        objective=ObjectiveSpec("neg_volume"),
        constraints=[ConstraintSpec("perimeter_le", limit=1.0)],
        inner_body=Ball([0, 0], 1.0), outer_body=Ball([0, 0], 2.0),
        sequence=seq, report_kappa=False)
    with pytest.raises(InfeasibleLevel):
        solve_level(problem, 0)


def test_perimeter_cap_outside_the_plane_is_refused():
    seq = GalerkinSequence.from_grid(3, [2])
    problem = GalerkinProblem(
        objective=ObjectiveSpec("neg_volume"),
        constraints=[ConstraintSpec("perimeter_le", limit=2 * np.pi)],
        inner_body=PointHull([[0, 0, 0]]), outer_body=Ball([0, 0, 0], 2.0),
        sequence=seq, report_kappa=False)
    with pytest.raises(ValueError, match="perimeter_le requires d = 2"):
        solve_level(problem, 0)


def test_inner_outer_certification():
    seq = GalerkinSequence.from_grid(2, [2])
    with pytest.raises(ValueError):
        GalerkinProblem(objective=ObjectiveSpec("neg_volume"), constraints=[],
                        inner_body=Ball([0, 0], 2.0),
                        outer_body=Ball([0, 0], 1.0), sequence=seq)


def test_feasible_bodies_stay_feasible_after_shift():
    # A ball satisfying the perimeter budget projects into the shifted
    # feasible set of every level.
    seq = GalerkinSequence.from_grid(2, [3, 4])
    perim = ConstraintSpec("perimeter_le", limit=2 * np.pi)
    outer = Ball([0, 0], 2.0)
    ball = Ball([0.1, -0.05], 0.9)
    assert 2 * np.pi * 0.9 <= 2 * np.pi
    for level in range(2):
        ns = seq.levels[level]
        cone = compile_cone(ns)
        kappa = estimate_kappa(ns)
        (shifted,) = shift_constraints([perim], kappa, outer.norm())
        res = project_coords(ball, cone, with_realization=True)
        values = shifted.values(res.coords.b, res.realization)
        assert (values <= 1e-9).all()


def test_target_tracking_converges_to_zero():
    seq = GalerkinSequence.from_grid(2, [2, 3])
    spec = ObjectiveSpec("target_tracking", target_body=Ball([0, 0], 1.0))
    problem = GalerkinProblem(objective=spec, constraints=[],
                              inner_body=ORIGIN,
                              outer_body=Ball([0, 0], 2.0),
                              sequence=seq, report_kappa=False)
    result = run_sequence(problem)
    for lr in result.levels:
        assert lr.objective_value <= 1e-9
        # About nine Newton steps per centering: 122 at N = 8, 132 at 16.
        assert lr.iterations <= 140


def test_single_level_sequence_equals_solve_level():
    seq = GalerkinSequence.from_grid(2, [2])
    spec = ObjectiveSpec("linear_support",
                         weights=-uniform_sphere_weights(2, 8))
    problem = GalerkinProblem(objective=spec, constraints=[],
                              inner_body=ORIGIN,
                              outer_body=Ball([0, 0], 1.0),
                              sequence=seq, report_kappa=False)
    via_seq = run_sequence(problem)
    direct = solve_level(problem, 0)
    assert via_seq.cross_level == []
    assert via_seq.levels[0].b == pytest.approx(direct.b, abs=1e-9)


def test_set_distance(square_cone):
    unit = realize(np.ones(4), square_cone)
    double = realize(2 * np.ones(4), square_cone)
    assert set_distance([unit], [unit]) == (0.0, 0.0)
    forward, sym = set_distance([unit], [double])
    assert forward == pytest.approx(np.sqrt(2), abs=1e-9)
    assert sym == pytest.approx(np.sqrt(2), abs=1e-9)
    forward, sym = set_distance([unit, double], [unit])
    assert forward == pytest.approx(np.sqrt(2), abs=1e-9)
    back, _ = set_distance([unit], [unit, double])
    assert back == 0.0


def isoperimetric_problem(seq, limit=2 * np.pi):
    """Criterion 8's problem: max area at perimeter <= limit between the
    origin and Ball(0, 2)."""
    return GalerkinProblem(
        objective=ObjectiveSpec("neg_volume"),
        constraints=[ConstraintSpec("perimeter_le", limit=limit)],
        inner_body=ORIGIN, outer_body=Ball([0, 0], 2.0),
        sequence=seq, report_kappa=False)


def lindelof_area(ns, perimeter):
    """Largest area of a polygon with normals ns and the given perimeter.

    By Lindelof's theorem it is the polygon circumscribed about a circle,
    b = r 1, whose area and perimeter are r^2 1'Lam 1 / 2 and r 1'Lam 1.
    1'Lam 1 >= 2 pi, so r <= 1 at perimeter 2 pi and the polygon fits the
    boxes of `isoperimetric_problem`.
    """
    return perimeter ** 2 / (2.0 * planar_forms(ns)[0].sum())


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6, 7])
def test_isoperimetric_level_reaches_lindelof(monkeypatch, level):
    # At level 2 (N = 8) the last Newton matrices are singular to working
    # precision (condition number about 4e17); an LU solve stops there on
    # an exact zero pivot, the least-squares solve does not.  A planar
    # level compiles no cone: at level 7 (N = 256) it would take 1.9 GB.
    def refuse(*args, **kwargs):
        raise AssertionError("a planar level compiled a cone")
    monkeypatch.setattr(cone_module, "compile_cone", refuse)
    monkeypatch.setattr(cone_module, "prune_redundant", refuse)
    seq = GalerkinSequence.from_grid(2, [level])
    result = solve_level(isoperimetric_problem(seq), 0)
    exact = lindelof_area(seq.levels[0], 2 * np.pi)
    assert abs(polygon_area(result.realization) - exact) <= 1e-10 * exact
    assert result.gap <= 1e-10 and result.start_count == 1
    assert result.iterations <= 120


@settings(max_examples=10, deadline=None)
@given(bounded_planar_systems())
def test_irregular_isoperimetric_level_reaches_lindelof(ns):
    result = solve_level(
        isoperimetric_problem(GalerkinSequence.from_systems([ns])), 0)
    exact = lindelof_area(ns, 2 * np.pi)
    assert abs(polygon_area(result.realization) - exact) <= 1e-10 * exact


@pytest.mark.parametrize("level", [3, 6])
def test_tight_cap_starts_from_barrier_phase_one(monkeypatch, level):
    # On the rows of level 6 (N = 128, 385 rows) the simplex raises
    # NumericalFailure.
    seq = GalerkinSequence.from_grid(2, [level])
    ns = seq.levels[0]
    problem = isoperimetric_problem(seq, limit=1.0)
    blend = problem.lam * problem.outer_body.norm() * np.ones(ns.count)
    assert planar_forms(ns)[1] @ blend > 1.0
    steps = []
    barrier = optimize_module._newton_barrier

    def counted(*args):
        out = barrier(*args)
        steps.append(out[1])
        return out

    monkeypatch.setattr(optimize_module, "_newton_barrier", counted)
    result = solve_level(problem, 0)
    exact = lindelof_area(ns, 1.0)
    assert abs(polygon_area(result.realization) - exact) <= 1e-10 * exact
    # Phase 1 and the level's barrier: iterations counts both.
    assert len(steps) == 2 and result.iterations == sum(steps)


def tight_cap_rows(level):
    """(G, h, blend, scale) of the level's rows under perimeter cap 1."""
    seq = GalerkinSequence.from_grid(2, [level])
    ns = seq.levels[0]
    problem = isoperimetric_problem(seq, limit=1.0)
    lower = project_coords(problem.inner_body, ns).coords.b
    upper = project_coords(problem.outer_body, ns).coords.b
    shifted = shift_constraints(problem.constraints, 0.0, 2.0)
    G, h = optimize_module._level_rows(ns, touching_rows(ns)[0], shifted,
                                       lower, upper)
    blend = (1.0 - problem.lam) * lower + problem.lam * 2.0
    return G, h, blend, 1.0 + np.abs(h).max()


@pytest.mark.parametrize("level", [3, 4, 5])
def test_phase_one_reaches_the_lp_largest_slack(level):
    G, h, blend, scale = tight_cap_rows(level)
    assert (G @ blend - h).min() < 0.0
    b, _ = optimize_module._phase_one(G, h, blend, scale)
    norms = np.linalg.norm(G, axis=1)
    s_lp = chebyshev_slack(G, h)
    assert s_lp > 0.0
    assert abs(((G @ b - h) / norms).min() - s_lp) <= 1e-8 * scale


def test_phase_one_refuses_rows_without_an_interior():
    G, h, blend, scale = tight_cap_rows(3)
    # A perimeter cap of -1: no b inside the boxes meets it.
    h = h.copy()
    h[-1] = 1.0
    with pytest.raises(InfeasibleLevel):
        optimize_module._phase_one(G, h, blend, scale)
    assert chebyshev_slack(G, h) < 0.0


def test_solver_paths_run_no_simplex(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the simplex ran")
    monkeypatch.setattr(lp_module, "_standard_form_simplex", refuse)
    # Every system is built here, so no bounded flag is cached from
    # another test; the tight cap puts the blend outside the rows.
    compile_cone(spherical_grid_normals(2, 4))
    tight = isoperimetric_problem(GalerkinSequence.from_grid(2, [3, 4]), 1.0)
    blend = tight.lam * 2.0 * np.ones(16)
    assert planar_forms(tight.sequence.levels[0])[1] @ blend > 1.0
    solve_level(tight, 0)
    grid3 = GalerkinProblem(
        objective=ObjectiveSpec("neg_volume"),
        constraints=[ConstraintSpec("linear_support_le", limit=4 * np.pi,
                                    weights=uniform_sphere_weights(3, 26))],
        inner_body=PointHull([[0, 0, 0]]), outer_body=Ball([0, 0, 0], 2.0),
        sequence=GalerkinSequence.from_grid(3, [2]), report_kappa=True)
    assert solve_level(grid3, 0).kappa_hat > 0.0


def grid3_opt_problem(report_kappa):
    """d = 3 grid level 2 under the rotation that seed 1 draws for the
    grid3_opt benchmark: max volume at mean width <= 4 pi between the
    origin and Ball(0, 2)."""
    q, r = np.linalg.qr(np.random.default_rng([1, 0]).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    m = spherical_grid_normals(3, 2).matrix
    ns = validate_normals(np.column_stack(
        [q[i, 0] * m[:, 0] + q[i, 1] * m[:, 1] + q[i, 2] * m[:, 2]
         for i in range(3)]))
    return GalerkinProblem(
        objective=ObjectiveSpec("neg_volume"),
        constraints=[ConstraintSpec("linear_support_le", limit=4 * np.pi,
                                    weights=uniform_sphere_weights(3, 26))],
        inner_body=PointHull([[0, 0, 0]]), outer_body=Ball([0, 0, 0], 2.0),
        sequence=GalerkinSequence.from_systems([ns]),
        report_kappa=report_kappa)


def test_grid3_volume_reaches_the_minkowski_optimum():
    # At the optimum only the mean-width row is active, so the KKT
    # conditions make every facet area equal.
    result = solve_level(grid3_opt_problem(report_kappa=False), 0)
    areas = facet_measures(result.realization)
    assert polytope_volume(result.realization) >= 4.84335
    assert areas.max() - areas.min() <= 1e-8 * areas.mean()
    assert result.iterations <= 120


def test_centering_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(optimize_module, "_MAX_CENTERING", 1)
    seq = GalerkinSequence.from_grid(2, [2])
    with pytest.raises(NumericalFailure):
        solve_level(isoperimetric_problem(seq), 0)


def test_levels_enumerate_no_diamond_subset(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a level enumerated the diamond subsets")
    monkeypatch.setattr(cone_module, "_diamond_arrays", refuse)
    planar = solve_level(
        isoperimetric_problem(GalerkinSequence.from_grid(2, [4])), 0)
    assert planar.gap <= 1e-10
    grid3 = solve_level(grid3_opt_problem(report_kappa=True), 0)
    assert grid3.gap <= 1e-10 and grid3.kappa_hat > 0.0


# Facets whose neighbours are antipodal within the margin get no touching
# row: every facet of the square (Lam_kk reads -1.2e-16), and facet 0 of a
# system whose a_0 has neighbours pi - 1e-9 apart (Lam_00 = -1.4e-9), or
# pi - 5e-6 apart, where the row's largest entry would be 1.7e5 and the
# compile keeps the adjacent-pair column.
BELOW_MARGIN = ([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi],
                [0.0, 4.0, 1.0, 2.0, 1.0 + np.pi + 1e-9],
                [0.0, 4.0, 1.0, 2.0, 1.0 + np.pi + 5e-6])


@pytest.mark.parametrize("angles", BELOW_MARGIN)
@pytest.mark.parametrize("objective", ["neg_volume", "raise_facet_0"])
@pytest.mark.parametrize("points", [[[0.3, 0.1], [-0.2, 0.4], [-0.1, -0.3]],
                                    [[0.0, 0.0]]], ids=["hull", "point"])
def test_facets_below_the_margin_are_solved_safely(angles, objective, points):
    ns = validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))
    rows, covered = touching_rows(ns)
    assert not covered and not (rows[:, 0] == -1.0).any()
    if objective == "neg_volume":
        spec = ObjectiveSpec("neg_volume")
    else:
        # Reward b_0 and penalize the rest: the dropped row is the only
        # one that could hold b_0 below the outer box.
        weights = np.ones(ns.count)
        weights[0] = -1.0
        spec = ObjectiveSpec("linear_support", weights=weights)
    problem = GalerkinProblem(
        objective=spec, constraints=[], inner_body=PointHull(points),
        outer_body=Ball([0.0, 0.0], 2.0),
        sequence=GalerkinSequence.from_systems([ns]), report_kappa=False)
    try:
        b = solve_level(problem, 0).b
    except ExteriorCoordinates:
        # The hull holds a disc far wider than mu times the outer diameter,
        # which implies the dropped row; a single point does not, and a
        # level that then ends past its realization's support must say so.
        assert len(points) == 1
        return
    cone = prune_redundant(compile_cone(ns))
    assert not cone.pruned[cone.target == DIAMOND_TARGET].any()
    assert classify(b, cone).classification != EXTERIOR
    assert np.abs(support_coordinates(realize(b, cone)) - b).max() \
        <= 1e-7 * (1.0 + np.abs(b).max())
