"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from polygal import (Ball, ConstraintSpec, GalerkinProblem, GalerkinSequence,
                     LinearProgram, ObjectiveSpec, PointHull, UnboundedSpace,
                     classify, compile_cone, diagnose_boundary,
                     embed_coordinates, estimate_delta, estimate_kappa,
                     facet_dimension, farkas_feasible,
                     hausdorff_body_vs_polytope, hausdorff_polytopes,
                     project_coords, project_interior, prune_redundant,
                     realize, run_sequence, solve_lp, support_coordinates,
                     validate_normals)
from polygal.spheres import circle_directions

from conftest import random_point_hull, regular_normals, touching_for


def _report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_membership_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    tol = 1e-7
    checked = 0
    agreements = 0
    for n in (4, 6, 8, 12):
        ns = regular_normals(n)
        cone = compile_cone(ns)
        mat = cone.matrix()
        for _ in range(1000):
            b = rng.uniform(-2.0, 2.0, size=n)
            compiled = (mat.T @ b).min() >= -tol
            feasible, _ = farkas_feasible(ns.matrix, b)
            if not feasible:
                definitional = False
            else:
                definitional = True
                for i in range(n):
                    out = solve_lp(LinearProgram(ns.matrix[i], ns.matrix, b))
                    if out.status != "optimal" or abs(out.value - b[i]) > tol:
                        definitional = False
                        break
            checked += 1
            agreements += compiled == definitional
    elapsed = time.monotonic() - start
    _report(1, agreements == checked and elapsed < 10.0,
            f"membership agreement {agreements}/{checked} in {elapsed:.2f}s")


def test_criterion_2_structure_counts():
    square = compile_cone(regular_normals(4))
    hexagon = compile_cone(regular_normals(6))
    octagon = prune_redundant(compile_cone(regular_normals(8)))
    ok = (square.diamond_count == 2 and square.touching_count == 0
          and hexagon.diamond_count == 5 and hexagon.touching_count == 6)
    adjacency = True
    for k in range(8):
        survivors = [c for c in touching_for(octagon, k) if not c.pruned]
        adjacency &= len(survivors) == 1
        adjacency &= set(survivors[0].vertex.support) == {(k - 1) % 8, (k + 1) % 8}
    # The condition b_0 <= b_2 + sqrt(2) b_7 (1-indexed: b_1 <= b_3 +
    # sqrt(2) b_8) must be flagged redundant.
    flagged = False
    for col in touching_for(octagon, 0):
        if col.vertex.support == (2, 7):
            w = np.asarray(col.vertex.weights)
            flagged = col.pruned and np.allclose(w, [1.0, np.sqrt(2)], atol=1e-9)
    _report(2, ok and adjacency and flagged,
            f"square 2/0, hexagon 5/6, octagon adjacent-only survivors, "
            f"sqrt(2)-condition pruned={flagged}")


def test_criterion_3_round_trip_and_inverse_lipschitz():
    ns = regular_normals(16)
    cone = compile_cone(ns)
    rng = np.random.default_rng(103)

    def interior_b():
        hull = random_point_hull(rng)
        return project_interior(hull, cone, rng.uniform(0.1, 0.5)).coords.b

    worst_rt = 0.0
    for _ in range(100):
        b = interior_b()
        rt = np.abs(support_coordinates(realize(b, cone)) - b).max()
        worst_rt = max(worst_rt, rt)
    worst_gap = -np.inf
    for _ in range(100):
        b1, b2 = interior_b(), interior_b()
        dist = hausdorff_polytopes(realize(b1, cone), realize(b2, cone))
        worst_gap = max(worst_gap, np.abs(b1 - b2).max() - dist)
    ok = worst_rt <= 1e-7 and worst_gap <= 1e-7
    _report(3, ok, f"round trip err {worst_rt:.2e}, "
                   f"inverse-Lipschitz slack {worst_gap:.2e}")


def test_criterion_4_strong_duality_and_farkas():
    rng = np.random.default_rng(104)
    systems = [regular_normals(n) for n in (4, 6, 8, 12)]
    optimal = infeasible = 0
    ok = True
    for trial in range(500):
        ns = systems[trial % len(systems)]
        A = ns.matrix
        c = rng.normal(size=2)
        b = (rng.uniform(-2, 2, size=ns.count) if trial % 2
             else rng.uniform(0.1, 2, size=ns.count))
        out = solve_lp(LinearProgram(c, A, b))
        if out.status == "optimal":
            optimal += 1
            gap = abs(out.value - b @ out.dual_certificate)
            ok &= gap <= 1e-7 * (1 + abs(out.value))
            ok &= np.abs(A.T @ out.dual_certificate - c).max() <= 1e-7
        elif out.status == "infeasible":
            infeasible += 1
            p = out.dual_certificate
            ok &= np.abs(A.T @ p).max() <= 1e-9
            ok &= (p >= -1e-12).all() and b @ p < 0
    _report(4, ok and optimal > 50 and infeasible > 50,
            f"{optimal} optimal / {infeasible} infeasible certificates verified")


def test_criterion_5_projection_bounds():
    start = time.monotonic()
    ns = regular_normals(32)
    cone = compile_cone(ns)
    delta = 2 * np.sin(np.pi / 64)
    assert estimate_delta(ns) == pytest.approx(delta, abs=1e-12)
    kappa = estimate_kappa(ns)
    delta_factor = (2 - delta) / (1 - delta) * delta
    dirs = circle_directions(720)
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(100):
        hull = random_point_hull(rng)
        res = project_coords(hull, cone, with_realization=True)
        sigma_body = hull.support_many(dirs)
        sigma_poly = (dirs @ res.realization.vertices.T).max(axis=1)
        ok &= (sigma_poly - sigma_body).min() >= -1e-9
        # The interval needs a denser sample than the inclusion check: the
        # certified inflation must fit under the kappa margin.
        _, upper = hausdorff_body_vs_polytope(hull, res.realization, 5760)
        size = hull.norm()
        ok &= upper <= kappa * size + 1e-6
        ok &= upper <= delta_factor * size + 1e-6
    elapsed = time.monotonic() - start
    _report(5, ok and elapsed < 30.0,
            f"inclusion + kappa/delta bounds on 100 hulls in {elapsed:.2f}s")


def test_criterion_6_nesting_and_boundary_landing():
    seq = GalerkinSequence.from_grid(2, [2, 3])
    coarse, fine = seq.levels
    coarse_cone = compile_cone(coarse)
    fine_cone = compile_cone(fine)
    fine_matrix = fine_cone.matrix()
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(50):
        hull = random_point_hull(rng)
        b = project_interior(hull, coarse_cone, rng.uniform(0.1, 0.4)).coords.b
        embedded = embed_coordinates(b, seq, 0, 1, coarse_cone=coarse_cone)
        cv = classify(embedded.b, fine_cone)
        ok &= cv.classification == "boundary"
        ok &= (fine_matrix.T @ embedded.b).min() <= 1e-8
    for _ in range(50):
        hull = random_point_hull(rng)
        b_coarse = project_coords(hull, coarse).coords.b
        real = project_coords(hull, fine_cone, with_realization=True).realization
        on_coarse = (coarse.matrix @ real.vertices.T).max(axis=1)
        ok &= (on_coarse <= b_coarse + 1e-9).all()
    _report(6, ok, "embedded coordinates land on the fine boundary; "
                   "finer projections nest")


def test_criterion_7_interior_shift():
    ns = regular_normals(16)
    cone = compile_cone(ns)
    mat = cone.matrix()
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(100):
        hull = random_point_hull(rng)
        plain = project_coords(hull, ns).coords.b
        for lam in (0.01, 0.1, 0.5):
            shifted = project_interior(hull, cone, lam).coords.b
            ok &= (mat.T @ shifted).min() > 0
            ok &= np.abs(shifted - plain).max() <= 2 * lam * hull.norm() + 1e-9
    _report(7, ok, "strict interiority and the 2*lambda*|C| bound hold")


def test_criterion_8_isoperimetric_experiment():
    start = time.monotonic()
    seq = GalerkinSequence.from_grid(2, [3, 4, 5])
    problem = GalerkinProblem(
        objective=ObjectiveSpec("neg_volume"),
        constraints=[ConstraintSpec("perimeter_le", limit=2 * np.pi)],
        inner_body=PointHull([[0, 0]]),
        outer_body=Ball([0, 0], 2.0),
        sequence=seq)
    result = run_sequence(problem)
    elapsed = time.monotonic() - start
    area = -result.levels[-1].objective_value
    rel_err = abs(area - np.pi) / np.pi
    gaps = [c["hausdorff"] for c in result.cross_level]
    ok = rel_err <= 0.02 and gaps[0] > gaps[1] > 0 and elapsed < 60.0
    _report(8, ok, f"area {area:.6f} (err {100 * rel_err:.3f}%), "
                   f"hausdorff {gaps[0]:.5f} > {gaps[1]:.5f}, {elapsed:.1f}s")


def test_criterion_9_degeneracy_geometry():
    hexagon = compile_cone(regular_normals(6))
    square = compile_cone(regular_normals(4))
    b_hex = np.array([2.0, 1, 1, 1, 1, 1])
    real = realize(b_hex, hexagon)
    report = diagnose_boundary(b_hex, hexagon)
    hex_ok = (facet_dimension(real, 0) == 0
              and not report.flat
              and report.degenerate_facets == (0,)
              and {tuple(v.support) for v in report.facet_witnesses[0]} == {(1, 5)})
    b_sq = np.array([1.0, 1.0, -1.0, 1.0])
    report_sq = diagnose_boundary(b_sq, square)
    witness = report_sq.flat_witnesses[0] if report_sq.flat_witnesses else None
    sq_ok = (report_sq.flat and witness is not None
             and witness.support == (0, 2)
             and np.allclose(witness.weights, [0.5, 0.5], atol=1e-12))
    _report(9, hex_ok and sq_ok,
            "hexagon facet-1 collapse and square flatness diagnosed exactly")


def test_criterion_10_boundedness_screening():
    hexagon_accepted = True
    try:
        compile_cone(regular_normals(6))
    except UnboundedSpace:
        hexagon_accepted = False
    angles = np.array([0.0, np.pi / 6, np.pi / 3])
    narrow = validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))
    rejected = False
    try:
        compile_cone(narrow)
    except UnboundedSpace:
        rejected = True
    _report(10, hexagon_accepted and rejected,
            "hexagon accepted; 0/30/60-degree fan rejected as unbounded")
