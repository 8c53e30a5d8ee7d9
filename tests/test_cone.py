import numpy as np
import pytest

from polygal import (BadDimension, DuplicateRow, LinearProgram, UnboundedSpace,
                     ZeroRow, check_bounded, classify, compile_cone,
                     extreme_points_diamond, extreme_points_touching,
                     prune_redundant, solve_lp, validate_normals)
from polygal.cone import DIAMOND_TARGET, INDEP_TOL, RESIDUAL_TOL

from conftest import dual_vertices_for_direction, regular_normals, touching_for


def diamond_remark_holds(ns, vertex) -> bool:
    """For each i0 in the support, the remaining normals must stay linearly
    independent (equivalent vertex characterization of the slice)."""
    support = list(vertex.support)
    for i0 in support:
        rest = [i for i in support if i != i0]
        if not rest:
            continue
        sub = ns.matrix[rest]
        rank = np.linalg.matrix_rank(sub, tol=INDEP_TOL)
        if rank < len(rest):
            return False
    return True


def cone_contains(ns, small, big) -> bool:
    """Whether every generator of cone({a_i : i in small.support}) is a
    nonnegative combination over big.support."""
    gens = ns.matrix[list(big.support)].T  # (d, s), independent columns
    pinv = np.linalg.pinv(gens)
    for i in small.support:
        lam = pinv @ ns.matrix[i]
        if (lam < -INDEP_TOL).any():
            return False
        if np.abs(gens @ lam - ns.matrix[i]).max() > RESIDUAL_TOL:
            return False
    return True


def test_validate_accepts_axes(square_ns):
    assert square_ns.count == 4
    assert not square_ns.renormalized


def test_validate_rejects_duplicates_and_zero_rows():
    with pytest.raises(DuplicateRow):
        validate_normals([[1, 0], [1, 0]])
    with pytest.raises(ZeroRow):
        validate_normals([[0, 0], [1, 0]])
    with pytest.raises(BadDimension):
        validate_normals([[1.0], [-1.0]])


def test_validate_normalizes_with_flag():
    ns = validate_normals([[2, 0], [0, 1]])
    assert ns.renormalized
    assert np.allclose(ns.matrix[0], [1, 0])


def test_boundedness_screening(hexagon_ns, square_ns):
    assert check_bounded(hexagon_ns)
    assert check_bounded(square_ns)
    angles = np.array([0.0, np.pi / 6, np.pi / 3])
    narrow = validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))
    assert not check_bounded(narrow)


def test_square_diamond_vertices(square_ns):
    vertices = extreme_points_diamond(square_ns)
    assert [v.support for v in vertices] == [(0, 2), (1, 3)]
    for v in vertices:
        assert v.weights == pytest.approx((0.5, 0.5), abs=1e-12)


def test_hexagon_diamond_structure(hexagon_ns):
    vertices = extreme_points_diamond(hexagon_ns)
    assert len(vertices) == 5
    pairs = [v for v in vertices if len(v.support) == 2]
    triples = [v for v in vertices if len(v.support) == 3]
    assert sorted(v.support for v in pairs) == [(0, 3), (1, 4), (2, 5)]
    assert sorted(v.support for v in triples) == [(0, 2, 4), (1, 3, 5)]
    for v in pairs:
        assert v.weights == pytest.approx((0.5, 0.5), abs=1e-12)
    for v in triples:
        assert v.weights == pytest.approx((1 / 3,) * 3, abs=1e-12)


def test_narrow_fan_has_empty_diamond():
    angles = np.array([0.0, np.pi / 6, np.pi / 3])
    narrow = validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))
    assert extreme_points_diamond(narrow) == []


def test_square_touching_empty(square_ns):
    for k in range(4):
        assert extreme_points_touching(square_ns, k) == []


def test_hexagon_touching_adjacent_pairs(hexagon_ns):
    for k in range(6):
        vertices = extreme_points_touching(hexagon_ns, k)
        assert len(vertices) == 1
        v = vertices[0]
        assert set(v.support) == {(k - 1) % 6, (k + 1) % 6}
        assert v.weights == pytest.approx((1.0, 1.0), abs=1e-9)
        assert k not in v.support


def test_octagon_touching_k0(octagon_ns):
    vertices = extreme_points_touching(octagon_ns, 0)
    by_support = {v.support: np.array(v.weights) for v in vertices}
    assert set(by_support) == {(1, 7), (1, 6), (2, 7)}
    s = np.sqrt(2.0)
    assert by_support[(1, 7)] == pytest.approx([1 / s, 1 / s], abs=1e-9)
    assert by_support[(1, 6)] == pytest.approx([s, 1.0], abs=1e-9)
    assert by_support[(2, 7)] == pytest.approx([1.0, s], abs=1e-9)


def test_touching_vertices_avoid_their_own_facet(octagon_ns):
    for k in range(8):
        for v in extreme_points_touching(octagon_ns, k):
            assert k not in v.support
            sub = octagon_ns.matrix[list(v.support)]
            assert np.linalg.matrix_rank(sub, tol=1e-10) == len(v.support)


def test_diamond_remark_invariant(hexagon_ns, octagon_ns):
    for ns in (hexagon_ns, octagon_ns):
        for v in extreme_points_diamond(ns):
            assert diamond_remark_holds(ns, v)


def test_support_sets_unique_per_target(hexagon_cone, octagon_cone):
    for cone in (hexagon_cone, octagon_cone):
        seen = set()
        for j in range(cone.count):
            key = (cone.vertex(j).target, cone.vertex(j).support)
            assert key not in seen
            seen.add(key)


def test_compile_counts_and_membership(square_cone, hexagon_cone):
    assert square_cone.diamond_count == 2
    assert square_cone.touching_count == 0
    assert hexagon_cone.diamond_count == 5
    assert hexagon_cone.touching_count == 6
    # Square cone is exactly {b : b0 + b2 >= 0, b1 + b3 >= 0}.
    mat = square_cone.matrix()
    rng = np.random.default_rng(3)
    for _ in range(100):
        b = rng.uniform(-2, 2, size=4)
        direct = b[0] + b[2] >= 0 and b[1] + b[3] >= 0
        assert ((mat.T @ b).min() >= 0) == direct


def test_all_ones_interior(square_cone, hexagon_cone, octagon_cone):
    for cone in (square_cone, hexagon_cone, octagon_cone):
        n = cone.normal_system.count
        assert (cone.matrix().T @ np.ones(n) > 0).all()
        assert classify(np.ones(n), cone).classification == "interior"


def test_compile_refuses_unbounded():
    angles = np.array([0.0, np.pi / 6, np.pi / 3])
    narrow = validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))
    with pytest.raises(UnboundedSpace):
        compile_cone(narrow)


def test_size_guard():
    big = regular_normals(600)
    with pytest.raises(ValueError):
        extreme_points_diamond(big)


def test_planar_size_guard_refuses_before_enumerating(monkeypatch):
    import polygal.cone as cone_module

    def started(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(cone_module, "check_bounded", started)
    monkeypatch.setattr(cone_module, "_solve_candidates", started)
    ns = regular_normals(cone_module.SIZE_GUARDS[2] + 1)
    with pytest.raises(ValueError):
        compile_cone(ns)
    with pytest.raises(ValueError):
        extreme_points_touching(ns, 0)


def test_octagon_pruning(octagon_cone):
    pruned = prune_redundant(octagon_cone)
    for k in range(8):
        cols = touching_for(pruned, k)
        survivors = [c for c in cols if not c.pruned]
        assert len(survivors) == 1
        assert set(survivors[0].vertex.support) == {(k - 1) % 8, (k + 1) % 8}
    dropped = {c.vertex.support for c in touching_for(pruned, 0) if c.pruned}
    assert dropped == {(1, 6), (2, 7)}


def test_hexagon_prunes_only_its_diamonds(hexagon_cone):
    # Every hexagon facet keeps its one touching column, so the touching
    # rows imply the 5 diamonds.
    pruned = prune_redundant(hexagon_cone)
    diamond = pruned.target == DIAMOND_TARGET
    assert not pruned.pruned[~diamond].any()
    assert pruned.pruned[diamond].all() and diamond.sum() == 5


@pytest.mark.parametrize("n", [6, 8, 12])
def test_equally_spaced_prune_to_adjacent_pairs(n):
    cone = prune_redundant(compile_cone(regular_normals(n)))
    for k in range(n):
        survivors = [c for c in touching_for(cone, k) if not c.pruned]
        assert len(survivors) == 1
        assert set(survivors[0].vertex.support) == {(k - 1) % n, (k + 1) % n}


def test_planar_prune_agrees_with_generic_containment(octagon_cone):
    pruned = prune_redundant(octagon_cone)
    ns = octagon_cone.normal_system
    for k in range(8):
        cols = touching_for(pruned, k)
        for big in cols:
            if not big.pruned:
                continue
            assert any(
                cone_contains(ns, small.vertex, big.vertex)
                for small in cols
                if set(small.vertex.support) != set(big.vertex.support))


def test_pruning_soundness_random(octagon_cone):
    pruned = prune_redundant(octagon_cone)
    rng = np.random.default_rng(11)
    full = octagon_cone.matrix()
    kept = pruned.matrix()
    for _ in range(1000):
        b = rng.uniform(-2, 2, size=8)
        tol = 1e-9
        assert ((full.T @ b).min() >= -tol) == ((kept.T @ b).min() >= -tol)
    # Boundary activity: points on the cone boundary stay detected.
    for _ in range(20):
        pts = rng.normal(size=(4, 2))
        b = (octagon_cone.normal_system.matrix @ pts.T).max(axis=1)
        full_active = np.abs(full.T @ b).min() <= 1e-9
        kept_active = np.abs(kept.T @ b).min() <= 1e-9
        assert full_active == kept_active


def test_dual_vertices_refine_lp_certificates(hexagon_ns):
    # Any dual solution admits an enumerated vertex with smaller support.
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.normal(size=2)
        c /= np.linalg.norm(c)
        out = solve_lp(LinearProgram(c, hexagon_ns.matrix,
                                     rng.uniform(0.5, 2, 6)))
        if out.status != "optimal":
            continue
        p = out.dual_certificate
        support = set(np.nonzero(p > 1e-9)[0].tolist())
        vertices = dual_vertices_for_direction(hexagon_ns, c)
        assert any(set(v_support) <= support for v_support, _ in vertices)


def test_membership_equals_definitional_check(hexagon_cone):
    ns = hexagon_cone.normal_system
    mat = hexagon_cone.matrix()
    rng = np.random.default_rng(17)
    from polygal import farkas_feasible
    for _ in range(200):
        b = rng.uniform(-2, 2, size=6)
        member = (mat.T @ b).min() >= -1e-7
        feasible, _ = farkas_feasible(ns.matrix, b)
        if feasible:
            sup = np.array([solve_lp(LinearProgram(a, ns.matrix, b)).value
                            for a in ns.matrix])
            definitional = np.abs(sup - b).max() <= 1e-7
        else:
            definitional = False
        assert member == definitional
