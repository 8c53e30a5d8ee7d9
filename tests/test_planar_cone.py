"""The d = 2 cone compile against the exhaustive all-subsets enumeration.

In d = 2 the compile passes the SVD kernel only the subsets that the signs
of cross products admit, and the prune keeps each facet's angle-adjacent
pair.  Both must reproduce, bit for bit, the enumeration over all subsets
and the pairwise interval test.  The diamonds are pruned when
`touching_rows` reports every facet covered, and the pruned cone labels as
the unpruned one does.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polygal import (DuplicateRow, UnboundedSpace, check_bounded, classify,
                     compile_cone, diagnose_boundary, prune_redundant,
                     validate_normals)
from polygal.cone import (DIAMOND_TARGET, TOUCHING_MARGIN, CompiledCone,
                          _compile, _prune_group_generic, touching_rows)
from polygal.coordinates import EXTERIOR, classification_band
from polygal.lp import BOUNDED_MARGIN

from conftest import (TRANSFORMS, bounded_planar_systems, regular_normals,
                      transformed_grid)


def pairwise_prune(cone):
    """Pruned flags from the all-pairs planar interval containment, with the
    generic test for any facet whose supports are not straddling pairs."""
    ns = cone.normal_system
    theta = np.arctan2(ns.matrix[:, 1], ns.matrix[:, 0])
    pruned = cone.pruned.copy()
    for k in range(ns.count):
        group = np.flatnonzero(cone.target == k)
        left = np.empty(group.size)
        right = np.empty(group.size)
        planar = True
        for j, col in enumerate(group):
            gaps = sorted(
                np.mod(theta[i] - theta[k] + np.pi, 2 * np.pi) - np.pi
                for i in cone.support[col] if i >= 0)
            if len(gaps) != 2 or not (gaps[0] < 0 < gaps[1]):
                planar = False
                break
            right[j], left[j] = -gaps[0], gaps[1]
        if not planar:
            local = _prune_group_generic(ns, cone.support[group])
        else:
            local = np.nonzero(pairwise_witness(left, right))[0]
        pruned[group[local]] = True
    return pruned


def pairwise_witness(left, right, tol=1e-12):
    """Mask over j: some interval i lies inside j within tol and is shorter
    than j beyond tol at one end."""
    inside = (left[:, None] <= left[None, :] + tol) & \
             (right[:, None] <= right[None, :] + tol)
    strict = (left[:, None] < left[None, :] - tol) | \
             (right[:, None] < right[None, :] - tol)
    return (inside & strict).any(axis=0)


def assert_matches_oracle(ns):
    fast = prune_redundant(_compile(ns))
    oracle = _compile(ns, exhaustive=True)
    assert fast.target.tobytes() == oracle.target.tobytes()
    assert fast.support.tobytes() == oracle.support.tobytes()
    assert fast.weights.tobytes() == oracle.weights.tobytes()
    touching = fast.target != DIAMOND_TARGET
    kept = touching & ~pairwise_prune(oracle)
    assert np.array_equal(fast.pruned[touching], ~kept[touching])
    # The diamonds go iff `touching_rows` covers every facet, and only
    # where every facet keeps a touching column.
    covered = check_bounded(ns) and touching_rows(ns)[1]
    assert (fast.pruned[~touching] == covered).all()
    if covered:
        assert np.isin(np.arange(ns.count), oracle.target[kept]).all()
    oracle = prune_redundant(oracle)
    assert fast.matrix().tobytes() == oracle.matrix().tobytes()
    return fast


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 48), st.floats(0.0, 2.0 * np.pi))
def test_regular_polygons_match_exhaustive_compile(n, offset):
    assert_matches_oracle(regular_normals(n, offset))


@settings(max_examples=16, deadline=None)
@given(st.integers(2, 5), st.sampled_from(TRANSFORMS),
       st.integers(0, 2**32 - 1))
def test_grid_levels_match_exhaustive_compile(level, transform, seed):
    assert_matches_oracle(transformed_grid(level, transform, seed))


@st.composite
def irregular_systems(draw):
    """Random angles plus the near-degenerate configurations the sign
    filter's margin must cover: a two-gap window (three rows whose outer two
    lie at or within 1e-9 of pi apart), exact antipodal pairs and neighbours
    1e-7 rad apart."""
    angle = st.floats(0.0, 2.0 * np.pi)
    angles = draw(st.lists(angle, min_size=2, max_size=16))
    if draw(st.booleans()):
        base = draw(angle)
        eps = draw(st.sampled_from([0.0, 1e-9, -1e-9, 3e-10, -3e-10]))
        angles += [base, base + draw(st.floats(0.1, 3.0)), base + np.pi + eps]
    rows = np.column_stack([np.cos(angles), np.sin(angles)])
    antipodes = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3,
                              unique=True))
    neighbours = draw(st.lists(st.integers(0, len(angles) - 1), max_size=2,
                               unique=True))
    near = [angles[i] + 1e-7 for i in neighbours]
    rows = np.vstack([rows, -rows[antipodes],
                      np.column_stack([np.cos(near), np.sin(near)])])
    try:
        return validate_normals(rows)
    except DuplicateRow:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(irregular_systems())
@example(validate_normals(
    np.vstack([regular_normals(7).matrix, -regular_normals(7).matrix[:3]])))
@example(validate_normals(np.column_stack([np.cos([0.0, 1.0, np.pi, 4.0]),
                                          np.sin([0.0, 1.0, np.pi, 4.0])])))
@example(validate_normals(np.column_stack(
    [np.cos([3.0, 1e-7, 1.0, 2.0, 1.0 + np.pi]),
     np.sin([3.0, 1e-7, 1.0, 2.0, 1.0 + np.pi])])))
def test_irregular_systems_match_exhaustive_compile(ns):
    # The ray margin is at least half of pi minus the largest gap, so only
    # a gap in [pi - 2 BOUNDED_MARGIN, pi) may read either way.
    angles = np.sort(ns.angles())
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    if gaps.max() < np.pi - 2.0 * BOUNDED_MARGIN - 1e-15:
        assert check_bounded(ns)
    if gaps.max() >= np.pi:
        assert not check_bounded(ns)
    assert_matches_oracle(ns)


@pytest.mark.parametrize("angles", [[0.0, np.pi / 6, np.pi / 3],
                                    [0.0, 1.0, 2.0, np.pi],
                                    [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]])
def test_unbounded_fans_still_raise(angles):
    ns = validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))
    assert not check_bounded(ns)
    with pytest.raises(UnboundedSpace):
        compile_cone(ns)
    with pytest.raises(UnboundedSpace):
        touching_rows(ns)
    assert_matches_oracle(ns)


def planar(angles):
    return validate_normals(np.column_stack([np.cos(angles), np.sin(angles)]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(bounded_planar_systems(max_level=5), irregular_systems()),
       st.integers(0, 2**32 - 1))
@example(regular_normals(4), 0)
@example(planar([0.0, 4.0, 1.0, 2.0, 1.0 + np.pi + 1e-9]), 1)
@example(planar([0.0, 1e-4, 2.0, np.pi + 1e-4 + 1e-10]), 2)
@example(regular_normals(3), 3)
@example(planar([0.3, 2.0, 4.1]), 4)
@example(planar([0.0, 0.1, 3.2]), 5)
@example(validate_normals([[-0.9899925, 0.14112001], [0.0707372, 0.99749499],
                           [0.54030231, 0.84147098], [-0.41614684, 0.90929743],
                           [-0.54030231, -0.84147099],
                           [-0.54030222, -0.84147104]]), 6)
def test_touching_rows_are_the_one_row_and_coverage_predicate(ns, seed):
    # The examples: the square (Lam_kk reads -1.2e-16), a facet whose
    # neighbours lie pi - 1e-9 apart (Lam_00 = -1.4e-9), a facet with
    # neighbours at +1e-4 and -(pi - 1e-4 - 1e-10) (Lam_00 = -1e-2, far
    # above rounding yet below the margin), three triangles, and a facet
    # whose row solves a pair of condition 3.7e8 (entries near 100).
    assume(check_bounded(ns))
    rows, covered = touching_rows(ns)
    facets = np.argmin(rows, axis=1)
    assert (rows[np.arange(facets.size), facets] == -1.0).all()
    assert (np.diff(facets) > 0).all()
    assert covered == (facets.size == ns.count)
    assert (rows <= 1.0 / TOUCHING_MARGIN).all()
    # Wherever facet k has a row, the pruned cone keeps the column on the
    # angle-adjacent pair, and it is that row.  Both solve the pair's 2 x 2
    # system for a_k to rounding, so they agree within 1e-11 relative, or
    # within the solve's own error, about eps times its condition number,
    # where irregular_systems puts the pair near parallel or antipodal.
    cone = prune_redundant(compile_cone(ns))
    order = np.argsort(ns.angles())
    adjacent = {k: sorted({i, j}) for k, i, j in
                zip(order, np.roll(order, 1), np.roll(order, -1))}
    matrix = cone.matrix()
    targets = cone.target[cone.column_indices()]
    for k, row in zip(facets, rows):
        (column,) = matrix[:, targets == k].T
        pair = adjacent[k]
        assert list(np.flatnonzero(column > 0)) == pair
        gens = ns.matrix[pair]
        for vec in (row, column):
            assert np.abs(vec[pair] @ gens - ns.matrix[k]).max() \
                <= 1e-13 * np.abs(vec).max()
        tol = max(1e-11, 1e-15 * np.linalg.cond(gens))
        assert np.abs(row - column).max() <= tol * np.abs(column).max()
    assert (cone.pruned[cone.target == DIAMOND_TARGET] == covered).all()
    # The rows' band label is classify's, except where only columns the
    # rows leave out are negative: diamonds, which the inner box implies in
    # a solve, and the columns of facets without a row.
    left_out = ~np.isin(targets, facets)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        b = (ns.matrix @ rng.uniform(-0.5, 0.5, 2) + rng.uniform(0.5, 1.5)
             + rng.choice([0.0, 0.1, 0.5, 1.0])
             * rng.uniform(-1.0, 1.0, ns.count))
        band = classification_band(b)
        exterior = bool((rows @ b < -band).any())
        if classify(b, cone).classification != EXTERIOR:
            assert not exterior
        elif not exterior:
            assert not covered
            assert left_out[matrix.T @ b < -band].all()


def probe_coordinates(ns, rng):
    """Support values of a point hull (1 to 6 points, so points, segments
    and flat polygons occur), the same moved by +-0.05, and the same
    loosened by U[0, 0.5]."""
    points = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 7)), 2))
    b = (ns.matrix @ points.T).max(axis=1)
    return (b, b + rng.uniform(-0.05, 0.05, ns.count),
            b + rng.uniform(0.0, 0.5, ns.count))


@settings(max_examples=40, deadline=None)
@given(st.one_of(bounded_planar_systems(),
                 st.builds(transformed_grid, st.integers(2, 5),
                           st.sampled_from(TRANSFORMS),
                           st.integers(0, 2**32 - 1)),
                 irregular_systems()),
       st.integers(0, 2**32 - 1))
@example(regular_normals(4), 0)
@example(regular_normals(6), 1)
@example(planar([0.0, 0.1, 3.2]), 2)
@example(validate_normals(np.column_stack(
    [np.cos([0.0, 4.0, 1.0, 2.0, 1.0 + np.pi + 1e-9]),
     np.sin([0.0, 4.0, 1.0, 2.0, 1.0 + np.pi + 1e-9])])), 3)
def test_pruned_planar_diamonds_keep_labels_and_flatness(ns, seed):
    # In the last example a_0's neighbours lie pi - 1e-9 apart: Lam_00
    # reads -1.4e-9, yet the compile keeps no touching column at facet 0,
    # so the diamonds are kept.
    assume(check_bounded(ns))
    pruned = prune_redundant(compile_cone(ns))
    # The reference is the same cone with its diamonds restored.  The
    # touching prune is checked bitwise against the interval oracle above;
    # against the unpruned cone labels may differ through rounding alone,
    # as a non-adjacent column with weights near 1e7 can read an exact
    # point hull as exterior.
    diamond = pruned.target == DIAMOND_TARGET
    reference = CompiledCone(ns, pruned.target, pruned.support,
                             pruned.weights, pruned.pruned & ~diamond)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        for b in probe_coordinates(ns, rng):
            label = classify(b, pruned).classification
            assert label == classify(b, reference).classification
            if label != EXTERIOR:
                assert (diagnose_boundary(b, pruned).flat_witnesses
                        == diagnose_boundary(b, reference).flat_witnesses)
