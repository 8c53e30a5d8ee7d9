import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import polygal.cone as cone_module
import polygal.coordinates as coordinates_module
import polygal.galerkin as galerkin_module
import polygal.lp as lp_module
from polygal import (BadDimension, BadLevel, ExteriorCoordinates,
                     GalerkinSequence, LinearProgram, NumericalFailure,
                     adjacent_rho, canonicalize, classify, compile_cone,
                     embed_coordinates, estimate_delta, estimate_kappa,
                     kappa_rho_bound, project_coords, project_interior,
                     solve_lp, spherical_grid_normals, validate_normals)
from polygal.galerkin import (_direction_cost, _every_subset,
                              _hull_subsets, _kappa_directions,
                              _mixture_minimum, _subset_solvers,
                              _vertex_cost_minima)
from polygal.lp import OPTIMAL, _combinations_array
from polygal.normals import check_bounded
from polygal.spheres import fibonacci_sphere

from conftest import (TRANSFORMS, bounded_planar_systems, random_point_hull,
                      reference_kappa, regular_normals, rotated_grid_3d,
                      transformed_grid)


def dense_vertex_cost_minima(ns, dirs, solvers, chunk=32):
    """Reference vertex-cost kernel: forms the cost of every (direction,
    subset) pair, then masks the pairs without a strictly positive exact
    representation."""
    out = np.full(dirs.shape[0], np.inf)
    for start in range(0, dirs.shape[0], chunk):
        C = dirs[start:start + chunk]
        best = np.full(C.shape[0], np.inf)
        for _, rows, E, pinv in solvers:
            W = np.einsum("psd,cd->cps", pinv, C)
            resid = np.einsum("pds,cps->cpd", E, W) - C[:, None, :]
            valid = (np.abs(resid).max(axis=2) <= 1e-9) & \
                    (W > 1e-12).all(axis=2)
            if not valid.any():
                continue
            r = W.sum(axis=2)
            with np.errstate(divide="ignore", invalid="ignore"):
                shrunk = C[:, None, :] / r[:, :, None]
                gaps = np.linalg.norm(rows[None, :, :, :] - shrunk[:, :, None, :],
                                      axis=3)
                costs = (W * gaps).sum(axis=2)
            costs[~valid] = np.inf
            best = np.minimum(best, costs.min(axis=1))
        out[start:start + chunk] = best
    return out


def exhaustive_kappa(ns):
    """Reference kappa: every direction is bounded by its cheapest dual
    vertex over every independent subset, and directions are refined in
    decreasing bound until the bound cannot beat the worst cost found."""
    dirs = _kappa_directions(ns, 1024 if ns.dimension == 2 else 10_000)
    every = _subset_solvers(ns, _every_subset(ns))
    minima = _vertex_cost_minima(ns, dirs, every)
    assert np.isfinite(minima).all()
    worst = -np.inf
    for idx in np.argsort(-minima):
        if minima[idx] <= worst:
            break
        worst = max(worst, _direction_cost(ns, dirs[idx], every))
    return float(worst)


def assert_kappa_is_exhaustive(ns):
    assert estimate_kappa(ns).hex() == exhaustive_kappa(ns).hex()


def planar_direction_cost(ns, c):
    """Reference d = 2 cost of one direction: the cheapest strictly positive
    two-normal (or aligned one-normal) representation, improved by
    two-point mixtures of the four cheapest."""
    A = ns.matrix
    combos = _combinations_array(ns.count, 2)
    ai, aj = A[combos[:, 0]], A[combos[:, 1]]
    det = ai[:, 0] * aj[:, 1] - ai[:, 1] * aj[:, 0]
    ok = np.abs(det) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        wi = (aj[:, 1] * c[0] - aj[:, 0] * c[1]) / det
        wj = (ai[:, 0] * c[1] - ai[:, 1] * c[0]) / det
    ok &= (wi > 1e-12) & (wj > 1e-12)
    supports = combos[ok]
    weights = np.column_stack([wi[ok], wj[ok]])
    shrunk = c[None, :] / weights.sum(axis=1)[:, None]
    gap_i = np.linalg.norm(A[supports[:, 0]] - shrunk, axis=1)
    gap_j = np.linalg.norm(A[supports[:, 1]] - shrunk, axis=1)
    costs = weights[:, 0] * gap_i + weights[:, 1] * gap_j

    dots = A @ c
    aligned = np.linalg.norm(dots[:, None] * A - c[None, :], axis=1) <= 1e-9
    aligned &= dots > 1e-12
    for i in np.nonzero(aligned)[0]:
        supports = np.vstack([supports, [i, i]])
        weights = np.vstack([weights, [dots[i], 0.0]])
        costs = np.append(costs, dots[i] * np.linalg.norm(A[i] - c / dots[i]))
    if costs.size == 0:
        raise NumericalFailure("direction admits no dual representation")

    order = np.argsort(costs)
    best = float(costs[order[0]])
    leaders = []
    for idx in order[:4]:
        sup = supports[idx]
        if sup[0] == sup[1]:
            leaders.append(((int(sup[0]),), (float(weights[idx, 0]),)))
        else:
            leaders.append(((int(sup[0]), int(sup[1])),
                            tuple(float(w) for w in weights[idx])))
    for a in range(len(leaders)):
        for b in range(a + 1, len(leaders)):
            best = min(best, _mixture_minimum(ns, c, leaders[a], leaders[b]))
    return best


def test_planar_grids():
    g1 = spherical_grid_normals(2, 1)
    assert g1.count == 4
    angles = np.sort(g1.angles())
    assert angles == pytest.approx([0, np.pi / 2, np.pi, 3 * np.pi / 2])
    g2 = spherical_grid_normals(2, 2)
    assert g2.count == 8
    with pytest.raises(BadLevel):
        spherical_grid_normals(2, 0)
    with pytest.raises(BadDimension):
        spherical_grid_normals(4, 2)


def test_spherical_grid_level2():
    g = spherical_grid_normals(3, 2)
    assert np.allclose(np.linalg.norm(g.matrix, axis=1), 1.0, atol=1e-12)
    # Two poles plus three rings of eight.
    assert g.count == 26
    poles = [row for row in g.matrix if abs(abs(row[0]) - 1) < 1e-12]
    assert len(poles) == 2
    with pytest.raises(BadLevel):
        spherical_grid_normals(3, 1)


def test_grid_nesting_is_exact():
    for d, levels in ((2, (1, 2, 3)), (3, (2, 3))):
        systems = [spherical_grid_normals(d, k) for k in levels]
        seq = GalerkinSequence.from_systems(systems)
        for coarse, fine, mapping in zip(systems, systems[1:], seq.row_maps):
            assert np.array_equal(fine.matrix[mapping], coarse.matrix)


def test_sequence_rejects_non_nested():
    a = regular_normals(4, offset=0.0)
    b = regular_normals(8, offset=0.1)
    with pytest.raises(ValueError):
        GalerkinSequence.from_systems([a, b])


def test_delta_closed_forms(square_ns, hexagon_ns):
    assert estimate_delta(square_ns) == pytest.approx(2 * np.sin(np.pi / 8))
    assert estimate_delta(hexagon_ns) == pytest.approx(2 * np.sin(np.pi / 12))
    for n in (10, 24, 48):
        ns = regular_normals(n, offset=0.3)
        assert estimate_delta(ns) == pytest.approx(2 * np.sin(np.pi / (2 * n)),
                                                   abs=1e-12)


def test_delta_3d_upper_estimate():
    g = spherical_grid_normals(3, 2)
    est = estimate_delta(g, samples=10_000)
    # Probe-based estimate sits above the sampled sup and below 2.
    assert 0.0 < est < 2.0
    true_lower = np.sqrt(2 - 2 * np.cos(np.pi / 8))
    assert est >= true_lower - 1e-9


def test_kappa_values(hexagon_ns, square_ns):
    kappa_hex = estimate_kappa(hexagon_ns)
    assert kappa_hex == pytest.approx(1 / np.sqrt(3), abs=1e-6)
    rho = adjacent_rho(hexagon_ns)
    assert rho == pytest.approx(0.5, abs=1e-12)
    assert kappa_hex <= kappa_rho_bound(rho) + 1e-9
    assert kappa_rho_bound(rho) == pytest.approx(np.sqrt(2), abs=1e-12)
    kappa_sq = estimate_kappa(square_ns)
    assert 0.0 <= kappa_sq <= 1.0 + 1e-9


def test_monotone_constants_along_levels():
    deltas, kappas = [], []
    for k in (1, 2, 3):
        ns = spherical_grid_normals(2, k)
        deltas.append(estimate_delta(ns))
        kappas.append(estimate_kappa(ns))
    assert deltas == sorted(deltas, reverse=True)
    assert kappas == sorted(kappas, reverse=True)
    assert kappas[2] == pytest.approx(np.tan(np.pi / 16), abs=1e-6)


def test_embed_square_into_octagon():
    seq = GalerkinSequence.from_grid(2, [1, 2])
    embedded = embed_coordinates(np.ones(4), seq, 0, 1)
    fine_cone = compile_cone(seq.levels[1])
    cv = classify(embedded.b, fine_cone)
    assert cv.classification == "boundary"
    mapping = seq.row_map(0, 1)
    assert embedded.b[mapping] == pytest.approx(np.ones(4))
    new_rows = np.setdiff1d(np.arange(8), mapping)
    assert embedded.b[new_rows] == pytest.approx(np.full(4, np.sqrt(2)), abs=1e-9)


def test_embed_round_trip_and_rejections():
    seq = GalerkinSequence.from_grid(2, [1, 2])
    coarse_cone = compile_cone(seq.levels[0])
    embedded = embed_coordinates(np.ones(4), seq, 0, 1, coarse_cone=coarse_cone)
    mapping = seq.row_map(0, 1)
    assert embedded.b[mapping] == pytest.approx(np.ones(4))
    with pytest.raises(ValueError):
        embed_coordinates(np.ones(4), seq, 1, 0)
    with pytest.raises(ExteriorCoordinates):
        embed_coordinates(np.array([1.0, 1.0, -2.0, 1.0]), seq, 0, 1)
    # Non-minimal coordinates (slack first row of an octagon) are rejected
    # without a cone as well.
    seq2 = GalerkinSequence.from_grid(2, [2, 3])
    loose = np.array([3.0, 1, 1, 1, 1, 1, 1, 1])
    with pytest.raises(ExteriorCoordinates):
        embed_coordinates(loose, seq2, 0, 1)


def test_boundary_landing_random():
    seq = GalerkinSequence.from_grid(2, [2, 3])
    coarse_cone = compile_cone(seq.levels[0])
    fine_cone = compile_cone(seq.levels[1])
    fine_matrix = fine_cone.matrix()
    rng = np.random.default_rng(21)
    for _ in range(25):
        hull = random_point_hull(rng)
        b = project_interior(hull, coarse_cone, rng.uniform(0.1, 0.4)).coords.b
        embedded = embed_coordinates(b, seq, 0, 1, coarse_cone=coarse_cone)
        cv = classify(embedded.b, fine_cone)
        assert cv.classification == "boundary"
        assert (fine_matrix.T @ embedded.b).min() <= 1e-8


def lp_embed_coordinates(b, seq, from_level, to_level):
    """Reference embedding: shared rows copied, one simplex LP per new
    row, max{a_i . x : A_coarse x <= b}."""
    coarse, fine = seq.levels[from_level], seq.levels[to_level]
    mapping = seq.row_map(from_level, to_level)
    fine_b = np.empty(fine.count)
    fine_b[mapping] = b
    for i in np.setdiff1d(np.arange(fine.count), mapping):
        outcome = solve_lp(LinearProgram(fine.matrix[i], coarse.matrix, b))
        assert outcome.status == OPTIMAL
        fine_b[i] = outcome.value
    return fine_b


def nested_grids(d, levels, transform, seed):
    """Grid levels under one transform; rows are transformed one by one,
    so the levels stay nested bitwise."""
    if d == 3:
        return GalerkinSequence.from_systems(
            [rotated_grid_3d(k, seed) for k in levels])
    return GalerkinSequence.from_systems(
        [transformed_grid(k, transform, seed) for k in levels])


@pytest.mark.parametrize("d, levels, transform", [
    (2, (2, 3), "identity"), (2, (3, 5), "rotation"),
    (2, (2, 4), "reflection"), (3, (2, 3), "rotation")])
def test_embed_matches_lp_oracle(d, levels, transform):
    seq = nested_grids(d, levels, transform, seed=5)
    coarse_cone = compile_cone(seq.levels[0])
    rng = np.random.default_rng(23)
    for k in range(6):
        hull = random_point_hull(rng, d=d)
        if k % 2:
            b = project_interior(hull, coarse_cone, rng.uniform(0.1, 0.4)).coords.b
        else:
            # The hull's own support values: boundary coordinates.
            b = project_coords(hull, seq.levels[0]).coords.b
        reference = lp_embed_coordinates(b, seq, 0, 1)
        tol = 1e-12 * (1.0 + np.abs(b).max())
        for cone in (coarse_cone, None):
            got = embed_coordinates(b, seq, 0, 1, coarse_cone=cone).b
            assert np.abs(got - reference).max() <= tol


_GRID_CONES = {}


def grid_cones(levels, transform):
    key = (levels, transform)
    if key not in _GRID_CONES:
        seq = nested_grids(2, levels, transform, seed=0)
        _GRID_CONES[key] = (seq, compile_cone(seq.levels[0]),
                            compile_cone(seq.levels[1]))
    return _GRID_CONES[key]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(2, 3), (3, 4), (2, 4)]),
       st.sampled_from(["identity", "rotation", "reflection"]),
       st.integers(0, 2**32 - 1), st.floats(0.05, 0.5))
def test_embedding_lands_on_the_fine_boundary(levels, transform, seed, lam):
    seq, coarse_cone, fine_cone = grid_cones(levels, transform)
    hull = random_point_hull(np.random.default_rng(seed))
    b = project_interior(hull, coarse_cone, lam).coords.b
    for cone in (coarse_cone, None):
        embedded = embed_coordinates(b, seq, 0, 1, coarse_cone=cone)
        assert classify(embedded.b, fine_cone).classification == "boundary"


def test_support_values_solve_no_lp(monkeypatch):
    # Neither canonicalize nor embed_coordinates solves an LP or runs a
    # Farkas test on a nonempty region, nor probes the boundedness of a
    # fresh system (from_grid probes its levels before the patch).
    seq = GalerkinSequence.from_grid(2, [3, 5])
    fresh = validate_normals(seq.levels[0].matrix)
    coarse_cone = compile_cone(seq.levels[0])
    rng = np.random.default_rng(24)
    b = project_interior(random_point_hull(rng), coarse_cone, 0.2).coords.b

    def refused(*args, **kwargs):
        raise AssertionError("an LP was solved")

    for module in (lp_module, coordinates_module, galerkin_module):
        for name in ("solve_lp", "farkas_feasible"):
            monkeypatch.setattr(module, name, refused, raising=False)
    canonicalize(b + rng.uniform(0.0, 0.5, b.size), fresh)
    embed_coordinates(b, seq, 0, 1)
    embed_coordinates(b, seq, 0, 1, coarse_cone=coarse_cone)


def test_finer_projections_nest():
    seq = GalerkinSequence.from_grid(2, [2, 3])
    coarse, fine = seq.levels
    fine_cone = compile_cone(fine)
    mapping = seq.row_map(0, 1)
    rng = np.random.default_rng(22)
    for _ in range(25):
        hull = random_point_hull(rng)
        b_coarse = project_coords(hull, coarse).coords.b
        fine_real = project_coords(hull, fine_cone,
                                   with_realization=True).realization
        support_on_coarse = (coarse.matrix @ fine_real.vertices.T).max(axis=1)
        assert (support_on_coarse <= b_coarse + 1e-9).all()


def assert_kernel_matches_dense(ns, dirs):
    solvers = _subset_solvers(ns, _every_subset(ns))
    sparse = _vertex_cost_minima(ns, dirs, solvers)
    assert np.isfinite(sparse).all()
    assert sparse.tobytes() == dense_vertex_cost_minima(ns, dirs,
                                                        solvers).tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_kernel_is_bitwise_dense_d3(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    ns = validate_normals(spherical_grid_normals(3, 2).matrix @ q.T)
    # Every 20th direction of the kappa sample keeps the dense reference,
    # which forms the cost of about 2,600 subsets per direction, cheap.
    assert_kernel_matches_dense(ns, fibonacci_sphere(10_000)[::20])


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize("transform", TRANSFORMS)
def test_sparse_kernel_is_bitwise_dense_planar(level, transform):
    ns = transformed_grid(level, transform, seed=level)
    assert_kernel_matches_dense(ns, _kappa_directions(ns, 1024))


@settings(max_examples=10, deadline=None)
@given(bounded_planar_systems())
@example(regular_normals(3))
@example(spherical_grid_normals(2, 4))
def test_planar_kappa_matches_per_direction_reference(ns):
    reference = max(planar_direction_cost(ns, c)
                    for c in _kappa_directions(ns, 1024))
    kappa = estimate_kappa(ns)
    assert abs(kappa - reference) <= 1e-12 * (1.0 + reference)


def test_planar_kappa_is_unguarded(monkeypatch, hexagon_ns):
    monkeypatch.setitem(cone_module.SIZE_GUARDS, 2, 4)
    assert estimate_kappa(hexagon_ns) == pytest.approx(1 / np.sqrt(3),
                                                       abs=1e-12)


def test_spatial_kappa_guard_refuses_before_enumerating(monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setitem(cone_module.SIZE_GUARDS, 3, 20)
    for name in ("_subset_solvers", "_hull_subsets", "_every_subset",
                 "enumerate_primal_vertices"):
        monkeypatch.setattr(galerkin_module, name, started)
    with pytest.raises(ValueError):
        estimate_kappa(spherical_grid_normals(3, 2))


def signed_units(*patterns):
    """Unit normals: every sign choice of every coordinate permutation of
    the patterns, without repeats."""
    rows = set()
    for pattern in patterns:
        for perm in itertools.permutations(pattern):
            for signs in itertools.product((-1.0, 1.0), repeat=3):
                rows.add(tuple(float(s * p) for s, p in zip(signs, perm)))
    return validate_normals(np.array(sorted(rows)))


# Hulls: the tetrakis hexahedron (each +-e_i caps a face of the cube of
# corners (+-1, +-1, +-1) / sqrt 3 with a pyramid too flat for adjacent
# triangles to be coplanar, so 24 triangles), the cube (6 squares, 4 tight
# rows each) and the cuboctahedron (6 squares and 8 triangles).
POLYHEDRA = {"tetrakis": signed_units((1, 0, 0), (1, 1, 1)),
             "cube": signed_units((1, 1, 1)),
             "cuboctahedron": signed_units((1, 1, 0))}


def test_hull_subsets_are_the_facets_subsets():
    planar = regular_normals(12, offset=0.2)
    singles, pairs = _hull_subsets(planar)
    assert singles.tolist() == [[i] for i in range(12)]
    assert sorted(map(tuple, pairs)) == sorted(
        tuple(sorted((i, (i + 1) % 12))) for i in range(12))
    # Grid level 2: 16 triangles and 16 quads; a quad gives its 4 edges,
    # 2 diagonals and 4 triples.
    assert [len(f) for f in _hull_subsets(spherical_grid_normals(3, 2))] == \
        [26, 88, 80]
    assert [len(f) for f in _hull_subsets(POLYHEDRA["cube"])] == [8, 24, 24]
    assert [len(f) for f in _hull_subsets(POLYHEDRA["tetrakis"])] == \
        [14, 36, 24]


def test_hull_bound_is_above_the_all_subset_minima():
    ns = rotated_grid_3d(2, 4)
    dirs = fibonacci_sphere(10_000)[::20]
    hull = _vertex_cost_minima(ns, dirs, _subset_solvers(ns, _hull_subsets(ns)))
    full = _vertex_cost_minima(ns, dirs, _subset_solvers(ns, _every_subset(ns)))
    assert np.isfinite(hull).all()
    assert (hull >= full).all()
    assert (hull == full).mean() > 0.5


@settings(max_examples=10, deadline=None)
@given(bounded_planar_systems())
@example(regular_normals(3))
def test_kappa_is_bitwise_exhaustive_planar(ns):
    assert_kappa_is_exhaustive(ns)


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("transform", TRANSFORMS)
def test_kappa_is_bitwise_exhaustive_on_planar_grids(level, transform):
    assert_kappa_is_exhaustive(transformed_grid(level, transform, seed=level))


@st.composite
def bounded_spatial_systems(draw):
    """A seeded rotation of d = 3 grid level 2, or 6 to 30 seeded random
    unit normals that span a space of polytopes."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return rotated_grid_3d(2, seed)
    rng = np.random.default_rng(seed)
    ns = validate_normals(rng.normal(size=(draw(st.integers(6, 30)), 3)))
    assume(check_bounded(ns))
    return ns


@settings(max_examples=4, deadline=None)
@given(bounded_spatial_systems())
@example(rotated_grid_3d(2, 1))
@example(POLYHEDRA["tetrakis"])
@example(POLYHEDRA["cube"])
@example(POLYHEDRA["cuboctahedron"])
def test_kappa_is_bitwise_exhaustive_spatial(ns):
    assert_kappa_is_exhaustive(ns)


@pytest.mark.parametrize("ns", [spherical_grid_normals(2, 4),
                                POLYHEDRA["tetrakis"], POLYHEDRA["cube"]],
                         ids=["planar", "tetrakis", "cube"])
@pytest.mark.parametrize("kept", [0, 1])
def test_kappa_falls_back_to_every_subset(monkeypatch, ns, kept):
    # With no hull subsets every direction, and with singletons only
    # nearly every one, is bounded over every independent subset.
    reference = exhaustive_kappa(ns)
    full = []

    def hull(system):
        return [f if size <= kept else f[:0]
                for size, f in enumerate(_hull_subsets(system), start=1)]

    def every(system):
        full.append(system)
        return _every_subset(system)

    monkeypatch.setattr(galerkin_module, "_hull_subsets", hull)
    monkeypatch.setattr(galerkin_module, "_every_subset", every)
    assert estimate_kappa(ns).hex() == reference.hex()
    assert len(full) == 1


@settings(max_examples=10, deadline=None)
@given(st.one_of(
    bounded_planar_systems(),
    st.builds(transformed_grid, st.integers(3, 7), st.sampled_from(TRANSFORMS),
              st.integers(0, 2**32 - 1)),
    st.builds(rotated_grid_3d, st.just(2), st.integers(0, 2**32 - 1)),
    st.sampled_from(list(POLYHEDRA.values()))))
@example(transformed_grid(7, "rotation", 7))
@example(rotated_grid_3d(2, 1))
@example(POLYHEDRA["cuboctahedron"])
def test_kappa_matches_the_per_direction_enumeration(ns):
    reference = reference_kappa(ns)
    assert abs(estimate_kappa(ns) - reference) <= 1e-14 * reference


@pytest.mark.parametrize("ns", [
    *(transformed_grid(level, transform, seed=level)
      for level in (3, 4, 5, 6) for transform in TRANSFORMS),
    spherical_grid_normals(3, 2), rotated_grid_3d(2, 1)], ids=[
    *(f"{transform}-{level}" for level in (3, 4, 5, 6)
      for transform in TRANSFORMS), "spatial", "spatial-rotated"])
def test_refined_cost_never_exceeds_the_bound(monkeypatch, ns):
    # The stop rule of estimate_kappa is exact only if every refined
    # direction costs at most its bound, in floating point.
    refined = []

    def recorded(system, c, *args):
        cost = _direction_cost(system, c, *args)
        refined.append((c, cost))
        return cost

    monkeypatch.setattr(galerkin_module, "_direction_cost", recorded)
    estimate_kappa(ns)
    dirs = _kappa_directions(ns, 1024 if ns.dimension == 2 else 10_000)
    bound = _vertex_cost_minima(ns, dirs,
                                _subset_solvers(ns, _hull_subsets(ns)))
    assert np.isfinite(bound).all() and refined
    for c, cost in refined:
        assert (cost <= bound[(dirs == c).all(axis=1)]).all()


def test_kappa_without_a_representation_raises(monkeypatch):
    # The zero direction has no strictly positive representation over
    # independent normals, neither on the hull facets nor on any subset.
    def with_zero(ns, samples):
        return np.vstack([_kappa_directions(ns, samples),
                          np.zeros(ns.dimension)])

    monkeypatch.setattr(galerkin_module, "_kappa_directions", with_zero)
    with pytest.raises(NumericalFailure):
        estimate_kappa(spherical_grid_normals(2, 3))
