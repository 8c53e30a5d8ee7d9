"""Offline compilation of the coordinate cone, and the touching rows.

Enumerates the extreme points of the normalized dual slice
{p >= 0 : A^T p = 0, 1^T p = 1} and of the dual polyhedra
{p >= 0 : A^T p = a_k}, assembles the inequality matrix whose columns test
cone membership via column . b >= 0, and prunes the columns that others
imply.  In d = 3 that is every touching condition whose generator cone
strictly contains the cone of another condition.  In d = 2 it is closed
form: each facet keeps the condition on its two angle-adjacent normals,
and the diamonds go when `touching_rows` reports every facet covered,
which leaves the N adjacent-triple conditions.  `touching_rows` alone
decides a level's touching rows, and whether they cover every facet.

Enumeration runs over index subsets: supports of dual vertices are linearly
independent sets, so each candidate subset is checked by one small
least-squares solve (batched with numpy) and kept when the solution is
strictly positive.  In d >= 3 every subset is a candidate.  In d = 2 only
the subsets that the signs of cross products admit are (see
`_planar_diamond_candidates`); the solve and its keep test are the same.

The compiled cone is stored as flat arrays with one entry per column, so
compiling and pruning create no per-column Python objects.
"""

from dataclasses import dataclass, field
import itertools

import numpy as np

from .errors import UnboundedSpace
from .normals import NormalSystem, angle_pairs, check_bounded, planar_forms

RESIDUAL_TOL = 1e-9
WEIGHT_TOL = 1e-9
INDEP_TOL = 1e-10
DIAMOND = "diamond"
# CompiledCone.target of a diamond column.
DIAMOND_TARGET = -1

# Subset enumeration costs C(N, d) small solves; sizes above these bounds
# need an explicit override.  In d = 2 the bound keeps compile_cone +
# prune_redundant + classify of a regular system under 2 GB of peak RSS:
# N = 482 measured 1,885 MiB and N = 483 measured 1,909 MiB (2.002 GB) on
# Linux x86-64, numpy 2.4, one BLAS thread.  The compile's flat column
# arrays dominate (about N^3 / 6 columns); the pruned cone's classify
# matrix is N x N.
SIZE_GUARDS = {2: 482, 3: 64}
_CHUNK = 200_000

# Sign margin of the d = 2 candidate filter.  It must exceed
# 4 * RESIDUAL_TOL (see _planar_diamond_candidates); it is 250 times that.
_SIGN_MARGIN = 1e-6

# mu of `touching_rows`: no d = 2 row entry exceeds 1 / mu = 1e5.  The
# compile keeps the adjacent-pair column wherever that entry is below 1.2e6
# (2,000 random near-antipodal draws), a factor 12 above.
TOUCHING_MARGIN = 1e-5


@dataclass(frozen=True)
class DualVertex:
    """A dual extreme point identified by its (linearly independent) support.

    target is DIAMOND for vertices of the normalized slice, or the facet
    index k for vertices of {p >= 0 : A^T p = a_k} other than e_k.
    """

    target: object
    support: tuple
    weights: tuple


@dataclass(eq=False)
class CompiledCone:
    """Columns encoding membership: b admissible iff column . b >= 0 for all.

    Diamond columns are the slice vertices themselves; a touching column for
    vertex p at facet k stores p - e_k.  Pruned columns stay available (the
    membership test over surviving columns is equivalent).

    Column j is stored as target[j] (the facet k, or DIAMOND_TARGET),
    support[j] and weights[j] (padded to d + 1 entries with -1 and 0) and
    pruned[j].
    """

    normal_system: NormalSystem
    target: np.ndarray
    support: np.ndarray
    weights: np.ndarray
    pruned: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def count(self) -> int:
        return int(self.target.size)

    @property
    def diamond_count(self) -> int:
        return int(np.count_nonzero(self.target == DIAMOND_TARGET))

    @property
    def touching_count(self) -> int:
        return self.count - self.diamond_count

    @property
    def pruned_count(self) -> int:
        return int(np.count_nonzero(self.pruned))

    def vertex(self, j) -> DualVertex:
        """The dual vertex behind column j."""
        k = int(self.target[j])
        return _vertices(DIAMOND if k == DIAMOND_TARGET else k,
                         self.support[j:j + 1], self.weights[j:j + 1])[0]

    def column_indices(self, include_pruned=False):
        idx = self._cache.get(("idx", include_pruned))
        if idx is None:
            idx = (np.arange(self.count) if include_pruned
                   else np.flatnonzero(~self.pruned))
            self._cache[("idx", include_pruned)] = idx
        return idx

    def matrix(self, include_pruned=False):
        """Selected columns stacked as an (N, m) array."""
        mat = self._cache.get(("mat", include_pruned))
        if mat is None:
            idx = self.column_indices(include_pruned)
            mat = np.zeros((self.normal_system.count, idx.size))
            support = self.support[idx]
            col = np.broadcast_to(np.arange(idx.size)[:, None], support.shape)
            used = support >= 0
            mat[support[used], col[used]] = self.weights[idx][used]
            target = self.target[idx]
            touching = target != DIAMOND_TARGET
            # A touching vertex has p_k = 0, so p - e_k has -1 at k.
            mat[target[touching], np.flatnonzero(touching)] = -1.0
            mat.setflags(write=False)
            self._cache[("mat", include_pruned)] = mat
        return mat


def _size_guard(ns: NormalSystem, allow_large: bool):
    if allow_large:
        return
    limit = SIZE_GUARDS.get(ns.dimension, 32)
    if ns.count > limit:
        raise ValueError(
            f"subset enumeration over N={ns.count}, d={ns.dimension} exceeds "
            f"the guard ({limit}); pass allow_large=True to override")


def _all_subsets(pool, sizes):
    """Every subset of `pool` with a size in `sizes`, as chunks of index
    rows in ascending order."""
    pool = np.asarray(pool, dtype=np.intp)
    for size in sizes:
        if size < 1 or size > pool.size:
            continue
        combo_iter = itertools.combinations(range(pool.size), size)
        while True:
            block = list(itertools.islice(combo_iter, _CHUNK))
            if not block:
                break
            yield pool[np.array(block, dtype=np.intp)]


def _solve_candidates(cols, rhs, combos):
    """The rows S of `combos` with independent columns cols[:, S] and a
    strictly positive solution of cols[:, S] w = rhs, with their w."""
    E = cols.T[combos].transpose(0, 2, 1)  # (P, m, size)
    U, S, Vt = np.linalg.svd(E, full_matrices=False)
    ok = S[:, -1] > INDEP_TOL
    U, S, Vt, combos, E = U[ok], S[ok], Vt[ok], combos[ok], E[ok]
    t = np.einsum("pms,m->ps", U, rhs) / S
    w = np.einsum("psk,ps->pk", Vt, t)
    resid = np.abs(np.einsum("pms,ps->pm", E, w) - rhs).max(axis=1)
    keep = (resid <= RESIDUAL_TOL) & (w > WEIGHT_TOL).all(axis=1)
    return combos[keep], w[keep]


def _positive_combinations(cols, rhs, candidates, width):
    """Supports among the `candidates` chunks (index rows, ascending) with
    independent columns cols[:, S] and a strictly positive solution of
    cols[:, S] w = rhs.  Returns (supports, weights) padded to `width`
    entries with -1 and 0, in lexicographic order of the supports."""
    supports = [np.empty((0, width), dtype=np.intp)]
    weights = [np.empty((0, width))]
    for chunk in candidates:
        for start in range(0, len(chunk), _CHUNK):
            combos, w = _solve_candidates(cols, rhs,
                                          chunk[start:start + _CHUNK])
            pad = width - combos.shape[1]
            supports.append(np.pad(combos, ((0, 0), (0, pad)),
                                   constant_values=-1))
            weights.append(np.pad(w, ((0, 0), (0, pad))))
    supports = np.concatenate(supports)
    weights = np.concatenate(weights)
    # Padding with -1 sorts a support before every longer one it prefixes,
    # as tuple comparison does.
    order = np.lexsort(supports.T[::-1])
    return supports[order], weights[order]


def _planar_cross(ns: NormalSystem):
    """cross[i, j] = a_i x a_j and dot[i, j] = a_i . a_j."""
    a = ns.matrix
    cross = np.outer(a[:, 0], a[:, 1]) - np.outer(a[:, 1], a[:, 0])
    return cross, a @ a.T


def _admitted(x, y, z):
    """False where two of the values have opposite signs beyond the margin."""
    hi = np.maximum(np.maximum(x, y), z)
    lo = np.minimum(np.minimum(x, y), z)
    return (hi <= _SIGN_MARGIN) | (lo >= -_SIGN_MARGIN)


def _planar_diamond_candidates(ns: NormalSystem):
    """d = 2 diamond candidates: every subset _solve_candidates could keep.

    Write c_ij = a_i x a_j.  A kept subset has w > 0 with
    |sum w_l a_l|_inf <= RESIDUAL_TOL and sum w_l >= 1 - RESIDUAL_TOL.
    Crossing sum w_l a_l with a unit a_i moves it by at most
    delta = 2 * RESIDUAL_TOL, so:

    - a kept pair has w_j |c_ij| <= delta and w_i |c_ij| <= delta, hence
      |c_ij| <= 2 delta; and |w_i a_i + w_j a_j| ~ 0 forces a_i . a_j < 0;
    - a kept triple has w_k c_jk ~ w_i c_ij, w_j c_ij ~ w_k c_ki and
      w_i c_ki ~ w_j c_jk within delta.  If two of c_ij, c_jk, c_ki had
      opposite signs beyond a margin tau, two of these relations would
      bound w_i + w_j + w_k by 2 delta / tau, whatever the sign of the third
      value: below 1 for tau > 4 * RESIDUAL_TOL.

    So pairs are near-antipodal and triples have barycentric determinants
    of one sign, up to _SIGN_MARGIN.
    """
    cross, dot = _planar_cross(ns)
    i, j = np.triu_indices(ns.count, 1)
    c_ij = cross[i, j]
    yield np.column_stack([i, j])[(dot[i, j] < 0)
                                  & (np.abs(c_ij) <= _SIGN_MARGIN)]
    triples = []
    for first in range(ns.count - 2):
        # Pairs (j, k) with first < j < k: a suffix of the triu order.
        rest = slice(np.searchsorted(i, first + 1), None)
        jj, kk = i[rest], j[rest]
        ok = _admitted(cross[first, jj], c_ij[rest], cross[kk, first])
        triples.append(np.column_stack(
            [np.full(np.count_nonzero(ok), first), jj[ok], kk[ok]]))
    if triples:
        yield np.concatenate(triples)


def _planar_touching_candidates(ns: NormalSystem, k: int):
    """d = 2 touching candidates at facet k: every subset _solve_candidates
    could keep for A^T p = a_k.

    A kept single a_i has |w a_i - a_k|_inf <= RESIDUAL_TOL with w > 0, so
    it is parallel to a_k: |c_ik| <= delta and a_i . a_k > 0.  A kept pair
    i < j has w_j c_ij ~ c_ik, w_i c_ij ~ c_kj and w_i c_ik ~ w_j c_kj within
    delta = 2 * RESIDUAL_TOL, and w_i + w_j >= 1 - RESIDUAL_TOL; as for the
    diamond triples, no two of c_ik, c_kj, c_ij can then have opposite signs
    beyond the margin.  So the pairs straddle a_k within a half-turn.
    """
    cross, dot = _planar_cross(ns)
    others = np.delete(np.arange(ns.count), k)
    yield others[(dot[others, k] > 0)
                 & (np.abs(cross[others, k]) <= _SIGN_MARGIN)][:, None]
    i, j = np.triu_indices(ns.count, 1)
    ok = ((i != k) & (j != k)
          & _admitted(cross[i, k], cross[k, j], cross[i, j]))
    yield np.column_stack([i[ok], j[ok]])


def _diamond_arrays(ns: NormalSystem, exhaustive=False):
    cols = np.vstack([ns.matrix.T, np.ones((1, ns.count))])
    rhs = np.zeros(ns.dimension + 1)
    rhs[-1] = 1.0
    if ns.dimension == 2 and not exhaustive:
        candidates = _planar_diamond_candidates(ns)
    else:
        candidates = _all_subsets(np.arange(ns.count),
                                  range(2, ns.dimension + 2))
    return _positive_combinations(cols, rhs, candidates, ns.dimension + 1)


def _touching_arrays(ns: NormalSystem, k: int, exhaustive=False):
    # Every such vertex has p_k = 0, so index k is excluded from the pool.
    if ns.dimension == 2 and not exhaustive:
        candidates = _planar_touching_candidates(ns, k)
    else:
        candidates = _all_subsets(np.delete(np.arange(ns.count), k),
                                  range(1, ns.dimension + 1))
    return _positive_combinations(ns.matrix.T, ns.matrix[k], candidates,
                                  ns.dimension + 1)


def _vertices(target, supports, weights):
    return [DualVertex(target, tuple(int(i) for i in s[s >= 0]),
                       tuple(float(x) for x in w[s >= 0]))
            for s, w in zip(supports, weights)]


def extreme_points_diamond(ns: NormalSystem, *, allow_large=False):
    """Extreme points of {p >= 0 : A^T p = 0, 1^T p = 1}.

    Supports are sets whose lifted columns (a_i, 1) are linearly
    independent, hence of size at most d+1.
    """
    _size_guard(ns, allow_large)
    return _vertices(DIAMOND, *_diamond_arrays(ns))


def extreme_points_touching(ns: NormalSystem, k: int, *, allow_large=False):
    """Extreme points of {p >= 0 : A^T p = a_k} other than e_k."""
    _size_guard(ns, allow_large)
    return _vertices(int(k), *_touching_arrays(ns, k))


def _compile(ns: NormalSystem, exhaustive=False, diamonds=True):
    """compile_cone without the guards; `exhaustive` makes d = 2 run the
    all-subsets enumeration, which tests use as the oracle, and
    diamonds=False leaves out the diamond columns."""
    parts = ([(DIAMOND_TARGET, *_diamond_arrays(ns, exhaustive))]
             if diamonds else [])
    parts += [(k, *_touching_arrays(ns, k, exhaustive))
              for k in range(ns.count)]
    target = np.concatenate([np.full(len(s), k, dtype=np.intp)
                             for k, s, _ in parts])
    supports = np.concatenate([s for _, s, _ in parts])
    weights = np.concatenate([w for _, _, w in parts])
    for arr in (target, supports, weights):
        arr.setflags(write=False)
    return CompiledCone(ns, target, supports, weights,
                        np.zeros(target.size, dtype=bool))


def compile_cone(ns: NormalSystem, *, allow_large=False) -> CompiledCone:
    """Assemble the membership-test matrix for a bounded polytope space.

    Columns are the diamond vertices followed, facet by facet, by the
    touching differences p - e_k.  Raises UnboundedSpace when the system
    admits unbounded polyhedra.
    """
    _size_guard(ns, allow_large)
    if not check_bounded(ns):
        raise UnboundedSpace("normal system spans unbounded polyhedra")
    return _compile(ns)


def _prune_group_generic(ns, supports):
    """Indices (within the group) of supports whose cone strictly contains
    another group member's cone.

    Each support gets a representability mask over all normals (one
    pseudoinverse solve against the whole matrix), so a containment test is
    a mask lookup on the candidate's support.
    """
    rows = [s[s >= 0] for s in supports]
    representable = np.empty((len(rows), ns.count), dtype=bool)
    for j, s in enumerate(rows):
        gens = ns.matrix[s].T
        lam = np.linalg.pinv(gens) @ ns.matrix.T          # (s, N)
        resid = np.abs(gens @ lam - ns.matrix.T).max(axis=0)
        representable[j] = ((resid <= RESIDUAL_TOL) &
                            (lam >= -INDEP_TOL).all(axis=0))
    # contains[i_big, i_small]: big's cone holds every generator of small's.
    contains = np.array([representable[:, s].all(axis=1) for s in rows]).T
    key = np.sort(supports, axis=1)
    same = (key[:, None, :] == key[None, :, :]).all(axis=2)
    return np.flatnonzero((contains & ~same).any(axis=1))


def _prune_planar(cone: CompiledCone) -> np.ndarray:
    """d = 2 pruned mask: a touching column survives iff its support is the
    angle-adjacent pair of its facet, whose interval around a_k every other
    straddling pair contains.  The diamonds go iff `touching_rows` covers
    every facet: its rows are then Lam b >= 0 up to positive scale, so the
    polygon of angle-consecutive intersections realizes b, and every
    diamond column p has p . b >= h(sum p_i a_i) = 0."""
    ns = cone.normal_system
    # Each row ends two angle pairs; its neighbours are their other ends.
    ends = np.concatenate([angle_pairs(ns), angle_pairs(ns)[:, ::-1]])
    adjacent = ends[np.lexsort(ends.T[::-1]), 1].reshape(ns.count, 2)
    touching = cone.target != DIAMOND_TARGET
    # Touching supports have at most d = 2 entries; a singleton pads with -1.
    pair = np.sort(cone.support[:, :2], axis=1)
    kept = touching & (pair == adjacent[cone.target]).all(axis=1)
    pruned = cone.pruned | (touching & ~kept)
    if check_bounded(ns) and touching_rows(ns)[1]:
        pruned |= ~touching
    return pruned


def prune_redundant(cone: CompiledCone) -> CompiledCone:
    """Flag the columns that the surviving ones imply.

    In d = 3, a touching column is flagged when its generator cone strictly
    contains the generator cone of another touching column for the same
    facet; strictness is decided by support inequality (supports are
    independent sets, so equal cones force equal supports), and diamond
    columns are never pruned.  No minimality claim is made for that system.
    In d = 2 the rule is closed-form (`_prune_planar`): one touching column
    per facet survives, and the diamonds are pruned when `touching_rows`
    reports every facet covered, which leaves the N adjacent-triple
    conditions of a bounded system.  Either way the surviving columns test
    the same membership predicate.
    """
    ns = cone.normal_system
    if ns.dimension == 2:
        pruned = _prune_planar(cone)
    else:
        touching = np.flatnonzero(cone.target != DIAMOND_TARGET)
        touching = touching[np.argsort(cone.target[touching], kind="stable")]
        starts = np.flatnonzero(np.diff(cone.target[touching])) + 1
        pruned = cone.pruned.copy()
        for group in np.split(touching, starts):
            if group.size:
                local = _prune_group_generic(ns, cone.support[group])
                pruned[group[local]] = True
    pruned.setflags(write=False)
    return CompiledCone(ns, cone.target, cone.support, cone.weights, pruned)


def touching_rows(ns: NormalSystem):
    """(rows, covered): a bounded level's touching rows, (m, N) with -1
    at each row's facet, and whether every facet has one; cached on `ns`.

    In d = 2 row k is row k of Lam (`normals.planar_forms`) over -Lam_kk:
    with alpha and beta the angles to a_k's neighbours, Lam_kk = -(cot
    alpha + cot beta), and Cramer's rule gives the adjacent-pair column
    p - e_k with p = (1 / sin alpha, 1 / sin beta) / (cot alpha + cot
    beta).  Facet k has a row iff Lam_kk <= -mu max_{j != k} Lam_kj, mu =
    TOUCHING_MARGIN.  Below it the neighbours are antipodal within about
    mu, and the condition left out is implied by the boxes of a solve
    whose inner body holds a disc of radius mu times the outer diameter
    (elsewhere `optimize.solve_level` may raise ExteriorCoordinates).
    In d = 3 the rows are the touching columns of
    `prune_redundant(compile_cone(ns))`, bitwise and in order, from the
    same code without the diamonds, under the compile's size guard.  An
    unbounded system raises UnboundedSpace.
    """
    cached = ns._cache.get("touching_rows")
    if cached is not None:
        return cached
    if not check_bounded(ns):
        raise UnboundedSpace("normal system spans unbounded polyhedra")
    if ns.dimension == 2:
        lam = planar_forms(ns)[0]
        diag = np.diag(lam)
        # Where Lam_kk < 0 the row's largest entry is off the diagonal.
        has_row = diag <= -TOUCHING_MARGIN * lam.max(axis=1)
        rows = lam[has_row] / -diag[has_row, None]
        rows.setflags(write=False)
        covered = bool(has_row.all())
    else:
        _size_guard(ns, False)
        cone = prune_redundant(_compile(ns, diamonds=False))
        rows = cone.matrix().T
        covered = bool(np.isin(np.arange(ns.count),
                               cone.target[~cone.pruned]).all())
    cached = ns._cache["touching_rows"] = (rows, covered)
    return cached
