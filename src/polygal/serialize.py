"""File schemas and deterministic JSON serialization.

All floats are written in decimal with 17 significant digits, so identical
inputs produce byte-identical files.  Every schema carries
schema_version = 1, except cone.json (2; 1 is still read); loaders
tolerate extra keys (the CLI adds a resolved `config` echo to everything
it writes).
"""

import json

import numpy as np

from .bodies import (Ball, ConvexBody, HalfspacePolytope, MinkowskiSum,
                     PointHull, Scaled)
from .cone import CompiledCone, DIAMOND, DIAMOND_TARGET
from .coordinates import PolytopeRealization
from .normals import NormalSystem, validate_normals
from .optimize import (ConstraintSpec, GalerkinProblem, ObjectiveSpec,
                       SolverTolerances)
from .galerkin import GalerkinSequence

SCHEMA_VERSION = 1
CONE_SCHEMA_VERSION = 2


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    text = format(float(x), ".17g")
    # Keep a float token so the value round-trips as a float.
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def dumps(obj) -> str:
    """Deterministic JSON text: insertion-ordered keys, fixed float format."""
    pieces = []
    _dump(obj, pieces)
    return "".join(pieces)


def _dump(obj, out):
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _dump(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, value in enumerate(seq):
            if i:
                out.append(",")
            _dump(value, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_version(obj, what, versions=(SCHEMA_VERSION,)):
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version not in versions:
        raise ValueError(f"{what}: unsupported schema_version {version}")
    return version


# -- normals.json -----------------------------------------------------------

def normals_to_obj(ns: NormalSystem) -> dict:
    return {"schema_version": SCHEMA_VERSION, "d": ns.dimension,
            "rows": ns.matrix}


def normals_from_obj(obj) -> NormalSystem:
    _check_version(obj, "normals")
    rows = np.asarray(obj["rows"], dtype=float)
    if "d" in obj and rows.shape[1] != obj["d"]:
        raise ValueError("normals: declared dimension does not match rows")
    return validate_normals(rows)


# -- cone.json ---------------------------------------------------------------

def cone_to_obj(cone: CompiledCone) -> dict:
    """Schema 2: the cone's flat column arrays (see CompiledCone)."""
    return {"schema_version": CONE_SCHEMA_VERSION,
            "normals": normals_to_obj(cone.normal_system),
            "target": cone.target, "support": cone.support,
            "weights": cone.weights, "pruned": cone.pruned}


def _cone_from_v1(ns: NormalSystem, columns) -> CompiledCone:
    """Schema 1: an object per column, whose dense vector must match its
    support and weights."""
    width = ns.dimension + 1
    flat = {"target": [], "support": [], "weights": [], "pruned": []}
    for col in columns:
        s, w, t = list(col["support"]), list(col["weights"]), col["target"]
        if len(s) != len(w) or len(s) > width or min(s, default=0) < 0:
            raise ValueError("cone: bad target, support or weights")
        flat["target"].append(DIAMOND_TARGET if t == DIAMOND
                              else int(t["touching"]))
        flat["support"].append(s + [-1] * (width - len(s)))
        flat["weights"].append(w + [0.0] * (width - len(w)))
        flat["pruned"].append(bool(col["pruned"]))
    cone = _cone_from_v2(ns, flat)
    dense = np.asarray([col["vector"] for col in columns], dtype=float)
    if not np.array_equal(cone.matrix(include_pruned=True),
                          dense.reshape(cone.count, ns.count).T):
        raise ValueError("cone: column vectors do not match their supports")
    return cone


def _cone_from_v2(ns: NormalSystem, obj) -> CompiledCone:
    """Schema 2, checked: targets are -1 or rows, supports nonempty runs
    of rows padded with -1, weights finite and 0 in the padding."""
    count, width = np.size(obj["target"]), ns.dimension + 1
    arrays = []
    for key, dtype, shape in (("target", np.intp, (count,)),
                              ("support", np.intp, (count, width)),
                              ("weights", float, (count, width)),
                              ("pruned", bool, (count,))):
        raw = np.asarray(obj[key])
        arr = raw.astype(dtype) if raw.dtype.kind in "biuf" else raw
        # An empty cone writes its 2-d arrays as [].
        if arr.shape != shape and (count or arr.size) \
                or arr.dtype != dtype or (arr != raw).any():
            raise ValueError(f"cone: {key} is not {np.dtype(dtype)}, {shape}")
        arrays.append(arr.reshape(shape))
    target, support, weights, _ = arrays
    used = support >= 0
    if ((target < DIAMOND_TARGET) | (target >= ns.count)).any() \
            or ((support < -1) | (support >= ns.count)).any() \
            or not used[:, 0].all() or (used[:, 1:] > used[:, :-1]).any() \
            or (weights[~used] != 0.0).any() \
            or not np.isfinite(weights).all():
        raise ValueError("cone: bad target, support or weights")
    return CompiledCone(ns, *arrays)


def cone_from_obj(obj) -> CompiledCone:
    """Load a cone.json object of schema 2, or of schema 1."""
    version = _check_version(obj, "cone", (1, CONE_SCHEMA_VERSION))
    ns = normals_from_obj(obj["normals"])
    if version == 1:
        return _cone_from_v1(ns, obj["columns"])
    return _cone_from_v2(ns, obj)


# -- b.json ------------------------------------------------------------------

def coords_to_obj(b) -> dict:
    return {"schema_version": SCHEMA_VERSION, "b": np.asarray(b, dtype=float)}


def coords_from_obj(obj) -> np.ndarray:
    _check_version(obj, "b")
    return np.asarray(obj["b"], dtype=float)


# -- polytope.json -----------------------------------------------------------

def polytope_to_obj(real: PolytopeRealization) -> dict:
    facets = [{"k": k, "vertex_indices": list(real.facet_vertices[k])}
              for k in range(real.normals.count)]
    return {"schema_version": SCHEMA_VERSION, "vertices": real.vertices,
            "facets": facets, "b": real.b,
            "normals": normals_to_obj(real.normals)}


def polytope_from_obj(obj) -> PolytopeRealization:
    _check_version(obj, "polytope")
    ns = normals_from_obj(obj["normals"])
    vertices = np.asarray(obj["vertices"], dtype=float)
    b = np.asarray(obj["b"], dtype=float)
    facet_vertices = [()] * ns.count
    for entry in obj["facets"]:
        facet_vertices[int(entry["k"])] = tuple(
            int(i) for i in entry["vertex_indices"])
    active = [[] for _ in range(vertices.shape[0])]
    for k, members in enumerate(facet_vertices):
        for j in members:
            active[j].append(k)
    return PolytopeRealization(ns, b, vertices,
                               tuple(tuple(a) for a in active),
                               tuple(facet_vertices))


# -- body.json ---------------------------------------------------------------

def body_to_obj(body: ConvexBody) -> dict:
    if isinstance(body, PointHull):
        return {"type": "point_hull", "points": body.points}
    if isinstance(body, Ball):
        return {"type": "ball", "center": body.center,
                "radius": float(body.radius)}
    if isinstance(body, HalfspacePolytope):
        return {"type": "halfspace_polytope", "normals": body.normals,
                "offsets": body.offsets}
    if isinstance(body, MinkowskiSum):
        return {"type": "minkowski_sum",
                "parts": [body_to_obj(p) for p in body.parts]}
    if isinstance(body, Scaled):
        return {"type": "scaled", "factor": float(body.factor),
                "body": body_to_obj(body.body)}
    raise TypeError(f"cannot serialize body {type(body)!r}")


def body_from_obj(obj) -> ConvexBody:
    kind = obj["type"]
    if kind == "point_hull":
        return PointHull(np.asarray(obj["points"], dtype=float))
    if kind == "ball":
        return Ball(np.asarray(obj["center"], dtype=float),
                    float(obj["radius"]))
    if kind == "halfspace_polytope":
        return HalfspacePolytope(np.asarray(obj["normals"], dtype=float),
                                 np.asarray(obj["offsets"], dtype=float))
    if kind == "minkowski_sum":
        return MinkowskiSum(tuple(body_from_obj(p) for p in obj["parts"]))
    if kind == "scaled":
        return Scaled(float(obj["factor"]), body_from_obj(obj["body"]))
    raise ValueError(f"unknown body type {kind!r}")


# -- problem.json / results.json ---------------------------------------------

def objective_from_obj(obj) -> ObjectiveSpec:
    kind = obj["kind"]
    weights = obj.get("weights")
    if weights is not None and not isinstance(weights, str):
        weights = np.asarray(weights, dtype=float)
    target = obj.get("target")
    if target is not None:
        target = np.asarray(target, dtype=float)
    target_body = obj.get("target_body")
    if target_body is not None:
        target_body = body_from_obj(target_body)
    return ObjectiveSpec(kind, weights=weights, target=target,
                         target_body=target_body)


def constraint_from_obj(obj) -> ConstraintSpec:
    def arr(key):
        value = obj.get(key)
        return None if value is None else np.asarray(value, dtype=float)

    return ConstraintSpec(obj["kind"],
                          limit=obj.get("limit"),
                          weights=arr("weights"),
                          lower=arr("lower"),
                          upper=arr("upper"),
                          lipschitz_L=obj.get("L", obj.get("lipschitz_L")))


def tolerances_from_obj(obj) -> SolverTolerances:
    tol = SolverTolerances()
    for key, value in (obj or {}).items():
        if not hasattr(tol, key):
            raise ValueError(f"unknown solver tolerance {key!r}")
        setattr(tol, key, type(getattr(tol, key))(value))
    return tol


def problem_from_obj(obj) -> GalerkinProblem:
    _check_version(obj, "problem")
    seq_obj = obj["sequence"]
    if "normals_files" in seq_obj:
        systems = [normals_from_obj(read_json(path))
                   for path in seq_obj["normals_files"]]
        sequence = GalerkinSequence.from_systems(systems)
    else:
        sequence = GalerkinSequence.from_grid(seq_obj["d"],
                                              seq_obj["levels"])
    return GalerkinProblem(
        objective=objective_from_obj(obj["objective"]),
        constraints=[constraint_from_obj(c) for c in obj.get("constraints", [])],
        inner_body=body_from_obj(obj["inner_body"]),
        outer_body=body_from_obj(obj["outer_body"]),
        sequence=sequence,
        levels=obj.get("levels"),
        lam=float(obj.get("lambda", 0.1)),
        kappa_shift=obj.get("kappa_shift"),
        report_kappa=bool(obj.get("report_kappa", True)),
        kappa_samples=obj.get("kappa_samples"),
        tolerances=tolerances_from_obj(obj.get("tolerances")),
    )


def results_to_obj(result, config=None) -> dict:
    levels = []
    for lr in result.levels:
        levels.append({
            "k": lr.level,
            "N": lr.row_count,
            "b": lr.b,
            "vertices": lr.realization.vertices,
            "objective": lr.objective_value,
            "constraints": lr.constraint_values,
            "kappa_hat": lr.kappa_hat,
            "iterations": lr.iterations,
            "gap": lr.gap,
            "wall_ms": lr.wall_ms,
        })
    cross = [{"k": c["level"], "k_next": c["level_next"],
              "hausdorff": c["hausdorff"],
              "objective_delta": c["objective_delta"]}
             for c in result.cross_level]
    out = {"schema_version": SCHEMA_VERSION}
    if config is not None:
        out["config"] = config
    out["levels"] = levels
    out["cross_level"] = cross
    return out
