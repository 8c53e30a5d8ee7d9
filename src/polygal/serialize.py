"""File schemas and deterministic JSON serialization.

All floats are written in decimal with 17 significant digits, so identical
inputs produce byte-identical files.  Every schema carries
schema_version = 1; loaders tolerate extra keys (the CLI adds a resolved
`config` echo to everything it writes).
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


def _check_version(obj, what):
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"{what}: unsupported schema_version {version}")


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
    columns = []
    for col in cone.columns:
        target = (DIAMOND if col.vertex.target == DIAMOND
                  else {"touching": int(col.vertex.target)})
        columns.append({
            "vector": col.vector,
            "target": target,
            "support": list(col.vertex.support),
            "weights": list(col.vertex.weights),
            "pruned": bool(col.pruned),
        })
    return {"schema_version": SCHEMA_VERSION,
            "normals": normals_to_obj(cone.normal_system),
            "columns": columns}


def cone_from_obj(obj) -> CompiledCone:
    _check_version(obj, "cone")
    ns = normals_from_obj(obj["normals"])
    entries = obj["columns"]
    width = ns.dimension + 1
    target = np.empty(len(entries), dtype=np.intp)
    support = np.full((len(entries), width), -1, dtype=np.intp)
    weights = np.zeros((len(entries), width))
    pruned = np.zeros(len(entries), dtype=bool)
    vectors = []
    for j, entry in enumerate(entries):
        t = entry["target"]
        target[j] = DIAMOND_TARGET if t == DIAMOND else int(t["touching"])
        s = [int(i) for i in entry["support"]]
        w = [float(x) for x in entry["weights"]]
        if (len(s) != len(w) or len(s) > width
                or not all(0 <= i < ns.count for i in s)
                or not (t == DIAMOND or 0 <= target[j] < ns.count)):
            raise ValueError("cone: bad target, support or weights")
        support[j, :len(s)] = s
        weights[j, :len(w)] = w
        pruned[j] = bool(entry["pruned"])
        vector = np.asarray(entry["vector"], dtype=float)
        if vector.shape != (ns.count,):
            raise ValueError("cone: column length does not match normals")
        vectors.append(vector)
    cone = CompiledCone(ns, target, support, weights, pruned)
    dense = np.array(vectors).reshape(len(entries), ns.count).T
    if not np.array_equal(cone.matrix(include_pruned=True), dense):
        raise ValueError("cone: column vectors do not match their supports")
    return cone


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
