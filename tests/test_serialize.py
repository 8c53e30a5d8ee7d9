import json

import numpy as np
import pytest

from polygal import (Ball, MinkowskiSum, PointHull, Scaled, compile_cone,
                     prune_redundant, realize, spherical_grid_normals)
from polygal import serialize
from polygal.cone import DIAMOND

from conftest import regular_normals


def schema_1_cone_obj(cone):
    """The cone.json object a schema-1 writer made: one object per column
    with its dense vector."""
    matrix = cone.matrix(include_pruned=True)
    columns = []
    for j in range(cone.count):
        vertex = cone.vertex(j)
        columns.append({
            "vector": matrix[:, j],
            "target": (DIAMOND if vertex.target == DIAMOND
                       else {"touching": vertex.target}),
            "support": list(vertex.support),
            "weights": list(vertex.weights),
            "pruned": bool(cone.pruned[j])})
    return {"schema_version": 1,
            "normals": serialize.normals_to_obj(cone.normal_system),
            "columns": columns}


def test_float_formatting_is_round_trip_stable():
    values = [1.0, np.pi, 1e-300, -2.5e17, 0.1, 3.0, -0.0]
    text = serialize.dumps(values)
    parsed = json.loads(text)
    assert parsed == values
    assert serialize.dumps(parsed) == text


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        serialize.dumps([np.inf])
    with pytest.raises(ValueError):
        serialize.dumps({"x": float("nan")})


def test_normals_round_trip(hexagon_ns, tmp_path):
    path = tmp_path / "normals.json"
    serialize.write_json(path, serialize.normals_to_obj(hexagon_ns))
    loaded = serialize.normals_from_obj(serialize.read_json(path))
    assert np.array_equal(loaded.matrix, hexagon_ns.matrix)


def test_cone_round_trip(octagon_cone, tmp_path):
    pruned = prune_redundant(octagon_cone)
    path = tmp_path / "cone.json"
    serialize.write_json(path, serialize.cone_to_obj(pruned))
    loaded = serialize.cone_from_obj(serialize.read_json(path))
    assert serialize.read_json(path)["schema_version"] == 2
    assert loaded.count == pruned.count
    assert loaded.pruned_count == pruned.pruned_count
    for j in range(pruned.count):
        assert loaded.vertex(j) == pruned.vertex(j)
    assert (loaded.matrix(include_pruned=True).tobytes()
            == pruned.matrix(include_pruned=True).tobytes())
    # Byte-identical re-serialization.
    assert serialize.dumps(serialize.cone_to_obj(loaded)) == \
        serialize.dumps(serialize.cone_to_obj(pruned))


@pytest.mark.parametrize("space", ["planar32", "grid3_level2"])
def test_array_cone_round_trip(space, tmp_path):
    ns = (regular_normals(32, 0.3) if space == "planar32"
          else spherical_grid_normals(3, 2))
    cone = prune_redundant(compile_cone(ns))
    path = tmp_path / "cone.json"
    serialize.write_json(path, serialize.cone_to_obj(cone))
    loaded = serialize.cone_from_obj(serialize.read_json(path))
    assert (loaded.matrix(include_pruned=True).tobytes()
            == cone.matrix(include_pruned=True).tobytes())
    for j in range(cone.count):
        assert loaded.vertex(j) == cone.vertex(j)
        assert loaded.pruned[j] == cone.pruned[j]
    assert serialize.dumps(serialize.cone_to_obj(loaded)) == \
        serialize.dumps(serialize.cone_to_obj(cone))


def test_cone_load_rejects_inconsistent_columns(hexagon_cone):
    obj = json.loads(serialize.dumps(serialize.cone_to_obj(hexagon_cone)))
    tampers = [("support", lambda t: t[-1].__setitem__(0, 6)),
               ("support", lambda t: t[0].__setitem__(0, -1)),
               ("support", lambda t: t[0].pop()),
               ("target", lambda t: t.__setitem__(0, -2)),
               ("target", lambda t: t.__setitem__(-1, 6)),
               ("target", lambda t: t.pop()),
               ("weights", lambda t: t[-1].__setitem__(-1, 1.0)),
               ("pruned", lambda t: t.append(False)),
               # Values an integer or bool cast would change, and a null.
               ("support", lambda t: t[0].__setitem__(0, t[0][0] + 0.5)),
               ("target", lambda t: t.__setitem__(0, None)),
               ("pruned", lambda t: t.__setitem__(0, 2))]
    for key, tamper in tampers:
        tampered = json.loads(json.dumps(obj))
        tamper(tampered[key])
        with pytest.raises(ValueError):
            serialize.cone_from_obj(tampered)
    obj = json.loads(serialize.dumps(schema_1_cone_obj(hexagon_cone)))
    tampered = json.loads(json.dumps(obj))
    tampered["columns"][0]["vector"][0] += 1.0
    with pytest.raises(ValueError):
        serialize.cone_from_obj(tampered)
    for bad in (6, -1):
        tampered = json.loads(json.dumps(obj))
        tampered["columns"][-1]["support"][-1] = bad
        with pytest.raises(ValueError):
            serialize.cone_from_obj(tampered)
    with pytest.raises(ValueError):
        serialize.cone_from_obj({**obj, "schema_version": 3})


@pytest.mark.parametrize("space", ["hexagon", "grid3_level2"])
def test_cone_reads_schema_1(space):
    ns = (regular_normals(6) if space == "hexagon"
          else spherical_grid_normals(3, 2))
    cone = prune_redundant(compile_cone(ns))
    obj = json.loads(serialize.dumps(schema_1_cone_obj(cone)))
    loaded = serialize.cone_from_obj(obj)
    for key in ("target", "support", "weights", "pruned"):
        assert (getattr(loaded, key).tobytes()
                == getattr(cone, key).tobytes())
    assert serialize.dumps(serialize.cone_to_obj(loaded)) == \
        serialize.dumps(serialize.cone_to_obj(cone))


def test_polytope_and_coords_objects(square_cone):
    real = realize(np.ones(4), square_cone)
    obj = serialize.polytope_to_obj(real)
    assert obj["schema_version"] == 1
    assert len(obj["facets"]) == 4
    assert all(len(f["vertex_indices"]) == 2 for f in obj["facets"])
    loaded = serialize.polytope_from_obj(json.loads(serialize.dumps(obj)))
    assert np.allclose(loaded.vertices, real.vertices)
    assert loaded.facet_vertices == real.facet_vertices
    assert loaded.active_sets == real.active_sets
    b = serialize.coords_from_obj(serialize.coords_to_obj(np.ones(4)))
    assert b == pytest.approx(np.ones(4))


def test_body_round_trip():
    body = MinkowskiSum((
        Ball([0.5, -1.0], 2.0),
        Scaled(0.5, PointHull([[1, 0], [0, 1], [-1, -1]])),
    ))
    obj = serialize.body_to_obj(body)
    loaded = serialize.body_from_obj(json.loads(serialize.dumps(obj)))
    for u in np.column_stack([np.cos(np.linspace(0, 6, 13)),
                              np.sin(np.linspace(0, 6, 13))]):
        assert loaded.support(u) == pytest.approx(body.support(u), abs=1e-15)


def test_problem_from_obj():
    obj = {
        "schema_version": 1,
        "sequence": {"d": 2, "levels": [2, 3]},
        "objective": {"kind": "neg_volume"},
        "constraints": [{"kind": "perimeter_le", "limit": 6.2831853071795862,
                         "L": 6.2831853071795862}],
        "inner_body": {"type": "point_hull", "points": [[0, 0]]},
        "outer_body": {"type": "ball", "center": [0, 0], "radius": 2.0},
        "lambda": 0.1,
        "tolerances": {"feas_eps": 1e-7},
    }
    problem = serialize.problem_from_obj(obj)
    assert len(problem.sequence.levels) == 2
    assert problem.tolerances.feas_eps == 1e-7
    assert problem.constraints[0].lipschitz_L == pytest.approx(2 * np.pi)
    for key in ("bogus", "phase1_margin", "max_phase1", "mu_init",
                "mu_floor", "mu_factor", "step_tol", "max_inner", "fd_step"):
        with pytest.raises(ValueError):
            serialize.problem_from_obj({**obj, "tolerances": {key: 1}})


def test_unknown_schema_version_rejected():
    with pytest.raises(ValueError):
        serialize.normals_from_obj({"schema_version": 2, "rows": [[1, 0]]})
