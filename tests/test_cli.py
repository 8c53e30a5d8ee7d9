import json

import numpy as np
import pytest

from polygal import serialize
from polygal.cli import main

from conftest import touching_for


def run_cli(*argv):
    return main(list(argv))


def test_normals_gen_counts(tmp_path):
    out = tmp_path / "normals.json"
    assert run_cli("normals", "gen", "--d", "2", "--level", "2",
                   "--out", str(out)) == 0
    obj = serialize.read_json(out)
    assert len(obj["rows"]) == 8
    assert obj["config"]["command"] == "normals gen"

    out1 = tmp_path / "n1.json"
    assert run_cli("normals", "gen", "--d", "2", "--level", "1",
                   "--out", str(out1)) == 0
    assert len(serialize.read_json(out1)["rows"]) == 4


def test_normals_gen_bad_dimension(tmp_path, capsys):
    code = run_cli("normals", "gen", "--d", "1", "--level", "2",
                   "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_compile_counts_and_prune(tmp_path, capsys):
    normals = tmp_path / "hex.json"
    rows = np.column_stack([np.cos(2 * np.pi * np.arange(6) / 6),
                            np.sin(2 * np.pi * np.arange(6) / 6)])
    serialize.write_json(normals, {"schema_version": 1, "d": 2,
                                   "rows": rows})
    cone_path = tmp_path / "cone.json"
    assert run_cli("--json", "compile", "--normals", str(normals),
                   "--out", str(cone_path)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"diamond": 5, "touching": 6, "pruned": 0}

    oct_path = tmp_path / "oct.json"
    assert run_cli("normals", "gen", "--d", "2", "--level", "2",
                   "--out", str(oct_path)) == 0
    capsys.readouterr()
    oct_cone = tmp_path / "octcone.json"
    assert run_cli("--json", "compile", "--normals", str(oct_path), "--prune",
                   "--out", str(oct_cone)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 2
    counts = payload["counts"]
    assert counts["pruned"] == counts["touching"] - 8 + counts["diamond"]
    loaded = serialize.cone_from_obj(serialize.read_json(oct_cone))
    for k in range(8):
        assert sum(not c.pruned for c in touching_for(loaded, k)) == 1


def test_compile_unbounded_exit_code(tmp_path, capsys):
    normals = tmp_path / "narrow.json"
    angles = np.array([0.0, np.pi / 6, np.pi / 3])
    serialize.write_json(normals, {
        "schema_version": 1, "d": 2,
        "rows": np.column_stack([np.cos(angles), np.sin(angles)])})
    assert run_cli("compile", "--normals", str(normals),
                   "--out", str(tmp_path / "c.json")) == 2


def test_check_classifications(tmp_path, capsys):
    normals = tmp_path / "sq.json"
    assert run_cli("normals", "gen", "--d", "2", "--level", "1",
                   "--out", str(normals)) == 0
    cone = tmp_path / "cone.json"
    assert run_cli("compile", "--normals", str(normals),
                   "--out", str(cone)) == 0
    capsys.readouterr()

    for b, expected in [([1, 1, 1, 1], "interior"),
                        ([1, 1, -1, 1], "boundary"),
                        ([1, 1, -2, 1], "exterior")]:
        b_path = tmp_path / "b.json"
        serialize.write_json(b_path, {"schema_version": 1, "b": b})
        assert run_cli("--json", "check", "--cone", str(cone),
                       "--b", str(b_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == expected
        if expected == "boundary":
            assert payload["flat"] is True


def test_canonicalize_realize_project_hausdorff(tmp_path, capsys):
    normals = tmp_path / "hex.json"
    rows = np.column_stack([np.cos(2 * np.pi * np.arange(6) / 6),
                            np.sin(2 * np.pi * np.arange(6) / 6)])
    serialize.write_json(normals, {"schema_version": 1, "d": 2, "rows": rows})
    cone = tmp_path / "cone.json"
    assert run_cli("compile", "--normals", str(normals), "--out", str(cone)) == 0

    b_path = tmp_path / "b.json"
    serialize.write_json(b_path, {"schema_version": 1, "b": [3, 1, 1, 1, 1, 1]})
    canon = tmp_path / "canon.json"
    assert run_cli("canonicalize", "--normals", str(normals),
                   "--b", str(b_path), "--out", str(canon)) == 0
    assert serialize.coords_from_obj(serialize.read_json(canon)) == \
        pytest.approx([2, 1, 1, 1, 1, 1])

    poly = tmp_path / "poly.json"
    assert run_cli("realize", "--cone", str(cone), "--b", str(canon),
                   "--out", str(poly)) == 0
    vertices = np.asarray(serialize.read_json(poly)["vertices"])
    assert vertices.shape[1] == 2

    body = tmp_path / "ball.json"
    serialize.write_json(body, {"schema_version": 1, "type": "ball",
                                "center": [0, 0], "radius": 1.0})
    proj = tmp_path / "proj.json"
    assert run_cli("project", "--cone", str(cone), "--body", str(body),
                   "--out", str(proj)) == 0
    assert serialize.coords_from_obj(serialize.read_json(proj)) == \
        pytest.approx(np.ones(6))

    capsys.readouterr()
    assert run_cli("--json", "hausdorff", "--cone", str(cone),
                   "--b", str(proj), "--body", str(body),
                   "--samples", "720") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] <= 2 / np.sqrt(3) - 1 <= payload["upper"]

    assert run_cli("--json", "hausdorff", "--cone", str(cone),
                   "--b", str(proj), "--b2", str(canon)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hausdorff"] > 0


def test_constants_output(tmp_path, capsys):
    normals = tmp_path / "hex.json"
    rows = np.column_stack([np.cos(2 * np.pi * np.arange(6) / 6),
                            np.sin(2 * np.pi * np.arange(6) / 6)])
    serialize.write_json(normals, {"schema_version": 1, "d": 2, "rows": rows})
    assert run_cli("--json", "constants", "--normals", str(normals)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_hat"] == pytest.approx(2 * np.sin(np.pi / 12))
    assert payload["kappa_hat"] == pytest.approx(1 / np.sqrt(3), abs=1e-6)
    assert payload["rho"] == pytest.approx(0.5)
    assert payload["rho_bound"] == pytest.approx(np.sqrt(2))


def test_constants_refused_by_the_size_guard(tmp_path, capsys, monkeypatch):
    import polygal.cli as cli_module
    import polygal.cone as cone_module
    from polygal import spherical_grid_normals

    # The guard refuses before delta's sphere sampling is paid for.
    delta_calls = []
    monkeypatch.setattr(cli_module, "estimate_delta",
                        lambda *args: delta_calls.append(args))
    monkeypatch.setitem(cone_module.SIZE_GUARDS, 3, 20)
    normals = tmp_path / "grid.json"
    serialize.write_json(normals, {"schema_version": 1, "d": 3,
                                   "rows": spherical_grid_normals(3, 2).matrix})
    assert run_cli("constants", "--normals", str(normals)) == 1
    assert "guard" in capsys.readouterr().err
    assert delta_calls == []


def test_optimize_results_and_determinism(tmp_path):
    problem = {
        "schema_version": 1,
        "sequence": {"d": 2, "levels": [2, 3]},
        "objective": {"kind": "neg_volume"},
        "constraints": [{"kind": "perimeter_le", "limit": 2 * np.pi}],
        "inner_body": {"type": "point_hull", "points": [[0, 0]]},
        "outer_body": {"type": "ball", "center": [0, 0], "radius": 2.0},
        "lambda": 0.1,
    }
    problem_path = tmp_path / "problem.json"
    serialize.write_json(problem_path, problem)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli("optimize", "--problem", str(problem_path),
                   "--out", str(out1)) == 0
    assert run_cli("optimize", "--problem", str(problem_path),
                   "--out", str(out2)) == 0
    r1 = serialize.read_json(out1)
    r2 = serialize.read_json(out2)
    assert len(r1["levels"]) == 2
    assert r1["levels"][0]["kappa_hat"] is not None
    assert len(r1["cross_level"]) == 1
    assert all(level["gap"] <= 1e-10 for level in r1["levels"])
    # Byte-identical up to wall-clock timings.
    for r in (r1, r2):
        for level in r["levels"]:
            level["wall_ms"] = 0.0
        r["config"]["out"] = ""
    assert serialize.dumps(r1) == serialize.dumps(r2)


def test_optimize_rejects_removed_tolerances(tmp_path, capsys):
    problem = {
        "schema_version": 1,
        "sequence": {"d": 2, "levels": [2]},
        "objective": {"kind": "neg_volume"},
        "inner_body": {"type": "point_hull", "points": [[0, 0]]},
        "outer_body": {"type": "ball", "center": [0, 0], "radius": 2.0},
        "tolerances": {"mu_floor": 1e-8},
    }
    problem_path = tmp_path / "problem.json"
    serialize.write_json(problem_path, problem)
    assert run_cli("optimize", "--problem", str(problem_path),
                   "--out", str(tmp_path / "r.json")) == 1
    assert "mu_floor" in capsys.readouterr().err


def test_byte_identical_outputs(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert run_cli("normals", "gen", "--d", "3", "--level", "2",
                       "--out", str(out)) == 0
    text1 = out1.read_text().replace(str(out1), "OUT")
    text2 = out2.read_text().replace(str(out2), "OUT")
    assert text1 == text2
