"""Command-line orchestration: generate, compile, inspect, project, measure,
optimize.  All I/O is JSON files; outputs embed the resolved configuration."""

import argparse
import sys

import numpy as np

from . import serialize
from .bodies import hausdorff_body_vs_polytope, project_coords, project_interior
from .cone import compile_cone, prune_redundant
from .coordinates import (canonicalize, classify, diagnose_boundary,
                          hausdorff_polytopes, realize)
from .errors import InfeasibleLevel, NumericalFailure, PolygalError, UnboundedSpace
from .galerkin import (adjacent_rho, estimate_delta, estimate_kappa,
                       kappa_rho_bound, spherical_grid_normals)
from .optimize import run_sequence


def _config_echo(args, command):
    return {
        "command": command,
        "tol_scale": args.tol_scale,
        "json": args.json,
    }


def _with_config(obj, config):
    # obj's own schema_version, if any, overrides the default, kept first.
    return {"schema_version": serialize.SCHEMA_VERSION, "config": config,
            **obj}


def _emit(args, obj, out_path, summary):
    if out_path:
        serialize.write_json(out_path, obj)
    if args.json:
        print(serialize.dumps(obj))
    else:
        print(summary)


def cmd_normals_gen(args):
    ns = spherical_grid_normals(args.d, args.level)
    config = _config_echo(args, "normals gen")
    config.update({"d": args.d, "level": args.level, "out": args.out})
    obj = _with_config(serialize.normals_to_obj(ns), config)
    _emit(args, obj, args.out,
          f"wrote {ns.count} unit normals (d={ns.dimension}) to {args.out}")
    return 0


def cmd_compile(args):
    ns = serialize.normals_from_obj(serialize.read_json(args.normals))
    cone = compile_cone(ns, allow_large=args.allow_large)
    if args.prune:
        cone = prune_redundant(cone)
    counts = {"diamond": cone.diamond_count, "touching": cone.touching_count,
              "pruned": cone.pruned_count}
    config = _config_echo(args, "compile")
    config.update({"normals": args.normals, "prune": args.prune,
                   "out": args.out})
    obj = _with_config(serialize.cone_to_obj(cone), config)
    obj["counts"] = counts
    _emit(args, obj, args.out,
          "columns: diamond={diamond} touching={touching} pruned={pruned}"
          .format(**counts))
    return 0


def cmd_check(args):
    cone = serialize.cone_from_obj(serialize.read_json(args.cone))
    b = serialize.coords_from_obj(serialize.read_json(args.b))
    cv = classify(b, cone)
    report = {"classification": cv.classification,
              "active_columns": list(cv.active_columns)}
    if cv.classification != "exterior":
        diag = diagnose_boundary(b, cone)
        report["flat"] = diag.flat
        report["degenerate_facets"] = list(diag.degenerate_facets)
    config = _config_echo(args, "check")
    config.update({"cone": args.cone, "b": args.b})
    obj = _with_config(report, config)
    _emit(args, obj, args.out, cv.classification)
    return 0


def cmd_canonicalize(args):
    ns = serialize.normals_from_obj(serialize.read_json(args.normals))
    b_tilde = serialize.coords_from_obj(serialize.read_json(args.b))
    cv = canonicalize(b_tilde, ns)
    config = _config_echo(args, "canonicalize")
    config.update({"normals": args.normals, "b": args.b, "out": args.out})
    obj = _with_config(serialize.coords_to_obj(cv.b), config)
    _emit(args, obj, args.out, "canonical coordinates written")
    return 0


def cmd_realize(args):
    cone = serialize.cone_from_obj(serialize.read_json(args.cone))
    b = serialize.coords_from_obj(serialize.read_json(args.b))
    real = realize(b, cone)
    config = _config_echo(args, "realize")
    config.update({"cone": args.cone, "b": args.b, "out": args.out})
    obj = _with_config(serialize.polytope_to_obj(real), config)
    _emit(args, obj, args.out,
          f"{real.vertex_count} vertices written to {args.out}")
    return 0


def cmd_project(args):
    cone = serialize.cone_from_obj(serialize.read_json(args.cone))
    body = serialize.body_from_obj(serialize.read_json(args.body))
    if args.interior_lambda is not None:
        result = project_interior(body, cone, args.interior_lambda,
                                  with_realization=bool(args.polytope_out))
    else:
        result = project_coords(body, cone,
                                with_realization=bool(args.polytope_out))
    config = _config_echo(args, "project")
    config.update({"cone": args.cone, "body": args.body,
                   "lambda": args.interior_lambda, "out": args.out})
    obj = _with_config(serialize.coords_to_obj(result.coords.b), config)
    obj["classification"] = result.coords.classification
    obj["body_norm"] = result.body_norm
    _emit(args, obj, args.out,
          f"projection is {result.coords.classification}")
    if args.polytope_out and result.realization is not None:
        serialize.write_json(args.polytope_out,
                             serialize.polytope_to_obj(result.realization))
    return 0


def cmd_hausdorff(args):
    cone = serialize.cone_from_obj(serialize.read_json(args.cone))
    b1 = serialize.coords_from_obj(serialize.read_json(args.b))
    real1 = realize(b1, cone)
    config = _config_echo(args, "hausdorff")
    config.update({"cone": args.cone, "b": args.b})
    if args.body:
        body = serialize.body_from_obj(serialize.read_json(args.body))
        lower, upper = hausdorff_body_vs_polytope(body, real1, args.samples)
        config.update({"body": args.body, "samples": args.samples})
        obj = _with_config({"lower": lower, "upper": upper}, config)
        _emit(args, obj, args.out, f"hausdorff in [{lower:.9g}, {upper:.9g}]")
        return 0
    if not args.b2:
        raise ValueError("need --b2 or --body to compare against")
    cone2 = cone
    if args.cone2:
        cone2 = serialize.cone_from_obj(serialize.read_json(args.cone2))
    b2 = serialize.coords_from_obj(serialize.read_json(args.b2))
    real2 = realize(b2, cone2)
    dist = hausdorff_polytopes(real1, real2)
    config.update({"b2": args.b2, "cone2": args.cone2})
    payload = {"hausdorff": dist}
    if args.cone2 is None:
        # Observed expansion of the coordinates-to-polytope map; reported as
        # a diagnostic, no bound is claimed.
        from polygal.coordinates import phi_expansion_ratio
        payload["phi_ratio"] = phi_expansion_ratio(real1, real2)
    obj = _with_config(payload, config)
    _emit(args, obj, args.out, f"hausdorff = {dist:.9g}")
    return 0


def cmd_constants(args):
    ns = serialize.normals_from_obj(serialize.read_json(args.normals))
    # Kappa first: its size guard refuses before delta's sampling runs.
    kappa = estimate_kappa(ns, args.samples)
    delta = estimate_delta(ns, args.samples)
    rho = adjacent_rho(ns) if ns.dimension == 2 else None
    bound = kappa_rho_bound(rho) if rho is not None else None
    payload = {"delta_hat": delta, "kappa_hat": kappa, "rho": rho,
               "rho_bound": None if bound is None or not np.isfinite(bound)
               else bound}
    config = _config_echo(args, "constants")
    config.update({"normals": args.normals, "samples": args.samples})
    obj = _with_config(payload, config)
    _emit(args, obj, args.out,
          f"delta_hat={delta:.6g} kappa_hat={kappa:.6g}")
    return 0


def cmd_optimize(args):
    problem_obj = serialize.read_json(args.problem)
    problem = serialize.problem_from_obj(problem_obj)
    problem.tolerances.feas_eps *= args.tol_scale
    result = run_sequence(problem)
    config = _config_echo(args, "optimize")
    config.update({"problem": args.problem, "out": args.out})
    obj = serialize.results_to_obj(result, config=config)
    summary = "; ".join(
        f"level {lr.level}: N={lr.row_count} objective={lr.objective_value:.9g}"
        for lr in result.levels)
    _emit(args, obj, args.out, summary)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polygal",
        description="polytope spaces with prescribed facet normals")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        dest="tol_scale",
                        help="multiplier applied to the solver's feas_eps")
    parser.add_argument("--json", action="store_true",
                        help="print machine-readable JSON to stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_normals = sub.add_parser("normals", help="normal-system utilities")
    normals_sub = p_normals.add_subparsers(dest="normals_command",
                                           required=True)
    p_gen = normals_sub.add_parser("gen", help="spherical grid normals")
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--level", type=int, required=True)
    p_gen.add_argument("--out", default="normals.json")
    p_gen.set_defaults(func=cmd_normals_gen)

    p_compile = sub.add_parser("compile", help="compile the coordinate cone")
    p_compile.add_argument("--normals", required=True)
    p_compile.add_argument("--prune", action="store_true")
    p_compile.add_argument("--allow-large", action="store_true",
                           dest="allow_large")
    p_compile.add_argument("--out", default="cone.json")
    p_compile.set_defaults(func=cmd_compile)

    p_check = sub.add_parser("check", help="classify coordinates")
    p_check.add_argument("--cone", required=True)
    p_check.add_argument("--b", required=True)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_canon = sub.add_parser("canonicalize",
                             help="minimal coordinates of a polyhedron")
    p_canon.add_argument("--normals", required=True)
    p_canon.add_argument("--b", required=True)
    p_canon.add_argument("--out", default=None)
    p_canon.set_defaults(func=cmd_canonicalize)

    p_realize = sub.add_parser("realize", help="vertex realization")
    p_realize.add_argument("--cone", required=True)
    p_realize.add_argument("--b", required=True)
    p_realize.add_argument("--out", default="polytope.json")
    p_realize.set_defaults(func=cmd_realize)

    p_project = sub.add_parser("project", help="project a convex body")
    p_project.add_argument("--cone", required=True)
    p_project.add_argument("--body", required=True)
    p_project.add_argument("--lambda", type=float, default=None,
                           dest="interior_lambda",
                           help="interior blend weight in (0, 1)")
    p_project.add_argument("--out", default=None)
    p_project.add_argument("--polytope-out", default=None,
                           dest="polytope_out")
    p_project.set_defaults(func=cmd_project)

    p_hd = sub.add_parser("hausdorff", help="distance measurements")
    p_hd.add_argument("--cone", required=True)
    p_hd.add_argument("--b", required=True)
    p_hd.add_argument("--b2", default=None)
    p_hd.add_argument("--cone2", default=None)
    p_hd.add_argument("--body", default=None)
    p_hd.add_argument("--samples", type=int, default=720)
    p_hd.add_argument("--out", default=None)
    p_hd.set_defaults(func=cmd_hausdorff)

    p_const = sub.add_parser("constants", help="approximation constants")
    p_const.add_argument("--normals", required=True)
    p_const.add_argument("--samples", type=int, default=None)
    p_const.add_argument("--out", default=None)
    p_const.set_defaults(func=cmd_constants)

    p_opt = sub.add_parser("optimize", help="run a level sequence")
    p_opt.add_argument("--problem", required=True)
    p_opt.add_argument("--out", default="results.json")
    p_opt.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnboundedSpace, InfeasibleLevel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PolygalError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
