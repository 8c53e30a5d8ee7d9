"""Span tracing of polygal's public functions, applied from outside the library.

While a `Tracer` is active, every traced function is replaced, in each
polygal module that binds it, by a wrapper that records a span: name, start,
end and the span that was open when it was called.  Patching every binding
catches both calls across modules (`polygal.optimize.realize`) and calls
inside the defining module.  Nothing in `src/` is changed; leaving the
context restores the original functions.

Spans stay in memory until `take()` turns one operation's spans into
per-function calls and seconds, per-layer self time (span time minus the time
its child spans cover) and a few counts read off the traced results.
"""

from contextlib import contextmanager
from math import comb
import sys
import time

# Layer = the polygal module that defines the function.  normals, spheres,
# serialize and cli take under 1 % of every workload and are not traced;
# their time counts toward the self time of the layer that called them.
TRACED = {
    "lp": ("solve_lp", "farkas_feasible", "enumerate_primal_vertices"),
    "cone": ("compile_cone", "prune_redundant"),
    "coordinates": ("classify", "realize", "canonicalize", "facet_lengths_2d",
                    "facet_measures", "polytope_volume", "polygon_area",
                    "hausdorff_polytopes"),
    "bodies": ("project_coords", "project_interior",
               "hausdorff_body_vs_polytope"),
    "galerkin": ("estimate_kappa", "embed_coordinates"),
    "optimize": ("run_sequence", "solve_level"),
}

# Per-operation counts read off traced calls; each repeats exactly for a
# repeated input.
COUNTS = ("lp.vertices_found", "lp.subsets_solved", "cone.columns",
          "cone.pruned", "optimize.iterations", "optimize.starts")


def _count_vertices(counts, args, result):
    matrix = args[0]
    counts["lp.vertices_found"] += len(result)
    counts["lp.subsets_solved"] += comb(len(matrix), len(matrix[0]))


def _count_columns(counts, args, result):
    counts["cone.columns"] += result.count
    counts["cone.pruned"] += result.pruned_count


def _count_level(counts, args, result):
    counts["optimize.iterations"] += result.iterations
    counts["optimize.starts"] += result.start_count


# Traced name -> function (counts, call args, result) adding the counts that
# the result carries.
COUNT_HOOKS = {"lp.enumerate_primal_vertices": _count_vertices,
               "cone.prune_redundant": _count_columns,
               "optimize.solve_level": _count_level}


class Tracer:
    """Records spans of the traced polygal functions while active."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = COUNT_HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self):
        """Patch every binding of the traced functions; restore on exit."""
        originals = {}
        for layer, names in TRACED.items():
            module = sys.modules["polygal." + layer]
            for fn_name in names:
                fn = getattr(module, fn_name)
                originals[id(fn)] = self._wrap(f"{layer}.{fn_name}", fn)
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "polygal" and not mod_name.startswith("polygal."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def take(self):
        """Per-operation metrics from the spans and counts recorded since the
        last call; clears both."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for layer, names in TRACED.items():
            out[f"{layer}.self_s"] = 0.0
            for fn_name in names:
                out[f"{layer}.{fn_name}.calls"] = 0
                out[f"{layer}.{fn_name}.s"] = 0.0
        for (name, start, end, _), covered in zip(spans, child):
            out[name + ".calls"] += 1
            out[name + ".s"] += end - start
            out[name.split(".")[0] + ".self_s"] += end - start - covered
        c = self.counts
        out["lp.vertex_yield"] = _ratio(c["lp.vertices_found"],
                                        c["lp.subsets_solved"])
        out["cone.columns"] = c["cone.columns"]
        out["cone.pruned"] = c["cone.pruned"]
        out["cone.survivor_ratio"] = _ratio(c["cone.columns"] - c["cone.pruned"],
                                            c["cone.columns"])
        out["optimize.iterations"] = c["optimize.iterations"]
        out["optimize.starts"] = c["optimize.starts"]
        out["optimize.realize_per_iter"] = _ratio(
            out["coordinates.realize.calls"], c["optimize.iterations"])
        out["trace.spans"] = len(spans)
        spans.clear()
        c.update(dict.fromkeys(COUNTS, 0))
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def is_time(name):
    """Whether a per-layer metric is a time (the rest are exact counts)."""
    return name.endswith(".s") or name.endswith("_s")
