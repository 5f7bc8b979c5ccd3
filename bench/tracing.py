"""Spans and counters around surfcomplex's public functions, from outside.

:class:`Tracer` replaces each listed function with a wrapper in every
``surfcomplex`` module namespace that binds it (``flag_complex`` lives in
``simplicial``, ``adjunction`` and ``wallcross``), so calls between layers
are seen.  Methods are wrapped once on their class.  ``uninstall`` puts the
original objects back.

Each call records a span ``(job, id, parent, name, start, end)`` in memory;
``write_spans`` writes them out when the run ends.  Per function ``F`` the
tracer keeps ``F.calls``, ``F.s`` (inclusive wall time, outermost activation
only) and ``F.self_s`` (minus wrapped callees).  Counter hooks run after a
span has closed; their time is charged to the harness, not to any layer.

The program is single-threaded, so no layer waits on a queue or lock and no
waiting time is recorded.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# layer -> attribute paths of the wrapped functions in that module
LAYERS = {
    "cli": ("main", "load_json", "emit"),
    "lattice": ("Catalog.from_json", "Catalog.sha256", "Catalog.surface", "ManifoldModel.pairing", "blowup"),
    "simplicial": (
        "SimplicialComplex.__init__", "flag_complex", "full_subcomplex", "SimplicialComplex.homology",
        "SimplicialComplex.boundary_matrix", "Chain.from_oriented", "cone_fill", "solve_boundary",
        "complex_to_json", "complex_from_json", "dumps",
    ),
    "snf": ("smith_normal_form", "SNFResult.check", "solve_integer_system"),
    "adjunction": ("build",),
    "wallcross": (
        "certify", "collection_complex", "fundamental_cycle", "verify_bounding", "derive_constraints",
        "evaluate_invariant",
    ),
    "paramgeo": (
        "lambda_min", "vanishing_data", "q_cover_check", "vanishing_certificate", "psi_inverse",
        "cylinder_length_quadrature", "selftest",
    ),
}

SNF = "snf.smith_normal_form"
HOMOLOGY = "simplicial.SimplicialComplex.homology"

# counter -> unit; hooks below fill them in
COUNTERS = {
    "cli.emit.bytes": "bytes",
    "simplicial.SimplicialComplex.init.simplices": "count",
    "simplicial.flag_complex.simplices": "count",
    "simplicial.boundary_matrix.cells": "count",
    "simplicial.boundary_matrix.nonzeros": "count",
    "snf.smith_normal_form.cells": "count",
    "snf.smith_normal_form.max_bits": "bits",
    "wallcross.fundamental_cycle.terms": "count",
    "paramgeo.q_cover_check.points": "count",
}


def metric_name(layer, path):
    return f"{layer}.{path.replace('.__init__', '.init')}"


def per_layer_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer, paths in LAYERS.items():
        for path in paths:
            name = metric_name(layer, path)
            units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update(COUNTERS)
    units["simplicial.boundary_matrix.density"] = "ratio"
    units["snf.smith_normal_form.rank_only_share"] = "ratio"
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units["bench.trace_overhead"] = "ratio"
    units["bench.harness_share"] = "ratio"
    return units


def _emit_bytes(tracer, args, result):
    # cli.emit writes ASCII JSON either to --output or to the job's fresh buffer
    opts = args[0]
    n = os.path.getsize(opts.output) if opts.output else sys.stdout.tell()
    tracer.counters["cli.emit.bytes"] += n


def _main_exit(tracer, args, result):
    if result == 2:
        tracer.counters["cli.errors"] += 1


def _complex_size(tracer, args, result):
    tracer.counters["simplicial.SimplicialComplex.init.simplices"] += len(args[0])


def _flag_size(tracer, args, result):
    tracer.counters["simplicial.flag_complex.simplices"] += len(result)


def _matrix_size(tracer, args, result):
    tracer.counters["simplicial.boundary_matrix.cells"] += len(result) * (len(result[0]) if result else 0)
    tracer.counters["simplicial.boundary_matrix.nonzeros"] += sum(len(row) - row.count(0) for row in result)


def _snf_size(tracer, args, result):
    tracer.counters["snf.smith_normal_form.cells"] += result.nrows * result.ncols
    bits = max((abs(x).bit_length() for m in (result.u, result.v) for row in m for x in row), default=0)
    key = "snf.smith_normal_form.max_bits"
    tracer.counters[key] = max(tracer.counters[key], bits)


def _cycle_terms(tracer, args, result):
    tracer.counters["wallcross.fundamental_cycle.terms"] += len(result)


def _cover_points(tracer, args, result):
    tracer.counters["paramgeo.q_cover_check.points"] += result["points"]


HOOKS = {
    "cli.main": _main_exit,
    "cli.emit": _emit_bytes,
    "simplicial.SimplicialComplex.init": _complex_size,
    "simplicial.flag_complex": _flag_size,
    "simplicial.SimplicialComplex.boundary_matrix": _matrix_size,
    SNF: _snf_size,
    "wallcross.fundamental_cycle": _cycle_terms,
    "paramgeo.q_cover_check": _cover_points,
}


def surfcomplex_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "surfcomplex" or name.startswith("surfcomplex."))]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.recording = False
        self.job = -1
        self.spans = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive s, self s
        self.counters = defaultdict(float)
        self.harness_s = 0.0
        self.rank_only_s = 0.0
        self._stack = []
        self._active = defaultdict(int)
        self._next_id = 0
        self._seen_errors = set()
        self._patched = []

    # -- installation ---------------------------------------------------------

    def install(self):
        import surfcomplex

        modules = surfcomplex_modules()
        for layer, paths in LAYERS.items():
            module = getattr(surfcomplex, layer)
            for path in paths:
                name = metric_name(layer, path)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(name, layer, raw.__func__))
                    else:
                        patched = self._wrap(name, layer, raw)
                    self._patched.append((owner, attr, raw))
                    setattr(owner, attr, patched)
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, layer, fn):
        tracer = self
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]  # span id, time in wrapped callees
            tracer._next_id += 1
            depth = tracer._active[name]
            tracer._active[name] = depth + 1
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._count_error(layer, exc)
                raise
            finally:
                tracer._close(name, frame, parent, depth, start, tracer.clock())
            if hook is not None:
                began = tracer.clock()
                hook(tracer, args, result)
                spent = tracer.clock() - began
                tracer.harness_s += spent
                if parent is not None:
                    parent[1] += spent
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _close(self, name, frame, parent, depth, start, end):
        self._stack.pop()
        self._active[name] = depth
        duration = end - start
        stat = self.stats[name]
        stat[0] += 1
        if depth == 0:
            stat[1] += duration
        stat[2] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
        if name == SNF and self._active[HOMOLOGY]:
            self.rank_only_s += duration
        self.spans.append((self.job, frame[0], parent[0] if parent else -1, name, start, end))

    def _count_error(self, layer, exc):
        key = (layer, id(exc))
        if key not in self._seen_errors:
            self._seen_errors.add(key)
            self.counters[f"{layer}.errors"] += 1

    # -- results --------------------------------------------------------------

    def self_total(self):
        return sum(stat[2] for stat in self.stats.values())

    def metrics(self):
        """Per-layer values by name (trace overhead and harness share aside)."""
        out = {}
        for layer, paths in LAYERS.items():
            for path in paths:
                name = metric_name(layer, path)
                calls, inclusive, own = self.stats.get(name, (0, 0.0, 0.0))
                out.update({f"{name}.calls": calls, f"{name}.s": inclusive, f"{name}.self_s": own})
            out[f"{layer}.errors"] = int(self.counters.get(f"{layer}.errors", 0))
        for name in COUNTERS:
            out[name] = int(self.counters.get(name, 0))
        cells = self.counters.get("simplicial.boundary_matrix.cells", 0)
        out["simplicial.boundary_matrix.density"] = (
            self.counters.get("simplicial.boundary_matrix.nonzeros", 0) / cells if cells else 0.0
        )
        snf_s = self.stats[SNF][1] if SNF in self.stats else 0.0
        out["snf.smith_normal_form.rank_only_share"] = self.rank_only_s / snf_s if snf_s else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
