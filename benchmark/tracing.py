"""Spans around the calls into each refractor module, recorded from outside.

`instrument` swaps public functions in the refractor modules for timed
wrappers and puts the originals back on exit; nothing in the program is
edited. Spans (name, start, end, parent, design) stay in memory until `dump`.
The descent oracle is too hot for a span per call: its calls are summed into
counters and into the covered time of the enclosing span instead.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name): every place the CLI or another module
# reaches the function through its own global name
WRAPPED = [
    ("cli", "load_scene", "scene.load"),
    ("cli", "build_quadrature", "geometry.quadrature"),
    ("cli", "solve_refractor", "solver.bind"),
    ("solver", "estimate_lipschitz", "solver.lipschitz"),
    ("solver", "solve", "solver.descent"),
    ("measure", "radii_matrix", "measure.radii_matrix"),
    ("raytrace", "radii_matrix", "measure.radii_matrix"),
    ("cli", "export_mesh", "measure.export_mesh"),
    ("cli", "write_obj", "measure.write_obj"),
    ("cli", "write_label_csv", "measure.write_label_csv"),
    ("cli", "validate_transport", "raytrace.validate_transport"),
    ("cli", "write_ray_csv", "raytrace.write_ray_csv"),
    ("cli", "write_convergence_csv", "solver.write_convergence_csv"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.design = None
        self.shape = (0, 0)          # (grid nodes, targets) of the current design
        self.counts = defaultdict(lambda: defaultdict(float))

    def count(self, name: str, value: float) -> None:
        self.counts[self.design][name] += value

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "design": self.design,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None, "covered": 0.0}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """{design: {span name: summed self time}}: duration minus children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            dur = s["end"] - s["start"]
            out[s["design"]][s["name"]] += dur - child[s["id"]] - s["covered"]
        return out

    def totals(self) -> dict:
        """{design: {span name: summed duration}}."""
        out = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s["design"]][s["name"]] += s["end"] - s["start"]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": {str(k): dict(v) for k, v in self.counts.items()}}, fh)

    # --- wrappers ------------------------------------------------------------

    def _timed(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self._after(name, out)
            return out
        return wrapper

    def _after(self, name, out) -> None:
        if name == "geometry.quadrature":
            self.count("geometry.quadrature_calls", 1)
        elif name == "raytrace.validate_transport":
            self.count("raytrace.rays", out.n_rays)
        elif name == "solver.descent":
            trace = out[1]
            changed = [s for s in trace.steps if s.changed]
            self.count("solver.groups", trace.groups_used)
            self.count("solver.oracle_evals", trace.total_evals)
            self.count("solver.adjustments", len(changed))
            self.count("solver.adjustment_evals", sum(s.oracle_evals for s in changed))

    def _oracle(self, evaluate):
        """Time every oracle call and model the bytes it touches.

        Per call: 16 n bytes for each recomputed radius column (read t, write
        h), 8 n N for the argmin read, 8 n for its labels, 16 n for the
        bincount read of labels and energies. Columns are recomputed where b
        moved since the previous call, as the cached oracle does. Sums stay in
        locals until `flush`, to keep the per-call cost small.
        """
        n, n_t = self.shape
        acc = {"s": 0.0, "calls": 0, "columns": 0, "last": None}
        clock = time.perf_counter

        def wrapper(b):
            t0 = clock()
            out = evaluate(b)
            dt = clock() - t0
            acc["s"] += dt
            acc["calls"] += 1
            last = acc["last"]
            acc["columns"] += n_t if last is None else int(np.count_nonzero(b != last))
            acc["last"] = np.array(b, dtype=float)
            if self._stack:
                self._stack[-1]["covered"] += dt
            return out

        def flush():
            calls = acc["calls"]
            self.count("measure.oracle_s", acc["s"])
            self.count("measure.oracle_calls", calls)
            self.count("measure.oracle_node_targets", calls * n * n_t)
            self.count("measure.oracle_bytes_computed",
                       16 * acc["columns"] * n + calls * (8 * n * n_t + 24 * n))
        return wrapper, flush


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers in the refractor modules; restore them on exit."""
    from refractor import cli, measure, parallel, raytrace, solver

    modules = {"cli": cli, "measure": measure, "raytrace": raytrace, "solver": solver}
    saved = []
    for mod_name, attr, span_name in WRAPPED:
        mod = modules[mod_name]
        orig = getattr(mod, attr)
        saved.append((mod, attr, orig))
        setattr(mod, attr, tracer._timed(orig, span_name))

    spec_type = solver.MonotoneOracleSpec
    timed_solve = solver.solve
    timed_lipschitz = solver.estimate_lipschitz

    def solve_with_oracle(spec, *args, **kwargs):
        evaluate, flush = tracer._oracle(spec.evaluate)
        wrapped = spec_type(evaluate=evaluate, lower=spec.lower, upper=spec.upper,
                            limits=spec.limits)
        try:
            return timed_solve(wrapped, *args, **kwargs)
        finally:
            flush()

    def lipschitz_counted(spec, *args, **kwargs):
        def counted(b):
            tracer.count("solver.lipschitz_evals", 1)
            return spec.evaluate(b)
        wrapped = spec_type(evaluate=counted, lower=spec.lower, upper=spec.upper,
                            limits=spec.limits)
        return timed_lipschitz(wrapped, *args, **kwargs)

    def chunks_counted(fn, n):
        tracer.count("parallel.chunks", len(parallel.chunk_slices(n)))
        seen = tracer.counts[tracer.design]
        seen["parallel.workers"] = max(seen["parallel.workers"], parallel.worker_count())
        return parallel.map_chunks(fn, n)

    saved += [(solver, "solve", timed_solve), (solver, "estimate_lipschitz", timed_lipschitz)]
    solver.solve = solve_with_oracle
    solver.estimate_lipschitz = lipschitz_counted
    for name in ("measure", "raytrace"):
        saved.append((modules[name], "map_chunks", getattr(modules[name], "map_chunks")))
        setattr(modules[name], "map_chunks", chunks_counted)
    try:
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)

