"""Design benchmark: refractor designs driven through the shipped command line.

    python3 benchmark/run.py --workload canonical-512 --seed 1 --seconds 60 --trace 0

Each design runs validate -> solve -> trace -> mesh through refractor.cli.main
in this process, the order scripts/run_canonical.py uses, in a closed loop:
the next design starts when the previous one has been checked. Designs come
in whole rounds; another round starts only while a round as long as the last
one still ends within --seconds. Every design is checked apart from the
program (see checks.py). The last line of stdout is one JSON object: correct,
attempted, failed and the metrics, which are the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1.
See README.md for the workloads, the metrics and what moves them.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import scenegen  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_ROOT = ROOT / ".bench_out"
MESH_RES = (128, 256)

WORKLOADS = ("canonical-512", "many-targets", "design-stream")
LADDER = tuple(range(32, 513, 16))
# Fixed layouts (targets, layout seed) per workload, picked so that constant
# and axial-Gaussian intensity both occur; --seed turns and jitters them, so
# every seed gives a round of the same make-up and about the same cost
MANY_LAYOUTS = ((6, 601), (8, 803), (10, 1002))
MANY_EPS_REL = 1e-2
STREAM_LAYOUTS = ((2, 3), (2, 1), (3, 7), (3, 4))
STREAM_EPS_REL = 1e-3


def process_age() -> float:
    """Seconds since this process started (from /proc), else since this module loaded."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - STARTED


@dataclass
class Design:
    name: str
    slot: str             # the design's place in a round; one layout per slot
    scene: dict
    grid: tuple
    eps_rel: float
    pass_epsilon: bool    # give --epsilon explicitly (else the CLI default 1e-3 * total)
    artefacts: bool       # write every optional output
    sample_seed: int
    scene_path: Path = None
    eps_abs: float = None  # epsilon recomputed by the benchmark


class ChainFailed(Exception):
    """A command of the design chain exited with a non-zero code."""


class Workload:
    """Makes the rounds of designs for one workload from the run's seed."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.rng = np.random.default_rng([seed, 0x5EED])
        if name == "canonical-512":
            with open(ROOT / "scenes" / "canonical.json") as fh:
                self.canonical = json.load(fh)
        elif name == "many-targets":
            self.layouts = _layouts(MANY_LAYOUTS, MANY_EPS_REL, (18.0, 30.0))
        elif name == "design-stream":
            self.layouts = _layouts(STREAM_LAYOUTS, STREAM_EPS_REL, (20.0, 45.0))

    def round(self, k: int) -> list:
        tag = f"r{k:03d}"
        if self.name == "canonical-512":
            return [Design(f"{tag}-canonical", "canonical", self.canonical, (512, 512), 1e-3,
                           pass_epsilon=False, artefacts=False, sample_seed=self.seed)]
        many = self.name == "many-targets"
        out = []
        for i, (layout, fam) in enumerate(self.layouts):
            scene, grid = scenegen.generate(self.rng, fam, layout=layout)
            out.append(Design(f"{tag}-d{i}", f"d{i}", scene, grid, fam.eps_rel, pass_epsilon=many,
                              artefacts=not many, sample_seed=self.seed * 1000 + k * 10 + i))
        return out


def _layouts(spec: tuple, eps_rel: float, arc_step_deg: tuple) -> list:
    """(layout scene, family) for each (targets, layout seed) of `spec`."""
    out = []
    for n, layout_seed in spec:
        fam = scenegen.Family(n_targets=(n, n), eps_rel=eps_rel, grids=LADDER,
                              arc_step_deg=arc_step_deg)
        layout, _ = scenegen.generate(np.random.default_rng(layout_seed), fam)
        out.append((layout, fam))
    return out


def chain_argv(design: Design, out: Path):
    """The four commands of one design, in order, and the paths of their outputs."""
    scene_path = str(design.scene_path)
    grid = f"{design.grid[0]}x{design.grid[1]}"
    paths = {"result": out / "result.json", "log": out / "trace.csv", "mesh": out / "surface.obj"}
    validate = ["validate", scene_path, "--grid", grid]
    solve = ["solve", scene_path, "--grid", grid, "--out", str(paths["result"]),
             "--log", str(paths["log"])]
    trace = ["trace", scene_path, "--from-result", str(paths["result"]), "--grid", grid]
    mesh = ["mesh", scene_path, "--from-result", str(paths["result"]),
            "--resolution", f"{MESH_RES[0]}x{MESH_RES[1]}", "--out", str(paths["mesh"])]
    if design.pass_epsilon:
        solve += ["--epsilon", repr(design.eps_abs)]
    if design.artefacts:
        validate += ["--json", str(out / "validation.json")]
        solve += ["--labels", str(out / "labels.csv")]
        trace += ["--out", str(out / "transport.json"), "--rays", str(out / "rays.csv")]
    return {"validate": validate, "solve": solve, "trace": trace, "mesh": mesh}, paths


def run_command(cli_main, name: str, argv: list, tracer=None) -> float:
    """One CLI command in this process; returns its wall time."""
    sink = io.StringIO()
    span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
        code = cli_main(argv)
    elapsed = time.perf_counter() - t0
    if code != 0:
        last = sink.getvalue().strip().splitlines()[-1:] or [""]
        raise ChainFailed(f"{name} exited {code}: {last[0]}")
    return elapsed


def run_chain(cli_main, design: Design, out: Path, tracer=None):
    """validate -> solve -> trace -> mesh; returns ({command: wall seconds}, output paths)."""
    commands, paths = chain_argv(design, out)
    out.mkdir(exist_ok=True)
    times = {name: run_command(cli_main, name, argv, tracer) for name, argv in commands.items()}
    return times, paths


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads = min(2, len(os.sched_getaffinity(0)))
    os.environ["REFRACTOR_THREADS"] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import refractor
        from refractor.cli import main as cli_main
    except ImportError as exc:
        print(f"benchmark: cannot import the refractor package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(refractor.__file__).resolve().parents:
        print(f"benchmark: refractor imported from {refractor.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-t{args.trace}-",
                                    dir=OUT_ROOT))
    workload = Workload(args.workload, args.seed)
    pending = _write_scenes(workload.round(0), run_dir)
    setup_s = process_age()

    tracer = tracing.Tracer() if args.trace else None
    attempted = failed = 0
    correct = True
    done = []          # (design name, slot, {command: seconds}); a traced run keeps the traced chain
    untraced = []      # traced run only: the paired untraced chain times
    bytes_written = {}

    def report(where: str, check: str, items: list) -> None:
        nonlocal correct
        for item in items:
            correct = False
            print(f"[workload {args.workload} seed {args.seed}{where}] check {check}: {item}",
                  file=sys.stderr)

    t_first = time.perf_counter()
    k = 0
    while True:
        round_start = time.perf_counter()
        for d in pending:
            attempted += 1
            out = run_dir / d.name
            ref = checks.reference(d.scene, d.grid, d.eps_rel)
            d.eps_abs = ref.epsilon
            try:
                if tracer is None:
                    times, paths = run_chain(cli_main, d, out)
                else:
                    times, paths, plain = _paired(cli_main, d, run_dir, tracer, len(done))
            except Exception as exc:  # a design that fails is counted; the run goes on
                failed += 1
                report(f" design {d.name}", "chain", [str(exc)])
                if not isinstance(exc, ChainFailed):
                    traceback.print_exc(file=sys.stderr)
            else:
                problems = checks.run_all(ref, paths, MESH_RES, d.sample_seed)
                if tracer is not None:
                    problems["traced_equals_untraced"] = _same_result(paths["result"], plain)
                    untraced.append(plain["times"])
                    bytes_written[d.name] = dir_bytes(out)
                for check, items in problems.items():
                    report(f" design {d.name}", check, items)
                done.append((d.name, d.slot, times))
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(run_dir / f"{d.name}-plain", ignore_errors=True)
            d.scene_path.unlink()
        k += 1
        # start another round only if one as long as the last still fits
        now = time.perf_counter()
        if now - t_first + (now - round_start) > args.seconds:
            break
        pending = _write_scenes(workload.round(k), run_dir)

    if not done:
        print(f"[workload {args.workload} seed {args.seed}] no design completed", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = _end_to_end(done, setup_s)
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        metrics = _per_layer(tracer, done, untraced, bytes_written)
        tracer.dump(run_dir / "spans.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _write_scenes(designs: list, run_dir: Path) -> list:
    """Write each design's scene file; the program receives only these files."""
    for d in designs:
        d.scene_path = run_dir / f"{d.name}.json"
        with open(d.scene_path, "w") as fh:
            json.dump(d.scene, fh, indent=1)
    return designs


def _paired(cli_main, d: Design, run_dir: Path, tracer, index: int):
    """Run the design untraced and traced, alternating which goes first."""
    plain_dir, traced_dir = run_dir / f"{d.name}-plain", run_dir / d.name

    def traced():
        tracer.design = d.name
        tracer.shape = (d.grid[0] * d.grid[1], len(d.scene["targets"]))
        with tracing.instrument(tracer):
            return run_chain(cli_main, d, traced_dir, tracer)

    if index % 2 == 0:
        plain_times, plain_paths = run_chain(cli_main, d, plain_dir)
        times, paths = traced()
    else:
        times, paths = traced()
        plain_times, plain_paths = run_chain(cli_main, d, plain_dir)
    with open(plain_paths["result"]) as fh:
        plain = json.load(fh)
    plain["times"] = plain_times
    return times, paths, plain


def _same_result(result_path, plain: dict) -> list:
    with open(result_path) as fh:
        traced = json.load(fh)
    keys = ("b_final", "H", "groups_used", "oracle_evaluations")
    return [f"{k} differs between the traced and the untraced run"
            for k in keys if traced[k] != plain[k]]


def _median(values) -> float:
    return float(statistics.median(values))


def _slot_mean(pairs) -> float:
    """Mean over slots of the median of each slot's values, from (slot, value) pairs.

    A round's make-up, not a stray slow design, then sets the figure.
    """
    slots = {}
    for slot, value in pairs:
        slots.setdefault(slot, []).append(value)
    return sum(_median(v) for v in slots.values()) / len(slots)


def _end_to_end(done: list, setup_s: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "designs_per_s": {"value": 1.0 / _slot_mean((s, sum(t.values())) for _, s, t in done),
                          "unit": "1/s"},
        "solve_s": {"value": _slot_mean((s, t["solve"]) for _, s, t in done), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def _per_layer(tracer, done: list, untraced: list, bytes_written: dict) -> dict:
    names = [n for n, _, _ in done]
    slot = {n: s for n, s, _ in done}
    self_t, total_t, counts = tracer.self_times(), tracer.totals(), tracer.counts

    def med(table, key):
        return _slot_mean((slot[n], table[n].get(key, 0.0)) for n in names)

    def ratio(num_table, num, den_table, den, scale=1.0):
        d = sum(den_table[n].get(den, 0.0) for n in names)
        return scale * sum(num_table[n].get(num, 0.0) for n in names) / d if d else 0.0

    traced_s = sum(sum(t.values()) for _, _, t in done)
    plain_s = sum(sum(t.values()) for t in untraced)
    m = {
        "scene.load_s": (med(self_t, "scene.load"), "s"),
        "geometry.quadrature_s": (med(self_t, "geometry.quadrature"), "s"),
        "geometry.quadrature_calls": (med(counts, "geometry.quadrature_calls"), "count"),
        "solver.bind_s": (med(self_t, "solver.bind"), "s"),
        "solver.lipschitz_s": (med(self_t, "solver.lipschitz"), "s"),
        "solver.lipschitz_evals": (med(counts, "solver.lipschitz_evals"), "count"),
        "solver.descent_s": (med(self_t, "solver.descent"), "s"),
        "solver.groups": (med(counts, "solver.groups"), "count"),
        "solver.oracle_evals": (med(counts, "solver.oracle_evals"), "count"),
        "solver.adjustments": (med(counts, "solver.adjustments"), "count"),
        "solver.evals_per_adjustment": (
            ratio(counts, "solver.adjustment_evals", counts, "solver.adjustments"), "count"),
        "solver.write_convergence_csv_s": (med(self_t, "solver.write_convergence_csv"), "s"),
        "measure.oracle_s": (med(counts, "measure.oracle_s"), "s"),
        "measure.oracle_calls": (med(counts, "measure.oracle_calls"), "count"),
        "measure.oracle_ns_per_node_target": (
            ratio(counts, "measure.oracle_s", counts, "measure.oracle_node_targets", 1e9), "ns"),
        "measure.oracle_bytes_computed": (med(counts, "measure.oracle_bytes_computed"), "bytes"),
        "measure.radii_matrix_s": (med(self_t, "measure.radii_matrix"), "s"),
        "measure.export_mesh_s": (med(self_t, "measure.export_mesh"), "s"),
        "measure.write_obj_s": (med(self_t, "measure.write_obj"), "s"),
        "measure.write_label_csv_s": (med(self_t, "measure.write_label_csv"), "s"),
        "raytrace.validate_transport_s": (med(self_t, "raytrace.validate_transport"), "s"),
        "raytrace.rays_per_s": (
            ratio(counts, "raytrace.rays", total_t, "raytrace.validate_transport"), "1/s"),
        "raytrace.write_ray_csv_s": (med(self_t, "raytrace.write_ray_csv"), "s"),
        "parallel.workers": (med(counts, "parallel.workers"), "count"),
        "parallel.chunks": (med(counts, "parallel.chunks"), "count"),
        "cli.bytes_written": (_slot_mean((slot[n], bytes_written[n]) for n in names), "bytes"),
        "trace.designs_per_s": (len(done) / traced_s, "1/s"),
        "trace.untraced_designs_per_s": (len(untraced) / plain_s, "1/s"),
        "trace.overhead_pct": (100.0 * (traced_s / plain_s - 1.0), "%"),
    }
    for cmd in ("validate", "solve", "trace", "mesh"):
        m[f"cli.self_s.{cmd}"] = (med(self_t, f"cli.{cmd}"), "s")
        m[f"cli.wall_s.{cmd}"] = (med(total_t, f"cli.{cmd}"), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
