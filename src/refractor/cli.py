"""Command line driver: validate scenes, solve for b, trace rays, export meshes.

Exit codes: 0 success, 1 residuals above epsilon (solve), 2 scene, parameter
or output path failure, including a target the flooding limit cannot reach
(FloorReached), an oval or normal that cannot be evaluated at some node
(NonPositiveDiscriminant, DegenerateNormal) and a grid or mesh too large to
allocate (MemoryError), 3 quadrature too coarse for the requested tolerance,
4 group budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .geometry import build_quadrature
from .measure import export_mesh, write_json, write_label_csv, write_obj
from .oval import DegenerateNormal, NonPositiveDiscriminant
from .raytrace import TotalInternalReflection, validate_transport, write_ray_csv
from .scene import SceneValidationError, json_number, load_scene, validation_report
from .solver import (
    MAX_GROUPS,
    FloorReached,
    MaxGroupsExceeded,
    QuantizationTooCoarse,
    solve_refractor,
    write_convergence_csv,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_VALIDATION = 2
EXIT_QUANTIZATION = 3
EXIT_MAX_GROUPS = 4

OUTPUT_FLAGS = ("json", "out", "log", "labels", "rays")   # attributes naming files to write


def _parse_dims(s: str):
    try:
        a, b = s.lower().split("x")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NxM, got {s!r}")


def _check_args(args) -> None:
    """Refuse bad numeric flags and unwritable output paths before any work."""
    for flag in ("epsilon", "tol"):
        value = getattr(args, flag, None)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"--{flag} must be a positive finite number, got {value!r}")
    groups = getattr(args, "max_groups", None)
    if groups is not None and groups < 1:
        raise ValueError(f"--max-groups must be at least 1, got {groups!r}")
    for flag in OUTPUT_FLAGS:
        path = getattr(args, flag, None)
        if not path:
            continue
        path = Path(path)
        if path.is_dir():
            raise ValueError(f"--{flag} {path} is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"--{flag} {path}: directory {path.parent} does not exist")


def _load_b(args):
    """b from --from-result (its b_final) or --b-file (a JSON list of numbers);
    its shape and box are checked where it is used (scene.check_b_vector)."""
    path = args.from_result or args.b_file
    with open(path) as fh:
        data = json.load(fh)
    if args.from_result:
        if not isinstance(data, dict) or "b_final" not in data:
            raise SceneValidationError(f"{path}: no b_final entry")
        data = data["b_final"]
    return json_number(data, f"{path}: b")


def run_validate(args) -> int:
    scene = load_scene(args.scene)
    grid = build_quadrature(scene.cap, *args.grid)
    report = validation_report(scene, grid)
    print(f"scene: {args.scene}")
    print(f"kappa = {report['kappa']}, targets = {report['n_targets']}, grid = {args.grid[0]}x{args.grid[1]}")
    print(f"tau_star = {report['tau_star']:.6f} (tau = {report['tau']:.6f})")
    print(f"r0 = {report['r0']:.6f}, b1 = {report['b1']:.6f}, alpha = {report['alpha']:.6f}")
    print(f"C_0 = {report['c0']:.6e}")
    print(f"total energy = {report['total_energy']:.9e}, sum g_i = {report['sum_target_weights']:.9e}")
    for i, j, m in report["structural_margins"]:
        tag = "ok" if m > 0 else "WARN"
        print(f"structural margin ({i},{j}) = {m:.6f} [{tag}]")
    if not report["structural_supported"]:
        print("warning: structural condition unsupported; termination bound not guaranteed", file=sys.stderr)
    if args.json:
        write_json(report, args.json)
    return EXIT_OK


def run_solve(args) -> int:
    scene = load_scene(args.scene)
    grid = build_quadrature(scene.cap, *args.grid)
    t0 = time.perf_counter()
    sol = solve_refractor(scene, grid, epsilon=args.epsilon, max_groups=args.max_groups)
    wall = time.perf_counter() - t0

    trace = sol.trace
    result = {
        "scene": str(args.scene),
        "grid": [grid.n_theta, grid.n_phi],
        "epsilon": sol.epsilon,
        "delta": sol.delta,
        "total_energy": sol.total,
        "b_final": [float(v) for v in sol.b],
        "H": [float(v) for v in sol.H],
        "g": [float(v) for v in sol.g],
        "residuals": [float(v) for v in sol.residuals],
        "max_residual": float(np.max(sol.residuals)),
        "groups_used": trace.groups_used,
        "oracle_evaluations": trace.total_evals,
        "lipschitz_estimate": trace.lipschitz_estimate,
        "group_bound": trace.group_bound,
        "bound_supported": sol.bound_supported,
        "converged": bool(trace.converged),
        "wall_time": wall,
    }
    write_json(result, args.out)
    if args.log:
        write_convergence_csv(trace, args.log)
    if args.labels:
        write_label_csv(args.labels, grid, scene.intensity.values(grid), sol.labels)

    ok = bool(np.all(sol.residuals <= sol.epsilon))
    print(f"groups = {trace.groups_used}, oracle evals = {trace.total_evals}, wall = {wall:.2f}s")
    print(f"max residual = {result['max_residual']:.3e} (epsilon = {sol.epsilon:.3e})")
    print("status: " + ("converged" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_FAIL


def run_trace(args) -> int:
    scene = load_scene(args.scene)
    grid = build_quadrature(scene.cap, *args.grid)
    b = _load_b(args)
    report = validate_transport(scene, b, grid, tol_rel=args.tol)
    print(f"rays = {report.n_rays}, crease-excluded = {report.n_crease}")
    print(f"fraction within tol = {report.fraction_within:.6f}, max relative miss = {report.max_rel_miss:.3e}")
    print(f"ray energy matches measure: {report.all_match}")
    if args.out:
        write_json(report.to_dict(), args.out)
    if args.rays:
        write_ray_csv(report, grid, args.rays)
    return EXIT_OK


def run_mesh(args) -> int:
    scene = load_scene(args.scene)
    b = _load_b(args)
    mesh = export_mesh(scene, b, *args.resolution)
    write_obj(mesh, args.out)
    print(f"wrote {args.out}: {len(mesh.vertices)} vertices, {len(mesh.faces)} faces")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refractor",
        description="Design a poly-oval refracting surface sending prescribed "
        "energy fractions from a point source to discrete targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check scene admissibility and report margins")
    p.add_argument("scene")
    p.add_argument("--grid", type=_parse_dims, default=(256, 256))
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(fn=run_validate)

    p = sub.add_parser("solve", help="find the parameter vector matching target weights")
    p.add_argument("scene")
    p.add_argument("--epsilon", type=float, default=None,
                   help="absolute energy tolerance (default 1e-3 * total)")
    p.add_argument("--grid", type=_parse_dims, default=(256, 256))
    p.add_argument("--max-groups", type=int, default=MAX_GROUPS)
    p.add_argument("--out", default="result.json")
    p.add_argument("--log", default="trace.csv", help="convergence CSV ('' disables)")
    p.add_argument("--labels", default=None, help="per-node label CSV")
    p.set_defaults(fn=run_solve)

    p = sub.add_parser("trace", help="verify a parameter vector by forward ray tracing")
    p.add_argument("scene")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-result", default=None, help="result JSON from solve")
    group.add_argument("--b-file", default=None, help="JSON list of b values")
    p.add_argument("--grid", type=_parse_dims, default=(256, 256))
    p.add_argument("--tol", type=float, default=1e-6, help="relative miss threshold")
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--rays", default=None, help="per-ray CSV path")
    p.set_defaults(fn=run_trace)

    p = sub.add_parser("mesh", help="export the surface as a Wavefront OBJ")
    p.add_argument("scene")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-result", default=None)
    group.add_argument("--b-file", default=None)
    p.add_argument("--resolution", type=_parse_dims, default=(128, 256))
    p.add_argument("--out", default="surface.obj")
    p.set_defaults(fn=run_mesh)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.fn(args)
    except (SceneValidationError, TotalInternalReflection, OSError, json.JSONDecodeError,
            ValueError, FloorReached, NonPositiveDiscriminant, DegenerateNormal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: out of memory for this grid or mesh size: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QuantizationTooCoarse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUANTIZATION
    except MaxGroupsExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MAX_GROUPS


if __name__ == "__main__":
    raise SystemExit(main())
