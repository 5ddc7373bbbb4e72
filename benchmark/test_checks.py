"""Tests of the benchmark itself: seeded generation and checks that bite.

    python -m pytest benchmark/test_checks.py -q

One small design is solved through the command line; each correctness check
must pass on its outputs and fail once the outputs are perturbed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import scenegen  # noqa: E402

FAMILY = scenegen.Family(n_targets=(3, 3), eps_rel=1e-3, grids=tuple(range(32, 513, 16)),
                         arc_step_deg=(20.0, 45.0))
MESH_RES = (16, 32)


@pytest.fixture(scope="module")
def design(tmp_path_factory):
    from refractor.cli import main

    out = tmp_path_factory.mktemp("design")
    scene, grid = scenegen.generate(np.random.default_rng(7), FAMILY)
    scene_path = out / "scene.json"
    scene_path.write_text(json.dumps(scene))
    paths = {"result": out / "result.json", "log": out / "trace.csv", "mesh": out / "surface.obj"}
    g = f"{grid[0]}x{grid[1]}"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", str(scene_path), "--grid", g, "--out", str(paths["result"]),
                     "--log", str(paths["log"])]) == 0
        assert main(["mesh", str(scene_path), "--from-result", str(paths["result"]),
                     "--resolution", f"{MESH_RES[0]}x{MESH_RES[1]}",
                     "--out", str(paths["mesh"])]) == 0
    ref = checks.reference(scene, grid, FAMILY.eps_rel)
    result = json.loads(paths["result"].read_text())
    return ref, result, paths


def test_generator_is_deterministic_per_seed():
    a = [scenegen.generate(np.random.default_rng(11), FAMILY) for _ in range(2)]
    b = [scenegen.generate(np.random.default_rng(11), FAMILY) for _ in range(2)]
    c = scenegen.generate(np.random.default_rng(12), FAMILY)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a[0]) != json.dumps(c)
    layout = a[0][0]
    v1 = scenegen.generate(np.random.default_rng(5), FAMILY, layout=layout)
    v2 = scenegen.generate(np.random.default_rng(5), FAMILY, layout=layout)
    assert json.dumps(v1) == json.dumps(v2) and v1[1] == a[0][1]


def test_generator_rejects_inadmissible_scenes():
    scene, grid = scenegen.generate(np.random.default_rng(3), FAMILY)
    assert scenegen.scene_problems(scene, grid, FAMILY.eps_rel) == []
    finer_than_needed = (grid[0] - 16, grid[1] - 16)
    assert any(p.startswith("resolution") for p in
               scenegen.scene_problems(scene, finer_than_needed, FAMILY.eps_rel))
    for key, value, kind in (("tau", 0.95, "alignment"), ("r0", 5.0, "safety ball"),
                             ("b1", 10.0, "anchor")):
        bad = dict(scene, **{key: value})
        assert any(p.startswith(kind) for p in scenegen.scene_problems(bad, grid, FAMILY.eps_rel))
    close = json.loads(json.dumps(scene))
    p = np.array(close["targets"][0]["point"])
    close["targets"][1]["point"] = list(-0.5 * p)
    assert any("line 1-2" in p for p in scenegen.scene_problems(close, grid, FAMILY.eps_rel))


def test_checks_pass_on_program_output(design):
    ref, _, paths = design
    assert checks.run_all(ref, paths, MESH_RES, sample_seed=1) == {
        name: [] for name in ("conservation", "epsilon", "recount", "focusing", "mesh",
                              "group_bound", "convergence_log")}


def test_nudged_b_final_fails_recount_and_log(design):
    ref, result, _ = design
    nudged = dict(result, b_final=list(np.array(result["b_final"]) - [0.0, 3 * ref.delta, 0.0]))
    assert checks.recount(ref, nudged)
    assert any("b_final" in p for p in checks.convergence_log(ref, nudged, design[2]["log"]))


def test_dropped_cell_energy_fails_conservation(design):
    ref, result, _ = design
    H = list(result["H"])
    H[1] -= float(ref.energies.min())
    assert checks.conservation(ref, dict(result, H=H))
    assert checks.recount(ref, dict(result, H=H))


def test_residual_above_epsilon_fails(design):
    ref, result, _ = design
    H = list(result["H"])
    H[2] += 2.0 * ref.epsilon
    assert checks.epsilon_guarantee(ref, dict(result, H=H))


def test_moved_mesh_vertex_fails(design, tmp_path):
    ref, result, paths = design
    lines = paths["mesh"].read_text().splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("v ")) + 40
    v = np.array(lines[k].split()[1:], dtype=float) * (1.0 + 1e-7)
    lines[k] = "v " + " ".join(repr(float(c)) for c in v) + "\n"
    moved = tmp_path / "moved.obj"
    moved.write_text("".join(lines))
    assert any("off the oval envelope" in p
               for p in checks.mesh(ref, result, checks.read_obj(moved), MESH_RES))
    short = tmp_path / "short.obj"
    short.write_text("".join(line for line in lines if not line.startswith("f ")))
    assert any("faces" in p for p in checks.mesh(ref, result, checks.read_obj(short), MESH_RES))


def test_shifted_focus_or_normal_fails_focusing(design):
    ref, result, paths = design
    obj = checks.read_obj(paths["mesh"])
    scene = json.loads(json.dumps(ref.scene))
    for t in scene["targets"]:
        t["point"][0] += 1e-3
    shifted = checks.reference(scene, ref.grid, FAMILY.eps_rel)
    problems = checks.focusing(shifted, result, obj, MESH_RES, sample_seed=1)
    assert any("misses focus" in p for p in problems)
    assert any("off the oval gradient" in p for p in problems)
    verts, normals, faces = obj
    tilted = normals + [1e-6, 0.0, 0.0]
    tilted /= np.linalg.norm(tilted, axis=1)[:, None]
    problems = checks.focusing(ref, result, (verts, tilted, faces), MESH_RES, sample_seed=1)
    assert any("misses focus" in p for p in problems)


def test_group_bound_and_log_band_fail(design, tmp_path):
    ref, result, paths = design
    assert checks.group_bound(dict(result, groups_used=result["group_bound"] + 1))
    assert checks.group_bound(dict(result, converged=False))
    rows = paths["log"].read_text().splitlines()
    header = rows[0].split(",")
    col = header.index("G_target_after")
    for i, row in enumerate(rows[1:], start=1):
        cells = row.split(",")
        if cells[header.index("b_old")] != cells[header.index("b_new")]:
            cells[col] = repr(float(cells[col]) + 2.0 * ref.delta)
            rows[i] = ",".join(cells)
            break
    bad = tmp_path / "trace.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert any("outside [f, f + delta]" in p for p in checks.convergence_log(ref, result, bad))


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "design-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert not proc.stdout.strip()
