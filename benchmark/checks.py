"""Correctness checks on one design, computed apart from the program.

Every reference value (source total, prescriptions g, epsilon, delta, cell
energies, surface radii, normals, refracted rays) is recomputed from the scene
file with the reference optics; the program's outputs are only read, never
trusted. Each check returns a list of problems, empty when the design passes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

import optics

SUM_REL = 1e-10      # float summation-order slack, as a share of the total
TIE_REL = 1e-9       # radii this close (relative) may fall on either side
MISS_REL = 1e-9      # focusing: largest miss of the focus, as a share of |P|
ENVELOPE_REL = 1e-10  # mesh: largest gap between a vertex and the envelope
NORMAL_TOL = 1e-9    # focusing: largest gap between program and reference normals
FOCUS_SAMPLE = 512   # rays traced by the focusing check
CREASE_WIDTH = 2     # mesh cells kept clear of a cell boundary when focusing


@dataclass(frozen=True)
class Reference:
    """What the scene and grid prescribe, recomputed by the benchmark."""

    scene: dict
    grid: tuple
    dirs: np.ndarray
    energies: np.ndarray
    total: float
    g: np.ndarray
    epsilon: float
    delta: float

    @property
    def points(self) -> np.ndarray:
        return np.array([t["point"] for t in self.scene["targets"]], dtype=float)

    @property
    def kappa(self) -> float:
        return float(self.scene["kappa"])


def reference(scene: dict, grid: tuple, eps_rel: float) -> Reference:
    dirs, e = optics.node_energies(scene, *grid)
    total = math.fsum(e)
    w = np.array([t["weight"] for t in scene["targets"]], dtype=float)
    epsilon = eps_rel * total
    return Reference(scene=scene, grid=tuple(grid), dirs=dirs, energies=e, total=total,
                     g=w / w.sum() * total, epsilon=epsilon, delta=epsilon / len(w))


def _b(result: dict) -> np.ndarray:
    return np.asarray(result["b_final"], dtype=float)


def conservation(ref: Reference, result: dict) -> list:
    """Sum of H equals the midpoint-rule source total (and the cap integral)."""
    problems = []
    h_sum = math.fsum(result["H"])
    if abs(h_sum - ref.total) > SUM_REL * ref.total:
        problems.append(f"sum H = {h_sum!r} but source total = {ref.total!r}")
    intensity = ref.scene["intensity"]
    if intensity["kind"] == "constant":
        psi = math.radians(ref.scene["cap"]["half_angle_deg"])
        exact = 2.0 * math.pi * (1.0 - math.cos(psi)) * float(intensity["amplitude"])
        bound = optics.constant_total_error_bound(psi, ref.grid[0], float(intensity["amplitude"]))
        if abs(ref.total - exact) > bound:
            problems.append(f"source total {ref.total!r} off 2pi(1-cos psi)a = {exact!r} "
                            f"beyond the quadrature bound {bound!r}")
    return problems


def epsilon_guarantee(ref: Reference, result: dict) -> list:
    """|H_i - g_i| <= epsilon for every target, with g and epsilon recomputed."""
    resid = np.abs(np.asarray(result["H"], dtype=float) - ref.g)
    bad = np.nonzero(resid > ref.epsilon)[0]
    return [f"target {i + 1}: |H - g| = {resid[i]!r} > epsilon = {ref.epsilon!r}" for i in bad]


def recount(ref: Reference, result: dict) -> list:
    """Cell energies recounted from b_final agree with H up to near-tie nodes."""
    n = len(ref.g)
    radii = optics.oval_radii(ref.dirs, ref.points, _b(result), ref.kappa)
    labels = np.argmin(radii, axis=1)
    ties = np.zeros(len(labels), dtype=bool)
    if n > 1:
        two = np.partition(radii, 1, axis=1)
        ties = (two[:, 1] - two[:, 0]) <= TIE_REL * two[:, 0]
    counted = np.bincount(labels, weights=ref.energies, minlength=n)
    slack = float(ref.energies[ties].sum()) + SUM_REL * ref.total
    H = np.asarray(result["H"], dtype=float)
    return [f"target {i + 1}: recounted {counted[i]!r} vs H = {H[i]!r} (slack {slack!r})"
            for i in range(n) if abs(counted[i] - H[i]) > slack]


def _interior(labels: np.ndarray, shape: tuple) -> np.ndarray:
    """Nodes of a theta-major grid whose label is shared within CREASE_WIDTH cells."""
    lab = labels.reshape(shape)
    same = np.ones(lab.shape, dtype=bool)
    w = CREASE_WIDTH
    for dt in range(-w, w + 1):
        shifted = np.full(lab.shape, -1)
        if dt >= 0:
            shifted[:lab.shape[0] - dt] = lab[dt:]
        else:
            shifted[-dt:] = lab[:dt]
        for dp in range(-w, w + 1):
            same &= np.roll(shifted, dp, axis=1) == lab
    return same.reshape(-1)


def read_obj(path):
    """(vertices, normals, faces) from a Wavefront OBJ written with v/vn/f records."""
    verts, normals, faces = [], [], []
    with open(path) as fh:
        for line in fh:
            tag, _, rest = line.partition(" ")
            if tag == "v":
                verts.append(rest.split())
            elif tag == "vn":
                normals.append(rest.split())
            elif tag == "f":
                faces.append([c.split("//")[0] for c in rest.split()])
    return (np.array(verts, dtype=float).reshape(-1, 3),
            np.array(normals, dtype=float).reshape(-1, 3), np.array(faces, dtype=int))


def mesh(ref: Reference, result: dict, obj, resolution: tuple) -> list:
    """Every OBJ vertex sits on the lower envelope of the ovals; counts are right."""
    verts, normals, faces = obj
    n_theta, n_phi = resolution
    problems = []
    want_v, want_f = n_theta * n_phi, 2 * (n_theta - 1) * n_phi
    if len(verts) != want_v or len(normals) != want_v:
        problems.append(f"{len(verts)} vertices / {len(normals)} normals, expected {want_v}")
    if len(faces) != want_f or faces.shape[1:] != (3,):
        problems.append(f"{len(faces)} faces, expected {want_f} triangles")
    elif faces.min() < 1 or faces.max() > len(verts):
        problems.append("face index out of range")
    if len(verts) == 0:
        return problems + ["no vertices"]
    r = np.linalg.norm(verts, axis=1)
    dirs = verts / r[:, None]
    envelope = optics.oval_radii(dirs, ref.points, _b(result), ref.kappa).min(axis=1)
    gap = np.abs(r - envelope) / envelope
    if float(gap.max()) > ENVELOPE_REL:
        k = int(np.argmax(gap))
        problems.append(f"vertex {k + 1} is {float(gap[k])!r} (relative) off the oval envelope")
    cos_psi = math.cos(math.radians(ref.scene["cap"]["half_angle_deg"]))
    if float(dirs[:, 2].min()) < cos_psi - 1e-12:
        problems.append("a vertex direction leaves the cap")
    return problems


def focusing(ref: Reference, result: dict, obj, resolution: tuple, sample_seed: int) -> list:
    """Rays through sampled non-crease mesh vertices refract into their own target.

    The owner of each vertex is the lowest reference oval there. The program's
    normal (the OBJ vn record) must match the reference normal, the gradient
    of |X| + kappa |X - P|, and the ray from the origin refracted at it by the
    reference Snell law must pass through P.
    """
    verts, normals, _ = obj
    if len(verts) != resolution[0] * resolution[1] or len(normals) != len(verts):
        return ["mesh size does not match its resolution"]
    dirs = verts / np.linalg.norm(verts, axis=1)[:, None]
    radii = optics.oval_radii(dirs, ref.points, _b(result), ref.kappa)
    labels = np.argmin(radii, axis=1)
    pool = np.nonzero(_interior(labels, resolution))[0]
    if pool.size == 0:
        return ["no non-crease vertex to trace"]
    rng = np.random.default_rng(sample_seed)
    pick = rng.choice(pool, size=min(FOCUS_SAMPLE, pool.size), replace=False)
    problems = []
    for j in np.unique(labels[pick]):
        idx = pick[labels[pick] == j]
        focus = ref.points[j]
        own = optics.oval_normal(verts[idx], focus, ref.kappa)
        turn = float(np.max(np.linalg.norm(normals[idx] - own, axis=1)))
        if turn > NORMAL_TOL:
            problems.append(f"target {j + 1}: program normal is {turn!r} off the oval gradient")
        m = optics.snell(dirs[idx], normals[idx], ref.kappa)
        if np.any(np.isnan(m)):
            problems.append(f"target {j + 1}: total internal reflection on a sampled ray")
            continue
        to_p = focus[None, :] - verts[idx]
        miss = np.linalg.norm(np.cross(to_p, m), axis=1) / np.linalg.norm(focus)
        if not np.all(np.sum(to_p * m, axis=1) > 0.0):
            problems.append(f"target {j + 1}: refracted ray points away from its focus")
        if float(miss.max()) > MISS_REL:
            problems.append(f"target {j + 1}: refracted ray misses focus by {float(miss.max())!r} |P|")
    return problems


def group_bound(result: dict) -> list:
    """The solve converged within the group bound it reports."""
    if not result["converged"]:
        return ["solve did not converge"]
    bound = result["group_bound"]
    if bound is None or not result["groups_used"] <= bound:
        return [f"groups_used {result['groups_used']} exceeds group bound {bound!r}"]
    return []


def convergence_log(ref: Reference, result: dict, log_path) -> list:
    """Changed steps land in [f_j, f_j + delta]; the log replays to b_final."""
    with open(log_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["empty convergence log"]
    slack = SUM_REL * ref.total
    problems = []
    b = {}
    for row in rows:
        j = int(row["coordinate"]) - 1
        b_old, b_new = float(row["b_old"]), float(row["b_new"])
        if j in b and b[j] != b_old:
            problems.append(f"group {row['group']} coordinate {j + 1}: b_old does not continue the log")
        b[j] = b_new
        f = float(ref.g[j])
        if b_new != b_old:
            after = float(row["G_target_after"])
            if not (f - slack <= after <= f + ref.delta + slack):
                problems.append(f"group {row['group']} coordinate {j + 1}: landed at {after!r} "
                                f"outside [f, f + delta] = [{f!r}, {f + ref.delta!r}]")
        elif abs(float(row["G_target_before"]) - f) > ref.delta + slack:
            problems.append(f"group {row['group']} coordinate {j + 1}: unchanged outside the band")
    last = [r for r in rows if int(r["group"]) == int(rows[-1]["group"])]
    if any(float(r["b_old"]) != float(r["b_new"]) for r in last):
        problems.append("the last group of the log is not quiet")
    final = _b(result)
    for j, v in b.items():
        if final[j] != v:
            problems.append(f"log ends coordinate {j + 1} at {v!r}, b_final has {final[j]!r}")
    if final[0] != float(ref.scene["b1"]):
        problems.append("b_final moved the anchor coordinate b1")
    return problems


def run_all(ref: Reference, paths: dict, resolution: tuple, sample_seed: int) -> dict:
    """Every check on one design: {check name: [problems]}."""
    with open(paths["result"]) as fh:
        result = json.load(fh)
    obj = read_obj(paths["mesh"])
    return {
        "conservation": conservation(ref, result),
        "epsilon": epsilon_guarantee(ref, result),
        "recount": recount(ref, result),
        "focusing": focusing(ref, result, obj, resolution, sample_seed),
        "mesh": mesh(ref, result, obj, resolution),
        "group_bound": group_bound(result),
        "convergence_log": convergence_log(ref, result, paths["log"]),
    }
