"""Seeded, admissible scenes for the benchmark workloads.

Each scene is drawn from a numpy Generator seeded by the caller and checked
here, with the reference optics, before the program ever reads it:

- alignment: every cap direction sees every target with x . P >= (kappa + tau)|P|,
- safety ball: r0 < tau / (1 + kappa) * min |P| and every target-pair line
  passes at least r0 from the origin,
- anchor: kappa |P_1| < b1 <= kappa |P_1| + r0 (1 - kappa)^2 / (1 + kappa),
- resolution: the coarsest grid of the family's ladder on which the largest
  node energy is at most delta / 4 (delta = epsilon / N), and
  delta < g_1 / (N - 1).

A draw that fails any check is replaced by the next draw from the same
generator, so a seed always yields the same scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import optics

MAX_DRAWS = 100
TAU_MIN = 0.1        # smallest alignment margin accepted
R0_MIN = 0.2         # smallest safety-ball radius accepted
GRID_MARGIN = 0.99   # keep e_max this far inside delta / 4


@dataclass(frozen=True)
class Family:
    """How the scenes of one workload are drawn."""

    n_targets: tuple      # inclusive (low, high)
    eps_rel: float        # epsilon as a share of the source total
    grids: tuple          # square grid sizes tried, coarsest first
    arc_step_deg: tuple   # (low, high) azimuth step between neighbouring targets


class InadmissibleScene(Exception):
    """A generated scene failed one of the generator's checks."""


def scene_problems(scene: dict, grid: tuple, eps_rel: float) -> list:
    """Every admissibility check that `scene` fails on `grid`; empty when fine."""
    kappa = float(scene["kappa"])
    psi = math.radians(scene["cap"]["half_angle_deg"])
    pts = np.array([t["point"] for t in scene["targets"]], dtype=float)
    weights = np.array([t["weight"] for t in scene["targets"]], dtype=float)
    norms = np.linalg.norm(pts, axis=1)
    tau, r0, b1 = float(scene["tau"]), float(scene["r0"]), float(scene["b1"])
    n = len(pts)
    problems = []

    tau_star = min(optics.cap_min_dot(psi, p / np.linalg.norm(p)) for p in pts) - kappa
    if not (TAU_MIN <= tau <= tau_star and tau < 1.0 - kappa):
        problems.append(f"alignment: tau = {tau:.6f}, tau_star = {tau_star:.6f}")
    ball = tau / (1.0 + kappa) * float(norms.min())
    if not (R0_MIN <= r0 < ball):
        problems.append(f"safety ball: r0 = {r0:.6f} not in [{R0_MIN}, {ball:.6f})")
    for i in range(n):
        for j in range(i + 1, n):
            d = optics.line_distance_to_origin(pts[i], pts[j])
            if d < r0:
                problems.append(f"safety ball: line {i + 1}-{j + 1} at {d:.6f} < r0")
    lo = kappa * norms[0]
    hi = lo + r0 * (1.0 - kappa) ** 2 / (1.0 + kappa)
    if not (lo < b1 <= hi):
        problems.append(f"anchor: b1 = {b1!r} outside ({lo!r}, {hi!r}]")

    _, e = optics.node_energies(scene, *grid)
    total = float(e.sum())
    delta = eps_rel * total / n
    if float(e.max()) > GRID_MARGIN * delta / 4.0:
        problems.append(f"resolution: e_max {float(e.max())!r} > delta/4 on {grid[0]}x{grid[1]}")
    g1 = weights[0] / weights.sum() * total
    if n > 1 and not delta < g1 / (n - 1):
        problems.append(f"resolution: delta {delta!r} >= g_1/(N-1)")
    return problems


def _draw(rng: np.random.Generator, family: Family) -> dict:
    n = int(rng.integers(family.n_targets[0], family.n_targets[1] + 1))
    kappa = float(rng.uniform(0.25, 0.35))
    half_angle_deg = float(rng.uniform(8.0, 12.0))
    dist = rng.uniform(4.0, 6.0, n)
    polar = np.radians(rng.uniform(20.0, 35.0, n))
    step = float(rng.uniform(*family.arc_step_deg))
    az = np.radians(rng.uniform(0.0, 360.0) + step * np.arange(n) + rng.uniform(-0.2, 0.2, n) * step)
    pts = np.stack([dist * np.sin(polar) * np.cos(az),
                    dist * np.sin(polar) * np.sin(az),
                    dist * np.cos(polar)], axis=1)
    if rng.random() < 0.5:
        intensity = {"kind": "constant", "amplitude": float(rng.uniform(0.5, 2.0))}
    else:
        intensity = {"kind": "axial-gaussian", "amplitude": float(rng.uniform(0.5, 2.0)),
                     "width_deg": float(rng.uniform(0.5, 2.0) * half_angle_deg)}
    return _scene(kappa, half_angle_deg, intensity, pts, rng.uniform(0.5, 2.0, n))


def _scene(kappa, half_angle_deg, intensity, pts, weights) -> dict:
    """Scene dict with tau, r0 and b1 set well inside their admissible ranges."""
    n = len(pts)
    psi = math.radians(half_angle_deg)
    tau_star = min(optics.cap_min_dot(psi, p / np.linalg.norm(p)) for p in pts) - kappa
    tau = 0.8 * min(tau_star, 1.0 - kappa)
    clearance = min((optics.line_distance_to_origin(pts[i], pts[j])
                     for i in range(n) for j in range(i + 1, n)), default=math.inf)
    r0 = 0.9 * min(tau / (1.0 + kappa) * float(np.linalg.norm(pts, axis=1).min()), clearance)
    p1 = float(np.linalg.norm(pts[0]))
    b1 = kappa * p1 + 0.9 * r0 * (1.0 - kappa) ** 2 / (1.0 + kappa)
    return {
        "kappa": kappa,
        "cap": {"axis": [0.0, 0.0, 1.0], "half_angle_deg": half_angle_deg},
        "intensity": intensity,
        "targets": [{"point": [float(v) for v in p], "weight": float(w)}
                    for p, w in zip(pts, weights)],
        "tau": tau,
        "r0": r0,
        "b1": b1,
        "normalize_weights": True,
    }


def _variant(rng: np.random.Generator, layout: dict) -> dict:
    """The layout turned about the cap axis, with 1% jitter of points and weights.

    The turn leaves the continuous problem unchanged and moves only how the
    grid samples it, so variants of one layout cost about the same to solve.
    """
    pts = np.array([t["point"] for t in layout["targets"]], dtype=float)
    weights = np.array([t["weight"] for t in layout["targets"]], dtype=float)
    turn = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(turn), math.sin(turn)
    pts = pts @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    pts *= 1.0 + 0.01 * rng.uniform(-1.0, 1.0, pts.shape)
    weights *= 1.0 + 0.01 * rng.uniform(-1.0, 1.0, weights.shape)
    return _scene(layout["kappa"], layout["cap"]["half_angle_deg"], layout["intensity"],
                  pts, weights)


def coarsest_grid(scene: dict, family: Family):
    """First ladder grid on which the scene passes every check, else None."""
    for size in family.grids:
        if not scene_problems(scene, (size, size), family.eps_rel):
            return (size, size)
    return None


def generate(rng: np.random.Generator, family: Family, layout: dict = None):
    """Next admissible (scene dict, grid) from `rng`; redraws failing scenes.

    With a `layout`, each draw is a turned and jittered variant of it;
    otherwise every draw is a fresh scene of the family.
    """
    for _ in range(MAX_DRAWS):
        scene = _variant(rng, layout) if layout is not None else _draw(rng, family)
        grid = coarsest_grid(scene, family)
        if grid is not None:
            return scene, grid
    raise InadmissibleScene(f"no admissible scene in {MAX_DRAWS} draws")
