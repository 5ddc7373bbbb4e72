"""Forward verification: trace every grid ray through the designed surface.

Each ray leaves the origin along a grid direction, hits the poly-oval surface
at rho(x)*x, refracts at the owning oval's normal, and should pass through the
owning target. Nodes within two grid cells of a cell boundary are excluded
from pass/fail aggregation: the surface is only piecewise smooth there and the
normal of either side is legitimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import QuadratureGrid
from .measure import node_energies, radii_matrix, write_rows
from .oval import normals_for_directions
from .parallel import map_chunks
from .scene import Scene, check_b_vector
from .snell import critical_cos


class TotalInternalReflection(Exception):
    """A traced ray met its oval beyond the critical angle."""


@dataclass(frozen=True, eq=False)
class RayRecord:
    direction: np.ndarray
    label: int             # 0-based owning target
    radius: float
    surface_point: np.ndarray
    normal: np.ndarray
    refracted: np.ndarray
    lam: float
    miss: float            # distance from the refracted line to the owning target
    rel_miss: float        # miss / |P_label|


@dataclass(frozen=True, eq=False)
class TransportReport:
    n_rays: int
    n_crease: int
    tol_rel: float
    fraction_within: float     # over non-crease rays
    max_rel_miss: float        # over non-crease rays
    per_target: list           # dicts: target, assigned_energy, ray_energy, ray_count, match
    total_assigned: float
    total_ray: float
    all_match: bool
    # per-node arrays for CSV dumps / further analysis
    labels: np.ndarray = field(repr=False, default=None)
    miss: np.ndarray = field(repr=False, default=None)
    rel_miss: np.ndarray = field(repr=False, default=None)
    within: np.ndarray = field(repr=False, default=None)
    crease: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "n_rays": self.n_rays,
            "n_crease_excluded": self.n_crease,
            "tol_rel": self.tol_rel,
            "fraction_within": self.fraction_within,
            "max_rel_miss": self.max_rel_miss,
            "per_target": self.per_target,
            "total_assigned": self.total_assigned,
            "total_ray": self.total_ray,
            "all_match": self.all_match,
        }


def _refract_batch(x, nu, kappa):
    ci = x[:, 0] * nu[:, 0] + x[:, 1] * nu[:, 1] + x[:, 2] * nu[:, 2]
    crit = critical_cos(kappa)
    if np.any(ci < crit):
        k = int(np.argmin(ci))
        raise TotalInternalReflection(
            f"incidence cosine {ci[k]!r} below critical {crit!r} at node {k}"
        )
    rad = 1.0 - (1.0 - ci * ci) / (kappa * kappa)
    np.maximum(rad, 0.0, out=rad)
    lam = ci - kappa * np.sqrt(rad)
    m = (x - lam[:, None] * nu) / kappa
    return m, lam


def _line_point_distance(origin, direction, point):
    """Distance from point to the line {origin + s*direction}, unit direction."""
    rel = point - origin
    cr = np.cross(rel, direction)
    return np.linalg.norm(cr, axis=-1)


def trace_ray(scene: Scene, b, x) -> RayRecord:
    """Trace a single unit direction; see module docstring for the pipeline."""
    b = check_b_vector(scene, b)
    x = np.asarray(x, dtype=float)
    radii = radii_matrix(scene, b, x.reshape(1, 3))[0]
    label = int(np.argmin(radii))
    r = float(radii[label])
    X = r * x
    nu = normals_for_directions(x.reshape(1, 3), scene.points[label], float(b[label]), scene.kappa)[0]
    m, lam = _refract_batch(x.reshape(1, 3), nu.reshape(1, 3), scene.kappa)
    miss = float(_line_point_distance(X, m[0], scene.points[label]))
    p = float(scene.p_norms[label])
    return RayRecord(
        direction=x, label=label, radius=r, surface_point=X,
        normal=nu, refracted=m[0], lam=float(lam[0]),
        miss=miss, rel_miss=miss / p,
    )


def crease_mask(labels: np.ndarray, n_theta: int, n_phi: int, width: int = 2) -> np.ndarray:
    """Nodes within `width` grid cells of a label change (azimuth wraps)."""
    lab = labels.reshape(n_theta, n_phi)
    diff = np.zeros_like(lab, dtype=bool)
    diff |= lab != np.roll(lab, 1, axis=1)
    diff |= lab != np.roll(lab, -1, axis=1)
    diff[1:, :] |= lab[1:, :] != lab[:-1, :]
    diff[:-1, :] |= lab[:-1, :] != lab[1:, :]

    band = np.zeros_like(diff)
    for dt in range(-width, width + 1):
        rolled_t = np.zeros_like(diff)
        if dt > 0:
            rolled_t[dt:, :] = diff[:-dt, :]
        elif dt < 0:
            rolled_t[:dt, :] = diff[-dt:, :]
        else:
            rolled_t = diff
        for dp in range(-width, width + 1):
            band |= np.roll(rolled_t, dp, axis=1)
    return band.reshape(-1)


def validate_transport(scene: Scene, b, grid: QuadratureGrid, tol_rel: float = 1e-6) -> TransportReport:
    """Trace all grid rays and reconcile ray-counted energy with the measure.

    A ray lands when its refracted line passes strictly within tol_rel * |P_i|
    of its nearest target. Per-target ray energy (summed f*w over landed,
    non-crease rays grouped by nearest target) must equal the cell energies
    restricted to the same non-crease nodes.
    """
    b = check_b_vector(scene, b)
    n = grid.n_nodes
    radii = radii_matrix(scene, b, grid.nodes)
    labels = np.argmin(radii, axis=1)
    rr = radii[np.arange(n), labels]
    del radii  # the distance pass below sets the peak memory of a trace
    X = rr[:, None] * grid.nodes

    kappa = scene.kappa
    pts = scene.points

    def work(sl):
        dirs = grid.nodes[sl]
        out_nu = np.empty_like(dirs)
        for j in range(scene.n_targets):
            mask = labels[sl] == j
            if np.any(mask):
                out_nu[mask] = normals_for_directions(dirs[mask], pts[j], float(b[j]), kappa)
        return out_nu

    nu = np.concatenate(map_chunks(work, n), axis=0)
    m, _ = _refract_batch(grid.nodes, nu, kappa)
    del nu

    # distance from each refracted line to every target; nearest decides landing
    dists = np.empty((n, scene.n_targets))
    for j in range(scene.n_targets):
        dists[:, j] = _line_point_distance(X, m, pts[j])
    nearest = np.argmin(dists, axis=1)
    miss_named = dists[np.arange(n), labels]
    miss_nearest = dists[np.arange(n), nearest]
    rel_named = miss_named / scene.p_norms[labels]

    crease = crease_mask(labels, grid.n_theta, grid.n_phi)
    keep = ~crease
    within = miss_nearest < tol_rel * scene.p_norms[nearest]

    e = node_energies(grid, scene.intensity.values(grid))
    per_target = []
    all_match = True
    for j in range(scene.n_targets):
        assigned = float(np.sum(e[keep & (labels == j)]))
        landed_mask = keep & within & (nearest == j)
        ray_energy = float(np.sum(e[landed_mask]))
        match = ray_energy == assigned
        all_match = all_match and match
        per_target.append({
            "target": j + 1,
            "assigned_energy": assigned,
            "ray_energy": ray_energy,
            "ray_count": int(np.sum(landed_mask)),
            "match": bool(match),
        })

    n_keep = int(np.sum(keep))
    return TransportReport(
        n_rays=n,
        n_crease=int(np.sum(crease)),
        tol_rel=tol_rel,
        fraction_within=float(np.sum(within & keep) / n_keep) if n_keep else 0.0,
        max_rel_miss=float(np.max(rel_named[keep])) if n_keep else 0.0,
        per_target=per_target,
        total_assigned=float(sum(t["assigned_energy"] for t in per_target)),
        total_ray=float(sum(t["ray_energy"] for t in per_target)),
        all_match=bool(all_match),
        labels=labels, miss=miss_named, rel_miss=rel_named,
        within=within, crease=crease,
    )


def write_report_json(report: TransportReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def write_ray_csv(report: TransportReport, grid: QuadratureGrid, path) -> None:
    """Per-ray dump: node_index, theta, phi, label (1-based), rel_miss, within, crease.

    CRLF line ends and repr floats, as csv.writer writes them.
    """
    with open(path, "w", newline="") as fh:
        fh.write("node_index,theta,phi,label,rel_miss,within,crease\r\n")
        write_rows(fh, "%d,%r,%r,%d,%r,%d,%d\r\n", (
            np.arange(grid.n_nodes), grid.thetas, grid.phis,
            np.asarray(report.labels) + 1, np.asarray(report.rel_miss, dtype=float),
            np.asarray(report.within, dtype=bool).astype(int),
            np.asarray(report.crease, dtype=bool).astype(int),
        ))
