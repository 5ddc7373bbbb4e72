"""Forward verification: trace every grid ray through the designed surface.

Each ray leaves the origin along a grid direction, hits the poly-oval surface
at rho(x)*x, refracts at the owning oval's normal, and should pass through the
owning target. Nodes within two grid cells of a cell boundary are excluded
from pass/fail aggregation: the surface is only piecewise smooth there and the
normal of either side is legitimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import QuadratureGrid
from .measure import distinct_strings, node_energies, surface, write_json, write_rows
from .measure import radii_matrix  # noqa: F401  benchmark/tracing.py wraps raytrace.radii_matrix
from .parallel import map_chunks  # noqa: F401  benchmark/tracing.py wraps raytrace.map_chunks
from .scene import Scene
from .snell import critical_cos, refract_rows


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
    """snell.refract_rows, raising at the node of lowest incidence cosine when
    any ray is beyond the critical angle."""
    m, lam, ci = refract_rows(x, nu, kappa)
    crit = critical_cos(kappa)
    if np.any(ci < crit):
        k = int(np.argmin(ci))
        raise TotalInternalReflection(
            f"incidence cosine {ci[k]!r} below critical {crit!r} at node {k}"
        )
    return m, lam


def _line_point_distance(origin, direction, point):
    """Distance from point to the line {origin + s*direction}, unit direction."""
    rel = point - origin
    cr = np.cross(rel, direction)
    return np.linalg.norm(cr, axis=-1)


def trace_ray(scene: Scene, b, x) -> RayRecord:
    """Trace a single unit direction; see module docstring for the pipeline."""
    x = np.asarray(x, dtype=float)
    labels, radius, normals = surface(scene, b, x.reshape(1, 3))
    label, r, nu = int(labels[0]), float(radius[0]), normals[0]
    X = r * x
    m, lam = _refract_batch(x.reshape(1, 3), normals, scene.kappa)
    miss = float(_line_point_distance(X, m[0], scene.points[label]))
    return RayRecord(
        direction=x, label=label, radius=r, surface_point=X,
        normal=nu, refracted=m[0], lam=float(lam[0]),
        miss=miss, rel_miss=miss / float(scene.p_norms[label]),
    )


def crease_mask(labels: np.ndarray, n_theta: int, n_phi: int, width: int = 2) -> np.ndarray:
    """Nodes within `width` grid cells of a label change (azimuth wraps)."""
    lab = labels.reshape(n_theta, n_phi)
    diff = (lab != np.roll(lab, 1, axis=1)) | (lab != np.roll(lab, -1, axis=1))
    diff[1:, :] |= lab[1:, :] != lab[:-1, :]
    diff[:-1, :] |= lab[:-1, :] != lab[1:, :]

    # dilate by width: clamped in theta, then wrapped in azimuth
    band_t = diff.copy()
    for d in range(1, width + 1):
        band_t[d:, :] |= diff[:-d, :]
        band_t[:-d, :] |= diff[d:, :]
    band = band_t.copy()
    for d in range(1, width + 1):
        band |= np.roll(band_t, d, axis=1) | np.roll(band_t, -d, axis=1)
    return band.reshape(-1)


def validate_transport(scene: Scene, b, grid: QuadratureGrid, tol_rel: float = 1e-6) -> TransportReport:
    """Trace all grid rays and reconcile ray-counted energy with the measure.

    A ray lands when its refracted line passes strictly within tol_rel * |P_i|
    of its nearest target. Per-target ray energy (summed f*w over landed,
    non-crease rays grouped by nearest target) must equal the cell energies
    restricted to the same non-crease nodes.
    """
    n = grid.n_nodes
    labels, radius, nu = surface(scene, b, grid.nodes)
    X = radius[:, None] * grid.nodes
    m, _ = _refract_batch(grid.nodes, nu, scene.kappa)
    del nu  # the distance pass below sets the peak memory of a trace

    # distance from each refracted line to every target; nearest decides landing
    dists = np.empty((n, scene.n_targets))
    for j in range(scene.n_targets):
        dists[:, j] = _line_point_distance(X, m, scene.points[j])
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
    write_json(report.to_dict(), path)


def write_ray_csv(report: TransportReport, grid: QuadratureGrid, path) -> None:
    """Per-ray dump: node_index, theta, phi, label (1-based), rel_miss, within, crease.

    CRLF line ends and repr floats, as csv.writer writes them. The distinct
    values of theta, phi, label, within and crease are formatted once each;
    node_index and rel_miss are formatted per ray.
    """
    with open(path, "w", newline="") as fh:
        fh.write("node_index,theta,phi,label,rel_miss,within,crease\r\n")
        write_rows(fh, "%d,%s,%s,%s,%r,%s,%s\r\n", (
            np.arange(grid.n_nodes),
            distinct_strings(grid.thetas, "%r"), distinct_strings(grid.phis, "%r"),
            distinct_strings(np.asarray(report.labels) + 1, "%d"),
            np.asarray(report.rel_miss, dtype=float),
            distinct_strings(np.asarray(report.within, dtype=bool), "%d"),
            distinct_strings(np.asarray(report.crease, dtype=bool), "%d"),
        ))
