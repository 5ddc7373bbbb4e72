"""Forward ray verification: landing accuracy and energy reconciliation."""

import csv
import json

import numpy as np
import pytest

from refractor.geometry import build_quadrature, normalize
from refractor.measure import ROWS_PER_WRITE, total_energy
from refractor.oval import OvalParams, oval_extrema
from refractor.raytrace import (
    TotalInternalReflection,
    _refract_batch,
    crease_mask,
    trace_ray,
    validate_transport,
    write_ray_csv,
    write_report_json,
)
from refractor.scene import InadmissibleBVector, initial_admissible_vector
from refractor.snell import critical_cos, refract
from refractor.solver import SolverConfig, solve_refractor


# --- single rays ----------------------------------------------------------------

def test_trace_ray_single_target(single_scene):
    rec = trace_ray(single_scene, [single_scene.b1], [0.0, 0.0, 1.0])
    assert rec.label == 0
    assert rec.rel_miss <= 1e-9
    ov = OvalParams(single_scene.targets[0].point, single_scene.b1,
                    single_scene.kappa)
    h_min, h_max = oval_extrema(ov)
    assert h_min <= rec.radius <= h_max
    assert np.array_equal(rec.surface_point, rec.radius * rec.direction)
    assert abs(np.linalg.norm(rec.refracted) - 1.0) < 1e-12
    assert rec.lam > 0.0
    assert float(rec.direction @ rec.refracted) >= single_scene.kappa - 1e-12


def test_trace_ray_canonical_interior(canonical_scene, rng):
    b0 = initial_admissible_vector(canonical_scene)
    for _ in range(20):
        theta = canonical_scene.cap.half_angle * rng.random()
        phi = 2 * np.pi * rng.random()
        x = np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi),
                      np.cos(theta)])
        rec = trace_ray(canonical_scene, b0, x)
        assert rec.label == 0          # the start vector floods cell 1
        assert rec.rel_miss <= 1e-9


def test_trace_ray_rejects_inadmissible_b(canonical_scene):
    with pytest.raises(InadmissibleBVector):
        trace_ray(canonical_scene, [1.0, 1.6, 1.6, 1.6], [0.0, 0.0, 1.0])


# --- batch refraction -------------------------------------------------------------

def test_refract_batch_matches_scalar(rng):
    kappa = 0.3
    crit = critical_cos(kappa)
    n = 200
    x = np.empty((n, 3))
    nu = np.empty((n, 3))
    for k in range(n):
        v = normalize(rng.normal(size=3))
        ci = crit + (1.0 - crit) * rng.uniform(0.01, 1.0)
        t = normalize(np.cross(v, rng.normal(size=3)))
        x[k] = ci * v + np.sqrt(1.0 - ci * ci) * t
        nu[k] = v
    m, lam = _refract_batch(x, nu, kappa)
    for k in range(n):
        res = refract(x[k], nu[k], kappa)
        assert res is not None
        # near the critical cosine the sqrt amplifies the one-ulp difference
        # between the batch and scalar dot products
        assert np.max(np.abs(m[k] - res.m)) < 5e-14
        assert abs(lam[k] - res.lam) < 5e-14


def test_refract_batch_raises_on_tir():
    x = np.array([[0.0, 0.0, 1.0]])
    nu = normalize(np.array([1.0, 0.0, 1.0])).reshape(1, 3)  # ci ~ 0.707
    with pytest.raises(TotalInternalReflection):
        _refract_batch(x, nu, 0.3)  # critical cosine ~ 0.954


# --- crease detection ---------------------------------------------------------------

def test_crease_mask_uniform_labels():
    assert not crease_mask(np.zeros(64, dtype=int), 8, 8).any()


def test_crease_mask_azimuthal_split():
    n_theta, n_phi = 4, 16
    labels = np.tile((np.arange(n_phi) < 8).astype(int), n_theta)
    mask = crease_mask(labels, n_theta, n_phi, width=2).reshape(n_theta, n_phi)
    # label changes at columns 0|15 and 7|8; two-cell dilation wraps in phi
    expected_clear = {3, 4, 11, 12}
    for row in mask:
        assert {c for c in range(n_phi) if not row[c]} == expected_clear


def test_crease_mask_polar_split_clamps():
    n_theta, n_phi = 8, 6
    labels = np.repeat((np.arange(n_theta) >= 4).astype(int), n_phi)
    mask = crease_mask(labels, n_theta, n_phi, width=2).reshape(n_theta, n_phi)
    masked_rows = {r for r in range(n_theta) if mask[r].all()}
    assert masked_rows == {1, 2, 3, 4, 5, 6}
    assert not mask[0].any() and not mask[7].any()


# --- full transport reports -----------------------------------------------------------

def test_transport_initial_vector(canonical_scene, grid64):
    b0 = initial_admissible_vector(canonical_scene)
    rep = validate_transport(canonical_scene, b0, grid64)
    assert rep.n_rays == grid64.n_nodes
    assert rep.n_crease == 0                  # a single cell has no creases
    assert rep.fraction_within == 1.0
    assert rep.max_rel_miss <= 1e-9
    assert rep.all_match
    assert rep.per_target[0]["ray_count"] == grid64.n_nodes
    for entry in rep.per_target[1:]:
        assert entry["assigned_energy"] == 0.0
        assert entry["ray_energy"] == 0.0
        assert entry["match"]
    assert rep.total_ray == rep.total_assigned


def test_transport_zero_tolerance(canonical_scene, grid64):
    b0 = initial_admissible_vector(canonical_scene)
    rep = validate_transport(canonical_scene, b0, grid64, tol_rel=0.0)
    assert rep.fraction_within == 0.0
    assert not rep.all_match


def test_transport_solved_vector(canonical_scene, grid64):
    f_values = canonical_scene.intensity.values(grid64)
    total = total_energy(grid64, f_values)
    sol = solve_refractor(canonical_scene, grid64,
                          SolverConfig(epsilon=2e-2 * total))
    rep = validate_transport(canonical_scene, sol.b, grid64)
    assert 0 < rep.n_crease < rep.n_rays // 2
    assert rep.fraction_within == 1.0          # every non-crease ray lands
    assert rep.max_rel_miss <= 1e-9
    assert rep.all_match
    counts = [entry["ray_count"] for entry in rep.per_target]
    assert all(c > 0 for c in counts)
    assert sum(counts) == rep.n_rays - rep.n_crease


# --- serialization ---------------------------------------------------------------------

def test_report_files(canonical_scene, grid64, tmp_path):
    b0 = initial_admissible_vector(canonical_scene)
    rep = validate_transport(canonical_scene, b0, grid64)

    jpath = tmp_path / "transport.json"
    write_report_json(rep, jpath)
    loaded = json.loads(jpath.read_text())
    assert set(loaded) == {
        "n_rays", "n_crease_excluded", "tol_rel", "fraction_within",
        "max_rel_miss", "per_target", "total_assigned", "total_ray",
        "all_match",
    }
    assert loaded["all_match"] is True
    assert len(loaded["per_target"]) == 4

    cpath = tmp_path / "rays.csv"
    write_ray_csv(rep, grid64, cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "node_index,theta,phi,label,rel_miss,within,crease"
    assert len(lines) == grid64.n_nodes + 1
    first = lines[1].split(",")
    assert first[3] == "1"        # 1-based labels
    assert first[5] == "1" and first[6] == "0"


def _reference_ray_csv(report, grid, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_index", "theta", "phi", "label", "rel_miss", "within", "crease"])
        for k in range(grid.n_nodes):
            writer.writerow([
                k, repr(float(grid.thetas[k])), repr(float(grid.phis[k])),
                int(report.labels[k]) + 1, repr(float(report.rel_miss[k])),
                int(bool(report.within[k])), int(bool(report.crease[k])),
            ])


def test_write_ray_csv_bytes_match_reference(canonical_scene, tmp_path):
    grid = build_quadrature(canonical_scene.cap, 160, 128)
    assert grid.n_nodes > ROWS_PER_WRITE
    b = [1.6, 1.5951188098475972, 1.5951231601142357, 1.6000067538637417]
    rep = validate_transport(canonical_scene, b, grid)
    assert len(np.unique(rep.labels)) == 4 and 0 < rep.n_crease < rep.n_rays
    write_ray_csv(rep, grid, tmp_path / "got.csv")
    _reference_ray_csv(rep, grid, tmp_path / "ref.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
