"""Scene construction, admissibility checks, and the derived design constants."""

import dataclasses
import json

import numpy as np
import pytest

from refractor.geometry import CapDomain, cap_area, normalize
from refractor.scene import (
    H1Violated,
    H2Violated,
    InadmissibleBVector,
    IntensitySpec,
    R0TooLarge,
    Scene,
    SceneValidationError,
    TargetPoint,
    admissible_bounds,
    alpha_bound,
    b1_upper,
    check_b_vector,
    default_b1,
    initial_admissible_vector,
    load_scene,
    pairwise_line_distances,
    scene_c0,
    scene_from_dict,
    target_weights,
    tau_star,
    validate_h1,
    validate_h2,
    validate_scene,
    validate_structural,
    validation_report,
)

Z_CAP = CapDomain(axis=np.array([0.0, 0.0, 1.0]), half_angle=np.deg2rad(10.0))
UNIT = IntensitySpec(kind="constant", amplitude=1.0)


def raw_scene(targets, *, kappa=0.3, tau=0.2, r0=0.5, b1=1.6, cap=Z_CAP, **kw):
    """Scene built without validation (the dataclass itself does not check)."""
    return Scene(kappa=kappa, cap=cap, targets=tuple(targets),
                 intensity=UNIT, tau=tau, r0=r0, b1=b1, **kw)


# --- target and intensity dataclasses ----------------------------------------

def test_target_point_validation():
    t = TargetPoint(point=[1.0, 2.0, 3.0], weight=0.5)
    assert t.point.dtype == np.float64
    with pytest.raises(ValueError):
        TargetPoint(point=[1.0, 2.0], weight=1.0)
    with pytest.raises(ValueError):
        TargetPoint(point=[0.0, 0.0, 0.0], weight=1.0)
    with pytest.raises(ValueError):
        TargetPoint(point=[1.0, 0.0, 0.0], weight=0.0)


def test_intensity_validation():
    with pytest.raises(ValueError):
        IntensitySpec(kind="ring", amplitude=1.0)
    with pytest.raises(ValueError):
        IntensitySpec(kind="constant", amplitude=0.0)
    with pytest.raises(ValueError):
        IntensitySpec(kind="axial-gaussian", amplitude=1.0)


def test_intensity_values(grid64):
    const = IntensitySpec(kind="constant", amplitude=2.5).values(grid64)
    assert const.shape == (grid64.n_nodes,)
    assert np.all(const == 2.5)

    w = np.deg2rad(6.0)
    gauss = IntensitySpec(kind="axial-gaussian", amplitude=3.0, width=w).values(grid64)
    expected = 3.0 * np.exp(-((grid64.thetas / w) ** 2))
    assert np.array_equal(gauss, expected)
    assert np.all(gauss > 0.0)


# --- alignment hypothesis -----------------------------------------------------

def test_tau_star_axis_aligned_target():
    # single target on the cap axis: worst cap direction sits on the rim,
    # giving cos(half_angle) - kappa
    ts = tau_star(Z_CAP, np.array([[0.0, 0.0, 5.0]]), 0.3)
    assert abs(ts - 0.6848077530122080) < 1e-15
    assert abs(ts - (np.cos(np.deg2rad(10.0)) - 0.3)) < 1e-15


def test_tau_star_canonical(canonical_scene):
    ts = tau_star(canonical_scene.cap, canonical_scene.points, canonical_scene.kappa)
    assert abs(ts - 0.3237483413275916) < 1e-15
    assert validate_h1(canonical_scene) == ts
    assert canonical_scene.tau <= ts


def test_h1_rejects_oblique_target():
    # a target orthogonal to the axis has cap_min_dot = -sin(half_angle) < kappa
    sc = raw_scene([TargetPoint([5.0, 0.0, 0.0], 1.0)])
    with pytest.raises(H1Violated):
        validate_h1(sc)


def test_h1_rejects_tau_above_tau_star(canonical_scene):
    sc = dataclasses.replace(canonical_scene, tau=0.33)
    with pytest.raises(H1Violated, match="exceeds tau_star"):
        validate_h1(sc)


# --- obstruction hypothesis ---------------------------------------------------

def test_pairwise_line_distances():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    d = pairwise_line_distances(pts)
    assert d.shape == (1,)
    assert abs(d[0] - np.sqrt(0.5)) < 1e-15

    # antipodal pair: the connecting line passes through the origin
    assert pairwise_line_distances(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))[0] == 0.0
    # coincident pair: degenerate, also reported as zero clearance
    assert pairwise_line_distances(np.array([[1.0, 0, 0], [1.0, 0, 0]]))[0] == 0.0


def test_h2_canonical_passes(canonical_scene):
    validate_h2(canonical_scene)


def test_h2_r0_too_large(canonical_scene):
    # bound = tau/(1+kappa) * min|P| = 0.2/1.3 * 5 = 0.769...
    with pytest.raises(R0TooLarge):
        validate_h2(dataclasses.replace(canonical_scene, r0=0.8))
    with pytest.raises(R0TooLarge):
        validate_h2(dataclasses.replace(canonical_scene, r0=0.0))


def test_h2_collinear_targets():
    p = np.array([2.5, 0.0, 4.330127018922194])
    sc = raw_scene([TargetPoint(p, 1.0), TargetPoint(2.0 * p, 1.0)])
    with pytest.raises(H2Violated):
        validate_h2(sc)


# --- structural margins (warn-level) ------------------------------------------

def test_structural_margins_canonical(canonical_scene):
    """All four targets are coplanar with the origin, so every pair shares the
    same separating plane: margin = cos(60 deg) - sin(10 deg) for all six."""
    margins = validate_structural(canonical_scene)
    assert len(margins) == 6
    assert [(i, j) for (i, j, _) in margins] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for _, _, m in margins:
        assert abs(m - 0.3263518223330697) < 1e-12
        assert m > 0.0


def test_structural_margin_degenerate_pair():
    p = np.array([2.5, 0.0, 4.330127018922194])
    sc = raw_scene([TargetPoint(p, 1.0), TargetPoint(2.0 * p, 1.0)])
    margins = validate_structural(sc)
    assert len(margins) == 1
    assert np.isnan(margins[0][2])


# --- design constants ---------------------------------------------------------

def test_default_b1_and_upper(canonical_scene):
    assert abs(default_b1(0.3, 5.0, 0.5) - 1.6696153846153847) < 1e-15
    hi = b1_upper(canonical_scene)
    assert abs(hi - (1.5 + 0.5 * 0.7**2 / 1.3)) < 1e-15
    assert default_b1(0.3, 5.0, 0.5) < hi
    assert canonical_scene.b1 <= hi


def test_alpha_bound_canonical(canonical_scene):
    # (1-kappa)/(1+kappa) * (b1 - kappa|P_1|) = 0.7/1.3 * 0.1
    assert abs(alpha_bound(canonical_scene) - 0.05384615384615385) < 1e-15


def test_admissible_bounds_canonical(canonical_scene):
    lower, upper = admissible_bounds(canonical_scene)
    assert np.allclose(lower, 1.5, rtol=0, atol=1e-15)
    assert np.allclose(upper, 2.15, rtol=0, atol=1e-15)


def test_check_b_vector_boundaries(canonical_scene):
    lower, upper = admissible_bounds(canonical_scene)
    ok = check_b_vector(canonical_scene, upper)  # closed at the top
    assert np.array_equal(ok, upper)
    with pytest.raises(InadmissibleBVector):
        check_b_vector(canonical_scene, lower)  # open at the bottom
    with pytest.raises(InadmissibleBVector, match="shape"):
        check_b_vector(canonical_scene, [1.6, 1.6])
    mid = (lower + upper) / 2
    bad = mid.copy()
    bad[2] = upper[2] + 1e-9
    with pytest.raises(InadmissibleBVector, match=r"b\[3\]"):
        check_b_vector(canonical_scene, bad)
    bad = mid.copy()
    bad[1] = np.nan                 # inside no interval
    with pytest.raises(InadmissibleBVector, match=r"b\[2\] = nan"):
        check_b_vector(canonical_scene, bad)


def test_initial_vector_canonical(canonical_scene):
    b0 = initial_admissible_vector(canonical_scene)
    assert b0[0] == 1.6
    # sigma = (1.6 - 1.5) / (0.7 * 0.5) = 2/7
    sigma = (canonical_scene.b1 - 0.3 * 5.0) / (0.7 * 0.5)
    assert abs(sigma - 0.28571428571428575) < 1e-15
    for j in range(1, 4):
        assert abs(b0[j] - 1.6857142857142857) < 1e-15
    check_b_vector(canonical_scene, b0)


def test_initial_vector_rejects_oversized_b1(canonical_scene):
    # sigma > 1 once b1 > kappa|P_1| + (1-kappa) r0 = 1.85
    sc = dataclasses.replace(canonical_scene, b1=1.9)
    with pytest.raises(SceneValidationError, match="sigma"):
        initial_admissible_vector(sc)


def test_scene_c0_positive(canonical_scene, grid64):
    c0 = scene_c0(canonical_scene, grid64)
    assert c0 > 0.0
    assert np.isfinite(c0)


# --- prescribed energies ------------------------------------------------------

def test_target_weights_normalized(canonical_scene, grid64):
    f = canonical_scene.intensity.values(grid64)
    g = target_weights(canonical_scene, grid64, f)
    total = float(np.sum(f * grid64.weights))
    assert g.shape == (4,)
    # equal raw weights and a power-of-two count: the rescale is exact
    assert float(np.sum(g)) == total
    assert np.all(g == total / 4.0)


def test_target_weights_unnormalized(canonical_scene, grid64):
    f = canonical_scene.intensity.values(grid64)
    total = float(np.sum(f * grid64.weights))
    targets = tuple(
        TargetPoint(t.point, total / 4.0) for t in canonical_scene.targets)
    sc = dataclasses.replace(canonical_scene, targets=targets,
                             normalize_weights=False)
    g = target_weights(sc, grid64, f)
    assert float(np.sum(g)) == total

    bad = dataclasses.replace(canonical_scene, normalize_weights=False)
    with pytest.raises(SceneValidationError, match="mismatches"):
        target_weights(bad, grid64, f)  # raw weights sum to 4, not ~0.095


# --- full validation and JSON loading -----------------------------------------

def test_validate_scene_canonical(canonical_scene):
    ts = validate_scene(canonical_scene)
    assert abs(ts - 0.3237483413275916) < 1e-15


def test_validate_scene_rejections(canonical_scene):
    dup = canonical_scene.targets[:3] + (canonical_scene.targets[0],)
    with pytest.raises(SceneValidationError, match="coincide"):
        validate_scene(dataclasses.replace(canonical_scene, targets=dup))
    with pytest.raises(SceneValidationError, match="kappa"):
        validate_scene(dataclasses.replace(canonical_scene, kappa=1.2))
    with pytest.raises(SceneValidationError, match="tau"):
        validate_scene(dataclasses.replace(canonical_scene, tau=0.75))
    with pytest.raises(SceneValidationError, match="b1"):
        validate_scene(dataclasses.replace(canonical_scene, b1=1.5))
    with pytest.raises(SceneValidationError, match="b1"):
        validate_scene(dataclasses.replace(canonical_scene, b1=1.7))


def test_load_scene_canonical(canonical_scene):
    assert canonical_scene.kappa == 0.3
    assert canonical_scene.n_targets == 4
    assert canonical_scene.tau == 0.2
    assert canonical_scene.r0 == 0.5
    assert canonical_scene.b1 == 1.6
    assert np.allclose(canonical_scene.p_norms, 5.0, rtol=0, atol=1e-12)


def test_scene_from_dict_defaults(canonical_scene):
    d = {
        "kappa": 0.3,
        "cap": {"axis": [0.0, 0.0, 1.0], "half_angle_deg": 10.0},
        "targets": [
            {"point": list(map(float, t.point)), "weight": 1.0}
            for t in canonical_scene.targets
        ],
    }
    sc = scene_from_dict(d)
    ts = tau_star(sc.cap, sc.points, 0.3)
    assert sc.tau == 0.9 * min(ts, 0.7)
    clearance = float(np.min(pairwise_line_distances(sc.points)))
    bound = sc.tau / 1.3 * float(np.min(sc.p_norms))
    assert sc.r0 == 0.9 * min(bound, clearance)
    assert sc.b1 == default_b1(0.3, float(sc.p_norms[0]), sc.r0)
    validate_scene(sc)


def test_scene_from_dict_malformed():
    with pytest.raises(SceneValidationError, match="malformed"):
        scene_from_dict({"cap": {"axis": [0, 0, 1], "half_angle_deg": 10}})
    with pytest.raises(SceneValidationError):
        scene_from_dict({"kappa": 0.3,
                         "cap": {"axis": [0, 0, 1], "half_angle_deg": 10},
                         "targets": []})


def test_scene_from_dict_rejects_oblique_target_and_bad_kappa():
    """An oblique target with a defaulted tau is named by H1, not by the tau
    range; kappa is refused before the defaults divide by 1 + kappa."""
    d = {"kappa": 0.3, "cap": {"axis": [0, 0, 1], "half_angle_deg": 10},
         "targets": [{"point": [5, 0, 0], "weight": 1.0}]}
    with pytest.raises(H1Violated, match="target 1 is too oblique"):
        scene_from_dict(d)
    d["targets"] = [{"point": [0, 0, 5], "weight": 1.0}]
    for kappa in (1.2, -1.0):
        with pytest.raises(SceneValidationError, match="kappa"):
            scene_from_dict(dict(d, kappa=kappa))


def test_load_scene_roundtrip(tmp_path, canonical_scene):
    d = {
        "kappa": 0.3,
        "cap": {"axis": [0, 0, 1], "half_angle_deg": 10.0},
        "targets": [{"point": [0, 0, 5], "weight": 1.0}],
        "tau": 0.2, "r0": 0.5, "b1": 1.6,
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(d))
    sc = load_scene(path)
    assert sc.n_targets == 1
    assert sc.b1 == 1.6


def test_validation_report_keys(canonical_scene, grid64):
    rep = validation_report(canonical_scene, grid64)
    assert set(rep) == {
        "kappa", "n_targets", "tau_star", "tau", "r0", "b1", "alpha", "c0",
        "b_lower", "b_upper", "structural_margins", "structural_supported",
        "total_energy", "sum_target_weights", "cap_area_error", "grid",
    }
    assert rep["grid"] == [64, 64]
    assert rep["structural_supported"] is True
    assert abs(rep["alpha"] - 0.05384615384615385) < 1e-15
    assert rep["sum_target_weights"] == rep["total_energy"]
    assert abs(rep["total_energy"] - cap_area(canonical_scene.cap)) < 1e-3
    assert rep["c0"] > 0.0
    json.dumps(rep)  # must be serializable as-is
