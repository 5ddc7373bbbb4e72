"""Problem instances: discrete targets, source intensity, admissibility checks.

A Scene fixes the index ratio kappa, the source cap, an emitted intensity, the
target points with their prescribed energy fractions, and three scalars that
pin down the admissible design space:

    tau  -- uniform transversality margin: x . P >= (kappa + tau)|P| on the cap
    r0   -- radius of the obstruction-free ball around the origin
    b1   -- fixed parameter of the first oval (anchors the whole family)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import CapDomain, QuadratureGrid, cap_area, cap_min_dot, normalize
from .oval import delta


class SceneValidationError(Exception):
    """Base class for scene admissibility failures."""


class H1Violated(SceneValidationError):
    """Some target direction is insufficiently aligned with the cap."""


class H2Violated(SceneValidationError):
    """A pair of targets can shadow each other inside the safety ball."""


class R0TooLarge(SceneValidationError):
    """The safety ball radius exceeds tau/(1+kappa) * dist(O, targets)."""


class InadmissibleBVector(SceneValidationError):
    """A parameter vector leaves the admissible per-coordinate range."""


@dataclass(frozen=True, eq=False)
class TargetPoint:
    point: np.ndarray
    weight: float

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        if p.shape != (3,):
            raise ValueError("target point must be a 3-vector")
        if not np.linalg.norm(p) > 0.0:
            raise ValueError("target point must be away from the origin")
        if not self.weight > 0.0:
            raise ValueError("target weight must be positive")
        object.__setattr__(self, "point", p)


@dataclass(frozen=True, eq=False)
class IntensitySpec:
    """Emitted intensity f on the cap.

    kind "constant": f = amplitude everywhere.
    kind "axial-gaussian": f = amplitude * exp(-(theta/width)^2) with theta the
    polar angle from the cap axis and width in radians.
    """

    kind: str
    amplitude: float
    width: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("constant", "axial-gaussian"):
            raise ValueError(f"unknown intensity kind {self.kind!r}")
        if not self.amplitude > 0.0:
            raise ValueError("intensity amplitude must be positive")
        if self.kind == "axial-gaussian" and not (self.width and self.width > 0.0):
            raise ValueError("axial-gaussian intensity needs a positive width")

    def values(self, grid: QuadratureGrid) -> np.ndarray:
        if self.kind == "constant":
            return np.full(grid.n_nodes, self.amplitude)
        return self.amplitude * np.exp(-((grid.thetas / self.width) ** 2))


@dataclass(frozen=True, eq=False)
class Scene:
    kappa: float
    cap: CapDomain
    targets: tuple
    intensity: IntensitySpec
    tau: float
    r0: float
    b1: float
    normalize_weights: bool = True

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def points(self) -> np.ndarray:
        """Target positions stacked as an (N, 3) matrix."""
        return np.stack([t.point for t in self.targets])

    @property
    def p_norms(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    @property
    def raw_weights(self) -> np.ndarray:
        return np.array([t.weight for t in self.targets])


# --- admissibility -----------------------------------------------------------

def tau_star(cap: CapDomain, points: np.ndarray, kappa: float) -> float:
    """Largest tau compatible with the cap: min_i cap_min_dot(cap, P_i/|P_i|) - kappa."""
    vals = [cap_min_dot(cap, normalize(p)) for p in np.atleast_2d(points)]
    return float(min(vals) - kappa)


def validate_h1(scene: Scene) -> float:
    """Check the alignment hypothesis; returns the scene's tau_star.

    Requires tau_star > 0 and scene.tau <= tau_star, so that every cap
    direction satisfies x . P_i >= (kappa + tau)|P_i|.
    """
    ts = tau_star(scene.cap, scene.points, scene.kappa)
    if ts > 0.0 and scene.tau <= ts:
        return ts
    worst = int(np.argmin([cap_min_dot(scene.cap, normalize(p)) for p in scene.points])) + 1
    if ts <= 0.0:
        raise H1Violated(f"target {worst} is too oblique: tau_star = {ts:.6f} <= 0")
    raise H1Violated(
        f"tau = {scene.tau:.6f} exceeds tau_star = {ts:.6f} (binding target {worst})"
    )


def pairwise_line_distances(points: np.ndarray) -> np.ndarray:
    """Distance from the origin to the line through P_i and P_j, for i < j.

    Returns a condensed array in (i, j) lexicographic order. Coincident or
    antipodal pairs give 0 (their line meets the origin).
    """
    pts = np.atleast_2d(points)
    n = len(pts)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            chord = pts[j] - pts[i]
            denom = np.linalg.norm(chord)
            if denom == 0.0:
                out.append(0.0)
                continue
            out.append(float(np.linalg.norm(np.cross(pts[i], pts[j])) / denom))
    return np.array(out)


def validate_h2(scene: Scene) -> None:
    """Check the no-self-obstruction hypothesis for the safety ball radius r0.

    Conservative sufficient test: r0 < tau/(1+kappa) * dist(O, targets), and
    every line through a target pair stays at distance >= r0 from the origin.
    """
    dist = float(np.min(scene.p_norms))
    bound = scene.tau / (1.0 + scene.kappa) * dist
    if not (0.0 < scene.r0 < bound):
        raise R0TooLarge(
            f"r0 = {scene.r0:.6f} not in (0, {bound:.6f}) = (0, tau/(1+kappa)*dist(O, targets))"
        )
    if scene.n_targets >= 2:
        dists = pairwise_line_distances(scene.points)
        k = 0
        for i in range(scene.n_targets):
            for j in range(i + 1, scene.n_targets):
                if dists[k] < scene.r0:
                    raise H2Violated(
                        f"line through targets {i + 1} and {j + 1} passes at distance "
                        f"{dists[k]:.6f} < r0 = {scene.r0:.6f} from the origin"
                    )
                k += 1


def validate_structural(scene: Scene) -> list:
    """Margins |axis . nu_ij| - sin(half_angle) for all target pairs.

    nu_ij is the unit normal of the plane through the origin and targets i, j.
    A positive margin keeps the cap clear of that plane, which makes the cell
    boundary between i and j a single curve; non-positive margins are reported
    (the caller may warn) but do not invalidate the scene.
    """
    psi = scene.cap.half_angle
    pts = scene.points
    margins = []
    for i in range(scene.n_targets):
        for j in range(i + 1, scene.n_targets):
            cr = np.cross(pts[i], pts[j])
            nrm = np.linalg.norm(cr)
            if nrm == 0.0:
                margins.append((i + 1, j + 1, float("nan")))
                continue
            margin = abs(float(scene.cap.axis @ (cr / nrm))) - np.sin(psi)
            margins.append((i + 1, j + 1, float(margin)))
    return margins


def structurally_supported(margins) -> bool:
    """True when every pair-plane margin of validate_structural is positive."""
    return all(m > 0.0 for (_, _, m) in margins)


def default_b1(kappa: float, p1_norm: float, r0: float) -> float:
    """Default first-oval parameter: 90% of the way up the admissible interval."""
    return kappa * p1_norm + 0.9 * r0 * (1.0 - kappa) ** 2 / (1.0 + kappa)


def b1_upper(scene: Scene) -> float:
    """Upper end of b1's admissible interval: kappa|P_1| + r0 (1-kappa)^2/(1+kappa)."""
    kappa = scene.kappa
    return kappa * float(scene.p_norms[0]) + scene.r0 * (1.0 - kappa) ** 2 / (1.0 + kappa)


def alpha_bound(scene: Scene) -> float:
    """Uniform floor offset alpha = (1-kappa)/(1+kappa) * (b1 - kappa|P_1|).

    Any parameter vector whose first cell still receives energy satisfies
    b_i >= kappa|P_i| + alpha for every i.
    """
    return (1.0 - scene.kappa) / (1.0 + scene.kappa) * (scene.b1 - scene.kappa * float(scene.p_norms[0]))


def admissible_bounds(scene: Scene):
    """Per-coordinate open/closed range (kappa|P_i|, (1+kappa) r0 + kappa|P_i|]."""
    lower = scene.kappa * scene.p_norms
    upper = (1.0 + scene.kappa) * scene.r0 + lower
    return lower, upper


def check_b_vector(scene: Scene, b) -> np.ndarray:
    """Validate kappa|P_i| < b_i <= (1+kappa) r0 + kappa|P_i|; returns b as an array."""
    b = np.asarray(b, dtype=float)
    if b.shape != (scene.n_targets,):
        raise InadmissibleBVector(
            f"b has shape {b.shape}, expected ({scene.n_targets},)"
        )
    lower, upper = admissible_bounds(scene)
    bad = np.where(~((b > lower) & (b <= upper)))[0]  # NaN is inside no interval
    if bad.size:
        i = int(bad[0])
        raise InadmissibleBVector(
            f"b[{i + 1}] = {float(b[i])!r} outside ({float(lower[i])!r}, {float(upper[i])!r}]"
        )
    return b


def initial_admissible_vector(scene: Scene) -> np.ndarray:
    """Starting vector that pours all energy into the first cell.

    With sigma = (b1 - kappa|P_1|) / ((1-kappa) r0) in (0, 1], set
    b_j = kappa|P_j| + sigma (1+kappa) r0 for j >= 2. Every non-first oval then
    clears the first one on the whole cap, so cell 1 is the entire aperture.
    """
    kappa = scene.kappa
    p = scene.p_norms
    sigma = (scene.b1 - kappa * float(p[0])) / ((1.0 - kappa) * scene.r0)
    if not (0.0 < sigma <= 1.0):
        raise SceneValidationError(f"sigma = {sigma:.6f} outside (0, 1]; b1 out of range")
    b = kappa * p + sigma * (1.0 + kappa) * scene.r0
    b[0] = scene.b1
    return b


def scene_c0(scene: Scene, grid: QuadratureGrid) -> float:
    """Concrete positive lower bound for the oval discriminant over the design box.

    delta(x . P_j, b, |P_j|) decreases in b below x . P_j, so its minimum over
    admissible b sits at the upper endpoint; minimize that over grid nodes and
    targets.
    """
    lower, upper = admissible_bounds(scene)
    c0 = np.inf
    for j in range(scene.n_targets):
        t = grid.nodes @ scene.points[j]
        dmin = float(np.min(delta(t, float(upper[j]), float(scene.p_norms[j]), scene.kappa)))
        c0 = min(c0, dmin)
    if c0 <= 0.0:
        raise SceneValidationError(f"discriminant floor C_0 = {c0:.3e} is not positive")
    return float(c0)


def target_weights(scene: Scene, grid: QuadratureGrid, f_values: np.ndarray) -> np.ndarray:
    """Prescribed per-target energies g, conserving the discrete source total.

    With normalize_weights the raw weights are rescaled to sum to the grid
    total; otherwise the sums must already agree within quadrature tolerance.
    """
    total = float(np.sum(f_values * grid.weights))
    if not total > 0.0:
        raise SceneValidationError(f"source energy on the {grid.n_theta}x{grid.n_phi} grid is "
                                   f"{total!r}; widen the intensity")
    raw = scene.raw_weights
    raw_sum = float(np.sum(raw))
    if scene.normalize_weights:
        return raw * (total / raw_sum)
    area_err = abs(grid.total_weight - cap_area(scene.cap))
    tol = 10.0 * area_err * float(np.max(f_values))
    if abs(raw_sum - total) > tol:
        raise SceneValidationError(
            f"sum of weights {raw_sum!r} mismatches source total {total!r} "
            f"beyond tolerance {tol:.3e} and normalize_weights is off"
        )
    return raw.astype(float)


def validate_scene(scene: Scene) -> float:
    """Run all hard admissibility checks; returns tau_star."""
    if scene.n_targets < 1:
        raise SceneValidationError("need at least one target")
    pts = scene.points
    for i in range(scene.n_targets):
        for j in range(i + 1, scene.n_targets):
            if np.array_equal(pts[i], pts[j]):
                raise SceneValidationError(f"targets {i + 1} and {j + 1} coincide")
    if not (0.0 < scene.kappa < 1.0):
        raise SceneValidationError("kappa must lie in (0, 1)")
    if not (0.0 < scene.tau < 1.0 - scene.kappa):
        raise SceneValidationError("tau must lie in (0, 1 - kappa)")
    ts = validate_h1(scene)
    validate_h2(scene)
    lo = scene.kappa * float(scene.p_norms[0])
    hi = b1_upper(scene)
    if not (lo < scene.b1 <= hi):
        raise SceneValidationError(f"b1 = {scene.b1!r} outside ({lo!r}, {hi!r}]")
    return ts


# --- JSON loading ------------------------------------------------------------

SMALLEST, LARGEST = 1e-50, 1e50   # magnitude range of a scene number


def _finite(value, name: str):
    """A JSON number as a float, or a list of them as a float array. NaN,
    infinities, magnitudes above LARGEST and nonzero scalars below SMALLEST
    (each scalar is a scale the program squares or divides by) are refused."""
    out = np.asarray(value, dtype=float) if isinstance(value, list) else float(value)
    if not np.all(np.isfinite(out)):
        raise SceneValidationError(f"{name} must be finite, got {value!r}")
    size = np.abs(out)
    if np.any(size > LARGEST):
        raise SceneValidationError(f"{name} must not exceed {LARGEST:g} in magnitude, got {value!r}")
    if not isinstance(value, list) and 0.0 < size < SMALLEST:
        raise SceneValidationError(f"{name} must be 0 or at least {SMALLEST:g} in magnitude, got {value!r}")
    return out


def scene_from_dict(d: dict) -> Scene:
    """Build and validate a Scene from a plain dict (see README for the schema).

    Numbers must be finite and at most 1e50 in magnitude, nonzero scalars at
    least 1e-50, normalize_weights a boolean. tau, r0 and b1 may be omitted;
    defaults are 0.9*tau_star, 90% of the r0 bound (capped by pairwise line
    clearance), and default_b1 respectively.
    """
    try:
        kappa = _finite(d["kappa"], "kappa")
        cap_d = d["cap"]
        cap = CapDomain(
            axis=normalize(_finite(cap_d["axis"], "cap axis")),
            half_angle=float(np.deg2rad(_finite(cap_d["half_angle_deg"], "cap half_angle_deg"))),
        )
        intens_d = d.get("intensity", {"kind": "constant", "amplitude": 1.0})
        width_deg = intens_d.get("width_deg")
        intensity = IntensitySpec(
            kind=intens_d["kind"],
            amplitude=_finite(intens_d["amplitude"], "intensity amplitude"),
            width=(float(np.deg2rad(_finite(width_deg, "intensity width_deg")))
                   if width_deg is not None else None),
        )
        targets = tuple(
            TargetPoint(point=_finite(t["point"], f"target {k} point"),
                        weight=_finite(t["weight"], f"target {k} weight"))
            for k, t in enumerate(d["targets"], 1)
        )
        tau, r0, b1 = (_finite(d[key], key) if key in d else None for key in ("tau", "r0", "b1"))
        normalize_weights = d.get("normalize_weights", True)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SceneValidationError(f"malformed scene: {exc}") from exc
    if not isinstance(normalize_weights, bool):
        raise SceneValidationError(
            f"normalize_weights must be true or false, got {normalize_weights!r}"
        )

    if len(targets) < 1:
        raise SceneValidationError("need at least one target")
    pts = np.stack([t.point for t in targets])
    if not (0.0 < kappa < 1.0):
        raise SceneValidationError("kappa must lie in (0, 1)")

    ts = tau_star(cap, pts, kappa)
    if ts <= 0.0:
        raise H1Violated(f"tau_star = {ts:.6f} <= 0; targets too oblique for this cap")
    if tau is None:
        tau = 0.9 * min(ts, 1.0 - kappa)

    if r0 is None:
        bound = tau / (1.0 + kappa) * float(np.min(np.linalg.norm(pts, axis=1)))
        if len(targets) >= 2:
            clearance = float(np.min(pairwise_line_distances(pts)))
            bound = min(bound, clearance)
        r0 = 0.9 * bound

    if b1 is None:
        b1 = default_b1(kappa, float(np.linalg.norm(pts[0])), r0)

    scene = Scene(
        kappa=kappa, cap=cap, targets=targets, intensity=intensity,
        tau=tau, r0=r0, b1=b1, normalize_weights=normalize_weights,
    )
    validate_scene(scene)
    return scene


def load_scene(path) -> Scene:
    with open(path) as fh:
        return scene_from_dict(json.load(fh))


def validation_report(scene: Scene, grid: QuadratureGrid) -> dict:
    """JSON-ready summary of every admissibility quantity for a scene."""
    f_values = scene.intensity.values(grid)
    total = float(np.sum(f_values * grid.weights))
    g = target_weights(scene, grid, f_values)
    margins = validate_structural(scene)
    lower, upper = admissible_bounds(scene)
    return {
        "kappa": scene.kappa,
        "n_targets": scene.n_targets,
        "tau_star": tau_star(scene.cap, scene.points, scene.kappa),
        "tau": scene.tau,
        "r0": scene.r0,
        "b1": scene.b1,
        "alpha": alpha_bound(scene),
        "c0": scene_c0(scene, grid),
        "b_lower": [float(v) for v in lower],
        "b_upper": [float(v) for v in upper],
        "structural_margins": [[i, j, m] for (i, j, m) in margins],
        "structural_supported": structurally_supported(margins),
        "total_energy": total,
        "sum_target_weights": float(np.sum(g)),
        "cap_area_error": abs(grid.total_weight - cap_area(scene.cap)),
        "grid": [grid.n_theta, grid.n_phi],
    }
