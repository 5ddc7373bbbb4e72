"""Reference optics for the benchmark, written apart from the refractor package.

Nothing here imports refractor: the scene generator and the correctness checks
use these functions to recompute what the program reports, so a fault in the
program cannot hide behind the same fault in its checker.

Conventions: the cap axis is +z, so a direction with polar angle theta and
azimuth phi is (sin theta cos phi, sin theta sin phi, cos theta). The source
quadrature is the midpoint rule on [0, psi] x [0, 2 pi], theta-major.
"""

from __future__ import annotations

import math

import numpy as np


def cap_nodes(half_angle: float, n_theta: int, n_phi: int):
    """Midpoint nodes of the cap: (thetas, dirs, area_weights), theta-major."""
    d_theta = half_angle / n_theta
    d_phi = 2.0 * math.pi / n_phi
    th = (np.arange(n_theta) + 0.5) * d_theta
    ph = (np.arange(n_phi) + 0.5) * d_phi
    thetas = np.repeat(th, n_phi)
    phis = np.tile(ph, n_theta)
    s = np.sin(thetas)
    dirs = np.stack([s * np.cos(phis), s * np.sin(phis), np.cos(thetas)], axis=1)
    return thetas, dirs, s * d_theta * d_phi


def intensity_values(spec: dict, thetas: np.ndarray) -> np.ndarray:
    """Source intensity f(theta) for a scene's `intensity` entry."""
    a = float(spec["amplitude"])
    if spec["kind"] == "constant":
        return np.full(thetas.shape, a)
    width = math.radians(float(spec["width_deg"]))
    return a * np.exp(-((thetas / width) ** 2))


def node_energies(scene: dict, n_theta: int, n_phi: int):
    """(dirs, energies) of the midpoint quadrature for a scene dict."""
    psi = math.radians(scene["cap"]["half_angle_deg"])
    thetas, dirs, w = cap_nodes(psi, n_theta, n_phi)
    return dirs, intensity_values(scene["intensity"], thetas) * w


def constant_total_error_bound(half_angle: float, n_theta: int, amplitude: float) -> float:
    """Midpoint-rule error bound for a * integral of sin over [0, psi] x [0, 2 pi].

    The azimuth integral is exact; in theta the composite midpoint rule errs by
    at most psi h^2 / 24 * max|sin''| = psi h^2 sin(psi) / 24.
    """
    h = half_angle / n_theta
    return 2.0 * math.pi * amplitude * half_angle * h * h * math.sin(half_angle) / 24.0


def cap_min_dot(half_angle: float, unit_v: np.ndarray) -> float:
    """Least x . v over the cap around +z: cos(angle(z, v) + psi), floored at -1."""
    ang = math.acos(max(-1.0, min(1.0, float(unit_v[2])))) + half_angle
    return -1.0 if ang >= math.pi else math.cos(ang)


def line_distance_to_origin(p: np.ndarray, q: np.ndarray) -> float:
    """Distance from the origin to the line through p and q."""
    d = q - p
    s = -float(p @ d) / float(d @ d)
    return float(np.linalg.norm(p + s * d))


def oval_radii(dirs: np.ndarray, points: np.ndarray, b: np.ndarray, kappa: float) -> np.ndarray:
    """r with r + kappa |r x - P_j| = b_j along every direction, shape (n, N).

    Squaring gives (1 - k^2) r^2 - 2 (b - k^2 t) r + (b^2 - k^2 |P|^2) = 0 with
    t = x . P; the physical root is the smaller one, taken here in the
    cancellation-free form c / (B + sqrt(B^2 - a c)) and polished by one Newton
    step on the unsquared equation.
    """
    k2 = kappa * kappa
    t = dirs @ points.T
    p2 = np.sum(points * points, axis=1)
    big_b = b[None, :] - k2 * t
    c = b * b - k2 * p2
    r = c[None, :] / (big_b + np.sqrt(big_b * big_b - (1.0 - k2) * c[None, :]))
    dist = np.sqrt(np.maximum(r * r - 2.0 * r * t + p2[None, :], 0.0))
    resid = r + kappa * dist - b[None, :]
    slope = 1.0 + kappa * (r - t) / dist
    return r - resid / slope


def oval_normal(x_surface: np.ndarray, focus: np.ndarray, kappa: float) -> np.ndarray:
    """Unit gradient of |X| + kappa |X - P| at surface points X, shape (n, 3)."""
    to_p = x_surface - focus[None, :]
    grad = (x_surface / np.linalg.norm(x_surface, axis=1)[:, None]
            + kappa * to_p / np.linalg.norm(to_p, axis=1)[:, None])
    return grad / np.linalg.norm(grad, axis=1)[:, None]


def snell(incident: np.ndarray, normal: np.ndarray, kappa: float) -> np.ndarray:
    """Refracted unit directions by Snell's law n1 sin a = n2 sin b, n2/n1 = kappa.

    The tangential part of the incident direction scales by 1/kappa and the
    normal part fills the unit length; NaN where the ray is totally reflected.
    """
    cos_i = np.sum(incident * normal, axis=1)
    tangential = incident - cos_i[:, None] * normal
    sin_t2 = np.sum(tangential * tangential, axis=1) / (kappa * kappa)
    cos_t = np.sqrt(np.where(sin_t2 <= 1.0, 1.0 - sin_t2, np.nan))
    return tangential / kappa + cos_t[:, None] * normal
