"""Spherical-cap source aperture: tangent frames, directions, quadrature grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12


def normalize(v):
    """Return v / |v|. Raises ValueError on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < UNIT_TOL:
        raise ValueError("cannot normalize near-zero vector")
    return v / n


def tangent_frame(axis):
    """Deterministic orthonormal tangent pair (t1, t2) for a unit axis.

    t1 is built from the canonical basis vector with the smallest |component|
    along the axis (first index wins ties), so the frame depends only on the
    axis values and not on any runtime state.
    """
    axis = np.asarray(axis, dtype=float)
    k = int(np.argmin(np.abs(axis)))
    e = np.zeros(3)
    e[k] = 1.0
    t1 = normalize(e - (e @ axis) * axis)
    t2 = np.cross(axis, t1)
    return t1, t2


@dataclass(frozen=True, eq=False)
class CapDomain:
    """Spherical cap {x : x . axis >= cos(half_angle)} on the unit sphere."""

    axis: np.ndarray
    half_angle: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,):
            raise ValueError("cap axis must be a 3-vector")
        if abs(np.linalg.norm(axis) - 1.0) > UNIT_TOL:
            raise ValueError("cap axis must be a unit vector (within 1e-12)")
        if not (0.0 < self.half_angle < np.pi / 2):
            raise ValueError("cap half_angle must lie in (0, pi/2)")
        object.__setattr__(self, "axis", axis)

    def frame(self):
        """Orthonormal tangent pair completing the axis to a right-handed frame."""
        return tangent_frame(self.axis)


def dir_from_spherical(theta, phi, cap: CapDomain):
    """Unit direction at polar angle theta from cap.axis, azimuth phi in its frame.

    theta and phi may be scalars or broadcastable arrays; the result has shape
    broadcast(theta, phi) + (3,).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > np.pi):
        raise ValueError("theta must lie in [0, pi]")
    t1, t2 = cap.frame()
    st = np.sin(theta)
    x = (
        np.multiply.outer(np.cos(theta), cap.axis)
        + np.multiply.outer(st * np.cos(phi), t1)
        + np.multiply.outer(st * np.sin(phi), t2)
    )
    return x


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Midpoint tensor product grid on a cap, theta-major node ordering.

    Node k*n_phi + l sits at theta_k = (k+0.5)*psi/n_theta,
    phi_l = (l+0.5)*2pi/n_phi, and carries weight sin(theta_k)*dtheta*dphi.
    """

    cap: CapDomain
    n_theta: int
    n_phi: int
    nodes: np.ndarray    # (n, 3) unit directions
    weights: np.ndarray  # (n,) surface-measure weights, all > 0
    thetas: np.ndarray   # (n,) polar angle per node
    phis: np.ndarray     # (n,) azimuth per node

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def build_quadrature(cap: CapDomain, n_theta: int, n_phi: int) -> QuadratureGrid:
    """Build the midpoint quadrature grid for a cap. Requires n_theta, n_phi >= 2."""
    if n_theta < 2 or n_phi < 2:
        raise ValueError("quadrature grid needs n_theta >= 2 and n_phi >= 2")
    psi = cap.half_angle
    dtheta = psi / n_theta
    dphi = 2.0 * np.pi / n_phi
    theta_1d = (np.arange(n_theta) + 0.5) * dtheta
    phi_1d = (np.arange(n_phi) + 0.5) * dphi
    # theta-major: all azimuths of ring 0, then ring 1, ... The sines and
    # cosines are taken once per ring and once per azimuth and broadcast:
    # each node's arithmetic is unchanged, so the values are bitwise those
    # of evaluating every node on its own
    thetas = np.repeat(theta_1d, n_phi)
    phis = np.tile(phi_1d, n_theta)
    nodes = dir_from_spherical(theta_1d[:, None], phi_1d, cap).reshape(-1, 3)
    weights = np.repeat(np.sin(theta_1d) * dtheta * dphi, n_phi)
    return QuadratureGrid(
        cap=cap, n_theta=n_theta, n_phi=n_phi,
        nodes=nodes, weights=weights, thetas=thetas, phis=phis,
    )


def cap_area(cap: CapDomain) -> float:
    """Exact surface area 2*pi*(1 - cos(half_angle))."""
    return 2.0 * np.pi * (1.0 - np.cos(cap.half_angle))


def cap_min_dot(cap: CapDomain, v) -> float:
    """Minimum of x . v over the closed cap, for unit v.

    The minimizer tilts away from v as far as the cap allows, so the value is
    cos(angle(axis, v) + half_angle), clamped to -1 once that angle passes pi.
    """
    v = np.asarray(v, dtype=float)
    c = float(np.clip(cap.axis @ v, -1.0, 1.0))
    ang = np.arccos(c) + cap.half_angle
    if ang >= np.pi:
        return -1.0
    return float(np.cos(ang))
