"""Descartes oval primitives: polar radius, derivatives, extrema, surface normal.

The oval with focus P, parameter b and index ratio kappa is the locus
|X| + kappa*|X - P| = b. Written radially as X = h(x)*x for unit directions x,
the radius solves a quadratic whose physical (smaller) root is

    h = ((b - kappa^2 t) - sqrt(delta)) / (1 - kappa^2),   t = x . P,

with delta = (b - kappa^2 t)^2 - (1 - kappa^2)(b^2 - kappa^2 |P|^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .snell import refract

NORMAL_TOL = 1e-12


class NonPositiveDiscriminant(Exception):
    """The oval quadratic has no real positive root at the requested direction."""


class DegenerateNormal(Exception):
    """x - kappa*m collapsed below tolerance; no usable surface normal."""


@dataclass(frozen=True, eq=False)
class OvalParams:
    focus: np.ndarray
    b: float
    kappa: float

    def __post_init__(self):
        focus = np.asarray(self.focus, dtype=float)
        if focus.shape != (3,):
            raise ValueError("oval focus must be a 3-vector")
        if not (0.0 < self.kappa < 1.0):
            raise ValueError("kappa must lie in (0, 1)")
        p = float(np.linalg.norm(focus))
        if not (self.kappa * p < self.b):
            raise ValueError("need b > kappa*|P| for a nonempty oval")
        object.__setattr__(self, "focus", focus)

    @property
    def p_norm(self) -> float:
        return float(np.linalg.norm(self.focus))


def radius_terms(t, p_norm, kappa):
    """The terms of the radius at t = x . P that do not depend on b: t itself
    and c = (1 - kappa^2)(p_norm^2 - t^2). A caller evaluating one set of
    directions at many b computes them once."""
    t = np.asarray(t, dtype=float)
    k2 = kappa * kappa
    return t, (1.0 - k2) * (p_norm * p_norm - t * t)


def _delta_from_terms(terms, b, kappa):
    t, c = terms
    d = b - t
    d **= 2
    d += c
    d *= kappa * kappa
    return d


def delta(t, b, p_norm, kappa):
    """Discriminant of the oval quadratic at t = x . P.

    Evaluated as kappa^2*((b - t)^2 + (1 - kappa^2)*(p_norm^2 - t^2)), which is
    manifestly positive for |t| < p_norm once b stays below p_norm; it equals
    the textbook form (b - kappa^2 t)^2 - (1 - kappa^2)(b^2 - kappa^2 p_norm^2).
    """
    return _delta_from_terms(radius_terms(t, p_norm, kappa), b, kappa)


def dot(x, p):
    """t = x . p over the last axis of x, accumulated componentwise in a fixed
    order rather than through BLAS, so a direction's t is the same bitwise
    alone, in any batch and in any chunk."""
    x = np.asarray(x, dtype=float)
    return x[..., 0] * p[0] + x[..., 1] * p[1] + x[..., 2] * p[2]


def _radius_from_t(terms, b, kappa, out=None):
    """Radius h and discriminant d at parameter b from radius_terms of
    t = x . P (array friendly); h is written to out when it is given. The one
    evaluation of the radius formula."""
    d = _delta_from_terms(terms, b, kappa)
    if np.any(d <= 0.0):
        raise NonPositiveDiscriminant(
            f"delta <= 0 encountered (min {np.min(d):.3e}); "
            "direction outside the oval's reach"
        )
    k2 = kappa * kappa
    h = np.multiply(k2, terms[0], out=out)
    h = np.subtract(b, h, out=out)
    h = np.subtract(h, np.sqrt(d), out=out)
    return np.divide(h, 1.0 - k2, out=out), d


def _radius_at(x, oval: OvalParams):
    t = dot(x, oval.focus)
    return t, _radius_from_t(radius_terms(t, oval.p_norm, oval.kappa), oval.b, oval.kappa)


def oval_radius(x, oval: OvalParams):
    """Polar radius h(x) of the oval; x may be (..., 3)."""
    _, (h, _) = _radius_at(x, oval)
    return h if np.ndim(h) else float(h)


def oval_gradient(x, oval: OvalParams):
    """Gradient of the radial extension h(x . P) in x: (kappa^2 h / sqrt(delta)) P."""
    _, (h, d) = _radius_at(x, oval)
    k2 = oval.kappa ** 2
    return np.multiply.outer(k2 * h / np.sqrt(d), oval.focus)


def oval_db(x, oval: OvalParams):
    """Sensitivity dh/db of the radius to the oval parameter.

    Equals 1/(1-kappa^2) + kappa^2 (t - b) / ((1-kappa^2) sqrt(delta)); for
    t = x . P >= b the value lies in [1/(1-kappa^2), 1/(1-kappa)].
    """
    t, (_, d) = _radius_at(x, oval)
    k2 = oval.kappa ** 2
    out = 1.0 / (1.0 - k2) + k2 * (t - oval.b) / ((1.0 - k2) * np.sqrt(d))
    return out if np.ndim(out) else float(out)


def oval_extrema(oval: OvalParams):
    """(min, max) of h over the unit sphere: (b - kappa|P|)/(1 +/- kappa).

    The minimum is attained with x antiparallel to P, the maximum parallel.
    """
    num = oval.b - oval.kappa * oval.p_norm
    return num / (1.0 + oval.kappa), num / (1.0 - oval.kappa)


def oval_normal(x, oval: OvalParams):
    """Unit outward normal at the surface point h(x)*x, for a unit x with x . P >= b.

    Built so that refraction of x at this normal aims exactly at the focus:
    nu is the normalized x - kappa*m with m the unit vector from the surface
    point toward P.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("oval_normal expects a single direction; batch callers use normals_for_directions")
    h = oval_radius(x, oval)
    chord = oval.focus - h * x
    m = chord / np.linalg.norm(chord)
    raw = x - oval.kappa * m
    nrm = float(np.linalg.norm(raw))
    if nrm < NORMAL_TOL:
        raise DegenerateNormal("x - kappa*m has near-zero norm")
    return raw / nrm


def normals_for_directions(x, h, focus, kappa):
    """Batch outward normals at the surface points h*x of one oval, for unit
    directions x (n, 3) and the radii h (n,) that oval has there; every
    operation is per row, so a row's normal does not depend on its batch."""
    chord = focus - h[:, None] * x
    m = chord / np.linalg.norm(chord, axis=1)[:, None]
    raw = x - kappa * m
    nrm = np.linalg.norm(raw, axis=1)
    if np.any(nrm < NORMAL_TOL):
        raise DegenerateNormal("x - kappa*m has near-zero norm at some node")
    return raw / nrm[:, None]


def check_normal_consistency(x, oval: OvalParams) -> float:
    """Relative miss of the focus by the ray refracted at h(x)*x.

    A correct normal sends the refracted ray through P; this verification
    helper returns distance(line through surface point along m, P) / |P|.
    """
    x = np.asarray(x, dtype=float)
    nu = oval_normal(x, oval)
    res = refract(x, nu, oval.kappa)
    if res is None:
        raise DegenerateNormal("refraction failed at oval surface point")
    X = oval_radius(x, oval) * x
    rel = np.linalg.norm(np.cross(oval.focus - X, res.m)) / oval.p_norm
    return float(rel)
