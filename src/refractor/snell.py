"""Vector refraction across a surface separating two homogeneous media.

All directions are unit vectors. kappa = n2/n1 < 1 is the refractive index
ratio (light passes into the optically denser-to-rarer sense where total
internal reflection is possible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True, eq=False)
class RefractionResult:
    m: np.ndarray       # refracted unit direction
    lam: float          # positive multiplier in x - kappa*m = lam*nu


def critical_cos(kappa: float) -> float:
    """Cosine of the critical incidence angle: sqrt(1 - kappa^2)."""
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")
    return float(np.sqrt(1.0 - kappa * kappa))


def refract_rows(x, nu, kappa: float):
    """Refract unit directions x (n, 3) at unit normals nu (n, 3), row by row.

    Returns (m, lam, ci) with ci = x . nu, the incidence cosine. Where
    ci < critical_cos(kappa) the incidence is beyond the critical angle and m
    and lam mean nothing; the boundary case refracts. Elsewhere
    x - kappa*m = lam*nu with lam > 0 and |m| = 1. Every operation is per
    row, so a row refracts bitwise the same alone as in a batch.
    """
    ci = x[:, 0] * nu[:, 0] + x[:, 1] * nu[:, 1] + x[:, 2] * nu[:, 2]
    # radicand is nonnegative in exact arithmetic whenever ci >= crit;
    # clamp roundoff at grazing incidence
    rad = 1.0 - (1.0 - ci * ci) / (kappa * kappa)
    np.maximum(rad, 0.0, out=rad)
    lam = ci - kappa * np.sqrt(rad)
    m = (x - lam[:, None] * nu) / kappa
    return m, lam, ci


def refract(x, nu, kappa: float) -> Optional[RefractionResult]:
    """Refract incident direction x at a surface with unit normal nu: the
    one-row case of refract_rows, or None beyond the critical angle."""
    crit = critical_cos(kappa)
    m, lam, ci = refract_rows(np.asarray(x, dtype=float).reshape(1, 3),
                              np.asarray(nu, dtype=float).reshape(1, 3), kappa)
    if ci[0] < crit:
        return None
    return RefractionResult(m=m[0], lam=float(lam[0]))
