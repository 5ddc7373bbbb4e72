"""Vector refraction law and the total-internal-reflection criterion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refractor.geometry import normalize, tangent_frame
from refractor.snell import critical_cos, refract


def incidence(nu, ci, ang):
    """Unit incident direction with x . nu = ci, azimuth ang around nu."""
    t1, t2 = tangent_frame(nu)
    s = np.sqrt(max(0.0, 1.0 - ci * ci))
    return ci * nu + s * (np.cos(ang) * t1 + np.sin(ang) * t2)


def test_critical_cos_values():
    assert abs(critical_cos(0.5) - np.sqrt(0.75)) < 1e-15
    assert abs(critical_cos(0.5) - 0.8660254) < 1e-7
    assert abs(critical_cos(0.8) - 0.6) < 1e-15


def test_critical_cos_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            critical_cos(bad)


def test_normal_incidence():
    nu = normalize([0.2, -0.3, 0.9])
    res = refract(nu, nu, 0.4)
    assert res is not None
    assert np.allclose(res.m, nu, atol=1e-15)
    assert abs(res.lam - 0.6) < 1e-15


def test_frozen_half_index_example():
    # kappa = 1/2, incidence cosine 0.95 against the z normal
    x = np.array([np.sqrt(1.0 - 0.95**2), 0.0, 0.95])
    res = refract(x, np.array([0.0, 0.0, 1.0]), 0.5)
    assert res is not None
    assert abs(res.lam - 0.559488) < 1e-6
    assert np.max(np.abs(res.m - np.array([0.624500, 0.0, 0.781025]))) < 1e-6


def test_refraction_invariants_sampled(rng):
    kappa = 0.55
    crit = critical_cos(kappa)
    for _ in range(1000):
        nu = normalize(rng.normal(size=3))
        ci = rng.uniform(crit, 1.0)
        x = incidence(nu, ci, rng.uniform(0, 2 * np.pi))
        res = refract(x, nu, kappa)
        assert res is not None
        m = res.m
        assert abs(np.linalg.norm(m) - 1.0) < 1e-12
        # m stays in the plane of x and nu
        assert abs(np.linalg.det(np.stack([x, nu, m]))) < 1e-12
        # x - kappa m = lam nu componentwise
        assert np.max(np.abs(x - kappa * m - res.lam * nu)) < 1e-12
        # scalar law: sin(theta_i) = kappa sin(theta_r)
        si = np.linalg.norm(np.cross(x, nu))
        sr = np.linalg.norm(np.cross(m, nu))
        assert abs(si - kappa * sr) < 1e-12
        assert x @ m >= kappa - 1e-12


@given(
    st.floats(0.05, 0.95),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2 * np.pi),
    st.tuples(*[st.floats(-1, 1).filter(lambda v: abs(v) > 1e-3)] * 3),
)
@settings(max_examples=200, deadline=None)
def test_refraction_invariants_property(kappa, frac, ang, nu_raw):
    nu = normalize(np.array(nu_raw))
    crit = critical_cos(kappa)
    ci = crit + frac * (1.0 - crit)
    x = incidence(nu, ci, ang)
    res = refract(x, nu, kappa)
    if x[0] * nu[0] + x[1] * nu[1] + x[2] * nu[2] < crit:
        # assembling x from (ci, ang) can round the realised cosine one ulp
        # below critical; classification follows the realised value, summed
        # componentwise as refract sums it
        assert res is None
        return
    assert res is not None
    assert abs(np.linalg.norm(res.m) - 1.0) < 1e-12
    si = np.linalg.norm(np.cross(x, nu))
    sr = np.linalg.norm(np.cross(res.m, nu))
    assert abs(si - kappa * sr) < 1e-12


def test_beyond_critical_is_empty():
    # kappa=0.5: critical cosine ~0.866025; 0.86 is past it
    nu = np.array([0.0, 0.0, 1.0])
    x = incidence(nu, 0.86, 0.3)
    assert refract(x, nu, 0.5) is None


def test_boundary_classification_one_ulp():
    # x . e_z extracts the z component exactly, so the incidence cosine is
    # controlled ulp-by-ulp
    kappa = 0.5
    crit = critical_cos(kappa)
    nu = np.array([0.0, 0.0, 1.0])
    for ci, expect_ray in (
        (crit, True),                        # boundary refracts (grazing exit)
        (np.nextafter(crit, 0.0), False),    # one ulp below: total internal reflection
        (np.nextafter(crit, 1.0), True),
    ):
        x = np.array([np.sqrt(1.0 - ci * ci), 0.0, ci])
        res = refract(x, nu, kappa)
        assert (res is not None) == expect_ray


def test_grazing_exit_stays_unit():
    kappa = 0.5
    crit = critical_cos(kappa)
    nu = np.array([0.0, 0.0, 1.0])
    x = np.array([np.sqrt(1 - crit * crit), 0.0, crit])
    res = refract(x, nu, kappa)
    assert res is not None
    assert abs(np.linalg.norm(res.m) - 1.0) < 1e-12
    # the refracted ray leaves parallel to the surface: m . nu ~ 0
    assert abs(res.m @ nu) < 1e-7
