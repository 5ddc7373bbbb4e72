"""Oval radius, derivatives, extrema, and the Snell-consistent surface normal.

Frozen reference values come from hand evaluation of the closed forms at
kappa=0.5, P=(0,0,2), b=1.5, x=(sqrt(0.19), 0, 0.9).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refractor.geometry import normalize, tangent_frame
from refractor.oval import (
    NonPositiveDiscriminant,
    OvalParams,
    check_normal_consistency,
    delta,
    normals_for_directions,
    oval_db,
    oval_extrema,
    oval_gradient,
    oval_normal,
    oval_radius,
)

REF = OvalParams(focus=np.array([0.0, 0.0, 2.0]), b=1.5, kappa=0.5)
REF_X = np.array([np.sqrt(0.19), 0.0, 0.9])


def random_oval(rng, kappa_range=(0.05, 0.9)):
    kappa = rng.uniform(*kappa_range)
    p = rng.uniform(0.5, 8.0)
    phat = normalize(rng.normal(size=3))
    b = kappa * p + rng.uniform(0.02, 0.98) * (p - kappa * p)
    return OvalParams(focus=p * phat, b=b, kappa=kappa)


def cone_direction(rng, oval, cmin=None):
    """Random unit x with x . P >= b (the refracting regime)."""
    phat = oval.focus / oval.p_norm
    lo = oval.b / oval.p_norm if cmin is None else cmin
    c = rng.uniform(lo, 1.0)
    t1, t2 = tangent_frame(phat)
    ang = rng.uniform(0.0, 2 * np.pi)
    return normalize(c * phat + np.sqrt(1 - c * c) * (np.cos(ang) * t1 + np.sin(ang) * t2))


# --- discriminant -------------------------------------------------------------

def test_delta_frozen():
    assert abs(delta(1.8, 1.5, 2.0, 0.5) - 0.165) < 1e-15


def test_delta_at_t_extremes():
    b, p, k = 1.3, 2.0, 0.4
    assert abs(delta(p, b, p, k) - k * k * (p - b) ** 2) < 1e-15
    assert abs(delta(-p, b, p, k) - k * k * (b + p) ** 2) < 1e-15


@given(
    st.floats(0.05, 0.95),
    st.floats(0.5, 10.0),
    st.floats(0.02, 0.98),
    st.floats(-0.999, 0.999),
)
@settings(max_examples=300, deadline=None)
def test_delta_two_forms_agree(kappa, p, bfrac, tfrac):
    b = kappa * p + bfrac * (p - kappa * p)
    t = tfrac * p
    d = delta(t, b, p, kappa)
    # the textbook form cancels to ~1e-12 relative in floats, so take it exactly
    K, B, T, P = (Fraction(v) for v in (kappa, b, t, p))
    alt = (B - K * K * T) ** 2 - (1 - K * K) * (B * B - K * K * P * P)
    assert abs(Fraction(float(d)) - alt) <= Fraction(1e-12) * abs(alt)
    assert d > 0


def test_oval_params_validation():
    with pytest.raises(ValueError):
        OvalParams(focus=np.array([0.0, 0.0, 2.0]), b=1.0, kappa=0.5)  # b = kappa|P|
    with pytest.raises(ValueError):
        OvalParams(focus=np.array([0.0, 0.0, 2.0]), b=1.5, kappa=1.1)
    with pytest.raises(ValueError):
        OvalParams(focus=np.array([1.0, 2.0]), b=1.5, kappa=0.5)


# --- radius -------------------------------------------------------------------

def test_radius_frozen():
    h = oval_radius(REF_X, REF)
    assert abs(h - 0.858397) < 1e-6
    X = h * REF_X
    assert abs(h + 0.5 * np.linalg.norm(X - REF.focus) - 1.5) < 1e-10 * REF.b


def test_radius_parallel_antiparallel():
    phat = REF.focus / REF.p_norm
    num = REF.b - REF.kappa * REF.p_norm
    assert abs(oval_radius(phat, REF) - num / (1 - REF.kappa)) < 1e-12
    assert abs(oval_radius(-phat, REF) - num / (1 + REF.kappa)) < 1e-12


def test_radius_batch_matches_scalar(rng):
    x = rng.normal(size=(50, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    h = oval_radius(x, REF)
    for k in range(50):
        assert h[k] == oval_radius(x[k], REF)


def test_defining_and_quadratic_identities(rng):
    for _ in range(200):
        ov = random_oval(rng)
        x = normalize(rng.normal(size=3))
        h = oval_radius(x, ov)
        assert h > 0
        # |X| + kappa |X - P| = b
        ident = h + ov.kappa * np.linalg.norm(h * x - ov.focus) - ov.b
        assert abs(ident) <= 1e-10 * ov.b
        # quadratic form
        t = x @ ov.focus
        k2 = ov.kappa**2
        terms = (
            (1 - k2) * h * h,
            -2 * (ov.b - k2 * t) * h,
            ov.b**2 - k2 * ov.p_norm**2,
        )
        assert abs(sum(terms)) <= 1e-10 * max(abs(v) for v in terms)


def test_radius_strictly_increasing_in_b(rng):
    for _ in range(50):
        ov = random_oval(rng)
        x = normalize(rng.normal(size=3))
        b2 = ov.b + rng.uniform(0.01, 0.5) * (ov.p_norm - ov.b)
        ov2 = OvalParams(focus=ov.focus, b=b2, kappa=ov.kappa)
        assert oval_radius(x, ov2) > oval_radius(x, ov)


def test_nonpositive_discriminant_raises():
    # only reachable with |t| > |P|, i.e. on the non-unit extension
    ov = OvalParams(focus=np.array([0.0, 0.0, 2.0]), b=3.0, kappa=0.5)
    assert delta(3.0, 3.0, 2.0, 0.5) < 0
    with pytest.raises(NonPositiveDiscriminant):
        oval_radius(np.array([0.0, 0.0, 1.5]), ov)


# --- derivatives --------------------------------------------------------------

def test_gradient_frozen():
    # closed form at the reference point: kappa^2 h / sqrt(Delta) * P with
    # h = 0.858397..., Delta = 0.165 gives z = 1.056614; cross-checked by the
    # finite-difference test below
    g = oval_gradient(REF_X, REF)
    h = oval_radius(REF_X, REF)
    expected = REF.kappa**2 * h / np.sqrt(0.165) * np.asarray(REF.focus)
    assert np.max(np.abs(g - expected)) < 1e-12
    assert abs(g[2] - 1.056614) < 1e-6
    assert g[0] == 0.0 and g[1] == 0.0


def test_gradient_parallel_to_focus(rng):
    for _ in range(50):
        ov = random_oval(rng)
        x = normalize(rng.normal(size=3))
        g = oval_gradient(x, ov)
        assert np.linalg.norm(np.cross(g, ov.focus)) <= 1e-12 * np.linalg.norm(g) * ov.p_norm


def test_gradient_matches_finite_differences(rng):
    step = 1e-6
    for _ in range(100):
        ov = random_oval(rng, kappa_range=(0.1, 0.85))
        x = normalize(rng.normal(size=3))
        g = oval_gradient(x, ov)
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = step
            fd[k] = (oval_radius(x + e, ov) - oval_radius(x - e, ov)) / (2 * step)
        assert np.linalg.norm(fd - g) <= 1e-5 * np.linalg.norm(g)


def test_db_frozen():
    v = oval_db(REF_X, REF)
    assert abs(v - 1.579517) < 1e-6
    assert 1.0 / (1 - 0.25) <= v <= 1.0 / (1 - 0.5)


def test_db_at_t_equals_b():
    # x . P = b kills the second term: exactly 1/(1-kappa^2)
    c = REF.b / REF.p_norm
    x = np.array([np.sqrt(1 - c * c), 0.0, c])
    assert abs(x @ REF.focus - REF.b) < 1e-15
    assert abs(oval_db(x, REF) - 1.0 / (1 - 0.25)) < 1e-12


def test_db_parallel_closed_form():
    phat = REF.focus / REF.p_norm
    assert abs(oval_db(phat, REF) - 2.0) < 1e-12


def test_db_range_in_refracting_cone(rng):
    for _ in range(200):
        ov = random_oval(rng)
        x = cone_direction(rng, ov)
        v = oval_db(x, ov)
        k = ov.kappa
        assert 1.0 / (1 - k * k) - 1e-12 <= v <= 1.0 / (1 - k) + 1e-12


def test_db_matches_finite_differences(rng):
    step = 1e-6
    for _ in range(100):
        ov = random_oval(rng, kappa_range=(0.1, 0.85))
        x = normalize(rng.normal(size=3))
        v = oval_db(x, ov)
        hp = oval_radius(x, OvalParams(focus=ov.focus, b=ov.b + step, kappa=ov.kappa))
        hm = oval_radius(x, OvalParams(focus=ov.focus, b=ov.b - step, kappa=ov.kappa))
        assert abs((hp - hm) / (2 * step) - v) <= 1e-5 * abs(v)


# --- extrema ------------------------------------------------------------------

def test_extrema_frozen():
    lo, hi = oval_extrema(REF)
    assert abs(lo - 1.0 / 3.0) < 1e-12
    assert abs(hi - 1.0) < 1e-12


def test_extrema_bound_samples(rng):
    for _ in range(20):
        ov = random_oval(rng)
        x = rng.normal(size=(10000, 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        h = oval_radius(x, ov)
        lo, hi = oval_extrema(ov)
        assert lo < hi
        assert np.all(h >= lo - 1e-9)
        assert np.all(h <= hi + 1e-9)


# --- surface normal -----------------------------------------------------------

def test_normal_axial():
    phat = REF.focus / REF.p_norm
    assert np.allclose(oval_normal(phat, REF), phat, atol=1e-12)


def test_normal_sends_ray_to_focus(rng):
    for _ in range(100):
        ov = random_oval(rng, kappa_range=(0.1, 0.8))
        x = cone_direction(rng, ov)
        assert check_normal_consistency(x, ov) < 1e-9


def test_normal_agrees_with_radial_graph_normal(rng):
    # independent construction: outward normal of the graph r = h(x) is
    # parallel to h*x - (tangential part of grad h)
    for _ in range(100):
        ov = random_oval(rng, kappa_range=(0.1, 0.8))
        x = cone_direction(rng, ov)
        h = oval_radius(x, ov)
        g = oval_gradient(x, ov)
        gs = g - (g @ x) * x
        n_graph = normalize(h * x - gs)
        assert np.linalg.norm(n_graph - oval_normal(x, ov)) < 1e-8


def test_normals_batch_matches_scalar(rng):
    ov = random_oval(rng, kappa_range=(0.2, 0.6))
    x = np.stack([cone_direction(rng, ov, cmin=0.9) for _ in range(40)])
    batch = normals_for_directions(x, ov.focus, ov.b, ov.kappa)
    for k in range(40):
        assert np.allclose(batch[k], oval_normal(x[k], ov), atol=1e-14)


def test_oval_normal_rejects_batch_input():
    with pytest.raises(ValueError):
        oval_normal(np.zeros((4, 3)), REF)
