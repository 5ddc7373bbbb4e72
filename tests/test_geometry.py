"""Cap domain, tangent frames, spherical directions, midpoint quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refractor.geometry import (
    CapDomain,
    build_quadrature,
    cap_area,
    cap_min_dot,
    dir_from_spherical,
    normalize,
    tangent_frame,
)

Z_CAP = CapDomain(axis=np.array([0.0, 0.0, 1.0]), half_angle=np.deg2rad(10.0))

unit_axes = st.builds(
    lambda v: normalize(np.array(v)),
    st.tuples(*[st.floats(-1, 1).filter(lambda x: abs(x) > 1e-3)] * 3),
)


def test_normalize_rescales():
    v = normalize([3.0, 0.0, 4.0])
    assert np.allclose(v, [0.6, 0.0, 0.8])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize([0.0, 0.0, 0.0])


def test_tangent_frame_z_axis():
    # smallest-|component| rule: e_x wins the tie against e_y for the z axis
    t1, t2 = tangent_frame(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(t1, [1.0, 0.0, 0.0])
    assert np.allclose(t2, [0.0, 1.0, 0.0])


def test_tangent_frame_all_equal_components():
    axis = normalize([1.0, 1.0, 1.0])
    t1, _ = tangent_frame(axis)
    # first index wins the three-way tie, so t1 is e_x orthogonalized
    assert t1[1] == t1[2]
    assert t1[0] > 0


@given(unit_axes)
@settings(max_examples=100, deadline=None)
def test_tangent_frame_orthonormal(axis):
    t1, t2 = tangent_frame(axis)
    assert abs(np.linalg.norm(t1) - 1.0) < 1e-12
    assert abs(np.linalg.norm(t2) - 1.0) < 1e-12
    assert abs(t1 @ axis) < 1e-12
    assert abs(t2 @ axis) < 1e-12
    assert abs(t1 @ t2) < 1e-12
    # right-handed completion
    assert np.allclose(np.cross(axis, t1), t2, atol=1e-12)


def test_cap_domain_validation():
    with pytest.raises(ValueError):
        CapDomain(axis=np.array([0.0, 0.0, 2.0]), half_angle=0.1)
    with pytest.raises(ValueError):
        CapDomain(axis=np.array([0.0, 0.0, 1.0]), half_angle=0.0)
    with pytest.raises(ValueError):
        CapDomain(axis=np.array([0.0, 0.0, 1.0]), half_angle=np.pi / 2)
    with pytest.raises(ValueError):
        CapDomain(axis=np.array([0.0, 1.0]), half_angle=0.1)


def test_dir_from_spherical_pole_and_equator():
    x = dir_from_spherical(0.0, 1.234, Z_CAP)
    assert np.allclose(x, Z_CAP.axis, atol=1e-15)
    t1, _ = Z_CAP.frame()
    x = dir_from_spherical(np.pi / 2, 0.0, Z_CAP)
    assert np.allclose(x, t1, atol=1e-15)


def test_dir_from_spherical_frozen_polar():
    x = dir_from_spherical(0.1745, 1.0, Z_CAP)
    assert abs(x[2] - np.cos(0.1745)) < 1e-15
    assert abs(x[2] - 0.984808) < 1e-5


def test_dir_from_spherical_rejects_bad_theta():
    with pytest.raises(ValueError):
        dir_from_spherical(-0.1, 0.0, Z_CAP)
    with pytest.raises(ValueError):
        dir_from_spherical(np.pi + 0.1, 0.0, Z_CAP)


@given(
    unit_axes,
    st.floats(0.0, np.pi),
    st.floats(0.0, 2 * np.pi),
)
@settings(max_examples=200, deadline=None)
def test_dir_from_spherical_cos_property(axis, theta, phi):
    cap = CapDomain(axis=axis, half_angle=0.3)
    x = dir_from_spherical(theta, phi, cap)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    assert abs(x @ axis - np.cos(theta)) < 1e-12


def test_dir_from_spherical_broadcasts():
    thetas = np.array([0.0, 0.1, 0.2])
    phis = np.array([0.0, 1.0, 2.0])
    x = dir_from_spherical(thetas, phis, Z_CAP)
    assert x.shape == (3, 3)
    for k in range(3):
        assert np.allclose(x[k], dir_from_spherical(thetas[k], phis[k], Z_CAP))


def test_build_quadrature_structure():
    cap = CapDomain(axis=normalize([1.0, 2.0, -0.5]), half_angle=1.0)
    grid = build_quadrature(cap, 4, 4)
    assert grid.n_nodes == 16
    assert np.all(grid.weights > 0)
    # theta-major ordering: ring k occupies nodes [k*n_phi, (k+1)*n_phi)
    dtheta = 1.0 / 4
    assert np.allclose(grid.thetas[:4], 0.5 * dtheta)
    assert np.allclose(grid.thetas[4:8], 1.5 * dtheta)
    assert np.allclose(grid.phis[:4], grid.phis[4:8])
    # all nodes inside the cap
    assert np.all(grid.nodes @ cap.axis >= np.cos(cap.half_angle) - 1e-12)
    assert np.allclose(np.linalg.norm(grid.nodes, axis=1), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(axis=unit_axes, half_angle=st.floats(0.01, 1.5), n_theta=st.integers(2, 70),
       n_phi=st.integers(2, 70))
def test_build_quadrature_matches_per_node_evaluation(axis, half_angle, n_theta, n_phi):
    """The grid takes its sines and cosines once per ring and azimuth; its
    nodes and weights are bitwise those of evaluating every node alone."""
    cap = CapDomain(axis=axis, half_angle=half_angle)
    grid = build_quadrature(cap, n_theta, n_phi)
    nodes = dir_from_spherical(grid.thetas, grid.phis, cap)
    weights = np.sin(grid.thetas) * (half_angle / n_theta) * (2.0 * np.pi / n_phi)
    assert grid.nodes.tobytes() == nodes.tobytes()
    assert grid.weights.tobytes() == weights.tobytes()


def test_build_quadrature_minimum_size():
    with pytest.raises(ValueError):
        build_quadrature(Z_CAP, 1, 8)
    with pytest.raises(ValueError):
        build_quadrature(Z_CAP, 8, 1)


def test_quadrature_area_10deg():
    grid = build_quadrature(Z_CAP, 256, 256)
    area = cap_area(Z_CAP)
    assert abs(area - 0.0954557030567379) < 1e-15
    assert abs(grid.total_weight - area) / area < 1e-4


def test_quadrature_second_order_in_theta():
    # the phi rule is exact for a cap, so the error is O(dtheta^2):
    # doubling n_theta should shrink it by ~4
    area = cap_area(Z_CAP)
    e64 = abs(build_quadrature(Z_CAP, 64, 8).total_weight - area)
    e128 = abs(build_quadrature(Z_CAP, 128, 8).total_weight - area)
    assert 3.0 < e64 / e128 < 5.0


def test_cap_min_dot_alignment_cases():
    assert abs(cap_min_dot(Z_CAP, Z_CAP.axis) - np.cos(Z_CAP.half_angle)) < 1e-15
    v = np.array([1.0, 0.0, 0.0])
    assert abs(cap_min_dot(Z_CAP, v) - (-0.173648)) < 1e-6
    assert abs(cap_min_dot(Z_CAP, v) + np.sin(Z_CAP.half_angle)) < 1e-15
    # once angle(axis, v) + psi passes pi the closed cap contains -v
    assert cap_min_dot(Z_CAP, np.array([0.0, 0.0, -1.0])) == -1.0


def test_cap_min_dot_lower_bounds_samples(rng):
    cap = CapDomain(axis=normalize([0.3, -0.4, 0.86]), half_angle=0.6)
    u = rng.random(200000)
    costh = 1.0 - u * (1.0 - np.cos(cap.half_angle))
    phi = rng.uniform(0.0, 2 * np.pi, size=u.size)
    x = dir_from_spherical(np.arccos(costh), phi, cap)
    for v in (cap.axis, normalize([1, 1, 1]), normalize([-1, 0.2, 0.1]), np.array([0.0, 1.0, 0.0])):
        assert float(np.min(x @ v)) >= cap_min_dot(cap, v) - 1e-12
