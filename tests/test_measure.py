"""Cell decomposition, energy measure, and mesh export for poly-oval surfaces."""

import csv
import io
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from refractor import measure as measure_module
from refractor.geometry import CapDomain, QuadratureGrid, build_quadrature, dir_from_spherical
from refractor.measure import (
    ROWS_PER_WRITE,
    MeasureOracle,
    SurfaceMesh,
    _fold,
    assign_cells,
    distinct_strings,
    export_mesh,
    flood_vector,
    node_energies,
    radii_matrix,
    refractor_measure,
    rho,
    surface,
    write_label_csv,
    write_obj,
    write_rows,
)
from refractor.oval import (
    NonPositiveDiscriminant,
    OvalParams,
    dot,
    normals_for_directions,
    oval_extrema,
    oval_normal,
    oval_radius,
)
from refractor.scene import (
    InadmissibleBVector,
    IntensitySpec,
    Scene,
    TargetPoint,
    admissible_bounds,
    alpha_bound,
    initial_admissible_vector,
    target_weights,
)
from refractor.solver import MonotoneOracleSpec, solve
from refractor.parallel import CHUNK, chunk_slices


def cap_directions(rng, cap, n):
    thetas = cap.half_angle * np.sqrt(rng.random(n))
    phis = 2 * np.pi * rng.random(n)
    return dir_from_spherical(thetas, phis, cap)


@pytest.fixture(scope="module")
def b_init(canonical_scene):
    return initial_admissible_vector(canonical_scene)


# --- radii matrix -------------------------------------------------------------

def test_radii_matrix_matches_scalar_radius(canonical_scene, b_init, rng):
    dirs = cap_directions(rng, canonical_scene.cap, 40)
    mat = radii_matrix(canonical_scene, b_init, dirs)
    assert mat.shape == (40, 4)
    for j in range(4):
        ov = OvalParams(canonical_scene.targets[j].point, float(b_init[j]),
                        canonical_scene.kappa)
        for k in range(40):
            assert abs(mat[k, j] - oval_radius(dirs[k], ov)) < 1e-14


def test_oval_radius_is_a_column_of_radii_matrix(canonical_scene, b_init, rng):
    """Both take t = x . P from oval.dot, so each column is bitwise the
    oval's own radius, in one batch and direction by direction."""
    dirs = cap_directions(rng, canonical_scene.cap, 500)
    mat = radii_matrix(canonical_scene, b_init, dirs)
    for j in range(4):
        ov = OvalParams(canonical_scene.points[j], float(b_init[j]), canonical_scene.kappa)
        assert np.array_equal(mat[:, j], oval_radius(dirs, ov))
        assert all(mat[k, j] == oval_radius(dirs[k], ov) for k in range(0, 500, 7))


def test_chunking_covers_range():
    sls = chunk_slices(3 * CHUNK + 17)
    assert len(sls) == 4
    assert sls[0] == slice(0, CHUNK)
    assert sls[-1] == slice(3 * CHUNK, 3 * CHUNK + 17)


def test_rho_at_axis(canonical_scene, b_init):
    r, label = rho(canonical_scene, b_init, [0.0, 0.0, 1.0])
    assert label == 0
    ov = OvalParams(canonical_scene.targets[0].point, canonical_scene.b1, 0.3)
    assert abs(r - oval_radius(np.array([0.0, 0.0, 1.0]), ov)) < 1e-15


# --- surface: cell, radius and normal ----------------------------------------------

@pytest.fixture(scope="module")
def chunk_span(canonical_scene):
    """CHUNK + 17 cap directions, so the input spans a chunk boundary, and the
    surface there at the canonical design, where all four cells meet."""
    dirs = cap_directions(np.random.default_rng(20261019), canonical_scene.cap, CHUNK + 17)
    return dirs, surface(canonical_scene, B_DESIGN, dirs)


def test_surface_is_argmin_of_radii_matrix(canonical_scene, chunk_span):
    dirs, (labels, radius, _) = chunk_span
    radii = radii_matrix(canonical_scene, B_DESIGN, dirs)
    expected = np.argmin(radii, axis=1)
    assert set(np.unique(expected)) == {0, 1, 2, 3}
    assert np.array_equal(labels, expected)
    assert np.array_equal(radius, np.take_along_axis(radii, expected[:, None], axis=1)[:, 0])


def test_surface_normals_are_the_owning_ovals(canonical_scene, chunk_span):
    """Bitwise normals_for_directions of each cell's directions and radii in
    each chunk, and within 1e-12 of the scalar oval_normal on both sides of
    the chunk boundary."""
    dirs, (labels, radius, normals) = chunk_span
    expected = np.empty_like(normals)
    for sl in chunk_slices(len(dirs)):
        for j in range(4):
            mask = labels[sl] == j
            expected[sl][mask] = normals_for_directions(
                dirs[sl][mask], radius[sl][mask], canonical_scene.points[j], canonical_scene.kappa)
    assert np.array_equal(normals, expected)
    for k in [*range(100), *range(CHUNK - 100, CHUNK + 17)]:
        j = int(labels[k])
        ov = OvalParams(canonical_scene.points[j], B_DESIGN[j], canonical_scene.kappa)
        assert np.max(np.abs(normals[k] - oval_normal(dirs[k], ov))) < 1e-12


def test_surface_tie_takes_the_smaller_index_normal():
    """Targets mirrored exactly in y with equal b tie bitwise on the plane
    y = 0, where their normals differ in the sign of y: target 1 supplies it."""
    p = np.array([-2.4620193825305208, 0.8682408883346514, 4.264342659762216])
    q = p * [1.0, -1.0, 1.0]
    sc = Scene(kappa=0.3, cap=CapDomain(axis=np.array([0.0, 0.0, 1.0]), half_angle=np.deg2rad(10.0)),
               targets=(TargetPoint(p, 1.0), TargetPoint(q, 1.0)),
               intensity=IntensitySpec(kind="constant", amplitude=1.0), tau=0.2, r0=0.5, b1=1.6)
    s = np.linspace(-0.17, 0.17, 41)
    dirs = np.stack([s, np.zeros_like(s), np.sqrt(1.0 - s * s)], axis=1)
    radii = radii_matrix(sc, [1.6, 1.6], dirs)
    assert np.array_equal(radii[:, 0], radii[:, 1])
    labels, radius, normals = surface(sc, [1.6, 1.6], dirs)
    assert np.all(labels == 0)
    assert np.array_equal(radius, radii[:, 0])
    assert np.array_equal(normals, normals_for_directions(dirs, radius, p, 0.3))
    assert np.all(normals[:, 1] < 0.0) and np.all(normals_for_directions(dirs, radius, q, 0.3)[:, 1] > 0.0)


def test_surface_normal_is_independent_of_the_batch(canonical_scene, chunk_span):
    """Each oval is evaluated once per direction and every operation is per
    row, so a direction's cell, radius and normal are bitwise the same in a
    one-direction call as in the chunked batch, on both sides of the chunk
    boundary."""
    dirs, (labels, radius, normals) = chunk_span
    rows = [*range(0, CHUNK - 500, 40), *range(CHUNK - 500, CHUNK + 17)]
    assert len(rows) >= 2000 and set(labels[rows]) == {0, 1, 2, 3}
    for k in rows:
        lab, r, nu = surface(canonical_scene, B_DESIGN, dirs[k:k + 1])
        assert (lab[0], r[0]) == (labels[k], radius[k])
        assert np.array_equal(nu[0], normals[k])


def test_rho_is_a_row_of_surface(canonical_scene, chunk_span):
    dirs, (labels, radius, _) = chunk_span
    for k in (0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 16):
        assert rho(canonical_scene, B_DESIGN, dirs[k]) == (radius[k], labels[k])


def test_rho_refuses_inadmissible_b(canonical_scene):
    with pytest.raises(InadmissibleBVector):
        rho(canonical_scene, [1.0, 1.6, 1.6, 1.6], [0.0, 0.0, 1.0])


# --- cell assignment ----------------------------------------------------------

def test_initial_vector_floods_first_cell(canonical_scene, b_init, grid64):
    assert np.all(assign_cells(canonical_scene, b_init, grid64) == 0)


def test_flood_vector_floods_each_cell(canonical_scene, b_init, grid64):
    for i in range(4):
        bf = flood_vector(canonical_scene, b_init, i)
        labels = assign_cells(canonical_scene, bf, grid64)
        assert np.all(labels == i), f"cell {i} did not flood"


def test_flood_vector_formula(canonical_scene, b_init):
    bf = flood_vector(canonical_scene, b_init, 2)
    kp = canonical_scene.kappa * canonical_scene.p_norms
    spans = np.delete(b_init - kp, 2)
    expected = kp[2] + float(np.min(spans)) * 0.7 / 1.3 * (1.0 - 1e-9)
    assert bf[2] == expected
    assert np.array_equal(np.delete(bf, 2), np.delete(b_init, 2))


def test_identical_targets_tie_everywhere(grid64):
    p = np.array([2.5, 0.0, 4.330127018922194])
    sc = Scene(kappa=0.3,
               cap=CapDomain(axis=np.array([0.0, 0.0, 1.0]),
                             half_angle=np.deg2rad(10.0)),
               targets=(TargetPoint(p, 1.0), TargetPoint(p.copy(), 1.0)),
               intensity=IntensitySpec(kind="constant", amplitude=1.0),
               tau=0.2, r0=0.5, b1=1.6)
    assert np.all(assign_cells(sc, [1.6, 1.6], grid64) == 0)  # smallest index wins


# --- energies -----------------------------------------------------------------

def test_total_energy_constant(canonical_scene, grid64):
    ones = np.ones(grid64.n_nodes)
    assert float(np.sum(node_energies(grid64, ones))) == grid64.total_weight
    assert float(np.sum(node_energies(grid64, 2.0 * ones))) == 2.0 * grid64.total_weight


def test_total_energy_gaussian_against_quad():
    """Azimuth-independent intensity: the phi rule is exact, the theta rule is
    second order; compare against an adaptive 1D oracle."""
    cap = CapDomain(axis=np.array([0.0, 0.0, 1.0]), half_angle=np.deg2rad(10.0))
    grid = build_quadrature(cap, 512, 8)
    width = np.deg2rad(5.0)
    spec = IntensitySpec(kind="axial-gaussian", amplitude=2.0, width=width)
    got = float(np.sum(node_energies(grid, spec.values(grid))))
    oracle, err = scipy.integrate.quad(
        lambda t: 2.0 * np.exp(-((t / width) ** 2)) * np.sin(t),
        0.0, cap.half_angle)
    oracle *= 2.0 * np.pi
    assert err < 1e-12 * abs(oracle)
    assert abs(got - oracle) < 1e-4 * abs(oracle)


def test_measure_partitions_total(canonical_scene, b_init, grid64, rng):
    f = canonical_scene.intensity.values(grid64)
    e = node_energies(grid64, f)
    lower = canonical_scene.kappa * canonical_scene.p_norms
    for _ in range(10):
        b = lower + (b_init - lower) * rng.uniform(0.05, 1.0, size=4)
        mv = refractor_measure(canonical_scene, b, grid64, f)
        assert float(np.sum(mv.H)) == mv.total
        assert abs(mv.total - float(np.sum(node_energies(grid64, f)))) < float(np.min(e)) / 2.0
        assert np.all(mv.H >= 0.0)


def test_measure_initial_vector(canonical_scene, b_init, grid64):
    f = canonical_scene.intensity.values(grid64)
    mv = refractor_measure(canonical_scene, b_init, grid64, f)
    assert mv.H[0] == mv.total
    assert np.all(mv.H[1:] == 0.0)


def test_measure_monotone_bitwise(canonical_scene, b_init, grid64, rng):
    """Lowering one coordinate grows that cell's node set, and sequential
    summation of a superset of nonnegative terms can only increase."""
    f = canonical_scene.intensity.values(grid64)
    lower = canonical_scene.kappa * canonical_scene.p_norms
    for _ in range(20):
        b = lower + (b_init - lower) * rng.uniform(0.3, 1.0, size=4)
        i = int(rng.integers(4))
        before = refractor_measure(canonical_scene, b, grid64, f)
        b2 = b.copy()
        b2[i] = lower[i] + (b[i] - lower[i]) * rng.uniform(0.05, 0.95)
        after = refractor_measure(canonical_scene, b2, grid64, f)
        assert after.H[i] >= before.H[i]
        for j in range(4):
            if j != i:
                assert after.H[j] <= before.H[j]


# --- mesh export ----------------------------------------------------------------

def test_export_mesh_structure(canonical_scene, b_init):
    mesh = export_mesh(canonical_scene, b_init, 8, 16)
    assert mesh.vertices.shape == (128, 3)
    assert mesh.normals.shape == (128, 3)
    assert mesh.faces.shape == (2 * 7 * 16, 3)
    assert mesh.labels.shape == (128,)
    assert np.all(mesh.labels == 0)

    radii = np.linalg.norm(mesh.vertices, axis=1)
    ov = OvalParams(canonical_scene.targets[0].point, canonical_scene.b1, 0.3)
    h_min, h_max = oval_extrema(ov)
    assert np.all(radii >= h_min - 1e-12)
    assert np.all(radii <= h_max + 1e-12)

    assert np.max(np.abs(np.linalg.norm(mesh.normals, axis=1) - 1.0)) < 1e-12

    assert mesh.faces.min() == 0
    assert mesh.faces.max() == 127
    for tri in mesh.faces:
        assert len(set(int(v) for v in tri)) == 3


def test_export_mesh_rejects_bad_sizes(canonical_scene, b_init):
    with pytest.raises(ValueError):
        export_mesh(canonical_scene, b_init, 1, 16)
    with pytest.raises(ValueError):
        export_mesh(canonical_scene, b_init, 8, 2)
    with pytest.raises(InadmissibleBVector):
        export_mesh(canonical_scene, [1.0, 1.6, 1.6, 1.6], 8, 16)


def test_write_obj_roundtrip(canonical_scene, b_init, tmp_path):
    mesh = export_mesh(canonical_scene, b_init, 4, 6)
    path = tmp_path / "surface.obj"
    write_obj(mesh, path)
    v, vn, f = [], [], []
    for line in path.read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            v.append([float(s) for s in parts[1:]])
        elif parts[0] == "vn":
            vn.append([float(s) for s in parts[1:]])
        elif parts[0] == "f":
            f.append([int(s.split("//")[0]) for s in parts[1:]])
    assert np.array_equal(np.array(v), mesh.vertices)  # %.17g round-trips
    assert np.array_equal(np.array(vn), mesh.normals)
    assert np.array_equal(np.array(f) - 1, mesh.faces)
    assert min(min(row) for row in f) == 1


def test_write_obj_edge_values_parse_back(edge_values, tmp_path):
    """Every v and vn token parses to the bit pattern of its double (both zeros,
    subnormals, infinities, 1e300, 0.1); a NaN parses as NaN."""
    vertices = np.stack([edge_values, edge_values[::-1], np.roll(edge_values, 1)], axis=1)
    mesh = SurfaceMesh(vertices=vertices, normals=vertices[::-1].copy(),
                       faces=np.array([[0, 1, 2]]), labels=np.zeros(len(vertices), dtype=int))
    write_obj(mesh, tmp_path / "edge.obj")
    parsed = {"v": [], "vn": []}
    for line in (tmp_path / "edge.obj").read_text().splitlines():
        tag, *tokens = line.split()
        if tag in parsed:
            parsed[tag].append([float(t) for t in tokens])
    for tag, want in (("v", mesh.vertices), ("vn", mesh.normals)):
        got = np.array(parsed[tag])
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_write_label_csv(canonical_scene, b_init, grid64, tmp_path):
    f = canonical_scene.intensity.values(grid64)
    labels = assign_cells(canonical_scene, b_init, grid64)
    path = tmp_path / "labels.csv"
    write_label_csv(path, grid64, f, labels)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_index,theta,phi,weight,f,label"
    assert len(lines) == grid64.n_nodes + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[5] == "1"  # 1-based target labels
    assert float(first[3]) == float(grid64.weights[0])


# --- incremental measure oracle ---------------------------------------------------

# canonical design at 256x256: several cells meet, so labels and creases vary
B_DESIGN = [1.6, 1.5951188098475972, 1.5951231601142357, 1.6000067538637417]


def _tie_scene(canonical_scene):
    """Canonical targets 1 and 2 plus a copy of target 2: equal b_2, b_3 tie
    every node where oval 2 is lowest, so the smallest-index rule decides."""
    pts = canonical_scene.points
    return Scene(kappa=canonical_scene.kappa, cap=canonical_scene.cap,
                 targets=tuple(TargetPoint(p.copy(), 1.0) for p in (pts[0], pts[1], pts[1])),
                 intensity=IntensitySpec(kind="constant", amplitude=1.0),
                 tau=0.2, r0=0.5, b1=1.6)


@pytest.fixture(scope="module")
def tie_case(canonical_scene):
    scene = _tie_scene(canonical_scene)
    return scene, build_quadrature(scene.cap, 24, 24)


# the cells share the cap for b_j within a few 1e-3 of 1.595; wider values flood
B_VALUES = st.one_of(st.sampled_from([1.594, 1.5951, 1.5955, 1.596, 1.6]),
                     st.floats(1.59, 1.602), st.floats(1.555, 2.1))
# offsets of b_j from its last value: a few ulps, where rounding of h_j decides
# the comparisons with the other ovals, up to steps of 1e-9
NUDGES = st.sampled_from([1, -1, 3, -7, 1e-13, -1e-12, 1e-11, -3e-11, 1e-10, -1e-9])
OPS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 2), B_VALUES),
    st.tuples(st.just("nudge"), st.integers(0, 2), NUDGES),
    st.tuples(st.just("back"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("multi"), st.lists(B_VALUES, min_size=3, max_size=3)),
)


@settings(max_examples=150, deadline=None)
@given(start=st.lists(B_VALUES, min_size=3, max_size=3),
       ops=st.lists(OPS, min_size=1, max_size=30))
def test_oracle_matches_measure_on_any_call_sequence(tie_case, start, ops):
    """Calls that jump far along one coordinate, repeat a value, return to an
    earlier b, switch coordinate, move several coordinates or land within a
    few ulps of an earlier call: every answer is bitwise the fresh
    measure."""
    scene, grid = tie_case
    f = np.ones(grid.n_nodes)
    oracle = MeasureOracle(scene, grid, node_energies(grid, f))
    history = [np.array(start, dtype=float)]
    for op in ops:
        b = history[-1].copy()
        if op[0] == "set":
            b[op[1]] = op[2]
        elif op[0] == "nudge":
            step = op[2] * np.spacing(b[op[1]]) if isinstance(op[2], int) else op[2]
            b[op[1]] += step
        elif op[0] == "back":
            b = history[op[1] % len(history)].copy()
        else:
            b = np.array(op[1], dtype=float)
        history.append(b)
    for b in history:
        got = oracle(b)
        assert np.array_equal(got, refractor_measure(scene, b, grid, f).H), b


def test_oracle_probe_next_to_breakpoint(canonical_scene, grid64):
    """Calls that move b_j by one ulp and back again: each one sees the
    labels of its own b_j, bitwise as the fresh measure does."""
    f = canonical_scene.intensity.values(grid64)
    oracle = MeasureOracle(canonical_scene, grid64, node_energies(grid64, f))
    b = np.array(B_DESIGN)
    near = np.nextafter(1.5948, 2.0)
    seen = set()
    for bj in (B_DESIGN[1], 1.5948, near, B_DESIGN[1], near, 1.5955, near, 1.5948,
               1.5953, near - 1e-12):
        b[1] = bj
        H = refractor_measure(canonical_scene, b, grid64, f).H
        assert np.array_equal(oracle(b), H), bj
        seen.add(tuple(H))
    assert len(seen) >= 4


def test_oracle_raises_nonpositive_discriminant(canonical_scene, grid64):
    """The discriminant check runs on every node the oracle evaluates: a node
    at 1.2 P_2 / |P_2| has t = 1.2 |P_2|, so its discriminant is negative for
    b_2 near t, both in a full evaluation and in a probe that re-evaluates it."""
    p = canonical_scene.points[1]
    nodes = np.vstack([grid64.nodes[:300], 1.2 * p / np.linalg.norm(p)])
    grid = SimpleNamespace(nodes=nodes, n_nodes=len(nodes))
    e = np.ones(len(nodes))

    def fresh(b):
        labels = np.argmin(radii_matrix(canonical_scene, b, nodes), axis=1)
        return np.bincount(labels, weights=e, minlength=4)

    b = np.array([3.0, 2.0, 3.0, 3.0])   # the extra node sits in cell 2
    bad = b.copy()
    bad[1] = 3.0
    with pytest.raises(NonPositiveDiscriminant):
        fresh(bad)
    with pytest.raises(NonPositiveDiscriminant):
        MeasureOracle(canonical_scene, grid, e)(bad)

    oracle = MeasureOracle(canonical_scene, grid, e)
    assert np.array_equal(oracle(b), fresh(b))
    with pytest.raises(NonPositiveDiscriminant):
        oracle(bad)
    ok = b.copy()
    ok[1] = 2.2
    assert np.array_equal(oracle(ok), fresh(ok))


def _reference_crossing(scene, grid, energies, b, j, f_j):
    """MeasureOracle.crossing rebuilt from radii_matrix alone: per node outside
    cell j, the argmin over the other columns and its minimum, taken to the
    next float above (np.nextafter) where that argmin is above j; the switch
    values sorted in full, descending, and the same landing rule."""
    radii = radii_matrix(scene, b, grid.nodes)
    labels = np.argmin(radii, axis=1)
    H_j = np.bincount(labels, weights=energies, minlength=scene.n_targets)[j]
    need = f_j - H_j + energies.size * np.finfo(float).eps * abs(f_j)
    out = np.flatnonzero(labels != j)
    e = energies[out]
    if not 0.0 < need <= e.sum():
        return None
    others = np.delete(radii[out], j, axis=1)
    arg = np.argmin(others, axis=1)
    low = others[np.arange(out.size), arg]
    arg += arg >= j
    low = np.where(arg > j, np.nextafter(low, np.inf), low)
    t = dot(grid.nodes[out], scene.points[j])
    s = low + scene.kappa * np.sqrt(low * low - 2.0 * low * t + scene.p_norms[j] ** 2)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    m = int(np.searchsorted(np.cumsum(e[order]), need))
    below = np.flatnonzero(s[m + 1:] < s[m]) if m < out.size else []
    if not len(below):
        return None
    return 0.5 * (float(s[m]) + float(s[m + 1 + below[0]]))


def _check_crossings(oracle, scene, grid, f_values, b, g):
    """Every coordinate's crossing at b, for the targets g and for a target a
    little and a lot above H_j, is bitwise the reference's."""
    energies = node_energies(grid, f_values)
    H = refractor_measure(scene, b, grid, f_values).H
    out_energy = energies.sum() - H
    for j in range(scene.n_targets):
        for f_j in (g[j], H[j] + 1e-3 * out_energy[j], H[j] + 0.5 * out_energy[j]):
            got = oracle.crossing(b, j, float(f_j))
            assert got == _reference_crossing(scene, grid, energies, b, j, float(f_j)), (b, j, f_j)


def test_crossing_matches_reference_on_tie_scene(tie_case):
    """Targets 2 and 3 coincide: with b_2 == b_3 every node of oval 2 ties,
    and the fold decides which cell each switch value belongs to. The
    states are reached by lowering one coordinate onto the other's value,
    raising it again and nudging b_3 by a few ulps."""
    scene, grid = tie_case
    f = np.ones(grid.n_nodes)
    oracle = MeasureOracle(scene, grid, node_energies(grid, f))
    g = np.full(3, float(np.sum(node_energies(grid, f))) / 3.0)
    b = np.array([1.6, 1.5958, 1.5955])
    for k, bj in ((0, 1.6), (1, 1.5955), (2, 1.5951), (1, 1.5951), (2, 1.5955), (1, 1.5958)):
        b[k] = bj
        for ulps in (0, 3, -1, 0):
            probe = b.copy()
            probe[2] = b[2] + ulps * np.spacing(b[2])
            oracle(probe)
            _check_crossings(oracle, scene, grid, f, probe, g)


def test_oracle_lowers_a_row_onto_a_tie(tie_case):
    """Lowering b_2 onto b_3 (equal ovals) moves every node of cell 3 to
    cell 2 by the smallest-index rule, on the one-row path."""
    scene, grid = tie_case
    f = np.ones(grid.n_nodes)
    oracle = MeasureOracle(scene, grid, node_energies(grid, f))
    b = np.array([1.6, 1.5958, 1.5955])
    assert np.any(oracle.labels(b) == 2)
    b[1] = 1.5955
    labels = oracle.labels(b)
    assert oracle.full_relabels == 1 and oracle.rows_evaluated == 4
    assert 2 not in labels and np.array_equal(labels, assign_cells(scene, b, grid))
    assert np.array_equal(oracle(b), refractor_measure(scene, b, grid, f).H)


def test_crossing_matches_reference_along_a_descent(canonical_scene, grid64):
    """The crossing -> check -> next coordinate sequence of a whole canonical
    64x64 descent, each crossing compared with the reference at its b; then
    states one and a few ulps from the final b."""
    scene, grid = canonical_scene, grid64
    f_values = scene.intensity.values(grid)
    energies = node_energies(grid, f_values)
    g = target_weights(scene, grid, f_values)
    oracle = MeasureOracle(scene, grid, energies)
    seen = []

    def crossing(b, j, f_j):
        got = oracle.crossing(b, j, f_j)
        assert got == _reference_crossing(scene, grid, energies, b, j, f_j), (b, j)
        seen.append(got)
        return got

    lower, upper = admissible_bounds(scene)
    spec = MonotoneOracleSpec(evaluate=oracle, lower=lower, upper=upper,
                              limits=np.full(scene.n_targets, energies.sum()))
    delta = 2e-2 * energies.sum() / scene.n_targets
    b, trace = solve(spec, g, initial_admissible_vector(scene), delta,
                     floors=lower + alpha_bound(scene), crossing=crossing)
    assert trace.converged and len(seen) >= 6 and None not in seen
    for j, ulps in ((1, 1), (2, -1), (3, 3), (1, -2)):
        b = b.copy()
        b[j] += ulps * np.spacing(b[j])
        oracle(b)
        _check_crossings(oracle, scene, grid, f_values, b, g)


def test_oracle_refuses_a_nonpositive_radius(canonical_scene, grid64):
    """The fold takes a radius to the next float through its bit pattern,
    which holds for positive radii only, so the oracle refuses any b_j whose
    row is not positive (b_j below kappa |P_j|) and answers again, bitwise,
    once b is back."""
    f = canonical_scene.intensity.values(grid64)
    oracle = MeasureOracle(canonical_scene, grid64, node_energies(grid64, f))
    b = initial_admissible_vector(canonical_scene)
    oracle(b)
    bad = b.copy()
    bad[2] = 0.9 * canonical_scene.kappa * canonical_scene.p_norms[2]
    assert np.min(radii_matrix(canonical_scene, bad, grid64.nodes)[:, 2]) < 0.0
    with pytest.raises(ValueError, match="not positive"):
        oracle(bad)
    assert np.array_equal(oracle(b), refractor_measure(canonical_scene, b, grid64, f).H)


@given(st.floats(min_value=0.0, max_value=float(np.nextafter(np.finfo(float).max, 0.0)),
                 exclude_min=True))
def test_fold_is_next_float_for_positive_values(r):
    r = np.array([r, r])
    got = _fold(r, np.array([True, False]))
    assert got[0] == np.nextafter(r[0], np.inf) and got[1] == r[1]


# --- writers against line-by-line references --------------------------------------

def _reference_faces(n_theta, n_phi):
    faces = []
    for k in range(n_theta - 1):
        for l in range(n_phi):
            a = k * n_phi + l
            bb = k * n_phi + (l + 1) % n_phi
            c = (k + 1) * n_phi + (l + 1) % n_phi
            d = (k + 1) * n_phi + l
            faces.append((a, bb, c))
            faces.append((a, c, d))
    return np.array(faces, dtype=int)


def _reference_obj(mesh, path):
    with open(path, "w") as fh:
        fh.write("# poly-oval refractor surface\n")
        for v in mesh.vertices:
            fh.write(f"v {float(v[0]):.17g} {float(v[1]):.17g} {float(v[2]):.17g}\n")
        for n in mesh.normals:
            fh.write(f"vn {float(n[0]):.17g} {float(n[1]):.17g} {float(n[2]):.17g}\n")
        for f in mesh.faces:
            a, b, c = (int(i) + 1 for i in f)
            fh.write(f"f {a}//{a} {b}//{b} {c}//{c}\n")


def _reference_label_csv(path, grid, f_values, labels):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_index", "theta", "phi", "weight", "f", "label"])
        for k in range(grid.n_nodes):
            writer.writerow([
                k, repr(float(grid.thetas[k])), repr(float(grid.phis[k])),
                repr(float(grid.weights[k])), repr(float(f_values[k])),
                int(labels[k]) + 1,
            ])


def test_export_mesh_faces_match_loop(canonical_scene, b_init):
    for n_theta, n_phi in ((2, 3), (5, 7), (128, 256)):
        mesh = export_mesh(canonical_scene, b_init, n_theta, n_phi)
        ref = _reference_faces(n_theta, n_phi)
        assert mesh.faces.dtype == ref.dtype
        assert np.array_equal(mesh.faces, ref)


def test_write_obj_bytes_match_reference(canonical_scene, tmp_path):
    mesh = export_mesh(canonical_scene, B_DESIGN, 96, 200)
    assert len(mesh.vertices) > ROWS_PER_WRITE
    odd = np.array([[-0.0, 5e-324, 1e300], [0.1, 1.0 / 3.0, -2.5e-17], [1.0, 2.0, 3.0]])
    tiny = SurfaceMesh(vertices=odd, normals=odd[::-1].copy(),
                       faces=np.array([[0, 1, 2], [2, 1, 0]]), labels=np.zeros(3, dtype=int))
    for m in (mesh, tiny):
        write_obj(m, tmp_path / "got.obj")
        _reference_obj(m, tmp_path / "ref.obj")
        assert (tmp_path / "got.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


def test_write_label_csv_bytes_match_reference(canonical_scene, tmp_path):
    grid = build_quadrature(canonical_scene.cap, 160, 128)
    assert grid.n_nodes > ROWS_PER_WRITE
    f = canonical_scene.intensity.values(grid)
    labels = assign_cells(canonical_scene, B_DESIGN, grid)
    assert len(np.unique(labels)) == 4
    write_label_csv(tmp_path / "got.csv", grid, f, labels)
    _reference_label_csv(tmp_path / "ref.csv", grid, f, labels)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# --- writers on hand-built columns: edge values and block boundaries ---------------

def _hand_grid(thetas, phis, weights):
    n = len(thetas)
    return QuadratureGrid(cap=CapDomain(axis=np.array([0.0, 0.0, 1.0]), half_angle=0.5),
                          n_theta=1, n_phi=n, nodes=np.zeros((n, 3)),
                          weights=weights, thetas=thetas, phis=phis)


def _assert_label_csv_matches(tmp_path, grid, f, labels):
    write_label_csv(tmp_path / "got.csv", grid, f, labels)
    _reference_label_csv(tmp_path / "ref.csv", grid, f, labels)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _assert_obj_matches(tmp_path, mesh):
    write_obj(mesh, tmp_path / "got.obj")
    _reference_obj(mesh, tmp_path / "ref.obj")
    assert (tmp_path / "got.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


@pytest.mark.parametrize("n", [ROWS_PER_WRITE - 1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1])
def test_write_label_csv_edge_values(n, edge_column, tmp_path):
    rng = np.random.default_rng(n)
    weights = np.full(n, 1e-310)    # a single distinct value
    grid = _hand_grid(edge_column(rng, n), edge_column(rng, n), weights)
    _assert_label_csv_matches(tmp_path, grid, edge_column(rng, n), rng.integers(0, 3, n))


@pytest.mark.parametrize("n", [ROWS_PER_WRITE - 1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1])
def test_write_obj_edge_values(n, edge_column, tmp_path):
    rng = np.random.default_rng(n)
    vertices = np.stack([edge_column(rng, n) for _ in range(3)], axis=1)
    normals = np.stack([edge_column(rng, n), np.full(n, -0.0), edge_column(rng, n)], axis=1)
    faces = rng.integers(0, n, (n, 3))
    faces[0] = n - 1
    _assert_obj_matches(tmp_path, SurfaceMesh(vertices=vertices, normals=normals, faces=faces,
                                              labels=np.zeros(n, dtype=int)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_writers_match_reference_on_drawn_columns(data, edge_values, tmp_path_factory):
    """Columns drawn from a small pool, written in blocks of a few rows."""
    n = data.draw(st.integers(1, 40))

    def column(pool):
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        return np.asarray(pool)[picks]

    # both zeros and up to three more of the edge values
    pool = edge_values[[0, 1] + data.draw(st.lists(st.integers(2, len(edge_values) - 1),
                                                   max_size=3))]
    out = tmp_path_factory.mktemp("writers")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure_module, "ROWS_PER_WRITE", data.draw(st.integers(1, 8)))
        grid = _hand_grid(column(pool), column(pool), column(pool))
        _assert_label_csv_matches(out, grid, column(pool), column(range(3)))
        mesh = SurfaceMesh(vertices=np.stack([column(pool) for _ in range(3)], axis=1),
                           normals=np.stack([column(pool) for _ in range(3)], axis=1),
                           faces=np.stack([column(range(n)) for _ in range(3)], axis=1),
                           labels=np.zeros(n, dtype=int))
        _assert_obj_matches(out, mesh)


# --- write_rows against the block-% writer it replaced -----------------------------

def _reference_write_rows(fh, template, columns):
    """The block-% row writer that write_rows replaced: each block of
    ROWS_PER_WRITE rows is formatted by one % call on the template repeated
    once per row, its values interleaved row by row, each value from tolist()
    and each table gathered by index."""
    rows_per_write = measure_module.ROWS_PER_WRITE

    def block(column, lo):
        if isinstance(column, tuple):
            table, index = column
            return list(map(table.__getitem__, index[lo:lo + rows_per_write].tolist()))
        return np.asarray(column[lo:lo + rows_per_write]).tolist()

    first = columns[0]
    n = len(first[1] if isinstance(first, tuple) else first)
    width = len(columns)
    for lo in range(0, n, rows_per_write):
        rows = min(rows_per_write, n - lo)
        values = [None] * (rows * width)
        for k, column in enumerate(columns):
            values[k::width] = block(column, lo)
        fh.write((template * rows) % tuple(values))


def _assert_rows_match(template, columns):
    got, ref = io.StringIO(), io.StringIO()
    write_rows(got, template, columns)
    _reference_write_rows(ref, template, columns)
    assert got.getvalue() == ref.getvalue()


def _bits_to_float(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# any bit pattern, hypothesis' own floats, and m 10**k over every exponent the
# vectorized %.17g takes and a little beyond
_FLOAT64 = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_bits_to_float),
    st.floats(),
    st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 10.0), st.integers(-105, 105)),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_write_rows_matches_block_percent_on_drawn_values(data):
    """%.17g and %r over drawn float64 values and %d over drawn int64 values,
    in blocks of 1 to 8 rows, give the bytes of the block-% writer."""
    n = data.draw(st.integers(0, 24))
    floats = np.array(data.draw(st.lists(_FLOAT64, min_size=n, max_size=n)), dtype=np.float64)
    more = np.array(data.draw(st.lists(_FLOAT64, min_size=n, max_size=n)), dtype=np.float64)
    ints = np.array(data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                       min_size=n, max_size=n)), dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure_module, "ROWS_PER_WRITE", data.draw(st.integers(1, 8)))
        _assert_rows_match("%d %.17g,%r;%.17g|%s %d\r\n",
                           [ints, floats, more, -floats, distinct_strings(more, "%r"), ints // 7])


def _tie_values():
    """Doubles whose 17-digit rounding is an exact tie, with their decimal
    exponents: x = odd / 2**(17 - e) in [10**e, 10**(e + 1)) has
    x 10**(16 - e) = odd 5**(16 - e) / 2. e = -1 gives odd / 2**18 in [0.1, 1)."""
    values, exponents = [], []
    for e in range(-8, 16):
        scale = 2 ** (17 - e)
        first = math.ceil(Fraction(10) ** e * scale) | 1
        stop = min(math.ceil(Fraction(10) ** (e + 1) * scale), 2 ** 53)
        step = max(2, (stop - first) // 60 // 2 * 2)
        for odd in range(first, stop, step):
            values.append(odd / scale)
            exponents.append(e)
    return np.array(values), exponents


@pytest.mark.parametrize("rows_per_write", [3, ROWS_PER_WRITE])
def test_write_rows_fixed_cases(rows_per_write, edge_values, monkeypatch):
    """Exact ties; every power of ten from 1e-5 to 1e17 and both its
    neighbours; the largest double below 1e-4 and below 1e17; integral values,
    both zeros, subnormals and NaN payloads: each through %.17g and %r,
    with either sign, gives the bytes of the block-% writer."""
    ties, exponents = _tie_values()
    assert all((Fraction(x) * Fraction(10) ** (16 - e)).denominator == 2
               for x, e in zip(ties.tolist(), exponents))
    powers = np.array([10.0 ** k for k in range(-5, 18)])
    values = np.concatenate((
        ties, powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [9.9999999999999995e-05, 1e16, 99999999999999984.0],
        [1.0, 3.0, 1234.0, 2.0 ** 52 + 1, 2.0 ** 53, 1e15, 123456789012345680.0],
        [2.2250738585072009e-308, 2.2250738585072014e-308, 1e-99, 1e100], edge_values,
    ))
    assert np.count_nonzero(np.isnan(values)) == 3
    monkeypatch.setattr(measure_module, "ROWS_PER_WRITE", rows_per_write)
    for column in (values, -values):
        _assert_rows_match("v %.17g %r\n", [column, column])


def test_write_rows_integers_at_their_limits():
    """%d over every digit count, both signs, int64's extremes, unsigned and
    bool columns."""
    ints = np.array([0, 1, -1, 9, 10, -10, 2 ** 31, -2 ** 31 - 1, 2 ** 63 - 1, -2 ** 63]
                    + [10 ** k + d for k in range(19) for d in (-1, 0)], dtype=np.int64)
    _assert_rows_match("%d,%d\n", [ints, -(ints + 1)])
    _assert_rows_match("%d %d %d\n", [np.arange(5, dtype=np.uint32), np.arange(5) % 2 == 0,
                                      np.arange(5, dtype=np.uint64)])


def test_write_rows_zero_rows_write_nothing():
    fh = io.StringIO()
    write_rows(fh, "%d,%.17g,%r\n", [[], np.empty(0), []])
    assert fh.getvalue() == ""


def test_write_rows_refuses_what_it_cannot_write():
    for template in ("%(name)s\n", "%d%%\n", "%5.2f\n", "%d\0\n"):
        with pytest.raises(ValueError, match="template"):
            write_rows(io.StringIO(), template, [[1]])
    with pytest.raises(TypeError, match="columns"):
        write_rows(io.StringIO(), "%d,%d\n", [[1]])
    with pytest.raises(ValueError, match="NUL"):
        write_rows(io.StringIO(), "%s\n", [(["a\0"], np.zeros(1, dtype=int))])
