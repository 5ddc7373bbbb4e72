"""Cell decomposition, energy measure, and mesh export for poly-oval surfaces."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from refractor.geometry import CapDomain, build_quadrature, dir_from_spherical
from refractor.measure import (
    ROWS_PER_WRITE,
    CellAssignment,
    MeasureOracle,
    SurfaceMesh,
    assign_cells,
    export_mesh,
    flood_vector,
    node_energies,
    radii_matrix,
    refractor_measure,
    rho,
    total_energy,
    write_label_csv,
    write_obj,
)
from refractor.oval import NonPositiveDiscriminant, OvalParams, oval_extrema, oval_radius
from refractor.scene import (
    InadmissibleBVector,
    IntensitySpec,
    Scene,
    TargetPoint,
    initial_admissible_vector,
)
from refractor.parallel import CHUNK, chunk_slices, worker_count


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


def test_chunking_covers_range():
    sls = chunk_slices(3 * CHUNK + 17)
    assert len(sls) == 4
    assert sls[0] == slice(0, CHUNK)
    assert sls[-1] == slice(3 * CHUNK, 3 * CHUNK + 17)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("REFRACTOR_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("REFRACTOR_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.setenv("REFRACTOR_THREADS", "lots")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("REFRACTOR_THREADS", "-2")
    with pytest.raises(ValueError):
        worker_count()


def test_radii_matrix_bitwise_across_workers(canonical_scene, b_init, rng, monkeypatch):
    """Chunk boundaries are fixed, so the worker count cannot change a bit."""
    dirs = cap_directions(rng, canonical_scene.cap, 2 * CHUNK + 17)
    monkeypatch.setenv("REFRACTOR_THREADS", "1")
    serial = radii_matrix(canonical_scene, b_init, dirs)
    monkeypatch.setenv("REFRACTOR_THREADS", "4")
    threaded = radii_matrix(canonical_scene, b_init, dirs)
    assert np.array_equal(serial, threaded)


def test_rho_at_axis(canonical_scene, b_init):
    r, label = rho(canonical_scene, b_init, [0.0, 0.0, 1.0])
    assert label == 0
    ov = OvalParams(canonical_scene.targets[0].point, canonical_scene.b1, 0.3)
    assert abs(r - oval_radius(np.array([0.0, 0.0, 1.0]), ov)) < 1e-15


# --- cell assignment ----------------------------------------------------------

def test_initial_vector_floods_first_cell(canonical_scene, b_init, grid64):
    assignment = assign_cells(canonical_scene, b_init, grid64)
    assert np.all(assignment.labels == 0)
    assert not np.any(assignment.ties)


def test_flood_vector_floods_each_cell(canonical_scene, b_init, grid64):
    for i in range(4):
        bf = flood_vector(canonical_scene, b_init, i)
        assignment = assign_cells(canonical_scene, bf, grid64)
        assert np.all(assignment.labels == i), f"cell {i} did not flood"


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
    assignment = assign_cells(sc, [1.6, 1.6], grid64)
    assert np.all(assignment.ties)
    assert np.all(assignment.labels == 0)  # smallest index wins


# --- energies -----------------------------------------------------------------

def test_total_energy_constant(canonical_scene, grid64):
    ones = np.ones(grid64.n_nodes)
    assert total_energy(grid64, ones) == grid64.total_weight
    assert total_energy(grid64, 2.0 * ones) == 2.0 * grid64.total_weight


def test_total_energy_gaussian_against_quad():
    """Azimuth-independent intensity: the phi rule is exact, the theta rule is
    second order; compare against an adaptive 1D oracle."""
    cap = CapDomain(axis=np.array([0.0, 0.0, 1.0]), half_angle=np.deg2rad(10.0))
    grid = build_quadrature(cap, 512, 8)
    width = np.deg2rad(5.0)
    spec = IntensitySpec(kind="axial-gaussian", amplitude=2.0, width=width)
    got = total_energy(grid, spec.values(grid))
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
        assert abs(mv.total - total_energy(grid64, f)) < float(np.min(e)) / 2.0
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
    assert np.array_equal(np.array(v), mesh.vertices)  # repr round-trips
    assert np.array_equal(np.array(vn), mesh.normals)
    assert np.array_equal(np.array(f) - 1, mesh.faces)
    assert min(min(row) for row in f) == 1


def test_write_label_csv(canonical_scene, b_init, grid64, tmp_path):
    f = canonical_scene.intensity.values(grid64)
    assignment = assign_cells(canonical_scene, b_init, grid64)
    path = tmp_path / "labels.csv"
    write_label_csv(path, grid64, f, assignment)
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
# offsets of b_j around the 2^-40-relative guard: ulps, inside, at and past it
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
    """Probes that jump out of the bisection bracket, repeat a value, return
    to an earlier b, switch coordinate, move several coordinates or land
    within a few ulps of an earlier probe: every answer is bitwise the fresh
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
    """A probe one ulp from an evaluated b_j decides no node from it; the
    probes after it see the labels of their own b_j."""
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
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for n in mesh.normals:
            fh.write(f"vn {float(n[0])!r} {float(n[1])!r} {float(n[2])!r}\n")
        for f in mesh.faces:
            a, b, c = (int(i) + 1 for i in f)
            fh.write(f"f {a}//{a} {b}//{b} {c}//{c}\n")


def _reference_label_csv(path, grid, f_values, assignment):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_index", "theta", "phi", "weight", "f", "label"])
        for k in range(grid.n_nodes):
            writer.writerow([
                k, repr(float(grid.thetas[k])), repr(float(grid.phis[k])),
                repr(float(grid.weights[k])), repr(float(f_values[k])),
                int(assignment.labels[k]) + 1,
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
    assignment = assign_cells(canonical_scene, B_DESIGN, grid)
    assert len(np.unique(assignment.labels)) == 4
    write_label_csv(tmp_path / "got.csv", grid, f, assignment)
    _reference_label_csv(tmp_path / "ref.csv", grid, f, assignment)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
