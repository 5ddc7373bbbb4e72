"""Poly-oval refractor surface and its discrete energy measure.

The surface over the cap is rho(x) = min_i h(x, P_i, b_i); the cell of target
i is where oval i attains the minimum (smallest index wins ties). The measure
H_i(b) sums the per-node energies f*w over cell i. Summation is sequential in
node order, so refining b_i monotonically grows H_i bitwise, not just up to
roundoff.

MeasureOracle serves the solver's many evaluations of H. When a call moves a
single b_j, a node's cell can change only between j and the lowest of the
other ovals there, so the oracle evaluates the oval-j radius alone and
compares it with that held minimum. Every node is still labelled on every
call and H is the bincount of all labels in node order, so each answer is
bitwise the one refractor_measure computes. The same held minimum gives each
node's switch value of b_j, below which it lies in cell j, and from these
MeasureOracle.crossing finds in closed form where H_j reaches a target value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import QuadratureGrid, dir_from_spherical
from .oval import _radius_from_t, normals_for_directions
from .parallel import map_chunks
from .scene import Scene, check_b_vector

ROWS_PER_WRITE = 16384   # CSV/OBJ rows formatted per write: bounded memory, few calls


@dataclass(frozen=True, eq=False)
class MeasureVector:
    H: np.ndarray   # (N,) per-target energy
    total: float    # float sum of H


def radii_matrix(scene: Scene, b, dirs: np.ndarray) -> np.ndarray:
    """Oval radii h(x, P_j, b_j) for unit directions dirs (n, 3) -> (n, N).

    Dot products are accumulated componentwise (not via GEMM) so chunked and
    unchunked evaluation agree bitwise.
    """
    b = np.asarray(b, dtype=float)
    pts = scene.points
    p_norms = scene.p_norms
    kappa = scene.kappa
    n = dirs.shape[0]

    def work(sl):
        x = dirs[sl]
        cols = np.empty((x.shape[0], scene.n_targets))
        for j in range(scene.n_targets):
            t = x[:, 0] * pts[j, 0] + x[:, 1] * pts[j, 1] + x[:, 2] * pts[j, 2]
            cols[:, j], _ = _radius_from_t(t, float(b[j]), float(p_norms[j]), kappa)
        return cols

    return np.concatenate(map_chunks(work, n), axis=0)


def surface(scene: Scene, b, dirs: np.ndarray):
    """(labels, radius, normals) of the refractor at unit directions dirs (n, 3):
    each direction takes the lowest oval there (smaller index on ties), its
    radius and its outward normal. Chunked, so no (n, N) matrix is held."""
    b = check_b_vector(scene, b)
    n = dirs.shape[0]
    labels, radius, normals = np.empty(n, dtype=np.intp), np.empty(n), np.empty((n, 3))

    def work(sl):
        x = dirs[sl]
        radii = radii_matrix(scene, b, x)
        lab = np.argmin(radii, axis=1)
        labels[sl] = lab
        radius[sl] = radii[np.arange(lab.size), lab]
        nu = normals[sl]
        for j in range(scene.n_targets):
            mask = lab == j
            if np.any(mask):
                nu[mask] = normals_for_directions(x[mask], scene.points[j], float(b[j]), scene.kappa)

    map_chunks(work, n)
    return labels, radius, normals


def rho(scene: Scene, b, x):
    """Surface radius and owning target index at a single unit direction."""
    labels, radius, _ = surface(scene, b, np.asarray(x, dtype=float).reshape(1, 3))
    return float(radius[0]), int(labels[0])


def assign_cells(scene: Scene, b, grid: QuadratureGrid) -> np.ndarray:
    """Label every grid node (0-based) with the target whose oval sits lowest there."""
    return np.argmin(radii_matrix(scene, b, grid.nodes), axis=1)


def node_energies(grid: QuadratureGrid, f_values: np.ndarray) -> np.ndarray:
    return np.asarray(f_values, dtype=float) * grid.weights


def total_energy(grid: QuadratureGrid, f_values) -> float:
    """Total discrete source energy sum_k f_k * w_k."""
    return float(np.sum(node_energies(grid, np.asarray(f_values, dtype=float))))


def refractor_measure(scene: Scene, b, grid: QuadratureGrid, f_values) -> MeasureVector:
    """Per-target refracted energy H_i(b) = sum of f*w over cell i.

    Each node contributes to exactly one cell, so the H_i form an exact
    partition of the per-node energies; total is their float sum.
    """
    e = node_energies(grid, np.asarray(f_values, dtype=float))
    H = np.bincount(assign_cells(scene, b, grid), weights=e, minlength=scene.n_targets)
    return MeasureVector(H=H, total=float(H.sum()))


class MeasureOracle:
    """H(b) for one scene and grid, bitwise what refractor_measure returns.

    The rows t_j = x . P_j and h_j = h(x, P_j, base_j) are kept target-major,
    so each row is contiguous, and a call recomputes only the rows whose b_j
    moved. A call that moves several coordinates labels the nodes by a
    strict-less minimum chain over the rows, which keeps argmin's
    smallest-index tie rule. While the calls move the single coordinate j,
    the oracle holds low and arg, the minimum and first-index argmin of the
    other rows. Node k is in cell j when h_j < low, or h_j == low and j < arg;
    the tie case is folded into one test h_j < low by taking the next float
    above low where j < arg. Such a call evaluates row j and labels the nodes
    by where(h_j < low, j, arg). Either way H is the bincount of all labels in
    node order, so the summation order never changes.
    """

    def __init__(self, scene: Scene, grid: QuadratureGrid, energies):
        self._n_targets = scene.n_targets
        self._p_norms = scene.p_norms
        self._kappa = scene.kappa
        self._energies = np.asarray(energies, dtype=float)
        nodes = grid.nodes
        pts = scene.points
        self._t = np.empty((scene.n_targets, grid.n_nodes))
        for j in range(scene.n_targets):
            self._t[j] = nodes[:, 0] * pts[j, 0] + nodes[:, 1] * pts[j, 1] + nodes[:, 2] * pts[j, 2]
        self._radii = np.empty_like(self._t)
        self._base = np.full(scene.n_targets, np.nan)  # b_j of radius row j; NaN = stale
        self._labels = None
        self._others = None  # (j, low, arg) of the rows other than j
        self._b = None       # b of the last completed call, with its H
        self._H = None

    def __call__(self, b) -> np.ndarray:
        return self._measure(b).copy()

    def labels(self, b) -> np.ndarray:
        """The cell of every node at b, bitwise argmin as assign_cells gives it;
        free when b is the last call's."""
        self._measure(b)
        return self._labels.copy()

    def crossing(self, b, j: int, f_j: float):
        """The b_j below b[j] where H_j, as b_j falls, first reaches f_j.

        Node k is in cell j exactly when b_j lies below its switch value
        s_k = r_k + kappa |r_k x_k - P_j|, the oval's defining identity at
        X = r_k x_k, where r_k is the other ovals' minimum radius there. So
        H_j is a step function of b_j, and its steps are the energies of the
        nodes outside cell j taken in descending s. The answer lies in the
        middle of the gap between the switch value where their energy first
        reaches f_j - H_j(b) and the next smaller distinct one; equal switch
        values make one step. Returns None when the nodes outside cell j hold
        too little energy or no smaller switch value is left. The caller
        checks the answer with a call of the oracle.

        The oracle sums H_j in node order and this method in switch order;
        the two sums differ by less than n ulps of f_j, so the energy must
        clear f_j - H_j(b) by that much.
        """
        n = self._energies.size
        need = f_j - self._measure(b)[j] + n * np.finfo(float).eps * abs(f_j)
        low, _ = self._others_of(j)
        out = np.flatnonzero(self._labels != j)
        e = self._energies[out]
        e_sum = e.sum()
        if not 0.0 < need <= e_sum:
            return None
        r = low[out]
        s = r + self._kappa * np.sqrt(r * r - 2.0 * r * self._t[j, out] + self._p_norms[j] ** 2)
        # the crossing lies among the largest switch values; widen until it does
        n_out = out.size
        k = min(n_out, int(2.0 * n_out * need / e_sum) + 16)
        while True:
            top = np.argpartition(s, n_out - k)[n_out - k:]
            top = top[np.argsort(-s[top])]
            s_top = s[top]
            m = int(np.searchsorted(np.cumsum(e[top]), need))
            if m < k:
                below = np.flatnonzero(s_top[m + 1:] < s_top[m])
                if below.size:
                    return 0.5 * (float(s_top[m]) + float(s_top[m + 1 + below[0]]))
            if k == n_out:
                return None
            k = min(n_out, 2 * k)

    def _measure(self, b) -> np.ndarray:
        b = np.array(b, dtype=float)
        if self._b is not None and np.array_equal(b, self._b):
            return self._H
        self._b = None
        changed = np.flatnonzero(b != self._base)
        if changed.size == 1:
            j = int(changed[0])
            low, arg = self._others_of(j)
            self._set_rows(b, [j])
            self._labels = np.where(self._radii[j] < low, j, arg)
        elif changed.size:
            self._others = None
            self._set_rows(b, changed)
            self._labels = _lowest(self._radii, range(self._n_targets))[1]
        self._H = np.bincount(self._labels, weights=self._energies, minlength=self._n_targets)
        self._b = b
        return self._H

    def _others_of(self, j: int):
        """low and arg of the rows other than j, with the tie fold for j."""
        if self._others is None or self._others[0] != j:
            low, arg = _lowest(self._radii, [i for i in range(self._n_targets) if i != j])
            np.nextafter(low, np.inf, out=low, where=arg > j)
            self._others = (j, low, arg)
        return self._others[1:]

    def _set_rows(self, b, rows) -> None:
        for j in rows:
            self._base[j] = np.nan
            self._radii[j], _ = _radius_from_t(
                self._t[j], float(b[j]), float(self._p_norms[j]), self._kappa
            )
            self._base[j] = b[j]


def _lowest(radii: np.ndarray, rows):
    """Per node, the minimum over the given radius rows and the first row
    attaining it: a strict-less chain in row order, as argmin breaks ties."""
    low = np.full(radii.shape[1], np.inf)
    arg = np.zeros(radii.shape[1], dtype=np.intp)
    for i in rows:
        less = radii[i] < low
        np.copyto(arg, i, where=less)
        np.copyto(low, radii[i], where=less)
    return low, arg


def flood_vector(scene: Scene, b, i: int) -> np.ndarray:
    """Parameter vector that floods the whole cap into cell i.

    Drops b_i until the global maximum of oval i sits strictly below every
    other oval's global minimum, with a 1e-9 relative safety margin:
    b_i = kappa|P_i| + min_{j != i}(b_j - kappa|P_j|) * (1-kappa)/(1+kappa) * (1 - 1e-9).
    """
    b = np.asarray(b, dtype=float).copy()
    kp = scene.kappa * scene.p_norms
    spans = b - kp
    others = np.delete(spans, i)
    b[i] = kp[i] + float(np.min(others)) * (1.0 - scene.kappa) / (1.0 + scene.kappa) * (1.0 - 1e-9)
    return b


# --- surface mesh export ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    vertices: np.ndarray  # (V, 3)
    normals: np.ndarray   # (V, 3) per-vertex, from the owning oval
    faces: np.ndarray     # (F, 3) int, 0-based vertex indices
    labels: np.ndarray    # (V,) 0-based owning target per vertex


def export_mesh(scene: Scene, b, n_theta: int, n_phi: int) -> SurfaceMesh:
    """Triangulated surface over the cap on an n_theta x n_phi vertex grid.

    Rings sit at theta_k = half_angle*(k+1)/n_theta (the apex point is skipped
    to avoid degenerate fans), azimuths at phi_l = 2 pi l / n_phi, theta-major
    vertex order. Radius, normal and label of each vertex come from surface.
    """
    if n_theta < 2 or n_phi < 3:
        raise ValueError("mesh needs n_theta >= 2 and n_phi >= 3")
    psi = scene.cap.half_angle
    thetas = psi * (np.arange(n_theta) + 1.0) / n_theta
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tt = np.repeat(thetas, n_phi)
    pp = np.tile(phis, n_theta)
    dirs = dir_from_spherical(tt, pp, scene.cap)

    labels, radius, normals = surface(scene, b, dirs)
    vertices = radius[:, None] * dirs

    # quad (k, l) -> triangles (a, bb, c), (a, c, d); a, bb on ring k, d, c on ring k + 1
    ring = (np.arange(n_theta - 1) * n_phi)[:, None]
    a = ring + np.arange(n_phi)
    bb = ring + (np.arange(n_phi) + 1) % n_phi
    faces = np.stack((a, bb, bb + n_phi, a, bb + n_phi, a + n_phi), axis=-1).reshape(-1, 3)
    return SurfaceMesh(vertices=vertices, normals=normals, faces=faces, labels=labels)


def distinct_strings(values, fmt: str):
    """Format each distinct value of a 1-D column once: a list table and an
    index array with table[index[k]] == fmt % values[k] for every row k.

    For columns that are functions of the grid, whose few distinct values
    repeat over many rows. Floats are told apart by bit pattern, so -0.0 and
    0.0 keep their own strings, and every value is formatted as the Python
    float or int that tolist() would give.
    """
    values = np.asarray(values)
    if values.dtype.kind == "f":
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        keys, index = np.unique(bits, return_inverse=True)
        keys = keys.view(np.float64)
    else:
        keys, index = np.unique(values, return_inverse=True)
    return [fmt % v for v in keys.tolist()], index


def write_rows(fh, template: str, columns) -> None:
    """Write template % row for the rows of equal-length columns.

    A column is either a 1-D array, whose values go through tolist() so that
    floats print as Python's repr (%r) and integers as Python ints, or a
    (table, index) pair of a list of preformatted strings and an index array,
    whose row k prints table[index[k]] (%s). ROWS_PER_WRITE rows are
    formatted at a time. The tables stay Python lists: gathering through
    NumPy object arrays made the peak memory of a long run creep up with
    every design.
    """
    def block(column, lo):
        if isinstance(column, tuple):
            table, index = column
            return map(table.__getitem__, index[lo:lo + ROWS_PER_WRITE].tolist())
        return np.asarray(column[lo:lo + ROWS_PER_WRITE]).tolist()

    first = columns[0]
    n = len(first[1] if isinstance(first, tuple) else first)
    for lo in range(0, n, ROWS_PER_WRITE):
        rows = zip(*(block(c, lo) for c in columns))
        fh.write("".join(map(template.__mod__, rows)))


def write_json(obj, path) -> None:
    """Write obj as JSON with a 2-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_obj(mesh: SurfaceMesh, path) -> None:
    """Write the mesh as Wavefront OBJ (v/vn/f records, 1-based indices).

    Each vertex's face corner "i//i" is formatted once and shared by the
    faces around it.
    """
    corner = ["%d//%d" % (i, i) for i in range(1, len(mesh.vertices) + 1)]
    faces = np.asarray(mesh.faces)
    with open(path, "w") as fh:
        fh.write("# poly-oval refractor surface\n")
        write_rows(fh, "v %r %r %r\n", mesh.vertices.T)
        write_rows(fh, "vn %r %r %r\n", mesh.normals.T)
        write_rows(fh, "f %s %s %s\n", [(corner, faces[:, k]) for k in range(3)])


def write_label_csv(path, grid: QuadratureGrid, f_values, labels) -> None:
    """Per-node dump: node_index, theta, phi, weight, f, label (targets 1-based).

    CRLF line ends and repr floats, as csv.writer writes them. Every column
    but node_index is a function of the grid, so each of its distinct values
    is formatted once.
    """
    f_values = np.asarray(f_values, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("node_index,theta,phi,weight,f,label\r\n")
        write_rows(fh, "%d,%s,%s,%s,%s,%s\r\n", (
            np.arange(grid.n_nodes),
            *(distinct_strings(c, "%r") for c in (grid.thetas, grid.phis, grid.weights, f_values)),
            distinct_strings(np.asarray(labels) + 1, "%d"),
        ))
