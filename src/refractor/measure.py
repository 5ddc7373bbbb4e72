"""Poly-oval refractor surface and its discrete energy measure.

The surface over the cap is rho(x) = min_i h(x, P_i, b_i); the cell of target
i is where oval i attains the minimum (smallest index wins ties). The measure
H_i(b) sums the per-node energies f*w over cell i. Summation is sequential in
node order, so refining b_i monotonically grows H_i bitwise, not just up to
roundoff.

MeasureOracle serves the solver's many evaluations of H. It holds the
surface on the grid, each node's radius and label, beside one radius row per
oval. When a call lowers a single b_j, it evaluates the oval-j row alone and
compares it with the held radius: a node joins cell j where that row lies
below the radius, and no node leaves cell j. Any other call relabels every
node from all rows. H is the bincount of all labels in node order, so each
answer is bitwise the one refractor_measure computes. Outside cell j the
held radius is the other ovals' minimum, which gives each node's switch value
of b_j, below which it lies in cell j; from these MeasureOracle.crossing
finds in closed form where H_j reaches a target value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import QuadratureGrid, dir_from_spherical
from .oval import _radius_from_t, dot, normals_for_directions, radius_terms
from .parallel import map_chunks
from .scene import Scene, check_b_vector

ROWS_PER_WRITE = 16384   # CSV/OBJ rows formatted per write: bounded memory, few calls


@dataclass(frozen=True, eq=False)
class MeasureVector:
    H: np.ndarray   # (N,) per-target energy
    total: float    # float sum of H


def radii_matrix(scene: Scene, b, dirs: np.ndarray) -> np.ndarray:
    """Oval radii h(x, P_j, b_j) for unit directions dirs (n, 3) -> (n, N).

    t = x . P_j comes from oval.dot, so a direction's radii are bitwise the
    same in any batch.
    """
    b = np.asarray(b, dtype=float)
    cols = np.empty((dirs.shape[0], scene.n_targets))
    for j in range(scene.n_targets):
        terms = radius_terms(dot(dirs, scene.points[j]), float(scene.p_norms[j]), scene.kappa)
        cols[:, j], _ = _radius_from_t(terms, float(b[j]), scene.kappa)
    return cols


def surface(scene: Scene, b, dirs: np.ndarray):
    """(labels, radius, normals) of the refractor at unit directions dirs (n, 3):
    each direction takes the lowest oval there (smaller index on ties), its
    radius and that oval's outward normal at that very radius, so each oval
    is evaluated once per direction. Chunked, so no (n, N) matrix is held."""
    b = check_b_vector(scene, b)
    n = dirs.shape[0]
    labels, radius, normals = np.empty(n, dtype=np.intp), np.empty(n), np.empty((n, 3))

    def work(sl):
        x = dirs[sl]
        radii = radii_matrix(scene, b, x)
        lab = np.argmin(radii, axis=1)
        labels[sl] = lab
        h = radius[sl] = radii[np.arange(lab.size), lab]
        nu = normals[sl]
        for j in range(scene.n_targets):
            mask = lab == j
            if np.any(mask):
                nu[mask] = normals_for_directions(x[mask], h[mask], scene.points[j], scene.kappa)

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

    The oracle holds one radius row h_j = h(x, P_j, base_j) per target, with
    the b-independent terms of each row, and beside them the surface: per
    node the radius, the minimum of all rows, and the label, the first row
    attaining it. A call evaluates only the rows whose b_j moved, then
    updates the surface in one of two ways:

    - one row j moved and fell (or stayed) at every node: a node of cell j
      stays in j, and any other node joins j exactly when h_j < radius, or
      h_j == radius and j is below its label. That tie case is folded into
      one strict test against the next float above the radius where the
      label is above j. The call sets those labels to j and takes the
      minimum of radius and h_j.
    - any other call (the first, several rows moved, a row rose somewhere)
      relabels every node by a strict-less chain over all rows, argmin's
      smallest-index tie rule. A refractor solve's steps only lower one
      coordinate each, so only its first call takes this path.

    Every held radius is positive: each row is checked as it is evaluated,
    and a b_j whose row is not (one at or below kappa |P_j|) is refused with
    ValueError. So the next float above a radius r is r's bit pattern plus
    one. H is the bincount of all labels in node order, so the summation
    order never changes. full_relabels and rows_evaluated count the work
    done.
    """

    def __init__(self, scene: Scene, grid: QuadratureGrid, energies):
        self._n_targets = scene.n_targets
        self._p_norms = scene.p_norms
        self._kappa = scene.kappa
        self._energies = np.asarray(energies, dtype=float)
        self._terms = [radius_terms(dot(grid.nodes, scene.points[j]), float(scene.p_norms[j]),
                                    scene.kappa) for j in range(scene.n_targets)]
        n = grid.n_nodes
        self._rows = [np.empty(n) for _ in range(scene.n_targets)]
        self._spare = np.empty(n)  # where the next row is evaluated
        self._base = np.full(scene.n_targets, np.nan)  # b_j of row j; NaN = stale
        self._radius = np.empty(n)
        self._labels = np.empty(n, dtype=np.intp)
        self._b = None   # b of the last completed call, with its H and surface
        self._H = None
        self.full_relabels = 0
        self.rows_evaluated = 0

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
        X = r_k x_k, where r_k is the other ovals' minimum radius there: for a
        node outside cell j, the surface radius itself, taken to the next
        float above where its label is above j. So H_j is a step function of
        b_j, and its steps are the energies of the nodes outside cell j taken
        in descending s. The answer lies in the middle of the gap between the
        switch value where their energy first reaches f_j - H_j(b) and the
        next smaller distinct one; equal switch values make one step, and
        every b_j in the gap gives the same cells. Returns None when the
        nodes outside cell j hold too little energy or no smaller switch
        value is left: either way the floor is as good a candidate as any. The
        solver evaluates the answer, or the floor when it is None or lies
        above the answer, with one oracle call, and a miss is final.

        The oracle sums H_j in node order and this method in switch order;
        the two sums differ by less than n ulps of f_j, so the energy must
        clear f_j - H_j(b) by that much.
        """
        n = self._energies.size
        need = f_j - self._measure(b)[j] + n * np.finfo(float).eps * abs(f_j)
        out = np.flatnonzero(self._labels != j)
        e = self._energies[out]
        e_sum = e.sum()
        if not 0.0 < need <= e_sum:
            return None
        r = _fold(self._radius[out], self._labels[out] > j)
        t = self._terms[j][0][out]
        s = r + self._kappa * np.sqrt(r * r - 2.0 * r * t + self._p_norms[j] ** 2)
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
        held = self._b
        if held is not None and np.array_equal(b, held):
            return self._H
        self._b = None
        changed = np.flatnonzero(b != self._base)
        if held is not None and changed.size == 1:
            j = int(changed[0])
            old = self._set_row(b, j)
            if np.all(self._rows[j] <= old):
                self._lower(j)
            else:
                self._relabel()
        else:
            for j in changed:
                self._set_row(b, j)
            self._relabel()
        self._H = np.bincount(self._labels, weights=self._energies, minlength=self._n_targets)
        self._b = b
        return self._H

    def _set_row(self, b, j: int) -> np.ndarray:
        """Evaluate row j at b[j]; returns the row it replaces."""
        self._base[j] = np.nan
        h, _ = _radius_from_t(self._terms[j], float(b[j]), self._kappa, out=self._spare)
        if not h.min() > 0.0:
            raise ValueError(
                f"oval {j + 1} radius is not positive at every node for b = {float(b[j])!r}; "
                f"b must exceed kappa |P| = {float(self._kappa * self._p_norms[j])!r}"
            )
        self._spare, self._rows[j] = self._rows[j], h
        self._base[j] = b[j]
        self.rows_evaluated += 1
        return self._spare

    def _lower(self, j: int) -> None:
        """Update the surface for row j, which fell or stayed at every node."""
        h = self._rows[j]
        np.copyto(self._labels, j, where=h < _fold(self._radius, self._labels > j))
        np.minimum(self._radius, h, out=self._radius)

    def _relabel(self) -> None:
        """Radius and label of every node from all rows: a strict-less chain in
        row order, as argmin breaks ties."""
        radius, labels = self._radius, self._labels
        np.copyto(radius, self._rows[0])
        labels.fill(0)
        for i in range(1, self._n_targets):
            np.copyto(labels, i, where=self._rows[i] < radius)
            np.minimum(radius, self._rows[i], out=radius)
        self.full_relabels += 1


def _fold(r, up):
    """r, with each entry where up is true taken to the next float above: for
    positive finite r the next float is the bit pattern plus one."""
    return (r.view(np.int64) + up).view(np.float64)


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
