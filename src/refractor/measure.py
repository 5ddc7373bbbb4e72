"""Poly-oval refractor surface and its discrete energy measure.

The surface over the cap is rho(x) = min_i h(x, P_i, b_i); the cell of target
i is where oval i attains the minimum (smallest index wins ties). The measure
H_i(b) sums the per-node energies f*w over cell i. Summation is sequential in
node order, so refining b_i monotonically grows H_i bitwise, not just up to
roundoff.

MeasureOracle serves the solver's many evaluations of H. While a bisection
moves a single b_j, a node's cell can change only between j and the lowest of
the other ovals there, and it is in cell j exactly when b_j lies below the
node's switch value. The oracle therefore keeps the nodes split by the values
of b_j it has evaluated and computes h_j only on the nodes whose switch value
lies between the two evaluated values nearest the probe. Every node is still
labelled on every call and H is the bincount of all labels in node order, so
each answer is bitwise the one refractor_measure computes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .geometry import QuadratureGrid, dir_from_spherical
from .oval import _radius_from_t, normals_for_directions
from .parallel import map_chunks
from .scene import Scene, check_b_vector

TIE_REL = 1e-12
# evaluated b_j closer to a probe than GUARD_REL (|b_j| + max|t| + |P_j|) / (1 - kappa^2)
# decide no node there; the rounding error of h is a few ulps of |b_j| + |t| + |P_j|
GUARD_REL = 2.0 ** -40
ROWS_PER_WRITE = 16384   # CSV/OBJ rows formatted per write: bounded memory, few calls


@dataclass(frozen=True, eq=False)
class CellAssignment:
    labels: np.ndarray  # (n,) int, 0-based target index per node
    ties: np.ndarray    # (n,) bool, two smallest radii within TIE_REL * rho


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


def rho(scene: Scene, b, x):
    """Surface radius and owning target index at a single unit direction."""
    radii = radii_matrix(scene, b, np.asarray(x, dtype=float).reshape(1, 3))[0]
    label = int(np.argmin(radii))
    return float(radii[label]), label


def _assign(radii: np.ndarray) -> CellAssignment:
    labels = np.argmin(radii, axis=1)
    if radii.shape[1] == 1:
        ties = np.zeros(radii.shape[0], dtype=bool)
    else:
        two = np.partition(radii, 1, axis=1)
        ties = (two[:, 1] - two[:, 0]) < TIE_REL * two[:, 0]
    return CellAssignment(labels=labels, ties=ties)


def assign_cells(scene: Scene, b, grid: QuadratureGrid) -> CellAssignment:
    """Label every grid node with the target whose oval sits lowest there."""
    return _assign(radii_matrix(scene, b, grid.nodes))


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
    assignment = assign_cells(scene, b, grid)
    e = node_energies(grid, np.asarray(f_values, dtype=float))
    H = np.bincount(assignment.labels, weights=e, minlength=scene.n_targets)
    return MeasureVector(H=H, total=float(H.sum()))


class MeasureOracle:
    """H(b) for one scene and grid, re-evaluating only the undecided nodes.

    Every call returns bitwise what refractor_measure returns at the same b.
    The rows t_j = x . P_j and h_j = h(x, P_j, base_j) are kept target-major,
    so each row is contiguous. A call that moves several coordinates
    recomputes those rows and labels the nodes by a strict-less minimum chain
    over the rows, which keeps argmin's smallest-index tie rule. A call that
    moves the single coordinate j is a probe of b_j, answered by a
    _CoordinateSplit that evaluates h_j only on the nodes whose cell is not
    yet decided. Either way the label array is complete and H is its bincount
    in node order, so the summation order never changes.
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
        self._t_scale = np.max(np.abs(self._t), axis=1, initial=0.0) + self._p_norms
        self._radii = np.empty_like(self._t)
        self._base = np.full(scene.n_targets, np.nan)  # b_j of radius row j; NaN = stale
        self._labels = None
        self._split = None   # _CoordinateSplit while the calls move one coordinate
        self._b = None       # b of the last completed call, with its H
        self._H = None

    def __call__(self, b) -> np.ndarray:
        b = np.array(b, dtype=float)
        if self._b is not None and np.array_equal(b, self._b):
            return self._H.copy()
        self._b = None
        changed = np.flatnonzero(b != self._base)
        split = self._split
        if split is not None and np.any(changed != split.j):
            # the probes of b_j are over: bring row j to its new value first
            j, self._split, split = split.j, None, None
            self._set_rows(b, changed[changed == j])
            changed = changed[changed != j]
        if split is None:
            if changed.size == 1:
                j = int(changed[0])
                if np.isnan(self._base[j]):
                    self._set_rows(b, [j])
                self._split = split = _CoordinateSplit(self, j)
            else:
                self._set_rows(b, changed)
                self._labels = _lowest(self._radii, range(self._n_targets))[1]
        if split is not None:
            split.probe(float(b[split.j]))
        H = np.bincount(self._labels, weights=self._energies, minlength=self._n_targets)
        self._b, self._H = b, H
        return H.copy()

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


class _CoordinateSplit:
    """The nodes split by the values of b_j evaluated so far, the rest fixed.

    With low and arg the minimum and first-index argmin of the other radius
    rows, node k is in cell j when h_j < low, or h_j == low and j < arg; the
    tie case is folded into one test h_j < low_j by taking low_j as the next
    float above low where j < arg. h_j rises with b_j at a rate of at least
    1/(1 + kappa), so each node leaves cell j at one switch value of b_j.
    perm lists the nodes bin by bin: bin c holds the nodes in cell j at the
    c smallest breakpoints and outside it at the others. A probe between two
    breakpoints evaluates h_j on that bin only, then splits it in two.

    Rounding keeps the computed h_j monotone only between values of b_j that
    lie `guard` apart or more (see GUARD_REL); h can fall when b_j rises by
    a single ulp. A breakpoint closer than guard to a probe decides no node,
    and such a probe evaluates the bins around it without becoming a
    breakpoint itself.
    """

    def __init__(self, oracle: MeasureOracle, j: int):
        radii = oracle._radii
        n = radii.shape[1]
        low, arg = _lowest(radii, [i for i in range(oracle._n_targets) if i != j])
        np.nextafter(low, np.inf, out=low, where=arg > j)
        inside = radii[j] < low
        n_out = n - int(np.count_nonzero(inside))
        self.j = j
        self.t = oracle._t[j]
        self.p_norm = float(oracle._p_norms[j])
        self.kappa = oracle._kappa
        self.guard_scale = float(oracle._t_scale[j])
        self.guard_rel = GUARD_REL / (1.0 - self.kappa ** 2)
        self.low = low
        self.arg = arg
        self.perm = np.concatenate((np.flatnonzero(~inside), np.flatnonzero(inside)))
        self.breakpoints = [float(oracle._base[j])]
        self.offsets = [0, n_out, n]     # bin c is perm[offsets[c]:offsets[c + 1]]
        self.labels = oracle._labels = np.where(inside, j, arg)
        self.cut = n_out                 # labels say cell j exactly for perm[cut:]

    def probe(self, bj: float) -> None:
        """Relabel the nodes for b_j = bj."""
        bps, offs = self.breakpoints, self.offsets
        c = bisect_left(bps, bj)
        if c < len(bps) and bps[c] == bj:
            self._move_cut(offs[c + 1], offs[c + 1], offs[c + 1])
            return
        guard = self.guard_rel * (abs(bj) + self.guard_scale)
        lo = bisect_right(bps, bj - guard)
        hi = bisect_left(bps, bj + guard)
        s, e = offs[lo], offs[hi + 1]
        idx = self.perm[s:e]
        h, _ = _radius_from_t(self.t[idx], bj, self.p_norm, self.kappa)
        inside = h < self.low[idx]
        if lo == hi:
            n_out = idx.size - int(np.count_nonzero(inside))
            self.perm[s:e] = np.concatenate((idx[~inside], idx[inside]))
            bps.insert(lo, bj)
            offs.insert(lo + 1, s + n_out)
            self._move_cut(s + n_out, s, e)
        else:
            self._move_cut(e, s, e)
            self.labels[idx[inside]] = self.j
            self.cut = None

    def _move_cut(self, cut: int, lo: int, hi: int) -> None:
        """Label perm[:cut] by arg and perm[cut:] as cell j.

        Only perm[lo:hi] and the stretch up to the previous cut can differ
        from the labels already held; without a previous cut all are set.
        """
        if self.cut is None:
            lo, hi = 0, self.perm.size
        else:
            lo, hi = min(lo, self.cut), max(hi, self.cut)
        out = self.perm[lo:cut]
        self.labels[out] = self.arg[out]
        self.labels[self.perm[cut:hi]] = self.j
        self.cut = cut


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
    vertex order. At cell creases the smaller-index oval supplies the normal,
    which is what the argmin labeling already yields.
    """
    if n_theta < 2 or n_phi < 3:
        raise ValueError("mesh needs n_theta >= 2 and n_phi >= 3")
    b = check_b_vector(scene, b)
    psi = scene.cap.half_angle
    thetas = psi * (np.arange(n_theta) + 1.0) / n_theta
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tt = np.repeat(thetas, n_phi)
    pp = np.tile(phis, n_theta)
    dirs = dir_from_spherical(tt, pp, scene.cap)

    radii = radii_matrix(scene, b, dirs)
    labels = np.argmin(radii, axis=1)
    rr = radii[np.arange(len(labels)), labels]
    vertices = rr[:, None] * dirs

    normals = np.empty_like(vertices)
    for j in range(scene.n_targets):
        mask = labels == j
        if np.any(mask):
            normals[mask] = normals_for_directions(
                dirs[mask], scene.points[j], float(b[j]), scene.kappa
            )

    # quad (k, l) -> triangles (a, bb, c), (a, c, d); a, bb on ring k, d, c on ring k + 1
    ring = (np.arange(n_theta - 1) * n_phi)[:, None]
    a = ring + np.arange(n_phi)
    bb = ring + (np.arange(n_phi) + 1) % n_phi
    faces = np.stack((a, bb, bb + n_phi, a, bb + n_phi, a + n_phi), axis=-1).reshape(-1, 3)
    return SurfaceMesh(vertices=vertices, normals=normals, faces=faces, labels=labels)


def write_rows(fh, template: str, columns) -> None:
    """Write template % row for the rows of equal-length 1-D array columns.

    Values go through tolist(), so floats print as Python's repr (%r) and
    integers as Python ints; ROWS_PER_WRITE rows are formatted at a time.
    """
    n = len(columns[0])
    for lo in range(0, n, ROWS_PER_WRITE):
        rows = zip(*(np.asarray(c[lo:lo + ROWS_PER_WRITE]).tolist() for c in columns))
        fh.write("".join(map(template.__mod__, rows)))


def write_obj(mesh: SurfaceMesh, path) -> None:
    """Write the mesh as Wavefront OBJ (v/vn/f records, 1-based indices)."""
    f = np.asarray(mesh.faces) + 1
    with open(path, "w") as fh:
        fh.write("# poly-oval refractor surface\n")
        write_rows(fh, "v %r %r %r\n", mesh.vertices.T)
        write_rows(fh, "vn %r %r %r\n", mesh.normals.T)
        write_rows(fh, "f %d//%d %d//%d %d//%d\n",
                   (f[:, 0], f[:, 0], f[:, 1], f[:, 1], f[:, 2], f[:, 2]))


def write_label_csv(path, grid: QuadratureGrid, f_values, assignment: CellAssignment) -> None:
    """Per-node dump: node_index, theta, phi, weight, f, label (targets 1-based).

    CRLF line ends and repr floats, as csv.writer writes them.
    """
    f_values = np.asarray(f_values, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("node_index,theta,phi,weight,f,label\r\n")
        write_rows(fh, "%d,%r,%r,%r,%r,%d\r\n", (
            np.arange(grid.n_nodes), grid.thetas, grid.phis, grid.weights,
            f_values, np.asarray(assignment.labels) + 1,
        ))
