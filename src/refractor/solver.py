"""Finitely terminating coordinate descent for monotone conserving oracles.

The oracle G maps a parameter vector b to per-target energies and must be
continuous, non-increasing in its own coordinate, non-decreasing in the
others, and flood toward a limit C_i as b_i drops to its lower limit. The
solver sweeps coordinates 2..N in groups: wherever G_j sits below its band
[f_j - delta, f_j + delta] it lowers b_j to the crossing of f_j and lands G_j
inside [f_j, f_j + delta]. A group that changes nothing certifies
|G_j - f_j| <= delta for all adjustable coordinates, and conservation then
pins the first coordinate's residual to at most N*delta.

By default the crossing is found by bisection on G alone. A caller that
knows the oracle's step function can pass a crossing(b, j, f_j) function to
solve; its answer is tried first and kept when one oracle call lands it in
the band, so a step costs two calls. The refractor binding passes
MeasureOracle.crossing.

The first coordinate is never adjusted; it anchors the family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .measure import MeasureOracle, MeasureVector, node_energies, total_energy, write_rows
from .scene import (
    Scene,
    admissible_bounds,
    alpha_bound,
    initial_admissible_vector,
    structurally_supported,
    target_weights,
    validate_structural,
)


class QuantizationTooCoarse(Exception):
    """The oracle's discrete steps straddle the landing band [f_j, f_j + delta]."""


class FloorReached(Exception):
    """G_j at the coordinate floor still falls short of f_j."""


class MaxGroupsExceeded(Exception):
    """Group budget exhausted before a quiet group; carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True, eq=False)
class MonotoneOracleSpec:
    """A monotone conserving oracle with its box and flooding limits."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray   # open lower limits alpha_i (flooding end)
    upper: np.ndarray   # upper bounds beta_i
    limits: np.ndarray  # flooding values C_i = lim_{b_i -> alpha_i+} G_i(b)


BRACKET_TOL = 1e-9   # bisection stops once its bracket is narrower than this
MAX_GROUPS = 10000   # group budget of a solve


@dataclass
class StepRecord:
    group: int
    coordinate: int        # 0-based adjusted coordinate j >= 1: the j-th step of its group
    b_old: float
    b_new: float
    g_before: float
    g_after: float
    oracle_evals: int
    changed: bool


@dataclass
class SolverTrace:
    steps: list = field(default_factory=list)
    b_final: Optional[np.ndarray] = None
    g_final: Optional[np.ndarray] = None
    groups_used: int = 0
    total_evals: int = 0
    converged: bool = False
    lipschitz_estimate: Optional[float] = None
    group_bound: Optional[float] = None


class _CountingOracle:
    def __init__(self, fn):
        self._fn = fn
        self.calls = 0

    def __call__(self, b):
        self.calls += 1
        return np.asarray(self._fn(b), dtype=float)


def adjust_coordinate(oracle, j, b, f_j, delta, floor_j, bracket_tol=BRACKET_TOL,
                      crossing=None):
    """Lower coordinate j until G_j lands in [f_j, f_j + delta].

    No-op (and a single oracle call) when G_j already sits in the test band
    [f_j - delta, f_j + delta]. Otherwise, given crossing, it takes
    crossing(b, j, f_j) as b_j if that lies in [floor_j, b_j) and one oracle
    call there lands G_j in the band. Failing that, it bisects on
    [floor_j, b_j], keeping G(lo) >= f_j and G(hi) < f_j, down to bracket_tol,
    and returns the lo end: the least decrease that reaches f_j. Returns
    (b_new, StepRecord-fields).
    """
    b = np.asarray(b, dtype=float)
    calls = 0

    def g_at(bj):
        nonlocal calls
        probe = b.copy()
        probe[j] = bj
        calls += 1
        return float(np.asarray(oracle(probe), dtype=float)[j])

    g_before = g_at(b[j])
    if f_j - delta <= g_before <= f_j + delta:
        return b, g_before, g_before, calls, False
    if g_before > f_j + delta:
        raise ValueError(
            f"G[{j}] = {g_before!r} above f + delta = {f_j + delta!r}: "
            "iterate left the membership set; oracle violates monotonicity"
        )
    if floor_j > b[j]:
        raise ValueError(f"floor {floor_j!r} above current coordinate {float(b[j])!r}")

    def moved(bj):
        b_new = b.copy()
        b_new[j] = bj
        return b_new

    guess = crossing(b, j, f_j) if crossing is not None else None
    if guess is not None and floor_j <= guess < b[j]:
        g_guess = g_at(guess)
        if f_j <= g_guess <= f_j + delta:
            return moved(guess), g_before, g_guess, calls, True

    g_floor = g_at(floor_j)
    if g_floor < f_j:
        raise FloorReached(
            f"G[{j}] at floor {floor_j!r} is {g_floor!r} < f = {f_j!r}; "
            "flooding limit insufficient for this target"
        )
    lo, g_lo = floor_j, g_floor
    hi = float(b[j])
    while hi - lo >= bracket_tol:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        g_mid = g_at(mid)
        if g_mid >= f_j:
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    if g_lo > f_j + delta:
        raise QuantizationTooCoarse(
            f"coordinate {j}: bracket below {bracket_tol!r} with G = {g_lo!r} "
            f"outside [f, f + delta] = [{f_j!r}, {f_j + delta!r}]; refine the grid or relax epsilon"
        )
    return moved(lo), g_before, g_lo, calls, True


def solve(spec: MonotoneOracleSpec, f, b_start, delta: float, floors=None, crossing=None,
          max_groups: int = MAX_GROUPS):
    """Run grouped coordinate adjustments until a group changes nothing.

    delta is the half-width of each coordinate's test band; crossing, if
    given, proposes each adjusted coordinate (adjust_coordinate). Returns
    (b_final, SolverTrace). Raises MaxGroupsExceeded when the group budget
    runs out; QuantizationTooCoarse / FloorReached propagate from the
    per-coordinate adjustment.
    """
    f = np.asarray(f, dtype=float)
    b = np.array(b_start, dtype=float)
    n = b.size
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    floors = np.asarray(floors if floors is not None else spec.lower, dtype=float)
    if np.any(floors[1:] > b[1:]):
        raise ValueError("floors exceed the starting vector")

    oracle = _CountingOracle(spec.evaluate)
    trace = SolverTrace()

    g0 = oracle(b)
    for j in range(1, n):
        if g0[j] > f[j] + delta:
            raise ValueError(
                f"start vector outside membership set: G[{j}] = {float(g0[j])!r} > f + delta"
            )

    for group in range(1, max_groups + 1):
        changed_any = False
        for j in range(1, n):
            b_new, g_before, g_after, evals, changed = adjust_coordinate(
                oracle, j, b, float(f[j]), delta, float(floors[j]), crossing=crossing,
            )
            trace.steps.append(StepRecord(
                group=group, coordinate=j,
                b_old=float(b[j]), b_new=float(b_new[j]),
                g_before=g_before, g_after=g_after,
                oracle_evals=evals, changed=changed,
            ))
            if changed:
                changed_any = True
                b = b_new
        if not changed_any:
            trace.converged = True
            break
        trace.groups_used += 1
    if not trace.converged:
        trace.b_final = b.copy()
        trace.total_evals = oracle.calls
        raise MaxGroupsExceeded(
            f"no quiet group within {max_groups} groups", trace=trace
        )

    trace.g_final = oracle(b)
    trace.b_final = b.copy()
    trace.total_evals = oracle.calls
    return b, trace


def estimate_lipschitz(spec_or_fn, lower, upper, t_probe, n_samples=32, seed=0, hard_lower=None):
    """Empirical one-sided rate M^ = max (G_i(b - t e_i) - G_i(b)) / t.

    Samples b uniformly in [lower, upper] (a pinned coordinate is expressed by
    lower_i == upper_i) and probes every coordinate whose decrease by t_probe
    stays above hard_lower (default: the sampling lower bound itself minus t).
    """
    fn = spec_or_fn.evaluate if isinstance(spec_or_fn, MonotoneOracleSpec) else spec_or_fn
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_samples):
        b = lower + rng.random(n) * (upper - lower)
        g = np.asarray(fn(b), dtype=float)
        for i in range(n):
            bi = b[i] - t_probe
            if hard_lower is not None and bi <= hard_lower[i]:
                continue
            probe = b.copy()
            probe[i] = bi
            gp = np.asarray(fn(probe), dtype=float)
            best = max(best, (float(gp[i]) - float(g[i])) / t_probe)
    return best


# --- binding to the refractor measure ----------------------------------------

@dataclass(frozen=True, eq=False)
class RefractorSolution:
    b: np.ndarray
    measure: object
    labels: np.ndarray  # (n,) 0-based cell of each node at b
    g: np.ndarray
    residuals: np.ndarray
    epsilon: float
    delta: float
    total: float
    trace: SolverTrace
    bound_supported: bool


def solve_refractor(scene: Scene, grid, epsilon: Optional[float] = None,
                    max_groups: int = MAX_GROUPS) -> RefractorSolution:
    """Design the parameter vector matching the scene's target energies.

    Binds the abstract solver to the refractor measure: the absolute
    tolerance epsilon (default 1e-3 times the total source energy) gives the
    band delta = epsilon / N, floors at kappa|P_i| + alpha, start from the
    all-into-cell-1 vector, flooding limits equal to the total source energy,
    and each step proposed by the oracle's closed-form crossing.
    """
    f_values = scene.intensity.values(grid)
    energies = node_energies(grid, f_values)
    total = total_energy(grid, f_values)
    g = target_weights(scene, grid, f_values)
    n = scene.n_targets

    if epsilon is None:
        epsilon = 1e-3 * total
    delta = epsilon / n
    if n > 1 and not (delta < g[0] / (n - 1)):
        raise ValueError(
            f"delta = {delta!r} must stay below g_1/(N-1) = {float(g[0]) / (n - 1)!r}; "
            "shrink epsilon"
        )
    # landing guarantee: a discrete step of H_j must not straddle the whole
    # band [f_j, f_j + delta]; irrelevant when nothing is adjustable
    e_max = float(np.max(energies))
    if n > 1 and e_max > delta / 4.0:
        raise QuantizationTooCoarse(
            f"largest single-node energy {e_max!r} exceeds delta/4 = {delta / 4.0!r}; "
            "refine the grid or relax epsilon"
        )

    lower, upper = admissible_bounds(scene)
    floors = lower + alpha_bound(scene)
    b_start = initial_admissible_vector(scene)
    oracle = MeasureOracle(scene, grid, energies)
    spec = MonotoneOracleSpec(
        evaluate=oracle, lower=lower, upper=upper, limits=np.full(n, total)
    )
    b_final, trace = solve(spec, g, b_start, delta, floors=floors, crossing=oracle.crossing,
                           max_groups=max_groups)
    # the rate M^ is the steepest secant the descent itself met: every changed
    # step raised G_j by more than delta, so 2 M^/delta times the room in b
    # bounds the groups
    if n > 1:
        trace.lipschitz_estimate = max(
            ((s.g_after - s.g_before) / (s.b_old - s.b_new) for s in trace.steps if s.changed),
            default=0.0,
        )
        trace.group_bound = (
            2.0 * trace.lipschitz_estimate / delta * float(np.max(b_start[1:] - floors[1:]))
        )

    # the oracle's last answer, at b_final, is bitwise refractor_measure's there
    mv = MeasureVector(H=trace.g_final, total=float(trace.g_final.sum()))
    labels = oracle.labels(b_final)
    residuals = np.abs(mv.H - g)
    return RefractorSolution(
        b=b_final, measure=mv, labels=labels, g=g, residuals=residuals,
        epsilon=epsilon, delta=delta, total=total, trace=trace,
        bound_supported=structurally_supported(validate_structural(scene)),
    )


def write_convergence_csv(trace: SolverTrace, path) -> None:
    """Per-step log: group, step, coordinate (1-based), b values, G values, evals.

    Coordinate 0 is never adjusted, so the step within the group is the
    0-based coordinate."""
    steps = trace.steps
    with open(path, "w", newline="") as fh:
        fh.write("group,step,coordinate,b_old,b_new,G_target_before,G_target_after,oracle_evals\r\n")
        write_rows(fh, "%d,%d,%d,%r,%r,%r,%r,%d\r\n", [
            [s.group for s in steps], [s.coordinate for s in steps],
            [s.coordinate + 1 for s in steps],
            *([getattr(s, k) for s in steps] for k in ("b_old", "b_new", "g_before", "g_after")),
            [s.oracle_evals for s in steps],
        ])
