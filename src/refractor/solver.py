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
knows the oracle's step function passes a crossing(b, j, f_j) function to
solve instead; each changed step then evaluates its answer, clipped to the
floor, with one oracle call and never bisects. Both paths end in one landing
rule: G_j in the band, or FloorReached / QuantizationTooCoarse. The descent
carries G at its current point from step to step, so a step that changes
nothing costs no call. The refractor binding passes MeasureOracle.crossing.

The first coordinate is never adjusted; it anchors the family.

solve_refractor starts the descent from solve_refractor on the half grid at
the same epsilon, raised just enough to be a member (_shift_into_membership);
where the half grid is refused (the delta cap, the node-energy guard) or its
solve fails, it starts from the all-into-cell-1 vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import build_quadrature
from .measure import MeasureOracle, node_energies, write_rows
from .scene import (
    Scene,
    SceneValidationError,
    admissible_bounds,
    alpha_bound,
    initial_admissible_vector,
    structurally_supported,
    target_weights,
    validate_structural,
)


class DeltaAboveCap(ValueError):
    """delta = epsilon / N is not below g_1 / (N - 1): epsilon is too loose."""


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
    upper: np.ndarray   # upper bounds beta_i; unread, kept for benchmark/tracing.py's rebuild
    limits: np.ndarray  # flooding values C_i = lim_{b_i -> alpha_i+} G_i(b); unread, likewise


BRACKET_TOL = 1e-9   # bisection stops once its bracket is narrower than this
MAX_GROUPS = 10000   # group budget of a solve
SHIFT_SCALE = 4.0    # a warm start's first shift is this many overshoots over the coarse rate


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


def adjust_coordinate(oracle, j, b, g, f_j, delta, floor_j, bracket_tol=BRACKET_TOL,
                      crossing=None):
    """Lower coordinate j until G_j lands in [f_j, f_j + delta].

    g is G(b). No oracle call when g_j already sits in the test band
    [f_j - delta, f_j + delta]. Given crossing, b_j becomes
    max(crossing(b, j, f_j), floor_j), or floor_j when that is None: one
    oracle call. Without, it bisects on [floor_j, b_j], keeping G(lo) >= f_j
    and G(hi) < f_j, down to bracket_tol, and keeps the lo end: the least
    decrease that reaches f_j. Either way G_j below f_j at the floor raises
    FloorReached, and outside [f_j, f_j + delta] otherwise
    QuantizationTooCoarse. Returns (b_new, G(b_new), oracle calls, changed).
    """
    b = np.asarray(b, dtype=float)
    g_before = float(g[j])
    if f_j - delta <= g_before <= f_j + delta:
        return b, g, 0, False
    if g_before > f_j + delta:
        raise ValueError(
            f"G[{j}] = {g_before!r} above f + delta = {f_j + delta!r}: "
            "iterate left the membership set; oracle violates monotonicity"
        )
    if floor_j > b[j]:
        raise ValueError(f"floor {floor_j!r} above current coordinate {float(b[j])!r}")
    calls = 0

    def at(bj):
        nonlocal calls
        probe = b.copy()
        probe[j] = bj
        calls += 1
        return probe, np.asarray(oracle(probe), dtype=float)

    if crossing is not None:
        guess = crossing(b, j, f_j)
        b_new, g_new = at(floor_j if guess is None else max(guess, floor_j))
    else:
        b_new, g_new = at(floor_j)
        hi = float(b[j])
        # short of f_j at the floor: nothing to bisect, the landing rule reports it
        while g_new[j] >= f_j and hi - b_new[j] >= bracket_tol:
            mid = 0.5 * (b_new[j] + hi)
            if not (b_new[j] < mid < hi):
                break
            probe, g_mid = at(mid)
            if g_mid[j] >= f_j:
                b_new, g_new = probe, g_mid
            else:
                hi = mid
    g_j = float(g_new[j])
    if g_j < f_j and b_new[j] == floor_j:
        raise FloorReached(
            f"G[{j}] at floor {floor_j!r} is {g_j!r} < f = {f_j!r}; "
            "flooding limit insufficient for this target"
        )
    if not f_j <= g_j <= f_j + delta:
        raise QuantizationTooCoarse(
            f"coordinate {j}: G = {g_j!r} at b = {float(b_new[j])!r} "
            f"outside [f, f + delta] = [{f_j!r}, {f_j + delta!r}]; refine the grid or relax epsilon"
        )
    return b_new, g_new, calls, True


def solve(spec: MonotoneOracleSpec, f, b_start, delta: float, floors=None, crossing=None,
          max_groups: int = MAX_GROUPS):
    """Run grouped coordinate adjustments until a group changes nothing.

    delta is the half-width of each coordinate's test band; crossing, if
    given, proposes each adjusted coordinate (adjust_coordinate). G is
    evaluated once at b_start and then only where a step probes; the descent
    carries G at its current point. Returns (b_final, SolverTrace). Raises
    MaxGroupsExceeded when the group budget runs out; QuantizationTooCoarse /
    FloorReached propagate from the per-coordinate adjustment.
    """
    f = np.asarray(f, dtype=float)
    b = np.array(b_start, dtype=float)
    n = b.size
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    floors = np.asarray(floors if floors is not None else spec.lower, dtype=float)
    if np.any(floors[1:] > b[1:]):
        raise ValueError("floors exceed the starting vector")

    trace = SolverTrace()
    g = np.asarray(spec.evaluate(b), dtype=float)
    for j in range(1, n):
        if g[j] > f[j] + delta:
            raise ValueError(
                f"start vector outside membership set: G[{j}] = {float(g[j])!r} > f + delta"
            )

    for group in range(1, max_groups + 1):
        changed_any = False
        for j in range(1, n):
            b_new, g_new, evals, changed = adjust_coordinate(
                spec.evaluate, j, b, g, float(f[j]), delta, float(floors[j]), crossing=crossing,
            )
            trace.steps.append(StepRecord(
                group=group, coordinate=j,
                b_old=float(b[j]), b_new=float(b_new[j]),
                g_before=float(g[j]), g_after=float(g_new[j]),
                oracle_evals=evals, changed=changed,
            ))
            changed_any |= changed
            b, g = b_new, g_new
        if not changed_any:
            trace.converged = True
            break
        trace.groups_used += 1
    trace.b_final = b.copy()
    trace.total_evals = 1 + sum(s.oracle_evals for s in trace.steps)
    if not trace.converged:
        raise MaxGroupsExceeded(
            f"no quiet group within {max_groups} groups", trace=trace
        )
    trace.g_final = g
    return b, trace


def estimate_lipschitz(spec_or_fn, lower, upper, t_probe, n_samples=32, seed=0, hard_lower=None):
    """Empirical one-sided rate M^ = max (G_i(b - t e_i) - G_i(b)) / t.

    No code in the program calls it; it is kept because benchmark/tracing.py
    wraps it.

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

@dataclass(frozen=True)
class WarmStart:
    """Where a warm-started descent began: the half grid's solve, then a shift."""

    grid: tuple              # (n_theta, n_phi) of the coarse level
    groups_used: int         # the coarse descent's groups
    oracle_evaluations: int  # and its oracle calls
    shift: float             # s added to b_2..b_N of the coarse b, each capped at the cold start
    shift_trials: int        # calls on this grid's oracle before the descent
    warm_start: Optional["WarmStart"]  # the coarse level's own start; None when cold


@dataclass(frozen=True, eq=False)
class RefractorSolution:
    b: np.ndarray
    H: np.ndarray       # G(b): the refracted energy per target
    labels: np.ndarray  # (n,) 0-based cell of each node at b
    g: np.ndarray
    residuals: np.ndarray
    epsilon: float
    delta: float
    total: float
    trace: SolverTrace  # the descent on this grid alone
    warm_start: Optional[WarmStart]
    bound_supported: bool


def solve_refractor(scene: Scene, grid, epsilon: Optional[float] = None,
                    max_groups: int = MAX_GROUPS) -> RefractorSolution:
    """Design the parameter vector matching the scene's target energies.

    Binds the abstract solver to the refractor measure: the absolute
    tolerance epsilon (default 1e-3 times the total source energy) gives the
    band delta = epsilon / N, floors at kappa|P_i| + alpha, flooding limits
    equal to the total source energy, and each step proposed by the oracle's
    closed-form crossing. The descent starts from solve_refractor on the half
    grid at this epsilon, raised into this grid's membership set, or from the
    all-into-cell-1 vector where that solve is refused or fails
    (_coarse_level). Its rate M^ is the steepest secant it met: each changed
    step raised G_j by more than delta, so 2 M^/delta times the room from
    start to floors bounds the groups.
    """
    f_values = scene.intensity.values(grid)
    energies = node_energies(grid, f_values)
    total = float(np.sum(energies))
    g = target_weights(scene, grid, f_values)
    n = scene.n_targets

    if epsilon is None:
        epsilon = 1e-3 * total
    delta = epsilon / n
    if n > 1 and not (delta < g[0] / (n - 1)):
        raise DeltaAboveCap(
            f"delta = {delta!r} must stay below g_1/(N-1) = {float(g[0]) / (n - 1)!r}; "
            "shrink epsilon"
        )
    # the landing guarantee: a discrete step of H_j must not straddle the
    # whole band [g_j, g_j + delta]; irrelevant when nothing is adjustable
    if n > 1 and float(np.max(energies)) > delta / 4.0:
        raise QuantizationTooCoarse(
            f"largest single-node energy {float(np.max(energies))!r} exceeds "
            f"delta/4 = {delta / 4.0!r}; refine the grid or relax epsilon"
        )

    lower, upper = admissible_bounds(scene)
    floors = lower + alpha_bound(scene)
    b_start = b_cold = initial_admissible_vector(scene)
    half = (grid.n_theta // 2, grid.n_phi // 2)
    coarse = _coarse_level(scene, half, epsilon, max_groups)
    oracle = MeasureOracle(scene, grid, energies)
    warm = None
    if coarse is not None:
        b_start, shift, trials = _shift_into_membership(
            oracle, coarse.b, g, delta, b_cold, coarse.trace.lipschitz_estimate)
        warm = WarmStart(grid=half, groups_used=coarse.trace.groups_used,
                         oracle_evaluations=coarse.trace.total_evals, shift=shift,
                         shift_trials=trials, warm_start=coarse.warm_start)
    spec = MonotoneOracleSpec(evaluate=oracle, lower=lower, upper=upper, limits=np.full(n, total))
    b_final, trace = solve(spec, g, b_start, delta, floors=floors, crossing=oracle.crossing,
                           max_groups=max_groups)
    if n > 1:
        trace.lipschitz_estimate = max(
            ((s.g_after - s.g_before) / (s.b_old - s.b_new) for s in trace.steps if s.changed),
            default=0.0,
        )
        trace.group_bound = (
            2.0 * trace.lipschitz_estimate / delta * float(np.max(b_start[1:] - floors[1:]))
        )
    # the held G(b_final) is the oracle's answer there, bitwise refractor_measure's
    H = trace.g_final
    return RefractorSolution(
        b=b_final, H=H, labels=oracle.labels(b_final), g=g, residuals=np.abs(H - g),
        epsilon=epsilon, delta=delta, total=total, trace=trace, warm_start=warm,
        bound_supported=structurally_supported(validate_structural(scene)),
    )


def _coarse_level(scene: Scene, half, epsilon: float, max_groups: int):
    """solve_refractor on the half grid of shape half at the same absolute
    epsilon, so the same delta; None with one target, below 2x2, and where
    that solve refuses the grid (DeltaAboveCap, QuantizationTooCoarse) or
    fails, so a scene the cold start solves never fails for it. Any other
    ValueError is a fault and propagates. The coarse oracle is dropped on
    return, before the caller builds its own."""
    if scene.n_targets == 1 or min(half) < 2:
        return None
    try:
        return solve_refractor(scene, build_quadrature(scene.cap, *half), epsilon, max_groups)
    except (DeltaAboveCap, QuantizationTooCoarse, FloorReached, MaxGroupsExceeded,
            SceneValidationError):
        return None


def _shift_into_membership(oracle, b, g, delta: float, cap, rate: float):
    """Raise b_2..b_N of the coarse solution b until it lies in this grid's
    membership set H_j <= g_j + delta (j >= 2); returns (b_start, shift s,
    oracle calls).

    The first call is at b itself. While some H_j overshoots g_j + delta,
    each coordinate becomes min(b_j + s, cap_j): s starts at SHIFT_SCALE
    times the largest overshoot over rate, the coarse solution's own
    lipschitz_estimate, and doubles after every call that still overshoots;
    a rate of 0 (no secant met) sends the second call straight to cap. cap,
    the cold start vector, is a member, so the doubling ends there at the
    latest. The last call is at b_start, so the descent's first call finds
    the oracle's held answer.
    """
    trial, s, calls = b, 0.0, 0
    while True:
        over = float(np.max(oracle(trial)[1:] - (g[1:] + delta)))
        calls += 1
        if over <= 0.0 or np.array_equal(trial, cap):
            return trial, s, calls
        s = 2.0 * s if s else (SHIFT_SCALE * over / rate if rate > 0.0 else np.inf)
        trial = b.copy()
        trial[1:] = np.minimum(b[1:] + s, cap[1:])


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
