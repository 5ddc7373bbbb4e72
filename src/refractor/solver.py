"""Finitely terminating coordinate descent for monotone conserving oracles.

The oracle G maps a parameter vector b to per-target energies and must be
continuous, non-increasing in its own coordinate, non-decreasing in the
others, and flood toward a limit C_i as b_i drops to its lower limit. The
solver sweeps coordinates 2..N in groups: wherever G_j sits below its band
[f_j - delta, f_j + delta] it bisects b_j down to the crossing of f_j and
lands G_j inside [f_j, f_j + delta]. A group that changes nothing certifies
|G_j - f_j| <= delta for all adjustable coordinates, and conservation then
pins the first coordinate's residual to at most N*delta.

The first coordinate is never adjusted; it anchors the family.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .measure import MeasureOracle, MeasureVector, node_energies, total_energy
from .scene import (
    Scene,
    admissible_bounds,
    alpha_bound,
    initial_admissible_vector,
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


@dataclass
class SolverConfig:
    epsilon: Optional[float] = None      # absolute; None = 1e-3 * total at bind time
    delta: Optional[float] = None        # default epsilon / N
    bracket_tol: float = 1e-9
    max_groups: int = 10000
    guard: float = 0.0                   # floor offset above the hard lower limits
    lipschitz_samples: int = 32
    lipschitz_probe: Optional[float] = None
    lipschitz_seed: int = 0


@dataclass
class StepRecord:
    group: int
    position: int          # 1-based slot within the group
    coordinate: int        # 0-based adjusted coordinate
    b_old: float
    b_new: float
    g_before: float
    g_after: float
    oracle_evals: int
    changed: bool


@dataclass
class SolverTrace:
    b_start: np.ndarray
    floors: np.ndarray
    f: np.ndarray
    delta: float
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


def adjust_coordinate(oracle, j, b, f_j, delta, floor_j, bracket_tol=1e-9):
    """Lower coordinate j until G_j lands in [f_j, f_j + delta].

    No-op (and a single oracle call) when G_j already sits in the test band
    [f_j - delta, f_j + delta]. Otherwise bisects on [floor_j, b_j], keeping
    G(lo) >= f_j and G(hi) < f_j, down to bracket_tol, and returns the lo end:
    the least decrease that reaches f_j. Returns (b_new, StepRecord-fields).
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
    b_new = b.copy()
    b_new[j] = lo
    return b_new, g_before, g_lo, calls, True


def solve(spec: MonotoneOracleSpec, f, b_start, config: SolverConfig, floors=None):
    """Run grouped coordinate adjustments until a group changes nothing.

    Returns (b_final, SolverTrace). Raises MaxGroupsExceeded when the group
    budget runs out; QuantizationTooCoarse / FloorReached propagate from the
    per-coordinate adjustment.
    """
    f = np.asarray(f, dtype=float)
    b = np.array(b_start, dtype=float)
    n = b.size
    if config.epsilon is None and config.delta is None:
        raise ValueError("SolverConfig needs epsilon or delta")
    delta = config.delta if config.delta is not None else config.epsilon / n
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    floors = np.asarray(
        floors if floors is not None else spec.lower + config.guard, dtype=float
    )
    if np.any(floors[1:] > b[1:]):
        raise ValueError("floors exceed the starting vector")

    oracle = _CountingOracle(spec.evaluate)
    trace = SolverTrace(b_start=b.copy(), floors=floors.copy(), f=f.copy(), delta=delta)

    g0 = oracle(b)
    for j in range(1, n):
        if g0[j] > f[j] + delta:
            raise ValueError(
                f"start vector outside membership set: G[{j}] = {float(g0[j])!r} > f + delta"
            )

    for group in range(1, config.max_groups + 1):
        changed_any = False
        for pos, j in enumerate(range(1, n), start=1):
            b_new, g_before, g_after, evals, changed = adjust_coordinate(
                oracle, j, b, float(f[j]), delta, float(floors[j]), config.bracket_tol
            )
            trace.steps.append(StepRecord(
                group=group, position=pos, coordinate=j,
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
            f"no quiet group within {config.max_groups} groups", trace=trace
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
    g: np.ndarray
    residuals: np.ndarray
    epsilon: float
    delta: float
    total: float
    trace: SolverTrace
    bound_supported: bool


def solve_refractor(scene: Scene, grid, config: Optional[SolverConfig] = None) -> RefractorSolution:
    """Design the parameter vector matching the scene's target energies.

    Binds the abstract solver to the refractor measure: floors at
    kappa|P_i| + alpha, start from the all-into-cell-1 vector, flooding limits
    equal to the total source energy.
    """
    config = config or SolverConfig()
    f_values = scene.intensity.values(grid)
    energies = node_energies(grid, f_values)
    total = total_energy(grid, f_values)
    g = target_weights(scene, grid, f_values)
    n = scene.n_targets

    epsilon = config.epsilon if config.epsilon is not None else 1e-3 * total
    delta = config.delta if config.delta is not None else epsilon / n
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
    alpha = alpha_bound(scene)
    floors = lower + alpha
    b_start = initial_admissible_vector(scene)
    oracle = MeasureOracle(scene, grid, energies)
    spec = MonotoneOracleSpec(
        evaluate=oracle, lower=lower, upper=upper, limits=np.full(n, total)
    )

    m_hat = None
    if config.lipschitz_samples > 0:
        samp_lower = floors.copy()
        samp_upper = b_start.copy()
        samp_lower[0] = samp_upper[0] = scene.b1
        span = float(np.min(samp_upper[1:] - samp_lower[1:])) if n > 1 else scene.r0
        t_probe = config.lipschitz_probe if config.lipschitz_probe is not None else max(
            0.01 * span, 1e-6
        )
        m_hat = estimate_lipschitz(
            spec, samp_lower, samp_upper, t_probe,
            n_samples=config.lipschitz_samples, seed=config.lipschitz_seed,
            hard_lower=lower,
        )

    run_config = SolverConfig(
        epsilon=epsilon, delta=delta, bracket_tol=config.bracket_tol,
        max_groups=config.max_groups, guard=alpha,
        lipschitz_samples=0,
    )
    b_final, trace = solve(spec, g, b_start, run_config, floors=floors)
    trace.lipschitz_estimate = m_hat
    if m_hat is not None and n > 1:
        trace.group_bound = 2.0 * m_hat / delta * float(np.max(b_start[1:] - floors[1:]))

    # the oracle's last answer, at b_final, is bitwise refractor_measure's there
    mv = MeasureVector(H=trace.g_final, total=float(trace.g_final.sum()))
    residuals = np.abs(mv.H - g)
    margins = validate_structural(scene)
    supported = bool(all(m > 0.0 for (_, _, m) in margins)) if margins else True
    return RefractorSolution(
        b=b_final, measure=mv, g=g, residuals=residuals,
        epsilon=epsilon, delta=delta, total=total, trace=trace,
        bound_supported=supported,
    )


def write_convergence_csv(trace: SolverTrace, path) -> None:
    """Per-step log: group, step, coordinate (1-based), b values, G values, evals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "group", "step", "coordinate", "b_old", "b_new",
            "G_target_before", "G_target_after", "oracle_evals",
        ])
        for s in trace.steps:
            writer.writerow([
                s.group, s.position, s.coordinate + 1,
                repr(s.b_old), repr(s.b_new),
                repr(s.g_before), repr(s.g_after), s.oracle_evals,
            ])
