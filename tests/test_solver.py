"""Coordinate-descent solver: synthetic monotone oracles and the measure binding.

The synthetic oracles have closed-form preimages, so the bisection accuracy,
group counts, and conservation bounds can be checked exactly; the refractor
binding, whose steps land at the oracle's closed-form crossing, is then
exercised on small grids.
"""

import csv
import weakref

import numpy as np
import pytest

from refractor import solver as solver_module
from refractor.geometry import CapDomain, build_quadrature
from refractor.measure import (
    MeasureOracle,
    assign_cells,
    node_energies,
    refractor_measure,
)
from refractor.scene import (
    IntensitySpec,
    Scene,
    TargetPoint,
    admissible_bounds,
    alpha_bound,
    initial_admissible_vector,
    target_weights,
)
from refractor.solver import (
    BRACKET_TOL,
    SHIFT_SCALE,
    DeltaAboveCap,
    FloorReached,
    MaxGroupsExceeded,
    MonotoneOracleSpec,
    QuantizationTooCoarse,
    adjust_coordinate,
    estimate_lipschitz,
    solve,
    solve_refractor,
    write_convergence_csv,
)


def separable_spec(C, total):
    """G_j = C_j (1 - b_j) on [0, 1] for j >= 1; G_0 conserves the total."""
    C = np.asarray(C, dtype=float)
    n = C.size

    def evaluate(b):
        g = C * (1.0 - np.asarray(b, dtype=float))
        g[0] = total - float(np.sum(g[1:]))
        return g

    return MonotoneOracleSpec(
        evaluate=evaluate, lower=np.zeros(n), upper=np.ones(n), limits=C.copy())


def coupled_spec(c, gamma, total):
    """Two adjustable coordinates feeding energy into each other.

    G_1 = c (1 - b_1) + gamma b_2 and symmetrically for G_2; each adjustment
    of one coordinate knocks the other below its band, so the group count
    grows like a geometric series with ratio gamma / c.
    """

    def evaluate(b):
        b = np.asarray(b, dtype=float)
        g1 = c * (1.0 - b[1]) + gamma * b[2]
        g2 = c * (1.0 - b[2]) + gamma * b[1]
        return np.array([total - g1 - g2, g1, g2])

    return MonotoneOracleSpec(
        evaluate=evaluate, lower=np.zeros(3), upper=np.ones(3),
        limits=np.array([total, c + gamma, c + gamma]))


# --- per-coordinate adjustment --------------------------------------------------

def test_adjust_noop_inside_band():
    calls = []

    def oracle(b):
        calls.append(b.copy())
        return np.array([0.0, 0.349])

    b = np.array([0.5, 0.8])
    g = np.array([0.0, 0.349])
    b_new, g_new, evals, changed = adjust_coordinate(
        oracle, 1, b, g, f_j=0.35, delta=0.002, floor_j=0.0)
    assert not changed
    assert evals == 0 and calls == []      # G(b) is given: nothing to evaluate
    assert np.array_equal(b_new, b)
    assert g_new is g and g_new[1] == 0.349


def test_adjust_bisects_to_preimage():
    spec = separable_spec([1.0, 1.0], total=1.0)
    b = np.array([0.5, 1.0])
    g = spec.evaluate(b)
    b_new, g_new, evals, changed = adjust_coordinate(
        spec.evaluate, 1, b, g, f_j=0.35, delta=1e-6, floor_j=0.0)
    assert changed
    assert g[1] == 0.0
    assert abs(b_new[1] - 0.65) <= 1e-9       # analytic preimage of f_j
    assert 0.35 <= g_new[1] <= 0.35 + 1e-6
    assert np.array_equal(g_new, spec.evaluate(b_new))   # G at the lo end it returns
    assert evals <= 39


def test_adjust_lands_at_crossing_in_one_call():
    spec = separable_spec([1.0, 1.0], total=1.0)
    b = np.array([0.5, 1.0])
    proposed, calls = [], []

    def crossing(bb, j, f_j):
        proposed.append((bb.copy(), j, f_j))
        return 0.6499995                    # G_1 = 0.3500005, inside the band

    def oracle(bb):
        calls.append(bb.copy())
        return spec.evaluate(bb)

    b_new, g_new, evals, changed = adjust_coordinate(
        oracle, 1, b, spec.evaluate(b), f_j=0.35, delta=1e-6, floor_j=0.0, crossing=crossing)
    assert changed and evals == 1
    assert len(calls) == 1 and np.array_equal(calls[0], b_new)   # the check, nothing else
    assert b_new[1] == 0.6499995 and b_new[0] == 0.5
    assert np.array_equal(g_new, spec.evaluate(b_new))
    assert len(proposed) == 1 and np.array_equal(proposed[0][0], b)
    assert proposed[0][1:] == (1, 0.35)


def _counting(evaluate):
    calls = []

    def oracle(bb):
        calls.append(bb.copy())
        return evaluate(bb)

    return oracle, calls


@pytest.mark.parametrize("guess", [
    None,          # no proposal: the floor, G_1 = 1.0 above f_j + delta
    -0.1,          # below the floor: clipped to it, likewise
    1.0,           # not below b_j: G_1 = 0.0, short of f_j
    0.9,           # G_1 = 0.1, short of f_j above the floor
    0.5,           # G_1 = 0.5, above f_j + delta
    0.65 + 1e-9,   # G_1 just short of f_j
])
def test_adjust_crossing_miss_is_final(guess):
    """A proposal costs exactly one call, at the proposal clipped to the floor
    (at the floor when there is none); one that misses the band is not
    retried by bisection but raises."""
    spec = separable_spec([1.0, 1.0], total=1.0)
    b = np.array([0.5, 1.0])
    oracle, calls = _counting(spec.evaluate)
    with pytest.raises(QuantizationTooCoarse, match="coordinate 1: G = "):
        adjust_coordinate(oracle, 1, b, spec.evaluate(b), f_j=0.35, delta=1e-6, floor_j=0.0,
                          crossing=lambda bb, j, f_j: guess)
    assert len(calls) == 1
    assert calls[0][1] == (0.0 if guess is None else max(guess, 0.0))


def test_adjust_clips_crossing_to_floor_in_gap():
    """A step oracle is flat on its gap [0.4, 0.7), where G_1 = 0.36 lies in
    the band. A proposal below a floor inside that gap lands at the floor,
    which gives the same G, in one call."""
    def evaluate(bb):
        g1 = 0.0 if bb[1] >= 0.7 else (0.36 if bb[1] >= 0.4 else 1.0)
        return np.array([1.0 - g1, g1])

    b = np.array([0.5, 1.0])
    oracle, calls = _counting(evaluate)
    b_new, g_new, evals, changed = adjust_coordinate(
        oracle, 1, b, evaluate(b), f_j=0.35, delta=0.02, floor_j=0.5,
        crossing=lambda bb, j, f_j: 0.45)
    assert changed and evals == 1 and len(calls) == 1
    assert b_new[1] == 0.5 and g_new[1] == 0.36


@pytest.mark.parametrize("guess", [None, -0.1])
def test_adjust_crossing_floor_reached(guess):
    """With f_j beyond the flooding limit, the one call at the floor shows it."""
    spec = separable_spec([1.0, 0.3], total=1.0)   # G_1 <= 0.3 < f_j
    b = np.array([0.5, 1.0])
    oracle, calls = _counting(spec.evaluate)
    with pytest.raises(FloorReached, match="at floor 0.0"):
        adjust_coordinate(oracle, 1, b, spec.evaluate(b), f_j=0.35, delta=1e-3, floor_j=0.0,
                          crossing=lambda bb, j, f_j: guess)
    assert len(calls) == 1


def test_adjust_rejects_membership_violation():
    def oracle(b):
        return np.array([0.0, 0.9])

    b = np.array([0.5, 1.0])
    with pytest.raises(ValueError, match="membership"):
        adjust_coordinate(oracle, 1, b, oracle(b), f_j=0.35, delta=0.01, floor_j=0.0)


def test_adjust_rejects_floor_above_coordinate():
    def oracle(b):
        return np.array([0.0, 0.0])

    b = np.array([0.5, 0.4])
    with pytest.raises(ValueError, match="floor"):
        adjust_coordinate(oracle, 1, b, oracle(b), f_j=0.35, delta=0.01, floor_j=0.6)


def test_adjust_floor_reached():
    def oracle(b):
        return np.array([0.0, 0.0])

    b = np.array([0.5, 1.0])
    with pytest.raises(FloorReached):
        adjust_coordinate(oracle, 1, b, oracle(b), f_j=0.35, delta=0.01, floor_j=0.0)


def test_adjust_quantization_too_coarse():
    def oracle(b):
        # a single step of height 1 at b_1 = 0.5: no value lands in the band
        return np.array([0.0, 1.0 if b[1] <= 0.5 else 0.0])

    b = np.array([0.5, 1.0])
    with pytest.raises(QuantizationTooCoarse):
        adjust_coordinate(oracle, 1, b, oracle(b), f_j=0.3, delta=0.1, floor_j=0.0)


# --- grouped solve on synthetic oracles ------------------------------------------

def test_separable_oracle_one_group():
    C = np.array([0.0, 0.5, 0.6, 0.7])
    total = 0.75
    spec = separable_spec(C, total)
    f = np.array([0.1, 0.2, 0.3, 0.15])
    b_final, trace = solve(spec, f, np.array([0.5, 1.0, 1.0, 1.0]), 0.001)

    assert trace.converged
    assert trace.groups_used == 1    # the quiet group is a certificate, not work
    assert len(trace.steps) == 6     # 2 groups x 3 adjustable coordinates
    assert all(not s.changed and s.oracle_evals == 0 for s in trace.steps[3:])

    for j in range(1, 4):
        preimage = 1.0 - f[j] / C[j]
        assert abs(b_final[j] - preimage) <= BRACKET_TOL
    g = spec.evaluate(b_final)
    for j in range(1, 4):
        assert f[j] <= g[j] <= f[j] + 0.001
    assert abs(g[0] - f[0]) <= 4 * 0.001   # conservation: N * delta
    assert trace.total_evals == sum(s.oracle_evals for s in trace.steps) + 1
    assert np.array_equal(trace.g_final, g)
    assert np.array_equal(trace.b_final, b_final)


def test_coupled_oracle_invariants():
    spec = coupled_spec(c=0.5, gamma=0.45, total=2.0)
    f = np.array([1.04, 0.48, 0.48])
    delta = 1e-3
    b_final, trace = solve(spec, f, np.array([0.3, 1.0, 1.0]), delta, max_groups=500)

    assert trace.converged
    assert trace.groups_used > 3     # the coupling forces repeated sweeps

    last_b = {1: 1.0, 2: 1.0}
    for s in trace.steps:
        j = s.coordinate
        assert s.g_before <= f[j] + delta + 1e-15          # membership held
        assert s.b_new <= s.b_old                           # never raises b
        assert s.b_old == last_b[j]
        last_b[j] = s.b_new
        assert s.b_new >= spec.lower[j]                     # the default floors
        if s.changed:
            assert s.g_before < f[j] - delta               # left the band...
            assert s.g_after >= f[j]                        # ...landed at/above f
            assert s.g_after - s.g_before > delta           # strict progress
        else:
            assert s.b_new == s.b_old

    # fixed point of the coupled system: 0.5 (1 - b) + 0.45 b = 0.48
    assert abs(b_final[1] - 0.4) < 0.05
    assert abs(b_final[2] - 0.4) < 0.05
    g = spec.evaluate(b_final)
    assert abs(g[0] - f[0]) <= 3 * delta


def test_coupled_oracle_group_budget():
    spec = coupled_spec(c=0.5, gamma=0.45, total=2.0)
    f = np.array([1.04, 0.48, 0.48])
    with pytest.raises(MaxGroupsExceeded) as exc_info:
        solve(spec, f, np.array([0.3, 1.0, 1.0]), 1e-3, max_groups=3)
    trace = exc_info.value.trace
    assert trace is not None
    assert not trace.converged
    assert trace.groups_used == 3
    assert trace.b_final is not None
    assert trace.g_final is None
    assert trace.total_evals == 1 + sum(s.oracle_evals for s in trace.steps)


def test_single_target_trivial():
    spec = separable_spec(np.array([0.0]), total=0.75)
    b_final, trace = solve(spec, np.array([0.75]), np.array([0.5]), 1e-3)
    assert trace.converged
    assert trace.groups_used == 0
    assert trace.steps == []
    assert b_final[0] == 0.5
    assert trace.total_evals == 1


def test_solve_config_errors():
    spec = separable_spec(np.array([0.0, 1.0]), total=1.0)
    f = np.array([0.5, 0.5])
    start = np.array([0.5, 1.0])
    with pytest.raises(ValueError, match="positive"):
        solve(spec, f, start, 0.0)
    with pytest.raises(ValueError, match="floors"):
        solve(spec, f, start, 1e-3, floors=np.array([0.0, 1.5]))
    # start outside the membership set: G_1(start) = 1.0 > f_1 + delta
    with pytest.raises(ValueError, match="membership"):
        solve(spec, f, np.array([0.5, 0.0]), 1e-3)


# --- empirical rate estimate ------------------------------------------------------

def test_lipschitz_constant_oracle_is_zero():
    spec = MonotoneOracleSpec(
        evaluate=lambda b: np.array([1.0, 2.0]),
        lower=np.zeros(2), upper=np.ones(2), limits=np.ones(2))
    assert estimate_lipschitz(spec, spec.lower, spec.upper, 0.01) == 0.0


def test_lipschitz_linear_oracle_exact_slope():
    slopes = np.array([0.0, 2.0, 5.0])

    def evaluate(b):
        return -slopes * np.asarray(b, dtype=float)

    got = estimate_lipschitz(evaluate, np.zeros(3), np.ones(3), 0.01,
                             n_samples=8, seed=1)
    assert abs(got - 5.0) < 1e-10


def test_lipschitz_respects_hard_lower():
    def evaluate(b):
        return -np.asarray(b, dtype=float)

    # every probe would cross the hard floor, so nothing is sampled
    got = estimate_lipschitz(evaluate, np.zeros(2), np.full(2, 1e-9), 0.01,
                             hard_lower=np.zeros(2))
    assert got == 0.0


# --- binding to the refractor measure ---------------------------------------------

def test_solve_refractor_canonical_coarse(canonical_scene, grid64):
    f_values = canonical_scene.intensity.values(grid64)
    total = float(np.sum(node_energies(grid64, f_values)))
    sol = solve_refractor(canonical_scene, grid64, epsilon=2e-2 * total)

    assert sol.trace.converged
    assert float(np.max(sol.residuals)) <= sol.epsilon
    assert sol.b[0] == canonical_scene.b1

    lower, _ = admissible_bounds(canonical_scene)
    floors = lower + alpha_bound(canonical_scene)
    assert np.all(sol.b >= floors - 1e-15)

    # trace invariants: per-coordinate monotone, membership, strict progress
    b0 = initial_admissible_vector(canonical_scene)
    last_b = {j: float(b0[j]) for j in range(1, 4)}
    for s in sol.trace.steps:
        assert s.b_old == last_b[s.coordinate]
        assert s.b_new <= s.b_old
        last_b[s.coordinate] = s.b_new
        if s.changed:
            assert s.g_after - s.g_before > sol.delta

    g = target_weights(canonical_scene, grid64, f_values)
    mv = refractor_measure(canonical_scene, sol.b, grid64, f_values)
    assert np.array_equal(mv.H, sol.H)
    assert np.array_equal(np.abs(mv.H - g), sol.residuals)

    assert sol.trace.lipschitz_estimate is not None
    assert sol.trace.lipschitz_estimate > 0.0
    assert sol.trace.group_bound is not None
    assert sol.bound_supported is True


@pytest.mark.parametrize("scene_name, eps_rel", [("canonical", 2e-2), ("mirror", 1e-2)])
def test_solve_refractor_oracle_replay_bitwise(scene_name, eps_rel, canonical_scene,
                                               mirror_scene, monkeypatch):
    """Every answer the oracle gives in a whole solve, the checks of
    closed-form landings included, is bitwise the fresh measure at the same b,
    and the descent is the oracle's only caller: once at the start, then once
    at each point a step moves to, never twice at one b."""
    scene = {"canonical": canonical_scene, "mirror": mirror_scene}[scene_name]
    grid = build_quadrature(scene.cap, 64, 64)
    f_values = scene.intensity.values(grid)
    calls = []

    class Recording(MeasureOracle):
        def __call__(self, b):
            H = super().__call__(b)
            calls.append((np.array(b, dtype=float), H.copy()))
            return H

    monkeypatch.setattr(solver_module, "MeasureOracle", Recording)
    sol = solve_refractor(scene, grid,
                          epsilon=eps_rel * float(np.sum(node_energies(grid, f_values))))
    assert sol.trace.converged and sol.trace.groups_used >= 1
    assert len(calls) == sol.trace.total_evals
    assert sol.trace.total_evals == 1 + sum(s.oracle_evals for s in sol.trace.steps)
    assert len({b.tobytes() for b, _ in calls}) == len(calls)
    assert np.array_equal(calls[-1][1], sol.H) and np.array_equal(calls[-1][0], sol.b)
    for b, H in calls:
        assert np.array_equal(H, refractor_measure(scene, b, grid, f_values).H), b


def test_solve_refractor_relabels_every_node_once(canonical_scene, grid64, monkeypatch):
    """A canonical 64x64 solve whose every changed step lands at its closed
    form (no bisection) relabels every node once, at the first call; after
    that each changed step evaluates one radius row. A call that raises a
    coordinate, or moves two, relabels every node again."""
    oracles = []

    class Recording(MeasureOracle):
        def __init__(self, *args):
            super().__init__(*args)
            oracles.append(self)

    monkeypatch.setattr(solver_module, "MeasureOracle", Recording)
    f_values = canonical_scene.intensity.values(grid64)
    sol = solve_refractor(canonical_scene, grid64,
                          epsilon=2e-2 * float(np.sum(node_energies(grid64, f_values))))
    changed = [s for s in sol.trace.steps if s.changed]
    assert changed and all(s.oracle_evals == 1 for s in changed)
    (oracle,) = oracles
    assert oracle.full_relabels == 1
    assert oracle.rows_evaluated == canonical_scene.n_targets + len(changed)

    b = sol.b.copy()
    for k, step, full in ((1, -1e-4, 1), (1, 1e-5, 2), (2, 2e-5, 3), (3, -1e-5, 3)):
        b[k] += step
        oracle(b)
        assert oracle.full_relabels == full, (k, step)
    b[1:3] -= 1e-5
    H = oracle(b)
    assert oracle.full_relabels == 4
    assert np.array_equal(H, refractor_measure(canonical_scene, b, grid64, f_values).H)


def test_solve_refractor_default_epsilon_needs_fine_grid(canonical_scene, grid64):
    # at 64^2 the largest node energy exceeds delta/4 for the default epsilon
    with pytest.raises(QuantizationTooCoarse):
        solve_refractor(canonical_scene, grid64)


def test_solve_refractor_delta_cap(canonical_scene, grid64):
    """delta = epsilon / N must stay below g_1 / (N - 1); with N = 4,
    epsilon = 4 g_1 / 3 puts delta exactly on that cap."""
    f_values = canonical_scene.intensity.values(grid64)
    g0 = float(target_weights(canonical_scene, grid64, f_values)[0])
    with pytest.raises(ValueError, match="delta"):
        solve_refractor(canonical_scene, grid64, epsilon=4.0 * g0 / 3.0)


def test_solve_refractor_single_target(single_scene):
    grid = build_quadrature(single_scene.cap, 32, 32)
    sol = solve_refractor(single_scene, grid)
    assert sol.trace.converged
    assert sol.trace.groups_used == 0
    # bincount accumulates sequentially, np.sum pairwise: bitwise equality
    # holds against the measure's own total, near-equality against the source
    mv = refractor_measure(single_scene, sol.b, grid, single_scene.intensity.values(grid))
    assert sol.H[0] == mv.total
    assert abs(sol.H[0] - sol.total) < 1e-12 * sol.total
    assert float(np.max(sol.residuals)) <= sol.epsilon
    assert sol.trace.lipschitz_estimate is None    # no step, no rate
    assert sol.trace.group_bound is None
    assert np.array_equal(sol.labels, np.zeros(grid.n_nodes, dtype=int))


def test_solve_refractor_mirror_pair(mirror_scene):
    """Two targets placed mirror-symmetrically about the plane x z: the solved
    energies agree to within twice the largest node energy."""
    grid = build_quadrature(mirror_scene.cap, 128, 128)
    f_values = mirror_scene.intensity.values(grid)
    total = float(np.sum(node_energies(grid, f_values)))
    sol = solve_refractor(mirror_scene, grid, epsilon=1e-2 * total)
    assert sol.trace.converged
    assert float(np.max(sol.residuals)) <= sol.epsilon
    e_max = float(np.max(f_values * grid.weights))
    assert abs(sol.H[0] - sol.H[1]) <= 2.0 * e_max


def test_solution_labels_are_argmin_at_b_final(canonical_scene, grid256, solution256,
                                               mirror_scene):
    """The labels the solve ends on are those assign_cells gives at b_final."""
    mirror_grid = build_quadrature(mirror_scene.cap, 128, 128)
    mirror_sol = solve_refractor(mirror_scene, mirror_grid)
    for scene, grid, sol in ((canonical_scene, grid256, solution256),
                             (mirror_scene, mirror_grid, mirror_sol)):
        labels = assign_cells(scene, sol.b, grid)
        assert len(np.unique(labels)) == scene.n_targets
        assert sol.labels.dtype == labels.dtype
        assert np.array_equal(sol.labels, labels)


def test_canonical_256_steps_land_in_closed_form(solution256):
    """Every changed step of the default-tolerance 256x256 solve takes the
    oracle's crossing: one call to check it, no bisection. A step that
    changes nothing makes no call."""
    trace, delta = solution256.trace, solution256.delta
    changed = [s for s in trace.steps if s.changed]
    assert changed
    for s in changed:
        f_j = solution256.g[s.coordinate]
        assert s.oracle_evals == 1, s
        assert f_j <= s.g_after <= f_j + delta, s
    assert all(s.oracle_evals == 0 for s in trace.steps if not s.changed)
    assert trace.total_evals == sum(s.oracle_evals for s in trace.steps) + 1


# --- warm start from the half grid ---------------------------------------------------

def _epsilon(scene, grid, frac):
    return frac * float(np.sum(node_energies(grid, scene.intensity.values(grid))))


def _cold_solve(scene, grid, epsilon):
    """(b_final, trace) of the descent from the all-into-cell-1 vector on a
    fresh oracle, with solve_refractor's band, floors and crossing."""
    f_values = scene.intensity.values(grid)
    e = node_energies(grid, f_values)
    lower, upper = admissible_bounds(scene)
    oracle = MeasureOracle(scene, grid, e)
    spec = MonotoneOracleSpec(evaluate=oracle, lower=lower, upper=upper,
                              limits=np.full(scene.n_targets, float(np.sum(e))))
    return solve(spec, target_weights(scene, grid, f_values), initial_admissible_vector(scene),
                 epsilon / scene.n_targets, floors=lower + alpha_bound(scene),
                 crossing=oracle.crossing)


def test_half_grid_failing_the_guard_starts_cold(canonical_scene, grid64):
    """At 2e-2 of the total a 32x32 node holds more than delta/4, so the
    64x64 solve starts from the all-into-cell-1 vector: bitwise the descent
    that solve runs from initial_admissible_vector."""
    eps = _epsilon(canonical_scene, grid64, 2e-2)
    half = build_quadrature(canonical_scene.cap, 32, 32)
    e_half = node_energies(half, canonical_scene.intensity.values(half))
    assert float(np.max(e_half)) > eps / canonical_scene.n_targets / 4.0
    sol = solve_refractor(canonical_scene, grid64, epsilon=eps)
    b_cold, trace = _cold_solve(canonical_scene, grid64, eps)
    assert sol.warm_start is None
    assert sol.b.tobytes() == b_cold.tobytes()
    assert (sol.trace.groups_used, sol.trace.total_evals) == (trace.groups_used, trace.total_evals)


@pytest.mark.parametrize("exc", [QuantizationTooCoarse, FloorReached, MaxGroupsExceeded])
def test_coarse_level_failure_falls_back_to_cold_start(exc, mirror_scene, monkeypatch):
    """The mirror pair at 128x128 and 1e-2 of the total starts warm from
    64x64. When that coarse descent raises a solver exception, the solve
    starts cold instead and ends bitwise where the cold descent does."""
    grid = build_quadrature(mirror_scene.cap, 128, 128)
    eps = _epsilon(mirror_scene, grid, 1e-2)
    warm = solve_refractor(mirror_scene, grid, epsilon=eps).warm_start
    assert warm is not None and warm.grid == (64, 64) and warm.warm_start is None

    real, specs = solver_module.solve, []

    def coarse_fails(spec, *args, **kwargs):
        specs.append(spec)
        if len(specs) == 1:
            raise exc("coarse level")
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(solver_module, "solve", coarse_fails)
    sol = solve_refractor(mirror_scene, grid, epsilon=eps)
    monkeypatch.undo()
    b_cold, trace = _cold_solve(mirror_scene, grid, eps)
    assert len(specs) == 2 and sol.warm_start is None
    assert sol.b.tobytes() == b_cold.tobytes()
    assert sol.trace.total_evals == trace.total_evals


def test_warm_start_oracles(mirror_scene, monkeypatch):
    """A warm solve builds the coarse oracle, drops it, then builds the fine
    one. Every answer of either is bitwise the fresh measure on its grid. The
    fine oracle answers the shift trials and then the descent, whose start
    call repeats the last trial's b and finds the held answer: no relabel."""
    grid = build_quadrature(mirror_scene.cap, 128, 128)
    eps = _epsilon(mirror_scene, grid, 1e-2)
    refs, alive, calls = [], [], []

    class Recording(MeasureOracle):
        def __init__(self, scene, grid, energies):
            alive.append(sum(r() is not None for r in refs))
            super().__init__(scene, grid, energies)
            self.grid, self.calls = grid, []
            refs.append(weakref.ref(self))
            calls.append(self.calls)

        def __call__(self, b):
            H = super().__call__(b)
            self.calls.append((np.array(b, dtype=float), H.copy(), self.full_relabels))
            return H

    monkeypatch.setattr(solver_module, "MeasureOracle", Recording)
    sol = solve_refractor(mirror_scene, grid, epsilon=eps)
    warm = sol.warm_start
    assert alive == [0, 0]
    coarse_calls, fine_calls = calls
    assert len(coarse_calls) == warm.oracle_evaluations
    assert len(fine_calls) == warm.shift_trials + sol.trace.total_evals
    (b_trial, H_trial, relabels), (b_start, H_start, relabels_start) = \
        fine_calls[warm.shift_trials - 1:warm.shift_trials + 1]
    assert np.array_equal(b_trial, b_start) and np.array_equal(H_trial, H_start)
    assert relabels_start == relabels
    f_values = mirror_scene.intensity.values(grid)
    half = build_quadrature(mirror_scene.cap, *warm.grid)
    for g_calls, g_grid in ((coarse_calls, half), (fine_calls, grid)):
        f_g = mirror_scene.intensity.values(g_grid)
        for b, H, _ in g_calls:
            assert np.array_equal(H, refractor_measure(mirror_scene, b, g_grid, f_g).H), b
    assert np.array_equal(sol.H, refractor_measure(mirror_scene, sol.b, grid, f_values).H)


def test_half_grid_over_the_delta_cap_starts_cold(mirror_scene, monkeypatch):
    """The delta cap g_1 / (N - 1) is the half grid's own, and its g_1 may
    differ from the requested grid's. Where the half grid's g_1 puts delta on
    its cap, the half-grid solve refuses with DeltaAboveCap, a ValueError, and
    the requested grid, which passes its cap, starts cold: bitwise the
    descent from the all-into-cell-1 vector."""
    grid = build_quadrature(mirror_scene.cap, 128, 128)
    eps = _epsilon(mirror_scene, grid, 1e-2)
    assert solve_refractor(mirror_scene, grid, epsilon=eps).warm_start is not None
    n = mirror_scene.n_targets
    real = solver_module.target_weights

    def half_on_cap(scene, g_grid, f_values):
        g = real(scene, g_grid, f_values)
        if g_grid.n_theta == 64:
            g = g.copy()
            g[0] = (n - 1) * (eps / n)
        return g

    real_solve = solver_module.solve
    calls = []

    def coarse_breaks_monotonicity(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:  # the deepest coarse level descends first
            raise ValueError("iterate left the membership set")
        return real_solve(*args, **kwargs)

    # only the cap's refusal falls back: any other ValueError is a fault
    monkeypatch.setattr(solver_module, "solve", coarse_breaks_monotonicity)
    with pytest.raises(ValueError, match="membership"):
        solve_refractor(mirror_scene, grid, epsilon=eps)
    monkeypatch.undo()

    monkeypatch.setattr(solver_module, "target_weights", half_on_cap)
    half = build_quadrature(mirror_scene.cap, 64, 64)
    with pytest.raises(DeltaAboveCap, match="delta"):
        solve_refractor(mirror_scene, half, epsilon=eps)
    assert issubclass(DeltaAboveCap, ValueError)
    sol = solve_refractor(mirror_scene, grid, epsilon=eps)
    monkeypatch.undo()
    b_cold, trace = _cold_solve(mirror_scene, grid, eps)
    assert sol.warm_start is None
    assert sol.b.tobytes() == b_cold.tobytes()
    assert (sol.trace.groups_used, sol.trace.total_evals) == (trace.groups_used, trace.total_evals)


def test_three_level_chain_is_the_public_half_grid_solve(canonical_scene, grid256, monkeypatch):
    """Canonical 256x256 at 1e-2 of the total solves 64x64 cold, then 128x128
    and 256x256 each from the level below. Each level's warm start is the
    public solve_refractor of the half grid at the same epsilon, and the
    shift into membership gets that solution's own rate estimate."""
    rates = []
    real = solver_module._shift_into_membership

    def recording(oracle, b, g, delta, cap, rate):
        rates.append(rate)
        return real(oracle, b, g, delta, cap, rate)

    monkeypatch.setattr(solver_module, "_shift_into_membership", recording)
    sol = solve_refractor(canonical_scene, grid256, epsilon=_epsilon(canonical_scene, grid256,
                                                                     1e-2))
    monkeypatch.undo()
    coarse = {n: solve_refractor(canonical_scene, build_quadrature(canonical_scene.cap, n, n),
                                 epsilon=sol.epsilon) for n in (64, 128)}
    for n, level in coarse.items():
        assert level.delta == sol.delta
    assert coarse[64].warm_start is None and coarse[128].warm_start is not None

    warm = sol.warm_start
    assert warm.grid == (128, 128)
    assert warm.groups_used == coarse[128].trace.groups_used
    assert warm.oracle_evaluations == coarse[128].trace.total_evals
    assert warm.warm_start == coarse[128].warm_start
    assert warm.warm_start.grid == (64, 64) and warm.warm_start.warm_start is None
    assert warm.warm_start.groups_used == coarse[64].trace.groups_used
    assert warm.warm_start.oracle_evaluations == coarse[64].trace.total_evals
    assert (warm.shift_trials, warm.warm_start.shift_trials) == (2, 2)
    # the 64x64 level's shift ran first, inside the 128x128 solve
    assert rates == [coarse[64].trace.lipschitz_estimate, coarse[128].trace.lipschitz_estimate]
    assert all(rate > 0.0 for rate in rates)


def test_shift_doubles_up_to_the_cold_vector():
    """An oracle that overshoots by 2**-7 everywhere below the cap: the shift
    starts at SHIFT_SCALE * 2**-7 / rate and doubles, each coordinate capped
    on its own, until every coordinate sits at the cap, a member."""
    g, delta = np.array([0.5, 0.25, 0.25]), 0.0625
    cap = np.array([1.0, 1.0, 0.8])
    calls = []

    def oracle(b):
        b = np.array(b, dtype=float)
        calls.append(b)
        H = g.copy()
        if np.any(b < cap):
            H[1:] += delta + 2.0 ** -7
        return H

    b = np.array([1.0, 0.5, 0.7])
    b_start, s, trials = solver_module._shift_into_membership(oracle, b, g, delta, cap, 1.0)
    s0 = SHIFT_SCALE * 2.0 ** -7
    shifts = [s0 * 2.0 ** k for k in range(trials - 1)]
    assert np.array_equal(b_start, cap) and s == shifts[-1] == 0.5
    assert trials == len(calls) == 6
    assert np.array_equal(calls[0], b)
    for probe, shift in zip(calls[1:], shifts):
        assert np.array_equal(probe, [1.0, min(0.5 + shift, 1.0), min(0.7 + shift, 0.8)])
    assert calls[3][2] == 0.8 and calls[3][1] < 1.0   # coordinate 3 reaches its cap first

    calls.clear()   # no rate: straight to the cap
    b_start, s, trials = solver_module._shift_into_membership(oracle, b, g, delta, cap, 0.0)
    assert np.array_equal(b_start, cap) and s == np.inf and trials == 2
    calls.clear()   # already a member: no shift
    b_start, s, trials = solver_module._shift_into_membership(oracle, cap, g, delta, cap, 1.0)
    assert np.array_equal(b_start, cap) and s == 0.0 and trials == 1


def _first_step(scene, grid, f_j, delta, b):
    """The closed-form step of coordinate 1 and a bisection down to one ulp,
    each on a fresh oracle first called at b."""
    e = node_energies(grid, scene.intensity.values(grid))
    floor = float(admissible_bounds(scene)[0][1] + alpha_bound(scene))
    oracle = MeasureOracle(scene, grid, e)
    closed = adjust_coordinate(oracle, 1, b, oracle(b), f_j, delta, floor,
                               crossing=oracle.crossing)
    oracle = MeasureOracle(scene, grid, e)
    bisected = adjust_coordinate(oracle, 1, b, oracle(b), f_j, delta, floor, bracket_tol=1e-15)
    return closed, bisected


def test_crossing_on_mirror_split(mirror_scene):
    """The mirror pair's first step lowers b_2 from the flood until the cells
    halve the cap. There the switch values of mirrored nodes straddle
    b_1 = 1.6 within 1e-12, and the band starts at exactly half the total, so
    the energy at the split meets f_2 only up to rounding. The step still
    takes one call and lands on the step that bisection finds, the first
    past the split."""
    grid = build_quadrature(mirror_scene.cap, 128, 128)
    f_values = mirror_scene.intensity.values(grid)
    g = target_weights(mirror_scene, grid, f_values)
    delta = 1e-2 * float(np.sum(node_energies(grid, f_values))) / 2
    b = initial_admissible_vector(mirror_scene)
    closed, bisected = _first_step(mirror_scene, grid, float(g[1]), delta, b)
    assert closed[2] == 1 and closed[3]
    assert g[1] <= closed[1][1] <= g[1] + delta
    assert np.array_equal(closed[1], bisected[1])
    assert 1.6 - 1e-6 < closed[0][1] < 1.6


def test_crossing_with_tied_switch_values():
    """Two targets on the cap axis: every node of a ring has bitwise the same
    t and radii, so whole rings share one switch value and enter cell 2
    together. The landing takes the whole ring that crosses f_2, as bisection
    does."""
    cap = CapDomain(axis=np.array([0.0, 0.0, 1.0]), half_angle=np.deg2rad(10.0))
    scene = Scene(kappa=0.3, cap=cap,
                  targets=(TargetPoint(np.array([0.0, 0.0, 5.0]), 1.0),
                           TargetPoint(np.array([0.0, 0.0, 4.0]), 1.0)),
                  intensity=IntensitySpec(kind="constant", amplitude=1.0),
                  tau=0.2, r0=0.5, b1=1.6)
    grid = build_quadrature(cap, 24, 16)
    total = float(np.sum(node_energies(grid, np.ones(grid.n_nodes))))
    b = np.array([1.6, 1.5])            # cell 1 holds the whole cap
    for frac in (0.37, 0.6):
        closed, bisected = _first_step(scene, grid, frac * total, 0.1 * total, b)
        assert closed[2] == 1 and closed[3]
        assert np.array_equal(closed[1], bisected[1])
        assert frac * total <= closed[1][1] <= (frac + 0.1) * total
        labels = assign_cells(scene, closed[0], grid)
        assert np.count_nonzero(labels == 1) % grid.n_phi == 0


# --- trace serialization -----------------------------------------------------------

def test_write_convergence_csv(tmp_path):
    spec = separable_spec(np.array([0.0, 0.5, 0.6, 0.7]), total=0.75)
    f = np.array([0.1, 0.2, 0.3, 0.15])
    _, trace = solve(spec, f, np.array([0.5, 1.0, 1.0, 1.0]), 0.001)
    path = tmp_path / "trace.csv"
    write_convergence_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("group,step,coordinate,b_old,b_new,"
                        "G_target_before,G_target_after,oracle_evals")
    assert len(lines) == len(trace.steps) + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "1"  # the first step of the group...
    assert first[2] == "2"  # ...adjusts coordinate 2: coordinates are 1-based in the log
    assert float(first[3]) == trace.steps[0].b_old
    assert float(first[6]) == trace.steps[0].g_after


def _reference_convergence_csv(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "step", "coordinate", "b_old", "b_new",
                         "G_target_before", "G_target_after", "oracle_evals"])
        for s in trace.steps:
            writer.writerow([s.group, s.coordinate, s.coordinate + 1, repr(s.b_old),
                             repr(s.b_new), repr(s.g_before), repr(s.g_after), s.oracle_evals])


def test_write_convergence_csv_bytes_match_reference(mirror_scene, single_scene, tmp_path):
    """A refractor solve's log, and a single-target solve's, which has no
    step, so every column has zero rows: the bytes csv.writer writes."""
    for scene, n in ((mirror_scene, 128), (single_scene, 32)):
        trace = solve_refractor(scene, build_quadrature(scene.cap, n, n)).trace
        assert (len(trace.steps) > 0) == (scene.n_targets > 1)
        write_convergence_csv(trace, tmp_path / "got.csv")
        _reference_convergence_csv(trace, tmp_path / "ref.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
