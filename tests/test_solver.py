"""Coordinate-descent solver: synthetic monotone oracles and the measure binding.

The synthetic oracles have closed-form preimages, so the bisection accuracy,
group counts, and conservation bounds can be checked exactly; the refractor
binding, whose steps land at the oracle's closed-form crossing, is then
exercised on small grids.
"""

import numpy as np
import pytest

from refractor import solver as solver_module
from refractor.geometry import CapDomain, build_quadrature
from refractor.measure import (
    MeasureOracle,
    assign_cells,
    node_energies,
    refractor_measure,
    total_energy,
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
    total = total_energy(grid64, f_values)
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
    sol = solve_refractor(scene, grid, epsilon=eps_rel * total_energy(grid, f_values))
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
                          epsilon=2e-2 * total_energy(grid64, f_values))
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
    total = total_energy(grid, f_values)
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
    delta = 1e-2 * total_energy(grid, f_values) / 2
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
    total = total_energy(grid, np.ones(grid.n_nodes))
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
