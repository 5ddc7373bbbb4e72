"""Coordinate-descent solver: synthetic monotone oracles and the measure binding.

The synthetic oracles have closed-form preimages, so the bisection accuracy,
group counts, and conservation bounds can be checked exactly; the refractor
binding is then exercised on small grids.
"""

import numpy as np
import pytest

from refractor import solver as solver_module
from refractor.geometry import build_quadrature
from refractor.measure import MeasureOracle, refractor_measure, total_energy
from refractor.scene import (
    admissible_bounds,
    alpha_bound,
    initial_admissible_vector,
    target_weights,
)
from refractor.solver import (
    FloorReached,
    MaxGroupsExceeded,
    MonotoneOracleSpec,
    QuantizationTooCoarse,
    SolverConfig,
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
    b_new, g_before, g_after, evals, changed = adjust_coordinate(
        oracle, 1, b, f_j=0.35, delta=0.002, floor_j=0.0)
    assert not changed
    assert evals == 1 and len(calls) == 1
    assert np.array_equal(b_new, b)
    assert g_before == g_after == 0.349


def test_adjust_bisects_to_preimage():
    spec = separable_spec([1.0, 1.0], total=1.0)
    b = np.array([0.5, 1.0])
    b_new, g_before, g_after, evals, changed = adjust_coordinate(
        spec.evaluate, 1, b, f_j=0.35, delta=1e-6, floor_j=0.0)
    assert changed
    assert g_before == 0.0
    assert abs(b_new[1] - 0.65) <= 1e-9       # analytic preimage of f_j
    assert 0.35 <= g_after <= 0.35 + 1e-6
    assert evals <= 40


def test_adjust_rejects_membership_violation():
    def oracle(b):
        return np.array([0.0, 0.9])

    with pytest.raises(ValueError, match="membership"):
        adjust_coordinate(oracle, 1, np.array([0.5, 1.0]),
                          f_j=0.35, delta=0.01, floor_j=0.0)


def test_adjust_rejects_floor_above_coordinate():
    def oracle(b):
        return np.array([0.0, 0.0])

    with pytest.raises(ValueError, match="floor"):
        adjust_coordinate(oracle, 1, np.array([0.5, 0.4]),
                          f_j=0.35, delta=0.01, floor_j=0.6)


def test_adjust_floor_reached():
    def oracle(b):
        return np.array([0.0, 0.0])

    with pytest.raises(FloorReached):
        adjust_coordinate(oracle, 1, np.array([0.5, 1.0]),
                          f_j=0.35, delta=0.01, floor_j=0.0)


def test_adjust_quantization_too_coarse():
    def oracle(b):
        # a single step of height 1 at b_1 = 0.5: no value lands in the band
        return np.array([0.0, 1.0 if b[1] <= 0.5 else 0.0])

    with pytest.raises(QuantizationTooCoarse):
        adjust_coordinate(oracle, 1, np.array([0.5, 1.0]),
                          f_j=0.3, delta=0.1, floor_j=0.0)


# --- grouped solve on synthetic oracles ------------------------------------------

def test_separable_oracle_one_group():
    C = np.array([0.0, 0.5, 0.6, 0.7])
    total = 0.75
    spec = separable_spec(C, total)
    f = np.array([0.1, 0.2, 0.3, 0.15])
    config = SolverConfig(epsilon=0.004)  # delta = 0.001
    b_final, trace = solve(spec, f, np.array([0.5, 1.0, 1.0, 1.0]), config)

    assert trace.converged
    assert trace.groups_used == 1    # the quiet group is a certificate, not work
    assert len(trace.steps) == 6     # 2 groups x 3 adjustable coordinates
    assert all(not s.changed for s in trace.steps[3:])

    for j in range(1, 4):
        preimage = 1.0 - f[j] / C[j]
        assert abs(b_final[j] - preimage) <= config.bracket_tol
    g = spec.evaluate(b_final)
    for j in range(1, 4):
        assert f[j] <= g[j] <= f[j] + 0.001
    assert abs(g[0] - f[0]) <= 4 * 0.001   # conservation: N * delta
    assert trace.total_evals == sum(s.oracle_evals for s in trace.steps) + 2
    assert np.array_equal(trace.b_final, b_final)


def test_coupled_oracle_invariants():
    spec = coupled_spec(c=0.5, gamma=0.45, total=2.0)
    f = np.array([1.04, 0.48, 0.48])
    delta = 1e-3
    config = SolverConfig(delta=delta, max_groups=500)
    b_final, trace = solve(spec, f, np.array([0.3, 1.0, 1.0]), config)

    assert trace.converged
    assert trace.groups_used > 3     # the coupling forces repeated sweeps

    last_b = {1: 1.0, 2: 1.0}
    for s in trace.steps:
        j = s.coordinate
        assert s.g_before <= f[j] + delta + 1e-15          # membership held
        assert s.b_new <= s.b_old                           # never raises b
        assert s.b_old == last_b[j]
        last_b[j] = s.b_new
        assert s.b_new >= trace.floors[j]
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
    config = SolverConfig(delta=1e-3, max_groups=3)
    with pytest.raises(MaxGroupsExceeded) as exc_info:
        solve(spec, f, np.array([0.3, 1.0, 1.0]), config)
    trace = exc_info.value.trace
    assert trace is not None
    assert not trace.converged
    assert trace.groups_used == 3
    assert trace.b_final is not None
    assert trace.g_final is None


def test_single_target_trivial():
    spec = separable_spec(np.array([0.0]), total=0.75)
    b_final, trace = solve(spec, np.array([0.75]), np.array([0.5]),
                           SolverConfig(delta=1e-3))
    assert trace.converged
    assert trace.groups_used == 0
    assert trace.steps == []
    assert b_final[0] == 0.5
    assert trace.total_evals == 2


def test_solve_config_errors():
    spec = separable_spec(np.array([0.0, 1.0]), total=1.0)
    f = np.array([0.5, 0.5])
    start = np.array([0.5, 1.0])
    with pytest.raises(ValueError, match="epsilon or delta"):
        solve(spec, f, start, SolverConfig())
    with pytest.raises(ValueError, match="positive"):
        solve(spec, f, start, SolverConfig(delta=0.0))
    with pytest.raises(ValueError, match="floors"):
        solve(spec, f, start, SolverConfig(delta=1e-3),
              floors=np.array([0.0, 1.5]))
    # start outside the membership set: G_1(start) = 1.0 > f_1 + delta
    with pytest.raises(ValueError, match="membership"):
        solve(spec, f, np.array([0.5, 0.0]), SolverConfig(delta=1e-3))


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
    sol = solve_refractor(canonical_scene, grid64,
                          SolverConfig(epsilon=2e-2 * total))

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
    assert np.array_equal(mv.H, sol.measure.H)
    assert np.array_equal(np.abs(mv.H - g), sol.residuals)

    assert sol.trace.lipschitz_estimate is not None
    assert sol.trace.lipschitz_estimate > 0.0
    assert sol.trace.group_bound is not None
    assert sol.bound_supported is True


@pytest.mark.parametrize("scene_name, eps_rel", [("canonical", 2e-2), ("mirror", 1e-2)])
def test_solve_refractor_oracle_replay_bitwise(scene_name, eps_rel, canonical_scene,
                                               mirror_scene, monkeypatch):
    """Every answer the oracle gives in a whole solve, Lipschitz samples and
    bisection probes alike, is bitwise the fresh measure at the same b."""
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
    config = SolverConfig(epsilon=eps_rel * total_energy(grid, f_values))
    sol = solve_refractor(scene, grid, config)
    assert sol.trace.converged and sol.trace.groups_used >= 1
    # each Lipschitz sample: one evaluation plus at most one probe per coordinate
    n_lip = config.lipschitz_samples * (scene.n_targets + 1)
    assert sol.trace.total_evals < len(calls) <= sol.trace.total_evals + n_lip
    for b, H in calls:
        assert np.array_equal(H, refractor_measure(scene, b, grid, f_values).H), b


def test_solve_refractor_default_epsilon_needs_fine_grid(canonical_scene, grid64):
    # at 64^2 the largest node energy exceeds delta/4 for the default epsilon
    with pytest.raises(QuantizationTooCoarse):
        solve_refractor(canonical_scene, grid64)


def test_solve_refractor_delta_cap(canonical_scene, grid64):
    f_values = canonical_scene.intensity.values(grid64)
    g0 = float(target_weights(canonical_scene, grid64, f_values)[0])
    with pytest.raises(ValueError, match="delta"):
        solve_refractor(canonical_scene, grid64,
                        SolverConfig(delta=g0 / 3.0))


def test_solve_refractor_single_target(single_scene):
    grid = build_quadrature(single_scene.cap, 32, 32)
    sol = solve_refractor(single_scene, grid)
    assert sol.trace.converged
    assert sol.trace.groups_used == 0
    # bincount accumulates sequentially, np.sum pairwise: bitwise equality
    # holds against the measure's own total, near-equality against the source
    assert sol.measure.H[0] == sol.measure.total
    assert abs(sol.measure.H[0] - sol.total) < 1e-12 * sol.total
    assert float(np.max(sol.residuals)) <= sol.epsilon


def test_solve_refractor_mirror_pair(mirror_scene):
    """Two targets placed mirror-symmetrically about the plane x z: the solved
    energies agree to within twice the largest node energy."""
    grid = build_quadrature(mirror_scene.cap, 128, 128)
    f_values = mirror_scene.intensity.values(grid)
    total = total_energy(grid, f_values)
    sol = solve_refractor(mirror_scene, grid, SolverConfig(epsilon=1e-2 * total))
    assert sol.trace.converged
    assert float(np.max(sol.residuals)) <= sol.epsilon
    e_max = float(np.max(f_values * grid.weights))
    assert abs(sol.measure.H[0] - sol.measure.H[1]) <= 2.0 * e_max


# --- trace serialization -----------------------------------------------------------

def test_write_convergence_csv(tmp_path):
    spec = separable_spec(np.array([0.0, 0.5, 0.6, 0.7]), total=0.75)
    f = np.array([0.1, 0.2, 0.3, 0.15])
    _, trace = solve(spec, f, np.array([0.5, 1.0, 1.0, 1.0]),
                     SolverConfig(epsilon=0.004))
    path = tmp_path / "trace.csv"
    write_convergence_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("group,step,coordinate,b_old,b_new,"
                        "G_target_before,G_target_after,oracle_evals")
    assert len(lines) == len(trace.steps) + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "2"  # coordinates are 1-based in the log
    assert float(first[3]) == trace.steps[0].b_old
    assert float(first[6]) == trace.steps[0].g_after
