"""Acceptance gate: eleven numbered end-to-end criteria.

Each criterion prints exactly one `[criterion NN] PASS/FAIL` line (visible even
under captured output) and then asserts. The heavyweight 512x512 command-line
solves are shared through session fixtures.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from refractor.geometry import build_quadrature, normalize, tangent_frame
from refractor.measure import (
    assign_cells,
    flood_vector,
    node_energies,
    refractor_measure,
)
from refractor.oval import (
    OvalParams,
    oval_db,
    oval_extrema,
    oval_gradient,
    oval_radius,
)
from refractor.scene import (
    admissible_bounds,
    alpha_bound,
    initial_admissible_vector,
    target_weights,
)
from refractor.snell import critical_cos, refract
from refractor.solver import (
    MonotoneOracleSpec,
    solve,
)
from refractor.raytrace import validate_transport

REPO = Path(__file__).resolve().parents[1]
CANONICAL = str(REPO / "scenes" / "canonical.json")


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n:02d}: {detail}"


def random_oval(rng, kappa_range=(0.05, 0.95)):
    kappa = float(rng.uniform(*kappa_range))
    p = float(rng.uniform(0.5, 10.0))
    axis = normalize(rng.normal(size=3))
    b = kappa * p + float(rng.uniform(0.02, 0.98)) * (p - kappa * p)
    return OvalParams(p * axis, b, kappa)


def run_solve_512(tmp_dir: Path, tag: str):
    out = tmp_dir / f"result_{tag}.json"
    log = tmp_dir / f"trace_{tag}.csv"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "refractor", "solve", CANONICAL,
         "--grid", "512x512", "--out", str(out), "--log", str(log)],
        capture_output=True, text=True, timeout=300,
    )
    wall = time.perf_counter() - t0
    return {
        "code": proc.returncode,
        "wall": wall,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
        "result": json.loads(out.read_text()) if out.exists() else None,
        "csv": log.read_bytes() if log.exists() else None,
    }


@pytest.fixture(scope="session")
def solve512(tmp_path_factory):
    """512x512 command-line solve of the canonical scene."""
    return run_solve_512(tmp_path_factory.mktemp("acc512"), "first")


# -------------------------------------------------------------------------------

def test_criterion_01_oval_identities(capsys, rng):
    t0 = time.perf_counter()
    worst_def = 0.0
    worst_quad = 0.0
    n_batches, per_batch = 100, 100
    for _ in range(n_batches):
        ov = random_oval(rng)
        # directions across the whole sphere, not just the cone
        raw = rng.normal(size=(per_batch, 3))
        dirs = raw / np.linalg.norm(raw, axis=1)[:, None]
        h = oval_radius(dirs, ov)
        X = h[:, None] * dirs
        lhs = np.linalg.norm(X, axis=1) + ov.kappa * np.linalg.norm(
            X - np.asarray(ov.focus), axis=1)
        worst_def = max(worst_def, float(np.max(np.abs(lhs - ov.b))) / ov.b)

        # the same root written as a quadratic in h
        t = dirs @ np.asarray(ov.focus)
        quad = ((1.0 - ov.kappa**2) * h * h
                - 2.0 * h * (ov.b - ov.kappa**2 * t)
                + (ov.b**2 - ov.kappa**2 * ov.p_norm**2))
        scale = np.maximum.reduce([
            (1.0 - ov.kappa**2) * h * h,
            2.0 * h * np.abs(ov.b - ov.kappa**2 * t),
            np.full_like(h, abs(ov.b**2 - ov.kappa**2 * ov.p_norm**2)),
        ])
        worst_quad = max(worst_quad, float(np.max(np.abs(quad) / scale)))
    elapsed = time.perf_counter() - t0
    ok = worst_def <= 1e-10 and worst_quad <= 1e-10 and elapsed < 1.0
    report(capsys, 1, ok,
           f"{n_batches * per_batch} samples: defining identity {worst_def:.2e}, "
           f"quadratic {worst_quad:.2e} (tol 1e-10), {elapsed:.2f}s")


def test_criterion_02_radius_extrema(capsys, rng):
    t0 = time.perf_counter()
    thetas = np.linspace(0.0, np.pi, 1000)          # poles included
    phis = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
    ct, st = np.cos(thetas), np.sin(thetas)
    cp, sp = np.cos(phis), np.sin(phis)
    worst = 0.0
    for _ in range(100):
        ov = random_oval(rng)
        axis = normalize(np.asarray(ov.focus))
        t1, t2 = tangent_frame(axis)
        dirs = (ct[:, None, None] * axis
                + st[:, None, None] * (np.multiply.outer(cp, t1)
                                       + np.multiply.outer(sp, t2))[None, :, :])
        h = oval_radius(dirs.reshape(-1, 3), ov)
        h_min, h_max = oval_extrema(ov)
        worst = max(worst,
                    abs(float(np.min(h)) - h_min) / h_min,
                    abs(float(np.max(h)) - h_max) / h_max)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(capsys, 2, ok,
           f"100 ovals x 1e6 directions: extrema error {worst:.2e} "
           f"(tol 1e-6), {elapsed:.1f}s")


def test_criterion_03_snell_invariants(capsys, rng):
    worst = 0.0
    for _ in range(10_000):
        kappa = float(rng.uniform(0.05, 0.95))
        crit = critical_cos(kappa)
        nu = normalize(rng.normal(size=3))
        ci = crit + (1.0 - crit) * float(rng.uniform(1e-6, 1.0))
        t = normalize(np.cross(nu, rng.normal(size=3)))
        x = ci * nu + np.sqrt(1.0 - ci * ci) * t
        res = refract(x, nu, kappa)
        if res is None:
            worst = np.inf
            break
        m = res.m
        worst = max(
            worst,
            abs(np.linalg.norm(m) - 1.0),
            abs(np.linalg.norm(np.cross(x, nu)) - kappa * np.linalg.norm(np.cross(m, nu))),
            float(np.max(np.abs(x - kappa * m - res.lam * nu))),
            max(0.0, kappa - float(x @ m)),
        )

    exact = 0
    n_boundary = 0
    for _ in range(3334):
        kappa = float(rng.uniform(0.05, 0.95))
        crit = critical_cos(kappa)
        for ci, expect in ((crit, True),
                           (np.nextafter(crit, 1.0), True),
                           (np.nextafter(crit, 0.0), False)):
            x = np.array([np.sqrt(max(0.0, 1.0 - ci * ci)), 0.0, ci])
            got = refract(x, np.array([0.0, 0.0, 1.0]), kappa) is not None
            n_boundary += 1
            exact += got == expect

    ok = worst <= 1e-12 and exact == n_boundary
    report(capsys, 3, ok,
           f"10000 refractions: worst invariant {worst:.2e} (tol 1e-12); "
           f"{exact}/{n_boundary} one-ulp boundary classifications exact")


def test_criterion_04_derivative_oracles(capsys, rng):
    step = 1e-6
    worst_grad = 0.0
    worst_db = 0.0
    for _ in range(1000):
        # second derivatives blow up as kappa -> 1, poisoning the truncation
        # error of the probe; keep finite differences away from that corner
        ov = random_oval(rng, kappa_range=(0.1, 0.85))
        x = normalize(rng.normal(size=3))
        g = oval_gradient(x, ov)
        v = normalize(rng.normal(size=3))
        h_p = oval_radius_ext(x + step * v, ov)
        h_m = oval_radius_ext(x - step * v, ov)
        fd = (h_p - h_m) / (2.0 * step)
        worst_grad = max(worst_grad,
                         abs(fd - float(g @ v)) / np.linalg.norm(g))

        db = oval_db(x, ov)
        ov_p = OvalParams(ov.focus, ov.b + step, ov.kappa)
        ov_m = OvalParams(ov.focus, ov.b - step, ov.kappa)
        fd_b = (oval_radius(x, ov_p) - oval_radius(x, ov_m)) / (2.0 * step)
        worst_db = max(worst_db, abs(fd_b - db) / db)

    # parameter sensitivity stays inside its closed-form range on the cone
    range_ok = True
    for _ in range(200):
        ov = random_oval(rng, kappa_range=(0.05, 0.95))
        axis = normalize(np.asarray(ov.focus))
        cmin = ov.b / ov.p_norm
        c = cmin + (1.0 - cmin) * rng.random()
        t1, _ = tangent_frame(axis)
        x = c * axis + np.sqrt(1.0 - c * c) * t1
        db = oval_db(x, ov)
        lo = 1.0 / (1.0 - ov.kappa**2)
        hi = 1.0 / (1.0 - ov.kappa)
        range_ok = range_ok and (lo - 1e-12 <= db <= hi + 1e-12)

    ok = worst_grad <= 1e-5 and worst_db <= 1e-5 and range_ok
    report(capsys, 4, ok,
           f"1000 finite-difference probes: gradient {worst_grad:.2e}, "
           f"db {worst_db:.2e} (tol 1e-5); range check {'ok' if range_ok else 'FAILED'}")


def oval_radius_ext(x, ov):
    """Radius evaluated on the non-unit extension (finite differences only)."""
    return float(oval_radius(np.asarray(x, dtype=float), ov))


def test_criterion_05_partition_and_monotonicity(capsys, canonical_scene, grid256, rng):
    t0 = time.perf_counter()
    f = canonical_scene.intensity.values(grid256)
    e = node_energies(grid256, f)
    e_min = float(np.min(e))
    total_src = float(np.sum(node_energies(grid256, f)))
    lower, upper = admissible_bounds(canonical_scene)

    n_ok = 0
    n_samples = 200
    for _ in range(n_samples):
        b = lower + (upper - lower) * rng.uniform(0.05, 1.0, size=4)
        mv = refractor_measure(canonical_scene, b, grid256, f)
        partition = (float(np.sum(mv.H)) == mv.total
                     and abs(mv.total - total_src) < e_min / 2.0
                     and np.all(mv.H >= 0.0))

        i = int(rng.integers(4))
        b2 = b.copy()
        b2[i] = lower[i] + (b[i] - lower[i]) * rng.uniform(0.05, 0.95)
        mv2 = refractor_measure(canonical_scene, b2, grid256, f)
        monotone = (mv2.H[i] >= mv.H[i]
                    and all(mv2.H[j] <= mv.H[j] for j in range(4) if j != i))
        n_ok += partition and monotone

    elapsed = time.perf_counter() - t0
    ok = n_ok == n_samples and elapsed < 60.0
    report(capsys, 5, ok,
           f"{n_ok}/{n_samples} random vectors at 256x256: exact partition "
           f"and bitwise monotone, {elapsed:.1f}s")


def test_criterion_06_flooding(capsys, canonical_scene, grid256):
    b0 = initial_admissible_vector(canonical_scene)
    flooded = []
    for i in range(4):
        bf = flood_vector(canonical_scene, b0, i)
        labels = assign_cells(canonical_scene, bf, grid256)
        flooded.append(bool(np.all(labels == i)))
    ok = all(flooded)
    report(capsys, 6, ok,
           f"flood vectors claim the whole 256x256 aperture: "
           f"{sum(flooded)}/4 targets")


def test_criterion_07_canonical_solve(capsys, solve512, canonical_scene):
    r = solve512["result"]
    checks = {"exit 0": solve512["code"] == 0, "wall < 120s": solve512["wall"] < 120.0}
    if r is not None:
        checks["converged"] = r["converged"] is True
        checks["residuals <= epsilon"] = r["max_residual"] <= r["epsilon"]
        checks["first coordinate pinned"] = r["b_final"][0] == canonical_scene.b1

        lower, _ = admissible_bounds(canonical_scene)
        floors = lower + alpha_bound(canonical_scene)
        checks["floors respected"] = bool(np.all(np.asarray(r["b_final"]) >= floors))

        rows = [line.split(",") for line in
                solve512["csv"].decode().splitlines()[1:]]
        delta = r["delta"]
        g_target = r["g"]
        last_b = {}
        mono, member, progress = True, True, True
        for row in rows:
            coord = int(row[2]) - 1
            b_old, b_new = float(row[3]), float(row[4])
            g_before, g_after = float(row[5]), float(row[6])
            if coord in last_b:
                mono = mono and b_old == last_b[coord]
            mono = mono and b_new <= b_old
            last_b[coord] = b_new
            member = member and g_before <= g_target[coord] + delta
            if b_new != b_old:
                progress = progress and (g_before < g_target[coord] - delta
                                         and g_after >= g_target[coord]
                                         and g_after - g_before > delta)
        checks["trace monotone"] = mono
        checks["membership held"] = member
        checks["strict progress"] = progress
    else:
        checks["result written"] = False

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    detail = (f"512x512 solve: groups {r['groups_used']}, "
              f"max residual {r['max_residual']:.2e} <= {r['epsilon']:.2e}, "
              f"wall {solve512['wall']:.0f}s" if r else "no result written")
    report(capsys, 7, ok, detail + (f"; FAILED: {failed}" if failed else ""))


def test_canonical_512_starts_warm(solve512):
    """The 512x512 solve starts from the 256x256 one (128x128 fails the
    node-energy guard at this epsilon): a few fine groups after at most two
    shifted trials."""
    r = solve512["result"]
    warm = r["warm_start"]
    assert warm["grid"] == [256, 256] and warm["warm_start"] is None
    assert r["groups_used"] <= 6
    assert warm["shift_trials"] <= 3


def test_criterion_08_rate_estimate_stability(capsys, solve512, solution256):
    m512 = solve512["result"]["lipschitz_estimate"]
    m256 = solution256.trace.lipschitz_estimate
    ratio = m512 / m256 if m256 else np.inf
    stable = 0.5 <= ratio <= 2.0

    bound = solve512["result"]["group_bound"]
    groups = solve512["result"]["groups_used"]
    supported = solve512["result"]["bound_supported"]
    tag = "pass" if groups <= bound else "warn"

    ok = stable and supported
    report(capsys, 8, ok,
           f"rate estimate 256/512: {m256:.2f}/{m512:.2f} (ratio {ratio:.2f} in [0.5, 2]); "
           f"group bound {bound:.0f} vs {groups} used [{tag}]")


def test_criterion_09_transport(capsys, solve512, canonical_scene):
    b = np.asarray(solve512["result"]["b_final"], dtype=float)
    grid = build_quadrature(canonical_scene.cap, 512, 512)
    rep = validate_transport(canonical_scene, b, grid, tol_rel=1e-6)
    ok = rep.fraction_within >= 0.99 and rep.all_match
    report(capsys, 9, ok,
           f"512x512 rays: {rep.fraction_within:.4f} non-crease within 1e-6 "
           f"(need >= 0.99), max relative miss {rep.max_rel_miss:.1e}, "
           f"ray energy equals cell energy: {rep.all_match}")


def test_criterion_10_solver_semantics(capsys):
    ok_parts = []

    # separable: one working group, bisection hits the analytic preimages
    C = np.array([0.0, 0.5, 0.6, 0.7])
    total = 0.75

    def sep(b):
        g = C * (1.0 - np.asarray(b, dtype=float))
        g[0] = total - float(np.sum(g[1:]))
        return g

    spec = MonotoneOracleSpec(evaluate=sep, lower=np.zeros(4),
                              upper=np.ones(4), limits=C.copy())
    f = np.array([0.1, 0.2, 0.3, 0.15])
    b_fin, trace = solve(spec, f, np.array([0.5, 1.0, 1.0, 1.0]), 0.001)
    pre_ok = all(abs(b_fin[j] - (1.0 - f[j] / C[j])) <= 1e-9 for j in (1, 2, 3))
    g_fin = sep(b_fin)
    ok_parts.append(("separable", trace.groups_used == 1 and pre_ok
                     and abs(g_fin[0] - f[0]) <= 4 * 0.001))

    # coupled: converges with every trace invariant intact
    def coup(b):
        b = np.asarray(b, dtype=float)
        g1 = 0.5 * (1.0 - b[1]) + 0.45 * b[2]
        g2 = 0.5 * (1.0 - b[2]) + 0.45 * b[1]
        return np.array([2.0 - g1 - g2, g1, g2])

    spec2 = MonotoneOracleSpec(evaluate=coup, lower=np.zeros(3),
                               upper=np.ones(3), limits=np.full(3, 0.95))
    f2 = np.array([1.04, 0.48, 0.48])
    delta = 1e-3
    b2, tr2 = solve(spec2, f2, np.array([0.3, 1.0, 1.0]), delta, max_groups=500)
    inv = tr2.converged and tr2.groups_used > 3
    for s in tr2.steps:
        inv = inv and s.g_before <= f2[s.coordinate] + delta + 1e-15
        inv = inv and s.b_new <= s.b_old
        if s.changed:
            inv = inv and s.g_after - s.g_before > delta
    ok_parts.append(("coupled", inv))

    # a single target needs no adjustment at all
    spec3 = MonotoneOracleSpec(evaluate=lambda b: np.array([0.75]),
                               lower=np.zeros(1), upper=np.ones(1),
                               limits=np.array([0.75]))
    b3, tr3 = solve(spec3, np.array([0.75]), np.array([0.5]), 1e-3)
    ok_parts.append(("single", tr3.groups_used == 0 and b3[0] == 0.5
                     and tr3.converged))

    ok = all(v for _, v in ok_parts)
    detail = ", ".join(f"{name} {'ok' if v else 'FAILED'}" for name, v in ok_parts)
    report(capsys, 10, ok, f"synthetic oracles: {detail}")


def test_criterion_11_determinism(capsys, solve512, tmp_path):
    other = run_solve_512(tmp_path, "second")
    first = dict(solve512["result"])
    second = dict(other["result"])
    first.pop("wall_time")
    second.pop("wall_time")
    json_same = json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    csv_same = solve512["csv"] == other["csv"]
    ok = other["code"] == 0 and json_same and csv_same
    report(capsys, 11, ok,
           f"two fresh processes at 512x512: result JSON identical (minus wall "
           f"time): {json_same}, convergence CSV identical: {csv_same}")
