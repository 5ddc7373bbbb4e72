"""End-to-end command line runs, exit codes, and artifact round-trips."""

import contextlib
import csv
import io
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refractor.cli import main
from refractor.geometry import build_quadrature
from refractor.measure import node_energies
from refractor.oval import DegenerateNormal, NonPositiveDiscriminant
from refractor.scene import (
    SceneValidationError,
    admissible_bounds,
    alpha_bound,
    initial_admissible_vector,
    load_scene,
    scene_from_dict,
    target_weights,
)
from refractor.solver import FloorReached

SCENES = pathlib.Path(__file__).resolve().parents[1] / "scenes"
CANONICAL = str(SCENES / "canonical.json")
SINGLE = str(SCENES / "single.json")

RESULT_KEYS = [
    "scene", "grid", "epsilon", "delta", "total_energy", "b_final", "H", "g",
    "residuals", "max_residual", "groups_used", "oracle_evaluations",
    "lipschitz_estimate", "group_bound", "warm_start", "bound_supported", "converged",
    "wall_time",
]


def canonical_epsilon(frac=2e-2):
    scene = load_scene(CANONICAL)
    grid = build_quadrature(scene.cap, 64, 64)
    return frac * float(np.sum(node_energies(grid, scene.intensity.values(grid))))


def solve_canonical_64(tmp_path, tag, extra=()):
    out = tmp_path / f"result_{tag}.json"
    log = tmp_path / f"trace_{tag}.csv"
    code = main([
        "solve", CANONICAL, "--grid", "64x64",
        "--epsilon", repr(canonical_epsilon()),
        "--out", str(out), "--log", str(log), *extra,
    ])
    return code, out, log


# --- validate -------------------------------------------------------------------

def test_validate_canonical(capsys, tmp_path):
    jpath = tmp_path / "report.json"
    code = main(["validate", CANONICAL, "--grid", "64x64", "--json", str(jpath)])
    captured = capsys.readouterr()
    assert code == 0
    assert "tau_star = 0.323748" in captured.out
    assert captured.out.count("[ok]") == 6
    report = json.loads(jpath.read_text())
    assert report["structural_supported"] is True
    assert report["grid"] == [64, 64]


def test_validate_rejects_collinear_scene(tmp_path, capsys):
    scene = {
        "kappa": 0.3,
        "cap": {"axis": [0, 0, 1], "half_angle_deg": 10.0},
        "targets": [
            {"point": [2.5, 0.0, 4.330127018922194], "weight": 1.0},
            {"point": [5.0, 0.0, 8.660254037844387], "weight": 1.0},
        ],
        "tau": 0.2, "r0": 0.5, "b1": 1.6,
    }
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(scene))
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_scene_file(capsys):
    assert main(["validate", "/nonexistent/scene.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_scene_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_grid_argument():
    with pytest.raises(SystemExit) as exc_info:
        main(["validate", CANONICAL, "--grid", "64"])
    assert exc_info.value.code == 2


# --- solve ----------------------------------------------------------------------

def test_solve_single_target(tmp_path, capsys):
    out = tmp_path / "single.json"
    code = main(["solve", SINGLE, "--grid", "32x32",
                 "--out", str(out), "--log", ""])
    assert code == 0
    assert "status: converged" in capsys.readouterr().out
    result = json.loads(out.read_text())
    assert result["groups_used"] == 0
    assert result["converged"] is True
    assert len(result["b_final"]) == 1


def test_solve_quantization_guard(tmp_path, capsys):
    # 8x8 nodes cannot resolve the default tolerance band
    out = tmp_path / "result.json"
    code = main(["solve", CANONICAL, "--grid", "8x8", "--out", str(out)])
    assert code == 3
    assert "delta/4" in capsys.readouterr().err
    assert not out.exists()


def test_solve_group_budget(tmp_path, capsys):
    code, out, _ = solve_canonical_64(tmp_path, "budget",
                                      extra=("--max-groups", "1"))
    assert code == 4
    assert "quiet group" in capsys.readouterr().err
    assert not out.exists()


def test_solve_canonical_full_pipeline(tmp_path, capsys):
    labels_path = tmp_path / "labels.csv"
    code, out, log = solve_canonical_64(
        tmp_path, "full", extra=("--labels", str(labels_path)))
    assert code == 0
    stdout = capsys.readouterr().out
    assert "status: converged" in stdout

    result = json.loads(out.read_text())
    assert list(result) == RESULT_KEYS
    assert result["grid"] == [64, 64]
    assert result["converged"] is True
    assert result["groups_used"] <= result["group_bound"]
    assert result["max_residual"] <= result["epsilon"]
    assert len(result["b_final"]) == 4
    assert result["b_final"][0] == 1.6

    lines = labels_path.read_text().splitlines()
    assert len(lines) == 64 * 64 + 1
    labels = {line.split(",")[5] for line in lines[1:]}
    assert labels == {"1", "2", "3", "4"}   # all four cells populated

    log_lines = log.read_text().splitlines()
    assert log_lines[0].startswith("group,step,coordinate,")
    assert len(log_lines) == result["groups_used"] * 3 + 3 + 1

    # trace the solved vector: every non-crease ray must land
    code = main(["trace", CANONICAL, "--from-result", str(out),
                 "--grid", "64x64"])
    assert code == 0
    assert "ray energy matches measure: True" in capsys.readouterr().out

    # and the surface meshes at the requested resolution
    obj = tmp_path / "surface.obj"
    code = main(["mesh", CANONICAL, "--from-result", str(out),
                 "--resolution", "6x9", "--out", str(obj)])
    assert code == 0
    assert "54 vertices, 90 faces" in capsys.readouterr().out
    text = obj.read_text()
    assert sum(1 for line in text.splitlines() if line.startswith("v ")) == 54
    assert sum(1 for line in text.splitlines() if line.startswith("f ")) == 90


def test_rate_estimate_is_largest_logged_secant(tmp_path):
    """lipschitz_estimate is the steepest (G_after - G_before) / (b_old - b_new)
    over the changed rows of trace.csv, and group_bound is 2 M/delta times the
    largest room between the start vector and the floors."""
    code, out, log = solve_canonical_64(tmp_path, "rate")
    assert code == 0
    result = json.loads(out.read_text())
    rows = log.read_text().splitlines()[1:]
    secants = []
    for row in rows:
        _, _, _, b_old, b_new, g_before, g_after, _ = (float(v) for v in row.split(","))
        if b_new != b_old:
            secants.append((g_after - g_before) / (b_old - b_new))
    assert secants
    assert result["lipschitz_estimate"] == max(secants)

    scene = load_scene(CANONICAL)
    room = initial_admissible_vector(scene) - (admissible_bounds(scene)[0] + alpha_bound(scene))
    expected = 2.0 * max(secants) / result["delta"] * float(np.max(room[1:]))
    assert result["group_bound"] == expected
    assert result["groups_used"] <= result["group_bound"]


def test_trace_rejects_inadmissible_b(tmp_path, capsys):
    b_file = tmp_path / "b.json"
    b_file.write_text("[1.5, 1.6, 1.6, 1.6]")   # 1.5 sits on the open lower bound
    code = main(["trace", CANONICAL, "--b-file", str(b_file), "--grid", "16x16"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_trace_requires_b_source():
    with pytest.raises(SystemExit) as exc_info:
        main(["trace", CANONICAL])
    assert exc_info.value.code == 2


def test_trace_wrong_b_length(tmp_path, capsys):
    b_file = tmp_path / "b.json"
    b_file.write_text("[1.6, 1.6]")
    code = main(["trace", CANONICAL, "--b-file", str(b_file), "--grid", "16x16"])
    assert code == 2
    assert "entries" in capsys.readouterr().err


# --- refused before any work --------------------------------------------------------

@pytest.mark.parametrize("flag", ["--out", "--log", "--labels"])
def test_solve_rejects_directory_output(tmp_path, capsys, flag):
    out = tmp_path / "result.json"
    argv = ["solve", CANONICAL, "--grid", "64x64", "--epsilon", repr(canonical_epsilon()),
            "--out", str(out), "--log", ""]
    assert main(argv + [flag, str(tmp_path)]) == 2     # the last --out wins
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", CANONICAL, "--out", "{missing}/result.json"],
    ["solve", CANONICAL, "--out", "{tmp}/result.json", "--log", "{missing}/trace.csv"],
    ["trace", CANONICAL, "--b-file", "{b}", "--out", "{missing}/transport.json"],
    ["trace", CANONICAL, "--b-file", "{b}", "--rays", "{tmp}"],
    ["mesh", CANONICAL, "--b-file", "{b}", "--out", "{missing}/surface.obj"],
    ["mesh", CANONICAL, "--b-file", "{b}", "--out", "{tmp}"],
    ["validate", CANONICAL, "--json", "{missing}/report.json"],
])
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    b_file = tmp_path / "b.json"
    b_file.write_text("[1.6, 1.6, 1.6, 1.6]")
    paths = {"missing": str(tmp_path / "missing"), "tmp": str(tmp_path), "b": str(b_file)}
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json"]


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_solve_rejects_bad_epsilon(tmp_path, capsys, value):
    out = tmp_path / "result.json"
    assert main(["solve", CANONICAL, "--grid", "64x64", "--epsilon", value,
                 "--out", str(out), "--log", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --epsilon") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_solve_rejects_bad_max_groups(tmp_path, capsys, value):
    out = tmp_path / "result.json"
    assert main(["solve", CANONICAL, "--grid", "64x64", "--epsilon", repr(canonical_epsilon()),
                 "--max-groups", value, "--out", str(out), "--log", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --max-groups") and err.count("\n") == 1
    assert not out.exists()


def test_solve_epsilon_at_the_delta_cap_exits_2(tmp_path, capsys):
    """epsilon = 4 g_1 / 3 puts delta = epsilon / 4 exactly on g_1 / (N - 1):
    a refused epsilon, not a failed solve."""
    scene = load_scene(CANONICAL)
    grid = build_quadrature(scene.cap, 64, 64)
    g0 = float(target_weights(scene, grid, scene.intensity.values(grid))[0])
    out = tmp_path / "result.json"
    assert main(["solve", CANONICAL, "--grid", "64x64", "--epsilon", repr(4.0 * g0 / 3.0),
                 "--out", str(out), "--log", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: delta = ") and err.count("\n") == 1
    assert "g_1/(N-1)" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_trace_rejects_bad_tol(tmp_path, capsys, value):
    b_file = tmp_path / "b.json"
    b_file.write_text("[1.6, 1.6, 1.6, 1.6]")
    out = tmp_path / "transport.json"
    assert main(["trace", CANONICAL, "--b-file", str(b_file), "--grid", "16x16",
                 "--tol", value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --tol") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, out_name", [("trace", "transport.json"), ("mesh", "surface.obj")])
def test_nan_b_vector_exits_2(tmp_path, capsys, command, out_name):
    b_file = tmp_path / "b.json"
    b_file.write_text("[1.6, NaN, 2.0, 2.0]")
    out = tmp_path / out_name
    assert main([command, CANONICAL, "--b-file", str(b_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "b[2] = nan" in err and err.count("\n") == 1
    assert not out.exists()


def test_bracket_tol_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main(["solve", CANONICAL, "--bracket-tol", "1e-9", "--out", str(tmp_path / "r.json")])
    assert exc_info.value.code == 2


def test_stray_os_error_exits_2(tmp_path, capsys, monkeypatch):
    from refractor import cli

    def refuse(mesh, path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli, "write_obj", refuse)
    b_file = tmp_path / "b.json"
    b_file.write_text("[1.6, 1.6, 1.6, 1.6]")
    code = main(["mesh", CANONICAL, "--b-file", str(b_file), "--resolution", "4x6",
                 "--out", str(tmp_path / "surface.obj")])
    assert code == 2
    assert "Permission denied" in capsys.readouterr().err


@pytest.mark.parametrize("command, out_name", [("trace", "transport.json"), ("mesh", "surface.obj")])
@pytest.mark.parametrize("flag, content", [
    ("--b-file", '{"x": 1}'),
    ("--b-file", "null"),
    ("--b-file", '[1.6, "1.6", 1.6, 1.6]'),
    ("--b-file", "[1.6, true, 1.6, 1.6]"),
    ("--from-result", "{}"),
    ("--from-result", "[1.6, 1.6, 1.6, 1.6]"),
    ("--from-result", '{"b_final": {"x": 1}}'),
])
def test_malformed_b_source_exits_2(tmp_path, capsys, command, out_name, flag, content):
    source = tmp_path / "b.json"
    source.write_text(content)
    out = tmp_path / out_name
    assert main([command, CANONICAL, flag, str(source), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, patched", [
    ("solve", "solve_refractor"), ("trace", "validate_transport"), ("mesh", "export_mesh"),
])
@pytest.mark.parametrize("exc_type", [FloorReached, NonPositiveDiscriminant, DegenerateNormal])
def test_solver_and_oval_failures_exit_2(tmp_path, capsys, monkeypatch, command, patched,
                                         exc_type):
    from refractor import cli

    def fail(*args, **kwargs):
        raise exc_type("cannot go on")

    monkeypatch.setattr(cli, patched, fail)
    b_file = tmp_path / "b.json"
    b_file.write_text("[1.6, 1.6, 1.6, 1.6]")
    source = [] if command == "solve" else ["--b-file", str(b_file)]
    size = ["--resolution", "4x6"] if command == "mesh" else ["--grid", "16x16"]
    assert main([command, CANONICAL, *source, *size,
                 "--out", str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr().err == "error: cannot go on\n"
    assert not (tmp_path / "out.txt").exists()


# --- non-finite and non-boolean scene fields -------------------------------------------

def _canonical_dict():
    return json.loads(pathlib.Path(CANONICAL).read_text())


def _get(d, path):
    for key in path:
        d = d[key]
    return d


def _set(d, path, value):
    _get(d, path[:-1])[path[-1]] = value


@pytest.mark.parametrize("path, value", [
    (("cap", "axis", 0), float("nan")),
    (("targets", 1, "weight"), float("inf")),
    (("intensity", "amplitude"), float("inf")),
    (("targets", 2, "point", 1), float("inf")),
    (("normalize_weights",), "no"),
    (("kappa",), "0.3"),               # a string or boolean is no number,
    (("cap", "half_angle_deg"), "10"),  # whatever float() makes of it
    (("targets", 0, "weight"), True),
    (("cap", "axis", 2), True),
])
def test_non_finite_or_non_boolean_scene_field_exits_2(tmp_path, capsys, path, value):
    d = _canonical_dict()
    _set(d, path, value)
    with pytest.raises(SceneValidationError):
        scene_from_dict(d)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(d))    # NaN and Infinity as Python's json writes them
    assert main(["validate", str(scene), "--grid", "16x16"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("edits, message", [
    ([(("targets", 0, "point"), [1e200, 0.0, 1e200])],
     "target 1 point must not exceed 1e+50 in magnitude"),
    ([(("targets", 0, "weight"), 1e308), (("targets", 1, "weight"), 1e308)],
     "target 1 weight must not exceed 1e+50 in magnitude"),
    ([(("intensity",), {"kind": "axial-gaussian", "amplitude": 1.0, "width_deg": 1e-300})],
     "intensity width_deg must be 0 or at least 1e-50 in magnitude"),
])
@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("warnings_as_errors", [False, True])
def test_extreme_finite_scene_number_exits_2(tmp_path, capsys, edits, message, command,
                                            warnings_as_errors):
    """Finite numbers whose squares or sums overflow are refused by the loader,
    which names the field, before numpy can warn of an overflow."""
    d = _canonical_dict()
    for path, value in edits:
        _set(d, path, value)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(d))
    out = tmp_path / "result.json"
    argv = [command, str(scene), "--grid", "16x16"]
    if command == "solve":
        argv += ["--out", str(out), "--log", ""]
    with warnings.catch_warnings():
        if warnings_as_errors:
            warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}, got ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_source_without_energy_on_the_grid_exits_2(tmp_path, capsys, command):
    """An admissible but very narrow gaussian puts no energy on any node."""
    d = _canonical_dict()
    d["intensity"] = {"kind": "axial-gaussian", "amplitude": 1.0, "width_deg": 1e-40}
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(d))
    extra = ["--out", str(tmp_path / "result.json"), "--log", ""] if command == "solve" else []
    assert main([command, str(scene), "--grid", "16x16", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: source energy on the 16x16 grid is 0.0; widen the intensity\n"
    assert captured.out == ""


# --- the exit-code contract on drawn scenes ------------------------------------------

NON_FINITE = (float("nan"), float("inf"), float("-inf"))
LARGE = (1e200, -1e200, 1e308)   # finite, beyond the loader's magnitude range
TINY = (1e-300, 5e-324)          # refused as a scalar, harmless as a vector component


@st.composite
def scene_dicts(draw):
    """Admissible 1- to 3-target scenes in the manner of the benchmark's
    generator; tau, r0 and b1 are left to the loader's defaults."""
    n = draw(st.integers(1, 3))
    half_angle = draw(st.floats(8.0, 12.0))
    az0, step = draw(st.floats(0.0, 360.0)), draw(st.floats(25.0, 60.0))
    targets = []
    for k in range(n):
        dist = draw(st.floats(4.0, 6.0))
        polar = math.radians(draw(st.floats(20.0, 35.0)))
        az = math.radians(az0 + k * step)
        targets.append({
            "point": [dist * math.sin(polar) * math.cos(az),
                      dist * math.sin(polar) * math.sin(az), dist * math.cos(polar)],
            "weight": draw(st.floats(0.5, 2.0)),
        })
    amplitude = draw(st.floats(0.5, 2.0))
    intensity = draw(st.sampled_from([
        {"kind": "constant", "amplitude": amplitude},
        {"kind": "axial-gaussian", "amplitude": amplitude, "width_deg": 1.5 * half_angle},
    ]))
    return {"kappa": draw(st.floats(0.25, 0.35)),
            "cap": {"axis": [0.0, 0.0, 1.0], "half_angle_deg": half_angle},
            "intensity": intensity, "targets": targets}


def _number_paths(value, path=()):
    """Paths to every float in a parsed JSON value."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _number_paths(v, path + (k,))]
    if isinstance(value, list):
        return [p for k, v in enumerate(value) for p in _number_paths(v, path + (k,))]
    return [path] if isinstance(value, float) else []


def _run(argv):
    """main(argv) with its output captured: (exit code, stdout, stderr). An
    exception that escapes main fails the test, as it would print a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(d=scene_dicts(), command=st.sampled_from(["validate", "solve", "trace", "mesh"]),
       fault=st.sampled_from(["none", "non-finite", "extreme", "non-number", "missing-dir",
                              "huge"]),
       size=st.integers(8, 32), eps_rel=st.floats(0.02, 0.3), data=st.data())
def test_cli_exit_code_contract(tmp_path_factory, d, command, fault, size, eps_rel, data):
    work = tmp_path_factory.mktemp("contract")
    sc = scene_from_dict(d)
    lower, upper = admissible_bounds(sc)
    grid = build_quadrature(sc.cap, size, size)
    total = float(np.sum(node_energies(grid, sc.intensity.values(grid))))
    # b at and next to the edges of its box (lower, upper]
    edges = [lower, np.nextafter(lower, np.inf), 0.5 * (lower + upper), upper,
             np.nextafter(upper, np.inf)]
    picks = data.draw(st.lists(st.integers(0, 4), min_size=sc.n_targets,
                               max_size=sc.n_targets))
    b = [float(edges[e][j]) for j, e in enumerate(picks)]
    b_file = work / "b.json"
    b_file.write_text(json.dumps(b))

    if fault in ("non-finite", "extreme", "non-number"):
        path = data.draw(st.sampled_from(_number_paths(d)))
        values = {"non-finite": NON_FINITE,
                  "extreme": LARGE + (TINY if isinstance(path[-1], str) else ()),
                  "non-number": (str(_get(d, path)), True)}[fault]
        _set(d, path, data.draw(st.sampled_from(values)))
    scene = work / "scene.json"
    scene.write_text(json.dumps(d))
    outdir = work / "missing" if fault == "missing-dir" else work
    # a terabyte grid or mesh: its first large array fails to allocate at once
    grid_arg = "1000000x1000000" if fault == "huge" else f"{size}x{size}"
    argv = {
        "validate": ["validate", str(scene), "--grid", grid_arg, "--json", str(outdir / "v.json")],
        "solve": ["solve", str(scene), "--grid", grid_arg, "--epsilon", repr(eps_rel * total),
                  "--out", str(outdir / "result.json"), "--log", str(outdir / "trace.csv"),
                  "--labels", str(outdir / "labels.csv")],
        "trace": ["trace", str(scene), "--b-file", str(b_file), "--grid", grid_arg,
                  "--out", str(outdir / "transport.json"), "--rays", str(outdir / "rays.csv")],
        "mesh": ["mesh", str(scene), "--b-file", str(b_file),
                 "--resolution", "1000000x1000000" if fault == "huge" else "4x6",
                 "--out", str(outdir / "surface.obj")],
    }[command]

    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in out + err
    if code >= 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    if fault != "none":
        assert code == 2
        assert not (work / "missing").exists()
    elif command in ("trace", "mesh") and any(e in (0, 4) for e in picks):
        assert code == 2 and "outside" in err
    elif command == "solve" and code == 0:
        # every changed step lands G_j in [g_j, g_j + delta]; the quiet last
        # group leaves each adjusted H_j within delta of g_j, and |H - g| <= epsilon
        result = json.loads((outdir / "result.json").read_text())
        H, g, delta = np.array(result["H"]), np.array(result["g"]), result["delta"]
        with open(outdir / "trace.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                g_j = g[int(row["coordinate"]) - 1]
                if row["b_new"] != row["b_old"]:
                    assert g_j <= float(row["G_target_after"]) <= g_j + delta
        assert np.all(np.abs(H[1:] - g[1:]) <= delta)
        assert np.max(np.abs(H - g)) <= result["epsilon"]
