"""The names benchmark/tracing.py reaches in the refractor modules.

The benchmark's tracer swaps module globals by name and reads fields of the
solver's trace, so deleting or reshaping one of them breaks every traced
benchmark run. Here one small traced pipeline runs in process: its counters
must agree with the program's own figures, and every swapped global must be
back in place afterwards.
"""

import importlib
import json
import pathlib

import pytest

from refractor import cli, measure, raytrace, solver

REPO = pathlib.Path(__file__).resolve().parents[1]
MIRROR = str(REPO / "scenes" / "mirror_pair.json")
MODULES = {"cli": cli, "measure": measure, "raytrace": raytrace, "solver": solver}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "benchmark"))
    return importlib.import_module("tracing")


def _patched(tracing):
    """(module, attribute) of every global instrument swaps."""
    names = {(mod, attr) for mod, attr, _ in tracing.WRAPPED}
    names |= {("solver", "solve"), ("solver", "estimate_lipschitz"),
              ("measure", "map_chunks"), ("raytrace", "map_chunks")}
    return sorted(names)


def test_traced_pipeline_counts_match_the_program(tracing, tmp_path, capsys):
    patched = _patched(tracing)
    before = {(m, a): getattr(MODULES[m], a) for m, a in patched}
    result = tmp_path / "result.json"
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert all(getattr(MODULES[m], a) is not before[(m, a)] for m, a in patched)
        assert cli.main(["solve", MIRROR, "--grid", "64x64", "--epsilon", "0.01",
                         "--out", str(result), "--log", str(tmp_path / "trace.csv")]) == 0
        assert cli.main(["trace", MIRROR, "--grid", "64x64", "--from-result", str(result),
                         "--rays", str(tmp_path / "rays.csv")]) == 0
        assert cli.main(["mesh", MIRROR, "--from-result", str(result),
                         "--resolution", "8x16", "--out", str(tmp_path / "surface.obj")]) == 0
    capsys.readouterr()
    assert all(getattr(MODULES[m], a) is before[(m, a)] for m, a in patched)

    counts = tracer.counts[None]
    written = json.loads(result.read_text())
    assert counts["solver.oracle_evals"] == written["oracle_evaluations"]
    assert counts["measure.oracle_calls"] == written["oracle_evaluations"]
    assert counts["solver.groups"] == written["groups_used"]
    assert counts["solver.adjustments"] >= 1
    assert counts["solver.adjustment_evals"] == 1 * counts["solver.adjustments"]
    assert counts["solver.oracle_evals"] == counts["solver.adjustments"] + 1
    assert counts["parallel.chunks"] >= 2        # one surface each for trace and mesh
    spans = {s["name"] for s in tracer.spans}
    assert {"solver.bind", "solver.descent", "measure.radii_matrix",
            "raytrace.validate_transport", "measure.export_mesh"} <= spans
