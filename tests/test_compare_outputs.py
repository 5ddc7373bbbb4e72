"""scripts/compare_outputs.py: byte identity of two run_canonical.py output
directories, with result.json's wall_time and scene lines set aside."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(path, wall_time, scene):
    path.mkdir()
    for name in ("validation.json", "trace.csv", "labels.csv", "transport.json", "rays.csv",
                 "surface.obj"):
        (path / name).write_bytes(f"{name} 1\r\n".encode())
    result = {"scene": scene, "b_final": [1.6], "wall_time": wall_time}
    (path / "result.json").write_text(json.dumps(result, indent=2) + "\n")


def test_same_outputs_but_wall_time_and_scene(compare_outputs, tmp_path):
    _write_run(tmp_path / "a", 0.5, "scenes/canonical.json")
    _write_run(tmp_path / "b", 0.7, "/elsewhere/canonical.json")
    rows = compare_outputs.compare(tmp_path / "a", tmp_path / "b")
    assert len(rows) == 7 and all(same for _, same in rows)


@pytest.mark.parametrize("name", ["labels.csv", "surface.obj", "result.json"])
def test_one_changed_byte_is_found(compare_outputs, tmp_path, name):
    _write_run(tmp_path / "a", 0.5, "s.json")
    _write_run(tmp_path / "b", 0.5, "s.json")
    path = tmp_path / "b" / name
    path.write_bytes(path.read_bytes().replace(b"1", b"2", 1))
    assert dict(compare_outputs.compare(tmp_path / "a", tmp_path / "b")) == {
        n: n != name for n in (*compare_outputs.ARTEFACTS, "result.json")}


def test_missing_artefact_differs(compare_outputs, tmp_path):
    _write_run(tmp_path / "a", 0.5, "s.json")
    _write_run(tmp_path / "b", 0.5, "s.json")
    (tmp_path / "b" / "rays.csv").unlink()
    assert dict(compare_outputs.compare(tmp_path / "a", tmp_path / "b"))["rays.csv"] is False
