import importlib
import importlib.util
from pathlib import Path

import pytest


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_name_the_benchmark_traces_exists():
    # the traced run only prints a vanished name, so a rename would go unseen
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    recorder = spans.Recorder()
    with recorder.installed():
        pass
    assert recorder.missing == []


def test_output_snapshot_compare_lists_every_array_that_differs(tmp_path):
    np = pytest.importorskip("numpy")
    path = Path(__file__).resolve().parents[1] / "tools" / "output_snapshot.py"
    module_spec = importlib.util.spec_from_file_location("output_snapshot", path)
    snapshot = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(snapshot)
    same = {"nan": np.array([1.0, np.nan]), "int": np.arange(3), "text": np.array("ok")}
    np.savez(tmp_path / "a.npz", **same, moved=np.array([1.0, 2.0]), gone=np.zeros(1))
    np.savez(tmp_path / "b.npz", **same, moved=np.array([1.0, -2.0]), new=np.zeros(1))
    diff, total = snapshot.differences(tmp_path / "a.npz", tmp_path / "b.npz")
    assert diff == ["gone", "new", "moved"] and total == 6
    assert snapshot.main(["--compare", str(tmp_path / "a.npz"), str(tmp_path / "a.npz")]) == 0
    assert snapshot.main(["--compare", str(tmp_path / "a.npz"), str(tmp_path / "b.npz")]) == 1
