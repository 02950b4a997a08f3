import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_import_leaves_scipy_signal_and_io_to_first_use():
    # a fresh interpreter: this session's other test modules import scipy.signal
    script = """
import sys
import numpy as np
import modalsim as ms
loaded = lambda: [m for m in ("scipy.signal", "scipy.io") if m in sys.modules]
print(loaded())
basis = ms.string_basis(1.0, 3)
spec = ms.ModelSpec(ms.MaterialParams(rho=1e-3, d1=1e-3), ms.String(L=1.0, A=1e-6), T0=40.0)
ms.simulate(spec, basis, "ftm", ms.triangular_pluck(basis, 0.3, 1e-3), 0.01, 8000.0)
print(loaded())
ms.simulate(spec, basis, "ftm", ms.PointForce(0.3, np.ones(10)), 0.01, 8000.0)
print(loaded())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    # after the import, after a linear pluck (its free response runs no
    # filter), then after a linear point force (filtered over its support)
    assert run.stdout.split("\n")[:3] == ["[]", "[]", "['scipy.signal']"]
