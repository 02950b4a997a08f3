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


def test_output_snapshot_compare_lists_every_array_that_differs(tmp_path, capsys):
    np = pytest.importorskip("numpy")
    path = Path(__file__).resolve().parents[1] / "tools" / "output_snapshot.py"
    module_spec = importlib.util.spec_from_file_location("output_snapshot", path)
    snapshot = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(snapshot)
    same = {"nan": np.array([1.0, np.nan]), "int": np.arange(3), "text": np.array("ok")}
    np.savez(tmp_path / "a.npz", **same, moved=np.array([1.0, 2.0]), gone=np.zeros(1),
             nudged=np.array([0.0, np.nan, 4.0, -8.0]), zero=np.zeros(2), count=np.array(5),
             reshaped=np.zeros(2), relabelled=np.array("a"), lost=np.array([2.0]))
    np.savez(tmp_path / "b.npz", **same, moved=np.array([1.0, -2.0]), new=np.zeros(1),
             nudged=np.array([0.0, np.nan, 4.5, -8.5]), zero=np.array([0.0, 1e-9]),
             count=np.array(6), reshaped=np.zeros(3), relabelled=np.array("b"),
             lost=np.array([np.nan]))
    diff, total = snapshot.differences(tmp_path / "a.npz", tmp_path / "b.npz")
    assert diff == ["gone", "new", "count", "lost", "moved", "nudged", "relabelled",
                    "reshaped", "zero"] and total == 12
    assert snapshot.main(["--compare", str(tmp_path / "a.npz"), str(tmp_path / "a.npz")]) == 0
    assert capsys.readouterr().out == "0 of 11 arrays differ\n"
    assert snapshot.main(["--compare", str(tmp_path / "a.npz"), str(tmp_path / "b.npz")]) == 1
    # each listed array: the largest difference relative to A's entry, and
    # relative to A's largest entry
    assert capsys.readouterr().out.splitlines() == [
        "differs: gone  (only in A)",
        "differs: new  (only in B)",
        "differs: count  (0.2 per element, 0.2 of the largest)",
        "differs: lost  (inf per element, inf of the largest)",
        "differs: moved  (2 per element, 2 of the largest)",
        "differs: nudged  (0.12 per element, 0.062 of the largest)",
        "differs: relabelled  (dtypes <U1 and <U1)",
        "differs: reshaped  (shapes (2,) and (3,))",
        "differs: zero  (inf per element, inf of the largest)",
        "9 of 12 arrays differ",
    ]


def test_scipy_signal_is_never_imported_and_scipy_io_waits_for_first_use():
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
force = np.r_[np.ones(10), np.zeros(70)]
ms.simulate(spec, basis, "ftm", ms.PointForce(0.3, force), 0.01, 8000.0)
problem = ms.TimeDomainProblem(
    lam=basis.eigenvalues, rate=8000.0, n_steps=80, scheme="ftm", force_signal=force,
    force_gains=ms.project_point_excitation(basis, 0.3), target_mag=np.ones((6, 17)),
    stft_window_length=32, stft_hop=16, d_hat=1e-3, t0_hat=4e4, gamma=np.ones(3),
    readout_weights=np.ones(3), free=("t0_hat",))
problem.value_and_grad(problem.initial_raw())
print(loaded())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    # after the import, after a linear pluck, then after a linear point force
    # and a linear time-domain fit's gradient (both stepped over the force's
    # support)
    assert run.stdout.split("\n")[:3] == ["[]", "[]", "[]"]
