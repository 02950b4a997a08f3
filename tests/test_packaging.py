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
