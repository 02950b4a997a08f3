"""Fast tests of the benchmark itself: every workload at a tiny size, the
self-time and op_rel arithmetic, and the traced run's handling of vanished
names."""

import json
import time
from pathlib import Path

import pytest

import run
import spans

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "string_synth": dict(n_modes=8, duration=0.05),
    "plate_synth": dict(n_modes=6, duration=0.01, check_steps=100),
    "string_fit_td": dict(n_modes=5, n_steps=2048, starts=2, steps=4),
    "string_fit_fd": dict(n_modes=5, n_freqs=64, starts=2, steps=100),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_emits_every_metric_and_passes_checks(workload, trace):
    result = run.run(workload, seed=0, seconds=0.0, trace=bool(trace),
                     start=time.perf_counter(), setup_samples=1, sizes=TINY[workload])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name


def test_self_time_is_parent_minus_children():
    recorded = [
        ["fit", 0.0, 10.0, -1, 1],
        ["value_and_grad", 1.0, 3.0, 0, 1],
        ["value_and_grad", 5.0, 6.0, 0, 1],
        ["bptt", 5.5, 5.75, 2, 1],
        ["setup", 20.0, 21.0, -1, spans.SETUP],
    ]
    assert spans.self_times(recorded) == [7.0, 2.0, 0.75, 0.25, 1.0]
    assert spans.layer_totals(recorded, {1}) == {
        "fit": (7.0, 1), "value_and_grad": (2.75, 2), "bptt": (0.25, 1)}


def test_op_rel_is_the_median_of_per_op_ratios():
    # the third op ran while the host was slow and its kernel sample was fast
    assert run.op_rel([2.0, 3.0, 9.0], [1.0, 1.5, 1.0]) == 2.0


def test_vanished_names_are_reported_and_the_rest_traced():
    import modalsim

    original = modalsim.simulate
    targets = spans.TARGETS + (
        ("modalsim.adjoint", "no_such_function", "gone.a"),
        ("modalsim.coupling", "NoSuchClass.__call__", "gone.b"),
        ("modalsim.no_such_module", "f", "gone.c"),
    )
    recorder = spans.Recorder(targets)
    with recorder.installed():
        assert modalsim.simulate is not original
        modalsim.string_basis(1.0, 3)
    assert modalsim.simulate is original
    assert recorder.missing == [
        "modalsim.adjoint.no_such_function",
        "modalsim.coupling.NoSuchClass.__call__",
        "modalsim.no_such_module.f",
    ]
    assert [s[0] for s in recorder.spans] == ["modes.basis"]
