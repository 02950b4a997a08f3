#!/usr/bin/env python3
"""Benchmark of modalsim: synthesis and parameter fitting, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload string_synth --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One run builds one workload from its seed, repeats the workload's op for
``--seconds`` seconds on one thread, checks every op's output, and prints a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` as its
last line. ``--trace 0`` gives the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and gives the per-layer metrics instead.
``--workload all`` runs each workload in a process of its own. A failed op or
check makes the run exit with status 1. See README.md in this directory.
"""

import time

_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("string_synth", "plate_synth", "string_fit_td", "string_fit_fd")
# BLAS must run on one thread: unpinned, OpenBLAS wake-ups after long Python
# loops swing single calls by orders of magnitude.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is measured once in the run itself and again in fresh processes.
SETUP_SAMPLES = 3
MIN_OPS = 4

# Per-layer metrics, by the span they read. Set-up layers report the self time
# of the one set-up; op layers report self time or calls per traced op.
SETUP_LAYERS = {
    "modalsim.import_s": "modalsim.import",
    "modes.basis_s": "modes.basis",
    "coupling.tensors_s": "coupling.tensors",
    "analysis.stft_s": "analysis.stft",
    "analysis.bark_grid_s": "analysis.bark_grid",
}
OP_LAYERS = {
    "coupling.vk_force_s": "coupling.vk_force",
    "integrators.coeffs_s": "integrators.coeffs",
    "integrators.recurrence_s": "integrators.recurrence",
    "adjoint.forward_s": "adjoint.forward",
    "adjoint.bptt_s": "adjoint.bptt",
    "adjoint.stft_s": "adjoint.stft",
    "adjoint.stft_adjoint_s": "adjoint.stft_adjoint",
    "adjoint.coeff_maps_s": "adjoint.coeff_maps",
    "adjoint.tf_s": "adjoint.tf",
    "adjoint.tf_adjoint_s": "adjoint.tf_adjoint",
    "losses.loss_grad_s": "losses.loss_grad",
    "fitting.value_and_grad_s": "fitting.value_and_grad",
    "fitting.engine_s": "fitting.engine",
}
OP_COUNTS = {
    "coupling.vk_force_calls": "coupling.vk_force",
    "fitting.value_and_grad_calls": "fitting.value_and_grad",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def measure(case, seconds: float, recorder=None):
    """Repeat the op for ``seconds``, checking each output outside the timed
    region. The workload's reference kernels are timed before the first op and
    after every op; an op's reference time is the mean of the two around it.
    With a recorder, every second op is traced."""
    import modalsim as ms
    from reference import KERNELS
    from spans import UNTRACED

    kernels = [KERNELS[name] for name in case.reference]

    def reference():
        for kernel in kernels:
            kernel()

    def ref_time():
        t = time.perf_counter()
        reference()
        return time.perf_counter() - t

    times = {False: [], True: []}
    refs = {False: [], True: []}
    attempted = failed = useful = starts = 0
    reference()  # warm-up
    before = ref_time()
    deadline = time.perf_counter() + seconds
    while attempted < MIN_OPS or time.perf_counter() < deadline:
        traced = recorder is not None and attempted % 2 == 1
        attempted += 1
        if recorder is not None:
            recorder.op = attempted if traced else UNTRACED
        with recorder.installed() if traced else contextlib.nullcontext():
            t = time.perf_counter()
            try:
                out = case.op()
            except (ms.InstabilityError, ms.FitDivergedError) as exc:
                failed += 1
                print(f"op {attempted} failed: {type(exc).__name__}: {exc}", flush=True)
                continue
            dt = time.perf_counter() - t
        after = ref_time()
        times[traced].append(dt)
        refs[traced].append((before + after) / 2.0)
        before = after
        problems = case.check(out)
        if case.useful is not None:
            ok, n = case.useful(out)
            useful += ok
            starts += n
        del out
        if problems:
            failed += 1
            print(f"op {attempted} check failed: {'; '.join(problems)}", flush=True)
    return times, refs, attempted, failed, (useful, starts)


def op_rel(times, refs) -> float:
    """Op time in units of the reference kernel's time: the median over ops,
    so an op during which the host changed speed counts for little."""
    return statistics.median(t / r for t, r in zip(times, refs))


def per_layer(recorder, times, refs, useful) -> dict:
    from spans import SETUP, layer_totals

    traced_ops = {s[4] for s in recorder.spans if s[4] > 0}
    n_ops = max(len(times[True]), 1)
    setup = layer_totals(recorder.spans, {SETUP})
    ops = layer_totals(recorder.spans, traced_ops)
    m = {}
    for name, span in SETUP_LAYERS.items():
        m[name] = (setup.get(span, (0.0, 0))[0], "s")
    for name, span in OP_LAYERS.items():
        m[name] = (ops.get(span, (0.0, 0))[0] / n_ops, "s")
    for name, span in OP_COUNTS.items():
        m[name] = (ops.get(span, (0.0, 0))[1] / n_ops, "count")
    ok, n = useful
    m["fitting.useful_start_frac"] = (ok / n if n else 0.0, "ratio")
    m["trace.overhead_ratio"] = (
        op_rel(times[True], refs[True]) / op_rel(times[False], refs[False]), "ratio")
    m["trace.accounted_frac"] = (
        sum(t for t, _ in ops.values()) / sum(times[True]), "ratio")
    print(f"{'span':28s} {'calls/op':>10s} {'self s/op':>12s}   (setup: calls, self s)")
    for span in sorted(set(ops) | set(setup)):
        t, c = ops.get(span, (0.0, 0))
        ts, cs = setup.get(span, (0.0, 0))
        print(f"{span:28s} {c / n_ops:10.1f} {t / n_ops:12.6f}   ({cs}, {ts:.6f})")
    if recorder.missing:
        print("missing spans (name no longer exists): " + ", ".join(recorder.missing))
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, start: float,
        setup_samples: int = SETUP_SAMPLES, sizes=None) -> dict:
    """One benchmark run in this process; returns the result object."""
    recorder = None
    if trace:
        from spans import Recorder

        recorder = Recorder()
    with recorder.span("modalsim.import") if recorder else contextlib.nullcontext():
        import modalsim
    if Path(modalsim.__file__).resolve().parent != SRC / "modalsim":
        raise RuntimeError(f"modalsim imported from {modalsim.__file__}, not from {SRC}")
    import workloads

    with recorder.installed() if recorder else contextlib.nullcontext():
        case = workloads.WORKLOADS[workload](seed, **(sizes or {}))
    setup = [time.perf_counter() - start]

    times, refs, attempted, failed, useful = measure(case, seconds, recorder)
    if not (times[False] or times[True]):
        raise RuntimeError("no op completed")

    if recorder is not None:
        metrics = per_layer(recorder, times, refs, useful)
    else:
        setup += [setup_sample(workload, seed) for _ in range(setup_samples - 1)]
        ts = times[False]
        op_s = statistics.fmean(ts)
        rel = op_rel(ts, refs[False])
        q1, q2, q3 = statistics.quantiles(ts, n=4) if len(ts) > 1 else ts * 3
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_rel": (rel, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        derived = (f"realtime_x {case.audio_s / op_s:.4g} audio s per wall s"
                   if case.audio_s else f"fit_s {op_s:.4g} s")
        print(f"{workload}: op_rel {rel:.6g}, op_s mean {op_s:.6g} s (quartiles {q1:.6g}, "
              f"{q2:.6g}, {q3:.6g}; {len(ts)} ops), reference kernel median "
              f"{statistics.median(refs[False]):.4g} s, {derived}, setup_s samples "
              f"{', '.join(f'{s:.4g}' for s in setup)}, fail_frac {failed}/{attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in a process of its own; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if not proc.stdout.strip():
            combined["correct"] = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{w}.{k}"] = v
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "modalsim" / "__init__.py").is_file():
        print(f"modalsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_only:
        import modalsim  # noqa: F401  (part of the set-up being timed)
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), _START)
    print(json.dumps({"environment": environment()}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
