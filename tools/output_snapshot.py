"""Record a checkout's outputs, or compare two records array by array.

    python3 tools/output_snapshot.py --out FILE.npz
    python3 tools/output_snapshot.py --compare A.npz B.npz

``--out`` runs the checkout that holds this script (its ``src``, ``tests`` and
``perfbench``) and saves every array it gets:

* the first op of every benchmark workload (``perfbench/workloads.py``) at
  seeds 1-3, at the benchmark's sizes; the op must pass the workload's own
  check, or nothing is written;
* ``value_and_grad`` (one start, and two stacked starts) and ``predict`` of
  every problem that ``tests/problem_builders.py`` builds, with every
  parameter free that has a finite raw coordinate. A log-transformed
  parameter whose value is 0 (raw -inf) stays fixed, since its gradient
  exp(-inf) * g is 0 whatever the code computes; the printout names it.

``--compare`` lists every array that is not ``np.array_equal`` in the two
records (NaN equals NaN), or that only one of them holds, and exits 1 if
there is any. A refactor that claims bit-identical outputs shows an empty
list against the parent commit's record. Each real array listed in both
records carries two numbers: the largest difference relative to A's entry,
per element, and the largest difference relative to A's largest entry.
When the records hold ``problem/`` or ``workload/`` arrays, a last line gives
the largest of the second number within each of those groups (inf where an
array is in one record only, changed shape or is not numeric), so one
tolerance covers a change.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def flatten(prefix, value, out):
    """Store every array, number, string and tuple in value under a '/'-joined key."""
    if value is None:
        return
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(f"{prefix}/{key}", item, out)
    elif isinstance(value, list):  # a fit's ranking of starts
        for i, item in enumerate(value):
            flatten(f"{prefix}/{i}", item, out)
    else:
        out[prefix] = np.asarray(value)


def workload_outputs(out):
    import workloads

    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            case = build(seed)
            result = case.op()
            problems = case.check(result)
            if problems:
                sys.exit(f"{name} seed {seed} fails its check: {'; '.join(problems)}")
            flatten(f"workload/{name}/seed{seed}", result, out)
            print(f"{name} seed {seed}: checked", flush=True)


def builder_problems():
    import problem_builders as pb

    return {
        "string_time_ftm": lambda: pb.string_time_problem("ftm"),
        "string_time_sv": lambda: pb.string_time_problem("sv"),
        "string_time_ftm_tension": lambda: pb.string_time_problem("ftm", "tension-modulated"),
        "string_time_sv_tension": lambda: pb.string_time_problem("sv", "tension-modulated"),
        "plate_time": pb.plate_time_problem,
        "plate_frequency": pb.plate_frequency_problem,
        "string_frequency": pb.string_frequency_problem,
    }


def problem_outputs(out):
    for name, build in builder_problems().items():
        problem = build()
        takes = [n for n in problem.PARAMS if n != "tau_hat"
                 or getattr(problem, "nonlinearity", "") == "tension-modulated"]
        zero_log = [n for n in takes if problem.PARAMS[n] == "log"
                    and np.any(np.asarray(getattr(problem, n)) == 0)]
        problem.free = tuple(n for n in takes if n not in zero_log)
        raw = problem.initial_raw()
        stacked = {n: np.stack([x, x + 0.01]) for n, x in raw.items()}
        for label, r in (("single", raw), ("stacked", stacked)):
            loss, grads = problem.value_and_grad(r)
            flatten(f"problem/{name}/{label}", {"loss": loss, "grads": grads}, out)
        flatten(f"problem/{name}/predict", problem.predict(raw), out)
        fixed = f"; fixed at 0 (raw -inf): {', '.join(zero_log)}" if zero_log else ""
        print(f"{name}: free {', '.join(problem.free)}{fixed}", flush=True)


def record(path):
    for sub in ("src", "tests", "perfbench"):
        sys.path.insert(0, str(ROOT / sub))
    import modalsim

    if Path(modalsim.__file__).resolve().parents[1] != ROOT / "src":
        sys.exit(f"modalsim was imported from {modalsim.__file__}, not this checkout")
    out = {}
    problem_outputs(out)
    workload_outputs(out)
    np.savez(path, **out)
    print(f"{len(out)} arrays written to {path}")


def differences(a_path, b_path):
    """Keys whose arrays differ, or that only one record holds, in sorted order."""
    with np.load(a_path) as a, np.load(b_path) as b:
        diff = sorted(set(a.files) ^ set(b.files))
        for key in sorted(set(a.files) & set(b.files)):
            x, y = a[key], b[key]
            inexact = np.issubdtype(x.dtype, np.inexact) and np.issubdtype(y.dtype, np.inexact)
            if not np.array_equal(x, y, equal_nan=inexact):
                diff.append(key)
        return diff, len(set(a.files) | set(b.files))


def relative_differences(x, y):
    """How far y is from x, two real arrays of one shape: the largest
    |y - x| relative to |x| per element, and relative to the largest finite
    |x|. Equal entries (NaN equal to NaN) count 0; an entry equal in neither
    sense and not finite, or where x is 0, counts inf."""
    x, y = (np.ravel(v).astype(float) for v in (x, y))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.abs(y - x)
        d[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
        d[np.isnan(d)] = np.inf
        per = np.where(d > 0.0, d / np.abs(x), 0.0)
        per[np.isnan(per)] = np.inf
        scale = np.max(np.abs(x[np.isfinite(x)]), initial=0.0)
        return float(np.max(per, initial=0.0)), float(np.max(d, initial=0.0) / scale)


def note(a_path, b_path, key):
    """What a differs: line says about key beside its name."""
    with np.load(a_path) as a, np.load(b_path) as b:
        if key not in b.files or key not in a.files:
            return f"only in {'A' if key in a.files else 'B'}"
        x, y = a[key], b[key]
        if x.shape != y.shape:
            return f"shapes {x.shape} and {y.shape}"
        if x.dtype.kind not in "iuf" or y.dtype.kind not in "iuf":
            return f"dtypes {x.dtype} and {y.dtype}"
        return "{:.2g} per element, {:.2g} of the largest".format(*relative_differences(x, y))


GROUPS = ("problem/", "workload/")


def of_largest(a, b, key):
    """The largest |b - a| of key relative to a's largest entry, or inf where
    that is undefined."""
    if key not in a.files or key not in b.files:
        return np.inf
    x, y = a[key], b[key]
    if x.shape != y.shape or x.dtype.kind not in "iuf" or y.dtype.kind not in "iuf":
        return np.inf
    return relative_differences(x, y)[1]


def largest_by_group(a_path, b_path, diff):
    """{group: the largest of_largest among the differing keys of the group},
    for each group of GROUPS that either record holds (0 if none differs)."""
    with np.load(a_path) as a, np.load(b_path) as b:
        held = set(a.files) | set(b.files)
        return {group: max((of_largest(a, b, k) for k in diff if k.startswith(group)),
                           default=0.0)
                for group in GROUPS if any(k.startswith(group) for k in held)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="record this checkout's outputs to this .npz file")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records")
    args = parser.parse_args(argv)
    if args.out:
        record(args.out)
        return 0
    diff, total = differences(*args.compare)
    for key in diff:
        print(f"differs: {key}  ({note(*args.compare, key)})")
    print(f"{len(diff)} of {total} arrays differ")
    largest = largest_by_group(*args.compare, diff)
    if largest:
        print("largest difference of the largest entry: "
              + ", ".join(f"{group} {value:.2g}" for group, value in largest.items()))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
