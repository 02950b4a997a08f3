"""Span recorder for the traced benchmark run.

The tracer wraps public modalsim functions at the names their callers look
them up through: a function that ``fitting`` calls as ``adjoint.bptt`` is
wrapped as ``modalsim.adjoint.bptt``, one it imported by name as
``modalsim.fitting.loss_total_grad``. Each call records a span (name, start,
end, parent span, op). Spans stay in memory; the run reports per-layer self
times at the end. A layer's self time is its spans' durations minus the parts
covered by their child spans.

A wrapped name that no longer exists is reported as missing and skipped, so a
refactor of the package does not stop the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# Span "op" values outside the timed ops.
SETUP = -1
UNTRACED = -2

# (module, attribute path, span name). Setup-phase layers and op-phase layers
# are told apart by where their spans occur, not here.
TARGETS = (
    ("modalsim", "string_basis", "modes.basis"),
    ("modalsim", "rect_basis", "modes.basis"),
    ("modalsim", "point_readout", "modes.basis"),
    ("modalsim", "project_point_excitation", "modes.basis"),
    ("modalsim", "triangular_pluck", "modes.basis"),
    ("modalsim", "simply_supported_tensors", "coupling.tensors"),
    ("modalsim.coupling", "VkContraction.__call__", "coupling.vk_force"),
    ("modalsim", "simulate", "integrators.recurrence"),
    ("modalsim.integrators", "bank_from_spec", "integrators.coeffs"),
    ("modalsim.integrators", "ftm_coeffs", "integrators.coeffs"),
    ("modalsim.integrators", "sv_coeffs", "integrators.coeffs"),
    ("modalsim.adjoint", "forward_cached", "adjoint.forward"),
    ("modalsim.adjoint", "bptt", "adjoint.bptt"),
    ("modalsim.adjoint", "stft_cached", "adjoint.stft"),
    ("modalsim.adjoint", "stft_backward", "adjoint.stft_adjoint"),
    ("modalsim.adjoint", "ftm_update_partials", "adjoint.coeff_maps"),
    ("modalsim.adjoint", "sv_update_partials", "adjoint.coeff_maps"),
    ("modalsim.adjoint", "ftm_coeff_partials", "adjoint.coeff_maps"),
    ("modalsim.adjoint", "tf_magnitude_cached", "adjoint.tf"),
    ("modalsim.adjoint", "tf_magnitude_backward", "adjoint.tf_adjoint"),
    ("modalsim.fitting", "loss_total_grad", "losses.loss_grad"),
    ("modalsim", "stft", "analysis.stft"),
    ("modalsim", "bark_grid", "analysis.bark_grid"),
    ("modalsim.fitting", "TimeDomainProblem.value_and_grad", "fitting.value_and_grad"),
    ("modalsim.fitting", "FrequencyDomainProblem.value_and_grad", "fitting.value_and_grad"),
    ("modalsim", "fit", "fitting.engine"),
)


class Recorder:
    """In-memory spans: [name, start, end, parent index (-1 for none), op]."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.op = SETUP
        self.missing = []
        self._stack = []

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around code of the benchmark's own, such as the import."""
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        undo = []
        missing = []
        try:
            for module, path, name in self.targets:
                *owners, attr = path.split(".")
                try:
                    owner = importlib.import_module(module)
                    for part in owners:
                        owner = getattr(owner, part)
                except (ImportError, AttributeError):
                    owner = None
                if owner is None or attr not in vars(owner):
                    missing.append(f"{module}.{path}")
                    continue
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, name))
                undo.append((owner, attr, original))
            self.missing = missing
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_totals(spans, ops) -> dict:
    """{span name: (self time, calls)} summed over spans whose op is in ``ops``."""
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        if s[4] in ops:
            t, n = totals.get(s[0], (0.0, 0))
            totals[s[0]] = (t + own, n + 1)
    return totals
