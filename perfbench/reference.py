"""Fixed NumPy reference kernels that the benchmark times between ops.

The host's speed drifts: interpreter-bound NumPy code runs up to about 1.8x
slower for stretches of seconds to minutes, while vectorised and BLAS-bound
code moves less, and by other amounts. The run times its workload's kernels
right before and after every op and reports op time in units of their summed
time (``op_rel``), so the drift cancels. A workload's kernels do the kinds of
work its op does, because only then do they slow down with it:

recurrence   per-sample two-pole recurrence over a small mode vector, as in
             the time stepping of ``simulate`` and the time-domain adjoint
transfer     transfer-function magnitude and its adjoint on a frequency grid,
             as in the frequency-domain fit
contraction  dense matrix-vector products of von Karman coupling size, as in
             the plate's nonlinear force

The kernels use NumPy only, never modalsim, with inputs fixed here, so a change
to modalsim does not change the yardstick. Each takes about 40 ms on a 2-core
Xeon guest at full speed.
"""

from __future__ import annotations

import numpy as np

_rng = np.random.default_rng(20250509)

# recurrence: 50 modes, 10000 steps
_C1 = 2.0 * np.cos(_rng.uniform(0.01, 2.5, 50)) * 0.999
_C2 = np.full(50, 0.998)
_G = _rng.normal(size=50)
_F = _rng.normal(size=10000)

# transfer function: 30 modes on 256 frequencies
_Z = np.exp(2j * np.pi * np.linspace(20.0, 18000.0, 256) / 44100.0)[:, None]
_A1 = _rng.uniform(-1.9, -1.5, 30)
_A2 = _rng.uniform(0.9, 0.99, 30)
_B1 = _rng.normal(size=30)
_B2 = _rng.normal(size=30)
_W = _rng.normal(size=30)

# contraction: 60 modes, 60 stress modes
_H2 = _rng.normal(size=(60, 3600))
_CC = _rng.normal(size=(60, 3600))
_Q = _rng.normal(size=60) * 1e-3


def recurrence() -> float:
    y = np.zeros(50)
    y_prev = np.zeros(50)
    for f in _F:
        y_next = _C1 * y - _C2 * y_prev + _G * f
        y_prev = y
        y = y_next
    return float(y[0])


def transfer(reps: int = 80) -> float:
    acc = 0.0
    for _ in range(reps):
        num = _B1 * _Z + _B2
        den = _Z * _Z + _A1 * _Z + _A2
        g = num / den
        h = (_W * g).sum(axis=1)
        mag = np.abs(h)
        hbar = (h / mag)[:, None]
        for d in (g, _W * _Z / den, _W / den, -_W * num * _Z / den**2, -_W * num / den**2):
            acc += float(np.real(np.conj(hbar) * d).sum(axis=0)[0])
    return acc


def contraction(reps: int = 220) -> float:
    q = _Q
    for _ in range(reps):
        eta = _H2 @ np.outer(q, q).ravel()
        f = _CC @ np.outer(q, eta).ravel()
    return float(f[0])


KERNELS = {"recurrence": recurrence, "transfer": transfer, "contraction": contraction}
