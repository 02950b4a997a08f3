"""The differentiable core that simulation, analysis and fitting share.

Each block exists once, with the hand-written reverse-mode derivative the
fits need (no general-purpose autodiff; the tests check every gradient
against central finite differences):

* the scheme coefficient maps :func:`ftm_update_partials` and
  :func:`sv_update_partials`, from omega^2 and gamma to the update vectors
  (A, B, R), with the partials in omega^2 and gamma that both fits chain
  through. ``sv_update_partials`` raises :class:`StabilityBoundError` past
  the scheme's stability bound. ``integrators.ftm_coeffs``/``sv_coeffs`` and
  the alias ``ftm_coeff_partials`` keep their names only because the
  benchmark calls or traces them;
* :func:`forward_cached`, the two-step modal recurrence of the one model that
  ``simulate`` and the time-domain fit run through ``integrators.run_model``,
  and :func:`bptt`, its reverse sweep;
* :func:`stft_cached` / :func:`stft_backward`, the magnitude STFT that
  ``analysis.stft`` wraps, and its adjoint;
* :func:`tf_magnitude_cached` / :func:`tf_magnitude_backward`, the modal
  transfer-function magnitude that ``analysis.tf_magnitude`` wraps, and its
  adjoint in closed form: the forward pass keeps only each mode's reciprocal
  denominator inv, and every gradient is a weighted sum over frequency of inv
  or inv^2 times a power of z.

The nonlinear forces live with their Jacobians in :mod:`modalsim.coupling`,
built by ``coupling.nonlinear_force``.

Conventions. One coefficient form serves every block: the per-mode update
vectors (A, B, R) of the recurrence

    q^{n+1} = A q^n + B q^{n-1} + R u^n,   u^n = f_ext^n - nl(q^n).

Trajectories are stored as Q[t] = q^{t-1} (rows q^{-1} .. q^N), output
samples are y_n = w . q^{n+1}. The reverse sweep propagates qbar^n = dL/dq^n
backwards:

    qbar^n = w ybar_n + A qbar^{n+1} + B qbar^{n+2} - J_nl(q^n)^T (R qbar^{n+1})

and parameter gradients reduce to sums of stored products afterwards. With
nl = 0, mode k is the two-pole IIR filter R_k / (1 - A_k z^-1 - B_k z^-2) of
its force, run by ``scipy.signal.lfilter`` from the state
[A q^0 + B q^{-1}, B q^0], and the sweep is the same filter, numerator 1, on
reversed time. The per-sample loops serve nonlinear hooks only. On the unit
circle that filter's magnitude is |R z / (z^2 - A z - B)|; the
transfer-function kernels evaluate (R z + R2) / (z^2 - A z - B), where R2 is
the frequency-domain fit's free numerator term (zero for a simulated bank).

A nonlinear force ``hook`` is a pair of pure functions of the state:
``hook(q)`` is nl(q) and ``hook.jt_vec(q, v)`` is J_nl(q)^T v. The sweep
returns the input adjoints dU[n] = dL/du^n = R qbar^{n+1}, from which a
force's own parameters take their gradients (``TensionModulation.tau_grad``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
# Imported eagerly on purpose: importing scipy.signal leaves a large heap that
# the transfer-function kernels' [freq, mode] temporaries reuse. Imported
# lazily, the string_fit_fd benchmark op ran 1.2-1.5x slower, with about 54k
# minor page faults per op instead of none.
from scipy.signal import lfilter

# steps between the hook loop's finiteness checks: the most it runs past a blow-up
CHECK_EVERY = 64


class OverdampedError(ValueError):
    """A mode with gamma >= omega cannot be realised as a resonator pair."""


class StabilityBoundError(ValueError):
    """A mode breaks the Stoermer-Verlet stability bound omega T < 2."""


class InstabilityError(RuntimeError):
    """The state went non-finite. step is the first such step; mode is the
    lowest-index mode non-finite there."""

    def __init__(self, step: int, mode: int):
        self.step = step
        self.mode = mode
        super().__init__(f"non-finite state at step {step} (mode index {mode})")


def _check_finite(Q):
    """Raise InstabilityError at the first non-finite state among the stored
    rows Q[t] = q^{t-1} (the rows from q^1 on are checked)."""
    finite = np.isfinite(Q[2:])  # row j holds q^{j+1}
    if not finite.all():
        first = np.where(finite.all(axis=0), len(finite), finite.argmin(axis=0))
        mode = int(np.argmin(first))
        raise InstabilityError(step=int(first[mode]) + 1, mode=mode)


# --- coefficient maps with partials -------------------------------------------

class Coefficients(NamedTuple):
    """Per-mode update vectors of q^{n+1} = A q^n + B q^{n-1} + R u^n."""

    A: np.ndarray
    B: np.ndarray
    R: np.ndarray


def ftm_update_partials(omega2, gamma, T):
    """Impulse-invariant update vectors A = 2 e^{-gT} cos(wt T), B = -e^{-2gT}
    and R = e^{-gT} sin(wt T) / wt, with wt = sqrt(omega^2 - g^2), and their
    partial derivatives with respect to omega^2 and gamma = g. The poles of
    each resonator are e^{(-g +- i wt) T}."""
    if T <= 0:
        raise ValueError("sample period must be positive")
    w2 = np.asarray(omega2, dtype=float)
    g = np.asarray(gamma, dtype=float)
    bad = np.flatnonzero(w2 <= g**2)
    if bad.size:
        raise OverdampedError(
            f"modes {bad.tolist()} are not underdamped (gamma >= omega); "
            "the resonator scheme requires omega > gamma"
        )
    wt = np.sqrt(w2 - g**2)
    e1 = np.exp(-g * T)
    c = np.cos(wt * T)
    s = np.sin(wt * T)
    dwt_dw2 = 0.5 / wt
    dwt_dg = -g / wt
    dA_dwt = -2.0 * e1 * T * s
    dR_dwt = e1 * (T * c * wt - s) / wt**2
    return {
        "A": 2.0 * e1 * c, "B": -(e1**2), "R": e1 * s / wt,
        "dA_dw2": dA_dwt * dwt_dw2, "dA_dg": -2.0 * T * e1 * c + dA_dwt * dwt_dg,
        "dB_dw2": np.zeros_like(e1), "dB_dg": 2.0 * T * e1**2,
        "dR_dw2": dR_dwt * dwt_dw2, "dR_dg": -T * e1 * s / wt + dR_dwt * dwt_dg,
    }


# the same map under its earlier name, which the benchmark traces
ftm_coeff_partials = ftm_update_partials


def sv_update_partials(omega2, gamma, T):
    """Stoermer-Verlet update vectors A = g, B = p, R = r,

        r = T^2 / (1 + gamma T), g = r (2/T^2 - omega^2), p = r (gamma/T - 1/T^2),

    and their partials. Raises StabilityBoundError when modes break the
    bound omega T < 2."""
    if T <= 0:
        raise ValueError("sample period must be positive")
    w2 = np.asarray(omega2, dtype=float)
    g = np.asarray(gamma, dtype=float)
    wT = np.sqrt(w2) * T
    unstable = np.flatnonzero(wT >= 2.0)
    if unstable.size:
        raise StabilityBoundError(
            f"{unstable.size} mode(s) violate the stability bound omega*T < 2, the first at "
            f"mode index {unstable[0]} (largest omega*T {wT.max():.4g}); the scheme would blow up")
    r = T**2 / (1.0 + g * T)
    dr_dg = -(T**3) / (1.0 + g * T) ** 2
    A = r * (2.0 / T**2 - w2)
    B = r * (g / T - 1.0 / T**2)
    return {
        "A": A, "B": B, "R": r * np.ones_like(w2),
        "dA_dw2": -r * np.ones_like(w2), "dA_dg": dr_dg * (2.0 / T**2 - w2),
        "dB_dw2": np.zeros_like(w2), "dB_dg": dr_dg * (g / T - 1.0 / T**2) + r / T,
        "dR_dw2": np.zeros_like(w2), "dR_dg": dr_dg * np.ones_like(w2),
    }


# --- forward recurrence + reverse sweep ------------------------------------------

def forward_cached(A, B, R, q0, q_prev, n_steps, force_signal=None, force_gains=None,
                   hook=None):
    """Forward stepping that stores everything the reverse sweep needs.

    Returns (Q, U): Q[t] = q^{t-1} with shape [n_steps+2, modes]; U holds the
    inputs u^n, or None when the system runs force- and hook-free. Without a
    hook, Q is the transpose of a [mode, time] array (a view, not a copy).
    """
    m = len(q0)
    if hook is None:
        U = None if force_signal is None else np.outer(force_signal, force_gains)
        Qt = np.empty((m, n_steps + 2))
        Qt[:, 0], Qt[:, 1] = q_prev, q0
        zi = np.stack([A * q0 + B * q_prev, B * q0], axis=1)
        x = np.zeros(n_steps)
        for k in range(m):
            if force_signal is not None:
                x = force_gains[k] * force_signal
            Qt[k, 2:] = lfilter([R[k]], [1.0, -A[k], -B[k]], x, zi=zi[k])[0]
        _check_finite(Qt.T)
        return Qt.T, U

    Q = np.empty((n_steps + 2, m))
    Q[0] = q_prev
    Q[1] = q0
    q, qp = Q[1], Q[0]
    U = np.empty((n_steps, m))
    every = CHECK_EVERY
    # a blow-up overflows before it turns non-finite; the periodic check
    # reports it as InstabilityError, also where warnings are errors
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            u = -hook(q)
            if force_signal is not None:
                u += force_gains * force_signal[n]
            U[n] = u
            qp, q = q, A * q + B * qp + R * u
            Q[n + 2] = q
            if n % every == every - 1 and not np.isfinite(q).all():
                _check_finite(Q[:n + 3])
    _check_finite(Q)
    return Q, U


def bptt(A, B, R, Q, U, qbar_direct, hook=None):
    """Reverse sweep through the stepping recurrence.

    qbar_direct[n] is the direct dL/dq^{n+1} coming from the readout. Returns
    per-mode gradients dA, dB, dR and the input adjoints dU[n] = dL/du^n.
    """
    n_steps, m = qbar_direct.shape
    if hook is None:
        # the same filter on reversed time
        qbar_t = np.empty((m, n_steps))
        for k in range(m):
            qbar_t[k] = lfilter([1.0], [1.0, -A[k], -B[k]], qbar_direct[::-1, k])[::-1]
        qbar = qbar_t.T
    else:
        # qbar[t] = dL/dq^{t-1}; the last row stays zero, and the sweep stops
        # at q^1 because q^0 is given
        qbar = np.zeros((n_steps + 3, m))
        qbar[2:-1] = qbar_direct
        for t in range(n_steps, 1, -1):
            nxt = qbar[t + 1]
            acc = qbar[t] + A * nxt
            acc -= hook.jt_vec(Q[t], R * nxt)
            acc += B * qbar[t + 2]
            qbar[t] = acc
        qbar = qbar[2:-1]

    return {
        "dA": np.einsum("tm,tm->m", qbar, Q[1:-1]),
        "dB": np.einsum("tm,tm->m", qbar, Q[: -2]),
        "dR": (np.einsum("tm,tm->m", qbar, U) if U is not None else np.zeros(m)),
        "dU": R[None, :] * qbar,
    }


# --- STFT with adjoint -----------------------------------------------------------

def check_stft(n_samples: int, window_length: int, hop: int) -> None:
    """Reject STFT settings that leave samples out or yield no frame."""
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if window_length < 2:
        raise ValueError("window length must be >= 2")
    if window_length < hop:
        raise ValueError("window length must be >= hop")
    if n_samples < window_length:
        raise ValueError(
            f"signal too short: {n_samples} samples < window length {window_length}"
        )


def stft_cached(y, window_length, hop):
    """Magnitude STFT with a periodic Hann window, centered frames and reflect
    padding; returns the magnitude [frame, bin] and the adjoint cache."""
    n = len(y)
    check_stft(n, window_length, hop)
    pad = window_length // 2
    idx_map = np.pad(np.arange(n), pad, mode="reflect")
    xp = np.asarray(y, dtype=float)[idx_map]
    n_frames = (len(xp) - window_length) // hop + 1
    starts = np.arange(n_frames) * hop
    frame_idx = starts[:, None] + np.arange(window_length)[None, :]
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, window_length + 1)[:-1])
    Z = np.fft.rfft(xp[frame_idx] * win[None, :], axis=1)
    mag = np.abs(Z)
    cache = (Z, mag, win, idx_map, frame_idx, n, window_length)
    return mag, cache


def stft_backward(cache, mag_bar):
    """Pull dL/d|Z| back to the time signal through windowing, framing, and
    reflect padding."""
    Z, mag, win, idx_map, frame_idx, n, wl = cache
    safe = np.where(mag > 0.0, mag, 1.0)
    Gz = np.where(mag > 0.0, mag_bar * Z / safe, 0.0)
    Gpad = np.zeros((Z.shape[0], wl), dtype=complex)
    Gpad[:, : Z.shape[1]] = np.conj(Gz)
    seg = win[None, :] * np.real(np.fft.fft(Gpad, axis=1))
    xp_bar = np.bincount(frame_idx.ravel(), weights=seg.ravel(), minlength=len(idx_map))
    return np.bincount(idx_map, weights=xp_bar, minlength=n)


# --- frequency-domain transfer function with partials ------------------------------

def check_tf_frequencies(freqs, rate: float) -> np.ndarray:
    """The frequency grid as floats; every entry strictly inside (0, Nyquist)."""
    f = np.asarray(freqs, dtype=float)
    if np.any(f <= 0) or np.any(f >= rate / 2):
        raise ValueError("frequencies must lie strictly inside (0, Nyquist)")
    return f


def tf_magnitude_cached(A, B, R, R2, weights, z):
    """|H| = |sum_mu w_mu (R z + R2) / (z^2 - A z - B)| at the points z =
    e^{i 2 pi f / rate} of a frequency grid f that has passed
    :func:`check_tf_frequencies` (callers compute z once per grid).

    The modal responses are summed as complex quantities before taking the
    magnitude, matching the parallel-resonator structure:
    H = z (inv @ (w R)) + inv @ (w R2) with the reciprocal denominator
    inv = 1/den [freq, mode], the only [freq, mode] array the cache keeps
    (with z, H, |H|, w, R, R2). With hc = conj(mag_bar H/|H|) (0 where
    |H| = 0), V = [hc; hc z; hc z^2], s = Re(V[:2] @ inv) and
    t = Re(V @ inv^2), :func:`tf_magnitude_backward` returns dw = R s1 + R2 s0,
    dR = w s1, dR2 = w s0, dA = w (R t2 + R2 t1) and dB = w (R t1 + R2 t0).
    """
    zc = z[:, None]
    inv = 1.0 / (zc * zc - A[None, :] * zc - B[None, :])
    H = z * (inv @ (weights * R)) + inv @ (weights * R2)
    mag = np.abs(H)
    return mag, (z, inv, H, mag, weights, R, R2)


def tf_magnitude_backward(cache, mag_bar):
    """Gradients of sum_f mag_bar_f |H_f| with respect to A, B, R, R2, w."""
    z, inv, H, mag, w, R, R2 = cache
    safe = np.where(mag > 0.0, mag, 1.0)
    hc = np.conj(np.where(mag > 0.0, mag_bar * H / safe, 0.0))
    V = np.stack([hc, hc * z, hc * z * z])
    s0, s1 = np.real(V[:2] @ inv)
    t0, t1, t2 = np.real(V @ (inv * inv))
    return {"dA": w * (R * t2 + R2 * t1), "dB": w * (R * t1 + R2 * t0),
            "dR": w * s1, "dR2": w * s0, "dw": R * s1 + R2 * s0}
