"""The differentiable core that simulation, analysis and fitting share.

Each block exists once, with the hand-written reverse-mode derivative the
fits need (no general-purpose autodiff; the tests check every gradient
against central finite differences):

* the scheme coefficient maps with their partials in omega^2 and gamma
  (``integrators.ftm_coeffs``/``sv_coeffs`` wrap them for a bank);
* :func:`forward_cached`, the two-step modal recurrence that ``simulate`` and
  the time-domain fit run, and :func:`bptt`, its reverse sweep;
* :func:`stft_cached` / :func:`stft_backward`, the magnitude STFT that
  ``analysis.stft`` wraps, and its adjoint;
* :func:`tf_magnitude_cached` / :func:`tf_magnitude_backward`, the modal
  transfer-function magnitude that ``analysis.tf_magnitude`` wraps, and its
  adjoint in closed form: the forward pass keeps only each mode's reciprocal
  denominator inv, and every gradient is a weighted sum over frequency of inv
  or inv^2 times a power of z.

The nonlinear forces live with their Jacobians in :mod:`modalsim.coupling`.

Conventions. The recurrence is

    q^{n+1} = A q^n + B q^{n-1} + R u^n + R2 u^{n-1},   u^n = f_ext^n - nl(q^n),

with per-mode vectors A, B, R, R2 (R2, the resonator numerator's b2 term, is
forward-only). Trajectories are stored as Q[t] = q^{t-1} (rows q^{-1} .. q^N),
output samples are y_n = w . q^{n+1}. The reverse sweep propagates
qbar^n = dL/dq^n backwards:

    qbar^n = w ybar_n + A qbar^{n+1} + B qbar^{n+2} - J_nl(q^n)^T (R qbar^{n+1})

and parameter gradients reduce to sums of stored products afterwards. With
nl = 0, mode k is the two-pole IIR filter (R_k + R2_k z^-1) / (1 - A_k z^-1 -
B_k z^-2) of its force, run by ``scipy.signal.lfilter`` from the state
[A q^0 + B q^{-1}, B q^0], and the sweep is the same filter, numerator 1, on
reversed time. The per-sample loops serve nonlinear hooks only.

A nonlinear force ``hook`` is an object with ``begin(n_steps)`` (fresh
per-run caches), ``hook(q, n)`` (the force at step n, caching what the sweep
needs), ``jt_vec(n, v, q)`` (J_nl(q^n)^T v) and ``finalize(V, Qmid, want)``
(gradients of the force's own parameters).
"""

from __future__ import annotations

import numpy as np
from scipy.signal import get_window, lfilter

# steps between the hook loop's finiteness checks (the filter path checks once)
CHECK_EVERY = 64


class OverdampedError(ValueError):
    """A mode with gamma >= omega cannot be realised as a resonator pair."""


class InstabilityError(RuntimeError):
    """The state went non-finite. step is the first such step on the filter
    path and the next multiple of CHECK_EVERY in the hook loop; mode is the
    lowest-index mode non-finite there."""

    def __init__(self, step: int, mode: int):
        self.step = step
        self.mode = mode
        super().__init__(f"non-finite state at step {step} (mode index {mode})")


def _check_finite(q, step):
    if not np.all(np.isfinite(q)):
        bad = np.where(np.isfinite(q), np.abs(q), np.inf)
        raise InstabilityError(step=step, mode=int(np.argmax(bad)))


# --- coefficient maps with partials -------------------------------------------

def ftm_coeff_partials(omega2, gamma, T):
    """Impulse-invariant coefficients a1 = -2 e^{-gT} cos(wt T), a2 = e^{-2gT},
    b1 = e^{-gT} sin(wt T) / wt and their partial derivatives with respect to
    omega^2 and gamma."""
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

    a1 = -2.0 * e1 * c
    a2 = e1**2
    b1 = e1 * s / wt

    da1_dwt = 2.0 * e1 * T * s
    da1_dw2 = da1_dwt * dwt_dw2
    da1_dg = 2.0 * T * e1 * c + da1_dwt * dwt_dg
    da2_dg = -2.0 * T * e1**2
    db1_dwt = e1 * (T * c * wt - s) / wt**2
    db1_dw2 = db1_dwt * dwt_dw2
    db1_dg = -T * e1 * s / wt + db1_dwt * dwt_dg
    return {
        "a1": a1, "a2": a2, "b1": b1,
        "da1_dw2": da1_dw2, "da1_dg": da1_dg,
        "da2_dg": da2_dg,
        "db1_dw2": db1_dw2, "db1_dg": db1_dg,
    }


def ftm_update_partials(omega2, gamma, T):
    """Update vectors A = -a1, B = -a2, R = b1 and their partials."""
    p = ftm_coeff_partials(omega2, gamma, T)
    return {
        "A": -p["a1"], "B": -p["a2"], "R": p["b1"],
        "dA_dw2": -p["da1_dw2"], "dA_dg": -p["da1_dg"],
        "dB_dw2": np.zeros_like(p["a2"]), "dB_dg": -p["da2_dg"],
        "dR_dw2": p["db1_dw2"], "dR_dg": p["db1_dg"],
    }


def sv_update_partials(omega2, gamma, T):
    """Stoermer-Verlet update vectors A = g, B = p, R = r,

        r = T^2 / (1 + gamma T), g = r (2/T^2 - omega^2), p = r (gamma/T - 1/T^2),

    and their partials."""
    if T <= 0:
        raise ValueError("sample period must be positive")
    w2 = np.asarray(omega2, dtype=float)
    g = np.asarray(gamma, dtype=float)
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
                   hook=None, R2=None):
    """Forward stepping that stores everything the reverse sweep needs.

    Returns (Q, U): Q[t] = q^{t-1} with shape [n_steps+2, modes]; U holds the
    inputs u^n, or None when the system runs force- and hook-free. Without a
    hook, Q is the transpose of a [mode, time] array (a view, not a copy).
    """
    m = len(q0)
    if hook is None:
        U = None if force_signal is None else np.outer(force_signal, force_gains)
        R2 = np.zeros(m) if R2 is None else R2
        Qt = np.empty((m, n_steps + 2))
        Qt[:, 0], Qt[:, 1] = q_prev, q0
        zi = np.stack([A * q0 + B * q_prev, B * q0], axis=1)
        x = np.zeros(n_steps)
        for k in range(m):
            if force_signal is not None:
                x = force_gains[k] * force_signal
            Qt[k, 2:] = lfilter([R[k], R2[k]], [1.0, -A[k], -B[k]], x, zi=zi[k])[0]
        finite = np.isfinite(Qt[:, 2:])  # column j holds q^{j+1}
        if not finite.all():
            first = np.where(finite.all(axis=1), n_steps, finite.argmin(axis=1))
            mode = int(np.argmin(first))
            raise InstabilityError(step=int(first[mode]) + 1, mode=mode)
        return Qt.T, U

    Q = np.empty((n_steps + 2, m))
    Q[0] = q_prev
    Q[1] = q0
    q, qp = Q[1], Q[0]
    U = np.empty((n_steps, m))
    use_b2 = R2 is not None and np.any(R2)
    u_prev = np.zeros(m)
    every = CHECK_EVERY
    hook.begin(n_steps)
    # a blow-up overflows before it turns non-finite; the periodic check
    # reports it as InstabilityError, also where warnings are errors
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            u = -hook(q, n)
            if force_signal is not None:
                u += force_gains * force_signal[n]
            U[n] = u
            q_next = A * q + B * qp + R * u
            if use_b2:
                q_next += R2 * u_prev
                u_prev = u
            qp, q = q, q_next
            Q[n + 2] = q
            if n % every == every - 1:
                _check_finite(q, n + 1)
    _check_finite(q, n_steps)
    return Q, U


def bptt(A, B, R, Q, U, qbar_direct, hook=None, hook_param_names=()):
    """Reverse sweep through the stepping recurrence.

    qbar_direct[n] is the direct dL/dq^{n+1} coming from the readout. Returns
    per-mode gradients for A, B, R plus whatever the hook finalises (the input
    adjoints V[n] = dL/du^n are kept internal).
    """
    n_steps, m = qbar_direct.shape
    if hook is None:
        # the same filter on reversed time
        qbar_t = np.empty((m, n_steps))
        for k in range(m):
            qbar_t[k] = lfilter([1.0], [1.0, -A[k], -B[k]], qbar_direct[::-1, k])[::-1]
        qbar = qbar_t.T
    else:
        # qbar[t] = dL/dq^{t-1}; the last row stays zero. The sweep also visits
        # step 0, whose qbar^0 is unused but whose force adjoint the hook keeps.
        qbar = np.zeros((n_steps + 3, m))
        qbar[2:-1] = qbar_direct
        for t in range(n_steps, 0, -1):
            nxt = qbar[t + 1]
            acc = qbar[t] + A * nxt
            acc -= hook.jt_vec(t - 1, R * nxt, Q[t])
            acc += B * qbar[t + 2]
            qbar[t] = acc
        qbar = qbar[2:-1]

    out = {
        "dA": np.einsum("tm,tm->m", qbar, Q[1:-1]),
        "dB": np.einsum("tm,tm->m", qbar, Q[: -2]),
        "dR": (np.einsum("tm,tm->m", qbar, U) if U is not None else np.zeros(m)),
    }
    if hook is not None:
        V = R[None, :] * qbar  # V[n] = dL/du^n
        out.update(hook.finalize(V, Q[1:-1], hook_param_names))
    return out


# --- STFT with adjoint -----------------------------------------------------------

def check_stft(n_samples: int, window_length: int, hop: int) -> None:
    """Reject STFT settings that leave samples out or yield no frame."""
    if window_length < hop:
        raise ValueError("window length must be >= hop")
    if n_samples < window_length:
        raise ValueError(
            f"signal too short: {n_samples} samples < window length {window_length}"
        )


def stft_cached(y, window_length, hop, window="hann"):
    """Magnitude STFT with a periodic window, centered frames and reflect
    padding; returns the magnitude [frame, bin] and the adjoint cache."""
    n = len(y)
    check_stft(n, window_length, hop)
    pad = window_length // 2
    idx_map = np.pad(np.arange(n), pad, mode="reflect")
    xp = np.asarray(y, dtype=float)[idx_map]
    n_frames = (len(xp) - window_length) // hop + 1
    starts = np.arange(n_frames) * hop
    frame_idx = starts[:, None] + np.arange(window_length)[None, :]
    win = get_window(window, window_length, fftbins=True)
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


def tf_magnitude_cached(a1, a2, b1, b2, weights, freqs, rate):
    """|H| = |sum_mu w_mu (b1 z + b2) / (z^2 + a1 z + a2)| at z = e^{i 2 pi f / rate}.

    The modal responses are summed as complex quantities before taking the
    magnitude, matching the parallel-resonator structure:
    H = z (inv @ (w b1)) + inv @ (w b2) with the reciprocal denominator
    inv = 1/den [freq, mode], the only [freq, mode] array the cache keeps
    (with z, H, |H|, w, b1, b2). With hc = conj(mag_bar H/|H|) (0 where
    |H| = 0), V = [hc; hc z; hc z^2], s = Re(V[:2] @ inv) and
    t = Re(V @ inv^2), :func:`tf_magnitude_backward` returns dw = b1 s1 + b2 s0,
    db1 = w s1, db2 = w s0, da1 = -w (b1 t2 + b2 t1) and da2 = -w (b1 t1 + b2 t0).
    `freqs` must have passed :func:`check_tf_frequencies`.
    """
    z = np.exp(2j * np.pi * freqs / rate)
    zc = z[:, None]
    inv = 1.0 / (zc * zc + a1[None, :] * zc + a2[None, :])
    H = z * (inv @ (weights * b1)) + inv @ (weights * b2)
    mag = np.abs(H)
    return mag, (z, inv, H, mag, weights, b1, b2)


def tf_magnitude_backward(cache, mag_bar):
    """Gradients of sum_f mag_bar_f |H_f| with respect to w, b1, b2, a1, a2."""
    z, inv, H, mag, w, b1, b2 = cache
    safe = np.where(mag > 0.0, mag, 1.0)
    hc = np.conj(np.where(mag > 0.0, mag_bar * H / safe, 0.0))
    V = np.stack([hc, hc * z, hc * z * z])
    s0, s1 = np.real(V[:2] @ inv)
    t0, t1, t2 = np.real(V @ (inv * inv))
    return {"dw": b1 * s1 + b2 * s0, "db1": w * s1, "db2": w * s0,
            "da1": -w * (b1 * t2 + b2 * t1), "da2": -w * (b1 * t1 + b2 * t0)}
