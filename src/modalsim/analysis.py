"""Signal analysis: STFT, LPC spectral envelopes, Bark-scale sampling, and the
modal transfer-function magnitude.

The Bark map is the Traunmueller variant z = 26.81 f / (1960 + f) - 0.53,
chosen because it has a closed-form inverse (needed to lay out frequency
grids that are uniform in Bark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import adjoint
from .adjoint import Coefficients


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude frames [time][frequency] with their bin frequencies."""

    magnitude: np.ndarray
    frequencies: np.ndarray
    hop: int
    window_length: int
    rate: float

    @property
    def n_frames(self) -> int:
        return self.magnitude.shape[0]

    def to_csv(self, path) -> None:
        header = f"rate={self.rate},window=hann{self.window_length},hop={self.hop}"
        np.savetxt(path, self.magnitude, delimiter=",", header=header, fmt="%.17g")


def stft(signal: np.ndarray, rate: float, window_length: int = 1024,
         hop: int = 256) -> Spectrogram:
    """Magnitude STFT with a periodic Hann window, centered frames, reflect padding."""
    mag, _ = adjoint.stft_cached(np.asarray(signal, dtype=float), window_length, hop)
    return Spectrogram(
        magnitude=mag, frequencies=np.fft.rfftfreq(window_length, d=1.0 / rate), hop=hop,
        window_length=window_length, rate=rate,
    )


# --- LPC ---------------------------------------------------------------------

@dataclass(frozen=True)
class LpcModel:
    """All-pole envelope model: A(z) = 1 + sum_k a_k z^-k, magnitude gain/|A|."""

    order: int
    coeffs: np.ndarray  # a_1 .. a_p
    gain: float

    def __post_init__(self):
        if self.order < 0 or len(self.coeffs) != self.order:
            raise ValueError("coefficient count must equal the model order")


def lpc(signal: np.ndarray, order: int) -> LpcModel:
    """Autocorrelation-method LPC via the Levinson-Durbin recursion.

    Returns prediction-error filter coefficients (sign convention: an AR(1)
    process x_n = 0.9 x_{n-1} + e_n estimates a_1 = -0.9) and the residual
    gain sqrt(E_p).
    """
    x = np.asarray(signal, dtype=float)
    if order < 1:
        raise ValueError("order must be >= 1")
    if order >= len(x):
        raise ValueError("order must be smaller than the signal length")
    # biased autocorrelation keeps the normal equations positive semi-definite
    r = np.empty(order + 1)
    for k in range(order + 1):
        r[k] = x[: len(x) - k] @ x[k:] / len(x)
    if r[0] <= 0.0:
        raise ValueError("singular autocorrelation: signal has no energy")

    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    for i in range(1, order + 1):
        acc = r[i] + a[1:i] @ r[1:i][::-1]
        k = -acc / err
        prev = a[1:i].copy()
        a[1:i] = prev + k * prev[::-1]
        a[i] = k
        err *= 1.0 - k * k
        if err <= 0.0:
            raise ValueError("Levinson recursion lost positive definiteness")
    return LpcModel(order=order, coeffs=a[1:].copy(), gain=float(np.sqrt(err)))


def lpc_envelope_at(model: LpcModel, freqs: Sequence[float], rate: float) -> np.ndarray:
    """Envelope magnitude gain / |A(e^{i omega T})| at the given frequencies (Hz)."""
    f = np.asarray(freqs, dtype=float)
    if np.any(f < 0) or np.any(f > rate / 2):
        raise ValueError("frequencies must lie within [0, Nyquist]")
    w = 2.0 * np.pi * f / rate
    k = np.arange(1, model.order + 1)
    A = 1.0 + np.exp(-1j * np.outer(w, k)) @ model.coeffs
    return model.gain / np.abs(A)


# --- Bark-scale grid -----------------------------------------------------------

def hz_to_bark(f):
    return 26.81 * np.asarray(f, dtype=float) / (1960.0 + np.asarray(f, dtype=float)) - 0.53


def bark_to_hz(z):
    z = np.asarray(z, dtype=float)
    return 1960.0 * (z + 0.53) / (26.28 - z)


def bark_grid(n_points: int, f_max: float, rate: float, f_min: float = 20.0) -> np.ndarray:
    """n frequencies uniformly spaced in Bark from f_min (20 Hz) to f_max, in Hz."""
    if n_points < 2:
        raise ValueError("need at least two grid points")
    if f_max > rate / 2:
        raise ValueError("f_max must not exceed the Nyquist frequency")
    if not f_min > 0:
        raise ValueError(f"f_min must be positive, got {f_min}")
    if f_max <= f_min:
        raise ValueError(f"f_max must exceed the {f_min} Hz lower edge, got {f_max}")
    z = np.linspace(hz_to_bark(f_min), hz_to_bark(f_max), n_points)
    f = bark_to_hz(z)
    f[0], f[-1] = f_min, f_max  # pin the endpoints exactly
    return f


# --- transfer-function magnitude ------------------------------------------------

def tf_magnitude(coeffs: Coefficients, weights: np.ndarray, freqs: Sequence[float],
                 rate: float) -> np.ndarray:
    """|sum_mu w_mu R z / (z^2 - A z - B)| at z = e^{i 2 pi f / rate}: the
    magnitude response of the resonators with update vectors (A, B, R), as
    from ftm_coeffs. A, B, R and the weights are vectors of one length."""
    m = np.size(coeffs[0])
    A, B, R, weights = (adjoint.check_length(name, value, m) for name, value in
                        zip(("coeffs.A", "coeffs.B", "coeffs.R", "weights"), (*coeffs, weights)))
    z = np.exp(2j * np.pi * adjoint.check_tf_frequencies(freqs, rate) / rate)
    mag, _ = adjoint.tf_magnitude_cached(A, B, R, np.zeros_like(R), weights, z)
    return mag
