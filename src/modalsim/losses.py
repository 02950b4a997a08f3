"""Spectral losses and their gradients with respect to the prediction.

Three complementary distances between magnitude spectrograms Y (target) and
Yh (prediction), frames indexed [time][frequency]:

* log-magnitude L1:       sum |log(Y + eps) - log(Yh + eps)|
* spectral convergence:   ||Y - Yh||_F / ||Y||_F
* spectral optimal transport: mean over frames of the 1-D Wasserstein-1
  distance between the frames normalised to unit mass, computed as the
  CDF difference over the frequency axis scaled by the bin spacing.

The transport term moves smoothly when a peak slides along the frequency
axis, which is exactly where the pointwise terms saturate, so it steers the
optimiser out of far-off-frequency local minima. Each loss is one `*_grad`
function that returns the value and its closed-form gradient in the
prediction, (value, dYh).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossWeights:
    """Weights of the composite loss alpha*log + beta*sc + eta*sot."""

    alpha: float = 1.0
    beta: float = 1.0
    eta: float = 1.0
    epsilon: float = 1e-8

    def __post_init__(self):
        if min(self.alpha, self.beta, self.eta) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.alpha == self.beta == self.eta == 0:
            raise ValueError("at least one loss weight must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _check_shapes(Y, Yh):
    """Y is the target; Yh the prediction, of Y's shape or with leading
    (start) axes before it. Also returns the axes a loss sums over."""
    Y = np.asarray(Y, dtype=float)
    Yh = np.asarray(Yh, dtype=float)
    if Yh.shape[Yh.ndim - Y.ndim:] != Y.shape:
        raise ValueError(f"shape mismatch {Y.shape} vs {Yh.shape}")
    return Y, Yh, tuple(range(-Y.ndim, 0))


def loss_log_grad(Y, Yh, epsilon: float = 1e-8):
    Y, Yh, axes = _check_shapes(Y, Yh)
    diff = np.log(Y + epsilon) - np.log(Yh + epsilon)
    val = np.sum(np.abs(diff), axis=axes)
    dYh = -np.sign(diff) / (Yh + epsilon)
    return val, dYh


def loss_sc_grad(Y, Yh):
    Y, Yh, axes = _check_shapes(Y, Yh)
    ny = np.linalg.norm(Y)
    if ny == 0.0:
        raise ValueError("spectral convergence undefined for an all-zero target")
    d = Yh - Y
    nd = np.sqrt(np.sum(d * d, axis=axes, keepdims=True))
    dYh = d / np.where(nd == 0.0, np.inf, nd * ny)
    return np.squeeze(nd, axis=axes) / ny, dYh


def _sot_parts(Y, Yh, freqs):
    Y, Yh, _ = _check_shapes(Y, Yh)
    f = np.asarray(freqs, dtype=float)
    if Y.ndim != 2 or f.shape != (Y.shape[1],):
        raise ValueError("need one bin frequency per spectrogram column")
    widths = np.diff(f)  # distance between adjacent bin locations
    sy = Y.sum(axis=-1)
    sh = Yh.sum(axis=-1)
    valid = (sy > 0) & (sh > 0)
    if not np.all(np.any(valid, axis=-1)):
        raise ValueError("all frames have zero mass; transport undefined")
    cy = np.cumsum(Y, axis=-1) / np.where(sy, sy, 1.0)[:, None]
    ch = np.cumsum(Yh, axis=-1) / np.where(sh, sh, 1.0)[..., None]
    dcdf = (cy - ch)[..., :-1]  # final column is 0 for normalised masses
    per_frame = np.where(valid, np.abs(dcdf) @ widths, 0.0)
    return per_frame, valid, cy, ch, sh, widths


def loss_sot_grad(Y, Yh, freqs):
    """Mean per-frame Wasserstein-1 distance; frames are normalised to unit
    mass internally, zero-mass frames are skipped but still counted in the
    mean."""
    per_frame, valid, cy, ch, sh, widths = _sot_parts(Y, Yh, freqs)
    n = per_frame.shape[-1]
    val = per_frame.sum(axis=-1) / n
    # dW/dYh_j = (sum_{k>=j} s_k - sum_k s_k ch_k) / mass, s_k = sign(ch-cy)_k * width_k
    s = np.sign((ch - cy)[..., :-1]) * widths
    rev = np.zeros_like(ch)
    rev[..., :-1] = np.cumsum(s[..., ::-1], axis=-1)[..., ::-1]
    inner = np.einsum("...fk,...fk->...f", s, ch[..., :-1])
    dYh = (rev - inner[..., None]) / np.where(sh, sh, 1.0)[..., None]
    dYh[~valid] = 0.0
    return val, dYh / n


def loss_total_grad(Y, Yh, weights: LossWeights, freqs=None):
    total = 0.0
    grad = np.zeros_like(np.asarray(Yh, dtype=float))
    if weights.alpha:
        v, g = loss_log_grad(Y, Yh, weights.epsilon)
        total += weights.alpha * v
        grad += weights.alpha * g
    if weights.beta:
        v, g = loss_sc_grad(Y, Yh)
        total += weights.beta * v
        grad += weights.beta * g
    if weights.eta:
        if freqs is None:
            raise ValueError("transport loss needs the bin frequencies")
        v, g = loss_sot_grad(Y, Yh, freqs)
        total += weights.eta * v
        grad += weights.eta * g
    return total, grad
