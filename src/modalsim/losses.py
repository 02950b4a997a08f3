"""Spectral losses and their gradients with respect to the prediction.

Three complementary distances between magnitude spectrograms Y (target) and
Yh (prediction), frames indexed [time][frequency]:

* log-magnitude L1:       sum |log(Y + eps) - log(Yh + eps)|
* spectral convergence:   ||Y - Yh||_F / ||Y||_F
* spectral optimal transport: mean over frames of the 1-D Wasserstein-1
  distance between the frames normalised to unit mass, computed as the
  CDF difference over the frequency axis scaled by the bin spacing. A frame
  without mass on either side is skipped but counted in the mean.

The transport term moves smoothly when a peak slides along the frequency
axis, which is exactly where the pointwise terms saturate, so it steers the
optimiser out of far-off-frequency local minima.

The composite loss alpha*log + beta*sc + eta*sot has one entry,
:func:`loss_total_grad`, which returns the value and its closed-form gradient
in the prediction, (value, dYh), against one :class:`LossTarget` that
:func:`loss_target` builds of Y, the weights and the bin frequencies. A
single term is the total under weights with one nonzero entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

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


class LossTarget(NamedTuple):
    """Everything :func:`loss_total_grad` takes besides the prediction, built
    by :func:`loss_target`: the target Y (a read-only copy), the weights and
    bin frequencies the loss is taken under, and what each weighted term
    needs of Y (None for a term of weight 0): log(Y + epsilon), ||Y||_F, and
    the transport's per-frame CDF, frames with mass and bin widths."""

    Y: np.ndarray
    weights: LossWeights
    freqs: Optional[np.ndarray]
    log: Optional[np.ndarray]
    norm: Optional[float]
    transport: Optional[tuple]


def loss_target(Y, weights: LossWeights, freqs=None) -> LossTarget:
    """Everything loss_total_grad computes of the target Y alone, once for
    any number of predictions under these weights and bin frequencies. Y must
    be finite and >= 0 in every entry."""
    Y = np.array(Y, dtype=float)
    bad = ~(np.isfinite(Y) & (Y >= 0.0))
    if np.any(bad):
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"the target must be finite and >= 0; entry {first} "
                         f"of shape {Y.shape} is {Y[first]}")
    Y.flags.writeable = False
    f = None if freqs is None else np.asarray(freqs, dtype=float)
    norm = np.linalg.norm(Y) if weights.beta else None
    if norm == 0.0:
        raise ValueError("spectral convergence undefined for an all-zero target")
    return LossTarget(Y, weights, f, np.log(Y + weights.epsilon) if weights.alpha else None,
                      norm, _sot_target(Y, f) if weights.eta else None)


def _log_grad(log_Y, Yh, epsilon, axes):
    t = Yh + epsilon
    diff = log_Y - np.log(t)
    return np.sum(np.abs(diff), axis=axes), -np.sign(diff) / t


def _sc_grad(Y, ny, Yh, axes):
    d = Yh - Y
    nd = np.sqrt(np.sum(d * d, axis=axes, keepdims=True))
    dYh = d / np.where(nd == 0.0, np.inf, nd * ny)
    return np.squeeze(nd, axis=axes) / ny, dYh


def _sot_target(Y, freqs):
    """The target side of the transport term: Y's per-frame CDF without its
    final column (1, or 0 for a frame without mass), which frames have mass,
    and the bin widths."""
    if freqs is None:
        raise ValueError("transport loss needs the bin frequencies")
    if Y.ndim != 2 or freqs.shape != (Y.shape[1],):
        raise ValueError("need one bin frequency per spectrogram column")
    sy = Y.sum(axis=-1)
    cdf = np.cumsum(Y, axis=-1) / np.where(sy, sy, 1.0)[:, None]
    return cdf[:, :-1], sy > 0, np.diff(freqs)


def _sot_grad(target, Yh):
    """Mean per-frame Wasserstein-1 distance of Yh [..., frame, bin] from the
    target of _sot_target, and its gradient in Yh:
    dW/dYh_j = (sum_{k>=j} s_k - sum_k s_k ch_k) / mass, s_k = sign(ch-cy)_k width_k."""
    cdf, has_mass, widths = target
    sh = Yh.sum(axis=-1)
    valid = has_mass & (sh > 0)
    if not np.all(np.any(valid, axis=-1)):
        raise ValueError("all frames have zero mass; transport undefined")
    n = valid.shape[-1]
    ch = np.cumsum(Yh, axis=-1)
    ch /= np.where(sh, sh, 1.0)[..., None]
    s = ch[..., :-1] - cdf
    val = np.where(valid, np.abs(s) @ widths, 0.0).sum(axis=-1) / n
    np.sign(s, out=s)
    s *= widths
    dYh = np.empty_like(ch)
    dYh[..., -1] = 0.0
    np.cumsum(s[..., ::-1], axis=-1, out=dYh[..., -2::-1])
    dYh -= np.einsum("...fk,...fk->...f", s, ch[..., :-1])[..., None]
    # a frame without mass on either side is skipped: x / inf = 0
    dYh /= np.where(valid, sh, np.inf)[..., None]
    dYh /= n
    return val, dYh


def loss_total_grad(target: LossTarget, Yh):
    """alpha*log + beta*sc + eta*sot of the prediction Yh against the target
    of loss_target(Y, weights, freqs), under its weights and bin frequencies,
    and its gradient in Yh. Yh has Y's shape, or leading (start) axes before
    it and then one loss per start."""
    if not isinstance(target, LossTarget):
        raise TypeError(f"loss_total_grad takes a LossTarget, not {type(target).__name__}; "
                        "build it with loss_target(Y, weights, freqs)")
    weights, Y = target.weights, target.Y
    Yh = np.asarray(Yh, dtype=float)
    if Yh.shape[Yh.ndim - Y.ndim:] != Y.shape:
        raise ValueError(f"shape mismatch {Y.shape} vs {Yh.shape}")
    axes = tuple(range(-Y.ndim, 0))
    terms = []
    if weights.alpha:
        terms.append((weights.alpha, _log_grad(target.log, Yh, weights.epsilon, axes)))
    if weights.beta:
        terms.append((weights.beta, _sc_grad(Y, target.norm, Yh, axes)))
    if weights.eta:
        terms.append((weights.eta, _sot_grad(target.transport, Yh)))
    total, grad = 0.0, None
    for weight, (v, g) in terms:
        total += weight * v
        g *= weight
        grad = g if grad is None else grad + g
    return total, grad
