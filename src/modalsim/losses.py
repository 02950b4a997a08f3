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
prediction, (value, dYh). What the composite loss needs of the target alone
(log(Y + eps), ||Y||, the transport CDF) is one :class:`LossTarget`, which a
fit builds once with :func:`loss_target` and passes for Y.
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


def _check_shapes(Y, Yh):
    """Y is the target; Yh the prediction, of Y's shape or with leading
    (start) axes before it. Also returns the axes a loss sums over."""
    Y = np.asarray(Y, dtype=float)
    Yh = np.asarray(Yh, dtype=float)
    if Yh.shape[Yh.ndim - Y.ndim:] != Y.shape:
        raise ValueError(f"shape mismatch {Y.shape} vs {Yh.shape}")
    return Y, Yh, tuple(range(-Y.ndim, 0))


class LossTarget(NamedTuple):
    """The target side of :func:`loss_total_grad`, from :func:`loss_target`:
    the target Y (a read-only copy), the weights and bin frequencies it was
    built for, and what each weighted term needs of Y (None for a term of
    weight 0): log(Y + epsilon), ||Y||_F, and the transport's per-frame CDF,
    frames with mass and bin widths."""

    Y: np.ndarray
    weights: LossWeights
    freqs: Optional[np.ndarray]
    log: Optional[np.ndarray]
    norm: Optional[float]
    transport: Optional[tuple]


def loss_target(Y, weights: LossWeights, freqs=None) -> LossTarget:
    """Everything loss_total_grad computes of the target Y alone, once for
    any number of predictions under these weights and bin frequencies."""
    Y = np.array(Y, dtype=float)
    Y.flags.writeable = False
    f = None if freqs is None else np.asarray(freqs, dtype=float)
    return LossTarget(Y, weights, f,
                      np.log(Y + weights.epsilon) if weights.alpha else None,
                      _sc_norm(Y) if weights.beta else None,
                      _sot_target(Y, f) if weights.eta else None)


def _log_grad(log_Y, Yh, epsilon, axes):
    t = Yh + epsilon
    diff = log_Y - np.log(t)
    return np.sum(np.abs(diff), axis=axes), -np.sign(diff) / t


def loss_log_grad(Y, Yh, epsilon: float = 1e-8):
    Y, Yh, axes = _check_shapes(Y, Yh)
    return _log_grad(np.log(Y + epsilon), Yh, epsilon, axes)


def _sc_norm(Y):
    ny = np.linalg.norm(Y)
    if ny == 0.0:
        raise ValueError("spectral convergence undefined for an all-zero target")
    return ny


def _sc_grad(Y, ny, Yh, axes):
    d = Yh - Y
    nd = np.sqrt(np.sum(d * d, axis=axes, keepdims=True))
    dYh = d / np.where(nd == 0.0, np.inf, nd * ny)
    return np.squeeze(nd, axis=axes) / ny, dYh


def loss_sc_grad(Y, Yh):
    Y, Yh, axes = _check_shapes(Y, Yh)
    return _sc_grad(Y, _sc_norm(Y), Yh, axes)


def _sot_target(Y, freqs):
    """The target side of the transport term: Y's per-frame CDF without its
    final column (1, or 0 for a frame without mass), which frames have mass,
    and the bin widths."""
    if freqs is None:
        raise ValueError("transport loss needs the bin frequencies")
    f = np.asarray(freqs, dtype=float)
    if Y.ndim != 2 or f.shape != (Y.shape[1],):
        raise ValueError("need one bin frequency per spectrogram column")
    sy = Y.sum(axis=-1)
    cdf = np.cumsum(Y, axis=-1) / np.where(sy, sy, 1.0)[:, None]
    return cdf[:, :-1], sy > 0, np.diff(f)


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


def loss_sot_grad(Y, Yh, freqs):
    """Mean per-frame Wasserstein-1 distance; frames are normalised to unit
    mass internally, zero-mass frames are skipped but still counted in the
    mean."""
    Y, Yh, _ = _check_shapes(Y, Yh)
    return _sot_grad(_sot_target(Y, freqs), Yh)


def loss_total_grad(Y, Yh, weights: LossWeights, freqs=None):
    """alpha*log + beta*sc + eta*sot of the prediction Yh against the target
    Y, and its gradient in Yh. Y may also be loss_target(Y, weights, freqs),
    built once for many predictions under the same weights and freqs."""
    if isinstance(Y, LossTarget):
        target = Y
        if target.weights != weights or not (freqs is target.freqs
                                             or np.array_equal(freqs, target.freqs)):
            raise ValueError("the loss target was built for other weights or frequencies")
    else:
        _check_shapes(Y, Yh)
        target = loss_target(Y, weights, freqs)
    _, Yh, axes = _check_shapes(target.Y, Yh)
    terms = []
    if weights.alpha:
        terms.append((weights.alpha, _log_grad(target.log, Yh, weights.epsilon, axes)))
    if weights.beta:
        terms.append((weights.beta, _sc_grad(target.Y, target.norm, Yh, axes)))
    if weights.eta:
        terms.append((weights.eta, _sot_grad(target.transport, Yh)))
    total, grad = 0.0, None
    for weight, (v, g) in terms:
        total += weight * v
        g *= weight
        grad = g if grad is None else grad + g
    return total, grad
