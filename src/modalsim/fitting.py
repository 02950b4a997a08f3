"""Gradient-based recovery of physical parameters.

Free parameters are held as raw optimiser coordinates and mapped to physical
values through per-parameter transforms:

* ``log``      — strictly positive quantities (d_hat, t0_hat, tau),
* ``softplus`` — damping rates gamma (keeps every continuous-time pole in the
                 left half-plane, hence every discrete pole inside the unit
                 circle, by construction rather than by projection),
* ``linear``   — unconstrained quantities (output weights, b2).

Two objective kinds cover the fitting paths:

* :class:`TimeDomainProblem` simulates the forced response from rest, reads it
  out at a point, takes the magnitude STFT, and compares against a target
  spectrogram. Gradients flow through the full time recurrence (BPTT) using
  the differentiable core in :mod:`modalsim.adjoint`, the same recurrence
  ``simulate`` runs.

* :class:`FrequencyDomainProblem` evaluates the modal transfer-function
  magnitude on a Bark-spaced grid and compares against a target envelope
  (e.g. an LPC envelope of a recording), avoiding time stepping entirely.

Both problems map omega^2 and gamma to the update vectors (A, B, R) through
the coefficient maps of :mod:`modalsim.adjoint` and chain the gradients of
A, B and R back through their partials (:func:`_coefficient_grads`).

Optimisation is Adam under a one-cycle schedule (linear ramp over the first
10% of steps, cosine decay to peak/100), with independent random restarts
ranked by their best loss. The restarts run in lockstep: each step is one
``value_and_grad`` call with a leading start axis on every raw array and one
Adam update of all live starts. The frequency-domain problem vectorises that
call over the starts, the time-domain problem loops over them (``lfilter``
takes one coefficient set per call), and a start that fails stops alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import adjoint
from .coupling import PlateCoupling, TensionModulation, VkContraction
from .integrators import InstabilityError, OverdampedError
from .losses import LossWeights, loss_total_grad


class FitDivergedError(RuntimeError):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__(
            "every start diverged: "
            + "; ".join(f"start {d['start']}: {d['error']}" for d in diagnostics)
        )


# --- parameter transforms ----------------------------------------------------

def transform_apply(raw, kind: str):
    if kind == "log":
        return np.exp(raw)
    if kind == "softplus":
        return np.logaddexp(0.0, raw)
    if kind == "linear":
        return raw
    raise ValueError(f"unknown transform {kind!r}")


def transform_jacobian(raw, kind: str):
    if kind == "log":
        return np.exp(raw)
    if kind == "softplus":
        return 1.0 / (1.0 + np.exp(-np.asarray(raw, dtype=float)))
    if kind == "linear":
        return np.ones_like(np.asarray(raw, dtype=float))
    raise ValueError(f"unknown transform {kind!r}")


def transform_invert(value, kind: str):
    if kind == "log":
        return np.log(value)
    if kind == "softplus":
        v = np.asarray(value, dtype=float)
        return np.where(v > 30.0, v, np.log(np.expm1(np.minimum(v, 30.0))))
    if kind == "linear":
        return np.asarray(value, dtype=float)
    raise ValueError(f"unknown transform {kind!r}")


# Every fittable parameter and its transform; each problem accepts a subset.
TRANSFORMS = {
    "d_hat": "log", "t0_hat": "log", "tau": "log", "gamma": "softplus",
    "weights": "linear", "b2": "linear",
}


class _Parameters:
    """Parameter plumbing shared by the problems. A problem lists the names it
    accepts in FREE and returns their current physical values from _fixed();
    shapes and starting coordinates follow from those values."""

    FREE: frozenset = frozenset()

    def _check_lengths(self, sizes):
        """Store each named input as a float array of the given length."""
        for name, size in sizes:
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (size,):
                raise ValueError(f"{name} has shape {value.shape}, expected length {size}")
            setattr(self, name, value)

    def _check_free(self):
        unknown = set(self.free) - self.FREE
        if unknown:
            raise ValueError(f"unknown free parameters {sorted(unknown)}")

    def initial_raw(self) -> Dict[str, np.ndarray]:
        """Raw coordinates matching the problem's current fixed values."""
        # free may have been reassigned since construction
        self._check_free()
        fixed = self._fixed()
        return {
            n: np.asarray(transform_invert(fixed[n], TRANSFORMS[n]), dtype=float)
            for n in self.free
        }

    def physical(self, raw: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {n: transform_apply(raw[n], TRANSFORMS[n]) for n in raw}

    def _values(self, raw):
        """Physical values of every parameter: the free ones from raw, the
        rest fixed."""
        values = self._fixed()
        values.update(self.physical(raw))
        return values

    def _starts(self, raw):
        """The number of starts along raw's leading axis, or None without one."""
        fixed = self._fixed()
        return next((len(v) for n, v in raw.items() if np.ndim(v) > np.ndim(fixed[n])), None)

    def _raw_grads(self, raw, grads):
        """Chain gradients in physical values through the transforms."""
        return {
            n: np.asarray(grads[n], dtype=float) * transform_jacobian(raw[n], TRANSFORMS[n])
            for n in raw
        }


def _coefficient_grads(parts, g, lam):
    """Gradients of d_hat, t0_hat and gamma from those of the update vectors
    (g["dA"], g["dB"], g["dR"]), through the coefficient map's partials in
    omega^2 = d_hat lam^2 + t0_hat lam and gamma."""
    dw2 = g["dA"] * parts["dA_dw2"] + g["dB"] * parts["dB_dw2"] + g["dR"] * parts["dR_dw2"]
    return {
        "d_hat": dw2 @ lam**2,
        "t0_hat": dw2 @ lam,
        "gamma": g["dA"] * parts["dA_dg"] + g["dB"] * parts["dB_dg"] + g["dR"] * parts["dR_dg"],
    }


# --- objective: time domain (BPTT) --------------------------------------------

@dataclass
class TimeDomainProblem(_Parameters):
    """Forced-from-rest simulation matched to a target magnitude spectrogram.

    Whatever appears in `free` is optimised; everything else is read from the
    fixed values. `nonlinearity` is None, "kc" (tension modulation with
    tau_hat) or "vk": the von Karman force of `coupling`, a PlateCoupling from
    simply_supported_tensors built for the same modes as `lam`, times
    `vk_gain`, the force VkContraction that simulate runs. The plate coupling
    has no free parameters of its own.
    """

    lam: np.ndarray
    rate: float
    n_steps: int
    scheme: str  # "ftm" | "sv"
    force_signal: np.ndarray
    force_gains: np.ndarray
    target_mag: np.ndarray
    stft_window_length: int = 1024
    stft_hop: int = 256
    loss_weights: LossWeights = field(default_factory=LossWeights)
    d_hat: float = 0.0
    t0_hat: float = 0.0
    gamma: np.ndarray | float = 0.0
    tau_hat: float = 0.0
    coupling: Optional[PlateCoupling] = None
    vk_gain: float = 0.0
    readout_weights: Optional[np.ndarray] = None
    nonlinearity: Optional[str] = None  # None | "kc" | "vk"
    free: Tuple[str, ...] = ()

    FREE = frozenset({"d_hat", "t0_hat", "tau", "gamma", "weights"})

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        m = len(self.lam)
        self.gamma = np.broadcast_to(np.asarray(self.gamma, dtype=float), (m,)).copy()
        if self.readout_weights is None:
            self.readout_weights = np.ones(m)
        self._check_lengths((("force_signal", self.n_steps), ("force_gains", m),
                             ("readout_weights", m)))
        if self.nonlinearity == "vk":
            if self.coupling is None:
                raise ValueError("the plate model ('vk') needs a coupling")
            if self.coupling.n_phi != m:
                raise ValueError(f"the coupling acts on {self.coupling.n_phi} modes, "
                                 f"lam has {m}")
        self.freqs = np.fft.rfftfreq(self.stft_window_length, d=1.0 / self.rate)
        self._check_free()
        if self.scheme not in ("ftm", "sv"):
            raise ValueError("time-domain fitting uses the 'ftm' or 'sv' scheme")
        adjoint.check_stft(self.n_steps, self.stft_window_length, self.stft_hop)

    def _check_free(self):
        super()._check_free()
        if "tau" in self.free and self.nonlinearity != "kc":
            raise ValueError("tau is free only for the tension-modulated model")

    def _fixed(self):
        return {
            "d_hat": self.d_hat, "t0_hat": self.t0_hat, "tau": self.tau_hat,
            "gamma": self.gamma, "weights": self.readout_weights,
        }

    def _assemble(self, raw):
        p = self._values(raw)
        w2 = float(p["d_hat"]) * self.lam**2 + float(p["t0_hat"]) * self.lam
        partials = (adjoint.ftm_update_partials if self.scheme == "ftm"
                    else adjoint.sv_update_partials)
        parts = partials(w2, p["gamma"], 1.0 / self.rate)
        hook = None
        if self.nonlinearity == "kc":
            hook = TensionModulation(self.lam, p["tau"])
        elif self.nonlinearity == "vk":
            hook = VkContraction(self.coupling, self.vk_gain)
        return parts, hook, np.asarray(p["weights"], dtype=float)

    def _forward(self, parts, hook):
        m = len(self.lam)
        return adjoint.forward_cached(parts["A"], parts["B"], parts["R"], np.zeros(m),
                                      np.zeros(m), self.n_steps, self.force_signal,
                                      self.force_gains, hook)

    def predict(self, raw) -> np.ndarray:
        """Readout signal under the given raw parameters."""
        parts, hook, w = self._assemble(raw)
        Q, _ = self._forward(parts, hook)
        return Q[2:] @ w

    def value_and_grad(self, raw):
        """Loss and raw gradients; with a leading start axis on raw, one loss per
        start, the starts run one at a time (lfilter takes one coefficient set)."""
        if self._starts(raw) is None:
            return self._value_and_grad(raw)
        out = [self._value_and_grad(dict(zip(raw, row))) for row in zip(*raw.values())]
        return (np.array([loss for loss, _ in out]),
                {n: np.stack([g[n] for _, g in out]) for n in raw})

    def _value_and_grad(self, raw):
        parts, hook, w = self._assemble(raw)
        Q, U = self._forward(parts, hook)
        y = Q[2:] @ w
        mag, cache = adjoint.stft_cached(y, self.stft_window_length, self.stft_hop)
        loss, dmag = loss_total_grad(self.target_mag, mag, self.loss_weights, self.freqs)
        ybar = adjoint.stft_backward(cache, dmag)

        g = adjoint.bptt(parts["A"], parts["B"], parts["R"], Q, U, np.outer(ybar, w),
                         hook=hook, hook_param_names={"tau"} & set(raw))
        grads = dict(_coefficient_grads(parts, g, self.lam), weights=Q[2:].T @ ybar)
        if "tau" in g:
            grads["tau"] = g["tau"]
        return loss, self._raw_grads(raw, grads)


# --- objective: frequency domain ------------------------------------------------

@dataclass
class FrequencyDomainProblem(_Parameters):
    """Transfer-function magnitude on a frequency grid matched to a target
    envelope (single-frame spectral losses; no time stepping).

    The model is sum_mu w_mu (R z + b2) / (z^2 - A z - B) with the resonators'
    update vectors (A, B, R); b2 is a free term for matching unknown initial
    conditions, not a physical quantity.
    """

    lam: np.ndarray
    rate: float
    freqs: np.ndarray
    target_env: np.ndarray
    loss_weights: LossWeights = field(default_factory=LossWeights)
    d_hat: float = 0.0
    t0_hat: float = 0.0
    gamma: np.ndarray | float = 0.0
    b2: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    free: Tuple[str, ...] = ()

    FREE = frozenset({"d_hat", "t0_hat", "gamma", "b2", "weights"})

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        m = len(self.lam)
        self.gamma = np.broadcast_to(np.asarray(self.gamma, dtype=float), (m,)).copy()
        if self.b2 is None:
            self.b2 = np.zeros(m)
        if self.weights is None:
            self.weights = np.ones(m)
        self._check_lengths((("b2", m), ("weights", m)))
        self.freqs = adjoint.check_tf_frequencies(self.freqs, self.rate)
        self._z = np.exp(2j * np.pi * self.freqs / self.rate)
        self.target_env = np.asarray(self.target_env, dtype=float)
        if self.target_env.shape != self.freqs.shape:
            raise ValueError(
                f"target_env has shape {self.target_env.shape}, "
                f"the frequency grid {self.freqs.shape}"
            )
        self._check_free()

    def _fixed(self):
        return {
            "d_hat": self.d_hat, "t0_hat": self.t0_hat, "gamma": self.gamma,
            "b2": self.b2, "weights": self.weights,
        }

    def _assemble(self, raw):
        """Coefficient partials and the kernels' A, B, R, R2 = b2 and w, each
        [start, mode] (one start where raw has no start axis)."""
        p = self._values(raw)
        w2 = (np.reshape(p["d_hat"], (-1, 1)) * self.lam**2
              + np.reshape(p["t0_hat"], (-1, 1)) * self.lam)
        parts = adjoint.ftm_update_partials(w2, p["gamma"], 1.0 / self.rate)
        return parts, np.broadcast_arrays(parts["A"], parts["B"], parts["R"], p["b2"],
                                          p["weights"])

    def predict(self, raw) -> np.ndarray:
        _, coeffs = self._assemble(raw)
        mag, _ = adjoint.tf_magnitude_cached(*(c[0] for c in coeffs), self._z)
        return mag

    def value_and_grad(self, raw):
        """Loss and raw gradients; with a leading start axis on raw, one loss per
        start. The transfer-function kernels run one start at a time, so their
        [freq, mode] temporaries stay in cache; the rest runs on all at once."""
        parts, coeffs = self._assemble(raw)
        runs = [adjoint.tf_magnitude_cached(*c, self._z) for c in zip(*coeffs)]
        loss, dmag = loss_total_grad(self.target_env[None, :],
                                     np.stack([mag for mag, _ in runs])[:, None, :],
                                     self.loss_weights, self.freqs)
        tbs = [adjoint.tf_magnitude_backward(cache, d[0]) for (_, cache), d in zip(runs, dmag)]
        tb = {n: np.stack([t[n] for t in tbs]) for n in tbs[0]}
        grads = self._raw_grads(raw, dict(_coefficient_grads(parts, tb, self.lam),
                                          b2=tb["dR2"], weights=tb["dw"]))
        if self._starts(raw) is None:
            return float(loss[0]), {n: g[0] for n, g in grads.items()}
        return loss, grads


# --- optimiser --------------------------------------------------------------------

def one_cycle_lr(step: int, total: int, peak: float, warmup_frac: float = 0.1,
                 floor_ratio: float = 0.01) -> float:
    """Linear ramp to `peak` over the first 10% of steps, cosine decay to
    peak/100 at the final step."""
    floor = peak * floor_ratio
    warmup = warmup_frac * total
    if step <= warmup:
        return floor + (peak - floor) * (step / warmup if warmup > 0 else 1.0)
    t = (step - warmup) / (total - warmup)
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * t))


# --- multi-start fit engine ---------------------------------------------------------

@dataclass(frozen=True)
class FitConfig:
    steps: int
    peak_lr: float
    starts: int = 1
    init: Optional[Dict[str, dict]] = None  # name -> {"low","high"} | {"std"} | {"value"}
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")


@dataclass
class StartResult:
    start: int
    diverged: bool
    final_loss: float
    best_loss: float
    best_raw: Optional[Dict[str, np.ndarray]]
    trace: np.ndarray
    error: Optional[str] = None


@dataclass
class FitResult:
    best_params: Dict[str, np.ndarray]
    best_loss: float
    ranking: list  # StartResult sorted by best_loss
    seed: int


def _init_raw(problem, cfg: FitConfig, rng: np.random.Generator):
    raw = problem.initial_raw()
    init = cfg.init or {}
    unused = sorted(set(init) - set(problem.free))
    if unused:
        raise ValueError(f"init rules for parameters that are not free: {unused}")
    for name in problem.free:
        kind, shape = TRANSFORMS[name], raw[name].shape
        rule = init.get(name)
        if rule is None:
            continue
        if "value" in rule:
            value = np.asarray(rule["value"], dtype=float)
            if value.shape not in ((), shape):
                raise ValueError(f"init value for {name} has shape {value.shape}, not {shape}")
            raw[name] = np.array(transform_invert(np.broadcast_to(value, shape), kind))
        elif "low" in rule:
            # positive parameters draw log-uniformly; unconstrained ones uniformly
            if kind in ("log", "softplus"):
                val = np.exp(rng.uniform(np.log(rule["low"]), np.log(rule["high"]),
                                         size=shape))
            else:
                val = rng.uniform(rule["low"], rule["high"], size=shape)
            raw[name] = np.asarray(transform_invert(val, kind), dtype=float)
        elif "std" in rule:
            raw[name] = rng.normal(0.0, rule["std"], size=shape)
        else:
            raise ValueError(f"init rule for {name} needs 'value', 'low'/'high', or 'std'")
    return raw


# errors that stop one start; any other error ends the fit
START_ERRORS = (InstabilityError, OverdampedError, FloatingPointError)
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _live_value_and_grad(problem, raw, live, errors):
    """Losses and gradients of the live starts (rows of raw) from one call; if
    it raises, each start runs alone and one that raises gets a NaN loss."""
    try:
        loss, grads = problem.value_and_grad({n: x[live] for n, x in raw.items()})
        return np.broadcast_to(loss, live.shape), grads
    except START_ERRORS:
        loss = np.full(live.shape, np.nan)
        grads = {n: np.zeros_like(x[live]) for n, x in raw.items()}
    for i, k in enumerate(live):
        try:
            loss[i:i + 1], g = problem.value_and_grad({n: x[k:k + 1] for n, x in raw.items()})
            for n in grads:
                grads[n][i:i + 1] = g[n]
        except START_ERRORS as exc:
            errors[k] = str(exc)
    return loss, grads


def fit(problem, cfg: FitConfig) -> FitResult:
    """Run cfg.starts independent Adam runs in lockstep and rank them by best loss.

    Start k draws its initialisation from default_rng([seed, k]), so each
    start, and the ranking, is reproducible on its own, whatever the other
    starts do. Each step is one problem.value_and_grad call over the live
    starts' raw coordinates, stacked on a leading start axis (vectorised by
    the frequency-domain problem, a loop in the time-domain one), and one Adam
    update of their rows. A start stops when its loss or gamma goes
    non-finite. When the stacked call raises InstabilityError,
    OverdampedError or FloatingPointError, each live start is re-run alone:
    the ones that raise stop with that error and the others go on.
    """
    draws = [_init_raw(problem, cfg, np.random.default_rng([cfg.seed, k]))
             for k in range(cfg.starts)]
    raw = {n: np.stack([d[n] for d in draws]) for n in problem.free}
    m = {n: np.zeros_like(x) for n, x in raw.items()}
    v = {n: np.zeros_like(x) for n, x in raw.items()}
    trace = np.full((cfg.starts, cfg.steps), np.nan)
    best_loss = np.full(cfg.starts, np.inf)
    best_raw, errors = [None] * cfg.starts, [None] * cfg.starts
    live = np.arange(cfg.starts)
    for t in range(1, cfg.steps + 1):
        if not live.size:
            break
        loss, grads = _live_value_and_grad(problem, raw, live, errors)
        finite = np.isfinite(loss)
        for k in live[~finite]:
            errors[k] = errors[k] or f"non-finite loss at step {t - 1}"  # unless it raised
        live, loss = live[finite], loss[finite]
        trace[live, t - 1] = loss
        for k in live[loss < best_loss[live]]:
            best_raw[k] = {n: np.copy(x[k]) for n, x in raw.items()}
        best_loss[live] = np.minimum(best_loss[live], loss)
        lr = one_cycle_lr(t, cfg.steps, cfg.peak_lr)
        for n, x in raw.items():
            g = grads[n][finite]
            m[n][live] = BETA1 * m[n][live] + (1.0 - BETA1) * g
            v[n][live] = BETA2 * v[n][live] + (1.0 - BETA2) * g * g
            mhat, vhat = m[n][live] / (1.0 - BETA1**t), v[n][live] / (1.0 - BETA2**t)
            x[live] = x[live] - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        if "gamma" in raw:
            ok = np.isfinite(raw["gamma"][live]).all(axis=1)
            for k in live[~ok]:
                errors[k] = "gamma coordinates left the finite range"
            live = live[ok]

    results = []
    for k, row in enumerate(trace):
        done = row[np.isfinite(row)]
        results.append(StartResult(k, not done.size, float(done[-1]) if done.size else np.inf,
                                   float(best_loss[k]), best_raw[k], row, errors[k]))
    if all(r.diverged for r in results):
        raise FitDivergedError(
            [{"start": r.start, "error": r.error or "diverged"} for r in results]
        )
    ranking = sorted(results, key=lambda r: (r.best_loss, r.start))
    best = ranking[0]
    return FitResult(
        best_params=problem.physical(best.best_raw),
        best_loss=best.best_loss,
        ranking=ranking,
        seed=cfg.seed,
    )
