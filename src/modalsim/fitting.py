"""Gradient-based recovery of physical parameters.

Fitted parameters are fields of the problem. ``free`` names the fields to
optimise, and the problem's ``PARAMS`` maps each field that may be free to
the transform (``TRANSFORMS``) from its raw optimiser coordinates:

* ``log``      — strictly positive quantities (d_hat, t0_hat, tau_hat),
* ``softplus`` — damping rates gamma (keeps every continuous-time pole in the
                 left half-plane, hence every discrete pole inside the unit
                 circle, by construction rather than by projection),
* ``linear``   — unconstrained quantities (readout_weights, weights, b2).

Two objective kinds cover the fitting paths:

* :class:`TimeDomainProblem` runs ``simulate``'s model
  (``integrators.run_model``) forced from rest, reads it out at a point, takes
  the magnitude STFT, and compares against a target spectrogram. Gradients
  flow through the full time recurrence (BPTT) using the differentiable core
  in :mod:`modalsim.adjoint`.

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
takes one coefficient set per call), and a start that raises one of
``START_ERRORS`` stops alone, such as one past the Stoermer-Verlet stability
bound, which stops before its first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import adjoint
from .coupling import PlateCoupling, nonlinear_force
from .integrators import (
    InstabilityError, OverdampedError, StabilityBoundError, omega_squared, run_model,
)
from .losses import LossWeights, loss_total_grad


class FitDivergedError(RuntimeError):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__(
            "every start diverged: "
            + "; ".join(f"start {d['start']}: {d['error']}" for d in diagnostics)
        )


# --- parameter transforms ----------------------------------------------------

def _softplus_inverse(value):
    v = np.asarray(value, dtype=float)
    return np.where(v > 30.0, v, np.log(np.expm1(np.minimum(v, 30.0))))


class Transform(NamedTuple):
    forward: Callable  # raw coordinate -> physical value
    derivative: Callable  # d value / d raw, at the raw coordinate
    inverse: Callable  # physical value -> raw coordinate


TRANSFORMS = {
    "log": Transform(np.exp, np.exp, np.log),
    "softplus": Transform(lambda raw: np.logaddexp(0.0, raw),
                          lambda raw: 1.0 / (1.0 + np.exp(-np.asarray(raw, dtype=float))),
                          _softplus_inverse),
    "linear": Transform(lambda raw: raw,
                        lambda raw: np.ones_like(np.asarray(raw, dtype=float)),
                        lambda value: np.asarray(value, dtype=float)),
}


class _Parameters:
    """Parameter plumbing shared by the problems. A problem's PARAMS maps each
    field that may be free to its transform kind; shapes and starting
    coordinates follow from the fields' current values."""

    PARAMS: Dict[str, str] = {}

    def _check_lengths(self, sizes):
        """Store each named input as a float array of the given length; a
        scalar gamma first fills every mode."""
        if np.ndim(self.gamma) == 0:
            self.gamma = np.full(len(self.lam), float(self.gamma))
        for name, size in sizes:
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (size,):
                raise ValueError(f"{name} has shape {value.shape}, expected length {size}")
            setattr(self, name, value)

    def _check_free(self):
        unknown = set(self.free) - set(self.PARAMS)
        if unknown:
            raise ValueError(f"unknown free parameters {sorted(unknown)}")

    def initial_raw(self) -> Dict[str, np.ndarray]:
        """Raw coordinates matching the problem's current fixed values."""
        # free may have been reassigned since construction
        self._check_free()
        return {n: np.asarray(TRANSFORMS[self.PARAMS[n]].inverse(getattr(self, n)), dtype=float)
                for n in self.free}

    def physical(self, raw: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {n: TRANSFORMS[self.PARAMS[n]].forward(raw[n]) for n in raw}

    def _values(self, raw):
        """Physical values of every parameter: the free ones from raw, the
        rest fixed."""
        values = {n: getattr(self, n) for n in self.PARAMS}
        values.update(self.physical(raw))
        return values

    def _starts(self, raw):
        """The number of starts along raw's leading axis, or None without one."""
        return next((len(v) for n, v in raw.items() if np.ndim(v) > np.ndim(getattr(self, n))),
                    None)

    def _raw_grads(self, raw, grads):
        """Chain gradients in physical values through the transforms."""
        return {
            n: np.asarray(grads[n], dtype=float) * TRANSFORMS[self.PARAMS[n]].derivative(raw[n])
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
    """simulate's model, forced from rest, matched to a target magnitude
    spectrogram. Built from a spec's derive_normalized fields and bank gamma,
    a PointForce and a point readout, predict({}) is simulate's readout.

    Whatever appears in `free` is optimised; everything else is read from the
    fixed values. `nonlinearity` is one of ModelSpec's kinds, and tau_hat,
    `coupling` (a PlateCoupling for the modes of `lam`) and vk_gain must stay
    unset unless the model uses them (coupling.nonlinear_force).
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
    nonlinearity: str = "linear"
    free: Tuple[str, ...] = ()

    PARAMS = {"d_hat": "log", "t0_hat": "log", "tau_hat": "log", "gamma": "softplus",
              "readout_weights": "linear"}

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        m = len(self.lam)
        if self.readout_weights is None:
            self.readout_weights = np.ones(m)
        self._check_lengths((("gamma", m), ("force_signal", self.n_steps), ("force_gains", m),
                             ("readout_weights", m)))
        # rejects an unknown model and fields it does not use
        nonlinear_force(self.nonlinearity, self.lam, self.tau_hat, self.coupling, self.vk_gain)
        self.freqs = np.fft.rfftfreq(self.stft_window_length, d=1.0 / self.rate)
        self._check_free()
        if self.scheme not in ("ftm", "sv"):
            raise ValueError("time-domain fitting uses the 'ftm' or 'sv' scheme")
        adjoint.check_stft(self.n_steps, self.stft_window_length, self.stft_hop)

    def _check_free(self):
        super()._check_free()
        if "tau_hat" in self.free and self.nonlinearity != "tension-modulated":
            raise ValueError("tau_hat is free only for the tension-modulated model")

    def _run(self, raw):
        """Force, run_model's (parts, Q, U) from rest, and the readout weights."""
        p = self._values(raw)
        force = nonlinear_force(self.nonlinearity, self.lam, p["tau_hat"], self.coupling,
                                self.vk_gain)
        rest = np.zeros(len(self.lam))
        parts, Q, U = run_model(self.scheme, omega_squared(self.lam, p["d_hat"], p["t0_hat"]),
                                p["gamma"], 1.0 / self.rate, rest, rest, self.n_steps,
                                self.force_signal, self.force_gains, force)
        return force, parts, Q, U, np.asarray(p["readout_weights"], dtype=float)

    def predict(self, raw) -> np.ndarray:
        """Readout signal under the given raw parameters."""
        *_, Q, _, w = self._run(raw)
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
        force, parts, Q, U, w = self._run(raw)
        y = Q[2:] @ w
        mag, cache = adjoint.stft_cached(y, self.stft_window_length, self.stft_hop)
        loss, dmag = loss_total_grad(self.target_mag, mag, self.loss_weights, self.freqs)
        ybar = adjoint.stft_backward(cache, dmag)

        g = adjoint.bptt(parts["A"], parts["B"], parts["R"], Q, U, np.outer(ybar, w),
                         hook=force)
        grads = dict(_coefficient_grads(parts, g, self.lam), readout_weights=Q[2:].T @ ybar)
        if "tau_hat" in raw:
            grads["tau_hat"] = force.tau_grad(g["dU"], Q)
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

    PARAMS = {"d_hat": "log", "t0_hat": "log", "gamma": "softplus", "b2": "linear",
              "weights": "linear"}

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        m = len(self.lam)
        if self.b2 is None:
            self.b2 = np.zeros(m)
        if self.weights is None:
            self.weights = np.ones(m)
        self._check_lengths((("gamma", m), ("b2", m), ("weights", m)))
        self.freqs = adjoint.check_tf_frequencies(self.freqs, self.rate)
        self._z = np.exp(2j * np.pi * self.freqs / self.rate)
        self.target_env = np.asarray(self.target_env, dtype=float)
        if self.target_env.shape != self.freqs.shape:
            raise ValueError(
                f"target_env has shape {self.target_env.shape}, "
                f"the frequency grid {self.freqs.shape}"
            )
        self._check_free()

    def _assemble(self, raw):
        """Coefficient partials and the kernels' A, B, R, R2 = b2 and w, each
        [start, mode] (one start where raw has no start axis)."""
        p = self._values(raw)
        w2 = omega_squared(self.lam, np.reshape(p["d_hat"], (-1, 1)),
                           np.reshape(p["t0_hat"], (-1, 1)))
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

WARMUP_FRAC, FLOOR_RATIO = 0.1, 0.01


def one_cycle_lr(step: int, total: int, peak: float) -> float:
    """Linear ramp to `peak` over the first 10% of steps, cosine decay to
    peak/100 at the final step."""
    floor = peak * FLOOR_RATIO
    warmup = WARMUP_FRAC * total
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
    init: Optional[Dict[str, dict]] = None  # name -> {"low", "high"} | {"value"}
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not self.peak_lr > 0:
            raise ValueError(f"peak_lr must be positive, got {self.peak_lr}")
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
        kind, shape = problem.PARAMS[name], raw[name].shape
        invert = TRANSFORMS[kind].inverse
        rule = init.get(name)
        if rule is None:
            continue
        if set(rule) not in ({"value"}, {"low", "high"}):
            raise ValueError(f"init rule for {name} needs 'value' or 'low'/'high', "
                             f"got {sorted(rule)}")
        if "value" in rule:
            value = np.asarray(rule["value"], dtype=float)
            if value.shape not in ((), shape):
                raise ValueError(f"init value for {name} has shape {value.shape}, not {shape}")
            raw[name] = np.array(invert(np.broadcast_to(value, shape)))
        else:
            low, high = rule["low"], rule["high"]
            if not low < high:
                raise ValueError(f"init range for {name} needs low < high, got {low}, {high}")
            # positive parameters draw log-uniformly; unconstrained ones uniformly
            if kind in ("log", "softplus"):
                if not low > 0:
                    raise ValueError(f"init range for {name} ({kind}) needs low > 0, got {low}")
                val = np.exp(rng.uniform(np.log(low), np.log(high), size=shape))
            else:
                val = rng.uniform(low, high, size=shape)
            raw[name] = np.asarray(invert(val), dtype=float)
    return raw


# errors that stop one start; any other error ends the fit
START_ERRORS = (InstabilityError, OverdampedError, StabilityBoundError, FloatingPointError)
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
    non-finite. When the stacked call raises one of START_ERRORS, each live
    start is re-run alone: the ones that raise stop with that error and the
    others go on.
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
