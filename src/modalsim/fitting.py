"""Gradient-based recovery of physical parameters.

Fitted parameters are fields of the problem. ``free`` names the fields to
optimise, and the problem's ``PARAMS`` maps each field that may be free to
the transform (``TRANSFORMS``) from its raw optimiser coordinates:

* ``log``      — strictly positive quantities (d_hat, t0_hat, tau_hat),
* ``softplus`` — damping rates gamma (keeps every continuous-time pole in the
                 left half-plane, hence every discrete pole inside the unit
                 circle, by construction rather than by projection),
* ``linear``   — unconstrained quantities (readout_weights, weights, b2).

A free ``log`` or ``softplus`` parameter must start above 0, unless an init
rule of the fit sets its start above 0. A fixed ``gamma`` must be >= 0.

Two objective kinds cover the fitting paths:

* :class:`TimeDomainProblem` runs ``simulate``'s model
  (``integrators.run_model``) forced from rest, reads it out at a point, takes
  the magnitude STFT, and compares against a target spectrogram, using the
  differentiable core in :mod:`modalsim.adjoint`. A linear model is read out
  without its trajectory (``adjoint.readout_cached``) and takes its gradients
  in forward mode (``adjoint.readout_backward``), every start in one call of
  each; under a nonlinear force, gradients flow back through the stored
  trajectory (``adjoint.bptt``), one start at a time. The STFT, the loss and
  the STFT adjoint run start by start.

* :class:`FrequencyDomainProblem` evaluates the modal transfer-function
  magnitude on a Bark-spaced grid and compares against a target envelope
  (e.g. an LPC envelope of a recording), avoiding time stepping entirely.
  Every start goes through one call of each transfer-function kernel
  (``adjoint.tf_magnitude_cached`` / ``adjoint.tf_magnitude_backward``), which
  share one [start, freq, mode] array of reciprocal denominators per step:
  the backward call squares it in place, so each step builds a fresh cache.

Both problems map omega^2 and gamma to the update vectors (A, B, R) through
the coefficient maps of :mod:`modalsim.adjoint`; :func:`_coefficient_grads`
chains the sweeps' gradients through the maps' partials, field by field.

Both problems compute what the loss needs of their target alone
(``losses.loss_target``) once, and again only when the target, the loss
weights or the frequency grid change. A target entry that is negative or not
finite raises ValueError there, at the first call, naming the entry.

Optimisation is Adam under a one-cycle schedule (linear ramp over the first
10% of steps, cosine decay to peak/100), with independent random restarts
ranked by their best loss. The restarts run in lockstep: each step is one
``value_and_grad`` call with a leading start axis on every raw array and one
Adam update of all live starts. The frequency-domain problem broadcasts the
starts through one call of each transfer-function kernel, and the linear
time-domain problem through one call of each readout kernel; the nonlinear
time-domain problem loops over them. A start that raises one of
``START_ERRORS`` stops alone, such as one past the Stoermer-Verlet stability
bound or, under ftm, past Nyquist, which stops before its first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import adjoint
from .coupling import PlateCoupling, nonlinear_force
from .integrators import (InstabilityError, NyquistError, OverdampedError, StabilityBoundError,
                          coefficient_map, omega_squared, run_model)
from .losses import LossWeights, loss_target, loss_total_grad


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
    # the last loss_target built, kept for the calls after it (see _loss_target)
    _target = None

    def _check_lengths(self, sizes):
        """Store each named input as a float array of the given length; a
        scalar gamma first fills every mode. Damping must not be negative."""
        if np.ndim(self.gamma) == 0:
            self.gamma = np.full(len(self.lam), float(self.gamma))
        for name, size in sizes:
            setattr(self, name, adjoint.check_length(name, getattr(self, name), size))
        if not np.all(self.gamma >= 0):
            raise ValueError(f"gamma must be >= 0 in every mode, got {self.gamma}")

    def _check_free(self):
        unknown = set(self.free) - set(self.PARAMS)
        if unknown:
            raise ValueError(f"unknown free parameters {sorted(unknown)}")

    def initial_raw(self, names=None) -> Dict[str, np.ndarray]:
        """Raw coordinates matching the current values of the free parameters
        in names (default: all). A positive (log or softplus) parameter must
        be above 0, or its raw coordinate would be -inf or NaN and never move."""
        # free may have been reassigned since construction
        self._check_free()
        names = self.free if names is None else names
        for n in names:
            value = getattr(self, n)
            if self.PARAMS[n] != "linear" and not np.all(np.asarray(value) > 0):
                raise ValueError(f"free parameter {n} ({self.PARAMS[n]}) must start above 0, "
                                 f"got {value}; set a positive value or an init rule")
        return {n: np.asarray(TRANSFORMS[self.PARAMS[n]].inverse(getattr(self, n)), dtype=float)
                for n in names}

    def physical(self, raw: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {n: TRANSFORMS[self.PARAMS[n]].forward(raw[n]) for n in raw}

    def _values(self, raw):
        """Physical values of every parameter: the free ones from raw, the
        rest fixed."""
        values = {n: getattr(self, n) for n in self.PARAMS}
        values.update(self.physical(raw))
        return values

    def _loss_target(self, Y, shape):
        """losses.loss_target of the target Y under loss_weights and freqs,
        built again only when one of them no longer equals what the kept one
        was built from. Y must have the model's spectrum's shape. The problem
        keeps one immutable tuple of read-only arrays, so threads may share
        it, and a copy of the problem starts from the same one."""
        if np.shape(Y) != shape:
            raise ValueError(f"shape mismatch: the target has shape {np.shape(Y)}, "
                             f"the model's spectrum {shape}")
        target = self._target
        if not (target is not None and target.weights == self.loss_weights
                and np.array_equal(target.freqs, self.freqs) and np.array_equal(target.Y, Y)):
            target = self._target = loss_target(Y, self.loss_weights, self.freqs)
        return target

    def _raw_grads(self, raw, grads):
        """Chain gradients in physical values through the transforms."""
        return {
            n: np.asarray(grads[n], dtype=float) * TRANSFORMS[self.PARAMS[n]].derivative(raw[n])
            for n in raw
        }


def _coefficient_grads(parts, g, lam):
    """Gradients of d_hat, t0_hat and gamma from g, those of the update
    vectors, through parts, the coefficient map's (values, d/domega^2,
    d/dgamma), with omega^2 = d_hat lam^2 + t0_hat lam."""
    _, d_w2, d_g = parts
    dw2 = g.A * d_w2.A + g.B * d_w2.B + g.R * d_w2.R
    return {
        "d_hat": dw2 @ lam**2,
        "t0_hat": dw2 @ lam,
        "gamma": g.A * d_g.A + g.B * d_g.B + g.R * d_g.R,
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
        coefficient_map(self.scheme)  # SchemeError unless run_model runs it
        adjoint.check_stft(self.n_steps, self.stft_window_length, self.stft_hop)

    def _check_free(self):
        super()._check_free()
        if "tau_hat" in self.free and self.nonlinearity != "tension-modulated":
            raise ValueError("tau_hat is free only for the tension-modulated model")

    def _run(self, raw, readout=False):
        """The force, run_model's result from rest and the readout weights.
        With readout, a linear model is read out without its trajectory, for
        every start along raw's leading axis at once."""
        p = self._values(raw)
        force = nonlinear_force(self.nonlinearity, self.lam, p["tau_hat"], self.coupling,
                                self.vk_gain)
        rest = np.zeros(len(self.lam))
        w = np.asarray(p["readout_weights"], dtype=float)
        w2 = omega_squared(self.lam, np.expand_dims(p["d_hat"], -1),
                           np.expand_dims(p["t0_hat"], -1))
        run = run_model(self.scheme, w2, p["gamma"], 1.0 / self.rate, rest, rest, self.n_steps,
                        self.force_signal, self.force_gains, force,
                        readout=w if readout and force is None else None)
        return force, run, w

    def _rows(self, raw):
        """One raw dict per start along raw's leading axis, or None without one."""
        if any(np.ndim(v) > np.ndim(getattr(self, n)) for n, v in raw.items()):
            return [dict(zip(raw, row)) for row in zip(*raw.values())]

    def predict(self, raw) -> np.ndarray:
        """Readout signal under the given raw parameters: simulate's, bit for bit;
        with a leading start axis on raw, one row per start, run one at a time."""
        rows = self._rows(raw)
        if rows is not None:
            return np.stack([self.predict(row) for row in rows])
        _, (_, Q, _), w = self._run(raw)
        return Q[2:] @ w

    def value_and_grad(self, raw):
        """Loss and raw gradients; with a leading start axis on raw, one loss per
        start. A linear model reads every start out through one readout pair;
        under a nonlinear force the starts run one at a time."""
        rows = None if self.nonlinearity == "linear" else self._rows(raw)
        if rows is None:
            return self._value_and_grad(raw)
        losses, grads = zip(*map(self._value_and_grad, rows))
        return np.array(losses), {n: np.stack([g[n] for g in grads]) for n in raw}

    def _value_and_grad(self, raw):
        force, (parts, *run), w = self._run(raw, readout=True)
        if force is None:
            y, readout_cache = run
        else:
            Q, U = run
            y = Q[2:] @ w
        # the STFT and the loss run start by start: stacked, they ran no faster
        losses, ybar, target = [], np.empty_like(y), None
        for yk, bar in zip(y.reshape(-1, self.n_steps), ybar.reshape(-1, self.n_steps)):
            mag, cache = adjoint.stft_cached(yk, self.stft_window_length, self.stft_hop)
            if target is None:  # every start's spectrum has the first one's shape
                target = self._loss_target(self.target_mag, mag.shape)
            loss, dmag = loss_total_grad(target, mag, self.loss_weights, self.freqs)
            bar[:] = adjoint.stft_backward(cache, dmag)
            losses.append(loss)

        if force is None:
            g, dw = adjoint.readout_backward(readout_cache, ybar)
        else:
            g, dU = adjoint.bptt(*parts[0], Q, U, ybar, w, self.force_signal, self.force_gains,
                                 hook=force)
        grads = _coefficient_grads(parts, g, self.lam)
        if "readout_weights" in raw:
            grads["readout_weights"] = dw if force is None else Q[2:].T @ ybar
        if "tau_hat" in raw:
            grads["tau_hat"] = force.tau_grad(dU, Q)
        return np.reshape(losses, y.shape[:-1])[()], self._raw_grads(raw, grads)


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
        """The coefficient map's three Coefficients and the kernels' A, B, R, R2 = b2
        and w, each [mode], or [start, mode] where raw has a start axis."""
        p = self._values(raw)
        w2 = omega_squared(self.lam, np.expand_dims(p["d_hat"], -1),
                           np.expand_dims(p["t0_hat"], -1))
        parts = adjoint.ftm_update_partials(w2, p["gamma"], 1.0 / self.rate)
        return parts, (*parts[0], p["b2"], p["weights"])

    def predict(self, raw) -> np.ndarray:
        """|H| on the grid; with a leading start axis on raw, one row per start."""
        _, coeffs = self._assemble(raw)
        mag, _ = adjoint.tf_magnitude_cached(*coeffs, self._z)
        return mag

    def value_and_grad(self, raw):
        """Loss and raw gradients; with a leading start axis on raw, one loss per
        start. One call of each transfer-function kernel serves every start."""
        parts, coeffs = self._assemble(raw)
        mag, cache = adjoint.tf_magnitude_cached(*coeffs, self._z)  # [..., freq]
        target = self._loss_target(self.target_env[None, :], (1, len(self.freqs)))
        loss, dmag = loss_total_grad(target, mag[..., None, :], self.loss_weights, self.freqs)
        g, dR2, dw = adjoint.tf_magnitude_backward(cache, dmag[..., 0, :])
        return loss, self._raw_grads(raw, dict(_coefficient_grads(parts, g, self.lam),
                                               b2=dR2, weights=dw))


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
    init = cfg.init or {}
    raw = problem.initial_raw([n for n in problem.free if n not in init])
    unused = sorted(set(init) - set(problem.free))
    if unused:
        raise ValueError(f"init rules for parameters that are not free: {unused}")
    for name in [n for n in problem.free if n in init]:  # draws in free's order
        kind, shape = problem.PARAMS[name], np.shape(getattr(problem, name))
        invert, rule = TRANSFORMS[kind].inverse, init[name]
        if set(rule) not in ({"value"}, {"low", "high"}):
            raise ValueError(f"init rule for {name} needs 'value' or 'low'/'high', "
                             f"got {sorted(rule)}")
        if "value" in rule:
            value = np.asarray(rule["value"], dtype=float)
            if value.shape not in ((), shape):
                raise ValueError(f"init value for {name} has shape {value.shape}, not {shape}")
            if kind in ("log", "softplus") and not np.all(value > 0):
                raise ValueError(f"init value for {name} ({kind}) must be > 0, got {value}")
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
START_ERRORS = (InstabilityError, OverdampedError, StabilityBoundError, NyquistError,
                FloatingPointError)
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
    starts' raw coordinates, stacked on a leading start axis (broadcast by the
    frequency-domain problem and the linear time-domain one, one at a time
    under a nonlinear force), and one Adam update of their rows. A start stops
    when its loss or gamma goes non-finite. When the stacked call raises one
    of START_ERRORS, each live start is re-run alone: the ones that raise stop
    with that error and the others go on.
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
