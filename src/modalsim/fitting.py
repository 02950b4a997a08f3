"""Gradient-based recovery of physical parameters.

Free parameters are held as raw optimiser coordinates and mapped to physical
values through per-parameter transforms:

* ``log``      — strictly positive quantities (d_hat, t0_hat, tau),
* ``softplus`` — damping rates gamma (keeps every continuous-time pole in the
                 left half-plane, hence every discrete pole inside the unit
                 circle, by construction rather than by projection),
* ``linear``   — unconstrained quantities (output weights, b2, H entries).

Two objective kinds cover the fitting paths:

* :class:`TimeDomainProblem` simulates the forced response from rest, reads it
  out at a point, takes the magnitude STFT, and compares against a target
  spectrogram. Gradients flow through the full time recurrence (BPTT) using
  the differentiable core in :mod:`modalsim.adjoint`, the same recurrence
  ``simulate`` runs.

* :class:`FrequencyDomainProblem` evaluates the modal transfer-function
  magnitude on a Bark-spaced grid and compares against a target envelope
  (e.g. an LPC envelope of a recording), avoiding time stepping entirely.

Optimisation is Adam under a one-cycle schedule (linear ramp over the first
10% of steps, cosine decay to peak/100), with independent random restarts
ranked by their best loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import adjoint, coupling
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
    "weights": "linear", "b2": "linear", "H": "linear",
}


class _Parameters:
    """Parameter plumbing shared by the problems. A problem lists the names it
    accepts in FREE and returns their current physical values from _fixed();
    shapes and starting coordinates follow from those values."""

    FREE: frozenset = frozenset()

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

    def _raw_grads(self, raw, grads):
        """Chain gradients in physical values through the transforms."""
        return {
            n: np.asarray(grads[n], dtype=float) * transform_jacobian(raw[n], TRANSFORMS[n])
            for n in raw
        }


# --- objective: time domain (BPTT) --------------------------------------------

@dataclass
class TimeDomainProblem(_Parameters):
    """Forced-from-rest simulation matched to a target magnitude spectrogram.

    Whatever appears in `free` is optimised; everything else is read from the
    fixed values. `nonlinearity` is None, "kc" (tension modulation with
    tau_hat) or "vk" (plate coupling with H, zeta4 and vk_gain) — the plate's
    C tensor is tied to H through the simply supported permutation identity,
    so optimising H drags C along.
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
    H: Optional[np.ndarray] = None
    zeta4: Optional[np.ndarray] = None
    vk_gain: float = 0.0
    readout_weights: Optional[np.ndarray] = None
    nonlinearity: Optional[str] = None  # None | "kc" | "vk"
    free: Tuple[str, ...] = ()

    FREE = frozenset({"d_hat", "t0_hat", "tau", "gamma", "weights", "H"})

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        m = len(self.lam)
        self.gamma = np.broadcast_to(np.asarray(self.gamma, dtype=float), (m,)).copy()
        if self.readout_weights is None:
            self.readout_weights = np.ones(m)
        self.freqs = np.fft.rfftfreq(self.stft_window_length, d=1.0 / self.rate)
        self._check_free()
        if self.scheme not in ("ftm", "sv"):
            raise ValueError("time-domain fitting uses the 'ftm' or 'sv' scheme")
        adjoint.check_stft(self.n_steps, self.stft_window_length, self.stft_hop)

    def _check_free(self):
        super()._check_free()
        if "tau" in self.free and self.nonlinearity != "kc":
            raise ValueError("tau is free only for the tension-modulated model")
        if "H" in self.free and self.nonlinearity != "vk":
            raise ValueError("H is free only for the plate model")

    def _fixed(self):
        return {
            "d_hat": self.d_hat, "t0_hat": self.t0_hat, "tau": self.tau_hat,
            "gamma": self.gamma, "weights": self.readout_weights, "H": self.H,
        }

    def _assemble(self, raw):
        p = self._values(raw)
        w2 = float(p["d_hat"]) * self.lam**2 + float(p["t0_hat"]) * self.lam
        partials = (adjoint.ftm_update_partials if self.scheme == "ftm"
                    else adjoint.sv_update_partials)
        parts = partials(w2, p["gamma"], 1.0 / self.rate)
        hook = None
        if self.nonlinearity == "kc":
            hook = coupling.TensionModulation(self.lam, p["tau"])
        elif self.nonlinearity == "vk":
            H = np.asarray(p["H"], dtype=float)
            C = np.ascontiguousarray(np.transpose(H, (2, 1, 0)))
            hook = coupling.VkContraction(H, C, self.zeta4, self.vk_gain)
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
        parts, hook, w = self._assemble(raw)
        Q, U = self._forward(parts, hook)
        y = Q[2:] @ w
        mag, cache = adjoint.stft_cached(y, self.stft_window_length, self.stft_hop)
        loss, dmag = loss_total_grad(self.target_mag, mag, self.loss_weights, self.freqs)
        ybar = adjoint.stft_backward(cache, dmag)

        g = adjoint.bptt(parts["A"], parts["B"], parts["R"], Q, U, np.outer(ybar, w),
                         hook=hook, hook_param_names={"tau", "H"} & set(raw))
        dw2 = g["dA"] * parts["dA_dw2"] + g["dB"] * parts["dB_dw2"] + g["dR"] * parts["dR_dw2"]
        grads = {
            "d_hat": float(dw2 @ self.lam**2),
            "t0_hat": float(dw2 @ self.lam),
            "gamma": (g["dA"] * parts["dA_dg"] + g["dB"] * parts["dB_dg"]
                      + g["dR"] * parts["dR_dg"]),
            "weights": Q[2:].T @ ybar,
        }
        grads.update((n, g[n]) for n in ("tau", "H") if n in g)
        return loss, self._raw_grads(raw, grads)


# --- objective: frequency domain ------------------------------------------------

@dataclass
class FrequencyDomainProblem(_Parameters):
    """Transfer-function magnitude on a frequency grid matched to a target
    envelope (single-frame spectral losses; no time stepping)."""

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
        self.freqs = adjoint.check_tf_frequencies(self.freqs, self.rate)
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
        p = self._values(raw)
        w2 = float(p["d_hat"]) * self.lam**2 + float(p["t0_hat"]) * self.lam
        cp = adjoint.ftm_coeff_partials(w2, p["gamma"], 1.0 / self.rate)
        return cp, np.asarray(p["b2"], dtype=float), np.asarray(p["weights"], dtype=float)

    def predict(self, raw) -> np.ndarray:
        cp, b2, w = self._assemble(raw)
        mag, _ = adjoint.tf_magnitude_cached(cp["a1"], cp["a2"], cp["b1"], b2, w, self.freqs,
                                             self.rate)
        return mag

    def value_and_grad(self, raw):
        cp, b2, w = self._assemble(raw)
        mag, cache = adjoint.tf_magnitude_cached(cp["a1"], cp["a2"], cp["b1"], b2, w,
                                                 self.freqs, self.rate)
        loss, dmag = loss_total_grad(
            self.target_env[None, :], mag[None, :], self.loss_weights, self.freqs
        )
        tb = adjoint.tf_magnitude_backward(cache, dmag[0])
        dw2 = tb["da1"] * cp["da1_dw2"] + tb["db1"] * cp["db1_dw2"]
        grads = {
            "d_hat": float(dw2 @ self.lam**2),
            "t0_hat": float(dw2 @ self.lam),
            "gamma": (tb["da1"] * cp["da1_dg"] + tb["da2"] * cp["da2_dg"]
                      + tb["db1"] * cp["db1_dg"]),
            "b2": tb["db2"],
            "weights": tb["dw"],
        }
        return loss, self._raw_grads(raw, grads)


# --- gradient verification -------------------------------------------------------

@dataclass
class GradientReport:
    """Analytic vs central-finite-difference gradients, every free coordinate."""

    analytic: Dict[str, np.ndarray]
    numeric: Dict[str, np.ndarray]
    relative_error: Dict[str, np.ndarray]

    @property
    def max_relative_error(self) -> float:
        return max(float(np.max(v)) for v in self.relative_error.values())


def gradient_report(problem, raw: Dict[str, np.ndarray], rel_step: float = 1e-4,
                    floor: float = 0.0) -> GradientReport:
    """Central finite differences on every raw coordinate of every free
    parameter; relative errors use max(|analytic|, |numeric|) as the scale,
    with `floor` guarding the comparison of near-zero pairs."""
    base_loss, analytic = problem.value_and_grad(raw)
    numeric = {}
    for name, arr in raw.items():
        arr = np.asarray(arr, dtype=float)
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            h = rel_step * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = problem.value_and_grad(raw)
            flat[i] = orig - h
            lm, _ = problem.value_and_grad(raw)
            flat[i] = orig
            gf[i] = (lp - lm) / (2.0 * h)
        numeric[name] = g
    rel = {}
    for name in raw:
        a = np.asarray(analytic[name], dtype=float)
        n = numeric[name]
        scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        scale = np.where(scale == 0.0, 1.0, scale)
        rel[name] = np.abs(a - n) / scale
    return GradientReport(analytic=analytic, numeric=numeric, relative_error=rel)


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


@dataclass
class AdamState:
    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, raw):
        return cls(
            m={k: np.zeros_like(np.asarray(v, dtype=float)) for k, v in raw.items()},
            v={k: np.zeros_like(np.asarray(v, dtype=float)) for k, v in raw.items()},
        )


def adam_step(state: AdamState, raw, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update; mutates raw and state, returns them."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for k in raw:
        g = np.asarray(grads[k], dtype=float)
        state.m[k] = beta1 * state.m[k] + (1.0 - beta1) * g
        state.v[k] = beta2 * state.v[k] + (1.0 - beta2) * g * g
        mhat = state.m[k] / bc1
        vhat = state.v[k] / bc2
        raw[k] = raw[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return state, raw


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
    for name in problem.free:
        kind, shape = TRANSFORMS[name], raw[name].shape
        rule = init.get(name)
        if rule is None:
            continue
        if "value" in rule:
            raw[name] = np.asarray(
                transform_invert(np.asarray(rule["value"], dtype=float), kind),
                dtype=float,
            )
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


def _run_start(problem, cfg: FitConfig, start_idx: int) -> StartResult:
    rng = np.random.default_rng([cfg.seed, start_idx])
    raw = _init_raw(problem, cfg, rng)
    state = AdamState.for_params(raw)
    trace = np.full(cfg.steps, np.nan)
    best_loss = np.inf
    best_raw = None
    try:
        for step_idx in range(cfg.steps):
            loss, grads = problem.value_and_grad(raw)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite loss at step {step_idx}")
            trace[step_idx] = loss
            if loss < best_loss:
                best_loss = loss
                best_raw = {k: np.copy(v) for k, v in raw.items()}
            lr = one_cycle_lr(step_idx + 1, cfg.steps, cfg.peak_lr)
            adam_step(state, raw, grads, lr)
            if "gamma" in raw and not np.all(np.isfinite(raw["gamma"])):
                raise FloatingPointError("gamma coordinates left the finite range")
    except (InstabilityError, OverdampedError, FloatingPointError) as exc:
        if best_raw is None:
            return StartResult(start_idx, True, np.inf, np.inf, None, trace, str(exc))
        return StartResult(start_idx, False, float(trace[np.isfinite(trace)][-1]),
                           best_loss, best_raw, trace, str(exc))
    return StartResult(start_idx, False, float(trace[-1]), best_loss, best_raw, trace)


def fit(problem, cfg: FitConfig) -> FitResult:
    """Run cfg.starts independent Adam runs and rank them by best loss.

    The starts run one after another. Start k draws its initialisation from
    default_rng([seed, k]), so each start, and the ranking, is reproducible
    on its own, whatever the other starts do.
    """
    results = [_run_start(problem, cfg, i) for i in range(cfg.starts)]
    ok = [r for r in results if not r.diverged]
    if not ok:
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
