"""The four benchmark workloads: two synthesis runs and two parameter fits.

Each workload function takes the seed and returns a :class:`Case`: the timed
operation, the output check, and what the report needs. The seed moves
excitation and readout points, target parameters by a few percent, and the fit
seed; it never changes the amount of work. Size arguments default to the
benchmark's sizes; the benchmark's own tests pass smaller ones.

The workloads call modalsim only through names exported from the package, and
look each one up on the package at call time (``ms.simulate``), so the tracer
in ``spans.py`` can intercept them. Every check compares against an oracle
computed here, independently of outputs the program has stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import modalsim as ms

# Relative tolerances of the output checks, set from the seed commit with
# room for rounding-level changes. Measured there: FTM vs closed form about
# 1e-11; SV vs RK4 on the 200-step prefix 0.004-0.024 (dropping the von Karman
# force moves that prefix by 0.38 or more).
FTM_CLOSED_FORM_TOL = 1e-8
SV_VS_RK_TOL = 0.06
REPEAT_TOL = 1e-9
# Fits: relative error of the best start's t0_hat against the truth. Measured:
# at most 0.032 (time domain, best of 2 starts, 40 seeds) and 0.0046
# (frequency domain, 31 seeds), from starts drawn up to 12% off.
TD_T0_TOL = 0.05
FD_T0_TOL = 0.015


@dataclass
class Case:
    """One workload instance built from a seed.

    op       : the timed operation; returns the output that ``check`` reads
    check    : returns a list of problems with one output (empty when correct)
    reference: names of the kernels in ``reference.py`` that together do the
               same kinds of work as the op; the run reports op time in units
               of their summed time
    audio_s  : seconds of audio one op synthesises (synthesis workloads)
    useful   : (useful starts, starts) of one fit output (fit workloads)
    """

    op: Callable[[], Any]
    check: Callable[[Any], list]
    reference: tuple
    audio_s: Optional[float] = None
    useful: Optional[Callable[[Any], tuple]] = None


def _rel_err(value, ref):
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(np.asarray(value) - ref))) / (scale if scale > 0 else 1.0)


class _SameAsFirst:
    """Checks later outputs of a deterministic op against the first one.

    The first output gets the full oracle check; later ones must repeat its
    readout, which is cheap and keeps every timed op checked.
    """

    def __init__(self, full_check):
        self.full_check = full_check
        self.first = None

    def __call__(self, out) -> list:
        if self.first is None:
            self.first = np.copy(out.readout)
            return self.full_check(out)
        err = _rel_err(out.readout, self.first)
        if not err <= REPEAT_TOL:
            return [f"readout differs from the first op's by {err:.3g}"]
        return []


# --- string_synth ---------------------------------------------------------------

def string_synth(seed: int, n_modes: int = 100, duration: float = 2.0,
                 rate: float = 44100.0) -> Case:
    """Linear plucked string, FTM, point readout."""
    rng = np.random.default_rng([seed, 1])
    L, rho = 0.65, 1.0e-3
    f0 = 196.0 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
    T0 = rho * (2.0 * L * f0) ** 2
    d1 = 4.0e-3 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
    d3 = 4.0e-7 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
    pluck = L * rng.uniform(0.1, 0.3)
    pickup = L * rng.uniform(0.6, 0.9)
    amp = 1.0e-3

    spec = ms.ModelSpec(ms.MaterialParams(rho=rho, d1=d1, d3=d3), ms.String(L=L, A=1e-6), T0=T0)
    basis = ms.string_basis(L, n_modes)
    excitation = ms.triangular_pluck(basis, pluck, amp)

    def op():
        return ms.simulate(spec, basis, "ftm", excitation, duration, rate, readout_point=pickup)

    def closed_form(out) -> list:
        # damped oscillator from rest at the triangle's sine-series amplitudes
        m = np.arange(1, n_modes + 1)
        lam = (m * np.pi / L) ** 2
        q0 = (2.0 * amp * L**2 * np.sin(m * np.pi * pluck / L)
              / (np.pi**2 * m**2 * pluck * (L - pluck))) * np.sqrt(L / 2.0)
        gamma = (d1 + d3 * lam) / (2.0 * rho)
        wt = np.sqrt(T0 / rho * lam - gamma**2)
        w = np.sin(m * np.pi * pickup / L) * np.sqrt(2.0 / L)
        n = out.q.shape[0]
        if out.q.shape != (int(round(duration * rate)), n_modes):
            return [f"trajectory shape {out.q.shape}"]
        q_err = np.zeros(n_modes)
        q_scale = np.zeros(n_modes)
        y_err = y_scale = 0.0
        for s0 in range(0, n, 4096):  # chunked so the check adds little memory
            t = (np.arange(s0, min(s0 + 4096, n)) + 1.0)[:, None] / rate
            ref = q0 * np.exp(-gamma * t) * (np.cos(wt * t) + gamma / wt * np.sin(wt * t))
            q_err = np.maximum(q_err, np.max(np.abs(out.q[s0:s0 + len(t)] - ref), axis=0))
            q_scale = np.maximum(q_scale, np.max(np.abs(ref), axis=0))
            y_ref = ref @ w
            y_err = max(y_err, float(np.max(np.abs(out.readout[s0:s0 + len(t)] - y_ref))))
            y_scale = max(y_scale, float(np.max(np.abs(y_ref))))
        q_rel = float(np.max(q_err / np.maximum(q_scale, 1e-12 * q_scale.max())))
        y_rel = y_err / y_scale
        problems = []
        if not q_rel <= FTM_CLOSED_FORM_TOL:
            problems.append(f"modes off the closed form by {q_rel:.3g}")
        if not y_rel <= FTM_CLOSED_FORM_TOL:
            problems.append(f"readout off the closed form by {y_rel:.3g}")
        return problems

    return Case(op=op, check=_SameAsFirst(closed_form), reference=("recurrence",),
                audio_s=duration)


# --- plate_synth ----------------------------------------------------------------

def plate_synth(seed: int, n_modes: int = 60, duration: float = 0.1,
                rate: float = 44100.0, check_steps: int = 200) -> Case:
    """Strongly nonlinear von Karman steel plate, Stoermer-Verlet, struck."""
    rng = np.random.default_rng([seed, 2])
    Lx, Ly, h = 0.4, 0.3, 0.001
    spec = ms.ModelSpec(
        ms.MaterialParams(rho=7850.0, E=2.0e11, nu=0.3,
                          d1=30.0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)), d3=0.02),
        ms.RectPlate(Lx=Lx, Ly=Ly, h=h), nonlinearity="von-karman",
    )
    strike = (Lx * rng.uniform(0.2, 0.4), Ly * rng.uniform(0.2, 0.4))
    pickup = (Lx * rng.uniform(0.6, 0.8), Ly * rng.uniform(0.6, 0.8))
    n_steps = int(round(duration * rate))
    force = ms.PointForce(strike, ms.raised_cosine_pulse(50.0, 2.0e-4, 1.0e-3, rate, n_steps))
    basis = ms.rect_basis(Lx, Ly, n_modes)
    tensors = ms.simply_supported_tensors(basis)

    def op():
        return ms.simulate(spec, basis, "sv", force, duration, rate,
                           readout_point=pickup, tensors=tensors)

    def against_rk(out) -> list:
        # RK4 at 4x oversampling on a prefix; the difference is SV scheme error
        prefix = ms.PointForce(strike, force.signal[:check_steps])
        ref = ms.simulate(spec, basis, "rk-reference", prefix, check_steps / rate, rate,
                          readout_point=pickup, tensors=tensors, rk_oversample=4).readout
        err = _rel_err(out.readout[:check_steps], ref)
        if not err <= SV_VS_RK_TOL:
            return [f"first {check_steps} steps off RK4 by {err:.3g}"]
        return []

    return Case(op=op, check=_SameAsFirst(against_rk), reference=("contraction",),
                audio_s=duration)


# --- fits -------------------------------------------------------------------------

def _t0_checks(problem, truth_t0: float, tol: float):
    """Check and useful-start count for a fit whose target is t0_hat."""

    def t0_err(t0_hat) -> float:
        return abs(float(t0_hat) / truth_t0 - 1.0)

    def check(result) -> list:
        problems = []
        diverged = [r.start for r in result.ranking if r.diverged]
        if diverged:
            problems.append(f"starts {diverged} diverged")
        err = t0_err(result.best_params["t0_hat"])
        if not err <= tol:
            problems.append(f"best t0_hat off the truth by {err:.3g} (tolerance {tol})")
        return problems

    def useful(result) -> tuple:
        ok = sum(1 for r in result.ranking
                 if not r.diverged and t0_err(problem.physical(r.best_raw)["t0_hat"]) <= tol)
        return ok, len(result.ranking)

    return check, useful


def _string_spec(rng, f0_nominal: float, L: float, rho: float, d_hat: float):
    f0 = f0_nominal * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
    T0 = rho * (2.0 * L * f0) ** 2
    D = rho * d_hat * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
    return ms.ModelSpec(ms.MaterialParams(rho=rho, d1=6.0e-3, d3=2.0e-6),
                        ms.String(L=L, A=1e-6), T0=T0, D=D)


def string_fit_td(seed: int, n_modes: int = 20, n_steps: int = 8000, rate: float = 16000.0,
                  starts: int = 2, steps: int = 8) -> Case:
    """Time-domain (BPTT) fit of t0_hat and d_hat to a target spectrogram."""
    rng = np.random.default_rng([seed, 3])
    L, rho, d_hat_nominal, f0_nominal = 0.65, 1.0e-3, 0.5, 196.0
    spec = _string_spec(rng, f0_nominal, L, rho, d_hat_nominal)
    hit = L * rng.uniform(0.1, 0.25)
    pickup = L * rng.uniform(0.6, 0.9)
    basis = ms.string_basis(L, n_modes)
    signal = ms.raised_cosine_pulse(1.0, 1.0e-3, 2.0e-3, rate, n_steps)
    target = ms.simulate(spec, basis, "ftm", ms.PointForce(hit, signal), n_steps / rate, rate,
                         readout_point=pickup)
    target_mag = ms.stft(target.readout, rate, 1024, 256).magnitude
    truth = ms.derive_normalized(spec)

    t0_nominal = (2.0 * L * f0_nominal) ** 2
    problem = ms.TimeDomainProblem(
        lam=basis.eigenvalues, rate=rate, n_steps=n_steps, scheme="ftm",
        force_signal=signal, force_gains=ms.project_point_excitation(basis, hit),
        target_mag=target_mag, stft_window_length=1024, stft_hop=256,
        d_hat=d_hat_nominal, t0_hat=t0_nominal, gamma=ms.bank_from_spec(spec, basis).gamma,
        readout_weights=ms.point_readout(basis, pickup).weights,
        # transport loss alone: with the log term, 8 steps left some seeds 3.7% off
        loss_weights=ms.LossWeights(alpha=0.0, beta=0.0),
        free=("t0_hat", "d_hat"),
    )
    cfg = ms.FitConfig(
        steps=steps, peak_lr=0.05, starts=starts, seed=seed,
        init={"t0_hat": {"low": 0.92 * t0_nominal, "high": 1.08 * t0_nominal},
              "d_hat": {"low": 0.9 * d_hat_nominal, "high": 1.1 * d_hat_nominal}},
    )
    check, useful = _t0_checks(problem, truth.t0_hat, TD_T0_TOL)
    return Case(op=lambda: ms.fit(problem, cfg), check=check, reference=("recurrence",),
                useful=useful)


def string_fit_fd(seed: int, n_modes: int = 30, n_freqs: int = 256, rate: float = 44100.0,
                  starts: int = 8, steps: int = 200) -> Case:
    """Frequency-domain fit of t0_hat and per-mode damping to a transfer function."""
    rng = np.random.default_rng([seed, 4])
    L, rho, d_hat, f0_nominal = 0.65, 1.0e-3, 0.05, 196.0
    spec = _string_spec(rng, f0_nominal, L, rho, d_hat)
    hit = L * rng.uniform(0.1, 0.25)
    pickup = L * rng.uniform(0.6, 0.9)
    basis = ms.string_basis(L, n_modes)
    freqs = ms.bark_grid(n_freqs, 18000.0, rate)
    weights = ms.project_point_excitation(basis, hit) * ms.point_readout(basis, pickup).weights
    bank = ms.bank_from_spec(spec, basis)
    target = ms.tf_magnitude(ms.ftm_coeffs(bank, 1.0 / rate), weights, freqs, rate)
    truth = ms.derive_normalized(spec)

    t0_nominal = (2.0 * L * f0_nominal) ** 2
    g = float(np.median(bank.gamma))
    problem = ms.FrequencyDomainProblem(
        lam=basis.eigenvalues, rate=rate, freqs=freqs, target_env=target,
        d_hat=truth.d_hat, t0_hat=t0_nominal, gamma=g,
        weights=weights, free=("t0_hat", "gamma"),
    )
    cfg = ms.FitConfig(
        steps=steps, peak_lr=0.05, starts=starts, seed=seed,
        init={"t0_hat": {"low": 0.92 * t0_nominal, "high": 1.08 * t0_nominal},
              "gamma": {"low": 0.5 * g, "high": 2.0 * g}},
    )
    check, useful = _t0_checks(problem, truth.t0_hat, FD_T0_TOL)
    return Case(op=lambda: ms.fit(problem, cfg), check=check,
                reference=("recurrence", "transfer"),
                useful=useful)


WORKLOADS = {
    "string_synth": string_synth,
    "plate_synth": plate_synth,
    "string_fit_td": string_fit_td,
    "string_fit_fd": string_fit_fd,
}
