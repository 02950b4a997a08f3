"""Shared fitting-problem constructors for gradient and fitting tests.

Configurations are chosen so every checked parameter actually influences the
loss (otherwise central differences measure nothing but roundoff): plates for
d_hat, strings for t0_hat/tau. The force pulse starts at `onset`; a negative
onset puts the pulse's peak at t = 0, so under 'sv' the start state q^{-1}
carries the first force sample.
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from modalsim import adjoint
from modalsim.coupling import simply_supported_tensors
from modalsim.fitting import FrequencyDomainProblem, TimeDomainProblem
from modalsim.integrators import raised_cosine_pulse
from modalsim.losses import LossWeights
from modalsim.modes import point_readout, project_point_excitation, rect_basis


def string_time_problem(scheme="ftm", nl="linear", free=(), n_steps=600, rate=8000.0,
                        n_modes=3, stft=(256, 64), onset=0.005):
    lam = (np.arange(1, n_modes + 1) * np.pi) ** 2
    sig = raised_cosine_pulse(50.0, onset, 0.004, rate, n_steps)
    gains = np.sin(np.arange(1, n_modes + 1) * np.pi * 0.3)
    w = np.sin(np.arange(1, n_modes + 1) * np.pi * 0.7)
    kw = dict(
        lam=lam, rate=rate, n_steps=n_steps, scheme=scheme,
        force_signal=sig, force_gains=gains, target_mag=np.zeros((1, 1)),
        stft_window_length=stft[0], stft_hop=stft[1],
        d_hat=0.002, t0_hat=30.0, gamma=2.0 + np.arange(n_modes, dtype=float),
        readout_weights=w, nonlinearity=nl, free=(),
    )
    if nl == "tension-modulated":
        kw["tau_hat"] = 5e3
    problem = TimeDomainProblem(**kw)
    target_kw = dict(kw)
    target_kw.update(d_hat=0.0032, t0_hat=24.0)
    if nl == "tension-modulated":
        target_kw["tau_hat"] = 8e3
    target = TimeDomainProblem(**target_kw)
    problem.target_mag, _ = adjoint.stft_cached(target.predict({}), stft[0], stft[1])
    problem.free = tuple(free)
    return problem


def plate_time_problem(free=(), n_steps=500, rate=8000.0, lengths=(0.3, 0.3), n_psi=None,
                       vk_gain=4.0e3, stft=(256, 64), n_modes=3, force_amp=150.0, onset=0.005):
    basis = rect_basis(*lengths, n_modes)
    sig = raised_cosine_pulse(force_amp, onset, 0.004, rate, n_steps)
    gains = project_point_excitation(basis, (0.09, 0.12))
    w = point_readout(basis, (0.21, 0.08)).weights
    kw = dict(
        lam=basis.eigenvalues, rate=rate, n_steps=n_steps, scheme="sv",
        force_signal=sig, force_gains=gains, target_mag=np.zeros((1, 1)),
        stft_window_length=stft[0], stft_hop=stft[1],
        d_hat=5.8328, t0_hat=0.0, gamma=np.full(n_modes, 3.0),
        readout_weights=w, nonlinearity="von-karman",
        coupling=simply_supported_tensors(basis, n_psi), vk_gain=vk_gain, free=(),
    )
    problem = TimeDomainProblem(**kw)
    target_kw = dict(kw)
    target_kw.update(d_hat=7.5, gamma=np.full(n_modes, 5.0))
    target = TimeDomainProblem(**target_kw)
    problem.target_mag, _ = adjoint.stft_cached(target.predict({}), stft[0], stft[1])
    problem.free = tuple(free)
    return problem


def plate_frequency_problem(free=(), n_modes=6, n_freqs=96, seed=0):
    from modalsim.analysis import bark_grid

    rng = np.random.default_rng(seed)
    basis = rect_basis(0.3, 0.3, n_modes)
    rate = 44100.0
    freqs = bark_grid(n_freqs, 18000.0, rate)
    kw = dict(
        lam=basis.eigenvalues, rate=rate, freqs=freqs, target_env=np.ones(n_freqs),
        d_hat=5.8328, t0_hat=0.0, gamma=np.linspace(3.0, 8.0, n_modes),
        b2=np.zeros(n_modes), weights=0.5 + rng.uniform(size=n_modes), free=(),
    )
    problem = FrequencyDomainProblem(**kw)
    target_kw = dict(kw)
    target_kw.update(d_hat=8.0, gamma=np.linspace(4.0, 9.5, n_modes),
                     b2=1e-5 * rng.normal(size=n_modes))
    target = FrequencyDomainProblem(**target_kw)
    problem.target_env = target.predict({})
    problem.free = tuple(free)
    return problem


def string_frequency_problem(free=(), n_modes=5, n_freqs=96, seed=0):
    from modalsim.analysis import bark_grid

    rng = np.random.default_rng(seed)
    lam = (np.arange(1, n_modes + 1) * np.pi) ** 2
    rate = 44100.0
    freqs = bark_grid(n_freqs, 18000.0, rate)
    kw = dict(
        lam=lam, rate=rate, freqs=freqs, target_env=np.ones(n_freqs),
        d_hat=0.01, t0_hat=(2 * np.pi * 196.0) ** 2 / np.pi**2,
        gamma=np.linspace(3.0, 8.0, n_modes), b2=np.zeros(n_modes),
        weights=0.5 + rng.uniform(size=n_modes), free=(),
    )
    problem = FrequencyDomainProblem(**kw)
    target_kw = dict(kw)
    target_kw.update(t0_hat=(2 * np.pi * 180.0) ** 2 / np.pi**2,
                     gamma=np.linspace(4.0, 9.5, n_modes))
    target = FrequencyDomainProblem(**target_kw)
    problem.target_env = target.predict({})
    problem.free = tuple(free)
    return problem


@dataclass
class GradientReport:
    """Analytic and central-finite-difference gradients, every free coordinate."""

    analytic: Dict[str, np.ndarray]
    numeric: Dict[str, np.ndarray]


def gradient_report(problem, raw, rel_step=1e-4):
    """Central finite differences of problem.value_and_grad's loss on every raw
    coordinate of every free parameter, with step rel_step * max(1, |x|)."""
    _, analytic = problem.value_and_grad(raw)
    numeric = {}
    for name, arr in raw.items():
        flat = np.asarray(arr, dtype=float).reshape(-1)  # a view: raw[name] moves with it
        g = np.zeros_like(flat)
        for i in range(flat.size):
            h = rel_step * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = problem.value_and_grad(raw)
            flat[i] = orig - h
            lm, _ = problem.value_and_grad(raw)
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        numeric[name] = g.reshape(np.shape(arr))
    return GradientReport(analytic=analytic, numeric=numeric)


def floored_relative_errors(report, floor_frac=1e-3):
    """Per-parameter max |analytic - numeric| / max(|a|, |n|, floor) with the
    floor tied to the strongest gradient coordinate of that parameter; below
    the floor, central differences measure only roundoff and kink noise."""
    out = {}
    for name in report.analytic:
        a = np.asarray(report.analytic[name], dtype=float)
        n = np.asarray(report.numeric[name], dtype=float)
        floor = floor_frac * max(np.max(np.abs(a)), 1e-300)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        out[name] = float(np.max(np.abs(a - n) / scale))
    return out


def directional_fd(problem, raw, seed=0, rel=1e-6):
    """Directional derivative along one random direction vs <grad, dir>."""
    rng = np.random.default_rng(seed)
    direction = {k: rng.normal(size=np.shape(v)) for k, v in raw.items()}
    _, g = problem.value_and_grad(raw)
    analytic = sum(float(np.sum(np.asarray(g[k]) * direction[k])) for k in raw)
    scale = max(max(float(np.max(np.abs(v))), 1.0) for v in raw.values())
    h = rel * scale

    def shifted(sign):
        return {k: np.asarray(raw[k], dtype=float) + sign * h * direction[k] for k in raw}

    lp, _ = problem.value_and_grad(shifted(+1))
    lm, _ = problem.value_and_grad(shifted(-1))
    numeric = (lp - lm) / (2 * h)
    return analytic, numeric
