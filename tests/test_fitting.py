import re
from dataclasses import dataclass
from typing import Dict

import numpy as np
import pytest

from modalsim.fitting import (
    FitConfig, FrequencyDomainProblem, StartResult, TimeDomainProblem, _init_raw, fit,
    one_cycle_lr,
)
from modalsim.integrators import InstabilityError, OverdampedError
from problem_builders import string_frequency_problem, string_time_problem


def test_fit_reports_misshaped_target_instead_of_divergence():
    problem = string_time_problem(free=("t0_hat",))
    problem.target_mag = np.zeros((3, 3))
    with pytest.raises(ValueError, match="shape mismatch"):
        fit(problem, FitConfig(steps=2, peak_lr=0.01, starts=2))


@pytest.mark.parametrize("free, message", [(("bogus",), "unknown free parameters"),
                                           (("tau",), "tau is free only"),
                                           (("H",), "H is free only")])
def test_fit_checks_free_assigned_after_construction(free, message):
    problem = string_time_problem()
    problem.free = free
    with pytest.raises(ValueError, match=message):
        fit(problem, FitConfig(steps=1, peak_lr=0.01))


def frequency_kw(**changes):
    kw = dict(lam=(np.arange(1, 4) * np.pi) ** 2, rate=8000.0,
              freqs=np.linspace(100.0, 3000.0, 16), target_env=np.ones(16),
              t0_hat=1000.0, gamma=2.0)
    kw.update(changes)
    return kw


@pytest.mark.parametrize("freqs", [[0.0, 100.0], [100.0, 4000.0], [-5.0, 100.0]])
def test_frequency_problem_rejects_grid_outside_open_band(freqs):
    with pytest.raises(ValueError, match="Nyquist"):
        FrequencyDomainProblem(**frequency_kw(freqs=np.asarray(freqs), target_env=np.ones(2)))


def test_frequency_problem_rejects_target_of_other_length():
    with pytest.raises(ValueError, match="target_env"):
        FrequencyDomainProblem(**frequency_kw(target_env=np.ones(15)))


def test_frequency_builder_grid_passes():
    assert len(string_frequency_problem().freqs) == 96


def time_kw(**changes):
    kw = dict(lam=(np.arange(1, 4) * np.pi) ** 2, rate=8000.0, n_steps=600, scheme="ftm",
              force_signal=np.zeros(600), force_gains=np.ones(3),
              target_mag=np.zeros((1, 1)), stft_window_length=256, stft_hop=64,
              t0_hat=30.0, gamma=2.0)
    kw.update(changes)
    return kw


def test_time_problem_rejects_hop_longer_than_window():
    with pytest.raises(ValueError, match="hop"):
        TimeDomainProblem(**time_kw(stft_hop=512))


def test_time_problem_rejects_signal_shorter_than_window():
    with pytest.raises(ValueError, match="too short"):
        TimeDomainProblem(**time_kw(n_steps=200, force_signal=np.zeros(200)))


@pytest.mark.parametrize("name, value, expected", [
    ("force_signal", np.zeros(599), 600),
    ("force_signal", np.zeros(601), 600),
    ("force_gains", np.ones(4), 3),
    ("readout_weights", np.ones(2), 3),
], ids=["short-signal", "long-signal", "gains", "weights"])
def test_time_problem_rejects_input_of_wrong_length(name, value, expected):
    with pytest.raises(ValueError, match=rf"{name} has shape \({len(value)},\), "
                                         rf"expected length {expected}"):
        TimeDomainProblem(**time_kw(**{name: value}))


# --- lockstep engine against the serial per-start oracle ------------------------------

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


def run_start(problem, cfg: FitConfig, start_idx: int) -> StartResult:
    """One start run alone, calling value_and_grad without a start axis."""
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


def assert_matches_serial(problem, cfg):
    """Every start of the lockstep fit ends as it does run alone. Per start the
    arithmetic is the serial one, so only rounding in the stacked reductions
    may differ."""
    by_start = {r.start: r for r in fit(problem, cfg).ranking}
    results = []
    for k in range(cfg.starts):
        got, want = by_start[k], run_start(problem, cfg, k)
        assert (got.diverged, got.error) == (want.diverged, want.error), k
        np.testing.assert_allclose(got.trace, want.trace, rtol=1e-12, err_msg=str(k))
        if want.best_raw is None:
            assert got.best_raw is None
        else:
            assert set(got.best_raw) == set(want.best_raw)
            for name, value in want.best_raw.items():
                assert got.best_raw[name].shape == value.shape
                np.testing.assert_allclose(got.best_raw[name], value, rtol=1e-12)
        results.append(want)
    return results


def frequency_fit(gamma_range, steps, seed):
    problem = string_frequency_problem(free=("t0_hat", "gamma"))
    t0 = problem.t0_hat
    cfg = FitConfig(steps=steps, peak_lr=0.05, starts=4, seed=seed,
                    init={"t0_hat": {"low": 0.9 * t0, "high": 1.1 * t0},
                          "gamma": {"low": gamma_range[0], "high": gamma_range[1]}})
    return problem, cfg


def test_lockstep_frequency_fit_matches_serial_starts():
    results = assert_matches_serial(*frequency_fit((2.0, 12.0), steps=30, seed=1))
    assert not any(r.diverged or r.error for r in results)


@pytest.mark.parametrize("seed", [0, 4])
def test_overdamped_start_stops_alone(seed):
    # gammas up to 3000 put some modes past omega_1 = 1231: at seed 0 one start
    # is overdamped from step 0; at seed 4 another also turns overdamped later
    results = assert_matches_serial(*frequency_fit((100.0, 3000.0), steps=10, seed=seed))
    assert sum(r.diverged for r in results) == 1
    assert all("not underdamped" in r.error for r in results if r.diverged)
    assert sum(not r.diverged and r.error is None for r in results) >= 2


def test_time_domain_start_that_blows_up_stops_alone():
    # Stoermer-Verlet is unstable past omega T = 2, i.e. t0_hat above 2.9e6 here
    problem = string_time_problem(scheme="sv", free=("t0_hat",))
    cfg = FitConfig(steps=4, peak_lr=0.05, starts=3, seed=0,
                    init={"t0_hat": {"low": 1e5, "high": 1e7}})
    results = assert_matches_serial(problem, cfg)
    assert [r.diverged for r in results] == [False, True, False]
    assert results[1].error.startswith("non-finite state")


@pytest.mark.parametrize("build", [string_frequency_problem, string_time_problem])
def test_fit_without_free_parameters(build):
    results = assert_matches_serial(build(), FitConfig(steps=3, peak_lr=0.05, starts=2))
    assert all(r.best_raw == {} for r in results)
    assert results[0].trace[0] == results[1].trace[0]


# --- init rules --------------------------------------------------------------------------

def gamma_value_fit(value):
    problem = string_frequency_problem(free=("t0_hat", "gamma"))
    return problem, FitConfig(steps=2, peak_lr=0.01, starts=2, init={"gamma": {"value": value}})


@pytest.mark.parametrize("value", [3.0, np.linspace(3.0, 4.0, 5)], ids=["scalar", "per-mode"])
def test_init_value_fills_the_parameter_shape(value):
    problem, cfg = gamma_value_fit(value)
    result = fit(problem, cfg)
    for r in result.ranking:
        assert r.best_raw["gamma"].shape == (5,)
    raw = _init_raw(problem, cfg, np.random.default_rng(0))
    np.testing.assert_allclose(problem.physical(raw)["gamma"], np.broadcast_to(value, (5,)),
                               rtol=1e-12)


@pytest.mark.parametrize("value", [np.ones(7), np.ones((1, 5)), np.ones(1)])
def test_init_value_of_another_shape_is_rejected(value):
    message = f"init value for gamma has shape {value.shape}, not (5,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        fit(*gamma_value_fit(value))


def test_init_rules_for_parameters_that_are_not_free_are_rejected():
    problem = string_frequency_problem(free=("t0_hat",))
    cfg = FitConfig(steps=2, peak_lr=0.01, init={"gamma": {"value": 3.0}, "b2": {"std": 1.0},
                                                  "t0_hat": {"value": 1e5}})
    with pytest.raises(ValueError, match=r"not free: \['b2', 'gamma'\]"):
        fit(problem, cfg)
