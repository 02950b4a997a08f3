import numpy as np
import pytest

from modalsim.fitting import FitConfig, FrequencyDomainProblem, TimeDomainProblem, fit
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
