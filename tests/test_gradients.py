"""Analytic gradients of every fitting problem against central differences.

Each free parameter is checked on its own, with a smooth loss (no log term,
whose kinks make central differences unreliable) and a step suited to the
scale of its raw coordinate.
"""

import pytest

from modalsim.losses import LossWeights
from problem_builders import (
    floored_relative_errors, gradient_report, plate_frequency_problem, plate_time_problem,
    string_frequency_problem, string_time_problem,
)

STEPS = {"t0_hat": 1e-5, "d_hat": 1e-5, "weights": 1e-5, "readout_weights": 1e-5,
         "gamma": 1e-4, "tau_hat": 1e-6, "b2": 1e-8}
# the time-domain problem's readout weights and tension coefficient, with
# short test ids
READOUT_WEIGHTS = pytest.param("readout_weights", id="weights")
TAU_HAT = pytest.param("tau_hat", id="tau")
TOL = 1e-3


def check(problem, name):
    problem.loss_weights = LossWeights(alpha=0.0)
    problem.free = (name,)
    raw = problem.initial_raw()
    report = gradient_report(problem, raw, rel_step=STEPS[name])
    err = floored_relative_errors(report)[name]
    assert err <= TOL, f"{name}: relative error {err:.3g}"


@pytest.mark.parametrize("scheme", ["ftm", "sv"])
@pytest.mark.parametrize("name", ["d_hat", "t0_hat", "gamma", READOUT_WEIGHTS])
def test_string_time_linear_gradients(scheme, name):
    check(string_time_problem(scheme=scheme), name)


@pytest.mark.parametrize("scheme", ["ftm", "sv"])
@pytest.mark.parametrize("name", ["d_hat", "t0_hat", "gamma", READOUT_WEIGHTS, TAU_HAT])
def test_string_time_kc_gradients(scheme, name):
    check(string_time_problem(scheme=scheme, nl="tension-modulated"), name)


@pytest.mark.parametrize("name", ["d_hat", "gamma"])
def test_plate_time_vk_gradients(name):
    # a rectangle with more Airy modes than transverse ones
    check(plate_time_problem(lengths=(0.4, 0.3), n_modes=4, n_psi=7), name)


@pytest.mark.parametrize("name", ["d_hat", "gamma"])
def test_plate_time_vk_gradients_physical_tensors(name):
    check(plate_time_problem(), name)


# a pulse at its peak at t = 0, whose first sample sets q^{-1} under 'sv'
STRUCK_AT_START = -0.002


@pytest.mark.parametrize("model, name", [
    *(("linear", n) for n in ["d_hat", "t0_hat", "gamma", "readout_weights"]),
    *(("tension-modulated", n) for n in ["d_hat", "t0_hat", "gamma", "readout_weights",
                                         "tau_hat"]),
    *(("von-karman", n) for n in ["d_hat", "gamma"]),
])
def test_sv_time_gradients_with_force_at_first_sample(model, name):
    if model == "von-karman":
        problem = plate_time_problem(onset=STRUCK_AT_START)
    else:
        problem = string_time_problem("sv", model, onset=STRUCK_AT_START)
    check(problem, name)


@pytest.mark.parametrize("name", ["t0_hat", "gamma", "b2", "weights"])
def test_string_frequency_gradients(name):
    check(string_frequency_problem(), name)


@pytest.mark.parametrize("name", ["d_hat", "gamma", "b2", "weights"])
def test_plate_frequency_gradients(name):
    check(plate_frequency_problem(), name)
