"""Analytic gradients of every fitting problem against central differences.

Each free parameter is checked on its own, with a smooth loss (no log term,
whose kinks make central differences unreliable) and a step suited to the
scale of its raw coordinate.
"""

import pytest

from modalsim.fitting import gradient_report
from modalsim.losses import LossWeights
from problem_builders import (
    floored_relative_errors, plate_frequency_problem, plate_time_problem,
    string_frequency_problem, string_time_problem,
)

STEPS = {"t0_hat": 1e-5, "d_hat": 1e-5, "weights": 1e-5, "H": 1e-5,
         "gamma": 1e-4, "tau": 1e-6, "b2": 1e-8}
TOL = 1e-3


def check(problem, name):
    problem.loss_weights = LossWeights(alpha=0.0)
    problem.free = (name,)
    raw = problem.initial_raw()
    report = gradient_report(problem, raw, rel_step=STEPS[name])
    err = floored_relative_errors(report)[name]
    assert err <= TOL, f"{name}: relative error {err:.3g}"


@pytest.mark.parametrize("scheme", ["ftm", "sv"])
@pytest.mark.parametrize("name", ["d_hat", "t0_hat", "gamma", "weights"])
def test_string_time_linear_gradients(scheme, name):
    check(string_time_problem(scheme=scheme), name)


@pytest.mark.parametrize("scheme", ["ftm", "sv"])
@pytest.mark.parametrize("name", ["d_hat", "t0_hat", "gamma", "weights", "tau"])
def test_string_time_kc_gradients(scheme, name):
    check(string_time_problem(scheme=scheme, nl="kc"), name)


@pytest.mark.parametrize("name", ["d_hat", "H", "gamma"])
def test_plate_time_vk_gradients(name):
    check(plate_time_problem(), name)


@pytest.mark.parametrize("name", ["d_hat", "gamma"])
def test_plate_time_vk_gradients_physical_tensors(name):
    check(plate_time_problem(random_H=False), name)


@pytest.mark.parametrize("name", ["t0_hat", "gamma", "b2", "weights"])
def test_string_frequency_gradients(name):
    check(string_frequency_problem(), name)


@pytest.mark.parametrize("name", ["d_hat", "gamma", "b2", "weights"])
def test_plate_frequency_gradients(name):
    check(plate_frequency_problem(), name)
