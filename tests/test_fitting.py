import copy
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict

import numpy as np
import pytest

from modalsim import adjoint, fitting, losses
from modalsim.coupling import simply_supported_tensors
from modalsim.fitting import (
    FitConfig, FitDivergedError, FrequencyDomainProblem, StartResult, TimeDomainProblem,
    _init_raw, fit, one_cycle_lr,
)
from modalsim.integrators import (
    InstabilityError, NyquistError, OverdampedError, PointForce, SchemeError,
    StabilityBoundError, bank_from_spec, omega_squared, raised_cosine_pulse, simulate,
)
from modalsim.model import MaterialParams, ModelSpec, RectPlate, String, derive_normalized
from modalsim.modes import point_readout, project_point_excitation, rect_basis, string_basis
from problem_builders import (plate_frequency_problem, string_frequency_problem,
                              string_time_problem)


def test_fit_reports_misshaped_target_instead_of_divergence():
    problem = string_time_problem(free=("t0_hat",))
    problem.target_mag = np.zeros((3, 3))
    with pytest.raises(ValueError, match="shape mismatch"):
        fit(problem, FitConfig(steps=2, peak_lr=0.01, starts=2))


@pytest.mark.parametrize("free, message", [(("bogus",), "unknown free parameters"),
                                           (("tau_hat",), "tau_hat is free only"),
                                           (("H",), "unknown free parameters")])
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


@pytest.mark.parametrize("name, value", [
    ("weights", np.ones(1)), ("weights", np.ones(4)), ("weights", np.ones((1, 3))),
    ("b2", np.zeros(2)), ("b2", np.float64(0.0)),
], ids=["weights-one", "weights-long", "weights-2d", "b2-short", "b2-scalar"])
def test_frequency_problem_rejects_input_of_wrong_length(name, value):
    # one entry per mode: a single weight is not broadcast over the three modes
    shape = re.escape(str(np.shape(value)))
    with pytest.raises(ValueError, match=rf"{name} has shape {shape}, expected length 3"):
        FrequencyDomainProblem(**frequency_kw(**{name: value}, free=(name,)))


@pytest.mark.parametrize("problem, kw", [
    (FrequencyDomainProblem, frequency_kw()), (TimeDomainProblem, None),
], ids=["frequency", "time"])
def test_problems_check_gamma_length(problem, kw):
    kw = kw or time_kw()
    with pytest.raises(ValueError, match=re.escape("gamma has shape (5,), expected length 3")):
        problem(**dict(kw, gamma=np.ones(5)))
    assert np.array_equal(problem(**dict(kw, gamma=2.0)).gamma, np.full(3, 2.0))


@pytest.mark.parametrize("gamma", [-2.0, np.array([2.0, -1.0, 3.0]), np.nan],
                         ids=["negative", "one-mode-negative", "nan"])
@pytest.mark.parametrize("problem, kw", [
    (FrequencyDomainProblem, frequency_kw()), (TimeDomainProblem, None),
], ids=["frequency", "time"])
def test_problems_reject_gamma_that_is_not_non_negative(problem, kw, gamma):
    # a negative gamma is a growing mode, and a NaN one fails only at the first step
    kw = kw or time_kw()
    with pytest.raises(ValueError, match="gamma must be >= 0"):
        problem(**dict(kw, gamma=gamma))
    problem(**dict(kw, gamma=0.0))


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


def test_time_problem_rejects_hop_below_one():
    with pytest.raises(ValueError, match="hop must be >= 1"):
        TimeDomainProblem(**time_kw(stft_hop=0))


def test_time_problem_rejects_scheme_it_cannot_run():
    with pytest.raises(SchemeError, match="'ftm' or 'sv' scheme, not 'rk-reference'"):
        TimeDomainProblem(**time_kw(scheme="rk-reference"))


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


@pytest.mark.parametrize("coupling, message", [
    (None, "needs a coupling"),
    (simply_supported_tensors(rect_basis(0.4, 0.3, 4)), "acts on 4 modes, lam has 3"),
], ids=["missing", "mode-count"])
def test_time_problem_rejects_coupling_that_does_not_fit(coupling, message):
    with pytest.raises(ValueError, match=message):
        TimeDomainProblem(**time_kw(scheme="sv", nonlinearity="von-karman", coupling=coupling,
                                    vk_gain=1.0))


@pytest.mark.parametrize("changes, message", [
    (dict(nonlinearity="tension"), "nonlinearity must be one of"),
    (dict(nonlinearity="kc", tau_hat=5e3), "nonlinearity must be one of"),
    (dict(tau_hat=5e3), "tau_hat applies to the tension-modulated model only, not 'linear'"),
    (dict(coupling=simply_supported_tensors(rect_basis(0.4, 0.3, 3))),
     "coupling of plate tensors applies to the von-karman model only, not 'linear'"),
    (dict(nonlinearity="tension-modulated", vk_gain=1.0),
     "vk_gain applies to the von-karman model only, not 'tension-modulated'"),
], ids=["misspelt", "old-name", "tau_hat", "coupling", "vk_gain"])
def test_time_problem_rejects_unknown_model_or_fields_it_does_not_use(changes, message):
    # each ran the linear model before, ignoring the name or the field
    with pytest.raises(ValueError, match=message):
        TimeDomainProblem(**time_kw(**changes))


def model_case(scheme, nonlinearity):
    """A spec, its basis and plate coupling (None for a string), and a force
    pulse at its peak at t = 0, which sets q^{-1} under 'sv'."""
    rate, n_steps = 8000.0, 400
    if nonlinearity == "von-karman":
        spec = ModelSpec(MaterialParams(rho=7850.0, E=2e11, nu=0.3, d1=30.0, d3=0.02),
                         RectPlate(0.4, 0.3, 0.001), nonlinearity=nonlinearity)
        basis = rect_basis(0.4, 0.3, 6)
        points, coupling = ((0.13, 0.1), (0.3, 0.21)), simply_supported_tensors(basis)
    else:
        spec = ModelSpec(MaterialParams(rho=0.01, E=2e11, d1=0.02, d3=1e-6),
                         String(L=1.0, A=1e-6), T0=100.0, nonlinearity=nonlinearity)
        basis = string_basis(1.0, 6)
        points, coupling = (0.23, 0.71), None
    # ftm takes force samples as per-step impulses, sv as a force
    amplitude = 50.0 if scheme == "sv" else 50.0 / rate
    pulse = raised_cosine_pulse(amplitude, -0.001, 0.002, rate, n_steps)
    return spec, basis, coupling, PointForce(points[0], pulse), points[1], rate, n_steps


@pytest.mark.parametrize("scheme, nonlinearity", [
    ("ftm", "linear"), ("ftm", "tension-modulated"), ("sv", "linear"),
    ("sv", "tension-modulated"), ("sv", "von-karman"),
])
def test_time_problem_predicts_simulate_readout(scheme, nonlinearity):
    spec, basis, coupling, force, pickup, rate, n_steps = model_case(scheme, nonlinearity)
    traj = simulate(spec, basis, scheme, force, n_steps / rate, rate, readout_point=pickup,
                    tensors=coupling)
    par = derive_normalized(spec)
    problem = TimeDomainProblem(
        lam=basis.eigenvalues, rate=rate, n_steps=n_steps, scheme=scheme,
        force_signal=force.signal, force_gains=project_point_excitation(basis, force.point),
        target_mag=np.zeros((1, 1)), stft_window_length=256, stft_hop=64,
        d_hat=par.d_hat, t0_hat=par.t0_hat, gamma=bank_from_spec(spec, basis).gamma,
        tau_hat=par.tau_hat, coupling=coupling, vk_gain=par.vk_gain,
        readout_weights=point_readout(basis, pickup).weights, nonlinearity=nonlinearity)
    assert np.max(np.abs(traj.readout)) > 0.0
    assert np.array_equal(problem.predict({}), traj.readout)


@pytest.mark.parametrize("build, free, starts", [
    (string_frequency_problem, ("d_hat", "t0_hat", "gamma", "b2", "weights"), 2),
    (string_time_problem, ("d_hat", "t0_hat", "gamma", "readout_weights"), 2),
    (string_time_problem, ("t0_hat", "gamma"), 3),
], ids=["frequency", "time", "time-starts-equal-modes"])
def test_stacked_predict_equals_each_start_alone(build, free, starts):
    # 3 starts on the 3-mode time problem: a start axis as long as the mode axis
    problem = build(free=free)
    rng = np.random.default_rng(3)
    raw = {n: x + 0.02 * rng.normal(size=(starts,) + x.shape)
           for n, x in problem.initial_raw().items()}
    got = problem.predict(raw)
    want = np.stack([problem.predict({n: x[k] for n, x in raw.items()})
                     for k in range(starts)])
    assert got.shape == want.shape and want.ndim == 2
    assert np.array_equal(got, want)


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
    except (InstabilityError, OverdampedError, StabilityBoundError, NyquistError,
            FloatingPointError) as exc:
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


def test_stacked_frequency_value_and_grad_equals_single_starts_bit_for_bit():
    # the transfer-function kernels share one block per call across the starts;
    # calls of 8, 3 and 1 starts in a row would show a start reading another's.
    # d_hat and t0_hat chain through dw2 @ lam^k, a [start, mode] @ [mode]
    # product whose BLAS rounding differs from the single start's dot product
    problem = string_frequency_problem(free=("d_hat", "t0_hat", "gamma", "b2", "weights"))
    rng = np.random.default_rng(7)
    raw = {n: x + 0.02 * rng.normal(size=(8,) + x.shape)
           for n, x in problem.initial_raw().items()}
    for starts in (8, 3, 1):
        loss, grads = problem.value_and_grad({n: x[:starts] for n, x in raw.items()})
        assert loss.shape == (starts,)
        for k in range(starts):
            loss_k, grads_k = problem.value_and_grad({n: x[k] for n, x in raw.items()})
            assert loss[k] == loss_k
            for n in ("gamma", "b2", "weights"):
                assert np.array_equal(grads[n][k], grads_k[n]), (starts, k, n)
            for n in ("d_hat", "t0_hat"):
                np.testing.assert_allclose(grads[n][k], grads_k[n], rtol=1e-14, atol=0)


@pytest.mark.parametrize("scheme", ["ftm", "sv"])
def test_stacked_time_value_and_grad_equals_single_starts_bit_for_bit(scheme):
    # a linear model's starts step as one bank through one readout pair, each
    # start read out with its own weights; calls of 8, 3 and 1 starts in a row
    # would show a start reading another's. d_hat and t0_hat chain through
    # dw2 @ lam^k, a [start, mode] @ [mode] product whose BLAS rounding
    # differs from the single start's dot product
    problem = string_time_problem(scheme, free=("d_hat", "t0_hat", "gamma", "readout_weights"))
    rng = np.random.default_rng(7)
    raw = {n: x + 0.02 * rng.normal(size=(8,) + x.shape)
           for n, x in problem.initial_raw().items()}
    for starts in (8, 3, 1):
        loss, grads = problem.value_and_grad({n: x[:starts] for n, x in raw.items()})
        assert loss.shape == (starts,)
        for k in range(starts):
            loss_k, grads_k = problem.value_and_grad({n: x[k] for n, x in raw.items()})
            assert loss[k] == loss_k
            for n in ("gamma", "readout_weights"):
                assert np.array_equal(grads[n][k], grads_k[n]), (starts, k, n)
            for n in ("d_hat", "t0_hat"):
                np.testing.assert_allclose(grads[n][k], grads_k[n], rtol=1e-14, atol=0)


def test_linear_time_value_and_grad_reads_every_start_out_in_one_call(monkeypatch):
    # one readout pair and one lookup of the loss target per call, whatever
    # the start count; the STFT, its adjoint and the loss run once per start
    problem = string_time_problem(free=("t0_hat", "gamma"))
    raw = {n: np.stack([x, x + 0.01, x - 0.01]) for n, x in problem.initial_raw().items()}
    calls = {}
    for module, name in ((adjoint, "readout_cached"), (adjoint, "readout_backward"),
                         (adjoint, "stft_cached"), (adjoint, "stft_backward"),
                         (fitting, "loss_total_grad"), (problem, "_loss_target")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    problem.value_and_grad(raw)
    assert calls == {"readout_cached": 1, "readout_backward": 1, "stft_cached": 3,
                     "stft_backward": 3, "loss_total_grad": 3, "_loss_target": 1}


@pytest.mark.parametrize("build, name", [(string_time_problem, "target_mag"),
                                         (string_frequency_problem, "target_env")])
def test_a_changed_target_or_loss_weights_changes_the_next_loss(build, name, monkeypatch):
    # the loss's target side is built once and kept; a target reassigned or
    # edited in place, or new loss weights, must reach the next call
    builds = []

    def counted(*args):
        builds.append(args)
        return losses.loss_target(*args)

    monkeypatch.setattr(fitting, "loss_target", counted)
    problem = build(free=("t0_hat",))
    raw = problem.initial_raw()

    def loss_and_fresh():
        fresh = build(free=("t0_hat",))
        setattr(fresh, name, np.copy(getattr(problem, name)))
        fresh.loss_weights = problem.loss_weights
        return problem.value_and_grad(raw)[0], fresh.value_and_grad(raw)[0]

    first = problem.value_and_grad(raw)[0]
    assert problem.value_and_grad(raw)[0] == first and len(builds) == 1
    setattr(problem, name, 2.0 * getattr(problem, name) + 0.1)
    second, want = loss_and_fresh()
    assert second == want != first
    getattr(problem, name)[0] *= 3.0  # in place
    third, want = loss_and_fresh()
    assert third == want != second
    problem.loss_weights = losses.LossWeights(alpha=0.5, eta=2.0)
    fourth, want = loss_and_fresh()
    assert fourth == want != third
    # each change built the target once, and each fresh problem once
    assert len(builds) == 1 + 3 * 2


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
    # a tension coefficient far above the model's 5e3 overflows the state
    problem = string_time_problem(nl="tension-modulated", free=("tau_hat",))
    cfg = FitConfig(steps=4, peak_lr=0.05, starts=3, seed=1,
                    init={"tau_hat": {"low": 1e3, "high": 1e7}})
    results = assert_matches_serial(problem, cfg)
    assert [r.diverged for r in results] == [True, False, False]
    assert results[0].error.startswith("non-finite state")


def test_time_domain_start_past_stability_bound_stops_alone():
    # Stoermer-Verlet is unstable past omega T = 2, i.e. t0_hat above 2.9e6 here:
    # that start stops before its first step, the others go on
    problem = string_time_problem(scheme="sv", free=("t0_hat",))
    cfg = FitConfig(steps=4, peak_lr=0.05, starts=3, seed=0,
                    init={"t0_hat": {"low": 1e5, "high": 1e7}})
    results = assert_matches_serial(problem, cfg)
    assert [r.diverged for r in results] == [False, True, False]
    assert np.isnan(results[1].trace).all()
    assert re.match(r"1 mode\(s\) violate the stability bound omega\*T < 2, the first at "
                    r"mode index 2 \(largest omega\*T 2.89\)", results[1].error)
    with pytest.raises(StabilityBoundError):
        problem.value_and_grad({"t0_hat": np.log(1e7)})


def test_time_domain_start_past_nyquist_stops_alone():
    # under ftm, mode 3 reaches Nyquist (damped omega T >= pi) for t0_hat above
    # about 7.1e6 here: that start stops before its first step, the others go on
    problem = string_time_problem(free=("t0_hat",))
    cfg = FitConfig(steps=4, peak_lr=0.05, starts=3, seed=0,
                    init={"t0_hat": {"low": 1e6, "high": 1e7}})
    results = assert_matches_serial(problem, cfg)
    assert [r.diverged for r in results] == [False, True, False]
    assert np.isnan(results[1].trace).all()
    assert re.match(r"1 mode\(s\) reach Nyquist \(damped omega\*T >= pi\), the first at "
                    r"mode index 2 ", results[1].error)
    with pytest.raises(NyquistError):
        problem.value_and_grad({"t0_hat": np.log(1e7)})


def test_frequency_domain_start_past_nyquist_stops_alone():
    # mode 5 of this string reaches Nyquist at 44.1 kHz for t0_hat above about
    # 7.8e7; a grid below Nyquist does not make the model band-limited
    problem = string_frequency_problem(free=("t0_hat",))
    cfg = FitConfig(steps=4, peak_lr=0.05, starts=3, seed=2,
                    init={"t0_hat": {"low": 1e7, "high": 1e8}})
    results = assert_matches_serial(problem, cfg)
    assert [r.diverged for r in results] == [False, True, False]
    assert re.match(r"1 mode\(s\) reach Nyquist .* mode index 4 ", results[1].error)
    with pytest.raises(NyquistError, match="cut the basis at Nyquist"):
        problem.value_and_grad({"t0_hat": np.log(1e8)})


def test_fit_raises_fit_diverged_error_when_every_start_diverges():
    # every start draws t0_hat past the threshold above, so none takes a step
    problem = string_frequency_problem(free=("t0_hat",))
    cfg = FitConfig(steps=4, peak_lr=0.05, starts=3, seed=2,
                    init={"t0_hat": {"low": 8e7, "high": 1.1e8}})
    with pytest.raises(FitDivergedError, match="^every start diverged: start 0: ") as err:
        fit(problem, cfg)
    assert [d["start"] for d in err.value.diagnostics] == [0, 1, 2]
    for d in err.value.diagnostics:
        assert re.match(r"\d+ mode\(s\) reach Nyquist .* mode index 4 ", d["error"])


def test_a_start_whose_gamma_leaves_the_finite_range_stops_alone(monkeypatch):
    # a NaN gamma gradient for start 1 at the first step makes its Adam update
    # NaN while its loss stays finite; the other starts run every step
    problem = string_frequency_problem(free=("t0_hat", "gamma"))
    value_and_grad, starts_per_call = problem.value_and_grad, []

    def poisoned(raw):
        loss, grads = value_and_grad(raw)
        if not starts_per_call:
            grads["gamma"][1] = np.nan
        starts_per_call.append(len(loss))
        return loss, grads

    monkeypatch.setattr(problem, "value_and_grad", poisoned)
    cfg = FitConfig(steps=5, peak_lr=0.05, starts=3, seed=0,
                    init={"t0_hat": {"low": 1.4e5, "high": 1.7e5}})
    by_start = {r.start: r for r in fit(problem, cfg).ranking}
    assert starts_per_call == [3, 2, 2, 2, 2]
    assert by_start[1].error == "gamma coordinates left the finite range"
    assert not by_start[1].diverged
    assert np.isfinite(by_start[1].trace[0]) and np.isnan(by_start[1].trace[1:]).all()
    for k in (0, 2):
        assert by_start[k].error is None and np.isfinite(by_start[k].trace).all()


@pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
def test_fit_rejects_a_target_that_is_not_finite_and_non_negative(bad):
    # one bad entry fails the loss target before any start runs, naming it,
    # rather than ending every start in a non-finite loss
    problem = string_frequency_problem(free=("t0_hat",), n_modes=10)
    problem.target_env = problem.target_env.copy()
    problem.target_env[7] = bad
    with pytest.raises(ValueError, match=re.escape(f"entry (0, 7) of shape (1, 96) is {bad}")):
        fit(problem, FitConfig(steps=2, peak_lr=0.05, starts=2))
    problem = string_time_problem(free=("t0_hat",))
    problem.target_mag = problem.target_mag.copy()
    problem.target_mag[2, 5] = bad
    shape = problem.target_mag.shape
    with pytest.raises(ValueError, match=re.escape(f"entry (2, 5) of shape {shape} is {bad}")):
        fit(problem, FitConfig(steps=2, peak_lr=0.05, starts=2))


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
    cfg = FitConfig(steps=2, peak_lr=0.01, init={"gamma": {"value": 3.0}, "b2": {"value": 0.0},
                                                  "t0_hat": {"value": 1e5}})
    with pytest.raises(ValueError, match=r"not free: \['b2', 'gamma'\]"):
        fit(problem, cfg)


@pytest.mark.parametrize("peak_lr", [0.0, -0.05, np.nan])
def test_fit_config_rejects_peak_lr_that_is_not_positive(peak_lr):
    with pytest.raises(ValueError, match="peak_lr must be positive"):
        FitConfig(steps=2, peak_lr=peak_lr)


@pytest.mark.parametrize("name, low, high, message", [
    ("t0_hat", 2e4, 1e4, "init range for t0_hat needs low < high"),
    ("gamma", 3.0, 3.0, "init range for gamma needs low < high"),
    ("t0_hat", 0.0, 1e4, r"init range for t0_hat \(log\) needs low > 0"),
    ("gamma", -1.0, 3.0, r"init range for gamma \(softplus\) needs low > 0"),
], ids=["reversed", "empty", "log-zero", "softplus-negative"])
def test_init_range_must_be_ordered_and_positive_where_transformed(name, low, high, message):
    problem = string_frequency_problem(free=("t0_hat", "gamma"))
    cfg = FitConfig(steps=1, peak_lr=0.01, init={name: {"low": low, "high": high}})
    with pytest.raises(ValueError, match=message):
        _init_raw(problem, cfg, np.random.default_rng(0))


@pytest.mark.parametrize("name, value, kind", [
    ("t0_hat", 0.0, "log"), ("t0_hat", -1.0, "log"), ("gamma", 0.0, "softplus"),
    ("gamma", np.array([3.0, 4.0, -1.0, 5.0, 6.0]), "softplus"),
], ids=["log-zero", "log-negative", "softplus-zero", "softplus-one-mode-negative"])
def test_init_value_must_be_positive_where_transformed(name, value, kind):
    # its raw coordinate would be -inf or NaN: every start would die or end the fit
    problem = string_frequency_problem(free=("t0_hat", "gamma"))
    cfg = FitConfig(steps=1, peak_lr=0.01, init={name: {"value": value}})
    message = rf"init value for {name} \({kind}\) must be > 0"
    with pytest.raises(ValueError, match=message):
        _init_raw(problem, cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match=message):
        fit(problem, cfg)


@pytest.mark.parametrize("rule", [{"low": 1e4}, {"value": 2e4, "low": 1.0, "high": 2.0},
                                  {"value": 2e4, "std": 5.0}, {}],
                         ids=["no-high", "value-and-range", "unknown-key", "empty"])
def test_init_rule_with_missing_or_extra_keys_is_rejected(rule):
    problem = string_frequency_problem(free=("t0_hat",))
    cfg = FitConfig(steps=1, peak_lr=0.01, init={"t0_hat": rule})
    with pytest.raises(ValueError, match="init rule for t0_hat needs 'value' or 'low'/'high'"):
        _init_raw(problem, cfg, np.random.default_rng(0))


@pytest.mark.parametrize("name, value, kind", [
    ("t0_hat", 0.0, "log"), ("d_hat", -1.0, "log"),
    ("gamma", np.array([3.0, 0.0, 4.0, 5.0, 6.0]), "softplus"),
    ("gamma", -2.0, "softplus"),
], ids=["log-zero", "log-negative", "softplus-zero", "softplus-negative"])
def test_free_positive_parameter_must_start_above_zero(name, value, kind):
    # its raw coordinate would be -inf or NaN, and its gradient 0 or NaN
    problem = string_frequency_problem(free=(name,))
    setattr(problem, name, np.broadcast_to(value, np.shape(getattr(problem, name))).copy())
    message = rf"free parameter {name} \({kind}\) must start above 0"
    with pytest.raises(ValueError, match=message):
        problem.initial_raw()
    with pytest.raises(ValueError, match=message):
        fit(problem, FitConfig(steps=1, peak_lr=0.01))
    problem.free = ()
    problem.initial_raw()  # fixed at that value, it is accepted


def test_init_range_rescues_a_free_positive_parameter_at_zero():
    problem = plate_frequency_problem(free=("t0_hat", "d_hat"))
    assert problem.t0_hat == 0.0
    cfg = FitConfig(steps=2, peak_lr=0.01, starts=2, init={"t0_hat": {"low": 1.0, "high": 10.0}})
    raw = _init_raw(problem, cfg, np.random.default_rng(0))
    assert 0.0 < raw["t0_hat"] < np.log(10.0)
    assert all(not r.diverged for r in fit(problem, cfg).ranking)


def test_init_range_of_a_linear_parameter_may_be_negative():
    problem = string_frequency_problem(free=("b2",))
    cfg = FitConfig(steps=1, peak_lr=0.01, init={"b2": {"low": -1.0, "high": 1.0}})
    raw = _init_raw(problem, cfg, np.random.default_rng(0))
    assert np.all((raw["b2"] >= -1.0) & (raw["b2"] < 1.0))


# --- allocation budget ------------------------------------------------------------------

def test_linear_time_value_and_grad_allocates_little_besides_the_trajectory():
    # a linear call stores no trajectory: its readout and forward-mode
    # gradients are contracted block by block. Measured peak 2.40 MB, most of
    # it the STFT's cache and the loss; the [step, mode] trajectory alone
    # would take 1.28 MB
    import tracemalloc

    problem = string_time_problem(n_steps=8000, rate=16000.0, n_modes=20, stft=(1024, 256),
                                  free=("t0_hat", "d_hat"))
    raw = problem.initial_raw()
    problem.value_and_grad(raw)  # a first call's one-time allocations stay outside
    tracemalloc.start()
    try:
        problem.value_and_grad(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


# --- calls on one problem, and on its copy -------------------------------------------

@pytest.mark.parametrize("scheme, nl", [("ftm", "linear"), ("sv", "linear"),
                                        ("ftm", "tension-modulated"),
                                        ("sv", "tension-modulated")])
def test_calls_on_one_problem_match_a_fresh_problems_bit_for_bit(scheme, nl):
    free = ("d_hat", "t0_hat", "gamma", "readout_weights")
    if nl == "tension-modulated":
        free += ("tau_hat",)
    problem = string_time_problem(scheme, nl, free=free)
    a = problem.initial_raw()
    b = {n: x + 0.02 for n, x in a.items()}
    both = {n: np.stack([b[n], a[n]]) for n in a}
    # a, then b, then a again on one problem; a prediction and two stacked
    # starts in between
    calls = [("grad", a), ("grad", b), ("predict", b), ("grad", both), ("predict", a),
             ("grad", a)]
    for kind, raw in calls:
        fresh = string_time_problem(scheme, nl, free=free)
        if kind == "predict":
            got, want = [problem.predict(raw)], [fresh.predict(raw)]
        else:
            (loss, grads), (want_loss, want_grads) = (problem.value_and_grad(raw),
                                                      fresh.value_and_grad(raw))
            got = [loss] + [grads[n] for n in free]
            want = [want_loss] + [want_grads[n] for n in free]
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


def test_a_problem_and_its_copy_may_run_at_once():
    # a problem keeps nothing between calls but its loss target, one immutable
    # tuple of read-only arrays that a copy shares: two threads may share it
    free = ("d_hat", "t0_hat", "gamma", "readout_weights")
    problem = string_time_problem(n_steps=4000, n_modes=8, free=free)
    a = problem.initial_raw()
    raws = [a, {n: x + 0.02 for n, x in a.items()}]
    want = [string_time_problem(n_steps=4000, n_modes=8, free=free).value_and_grad(raw)
            for raw in raws]

    def calls(which):
        target = problem if which == 0 else copy.copy(problem)
        return [target.value_and_grad(raws[which]) for _ in range(8)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(calls, [0, 1]))
    for got, (loss, grads) in zip(results, want):
        for got_loss, got_grads in got:
            assert got_loss == loss
            assert all(np.array_equal(got_grads[n], grads[n]) for n in free)


def test_linear_blow_up_is_reported_at_its_step_and_mode():
    # a fixed gamma of -1e4 makes mode 1 grow by e^1.25 per step until it
    # overflows; the readout's error path reports where stepping first goes
    # non-finite, as predict (simulate's model) does
    problem = string_time_problem(n_steps=2000, free=("d_hat",))
    problem.t0_hat, problem.gamma = 3.0e6, np.array([2.0, -1.0e4, 4.0])
    raw = problem.initial_raw()
    A, B, R = adjoint.ftm_update_partials(
        omega_squared(problem.lam, problem.d_hat, problem.t0_hat), problem.gamma,
        1.0 / problem.rate)[0]
    q = q_prev = np.zeros(3)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, f in enumerate(problem.force_signal):
            q, q_prev = A * q + B * q_prev + R * problem.force_gains * f, q
            if not np.isfinite(q).all():
                break
    stepped = (n + 1, int(np.argmin(np.isfinite(q))))
    for call in (problem.value_and_grad, problem.predict):
        with pytest.raises(InstabilityError) as err:
            call(raw)
        assert (err.value.step, err.value.mode) == stepped == (616, 1)
