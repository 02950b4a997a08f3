import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from modalsim import adjoint
from modalsim.adjoint import Coefficients, forward_cached, readout_backward, readout_cached
from modalsim.coupling import TensionModulation, simply_supported_tensors
from modalsim.integrators import (
    InitialCondition, InstabilityError, OverdampedError, PointForce, SchemeError,
    StabilityBoundError, bank_from_spec, ftm_coeffs, oscillator_bank, raised_cosine_pulse,
    rk_reference, run_model, simulate, start_state, sv_coeffs, triangular_pluck,
)
from modalsim.model import MaterialParams, ModelSpec, RectPlate, String
from modalsim.modes import rect_basis, string_basis


def run(A, B, R, q0, q_prev, n_steps, **kw):
    """Trajectory rows q^1 .. q^N of the forward recurrence."""
    return forward_cached(A, B, R, q0, q_prev, n_steps, **kw)[0][2:]


def scan_sequential(bank, T, n_steps, q0, v0, force_signal, force_gains):
    """Reference oracle: each mode as the complex one-pole recurrence
    x^{n+1} = a x^n + beta u^n, a = e^{sT}, s = -gamma + i omega_tilde,
    beta = -i a / omega_tilde, which the impulse-invariant scheme reproduces
    exactly (q = Re x)."""
    g = bank.gamma
    wt = np.sqrt(bank.omega2 - g**2)
    a = np.exp((-g + 1j * wt) * T)
    beta = -1j * a / wt
    x = q0 - 1j * (v0 + g * q0) / wt
    out = np.empty((n_steps, bank.count))
    for n in range(n_steps):
        x = a * x + beta * (force_gains * force_signal[n])
        out[n] = x.real
    return out


def loop_forward(A, B, R, q0, q_prev, n_steps, force_signal=None, force_gains=None):
    """Reference oracle: the hook-free recurrence stepped sample by sample,
    rows q^{-1} .. q^N as forward_cached stores them, in the precision of A
    and q0 (np.longdouble ones give an extended-precision oracle)."""
    Q = np.empty((n_steps + 2, len(q0)), dtype=np.result_type(A, q0))
    Q[0], Q[1] = q_prev, q0
    for n in range(n_steps):
        u = np.zeros(len(q0), Q.dtype) if force_signal is None else force_gains * force_signal[n]
        Q[n + 2] = A * Q[n + 1] + B * Q[n] + R * u
    return Q


def loop_sweep(A, B, qbar_direct):
    """Reference oracle: the hook-free reverse sweep stepped sample by sample,
    rows dL/dq^1 .. dL/dq^N."""
    n_steps, m = qbar_direct.shape
    qbar = np.zeros((n_steps + 2, m))
    for t in range(n_steps - 1, -1, -1):
        qbar[t] = qbar_direct[t] + A * qbar[t + 1] + B * qbar[t + 2]
    return qbar[:n_steps]


def string_spec(T0=1.0, d1=0.0, d3=0.0, nonlinearity="linear", E=0.0, A=1e-6, rho=1.0):
    return ModelSpec(
        MaterialParams(rho=rho, E=E, d1=d1, d3=d3), String(L=1.0, A=A),
        T0=T0, nonlinearity=nonlinearity,
    )


# --- oscillator bank ----------------------------------------------------------

def test_bank_pure_tension_string():
    b = string_basis(1.0, 1)
    bank = oscillator_bank(b.eigenvalues, d_hat=0.0, t0_hat=1.0)
    assert np.sqrt(bank.omega2[0]) == pytest.approx(np.pi)


def test_bank_zero_damping():
    b = string_basis(1.0, 5)
    bank = oscillator_bank(b.eigenvalues, 0.0, 1.0)
    assert np.all(bank.gamma == 0.0)


def test_bank_plate_stiffness_value():
    b = rect_basis(1.0, 1.0, 1)
    bank = oscillator_bank(b.eigenvalues, d_hat=5.8328, t0_hat=0.0)
    # omega = sqrt(d_hat) * lambda_11 = sqrt(5.8328) * 2 pi^2
    assert np.sqrt(bank.omega2[0]) == pytest.approx(47.6724, abs=1e-3)
    assert np.sqrt(bank.omega2[0]) == pytest.approx(np.sqrt(5.8328) * 2 * np.pi**2)


def test_bank_gamma_from_damping_coefficients():
    spec = string_spec(T0=100.0, d1=0.8, d3=1e-4, rho=2.0)
    b = string_basis(1.0, 3)
    bank = bank_from_spec(spec, b)
    expect = (0.8 + 1e-4 * b.eigenvalues) / (2.0 * 2.0)
    assert bank.gamma == pytest.approx(expect)


# --- scheme coefficients ---------------------------------------------------------

def test_ftm_lossless_pole_magnitudes():
    # the poles' squared magnitude is -B
    bank = oscillator_bank(np.array([np.pi**2]), 0.0, 400.0)
    co = ftm_coeffs(bank, 1 / 8000)
    assert co.B[0] == -1.0


def test_ftm_quarter_period_sampling():
    # omega*T = pi/2 with no damping makes A vanish
    w = 2 * np.pi * 100.0
    T = (np.pi / 2) / w
    bank = oscillator_bank(np.array([1.0]), 0.0, w**2)
    co = ftm_coeffs(bank, T)
    assert abs(co.A[0]) < 1e-15


def test_ftm_matches_extended_precision():
    w, g, T = 2 * np.pi * 100.0, 5.0, 1.0 / 44100.0
    bank = oscillator_bank(np.array([1.0]), 0.0, w**2, gamma=g)
    co = ftm_coeffs(bank, T)
    with mp.workdps(50):
        wt = mp.sqrt(mp.mpf(w) ** 2 - mp.mpf(g) ** 2)
        e1 = mp.e ** (-mp.mpf(g) * T)
        A = 2 * e1 * mp.cos(wt * T)
        B = -(e1**2)
        R = e1 * mp.sin(wt * T) / wt
        assert abs(co.A[0] - float(A)) <= 1e-14 * abs(float(A))
        assert abs(co.B[0] - float(B)) <= 1e-14 * abs(float(B))
        assert abs(co.R[0] - float(R)) <= 1e-14 * abs(float(R))


def test_ftm_rejects_overdamped_mode_by_name():
    bank = oscillator_bank(np.array([1.0, 1.0]), 0.0, np.array([100.0, 1.0]), gamma=5.0)
    with pytest.raises(OverdampedError, match=r"\[1\]"):
        ftm_coeffs(bank, 1e-3)


def test_sv_undamped_limit():
    w2 = (2 * np.pi * 50.0) ** 2
    bank = oscillator_bank(np.array([1.0]), 0.0, w2)
    T = 1 / 8000
    co = sv_coeffs(bank, T)
    assert co.R[0] == pytest.approx(T**2)
    assert co.A[0] == pytest.approx(2 - w2 * T**2)
    assert co.B[0] == pytest.approx(-1.0)


def test_sv_free_particle():
    bank = oscillator_bank(np.array([0.0]), 0.0, 0.0)
    co = sv_coeffs(bank, 0.01)
    assert co.A[0] == pytest.approx(2.0)
    assert co.B[0] == pytest.approx(-1.0)


def test_sv_matches_extended_precision():
    w, g, T = 2 * np.pi * 312.0, 3.7, 1.0 / 48000.0
    bank = oscillator_bank(np.array([1.0]), 0.0, w**2, gamma=g)
    co = sv_coeffs(bank, T)
    with mp.workdps(50):
        r = 2 * mp.mpf(T) ** 2 / (2 + 2 * mp.mpf(g) * T)
        gg = r * (2 / mp.mpf(T) ** 2 - mp.mpf(w) ** 2)
        p = r * (-1 / mp.mpf(T) ** 2 + 2 * mp.mpf(g) / (2 * T))
        assert abs(co.R[0] - float(r)) <= 1e-14 * abs(float(r))
        assert abs(co.A[0] - float(gg)) <= 1e-14 * abs(float(gg))
        assert abs(co.B[0] - float(p)) <= 1e-14 * abs(float(p))


def test_sv_stability_bound_error():
    # omega*T = 0.5, 5, 1, 3: modes 1 and 3 break the bound
    bank = oscillator_bank(np.ones(4), 0.0, np.array([50.0, 500.0, 100.0, 300.0]) ** 2)
    with pytest.raises(StabilityBoundError, match="stability") as ei:
        sv_coeffs(bank, 0.01)
    message = str(ei.value)
    assert message.startswith("2 mode(s)")
    assert "mode index 1 " in message and "largest omega*T 5)" in message


def test_simulate_sv_past_stability_bound_raises_before_stepping(monkeypatch):
    # mode m of this string has omega T = 0.45 m, so modes 5..8 break the bound
    spec = string_spec(T0=(0.45 * 8000.0 / np.pi) ** 2)
    basis = string_basis(1.0, 8)

    def no_stepping(*args, **kw):
        raise AssertionError("stepped past the stability bound")

    monkeypatch.setattr(adjoint, "forward_cached", no_stepping)
    with pytest.raises(StabilityBoundError, match=r"^4 mode\(s\).*mode index 4 .*omega\*T 3.6\)"):
        simulate(spec, basis, "sv", triangular_pluck(basis, 0.3, 0.01), 0.01, 8000.0)


# --- stepping ---------------------------------------------------------------------

def test_step_zero_state_zero_force():
    bank = oscillator_bank(np.array([1.0, 4.0]), 0.0, 100.0, gamma=0.5)
    A, B, R = ftm_coeffs(bank, 1e-3)
    Q = run(A, B, R, np.zeros(2), np.zeros(2), 1)
    assert Q.shape == (1, 2) and np.all(Q == 0.0)


def test_ftm_impulse_response_closed_form():
    w = 2 * np.pi * 440.0
    bank = oscillator_bank(np.array([1.0]), 0.0, w**2)
    T = 1 / 44100
    A, B, R = ftm_coeffs(bank, T)
    imp = np.zeros(1000)
    imp[0] = 1.0
    Q = run(A, B, R, np.zeros(1), np.zeros(1), 1000,
            force_signal=imp, force_gains=np.ones(1))
    n = np.arange(1, 1001)
    expect = R[0] * np.sin(w * n * T) / np.sin(w * T)
    assert np.max(np.abs(Q[:, 0] - expect)) < 1e-9


def test_sv_second_order_against_analytic_cosine():
    w = 2 * np.pi * 60.0
    errs = []
    for rate in (4000.0, 8000.0):
        bank = oscillator_bank(np.array([1.0]), 0.0, w**2)
        n = int(0.25 * rate)
        A, B, R = sv_coeffs(bank, 1 / rate)
        q0 = np.array([1.0])
        q_prev = np.array([np.cos(-w / rate)])
        Q = run(A, B, R, q0, q_prev, n)
        t = np.arange(1, n + 1) / rate
        errs.append(np.max(np.abs(Q[:, 0] - np.cos(w * t))))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_instability_error_reports_step_and_mode():
    # mode 1 has the Stoermer-Verlet vectors of omega T = 3162, far past the
    # stability bound: it overflows within a few dozen steps, plucked (in the
    # free response) and, from rest, forced over the whole run (inside the
    # force's support). The linear readout must report it too, although it
    # reads mode 0 alone
    A, B, R = np.array([1.99, 2.0 - 1e7]), np.array([-1.0, -1.0]), np.full(2, 0.01)
    q_prev, w = np.zeros(2), np.array([1.0, 0.0])
    for q0, kw in [(np.array([0.0, 1e-3]), {}),
                   (np.zeros(2), dict(force_signal=np.ones(2000), force_gains=np.ones(2)))]:
        with np.errstate(over="ignore", invalid="ignore"):
            Q = loop_forward(A, B, R, q0, q_prev, 2000, **kw)
        # Q[t] = q^{t-1}: the oracle's first non-finite state, after t-1 steps
        first = int(np.argmax(~np.all(np.isfinite(Q), axis=1))) - 1
        assert 1 <= first < 2000
        for call in (lambda: run(A, B, R, q0, q_prev, 2000, **kw),
                     lambda: readout_cached(A, B, R, q0, q_prev, 2000, kw.get("force_signal"),
                                            kw.get("force_gains"), w)):
            with pytest.raises(InstabilityError) as ei:
                call()
            assert ei.value.mode == 1
            assert ei.value.step == first


def test_finite_states_whose_mode_sums_overflow_pass_the_check():
    # the per-mode sum screen overflows to inf; the full check then finds
    # every state finite, and no overflow warning escapes
    adjoint.check_finite(np.array([[1e308, 1.0], [1e308, 2.0]]))
    with pytest.raises(InstabilityError) as ei:
        adjoint.check_finite(np.array([[1e308, 1.0], [1e308, np.inf]]))
    assert (ei.value.step, ei.value.mode) == (2, 1)


def test_blow_up_is_instability_error_when_warnings_are_errors(monkeypatch):
    # ftm takes the strike's force samples as per-step impulses, so this plate
    # overflows within a few dozen steps
    Lx, Ly = 0.4, 0.3
    spec = ModelSpec(MaterialParams(rho=7850.0, E=2.0e11, nu=0.3, d1=30.0, d3=0.02),
                     RectPlate(Lx, Ly, 0.001), nonlinearity="von-karman")
    basis = rect_basis(Lx, Ly, 12)
    tensors = simply_supported_tensors(basis)
    rate, n = 44100.0, 400
    strike = PointForce((0.3 * Lx, 0.3 * Ly), raised_cosine_pulse(50.0, 2e-4, 1e-3, rate, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError) as ei:
            simulate(spec, basis, "ftm", strike, n / rate, rate,
                     readout_point=(0.7 * Lx, 0.7 * Ly), tensors=tensors)
    # the hook loop checks every CHECK_EVERY steps but names the first
    # non-finite step, as a check at every step does
    monkeypatch.setattr(adjoint, "CHECK_EVERY", 1)
    with pytest.raises(InstabilityError) as every_step:
        simulate(spec, basis, "ftm", strike, n / rate, rate, tensors=tensors)
    assert (ei.value.step, ei.value.mode) == (every_step.value.step, every_step.value.mode)


# --- simulate ---------------------------------------------------------------------

def test_simulate_string_spectral_peaks():
    spec = string_spec(T0=(2 * np.pi * 200.0) ** 2 / np.pi**2, d1=2.0)
    basis = string_basis(1.0, 12)
    traj = simulate(spec, basis, "ftm", triangular_pluck(basis, 0.29, 0.005),
                    duration=0.6, rate=8000.0, readout_point=0.63)
    spectrum = np.abs(np.fft.rfft(traj.readout[:4096]))
    freqs = np.fft.rfftfreq(4096, 1 / 8000.0)
    bank = bank_from_spec(spec, basis)
    df = freqs[1]
    for f_expect in np.sqrt(bank.omega2 - bank.gamma**2)[:5] / (2 * np.pi):
        k = int(round(f_expect / df))
        window = spectrum[k - 3 : k + 4]
        k_peak = k - 3 + int(np.argmax(window))
        assert abs(freqs[k_peak] - f_expect) <= df


def test_simulate_vk_step_count():
    spec = ModelSpec(
        MaterialParams(rho=1000.0, E=7e6, nu=0.3, d1=20.0), RectPlate(0.3, 0.3, 0.002),
        D=None, nonlinearity="von-karman",
    )
    basis = rect_basis(0.3, 0.3, 3)
    ct = simply_supported_tensors(basis)
    sig = raised_cosine_pulse(1e3, 0.001, 0.002, 44100.0, 17640)
    traj = simulate(spec, basis, "sv", PointForce((0.11, 0.07), sig),
                    duration=0.4, rate=44100.0, readout_point=(0.2, 0.23), tensors=ct)
    assert traj.n_steps == 17640
    assert traj.q.shape == (17640, 3)


def test_simulate_zero_excitation_zero_trajectory():
    spec = string_spec(T0=500.0)
    basis = string_basis(1.0, 4)
    traj = simulate(spec, basis, "sv", InitialCondition(np.zeros(4)), 0.01, 8000.0)
    assert np.all(traj.q == 0.0)


def test_simulate_deterministic_bit_identical():
    spec = string_spec(T0=800.0, d1=1.0, nonlinearity="tension-modulated", E=1e9, A=1e-6)
    basis = string_basis(1.0, 6)
    exc = triangular_pluck(basis, 0.31, 0.01)
    t1 = simulate(spec, basis, "sv", exc, 0.05, 8000.0, readout_point=0.7)
    t2 = simulate(spec, basis, "sv", exc, 0.05, 8000.0, readout_point=0.7)
    assert np.array_equal(t1.q, t2.q)
    assert np.array_equal(t1.readout, t2.readout)


def test_scan_scheme_is_unknown():
    spec = string_spec(T0=800.0)
    basis = string_basis(1.0, 4)
    with pytest.raises(SchemeError, match="unknown scheme"):
        simulate(spec, basis, "scan", triangular_pluck(basis, 0.3, 0.01), 0.01, 8000.0)


def test_run_model_checks_the_scheme_before_any_coefficient_map():
    # omega T = 4 breaks the sv bound: a map run before the name check would
    # raise StabilityBoundError
    rest = np.zeros(2)
    with pytest.raises(SchemeError, match="'ftm' or 'sv' scheme, not 'rk-reference'"):
        run_model("rk-reference", np.array([1.0, 16.0]), np.zeros(2), 1.0, rest, rest, 4,
                  None, None, None)


def test_run_model_reads_out_a_nonlinear_model_only_from_its_trajectory():
    rest = np.zeros(3)
    with pytest.raises(ValueError, match="read out from its trajectory"):
        run_model("sv", np.arange(1.0, 4.0), np.zeros(3), 1e-3, rest, rest, 4, None, None,
                  TensionModulation(np.arange(1.0, 4.0), 0.4), readout=np.ones(3))


@pytest.mark.parametrize("name", ["q0", "v0"])
def test_initial_condition_of_wrong_length_is_named(name):
    basis = string_basis(1.0, 4)
    state = {"q0": np.ones(4), "v0": np.zeros(4)}
    state[name] = np.ones(3)
    with pytest.raises(ValueError, match=rf"^{name} has shape \(3,\), expected length 4$"):
        simulate(string_spec(T0=800.0), basis, "sv", InitialCondition(**state), 0.01, 8000.0)


@pytest.mark.parametrize("nonlinearity", ["linear", "tension-modulated"])
def test_tensors_rejected_without_plate_coupling(nonlinearity):
    spec = string_spec(T0=800.0, nonlinearity=nonlinearity, E=1e9)
    basis = string_basis(1.0, 4)
    ct = simply_supported_tensors(rect_basis(0.3, 0.3, 4))
    with pytest.raises(ValueError, match=f"tensors .*{nonlinearity}"):
        simulate(spec, basis, "sv", triangular_pluck(basis, 0.3, 0.01), 0.01, 8000.0,
                 tensors=ct)


@pytest.mark.parametrize("scheme, oversample", [("ftm", 4), ("sv", 4), ("ftm", 0), ("sv", 0)])
def test_rk_oversample_rejected_by_explicit_schemes(scheme, oversample):
    spec = string_spec(T0=800.0)
    basis = string_basis(1.0, 4)
    with pytest.raises(SchemeError, match=f"rk_oversample.*{scheme}"):
        simulate(spec, basis, scheme, triangular_pluck(basis, 0.3, 0.01), 0.01, 8000.0,
                 rk_oversample=oversample)


@pytest.mark.parametrize("duration, rate, message", [
    (0.01, 0.0, "rate must be positive"), (0.01, -8000.0, "rate must be positive"),
    (-0.01, 8000.0, "duration must be non-negative"),
])
def test_run_settings_out_of_range_rejected(duration, rate, message):
    spec = string_spec(T0=800.0)
    basis = string_basis(1.0, 4)
    with pytest.raises(ValueError, match=message):
        simulate(spec, basis, "ftm", triangular_pluck(basis, 0.3, 0.01), duration, rate)


def test_force_signal_longer_than_duration_rejected():
    spec = string_spec(T0=800.0)
    basis = string_basis(1.0, 4)
    with pytest.raises(ValueError, match="1000 samples but the simulation has 80 steps"):
        simulate(spec, basis, "ftm", PointForce(0.3, np.ones(1000)), 0.01, 8000.0)


@pytest.mark.parametrize("n_sig", [80, 30])
def test_force_signal_up_to_duration_is_zero_padded(n_sig):
    spec = string_spec(T0=800.0)
    basis = string_basis(1.0, 4)
    sig = np.zeros(80)
    sig[:n_sig] = np.linspace(1.0, 2.0, n_sig)
    full = simulate(spec, basis, "ftm", PointForce(0.3, sig), 0.01, 8000.0)
    cut = simulate(spec, basis, "ftm", PointForce(0.3, sig[:n_sig]), 0.01, 8000.0)
    assert full.q.shape == (80, 4)
    np.testing.assert_array_equal(cut.q, full.q)


def test_trajectory_exports(tmp_path):
    spec = string_spec(T0=500.0, d1=1.0)
    basis = string_basis(1.0, 3)
    traj = simulate(spec, basis, "ftm", triangular_pluck(basis, 0.3, 0.01),
                    0.01, 8000.0, readout_point=0.6)
    csv = tmp_path / "traj.csv"
    traj.to_csv(csv)
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert rows.shape == (80, 4)
    wav = tmp_path / "traj.wav"
    traj.to_wav(wav, normalize=True)
    from modalsim.audio_io import wav_read

    sig, rate = wav_read(wav)
    assert rate == 8000 and len(sig) == 80


# --- one-pole oracle ---------------------------------------------------------------

@pytest.fixture
def damped_bank():
    lam = (np.arange(1, 6) * np.pi) ** 2
    return oscillator_bank(lam, 0.001, 900.0, gamma=1.5 + 0.2 * np.arange(5))


def test_scan_matches_stepping_loop(damped_bank):
    # forced ftm forward from an initial condition against the one-pole oracle
    T = 1 / 44100
    q0 = np.array([0.01, -0.02, 0.005, 0.0, 0.003])
    v0 = np.zeros(5)
    sig = raised_cosine_pulse(2.0, 0.02, 0.005, 44100.0, 10_000)
    gains = np.linspace(1.0, 0.2, 5)
    oracle = scan_sequential(damped_bank, T, 10_000, q0, v0, sig, gains)
    A, B, R = ftm_coeffs(damped_bank, T)
    q_prev = start_state("ftm", damped_bank.omega2, damped_bank.gamma, T, q0, v0, None)
    loop = run(A, B, R, q0, q_prev, 10_000,
               force_signal=sig, force_gains=gains)
    assert np.max(np.abs(oracle - loop)) <= 1e-10 * np.max(np.abs(loop))


# --- hook-free path against the per-sample oracle ------------------------------------

def filter_case(scheme, forced, n_steps, damped_bank):
    T = 1 / 8000
    A, B, R = (ftm_coeffs if scheme == "ftm" else sv_coeffs)(damped_bank, T)
    q0 = np.array([0.01, -0.02, 0.005, 0.0, 0.003])
    q_prev = np.array([0.009, -0.018, 0.004, 0.001, -0.002])
    kw = {}
    if forced:  # True: random over the whole run; "pulse": ends at sample 240
        sig = (raised_cosine_pulse(2.0, 0.01, 0.02, 8000.0, n_steps) if forced == "pulse"
               else np.random.default_rng(n_steps).standard_normal(n_steps))
        kw = dict(force_signal=sig, force_gains=np.linspace(1.0, 0.2, 5))
    return (A, B, R, q0, q_prev, n_steps), kw


@pytest.mark.parametrize("n_steps", [0, 1, 2, 257])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("scheme", ["ftm", "sv"])
def test_filter_forward_matches_per_sample_loop(scheme, forced, n_steps, damped_bank):
    (A, B, R, q0, q_prev, n), kw = filter_case(scheme, forced, n_steps, damped_bank)
    Q, U = forward_cached(A, B, R, q0, q_prev, n, **kw)
    oracle = loop_forward(A, B, R, q0, q_prev, n, **kw)
    assert Q.shape == oracle.shape == (n + 2, 5)
    assert np.max(np.abs(Q - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    assert U is None  # the sweep takes the force by its factors


@pytest.mark.parametrize("forced", [False, True, "pulse"])
@pytest.mark.parametrize("scheme", ["ftm", "sv"])
def test_filter_sweep_matches_per_sample_loop(scheme, forced, damped_bank):
    # the linear readout and its forward-mode gradients against the readout of
    # the stepped recurrence and the reverse sweep: unforced, the free
    # response throughout; forced over the whole run, stepped throughout;
    # after a pulse, stepped over it, then blocks of the free response, the
    # last one partial
    w = np.array([0.7, -1.2, 0.4, 1.0, -0.3])
    for n_steps in (0, 1, 2, 257, 3 * adjoint.READOUT_BLOCK + 32):
        (A, B, R, q0, q_prev, n), kw = filter_case(scheme, forced, n_steps, damped_bank)
        y, cache = readout_cached(A, B, R, q0, q_prev, n, kw.get("force_signal"),
                                  kw.get("force_gains"), w)
        ybar = np.random.default_rng(1).standard_normal(n)
        g, dw = readout_backward(cache, ybar)
        Q_loop = loop_forward(A, B, R, q0, q_prev, n, **kw)
        qbar = loop_sweep(A, B, np.outer(ybar, w))
        oracle = Coefficients(
            A=np.sum(qbar * Q_loop[1:-1], axis=0), B=np.sum(qbar * Q_loop[:-2], axis=0),
            R=(np.sum(qbar * np.outer(kw["force_signal"], kw["force_gains"]), axis=0) if forced
               else np.zeros(5)))
        for name, got, want in [("y", y, Q_loop[2:] @ w), ("w", dw, Q_loop[2:].T @ ybar),
                                *zip(Coefficients._fields, g, oracle)]:
            assert got.shape == want.shape, (n_steps, name)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(
                np.abs(want), initial=0.0), (n_steps, name)


def forward_mode_loop(A, B, R, q0, q_prev, force_signal, force_gains, w, ybar):
    """Reference oracle: the readout y_n = w . q^{n+1} and its gradients
    (dL/dA, dL/dB, dL/dR) and dL/dw of L = ybar . y by stepping each mode's
    sensitivities to A, B and R beside it, in the precision of A and q0."""
    q, qp = np.array(q0), np.array(q_prev)
    s = np.zeros((3, len(q0)), q.dtype)
    sp, grads, dw = s.copy(), s.copy(), np.zeros_like(q)
    y = np.empty(len(ybar), q.dtype)
    for n, yb in enumerate(ybar):
        u = force_gains * force_signal[n]
        s, sp = A * s + B * sp + np.stack([q, qp, u]), s
        q, qp = A * q + B * qp + R * u, q
        y[n] = w @ q
        grads += yb * s
        dw += yb * q
    return y, grads * w, dw


# The tolerance is the float64 loop's own error: for each of y, dA, dB, dR
# and dw, the largest per-mode error relative to that mode's value, against
# the long-double loop. Measured with READOUT_BLOCK = 256, ftm / sv: pair
# 9.5e-13 / 4.1e-12, float64 loop 5.2e-11 / 3.3e-11. A reverse sweep, a
# two-pole filter run over the reversed readout gradient, was off by up to
# 1.6e-11 / 6.8e-11 on the same case.
@pytest.mark.skipif(np.finfo(np.longdouble).precision <= np.finfo(float).precision,
                    reason="the oracle needs a long double wider than float64")
@pytest.mark.parametrize("scheme", ["ftm", "sv"])
def test_readout_gradients_match_extended_precision_loop(scheme):
    # 1 s at 44.1 kHz from a pluck and a 2 ms strike; modes below 50 Hz are
    # where the gradients are worst conditioned
    rate, n = 44100.0, 44100
    hz = np.array([5.0, 31.0, 47.0, 400.0, 3000.0])
    bank = oscillator_bank((2 * np.pi * hz) ** 2, 0.0, 1.0,
                           gamma=np.array([0.0, 0.4, 1.0, 2.0, 9.0]))
    A, B, R = (ftm_coeffs if scheme == "ftm" else sv_coeffs)(bank, 1 / rate)
    q0 = np.array([1e-3, -2e-3, 5e-4, 1e-4, -3e-4])
    q_prev = start_state(scheme, bank.omega2, bank.gamma, 1 / rate, q0, np.zeros(5), np.zeros(5))
    args = (A, B, R, q0, q_prev, raised_cosine_pulse(1.0, 0.0, 0.002, rate, n),
            np.array([1.0, -0.5, 0.8, 0.3, 0.6]), np.array([0.9, 0.4, -0.7, 1.1, 0.5]))
    ybar = np.random.default_rng(3).standard_normal(n)
    y, cache = readout_cached(*args[:5], n, *args[5:])
    g, dw = readout_backward(cache, ybar)
    oracle = forward_mode_loop(*(np.asarray(x, dtype=np.longdouble) for x in args + (ybar,)))
    stepped = forward_mode_loop(*args, ybar)

    def errors(y, g, dw):
        want_y, want_g, want_w = oracle
        return ([float(np.max(np.abs(y - want_y)) / np.max(np.abs(want_y)))]
                + [float(np.max(np.abs(got - want) / np.abs(want)))
                   for got, want in [*zip(g, want_g), (dw, want_w)]])

    for name, got, tol in zip(["y", "A", "B", "R", "w"], errors(y, g, dw), errors(*stepped)):
        assert got <= tol, name


def fill_errors(scheme, case, n_steps, damped_bank):
    """The largest deviations of forward_cached and of the float64 loop from
    the long-double loop, relative to the latter's largest state. 'pluck' is
    two modes below 50 Hz and two above at 44.1 kHz from rest; the other
    cases start from filter_case's bank and state, 'zero', 'last' and 'pulse'
    under a force."""
    if case == "pluck":
        T = 1 / 44100
        bank = oscillator_bank((2 * np.pi * np.array([31.0, 47.0, 440.0, 3100.0])) ** 2, 0.0,
                               1.0, gamma=np.array([0.0, 0.4, 2.0, 9.0]))
        q0 = np.array([1e-3, -2e-3, 5e-4, 1e-4])
        q_prev = start_state(scheme, bank.omega2, bank.gamma, T, q0, np.zeros(4), np.zeros(4))
        args = (*(ftm_coeffs if scheme == "ftm" else sv_coeffs)(bank, T), q0, q_prev)
    else:
        args = filter_case(scheme, False, n_steps, damped_bank)[0][:5]
    kw = {}
    if case in ("zero", "last", "pulse"):
        sig = np.zeros(n_steps)
        if case == "last":
            sig[-1] = 1.0
        elif case == "pulse":  # ends at sample 240
            sig = raised_cosine_pulse(2.0, 0.01, 0.02, 8000.0, n_steps)
        kw = dict(force_signal=sig, force_gains=np.linspace(1.0, 0.2, 5))
    Q, _ = forward_cached(*args, n_steps, **kw)
    stepped = loop_forward(*args, n_steps, **kw)
    if kw:
        kw["force_gains"] = np.asarray(kw["force_gains"], dtype=np.longdouble)
    oracle = loop_forward(*(np.asarray(x, dtype=np.longdouble) for x in args), n_steps, **kw)
    scale = np.max(np.abs(oracle))
    return (float(np.max(np.abs(Q - oracle)) / scale),
            float(np.max(np.abs(stepped - oracle)) / scale))


BLOCK = adjoint.FREE_BLOCK


# The tolerance is the float64 loop's own error on the same case. Where that
# error is below one rounding of the largest state (runs of 1 and 2 steps)
# the tolerance is that rounding, 2^-53. Errors measured with FREE_BLOCK =
# 4096, as ftm / sv.
@pytest.mark.skipif(np.finfo(np.longdouble).precision <= np.finfo(float).precision,
                    reason="the oracle needs a long double wider than float64")
@pytest.mark.parametrize("scheme", ["ftm", "sv"])
@pytest.mark.parametrize("case, n_steps", [
    ("free", 0),                # loop 0 / 0,              fill 0 / 0
    ("free", 1),                # loop 1.2e-16 / 3.3e-17,  fill 3.8e-17 / 4.7e-17
    ("free", 2),                # loop 2.0e-16 / 6.8e-17,  fill 5.6e-17 / 8.5e-17
    ("free", BLOCK - 1),        # loop 4.6e-13 / 2.4e-13,  fill 7.3e-14 / 2.5e-14
    ("free", BLOCK),            # loop 4.6e-13 / 2.4e-13,  fill 7.3e-14 / 2.5e-14
    ("free", BLOCK + 1),        # loop 4.6e-13 / 2.4e-13,  fill 7.3e-14 / 2.5e-14
    ("free", 3 * BLOCK),        # loop 4.6e-13 / 2.7e-13,  fill 7.7e-14 / 2.6e-14
    ("zero", 2 * BLOCK + 3),    # loop 4.6e-13 / 2.7e-13,  fill 7.7e-14 / 2.6e-14
    ("last", 2 * BLOCK + 3),    # loop 4.6e-13 / 2.7e-13,  no fill: 3.2e-15 / 2.0e-15
    ("pulse", 2 * BLOCK + 3),   # loop 2.4e-13 / 2.2e-13,  fill 7.8e-14 / 2.5e-14
    ("pluck", 22_050),          # loop 1.3e-12 / 1.7e-12,  fill 1.6e-13 / 1.8e-13
])
def test_free_response_fill_matches_extended_precision_loop(scheme, case, n_steps,
                                                          damped_bank):
    fill, stepped = fill_errors(scheme, case, n_steps, damped_bank)
    assert fill <= max(stepped, 2.0**-53)


# Over a force's support each mode steps its (q, d = q^n - q^{n-1}) state, so
# q^{n+1} - q^n is carried, not formed from two nearly equal states. Against
# the float64 loop's error, measured ftm / sv: 146x / 136x closer forced to
# the end ('last'), where stepping the (q^n, q^{n-1}) pair matched that loop
# bit for bit; 3.1x / 8.6x closer after a pulse, where the block fill past
# sample 240 sets the error (1.2x for sv with the pair stepped).
@pytest.mark.skipif(np.finfo(np.longdouble).precision <= np.finfo(float).precision,
                    reason="the oracle needs a long double wider than float64")
@pytest.mark.parametrize("scheme", ["ftm", "sv"])
@pytest.mark.parametrize("case, factor", [("last", 10.0), ("pulse", 2.0)])
def test_forced_run_is_closer_to_extended_precision_than_the_loop(scheme, case, factor,
                                                                  damped_bank):
    fill, stepped = fill_errors(scheme, case, 2 * BLOCK + 3, damped_bank)
    assert factor * fill <= stepped


def divergent_case(q_divergent):
    """Mode 0 ordinary, mode 1 divergent (a pole near -1e7), whose state
    (q^0, q^{-1}) is q_divergent."""
    A, B, R = (np.array([1.9, 2.0 - 1e7]), np.array([-0.95, -1.0]), np.array([0.1, 1.0]))
    return A, B, R, np.array([0.01, q_divergent[0]]), np.array([0.009, q_divergent[1]])


@pytest.mark.parametrize("forced", [False, True])
def test_divergent_mode_at_rest_stays_at_rest(forced):
    # its free-response basis overflows by step 45; filled from a zero state it
    # must give the zeros that stepping gives, not inf * 0 = NaN, and so must
    # the linear readout read through mode 1 alone, and its gradients
    A, B, R, q0, q_prev = divergent_case((0.0, 0.0))
    kw = {}
    if forced:  # the ordinary mode alone is forced, up to step 20
        kw = dict(force_signal=np.r_[np.ones(20), np.zeros(80)], force_gains=np.array([1.0, 0.0]))
    Q = forward_cached(A, B, R, q0, q_prev, 100, **kw)[0]
    oracle = loop_forward(A, B, R, q0, q_prev, 100, **kw)
    assert not Q[:, 1].any()
    assert np.max(np.abs(Q - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    y, cache = readout_cached(A, B, R, q0, q_prev, 100, kw.get("force_signal"),
                              kw.get("force_gains"), np.array([0.0, 1.0]))
    g, dw = readout_backward(cache, np.ones(100))
    assert not y.any()
    assert not np.r_[g.A[1], g.B[1], g.R[1], dw[1]].any()


@pytest.mark.parametrize("state", [(1e-3, 0.0), (0.0, -1e-300), (1e-300, 0.0)])
def test_divergent_mode_off_rest_is_reported(state):
    # the fill's basis overflows by step 45 whatever the state, so a tiny
    # state is reported there too, before stepping would go non-finite
    A, B, R, q0, q_prev = divergent_case(state)
    with pytest.raises(InstabilityError) as err:
        forward_cached(A, B, R, q0, q_prev, 100)
    assert err.value.mode == 1


@pytest.mark.parametrize("hook", [None, TensionModulation(np.arange(1.0, 4.0), 0.4)],
                         ids=["filter", "hook"])
@pytest.mark.parametrize("n_signal, n_gains, message", [
    (50, 3, r"^force_signal has shape \(50,\), expected length 5$"),
    (4, 3, r"^force_signal has shape \(4,\), expected length 5$"),
    (5, 4, r"^force_gains has shape \(4,\), expected length 3$"),
    (5, 2, r"^force_gains has shape \(2,\), expected length 3$"),
])
def test_forward_rejects_force_arguments_of_another_length(hook, n_signal, n_gains, message):
    # unchecked, a longer signal would lose its tail and extra gains would
    # fail to broadcast inside the loop
    A, B, R = ftm_coeffs(oscillator_bank(np.arange(1.0, 4.0), 0.0, 4.0e5, gamma=3.0), 1e-3)
    q0 = np.array([1e-3, 0.0, -1e-3])
    with pytest.raises(ValueError, match=message):
        forward_cached(A, B, R, q0, q0, 5, np.ones(n_signal), np.ones(n_gains), hook=hook)


@pytest.mark.parametrize("nonlinearity, excitation", [
    ("linear", "pluck"), ("linear", "force"), ("tension-modulated", "pluck")])
def test_simulate_returns_a_new_trajectory_each_call(nonlinearity, excitation):
    spec = string_spec(T0=800.0, d1=1.0, nonlinearity=nonlinearity, E=1e9)
    basis = string_basis(1.0, 6)
    exc = (triangular_pluck(basis, 0.31, 0.01) if excitation == "pluck"
           else PointForce(0.31, raised_cosine_pulse(1.0, 0.0, 0.002, 8000.0, 40)))
    t1 = simulate(spec, basis, "sv", exc, 0.02, 8000.0, readout_point=0.7)
    t2 = simulate(spec, basis, "sv", exc, 0.02, 8000.0, readout_point=0.7)
    assert not np.shares_memory(t1.q, t2.q)
    assert not np.shares_memory(t1.readout, t2.readout)
    assert np.array_equal(t1.q, t2.q)


@pytest.mark.parametrize("scheme", ["ftm", "sv"])
def test_hook_loop_with_zero_tension_matches_filter_path(scheme):
    # E = 0 makes tau = 0: the tension-modulated model runs the hook loop with a
    # zero force, the linear model the free-response fill
    basis = string_basis(1.0, 6)
    modulated, linear = (
        simulate(string_spec(T0=500.0, d1=1.0, nonlinearity=nl), basis, scheme,
                 triangular_pluck(basis, 0.3, 0.01), 0.05, 8000.0, readout_point=0.6)
        for nl in ("tension-modulated", "linear"))
    assert np.max(np.abs(modulated.q - linear.q)) <= 1e-12 * np.max(np.abs(linear.q))
    assert (np.max(np.abs(modulated.readout - linear.readout))
            <= 1e-12 * np.max(np.abs(linear.readout)))


# --- RK reference -------------------------------------------------------------------

def test_rk_lossless_matches_analytic_cosine():
    w = 2 * np.pi * 30.0
    bank = oscillator_bank(np.array([1.0]), 0.0, w**2)
    rate = 2000.0
    n = int(rate)
    Q = rk_reference(bank, n, rate, np.array([1.0]), np.zeros(1), oversample=16)
    t = np.arange(1, n + 1) / rate
    assert np.max(np.abs(Q[:, 0] - np.cos(w * t))) < 1e-8


def test_rk_zero_input_is_zero():
    bank = oscillator_bank(np.array([1.0, 2.0]), 0.0, 100.0)
    Q = rk_reference(bank, 50, 1000.0, np.zeros(2), np.zeros(2))
    assert np.all(Q == 0.0)


def test_rk_blow_up_is_instability_error():
    # a stiff, strongly tension-modulated string plucked hard: one RK4 step
    # per sample overflows at once, as sv does (at step 6, mode index 0). Run
    # without the check, the integrator's rows q^1, q^2 were finite and q^3 was
    # non-finite in every mode
    spec = string_spec(T0=100.0, E=2e11, A=1e-6, rho=1e-3, nonlinearity="tension-modulated")
    basis = string_basis(1.0, 8)
    pluck = triangular_pluck(basis, 0.3, 0.5)
    with pytest.raises(InstabilityError) as sv:
        simulate(spec, basis, "sv", pluck, 0.01, 8000.0)
    assert (sv.value.step, sv.value.mode) == (6, 0)
    with pytest.raises(InstabilityError) as rk:
        simulate(spec, basis, "rk-reference", pluck, 0.01, 8000.0, rk_oversample=1)
    assert (rk.value.step, rk.value.mode) == (3, 0)


def test_sv_stft_error_vs_reference_decreases_with_rate():
    # coarse qualitative check of the scheme-error methodology
    from modalsim.analysis import stft

    w = 2 * np.pi * 97.0
    errs = []
    for rate in (2000.0, 4000.0):
        bank = oscillator_bank(np.array([1.0]), 0.0, w**2, gamma=1.0)
        n = int(0.5 * rate)
        ref = rk_reference(bank, n, rate, np.array([1.0]), np.zeros(1), oversample=16)
        A, B, R = sv_coeffs(bank, 1 / rate)
        a0 = -w**2 * 1.0 - 2.0 * 1.0 * 0.0
        q_prev = np.array([1.0 - 0.5 * (1 / rate) ** 2 * w**2])
        sv = run(A, B, R, np.array([1.0]), q_prev, n)
        Ys = stft(sv[:, 0], rate, 256, 64).magnitude
        Yr = stft(ref[:, 0], rate, 256, 64).magnitude
        errs.append(np.linalg.norm(Ys - Yr) / np.linalg.norm(Yr))
    assert np.isfinite(errs).all()
    assert errs[1] < errs[0]


def test_pluck_and_pulse_helpers():
    basis = string_basis(1.0, 4)
    ic = triangular_pluck(basis, 0.25, 0.002)
    m = np.arange(1, 5)
    # sine-series amplitudes, in coordinates of the unit-norm shapes sqrt(2) sin
    expect = 2 * 0.002 * np.sin(m * np.pi * 0.25) / (np.pi**2 * m**2 * 0.25 * 0.75)
    assert ic.q0 * np.sqrt(2.0) == pytest.approx(expect)
    sig = raised_cosine_pulse(3.0, 0.01, 0.004, 1000.0, 30)
    assert sig[0] == 0.0 and np.max(sig) <= 3.0 + 1e-12
    assert np.max(sig) > 2.9
    with pytest.raises(ValueError, match="finite"):
        PointForce(0.3, np.array([1.0, np.nan]))


@pytest.mark.parametrize("signal, shape", [
    (5.0, "()"), (np.ones((2, 10)), "(2, 10)"), ([[1.0, 2.0]], "(1, 2)")])
def test_point_force_rejects_a_signal_that_is_not_1d(signal, shape):
    # a scalar used to build and then fail in simulate with a TypeError from
    # len(); a 2-D signal failed there with a broadcast error
    message = f"^force signal must be 1-D, got shape {re.escape(shape)}$"
    with pytest.raises(ValueError, match=message):
        PointForce(0.3, signal)


@pytest.mark.parametrize("width", [0.0, -0.004])
def test_raised_cosine_pulse_rejects_width_that_is_not_positive(width):
    # width 0 divided by zero into NaN samples; a negative width gave zeros
    with pytest.raises(ValueError, match="width must be positive"):
        raised_cosine_pulse(3.0, 0.01, width, 1000.0, 30)


# --- allocation budget ------------------------------------------------------------------

def test_forced_linear_simulate_allocates_little_besides_the_trajectory():
    # a linear run stores no input array: the force stays its signal times its
    # gains. Measured peak: 2.2 x the trajectory's bytes with a [step, mode]
    # input array, 1.2 x without it (the free-response basis is most of the rest)
    import tracemalloc

    basis = string_basis(1.0, 40)
    spec = string_spec(T0=500.0, d1=1.0)
    force = PointForce(0.3, raised_cosine_pulse(1.0, 0.0, 0.005, 44100.0, 220))
    # a first call's one-time allocations stay outside the measurement
    simulate(spec, basis, "ftm", force, 0.01, 44100.0, readout_point=0.6)
    tracemalloc.start()
    try:
        traj = simulate(spec, basis, "ftm", force, 1.0, 44100.0, readout_point=0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * traj.q.nbytes


def test_linear_readout_and_gradients_store_no_trajectory():
    # 100 modes x 2 s at 44.1 kHz, string_synth's size, struck for 1 ms: the
    # [step, mode] trajectory alone would take 70.6 MB. Measured peak 6.2 MB:
    # the block states, the basis, the readout and its gradient
    import tracemalloc

    m, n = 100, 88_200
    bank = oscillator_bank((2 * np.pi * 110.0 * np.arange(1, m + 1)) ** 2, 0.0, 1.0,
                           gamma=1.0 + 0.1 * np.arange(m))
    args = (*ftm_coeffs(bank, 1 / 44100), np.zeros(m), np.zeros(m), n,
            raised_cosine_pulse(1.0, 0.0, 0.001, 44100.0, n), np.sin(0.9 * np.arange(1, m + 1)),
            np.cos(0.4 * np.arange(1, m + 1)))
    ybar = np.random.default_rng(0).standard_normal(n)
    # a first call's one-time allocations stay outside the measurement
    readout_backward(readout_cached(*args)[1], ybar)
    tracemalloc.start()
    try:
        readout_backward(readout_cached(*args)[1], ybar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
