"""Time integration of the modal oscillator system

    q_mu'' + 2 gamma_mu q_mu' + omega_mu^2 q_mu = u_mu,   u = f_ext - f_nl,

with omega_mu^2 = d_hat lambda_mu^2 + t0_hat lambda_mu and the density-normalised
modal force u on the right-hand side.

Two explicit two-step schemes share one coefficient form, the update vectors
(A, B, R) of q^{n+1} = A q^n + B q^{n-1} + R u^n (:class:`Coefficients`):

* impulse-invariant resonator: each mode's impulse response samples the
  continuous one. Input samples act as per-step impulse weights.

* Stoermer-Verlet (centered differences). Input samples are the sampled
  continuous force.

:func:`simulate` and the time-domain fit run one model, :func:`run_model`:
the coefficient map of :mod:`modalsim.adjoint` (past the Stoermer-Verlet bound
omega T < 2 it raises :class:`StabilityBoundError`, and for an impulse-invariant
mode at or past Nyquist :class:`NyquistError`), :func:`start_state` and
:func:`modalsim.adjoint.forward_cached`, under the force of
:func:`modalsim.coupling.nonlinear_force`. Only a model under that force is
stepped sample by sample. A linear model's trajectory, and the readout alone
that a linear fit asks run_model for (:func:`modalsim.adjoint.readout_cached`,
which stores no trajectory), come from one block scan, forced blocks
included. :func:`ftm_coeffs` and :func:`sv_coeffs` stay only because the
benchmark calls and traces them. An oversampled RK4 integrator provides the
reference solution for scheme-error measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import adjoint
from .adjoint import (Coefficients, InstabilityError, NyquistError,  # noqa: F401
                      OverdampedError, StabilityBoundError)  # (re-exported)
from .coupling import PlateCoupling, nonlinear_force
from .model import ModelSpec, derive_normalized, validate
from .modes import ModeBasis, point_readout, project_point_excitation


class SchemeError(ValueError):
    """Requested scheme is incompatible with the model configuration."""


@dataclass(frozen=True)
class OscillatorBank:
    """Per-mode angular frequencies and damping rates."""

    omega2: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        if self.omega2.shape != self.gamma.shape:
            raise ValueError("omega2 and gamma must have matching shapes")
        if np.any(self.omega2 < 0):
            raise ValueError("omega2 entries must be non-negative")
        if np.any(self.gamma < 0):
            raise ValueError("gamma entries must be non-negative")

    @property
    def count(self) -> int:
        return self.omega2.shape[0]


def omega_squared(lam, d_hat, t0_hat):
    """omega^2 = d_hat lam^2 + t0_hat lam, broadcasting: per-mode or column
    vectors of d_hat and t0_hat give one row per entry."""
    return d_hat * lam**2 + t0_hat * lam


def oscillator_bank(eigenvalues: np.ndarray, d_hat: float, t0_hat: float,
                    gamma: Union[float, np.ndarray] = 0.0) -> OscillatorBank:
    """omega_mu^2 = d_hat lambda_mu^2 + t0_hat lambda_mu with given damping rates."""
    lam = np.asarray(eigenvalues, dtype=float)
    g = np.broadcast_to(np.asarray(gamma, dtype=float), lam.shape).copy()
    return OscillatorBank(omega2=omega_squared(lam, d_hat, t0_hat), gamma=g)


def bank_from_spec(spec: ModelSpec, basis: ModeBasis) -> OscillatorBank:
    """Bank with gamma_mu = (d1 + d3 lambda_mu) / (2 rho_eff)."""
    par = derive_normalized(spec)
    rho = spec.effective_density
    gamma = (spec.material.d1 + spec.material.d3 * basis.eigenvalues) / (2.0 * rho)
    return oscillator_bank(basis.eigenvalues, par.d_hat, par.t0_hat, gamma)


def ftm_coeffs(bank: OscillatorBank, T: float) -> Coefficients:
    """The bank's resonator update vectors (formula: adjoint.ftm_update_partials)."""
    return adjoint.ftm_update_partials(bank.omega2, bank.gamma, T)[0]


def sv_coeffs(bank: OscillatorBank, T: float) -> Coefficients:
    """The bank's Stoermer-Verlet update vectors (formula, bound: adjoint.sv_update_partials)."""
    return adjoint.sv_update_partials(bank.omega2, bank.gamma, T)[0]


# --- excitations -------------------------------------------------------------

@dataclass(frozen=True)
class InitialCondition:
    """Modal initial displacement and velocity."""

    q0: np.ndarray
    v0: Optional[np.ndarray] = None


@dataclass(frozen=True)
class PointForce:
    """Force signal (N) applied at one spatial point."""

    point: object
    signal: np.ndarray

    def __post_init__(self):
        if np.ndim(self.signal) != 1:
            raise ValueError(f"force signal must be 1-D, got shape {np.shape(self.signal)}")
        if not np.all(np.isfinite(self.signal)):
            raise ValueError("force signal must be finite")


def raised_cosine_pulse(amplitude: float, onset: float, width: float, rate: float,
                        n_steps: int) -> np.ndarray:
    """Smooth force pulse 0.5*amp*(1 - cos(2 pi (t-onset)/width)) on [onset, onset+width]."""
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    adjoint.check_rate(rate)
    t = np.arange(n_steps) / rate
    s = np.zeros(n_steps)
    inside = (t >= onset) & (t <= onset + width)
    s[inside] = 0.5 * amplitude * (1.0 - np.cos(2.0 * np.pi * (t[inside] - onset) / width))
    return s


def triangular_pluck(basis: ModeBasis, point: float, amplitude: float) -> InitialCondition:
    """String pluck: triangular initial shape with peak `amplitude` at `point`.

    Modal coordinates follow from the closed-form sine series of the triangle,
    c_m = 2 a L^2 sin(m pi x0 / L) / (pi^2 m^2 x0 (L - x0)).
    """
    if basis.kind != "string":
        raise ValueError("triangular plucks are defined for string bases")
    L = basis.lengths[0]
    x0 = float(point)
    if not (0.0 < x0 < L):
        raise ValueError("pluck point must be strictly inside the string")
    m = np.asarray(basis.labels, dtype=float)[:, 0]
    c = 2.0 * amplitude * L**2 * np.sin(m * np.pi * x0 / L) / (
        np.pi**2 * m**2 * x0 * (L - x0)
    )
    return InitialCondition(q0=c / basis.shape_scale, v0=np.zeros_like(c))


Excitation = Union[InitialCondition, PointForce]


@dataclass(frozen=True)
class Trajectory:
    """Modal amplitudes over time, plus the optional point-readout signal.

    Row n holds the state after n+1 update steps. For a linear model, q is a
    transposed view of a [mode, time] array, so each mode's samples are
    contiguous.
    """

    rate: float
    q: np.ndarray  # [time, mode]
    readout: Optional[np.ndarray] = None
    labels: Optional[tuple] = None

    @property
    def n_steps(self) -> int:
        return self.q.shape[0]

    def to_csv(self, path) -> None:
        t = np.arange(1, self.n_steps + 1) / self.rate
        header = "time," + ",".join(f"mode_{i}" for i in range(self.q.shape[1]))
        np.savetxt(path, np.column_stack([t, self.q]), delimiter=",",
                   header=header, comments="", fmt="%.17g")

    def to_wav(self, path, normalize: bool = False) -> None:
        from .audio_io import wav_write

        if self.readout is None:
            raise ValueError("trajectory has no readout signal to export")
        wav_write(path, self.readout, int(round(self.rate)), normalize=normalize)


# --- simulation ---------------------------------------------------------------

def start_state(scheme: str, omega2, gamma, T: float, q0, v0, u0) -> np.ndarray:
    """q^{-1}, one step before q^0 = q0, from the velocity v0 and input u^0 = u0:
    'ftm' steps the homogeneous system back exactly (and ignores u0), 'sv'
    takes the second-order Taylor step, which keeps its global order."""
    if scheme == "ftm":
        wt = np.sqrt(omega2 - gamma**2)
        x0 = q0 - 1j * (v0 + gamma * q0) / wt
        return np.real(x0 * np.exp((gamma - 1j * wt) * T))
    if scheme == "sv":
        a0 = u0 - 2.0 * gamma * v0 - omega2 * q0
        return q0 - T * v0 + 0.5 * T**2 * a0
    raise SchemeError(f"no start state for scheme {scheme!r}")


def coefficient_map(scheme: str):
    """The coefficient map with partials of 'ftm' or 'sv', the schemes run_model runs."""
    if scheme not in ("ftm", "sv"):
        raise SchemeError(f"the time-domain model runs the 'ftm' or 'sv' scheme, not {scheme!r}")
    return adjoint.ftm_update_partials if scheme == "ftm" else adjoint.sv_update_partials


def run_model(scheme: str, omega2, gamma, T: float, q0, v0, n_steps: int,
              force_signal, force_gains, force, readout=None):
    """The time-domain model from q0 and v0: the scheme's coefficient map with
    partials, the start state from u^0 = f_ext^0 - force(q0), and
    forward_cached under the nonlinear force (None for a linear model).
    Returns (parts, Q, U): the map's three Coefficients (update vectors and
    their partials), and forward_cached's rows Q[t] = q^{t-1} and the hook's
    inputs U[n] = -force(q^n) (None for a linear model, which stores no input:
    the external force stays force_signal times force_gains).

    Given readout weights, a linear model is read out without its
    trajectory: the call returns (parts, y, cache) of adjoint.readout_cached,
    y_n = readout . q^{n+1}, whose gradients adjoint.readout_backward takes."""
    if readout is not None and force is not None:
        raise ValueError("a model under a nonlinear force is read out from its trajectory")
    parts = coefficient_map(scheme)(omega2, gamma, T)
    u0 = np.zeros_like(q0) if force is None else -force(q0)
    if force_signal is not None and n_steps:
        u0 = u0 + force_gains * force_signal[0]
    q_prev = start_state(scheme, omega2, gamma, T, q0, v0, u0)
    if readout is not None:
        return (parts, *adjoint.readout_cached(*parts[0], q0, q_prev, n_steps, force_signal,
                                               force_gains, readout))
    Q, U = adjoint.forward_cached(*parts[0], q0, q_prev, n_steps, force_signal, force_gains,
                                  hook=force)
    return parts, Q, U


def _plate(basis: ModeBasis) -> str:
    return f"{basis.count} modes of a {' x '.join(map(str, basis.lengths))} {basis.kind}"


def _modal_excitation(basis: ModeBasis, excitation: Excitation, n_steps: int):
    m = basis.count
    q0 = np.zeros(m)
    v0 = np.zeros(m)
    force_signal = force_gains = None
    if isinstance(excitation, InitialCondition):
        q0 = adjoint.check_length("q0", excitation.q0, m)
        if excitation.v0 is not None:
            v0 = adjoint.check_length("v0", excitation.v0, m)
    elif isinstance(excitation, PointForce):
        force_gains = project_point_excitation(basis, excitation.point)
        sig = np.asarray(excitation.signal, dtype=float)
        if len(sig) > n_steps:
            raise ValueError(f"force signal has {len(sig)} samples but the simulation "
                             f"has {n_steps} steps")
        force_signal = np.zeros(n_steps)
        force_signal[: len(sig)] = sig
    else:
        raise TypeError(f"unsupported excitation {type(excitation).__name__}")
    return q0, v0, force_signal, force_gains


def simulate(spec: ModelSpec, basis: ModeBasis, scheme: str, excitation: Excitation,
             duration: float, rate: float,
             readout_point=None, tensors: Optional[PlateCoupling] = None,
             rk_oversample: Optional[int] = None) -> Trajectory:
    """Full simulation: assembles the oscillator bank, scheme coefficients,
    modal excitation, and nonlinear hook from a validated model spec.

    scheme is one of 'ftm' (impulse-invariant resonators), 'sv'
    (Stoermer-Verlet) or 'rk-reference' (oversampled RK4 oracle);
    rk_oversample (default 16) applies to 'rk-reference' only. tensors is the plate
    coupling from simply_supported_tensors, required by and only accepted for
    von-karman models; it must have been built for this basis (same rectangle,
    same mode labels). Every scheme, 'rk-reference' included, applies its one
    force, VkContraction. The readout, if asked for, is the displacement at
    readout_point.

    Under 'ftm', every mode must stay below Nyquist (damped omega T < pi),
    or the call raises NyquistError: cut the basis at Nyquist, since a mode
    past it would fold into the band. Under 'sv', StabilityBoundError
    guards omega T < 2 likewise.
    """
    spec = validate(spec)
    if scheme not in ("ftm", "sv", "rk-reference"):
        raise SchemeError(f"unknown scheme {scheme!r}")
    if rk_oversample is not None and scheme != "rk-reference":
        raise SchemeError(f"rk_oversample applies to 'rk-reference' only, not {scheme!r}")
    adjoint.check_rate(rate)
    if not duration >= 0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    bank = bank_from_spec(spec, basis)
    par = derive_normalized(spec)
    n_steps = int(round(duration * rate))
    q0, v0, force_signal, force_gains = _modal_excitation(basis, excitation, n_steps)
    if spec.nonlinearity == "von-karman" and tensors is not None and not (
            tensors.phi.same_domain(basis) and tensors.phi.labels == basis.labels):
        raise ValueError(f"the plate coupling was built for {_plate(tensors.phi)}, "
                         f"the basis has {_plate(basis)}")
    nl_hook = nonlinear_force(spec.nonlinearity, basis.eigenvalues, par.tau_hat, tensors,
                              par.vk_gain)

    if scheme == "rk-reference":
        Q = rk_reference(bank, n_steps, rate, q0, v0,
                         force_signal=force_signal, force_gains=force_gains,
                         nl_hook=nl_hook,
                         oversample=16 if rk_oversample is None else rk_oversample)
    else:
        Q = run_model(scheme, bank.omega2, bank.gamma, 1.0 / rate, q0, v0, n_steps,
                      force_signal, force_gains, nl_hook)[1][2:]  # rows q^1 .. q^N

    readout = None
    if readout_point is not None:
        readout = Q @ point_readout(basis, readout_point).weights
    return Trajectory(rate=rate, q=Q, readout=readout, labels=basis.labels)


# --- oversampled RK4 reference -------------------------------------------------

def rk_reference(bank: OscillatorBank, n_steps: int, rate: float, q0, v0=None,
                 force_signal=None, force_gains=None, nl_hook=None,
                 oversample: int = 16) -> np.ndarray:
    """Classical RK4 on the first-order form of the modal system, integrated at
    oversample x rate and decimated back to the sample grid. Serves as the
    ground-truth oracle for measuring scheme error. Raises InstabilityError
    at the first sample step whose state is non-finite."""
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    m = bank.count
    q = np.asarray(q0, dtype=float).copy()
    v = np.zeros(m) if v0 is None else np.asarray(v0, dtype=float).copy()
    g2 = 2.0 * bank.gamma
    w2 = bank.omega2
    h = 1.0 / (rate * oversample)

    if force_signal is not None:
        t_sig = np.arange(len(force_signal)) / rate

        def force_at(t):
            return force_gains * np.interp(t, t_sig, force_signal, left=0.0, right=0.0)
    else:
        def force_at(t):
            return 0.0

    def accel(t, q, v):
        u = force_at(t)
        if nl_hook is not None:
            u = u - nl_hook(q)
        return u - g2 * v - w2 * q

    out = np.empty((n_steps, m))
    t = 0.0
    # as in the hook loop, a blow-up is InstabilityError, not overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            for _ in range(oversample):
                k1q = v
                k1v = accel(t, q, v)
                k2q = v + 0.5 * h * k1v
                k2v = accel(t + 0.5 * h, q + 0.5 * h * k1q, v + 0.5 * h * k1v)
                k3q = v + 0.5 * h * k2v
                k3v = accel(t + 0.5 * h, q + 0.5 * h * k2q, v + 0.5 * h * k2v)
                k4q = v + h * k3v
                k4v = accel(t + h, q + h * k3q, v + h * k3v)
                q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
                v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
                t += h
            out[n] = q
            if not np.isfinite(q).all():
                adjoint.check_finite(out[:n + 1])
    return out
