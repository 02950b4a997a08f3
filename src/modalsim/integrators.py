"""Time integration of the modal oscillator system

    q_mu'' + 2 gamma_mu q_mu' + omega_mu^2 q_mu = u_mu,   u = f_ext - f_nl,

with omega_mu^2 = d_hat lambda_mu^2 + t0_hat lambda_mu and the density-normalised
modal force u on the right-hand side.

Two explicit two-step schemes share the update shape
q^{n+1} = A q^n + B q^{n-1} + R u^n (+ R2 u^{n-1}):

* impulse-invariant resonator (per-mode discrete transfer function
  (b1 z + b2) / (z^2 + a1 z + a2)): A = -a1, B = -a2, R = b1, R2 = b2. The
  recurrence signs are fixed by matching the impulse response to the transfer
  function. Input samples act as per-step impulse weights.

* Stoermer-Verlet (centered differences): A = g, B = p, R = r. Input samples
  are the sampled continuous force.

Each scheme's coefficient map is written once, in :mod:`modalsim.adjoint`,
together with its partial derivatives in omega^2 and gamma, which the fits
chain through. :func:`simulate` runs both schemes through the recurrence in
:func:`modalsim.adjoint.forward_cached`, the same code the time-domain fit
differentiates. A linear model runs there as one two-pole IIR filter per mode
(``scipy.signal.lfilter``), whose reverse sweep is the same filter on reversed
time; the per-sample loop serves the nonlinear forces only. An oversampled RK4
integrator provides the reference solution for scheme-error measurements.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import adjoint
from .adjoint import InstabilityError, OverdampedError  # noqa: F401  (re-exported)
from .coupling import CouplingTensors, TensionModulation, VkContraction
from .model import ModelSpec, derive_normalized, derive_tau, validate
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

    @property
    def omega_tilde(self) -> np.ndarray:
        """Damped angular frequency sqrt(omega^2 - gamma^2); NaN where overdamped."""
        with np.errstate(invalid="ignore"):
            return np.sqrt(self.omega2 - self.gamma**2)


def oscillator_bank(eigenvalues: np.ndarray, d_hat: float, t0_hat: float,
                    gamma: Union[float, np.ndarray] = 0.0) -> OscillatorBank:
    """omega_mu^2 = d_hat lambda_mu^2 + t0_hat lambda_mu with given damping rates."""
    lam = np.asarray(eigenvalues, dtype=float)
    omega2 = d_hat * lam**2 + t0_hat * lam
    g = np.broadcast_to(np.asarray(gamma, dtype=float), lam.shape).copy()
    return OscillatorBank(omega2=omega2, gamma=g)


def bank_from_spec(spec: ModelSpec, basis: ModeBasis) -> OscillatorBank:
    """Bank with gamma_mu = (d1 + d3 lambda_mu) / (2 rho_eff)."""
    spec = validate(spec)
    par = derive_normalized(spec)
    rho = spec.effective_density
    gamma = (spec.material.d1 + spec.material.d3 * basis.eigenvalues) / (2.0 * rho)
    return oscillator_bank(basis.eigenvalues, par.d_hat, par.t0_hat, gamma)


@dataclass(frozen=True)
class FtmCoeffs:
    """Impulse-invariant resonator coefficients (denominator z^2 + a1 z + a2)."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    T: float

    def pole_magnitudes(self) -> np.ndarray:
        return np.sqrt(self.a2)

    def update_vectors(self):
        """(A, B, R, R2) of q^{n+1} = A q^n + B q^{n-1} + R u^n + R2 u^{n-1}."""
        return -self.a1, -self.a2, self.b1, self.b2


@dataclass(frozen=True)
class SvCoeffs:
    """Stoermer-Verlet update coefficients."""

    g: np.ndarray
    p: np.ndarray
    r: np.ndarray
    T: float

    def update_vectors(self):
        return self.g, self.p, self.r, np.zeros_like(self.r)


def ftm_coeffs(bank: OscillatorBank, T: float, b2: Optional[np.ndarray] = None) -> FtmCoeffs:
    """The bank's resonator coefficients (formula: adjoint.ftm_coeff_partials).

    b2 defaults to zero; it is a free fitting parameter for matching unknown
    initial conditions, not a physical quantity.
    """
    c = adjoint.ftm_coeff_partials(bank.omega2, bank.gamma, T)
    if b2 is None:
        b2 = np.zeros_like(c["b1"])
    else:
        b2 = np.asarray(b2, dtype=float)
        if b2.shape != c["b1"].shape:
            raise ValueError("b2 must have one entry per mode")
    return FtmCoeffs(a1=c["a1"], a2=c["a2"], b1=c["b1"], b2=b2, T=T)


def sv_coeffs(bank: OscillatorBank, T: float) -> SvCoeffs:
    """The bank's Stoermer-Verlet coefficients (formula: adjoint.sv_update_partials)."""
    n_unstable = int(np.sum(np.sqrt(bank.omega2) * T >= 2.0))
    if n_unstable:
        warnings.warn(
            f"{n_unstable} mode(s) violate the stability bound omega*T < 2; "
            "expect the explicit scheme to blow up",
            stacklevel=2,
        )
    u = adjoint.sv_update_partials(bank.omega2, bank.gamma, T)
    return SvCoeffs(g=u["A"], p=u["B"], r=u["R"], T=T)


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
        if not np.all(np.isfinite(self.signal)):
            raise ValueError("force signal must be finite")


def raised_cosine_pulse(amplitude: float, onset: float, width: float, rate: float,
                        n_steps: int) -> np.ndarray:
    """Smooth force pulse 0.5*amp*(1 - cos(2 pi (t-onset)/width)) on [onset, onset+width]."""
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

def _ftm_backstep(bank: OscillatorBank, T: float, q0, v0):
    """Exact homogeneous back-step q^{-1} = Re(x0 e^{(gamma - i wt) T})."""
    g, wt = bank.gamma, bank.omega_tilde
    x0 = q0 - 1j * (v0 + g * q0) / wt
    return np.real(x0 * np.exp((g - 1j * wt) * T))


def _sv_backstep(bank: OscillatorBank, T: float, q0, v0, u0):
    """Second-order Taylor back-step (keeps the scheme's global order)."""
    a0 = u0 - 2.0 * bank.gamma * v0 - bank.omega2 * q0
    return q0 - T * v0 + 0.5 * T**2 * a0


def _nl_hook_for(spec: ModelSpec, basis: ModeBasis,
                 tensors: Optional[CouplingTensors]) -> Optional[Callable]:
    if tensors is not None and spec.nonlinearity != "von-karman":
        raise ValueError(f"tensors apply to von-karman models only, not {spec.nonlinearity!r}")
    if spec.nonlinearity == "linear":
        return None
    if spec.nonlinearity == "tension-modulated":
        if not basis.unit_normalized:
            raise ValueError("tension modulation requires a unit-normalised basis")
        return TensionModulation(basis.eigenvalues, derive_tau(spec) / spec.effective_density)
    if spec.nonlinearity == "von-karman":
        if tensors is None:
            raise ValueError("von Karman simulation needs coupling tensors")
        if tensors.n_phi != basis.count:
            raise ValueError(
                f"coupling tensors act on modal states of length {tensors.n_phi}, "
                f"the basis has {basis.count} modes"
            )
        return VkContraction(tensors.H, tensors.C, tensors.zeta4,
                             spec.material.E / (2.0 * spec.material.rho))
    raise ValueError(f"unknown nonlinearity {spec.nonlinearity!r}")


def _modal_excitation(basis: ModeBasis, excitation: Excitation, n_steps: int):
    m = basis.count
    q0 = np.zeros(m)
    v0 = np.zeros(m)
    force_signal = force_gains = None
    if isinstance(excitation, InitialCondition):
        q0 = np.asarray(excitation.q0, dtype=float)
        if q0.shape != (m,):
            raise ValueError(f"q0 must have length {m}")
        if excitation.v0 is not None:
            v0 = np.asarray(excitation.v0, dtype=float)
            if v0.shape != (m,):
                raise ValueError(f"v0 must have length {m}")
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
             readout_point=None, readout_weights: Optional[np.ndarray] = None,
             tensors: Optional[CouplingTensors] = None,
             b2: Optional[np.ndarray] = None,
             rk_oversample: Optional[int] = None) -> Trajectory:
    """Full simulation: assembles the oscillator bank, scheme coefficients,
    modal excitation, and nonlinear hook from a validated model spec.

    scheme is one of 'ftm' (impulse-invariant resonators), 'sv'
    (Stoermer-Verlet) or 'rk-reference' (oversampled RK4 oracle). b2, the
    resonator numerator's second coefficient, exists only for 'ftm';
    rk_oversample (default 16) only for 'rk-reference'. tensors are the von
    Karman coupling; tensors read from a file may need sparsify first for the
    contraction to find its blocks. The readout is taken either at
    readout_point or with readout_weights, one per mode.
    """
    spec = validate(spec)
    if scheme not in ("ftm", "sv", "rk-reference"):
        raise SchemeError(f"unknown scheme {scheme!r}")
    if b2 is not None and scheme != "ftm":
        raise SchemeError(f"b2 is a resonator coefficient; scheme {scheme!r} has none")
    if rk_oversample is not None and scheme != "rk-reference":
        raise SchemeError(f"rk_oversample applies to 'rk-reference' only, not {scheme!r}")
    if readout_point is not None and readout_weights is not None:
        raise ValueError("pass readout_point or readout_weights, not both")
    if readout_weights is not None:
        readout_weights = np.asarray(readout_weights, dtype=float)
        if readout_weights.shape != (basis.count,):
            raise ValueError(f"readout_weights has shape {readout_weights.shape}, "
                             f"the basis has {basis.count} modes")
    bank = bank_from_spec(spec, basis)
    n_steps = int(round(duration * rate))
    T = 1.0 / rate
    q0, v0, force_signal, force_gains = _modal_excitation(basis, excitation, n_steps)
    nl_hook = _nl_hook_for(spec, basis, tensors)

    if scheme == "rk-reference":
        Q = rk_reference(bank, n_steps, rate, q0, v0,
                         force_signal=force_signal, force_gains=force_gains,
                         nl_hook=nl_hook,
                         oversample=16 if rk_oversample is None else rk_oversample)
    else:
        if scheme == "ftm":
            coeffs = ftm_coeffs(bank, T, b2=b2)
            q_prev = _ftm_backstep(bank, T, q0, v0)
        else:
            coeffs = sv_coeffs(bank, T)
            u0 = np.zeros_like(q0)
            if nl_hook is not None:
                u0 = -nl_hook(q0)
            if force_signal is not None and n_steps:
                u0 = u0 + force_gains * force_signal[0]
            q_prev = _sv_backstep(bank, T, q0, v0, u0)
        A, B, R, R2 = coeffs.update_vectors()
        Q, _ = adjoint.forward_cached(A, B, R, q0, q_prev, n_steps, force_signal,
                                      force_gains, hook=nl_hook, R2=R2)
        Q = Q[2:]

    readout = None
    if readout_weights is not None:
        readout = Q @ readout_weights
    elif readout_point is not None:
        readout = Q @ point_readout(basis, readout_point).weights
    return Trajectory(rate=rate, q=Q, readout=readout, labels=basis.labels)


# --- oversampled RK4 reference -------------------------------------------------

def rk_reference(bank: OscillatorBank, n_steps: int, rate: float, q0, v0=None,
                 force_signal=None, force_gains=None, nl_hook=None,
                 oversample: int = 16) -> np.ndarray:
    """Classical RK4 on the first-order form of the modal system, integrated at
    oversample x rate and decimated back to the sample grid. Serves as the
    ground-truth oracle for measuring scheme error."""
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
    return out
