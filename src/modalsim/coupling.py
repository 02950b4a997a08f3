"""Nonlinear force models in modal coordinates.

Two mechanisms:

* tension modulation (strings/membranes): deformation adds a uniform tension
  proportional to the integrated squared gradient, giving the modal force
  f_mu = tau * lambda_mu * q_mu * sum_nu lambda_nu q_nu^2 (unit-norm modes);

* von Karman coupling (plates): the transverse displacement w = sum_i q_i Phi_i
  drives the in-plane (Airy) stress function F = sum_k eta_k Psi_k through the
  bilinear operator L(f, g) = f_xx g_yy + f_yy g_xx - 2 f_xy g_xy,

      eta_k = <Psi_k, L(w, w)> / zeta4_k,    f_s = gain <Phi_s, L(w, F)>,

  with unit-norm shapes in the inner products. For the simply supported plate
  Psi is the sine family of the same rectangle, with biharmonic eigenvalues
  zeta^4 = lambda^2.

The plate force is evaluated on a separable grid, never through third-order
coupling tensors. With sine modes, w_xx and w_yy are sine-sine and w_xy
cosine-cosine double series whose coefficients live on the Kx x Ky rectangle
of mode indices, and the products in L(w, w) and L(w, F) are cosine
polynomials of degree at most N = max(2 K_phi, K_phi + K_psi) per axis. Their
samples on an (N + 1)-point grid per axis determine them exactly, so one
matrix per axis projects them onto the sines: the inverse DCT-I, then the
closed-form integrals int_0^L sin(m pi x / L) cos(k pi x / L) dx =
(L / pi) 2m / (m^2 - k^2) for odd m + k, and 0 otherwise (Bilbao, Numerical
Sound Synthesis, 2009). A force evaluation is then a few small matrix
products per stage, and its cost grows with the index rectangle rather than
with the cube of the mode count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NONLINEARITY_KINDS
from .modes import ModeBasis, _sinpi, rect_basis


# --- plate coupling ------------------------------------------------------------

def _axis_operators(L: float, K: int, N: int):
    """Sampling and projection matrices of one axis of length L on the grid
    x_l = l L / N, l = 0..N: S[l, m] = sin(m pi x_l / L), C[l, m] =
    cos(m pi x_l / L) for m = 1..K, and P[k, l] (k = 1..K) with
    sum_l P[k, l] f(x_l) = int_0^L sin(k pi x / L) f(x) dx exactly for every
    cosine polynomial f of degree <= N in pi x / L."""
    r = np.outer(np.arange(N + 1), np.arange(N + 1)) % (2 * N)  # phase l j, reduced
    sines, cosines = _sinpi(r / N), _sinpi(r / N + 0.5)
    # inverse DCT-I: the cosine coefficients c_j of f from its samples
    dct = (2.0 / N) * cosines
    dct[:, [0, N]] *= 0.5
    dct[[0, N], :] *= 0.5
    k, j = np.arange(1, K + 1)[:, None], np.arange(N + 1)[None, :]
    odd = (k + j) % 2 == 1
    integrals = np.where(odd, (L / np.pi) * 2.0 * k / np.where(odd, k * k - j * j, 1), 0.0)
    return sines[:, 1:K + 1], cosines[:, 1:K + 1], integrals @ dct


@dataclass(frozen=True, eq=False)
class PlateCoupling:
    """The von Karman coupling of a simply supported plate as grid operators.

    phi is the transverse basis the coupling was built for and zeta4 holds
    the in-plane biharmonic eigenvalues, one per Airy mode. Both bases' modal
    coordinates scatter into coefficients on the Kx x Ky index rectangle
    (flat positions phi_index and psi_index). Fields on the grid come out as
    the stack (x-factor @ C) @ y-factor, one layer per second derivative:
    eval_x [3 (Nx+1), Kx] and eval_y [3, Ky, Ny+1] give (f_xx, f_yy, f_xy) of
    a transverse field, airy_x and airy_y give (g_yy, g_xx, -2 g_xy) of an
    Airy field, so that L(f, g) is the sum over the stack of their products.
    proj_x @ G @ proj_y.T projects a grid field G onto every unit-norm sine
    product on the rectangle. All shapes are unit-norm, c sin sin with
    c = 2 / sqrt(Lx Ly).
    """

    phi: ModeBasis
    zeta4: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray
    airy_x: np.ndarray
    airy_y: np.ndarray
    proj_x: np.ndarray
    proj_y: np.ndarray
    phi_index: np.ndarray
    psi_index: np.ndarray

    @property
    def n_phi(self) -> int:
        return self.phi.count

    @property
    def n_psi(self) -> int:
        return len(self.zeta4)


def simply_supported_tensors(phi: ModeBasis, n_psi: int | None = None) -> PlateCoupling:
    """The von Karman coupling of a simply supported plate: Psi is the sine
    family of phi's rectangle (its first n_psi modes, default phi's count) and
    zeta^4 = lambda^2.

    Returns the grid operator that VkContraction applies, not coupling
    tensors; no tensor is formed. The name is kept because the benchmark calls
    and traces it.
    """
    if phi.kind != "rect":
        raise ValueError("plate coupling requires a rectangle basis")
    psi = rect_basis(phi.lengths[0], phi.lengths[1], phi.count if n_psi is None else n_psi)
    lab_phi, lab_psi = np.asarray(phi.labels), np.asarray(psi.labels)
    k_phi, k_psi = lab_phi.max(axis=0), lab_psi.max(axis=0)
    K, N = np.maximum(k_phi, k_psi), np.maximum(2 * k_phi, k_phi + k_psi)
    c = phi.shape_scale
    (Sx, Cx, Px), (Sy, Cy, Py) = (_axis_operators(L, int(k), int(n))
                                  for L, k, n in zip(phi.lengths, K, N))
    a = np.arange(1, K[0] + 1) * np.pi / phi.lengths[0]
    b = np.arange(1, K[1] + 1) * np.pi / phi.lengths[1]
    x_layers = (-c * Sx * a**2, c * Sx, c * Cx * a)  # d_xx, none, d_x
    y_layers = (Sy.T, -(Sy * b**2).T, (Cy * b).T)  # none, d_yy, d_y
    return PlateCoupling(
        phi=phi, zeta4=psi.eigenvalues**2,
        eval_x=np.concatenate(x_layers), eval_y=np.stack(y_layers),
        airy_x=np.concatenate([x_layers[1], x_layers[0], -2.0 * x_layers[2]]),
        airy_y=np.stack([y_layers[1], y_layers[0], y_layers[2]]),
        proj_x=c * Px, proj_y=Py,
        phi_index=(lab_phi[:, 0] - 1) * K[1] + lab_phi[:, 1] - 1,
        psi_index=(lab_psi[:, 0] - 1) * K[1] + lab_psi[:, 1] - 1,
    )


# --- modal nonlinear forces -------------------------------------------------
#
# One object per force law, shared by simulate, rk_reference and the fits (the
# hook protocol is described in modalsim.adjoint). force(q) and
# force.jt_vec(q, v) are pure, so one object serves any number of runs.

class TensionModulation:
    """Tension-modulation force tau_hat * lam_mu * q_mu * sum_nu lam_nu q_nu^2.

    The closed form holds for unit-norm modes, as every ModeBasis has; lam
    holds their eigenvalues.
    """

    def __init__(self, lam, tau_hat):
        self.lam = np.asarray(lam, dtype=float)
        self.tau_hat = float(tau_hat)

    def _s(self, q):
        """sum_nu lam_nu q_nu^2."""
        return float(self.lam @ (q * q))

    def __call__(self, q):
        return self.tau_hat * self.lam * q * self._s(q)

    def jt_vec(self, q, v):
        lamq = self.lam * q
        return self.tau_hat * (self.lam * v * self._s(q) + 2.0 * lamq * (lamq @ v))

    def tau_grad(self, dU, Q):
        """dL/dtau_hat from bptt's dU[n] = dL/du^n, u^n = ... - nl(q^n), and
        forward_cached's rows Q[t] = q^{t-1}."""
        Qmid = Q[1:-1]
        S = np.array([self._s(q) for q in Qmid])
        return -float(np.einsum("tm,m,tm,t->", dU, self.lam, Qmid, S))


_SWAP_SIGNS = np.array([1.0, 1.0, -2.0])[:, None, None]


class VkContraction:
    """The von Karman plate force of a PlateCoupling,

        eta_k = <Psi_k, L(w, w)> / zeta4_k,   out_s = gain <Phi_s, L(w, F)>,

    with gain = E / (2 rho), rho the volumetric density. A call samples
    w_xx, w_yy, w_xy on the grid, projects L(w, w) to eta, samples F's
    derivatives and projects L(w, F); jt_vec applies the transposes of the
    same matrices, recomputing the grid fields from q.
    """

    def __init__(self, coupling: PlateCoupling, gain):
        self.coupling = coupling
        self.shape = (int(coupling.proj_x.shape[0]), int(coupling.proj_y.shape[0]))
        self.gain = float(gain)
        self.eta_scale = 2.0 / coupling.zeta4  # L(w, w) = 2 (w_xx w_yy - w_xy^2)

    def _field(self, x, y, index, coeffs):
        """The grid stack of a field from its modal coordinates."""
        C = np.zeros(self.shape)
        C.flat[index] = coeffs
        return (x @ C).reshape(3, -1, self.shape[1]) @ y

    def _field_adjoint(self, x, y, index, G):
        """Transpose of _field: modal coordinates from a grid stack G."""
        return (x.T @ (G @ y.transpose(0, 2, 1)).reshape(-1, self.shape[1])).flat[index]

    def _project(self, G, index, scale):
        c = self.coupling
        return (c.proj_x @ G @ c.proj_y.T).flat[index] * scale

    def _project_adjoint(self, v, index, scale):
        c = self.coupling
        V = np.zeros(self.shape)
        V.flat[index] = v * scale
        return c.proj_x.T @ V @ c.proj_y

    def _fields(self, q):
        """The grid stacks of w and of its Airy field F."""
        c = self.coupling
        w = self._field(c.eval_x, c.eval_y, c.phi_index, q)
        eta = self._project(w[0] * w[1] - w[2] * w[2], c.psi_index, self.eta_scale)
        return w, self._field(c.airy_x, c.airy_y, c.psi_index, eta)

    def __call__(self, q):
        w, F = self._fields(q)
        return self._project(np.einsum("dij,dij->ij", w, F), self.coupling.phi_index, self.gain)

    def jt_vec(self, q, v):
        c = self.coupling
        w, F = self._fields(q)
        g = self._project_adjoint(v, c.phi_index, self.gain)
        eta_bar = self._field_adjoint(c.airy_x, c.airy_y, c.psi_index, g * w)
        r = self._project_adjoint(eta_bar, c.psi_index, self.eta_scale)
        # d(w_xx w_yy - w_xy^2) = (w_yy, w_xx, -2 w_xy) . dw
        w_bar = g * F + r * w[[1, 0, 2]] * _SWAP_SIGNS
        return self._field_adjoint(c.eval_x, c.eval_y, c.phi_index, w_bar)


def nonlinear_force(kind: str, lam, tau_hat, coupling: PlateCoupling | None, gain):
    """The force of a ModelSpec nonlinearity kind (None for "linear") that
    simulate and the time-domain fit run. A coefficient the kind does not use
    must be 0, or None for the coupling; errors name the fit's fields."""
    if kind not in NONLINEARITY_KINDS:
        raise ValueError(f"nonlinearity must be one of {NONLINEARITY_KINDS}, got {kind!r}")
    for name, unused, owner in (("tau_hat", tau_hat != 0.0, "tension-modulated"),
                                ("coupling of plate tensors", coupling is not None, "von-karman"),
                                ("vk_gain", gain != 0.0, "von-karman")):
        if unused and kind != owner:
            raise ValueError(f"{name} applies to the {owner} model only, not {kind!r}")
    if kind == "tension-modulated":
        return TensionModulation(lam, tau_hat)
    if kind == "von-karman":
        if coupling is None:
            raise ValueError("the von-karman model needs a coupling (simply_supported_tensors)")
        if coupling.n_phi != len(lam):
            raise ValueError(f"the coupling acts on {coupling.n_phi} modes, lam has {len(lam)}")
        return VkContraction(coupling, gain)
    return None
