from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalsim.adjoint import bptt, forward_cached
from modalsim.coupling import TensionModulation, VkContraction, simply_supported_tensors
from modalsim.integrators import InitialCondition, ftm_coeffs, oscillator_bank, simulate
from modalsim.model import MaterialParams, ModelSpec, RectPlate
from modalsim.modes import _sinpi, rect_basis, reconstruct, required_grid_points, string_basis


def tension_force(q, basis, tau):
    return TensionModulation(basis.eigenvalues, tau)(np.asarray(q, dtype=float))


def vk_force(q, coupling, gain):
    return VkContraction(coupling, gain)(np.asarray(q, dtype=float))


@pytest.fixture(scope="module")
def square_tensors():
    basis = rect_basis(1.0, 1.0, 5)
    return basis, closed_form_tensors(basis)


# --- quadrature oracle -----------------------------------------------------------
#
# The coupling integrals evaluated numerically: analytic second derivatives of
# the sine modes on a tensor-product Gauss-Legendre grid with ppw points per
# shortest half-wavelength. The integrands are products of three sines or
# cosines whose half-period frequencies break the periodicity that makes the
# trapezoidal rule spectrally accurate, so Gauss-Legendre is used; at 16
# points the entries converge to near machine precision.

DEFAULT_PPW = 16


def _cospi(t):
    """cos(pi*t) with exact zeros at half-integer t."""
    t = np.asarray(t, dtype=float)
    n = np.floor(t)
    f = t - n
    c = np.where(f == 0.5, 0.0, np.cos(np.pi * f))
    return np.where(np.mod(n, 2) == 0, c, -c)


def mode_second_derivatives(basis, idx, X, Y):
    """Closed-form Hessian entries (f_xx, f_yy, f_xy) of a rectangle mode on a grid."""
    m, n = basis.labels[idx]
    Lx, Ly = basis.lengths
    kx, ky = m * np.pi / Lx, n * np.pi / Ly
    sx, sy = _sinpi(m * (X / Lx)), _sinpi(n * (Y / Ly))
    cx, cy = _cospi(m * (X / Lx)), _cospi(n * (Y / Ly))
    s = basis.shape_scale
    fxx = -(kx**2) * sx * sy * s
    fyy = -(ky**2) * sx * sy * s
    fxy = kx * ky * cx * cy * s
    return fxx, fyy, fxy


def vk_bilinear(fxx, fyy, fxy, gxx, gyy, gxy):
    """Pointwise f_xx*g_yy + f_yy*g_xx - 2*f_xy*g_xy."""
    return fxx * gyy + fyy * gxx - 2.0 * fxy * gxy


def _quadrature_grid(phi, psi, ppw):
    """Nodes and weights dense enough for both bases."""
    nx, ny = (max(a, b) for a, b in zip(required_grid_points(phi, ppw),
                                        required_grid_points(psi, ppw)))
    Lx, Ly = phi.lengths
    xn, xw = np.polynomial.legendre.leggauss(nx)
    yn, yw = np.polynomial.legendre.leggauss(ny)
    X, Y = np.meshgrid(0.5 * Lx * (xn + 1.0), 0.5 * Ly * (yn + 1.0))
    return X, Y, np.outer(0.5 * Ly * yw, 0.5 * Lx * xw)


def _hessian_stack(basis, X, Y):
    return [np.stack(h) for h in zip(*(mode_second_derivatives(basis, i, X, Y)
                                       for i in range(basis.count)))]


def _mode_values(basis, X, Y):
    labs = np.asarray(basis.labels, dtype=float)
    Lx, Ly = basis.lengths
    vals = np.stack([_sinpi(m * (X / Lx)) * _sinpi(n * (Y / Ly)) for m, n in labs])
    return vals * basis.shape_scale


def compute_H(phi, psi, ppw=DEFAULT_PPW):
    """H[k, i, j] = integral Psi_k L(Phi_i, Phi_j) of the unit-norm shapes."""
    X, Y, W = _quadrature_grid(phi, psi, ppw)
    fxx, fyy, fxy = _hessian_stack(phi, X, Y)
    psi_w = (_mode_values(psi, X, Y) * W).reshape(psi.count, -1)
    n = phi.count
    H = np.empty((psi.count, n, n))
    for i in range(n):
        batch = vk_bilinear(fxx[i][None], fyy[i][None], fxy[i][None], fxx, fyy, fxy)
        H[:, i, :] = psi_w @ batch.reshape(n, -1).T
    return H


def compute_C(phi, psi, ppw=DEFAULT_PPW):
    """C[s, p, n] = integral Phi_s L(Phi_p, Psi_n) of the unit-norm shapes."""
    X, Y, W = _quadrature_grid(phi, psi, ppw)
    pxx, pyy, pxy = _hessian_stack(phi, X, Y)
    sxx, syy, sxy = _hessian_stack(psi, X, Y)
    phi_w = (_mode_values(phi, X, Y) * W).reshape(phi.count, -1)
    C = np.empty((phi.count, phi.count, psi.count))
    for p in range(phi.count):
        batch = vk_bilinear(pxx[p][None], pyy[p][None], pxy[p][None], sxx, syy, sxy)
        C[:, p, :] = phi_w @ batch.reshape(psi.count, -1).T
    return C


def test_vk_operator_value_at_plate_center():
    # f = g = 2 sin(pi x) sin(pi y), the unit-norm mode: value 8 pi^4 at the center
    basis = rect_basis(1.0, 1.0, 1)
    X = np.array([[0.5]])
    Y = np.array([[0.5]])
    fxx, fyy, fxy = mode_second_derivatives(basis, 0, X, Y)
    val = vk_bilinear(fxx, fyy, fxy, fxx, fyy, fxy)[0, 0]
    assert val == pytest.approx(8 * np.pi**4, rel=1e-12)


def test_H_stable_under_grid_refinement():
    basis = rect_basis(1.0, 1.0, 5)
    coarse, fine = compute_H(basis, basis, ppw=16), compute_H(basis, basis, ppw=32)
    nz = np.abs(fine) > 1e-9 * np.max(np.abs(fine))
    rel = np.abs(coarse[nz] - fine[nz]) / np.abs(fine[nz])
    assert np.max(rel) < 1e-6


def test_H_first_entry_against_finer_quadrature():
    basis = rect_basis(1.0, 1.0, 1)
    h16 = compute_H(basis, basis, ppw=16)[0, 0, 0]
    h64 = compute_H(basis, basis, ppw=64)[0, 0, 0]
    assert h16 == pytest.approx(h64, rel=1e-6)


# --- closed-form tensor oracle ------------------------------------------------------
#
# The coupling as third-order tensors H[k, i, j] = <Psi_k, L(Phi_i, Phi_j)> and
# C[s, p, n] = <Phi_s, L(Phi_p, Psi_n)> (unit-norm shapes), each entry a sum
# of products of 1-D integrals. The library never forms them; they are the
# oracle for its grid force, checked here against the quadrature.

Tensors = namedtuple("Tensors", "H C zeta4")


def _sine_integrals(k, L):
    """S[p, q, r] = int_0^L sin sin sin and C[p, q, r] = int_0^L sin cos cos of
    (p, q, r) pi x / L for all p, q, r in k: products to sums over
    int_0^L sin(k pi x / L) dx = 2 L / (k pi) for odd k and 0 for even k."""
    p, q, r = k[:, None, None], k[None, :, None], k[None, None, :]

    def I(n):
        odd = n % 2 == 1
        return np.where(odd, 2.0 * L / (np.pi * np.where(odd, n, 1)), 0.0)

    # grouped so that swapping q and r only reorders exact operations, which
    # keeps the (i, j) symmetry of H bit for bit
    S = ((I(p + r - q) - I(r - p - q)) + (I(q + r - p) - I(p + q + r))) / 4.0
    C = ((I(p + q - r) + I(p - q + r)) + (I(p + q + r) + I(p - q - r))) / 4.0
    return S, C


def _projection(o, l, r):
    """T[k, i, j] = integral o_k L(l_i, r_j) / (||o_k|| ||l_i|| ||r_j||) in closed form.

    A mode f = sin(a x) sin(b y) has f_xx = -a^2 f, f_yy = -b^2 f and
    f_xy = a b cos(a x) cos(b y), so each entry is a sum of products of 1-D
    integrals:
    T = (a_i^2 b_j^2 + b_i^2 a_j^2) Sx Sy - 2 (a_i b_i)(a_j b_j) Cx Cy.
    The integrals vanish exactly unless both index sums are odd.
    """
    labels = [np.asarray(b.labels) for b in (o, l, r)]
    factors = []
    for axis, L in enumerate(o.lengths):
        io, il, ir = (lab[:, axis] - 1 for lab in labels)
        tables = _sine_integrals(np.arange(1, max(io.max(), il.max(), ir.max()) + 2), L)
        factors.append([t[io][:, il][:, :, ir] for t in tables])
    (Sx, Cx), (Sy, Cy) = factors
    (al, bl), (ar, br) = ((lab * np.pi / np.asarray(o.lengths)).T for lab in labels[1:])
    cross = np.outer(al**2, br**2) + np.outer(bl**2, ar**2)
    twist = 2.0 * np.outer(al * bl, ar * br)
    return (cross * (Sx * Sy) - twist * (Cx * Cy)) * (o.shape_scale * l.shape_scale
                                                       * r.shape_scale)


def closed_form_tensors(phi, n_psi=None):
    """H = T(Psi; Phi, Phi), C = T(Phi; Phi, Psi) and zeta4 = lambda_psi^2, with
    Psi the first n_psi sine modes of phi's rectangle (default phi itself)."""
    psi = phi if n_psi is None else rect_basis(*phi.lengths, n_psi)
    return Tensors(H=_projection(psi, phi, phi), C=_projection(phi, phi, psi),
                   zeta4=psi.eigenvalues**2)


def naive_contraction(q, ct, gain):
    """The force straight from the tensors: eta = H : q q / zeta4, then
    out = gain C : q eta."""
    eta = np.einsum("nab,a,b->n", ct.H, q, q) / ct.zeta4
    return gain * np.einsum("spn,p,n->s", ct.C, q, eta)


# --- coupling tensors ------------------------------------------------------------

def plate_lengths(wide):
    """A 0.4 x 0.3 rectangle, or its transpose when not wide."""
    return (0.4, 0.3) if wide else (0.3, 0.4)


@pytest.mark.parametrize("n_phi, n_psi, wide", [
    (12, None, True), (30, None, True), (60, None, True),
    (8, 14, True), (14, 8, True), (12, None, False), (8, 14, False),
])
def test_closed_form_matches_quadrature_oracle(n_phi, n_psi, wide):
    phi = rect_basis(*plate_lengths(wide), n_phi)
    psi = rect_basis(*plate_lengths(wide), n_psi) if n_psi else phi
    ct = closed_form_tensors(phi, n_psi)
    for got, oracle in ((ct.H, compute_H(phi, psi)), (ct.C, compute_C(phi, psi))):
        assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_H_swap_symmetry_is_exact(square_tensors):
    _, ct = square_tensors
    assert np.array_equal(ct.H, np.transpose(ct.H, (0, 2, 1)))


def test_H_parity_selection_rules(square_tensors):
    basis, ct = square_tensors
    labs = np.asarray(basis.labels)
    for k in range(5):
        for i in range(5):
            for j in range(5):
                msum = labs[k, 0] + labs[i, 0] + labs[j, 0]
                nsum = labs[k, 1] + labs[i, 1] + labs[j, 1]
                if msum % 2 == 0 or nsum % 2 == 0:
                    assert ct.H[k, i, j] == 0.0
                    assert ct.C[k, i, j] == 0.0


def test_C_is_H_transposed_when_psi_is_phi():
    ct = closed_form_tensors(rect_basis(0.4, 0.3, 30))
    HT = np.transpose(ct.H, (2, 1, 0))
    assert np.array_equal(ct.C == 0.0, HT == 0.0)
    assert np.max(np.abs(ct.C - HT)) <= 1e-14 * np.max(np.abs(ct.H))


def test_C_direct_quadrature_matches_permutation_identity(square_tensors):
    basis, ct = square_tensors
    direct = compute_C(basis, basis)
    scale = np.max(np.abs(ct.H))
    assert np.max(np.abs(direct - np.transpose(ct.H, (2, 1, 0)))) < 1e-8 * scale


def test_mixed_basis_sizes_use_direct_C():
    phi = rect_basis(1.0, 1.0, 3)
    coupling = simply_supported_tensors(phi, n_psi=6)
    assert coupling.n_phi == 3 and coupling.n_psi == 6
    assert coupling.zeta4 == pytest.approx(rect_basis(1.0, 1.0, 6).eigenvalues ** 2)
    ct = closed_form_tensors(phi, n_psi=6)
    assert ct.H.shape == (6, 3, 3) and ct.C.shape == (3, 3, 6)


# --- tension-modulation force ------------------------------------------------------

def test_tension_force_zero_amplitude():
    b = string_basis(1.0, 4)
    assert np.all(tension_force(np.zeros(4), b, 2.0) == 0.0)


def test_tension_force_single_mode_closed_form():
    b = string_basis(1.0, 3)
    q = np.array([0.0, 0.3, 0.0])
    lam = b.eigenvalues[1]
    f = tension_force(q, b, tau=2.0)
    assert f[1] == pytest.approx(2.0 * lam**2 * 0.3**3)
    assert f[0] == f[2] == 0.0


def test_tension_force_matches_gradient_energy_quadrature(rng):
    # independent route: tau * (integral of |grad w|^2 by finite differences
    # on the reconstructed displacement) * lambda_mu * q_mu
    b = string_basis(1.3, 5)
    q = 0.05 * rng.normal(size=5)
    tau = 3.7
    x = np.linspace(0.0, 1.3, 20001)
    w = reconstruct(b, q, [x])
    grad = np.gradient(w, x)
    energy = np.trapezoid(grad**2, x)
    expect = tau * energy * b.eigenvalues * q
    got = tension_force(q, b, tau)
    assert np.max(np.abs(got - expect)) <= 1e-4 * np.max(np.abs(expect))


@given(st.integers(min_value=0, max_value=10**6))
def test_tension_force_is_pure_hardening(seed):
    rng = np.random.default_rng(seed)
    b = string_basis(1.0, 6)
    q = rng.normal(size=6)
    f = tension_force(q, b, tau=0.8)
    assert f @ q >= 0.0


# --- plate force ----------------------------------------------------------------------

def test_vk_force_zero_cases(square_tensors, rng):
    basis, _ = square_tensors
    coupling = simply_supported_tensors(basis)
    assert np.all(vk_force(np.zeros(5), coupling, 1.0) == 0.0)
    assert np.all(vk_force(rng.normal(size=5), coupling, 0.0) == 0.0)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=6))
def test_vk_force_matches_naive_quadruple_loop(seed, n_modes):
    rng = np.random.default_rng(seed)
    phi = rect_basis(*rng.uniform(0.2, 1.0, size=2), n_modes)
    q = rng.normal(size=n_modes)
    fast = vk_force(q, simply_supported_tensors(phi), gain=1.7)
    slow = naive_contraction(q, closed_form_tensors(phi), 1.7)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def test_vk_contraction_class_matches_function(square_tensors, rng):
    basis, ct = square_tensors
    hook = VkContraction(simply_supported_tensors(basis), gain=2.2)
    q = rng.normal(size=5)
    assert hook(q) == pytest.approx(naive_contraction(q, ct, 2.2), rel=1e-12)


def jacobian_fd(f, q, h=0.5):
    """Jacobian of a cubic map by central differences; Richardson
    extrapolation over h and h/2 removes the h^2 term, the only one a cubic
    leaves, so the columns are exact up to rounding."""
    cols = []
    for e in np.eye(len(q)):
        d = [(f(q + s * e) - f(q - s * e)) / (2.0 * s) for s in (h, h / 2)]
        cols.append((4.0 * d[1] - d[0]) / 3.0)
    return np.array(cols).T


@pytest.mark.parametrize("n_phi, n_psi, wide", [
    (12, None, True), (30, None, True), (60, None, True), (120, None, True),
    (8, 14, True), (14, 8, True), (12, None, False), (8, 14, False),
])
def test_grid_force_matches_tensor_oracle_and_jacobian(n_phi, n_psi, wide):
    phi = rect_basis(*plate_lengths(wide), n_phi)
    hook = VkContraction(simply_supported_tensors(phi, n_psi), gain=1.3)
    rng = np.random.default_rng(5)
    q, v = rng.normal(size=(2, n_phi))
    f = hook(q)
    slow = naive_contraction(q, closed_form_tensors(phi, n_psi), 1.3)
    assert np.max(np.abs(f - slow)) <= 1e-12 * np.max(np.abs(slow))
    jt = hook.jt_vec(q, v)
    fd = jacobian_fd(hook, q).T @ v
    assert np.max(np.abs(jt - fd)) <= 1e-12 * np.max(np.abs(fd))


@pytest.mark.parametrize("n_modes", [1, 4, 12])
def test_tension_force_jacobian_matches_central_differences(n_modes):
    force = TensionModulation(string_basis(1.0, n_modes).eigenvalues, 0.7)
    q, v = np.random.default_rng(n_modes).normal(size=(2, n_modes)) / np.arange(1, n_modes + 1)
    jt = force.jt_vec(q, v)
    fd = jacobian_fd(force, q).T @ v
    assert np.max(np.abs(jt - fd)) <= 1e-12 * np.max(np.abs(fd))


def plate_force():
    return VkContraction(simply_supported_tensors(rect_basis(0.4, 0.3, 5)), gain=0.01)


@pytest.mark.parametrize("sweep_first", ["first", "second"])
@pytest.mark.parametrize("build", [lambda: TensionModulation(np.arange(1.0, 6.0), 0.4),
                                   plate_force], ids=["tension", "plate"])
def test_one_force_serves_two_runs_in_either_order(build, sweep_first):
    # the force is a pure function of the state: a second run's forward pass
    # leaves nothing that the first run's sweep reads
    coeffs = ftm_coeffs(oscillator_bank(np.arange(1.0, 6.0), 0.0, 4.0e5, gamma=3.0), 1e-3)
    sig = np.sin(np.arange(40) * 0.3)
    qbar = np.cos(np.arange(200.0)).reshape(40, 5)

    def forward(force, q0):
        return forward_cached(*coeffs, q0, 0.9 * q0, 40, sig, np.ones(5), hook=force)

    def sweep(force, run):
        return bptt(*coeffs, *run, qbar, hook=force)

    starts = 0.05 * np.linspace(1.0, -1.0, 5), 0.08 * np.cos(np.arange(5.0))
    alone = []
    for q0 in starts:
        force = build()
        run = forward(force, q0)
        alone.append((run, sweep(force, run)))
    force = build()
    runs = [forward(force, q0) for q0 in starts]
    sweeps = {k: sweep(force, runs[k]) for k in ((0, 1) if sweep_first == "first" else (1, 0))}
    for k, (run, g) in enumerate(alone):
        assert np.array_equal(runs[k][0], run[0]) and np.array_equal(runs[k][1], run[1])
        assert all(np.array_equal(sweeps[k][n], g[n]) for n in g)


def test_many_mode_plate_force_is_odd_and_cubic():
    # 500 modes: H and C would hold 1.25e8 entries each; the grid needs none
    phi = rect_basis(0.4, 0.3, 500)
    hook = VkContraction(simply_supported_tensors(phi), gain=1.0)
    q = np.random.default_rng(6).normal(size=500) / np.sqrt(phi.eigenvalues)
    f = hook(q)
    scale = np.max(np.abs(f))
    assert scale > 0.0
    assert np.max(np.abs(hook(-q) + f)) <= 1e-12 * scale
    assert np.max(np.abs(hook(2.0 * q) - 8.0 * f)) <= 1e-12 * 8.0 * scale


def plate_spec():
    return ModelSpec(MaterialParams(rho=1000.0, E=7e6, nu=0.3), RectPlate(0.4, 0.3, 0.002),
                     nonlinearity="von-karman")


def test_vk_dimension_mismatch():
    coupling = simply_supported_tensors(rect_basis(0.4, 0.3, 2))
    with pytest.raises(ValueError, match="built for 2 modes of a 0.4 x 0.3 rect, "
                                         "the basis has 4 modes"):
        simulate(plate_spec(), rect_basis(0.4, 0.3, 4), "sv", InitialCondition(np.zeros(4)),
                 0.001, 8000.0, tensors=coupling)


def test_coupling_of_another_plate_rejected():
    coupling = simply_supported_tensors(rect_basis(0.8, 0.2, 12))
    with pytest.raises(ValueError, match="built for 12 modes of a 0.8 x 0.2 rect, "
                                         "the basis has 12 modes of a 0.4 x 0.3 rect"):
        simulate(plate_spec(), rect_basis(0.4, 0.3, 12), "sv",
                 InitialCondition(np.full(12, 1e-4)), 0.001, 8000.0, tensors=coupling)
