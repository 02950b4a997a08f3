import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalsim.coupling import (
    CouplingTensors, TensionModulation, VkContraction, load_tensors, save_tensors,
    simply_supported_tensors, sparsify, tensors_to_csv,
)
from modalsim.integrators import InitialCondition, simulate
from modalsim.model import MaterialParams, ModelSpec, RectPlate, String
from modalsim.modes import _sinpi, rect_basis, reconstruct, required_grid_points, string_basis


def tension_force(q, basis, tau):
    return TensionModulation(basis.eigenvalues, tau)(np.asarray(q, dtype=float))


def vk_force(q, ct, gain):
    return VkContraction(ct.H, ct.C, ct.zeta4, gain)(np.asarray(q, dtype=float))


@pytest.fixture(scope="module")
def square_tensors():
    basis = rect_basis(1.0, 1.0, 5)
    return basis, simply_supported_tensors(basis)


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


def _norms(*bases):
    a, b, c = (np.sqrt(x.norms_sq) for x in bases)
    return a[:, None, None] * b[None, :, None] * c[None, None, :]


def compute_H(phi, psi, ppw=DEFAULT_PPW):
    """H[k, i, j] = integral Psi_k L(Phi_i, Phi_j) / (||Psi_k|| ||Phi_i|| ||Phi_j||)."""
    X, Y, W = _quadrature_grid(phi, psi, ppw)
    fxx, fyy, fxy = _hessian_stack(phi, X, Y)
    psi_w = (_mode_values(psi, X, Y) * W).reshape(psi.count, -1)
    n = phi.count
    H = np.empty((psi.count, n, n))
    for i in range(n):
        batch = vk_bilinear(fxx[i][None], fyy[i][None], fxy[i][None], fxx, fyy, fxy)
        H[:, i, :] = psi_w @ batch.reshape(n, -1).T
    return H / _norms(psi, phi, phi)


def compute_C(phi, psi, ppw=DEFAULT_PPW):
    """C[s, p, n] = integral Phi_s L(Phi_p, Psi_n) / (||Phi_s|| ||Phi_p|| ||Psi_n||)."""
    X, Y, W = _quadrature_grid(phi, psi, ppw)
    pxx, pyy, pxy = _hessian_stack(phi, X, Y)
    sxx, syy, sxy = _hessian_stack(psi, X, Y)
    phi_w = (_mode_values(phi, X, Y) * W).reshape(phi.count, -1)
    C = np.empty((phi.count, phi.count, psi.count))
    for p in range(phi.count):
        batch = vk_bilinear(pxx[p][None], pyy[p][None], pxy[p][None], sxx, syy, sxy)
        C[:, p, :] = phi_w @ batch.reshape(psi.count, -1).T
    return C / _norms(phi, phi, psi)


def test_vk_operator_value_at_plate_center():
    # f = g = sin(pi x) sin(pi y): value 2 pi^4 at the center
    basis = rect_basis(1.0, 1.0, 1, unit_norm=False)
    X = np.array([[0.5]])
    Y = np.array([[0.5]])
    fxx, fyy, fxy = mode_second_derivatives(basis, 0, X, Y)
    val = vk_bilinear(fxx, fyy, fxy, fxx, fyy, fxy)[0, 0]
    assert val == pytest.approx(2 * np.pi**4, rel=1e-12)


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


# --- coupling tensors ------------------------------------------------------------

@pytest.mark.parametrize("n_phi, n_psi, unit_norm", [
    (12, None, True), (30, None, True), (60, None, True),
    (8, 14, True), (14, 8, True), (12, None, False), (8, 14, False),
])
def test_closed_form_matches_quadrature_oracle(n_phi, n_psi, unit_norm):
    phi = rect_basis(0.4, 0.3, n_phi, unit_norm)
    psi = rect_basis(0.4, 0.3, n_psi, unit_norm) if n_psi else phi
    ct = simply_supported_tensors(phi, n_psi)
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
    ct = simply_supported_tensors(rect_basis(0.4, 0.3, 30))
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
    ct = simply_supported_tensors(phi, n_psi=6)
    assert ct.n_phi == 3 and ct.n_psi == 6
    assert ct.zeta4 == pytest.approx(rect_basis(1.0, 1.0, 6).eigenvalues ** 2)


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


def test_tension_force_requires_unit_norm():
    spec = ModelSpec(MaterialParams(rho=1.0, E=1e9), String(L=1.0, A=1e-6), T0=800.0,
                     nonlinearity="tension-modulated")
    b = string_basis(1.0, 3, unit_norm=False)
    with pytest.raises(ValueError, match="unit-normalised"):
        simulate(spec, b, "sv", InitialCondition(np.zeros(3)), 0.001, 8000.0)


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
    _, ct = square_tensors
    assert np.all(vk_force(np.zeros(5), ct, 1.0) == 0.0)
    zero_h = CouplingTensors(H=np.zeros_like(ct.H), C=ct.C, zeta4=ct.zeta4)
    q = rng.normal(size=5)
    assert np.all(vk_force(q, zero_h, 1.0) == 0.0)


def naive_contraction(q, ct, gain):
    out = np.zeros(ct.n_phi)
    for s in range(ct.n_phi):
        for p in range(ct.n_phi):
            for a in range(ct.n_phi):
                for r in range(ct.n_phi):
                    for n in range(ct.n_psi):
                        out[s] += (
                            gain * ct.H[n, a, r] * ct.C[s, p, n] / ct.zeta4[n]
                            * q[p] * q[a] * q[r]
                        )
    return out


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=6))
def test_vk_force_matches_naive_quadruple_loop(seed, n_modes):
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(n_modes, n_modes, n_modes))
    C = rng.normal(size=(n_modes, n_modes, n_modes))
    ct = CouplingTensors(H=H, C=C, zeta4=rng.uniform(0.5, 3.0, size=n_modes))
    q = rng.normal(size=n_modes)
    fast = vk_force(q, ct, gain=1.7)
    slow = naive_contraction(q, ct, 1.7)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * max(1.0, np.max(np.abs(slow)))


def test_vk_contraction_class_matches_function(square_tensors, rng):
    _, ct = square_tensors
    hook = VkContraction(ct.H, ct.C, ct.zeta4, gain=2.2)
    q = rng.normal(size=5)
    assert hook(q) == pytest.approx(naive_contraction(q, ct, 2.2))


def physical_tensors():
    return simply_supported_tensors(rect_basis(0.4, 0.3, 12))


def dense_tensors():
    rng = np.random.default_rng(3)
    return CouplingTensors(H=rng.normal(size=(5, 7, 7)), C=rng.normal(size=(7, 7, 5)),
                           zeta4=rng.uniform(0.5, 3.0, size=5))


def row_pattern_tensors():
    # every row of either stage gets a zero pattern of its own
    rng = np.random.default_rng(4)
    H = rng.normal(size=(5, 7, 7)) * (rng.uniform(size=(5, 7, 7)) < 0.4)
    C = rng.normal(size=(7, 7, 5)) * (rng.uniform(size=(7, 7, 5)) < 0.4)
    return CouplingTensors(H=H, C=C, zeta4=rng.uniform(0.5, 3.0, size=5))


def jacobian_fd(f, q, h=0.5):
    """Jacobian of a cubic map by central differences; Richardson
    extrapolation over h and h/2 removes the h^2 term, the only one a cubic
    leaves, so the columns are exact up to rounding."""
    cols = []
    for e in np.eye(len(q)):
        d = [(f(q + s * e) - f(q - s * e)) / (2.0 * s) for s in (h, h / 2)]
        cols.append((4.0 * d[1] - d[0]) / 3.0)
    return np.array(cols).T


@pytest.mark.parametrize("tensors, groups", [
    (physical_tensors, (4, 4)), (dense_tensors, (1, 1)), (row_pattern_tensors, (5, 7)),
])
def test_blocked_contraction_matches_naive_and_jacobian(tensors, groups):
    ct = tensors()
    hook = VkContraction(ct.H, ct.C, ct.zeta4, gain=1.3)
    assert (hook.h_blocks.B.shape[0], hook.c_blocks.B.shape[0]) == groups
    rng = np.random.default_rng(5)
    q, v = rng.normal(size=(2, ct.n_phi))
    hook.begin(3)
    f = hook(q, 2)
    slow = naive_contraction(q, ct, 1.3)
    assert np.max(np.abs(f - slow)) <= 1e-12 * np.max(np.abs(slow))
    jt = hook.jt_vec(2, v, q)
    fd = jacobian_fd(hook, q).T @ v
    assert np.max(np.abs(jt - fd)) <= 1e-12 * np.max(np.abs(fd))


def test_blocked_contraction_keeps_parity_blocks_only():
    ct = simply_supported_tensors(rect_basis(0.4, 0.3, 60))
    hook = VkContraction(ct.H, ct.C, ct.zeta4, gain=1.0)
    dense = ct.n_phi**2 * ct.n_psi
    for blocks in (hook.h_blocks, hook.c_blocks):
        assert blocks.B.shape[0] == 4
        assert blocks.B.size < dense / 3


def test_vk_dimension_mismatch():
    ct = CouplingTensors(H=np.zeros((2, 3, 3)), C=np.zeros((3, 3, 2)), zeta4=np.ones(2))
    spec = ModelSpec(MaterialParams(rho=1000.0, E=7e6, nu=0.3), RectPlate(0.3, 0.3, 0.002),
                     nonlinearity="von-karman")
    with pytest.raises(ValueError, match="length"):
        simulate(spec, rect_basis(0.3, 0.3, 4), "sv", InitialCondition(np.zeros(4)),
                 0.001, 8000.0, tensors=ct)


# --- storage ---------------------------------------------------------------------------

def test_sparsify_drops_parity_dust(square_tensors):
    basis, ct = square_tensors
    quad = CouplingTensors(H=compute_H(basis, basis), C=compute_C(basis, basis),
                           zeta4=ct.zeta4)
    assert np.count_nonzero(quad.H == 0.0) == 0
    cleaned = sparsify(quad)
    assert np.array_equal(cleaned.H == 0.0, ct.H == 0.0)
    assert np.array_equal(cleaned.C == 0.0, ct.C == 0.0)
    nz = np.abs(quad.H) > 1e-10 * np.max(np.abs(quad.H))
    assert np.array_equal(cleaned.H[nz], quad.H[nz])


def test_sparsify_leaves_closed_form_unchanged():
    ct = simply_supported_tensors(rect_basis(0.4, 0.3, 30))
    cleaned = sparsify(ct)
    assert np.array_equal(cleaned.H, ct.H)
    assert np.array_equal(cleaned.C, ct.C)


def test_binary_round_trip(tmp_path, square_tensors):
    _, ct = square_tensors
    path = tmp_path / "tensors.bin"
    save_tensors(ct, path)
    again = load_tensors(path)
    assert np.array_equal(again.H, ct.H)
    assert np.array_equal(again.C, ct.C)
    assert np.array_equal(again.zeta4, ct.zeta4)
    with open(path, "rb") as f:
        head = f.read(5)
    assert head == b"VKCT<"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNKdata")
    with pytest.raises(ValueError, match="magic"):
        load_tensors(path)


def test_csv_export(tmp_path, square_tensors):
    _, ct = square_tensors
    path = tmp_path / "tensors.csv"
    tensors_to_csv(ct, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tensor,i0,i1,i2,value"
    assert len(lines) == 1 + ct.H.size + ct.C.size + ct.n_psi
