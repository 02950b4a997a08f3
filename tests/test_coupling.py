import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalsim.coupling import (
    CouplingTensors, GridField, TensionModulation, VkContraction, compute_C, compute_H,
    derive_C_from_H, load_tensors, save_tensors, simply_supported_tensors, sparsify,
    tensors_to_csv, vk_bilinear, vk_operator,
)
from modalsim.integrators import InitialCondition, simulate
from modalsim.model import MaterialParams, ModelSpec, RectPlate, String
from modalsim.modes import mode_second_derivatives, rect_basis, reconstruct, string_basis


def tension_force(q, basis, tau):
    return TensionModulation(basis.eigenvalues, tau)(np.asarray(q, dtype=float))


def vk_force(q, ct, gain):
    return VkContraction(ct.H, ct.C, ct.zeta4, gain)(np.asarray(q, dtype=float))


@pytest.fixture(scope="module")
def square_tensors():
    basis = rect_basis(1.0, 1.0, 5)
    return basis, simply_supported_tensors(basis)


# --- bilinear operator ---------------------------------------------------------

def test_vk_operator_vanishes_on_linear_fields(rng):
    x = np.linspace(0.0, 1.0, 33)
    X, Y = np.meshgrid(x, x)
    lin = GridField(0.8 * X - 0.3 * Y + 0.2, x[1] - x[0], x[1] - x[0])
    g = GridField(np.sin(np.pi * X) * np.sin(2 * np.pi * Y), x[1] - x[0], x[1] - x[0])
    out = vk_operator(lin, g)
    assert np.max(np.abs(out.values)) < 1e-8 * np.max(np.abs(g.values))


def test_vk_operator_value_at_plate_center():
    # f = g = sin(pi x) sin(pi y): value 2 pi^4 at the center
    basis = rect_basis(1.0, 1.0, 1, unit_norm=False)
    X = np.array([[0.5]])
    Y = np.array([[0.5]])
    fxx, fyy, fxy = mode_second_derivatives(basis, 0, X, Y)
    val = vk_bilinear(fxx, fyy, fxy, fxx, fyy, fxy)[0, 0]
    assert val == pytest.approx(2 * np.pi**4, rel=1e-12)


@given(st.integers(min_value=0, max_value=10**6))
def test_vk_operator_symmetric_on_sine_sums(seed):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, 49)
    X, Y = np.meshgrid(x, x)
    h = x[1] - x[0]

    def rand_field():
        v = np.zeros_like(X)
        for _ in range(3):
            m, n = rng.integers(1, 4, size=2)
            v += rng.normal() * np.sin(m * np.pi * X) * np.sin(n * np.pi * Y)
        return GridField(v, h, h)

    f, g = rand_field(), rand_field()
    fg = vk_operator(f, g).values
    gf = vk_operator(g, f).values
    assert np.max(np.abs(fg - gf)) <= 1e-9 * max(np.max(np.abs(fg)), 1.0)


def test_vk_operator_rejects_mismatched_grids():
    a = GridField(np.zeros((8, 8)), 0.1, 0.1)
    b = GridField(np.zeros((8, 9)), 0.1, 0.1)
    with pytest.raises(ValueError, match="mismatch"):
        vk_operator(a, b)


# --- coupling tensors ------------------------------------------------------------

def test_H_swap_symmetry_is_exact(square_tensors):
    _, ct = square_tensors
    assert np.array_equal(ct.H, np.transpose(ct.H, (0, 2, 1)))


def test_H_parity_selection_rules(square_tensors):
    basis, ct = square_tensors
    labs = np.asarray(basis.labels)
    scale = np.max(np.abs(ct.H))
    for k in range(5):
        for i in range(5):
            for j in range(5):
                msum = labs[k, 0] + labs[i, 0] + labs[j, 0]
                nsum = labs[k, 1] + labs[i, 1] + labs[j, 1]
                if msum % 2 == 0 or nsum % 2 == 0:
                    assert abs(ct.H[k, i, j]) < 1e-10 * scale


def test_H_stable_under_grid_refinement(square_tensors):
    basis, ct = square_tensors
    fine = compute_H(basis, basis, ppw=32)
    nz = np.abs(fine) > 1e-9 * np.max(np.abs(fine))
    rel = np.abs(ct.H[nz] - fine[nz]) / np.abs(fine[nz])
    assert np.max(rel) < 1e-6


def test_H_first_entry_against_finer_quadrature():
    basis = rect_basis(1.0, 1.0, 1)
    h16 = compute_H(basis, basis, ppw=16)[0, 0, 0]
    h64 = compute_H(basis, basis, ppw=64)[0, 0, 0]
    assert h16 == pytest.approx(h64, rel=1e-6)


def test_C_direct_quadrature_matches_permutation_identity(square_tensors):
    basis, ct = square_tensors
    direct = compute_C(basis, basis)
    scale = np.max(np.abs(ct.H))
    assert np.max(np.abs(direct - ct.C)) < 1e-8 * scale


def test_derive_C_rejects_different_bases():
    phi = rect_basis(1.0, 1.0, 4)
    psi = rect_basis(1.0, 1.0, 6)
    H = compute_H(phi, psi)
    with pytest.raises(ValueError, match="identical"):
        derive_C_from_H(H, phi, psi)


def test_resolution_floor_rejected():
    basis = rect_basis(1.0, 1.0, 3)
    with pytest.raises(ValueError, match="below 8"):
        compute_H(basis, basis, ppw=4)


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
    return sparsify(simply_supported_tensors(rect_basis(0.4, 0.3, 12)))


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
    ct = sparsify(simply_supported_tensors(rect_basis(0.4, 0.3, 60)))
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
    _, ct = square_tensors
    cleaned = sparsify(ct)
    assert np.count_nonzero(cleaned.H == 0.0) > 0
    nz = np.abs(ct.H) > 1e-10 * np.max(np.abs(ct.H))
    assert np.array_equal(cleaned.H[nz], ct.H[nz])


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
