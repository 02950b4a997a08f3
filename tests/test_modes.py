import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modalsim.modes import (
    point_readout, project_function, project_point_excitation, reconstruct, rect_basis,
    required_grid_points, sample_modes, string_basis,
)


def test_string_first_mode():
    b = string_basis(1.0, 1)
    assert b.eigenvalues[0] == pytest.approx(np.pi**2)
    # ||sin(pi x)||^2 = 1/2 on [0, 1]
    assert b.shape_scale == pytest.approx(np.sqrt(2.0))


def test_string_eigenvalues_scaling():
    b = string_basis(2.0, 3)
    assert b.eigenvalues == pytest.approx([np.pi**2 / 4, np.pi**2, 9 * np.pi**2 / 4])


def test_string_forty_modes():
    b = string_basis(1.0, 40)
    assert b.count == 40
    assert np.all(np.diff(b.eigenvalues) > 0)


def test_rect_first_mode_and_tiebreak():
    b = rect_basis(1.0, 1.0, 4)
    assert b.eigenvalues[0] == pytest.approx(2 * np.pi**2)
    # degenerate pair 5 pi^2: label (1,2) sorts before (2,1)
    assert b.labels[1] == (1, 2) and b.labels[2] == (2, 1)
    assert b.eigenvalues[1] == b.eigenvalues[2] == pytest.approx(5 * np.pi**2)


def brute_force_rect(Lx, Ly, count, kmax=50):
    lam = [((m, n), (m * np.pi / Lx) ** 2 + (n * np.pi / Ly) ** 2)
           for m in range(1, kmax + 1) for n in range(1, kmax + 1)]
    lam.sort(key=lambda it: (it[1], it[0]))
    return lam[:count]


def test_rect_lattice_vs_exhaustive():
    b = rect_basis(2.0, 1.0, 10)
    expect = brute_force_rect(2.0, 1.0, 10)
    assert b.labels == tuple(l for l, _ in expect)
    assert b.eigenvalues == pytest.approx([v for _, v in expect])


@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.integers(min_value=1, max_value=60),
)
def test_rect_lattice_matches_brute_force(Lx, Ly, count):
    b = rect_basis(Lx, Ly, count)
    expect = brute_force_rect(Lx, Ly, count, kmax=80)
    assert b.eigenvalues == pytest.approx([v for _, v in expect])


def test_evaluate_string_midpoint():
    assert point_readout(string_basis(1.0, 1), 0.5).weights[0] == pytest.approx(np.sqrt(2.0))
    assert point_readout(string_basis(2.0, 1), 1.0).weights[0] == pytest.approx(1.0)


def test_boundary_values_are_exact_zeros():
    b = string_basis(1.0, 7)
    for x in (0.0, 1.0):
        assert np.all(point_readout(b, x).weights == 0.0)
    r = rect_basis(0.7, 0.4, 5)
    for p in ((0.0, 0.2), (0.7, 0.2), (0.3, 0.4)):
        assert np.all(point_readout(r, p).weights == 0.0)


def test_evaluate_plate_center():
    # unit norm: 2 sin(pi x) sin(pi y) on the unit square
    b = rect_basis(1.0, 1.0, 1)
    assert point_readout(b, (0.5, 0.5)).weights[0] == pytest.approx(2.0)


def test_out_of_domain_rejected():
    b = string_basis(1.0, 2)
    with pytest.raises(ValueError, match="outside"):
        point_readout(b, 1.5)
    r = rect_basis(1.0, 1.0, 2)
    with pytest.raises(ValueError, match="outside"):
        project_point_excitation(r, (0.5, -0.1))


def test_project_recovers_unit_vector():
    b = string_basis(1.0, 6)
    x = np.linspace(0.0, 1.0, 257)
    field = sample_modes(b, [x])[2]
    q = project_function(b, field, [x])
    expect = np.zeros(6)
    expect[2] = 1.0
    assert np.max(np.abs(q - expect)) < 1e-6


def test_point_gain_even_modes_exactly_zero_at_center():
    b = string_basis(1.0, 8)
    gains = project_point_excitation(b, 0.5)
    assert all(gains[m - 1] == 0.0 for m in (2, 4, 6, 8))


def test_triangular_pluck_matches_fourier_series():
    # closed-form sine coefficients of the unit-peak triangle on L = 1, in
    # coordinates of the unit-norm shapes sqrt(2) sin(m pi x)
    b = string_basis(1.0, 8)
    x = np.linspace(0.0, 1.0, 8193)
    x0 = 0.3
    tri = np.where(x <= x0, x / x0, (1.0 - x) / (1.0 - x0))
    q = project_function(b, tri, [x])
    m = np.arange(1, 9)
    expect = 2 * np.sin(m * np.pi * x0) / (m**2 * np.pi**2 * x0 * (1 - x0)) / np.sqrt(2.0)
    assert np.max(np.abs(q - expect)) < 1e-6


def test_orthogonality_on_fine_grid():
    b = rect_basis(0.8, 0.5, 6)
    x = np.linspace(0.0, 0.8, 513)
    y = np.linspace(0.0, 0.5, 513)
    shapes = sample_modes(b, [x, y])
    wx = np.full(513, x[1] - x[0]); wx[[0, -1]] /= 2
    wy = np.full(513, y[1] - y[0]); wy[[0, -1]] /= 2
    W = np.outer(wy, wx)
    gram = np.einsum("myx,nyx,yx->mn", shapes, shapes, W)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8


def test_projection_round_trip(rng):
    b = rect_basis(1.0, 0.7, 8)
    q = rng.normal(size=8)
    x = np.linspace(0.0, 1.0, 161)
    y = np.linspace(0.0, 0.7, 161)
    field = reconstruct(b, q, [x, y])
    assert np.max(np.abs(project_function(b, field, [x, y]) - q)) < 1e-6


def test_sampled_mode_satisfies_eigenvalue_problem():
    # centered-difference Laplacian converges to -lambda Phi at second order
    b = string_basis(1.0, 3)
    errs = []
    for n in (201, 401, 801):
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]
        phi = sample_modes(b, [x])[2]
        lap = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h**2
        errs.append(np.max(np.abs(lap + b.eigenvalues[2] * phi[1:-1])))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 1.9 and order2 > 1.9


def test_under_resolved_grid_rejected_with_requirement():
    b = string_basis(1.0, 12)
    need = required_grid_points(b)[0]
    x = np.linspace(0.0, 1.0, need - 5)
    with pytest.raises(ValueError, match=str(need)):
        project_function(b, np.zeros(need - 5), [x])


def test_point_readout_matches_reconstruction(rng):
    b = rect_basis(1.0, 1.0, 5)
    q = rng.normal(size=5)
    p = (0.31, 0.57)
    # unit norm: 2 sin(m pi x) sin(n pi y) on the unit square
    direct = sum(qi * 2.0 * np.sin(m * np.pi * p[0]) * np.sin(n * np.pi * p[1])
                 for qi, (m, n) in zip(q, b.labels))
    assert q @ point_readout(b, p).weights == pytest.approx(direct)
