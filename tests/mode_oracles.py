"""Test oracles on a uniform grid: modal projection by trapezoidal quadrature
and reconstruction of the physical field from modal coordinates. The package
itself needs only point values (modes.sample_modes on a one-point grid)."""

from typing import Sequence, Tuple

import numpy as np

from modalsim.modes import ModeBasis, sample_modes


POINTS_PER_HALFWAVE = 8  # per shortest mode half-wavelength, as project_function requires


def required_grid_points(basis: ModeBasis,
                         points_per_halfwave: int = POINTS_PER_HALFWAVE) -> Tuple[int, ...]:
    """Minimum uniform grid points per axis at points_per_halfwave per shortest half-wave."""
    return tuple(points_per_halfwave * int(m) + 1 for m in np.max(basis.labels, axis=0))


def _check_grid_resolution(basis: ModeBasis, axes: Sequence[np.ndarray]):
    for ax, n_need, name in zip(axes, required_grid_points(basis), "xy"):
        if len(ax) < n_need:
            raise ValueError(
                f"grid too coarse along {name}: {len(ax)} points, requires at least "
                f"{n_need} ({POINTS_PER_HALFWAVE} per shortest mode half-wavelength)"
            )


def _trapezoid_weights(ax: np.ndarray) -> np.ndarray:
    dx = ax[1] - ax[0]
    w = np.full(len(ax), dx)
    w[0] = w[-1] = dx / 2.0
    return w


def project_function(basis: ModeBasis, values: np.ndarray,
                     axes: Sequence[np.ndarray]) -> np.ndarray:
    """Modal coordinates <f, Phi_mu> by trapezoidal quadrature.

    `values` is sampled on the uniform grid given by `axes` ((x,) for strings,
    (x, y) for rectangles with values indexed [y, x]). Rejects grids with fewer
    than POINTS_PER_HALFWAVE points per shortest mode half-wavelength.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    _check_grid_resolution(basis, axes)
    shapes = sample_modes(basis, axes)
    if basis.kind == "string":
        w = _trapezoid_weights(axes[0])
        return shapes @ (np.asarray(values) * w)
    wx = _trapezoid_weights(axes[0])
    wy = _trapezoid_weights(axes[1])
    weighted = np.asarray(values) * np.outer(wy, wx)
    return np.einsum("myx,yx->m", shapes, weighted)


def reconstruct(basis: ModeBasis, q: np.ndarray, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Physical field from modal coordinates on a grid: sum_mu q_mu Phi_mu."""
    shapes = sample_modes(basis, [np.asarray(a, dtype=float) for a in axes])
    return np.tensordot(np.asarray(q), shapes, axes=(0, 0))

