"""Analytical eigenpairs for fixed strings, fixed membranes, and simply
supported plates, plus projection/readout between physical and modal space.

All bases solve  laplacian(Phi) = -lambda * Phi  with sine shapes:

    string    Phi_m(x)    = sin(m pi x / L),                lambda_m  = (m pi / L)^2
    rectangle Phi_mn(x,y) = sin(m pi x / Lx) sin(n pi y/Ly), lambda_mn = (m pi/Lx)^2 + (n pi/Ly)^2

The biharmonic eigenvalue of a simply supported plate is lambda^2, so the same
basis serves membranes and plates. Modes are ordered by ascending eigenvalue
with lexicographic tie-break on the index label. Every shape is scaled to unit
L2 norm, ||Phi|| = 1, so modal coordinates are amplitudes of unit-norm shapes
and projections need no norm division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def _sinpi(t):
    """sin(pi*t) with exact zeros at integer t (and full accuracy for large t)."""
    t = np.asarray(t, dtype=float)
    n = np.floor(t)
    f = t - n
    s = np.where(f == 0.0, 0.0, np.sin(np.pi * f))
    return np.where(np.mod(n, 2) == 0, s, -s)


@dataclass(frozen=True)
class ModeBasis:
    """Ordered eigenpairs of one domain.

    labels      : tuple of (m,) or (m, n) integer indices, 1-based
    eigenvalues : ascending Laplacian eigenvalues (1/m^2)
    """

    kind: str  # "string" | "rect"
    lengths: Tuple[float, ...]
    labels: Tuple[Tuple[int, ...], ...]
    eigenvalues: np.ndarray

    @property
    def count(self) -> int:
        return len(self.labels)

    @property
    def shape_scale(self) -> float:
        """Factor that scales the sine shapes to unit norm: 1 / sqrt(L/2) or
        1 / sqrt(Lx Ly / 4)."""
        return 1.0 / math.sqrt(math.prod(self.lengths) / 2.0 ** len(self.lengths))

    def same_domain(self, other: "ModeBasis") -> bool:
        return self.kind == other.kind and self.lengths == other.lengths


def string_basis(L: float, count: int) -> ModeBasis:
    """First `count` modes of a fixed-fixed string of length L."""
    if L <= 0:
        raise ValueError("L must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    m = np.arange(1, count + 1)
    lam = (m * np.pi / L) ** 2
    return ModeBasis(
        kind="string",
        lengths=(L,),
        labels=tuple((int(k),) for k in m),
        eigenvalues=lam,
    )


def rect_basis(Lx: float, Ly: float, count: int) -> ModeBasis:
    """The `count` smallest-eigenvalue sine-product modes of an Lx x Ly rectangle.

    Serves fixed membranes and simply supported plates alike (the plate's
    biharmonic eigenvalue is the square of the reported Laplacian eigenvalue).
    """
    if Lx <= 0 or Ly <= 0:
        raise ValueError("Lx and Ly must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")

    def lam_of(m, n):
        return (m * np.pi / Lx) ** 2 + (n * np.pi / Ly) ** 2

    K = max(2, int(math.ceil(math.sqrt(count))) + 1)
    while True:
        cand = [((m, n), lam_of(m, n)) for m in range(1, K + 1) for n in range(1, K + 1)]
        cand.sort(key=lambda it: (it[1], it[0]))
        if len(cand) >= count:
            cutoff = cand[count - 1][1]
            # every unexplored lattice point has m > K or n > K
            boundary = min(lam_of(K + 1, 1), lam_of(1, K + 1))
            if boundary > cutoff:
                break
        K *= 2

    chosen = cand[:count]
    return ModeBasis(
        kind="rect",
        lengths=(Lx, Ly),
        labels=tuple((int(m), int(n)) for (m, n), _ in chosen),
        eigenvalues=np.array([l for _, l in chosen]),
    )


def _check_point(basis: ModeBasis, point) -> Tuple[float, ...]:
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if basis.kind == "string":
        if p.shape != (1,):
            raise ValueError("string domain expects a scalar point")
        if not (0.0 <= p[0] <= basis.lengths[0]):
            raise ValueError(f"point {p[0]} outside domain [0, {basis.lengths[0]}]")
    else:
        if p.shape != (2,):
            raise ValueError("rectangular domain expects an (x, y) point")
        for c, L, name in zip(p, basis.lengths, "xy"):
            if not (0.0 <= c <= L):
                raise ValueError(f"point {name}={c} outside domain [0, {L}]")
    return tuple(p)


def _point_values(basis: ModeBasis, point) -> np.ndarray:
    """Shape values Phi_mu(p) at one point: sample_modes on a one-point grid."""
    p = _check_point(basis, point)
    return sample_modes(basis, [np.array([c]) for c in p]).reshape(basis.count)


@dataclass(frozen=True)
class PointReadout:
    """Per-mode weights mapping modal amplitudes to displacement at one point."""

    weights: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("readout weights must be finite")


def point_readout(basis: ModeBasis, point) -> PointReadout:
    """Physical displacement readout: weights Phi_mu(p)."""
    return PointReadout(weights=_point_values(basis, point))


def project_point_excitation(basis: ModeBasis, point) -> np.ndarray:
    """Modal gains of a point force at p: Phi_mu(p) (the shapes have unit norm)."""
    return _point_values(basis, point)


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


def sample_modes(basis: ModeBasis, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Shape values on a uniform grid.

    Returns [n_modes, nx] for strings or [n_modes, ny, nx] for rectangles.
    """
    labs = np.asarray(basis.labels, dtype=float)
    if basis.kind == "string":
        (x,) = axes
        vals = _sinpi(np.outer(labs[:, 0], x / basis.lengths[0]))
    else:
        x, y = axes
        sx = _sinpi(labs[:, 0][:, None] * (x / basis.lengths[0])[None, :])  # [M, nx]
        sy = _sinpi(labs[:, 1][:, None] * (y / basis.lengths[1])[None, :])  # [M, ny]
        vals = sy[:, :, None] * sx[:, None, :]  # [M, ny, nx]
    return vals * basis.shape_scale


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

