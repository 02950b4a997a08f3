"""Analytical eigenpairs for fixed strings, fixed membranes, and simply
supported plates, plus the shape values that point readouts and point forces
use.

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
