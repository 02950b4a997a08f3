"""Physical description of one instrument: material, geometry, tension, stiffness.

All quantities are SI. The density convention differs by geometry: strings use
linear density rho (kg/m); membranes and plates store the volumetric density
(kg/m^3) and the equations of motion use the folded surface density rho*h
(kg/m^2). The convention actually in effect is recorded on the validated spec
as ``density_convention`` so downstream code never has to guess.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Optional, Union

NONLINEARITY_KINDS = ("linear", "tension-modulated", "von-karman")


class ValidationError(ValueError):
    """Carries the complete list of violated constraints, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class MaterialParams:
    """Material constants.

    rho : density (kg/m^3 for membranes/plates, kg/m for strings)
    E   : Young's modulus (Pa)
    nu  : Poisson's ratio
    d1  : frequency-independent damping coefficient
    d3  : frequency-dependent damping coefficient
    """

    rho: float
    E: float = 0.0
    nu: float = 0.3
    d1: float = 0.0
    d3: float = 0.0


@dataclass(frozen=True)
class String:
    """Fixed-fixed string: length L (m), cross-sectional area A (m^2)."""

    L: float
    A: float


@dataclass(frozen=True)
class RectMembrane:
    """Rectangular membrane with fixed edges: side lengths Lx, Ly, thickness h (m)."""

    Lx: float
    Ly: float
    h: float


@dataclass(frozen=True)
class RectPlate:
    """Simply supported rectangular plate: side lengths Lx, Ly, thickness h (m)."""

    Lx: float
    Ly: float
    h: float


Geometry = Union[String, RectMembrane, RectPlate]

_GEOMETRY_KINDS = {"string": String, "rect-membrane": RectMembrane, "rect-plate": RectPlate}


@dataclass(frozen=True)
class ModelSpec:
    """One instrument: material + geometry + tension T0 + bending stiffness D.

    D may be given directly or left None; validation derives it for plates from
    the standard formula D = E h^3 / (12 (1 - nu^2)). A direct value wins.
    Strings and membranes default to D = 0 when not given.
    """

    material: MaterialParams
    geometry: Geometry
    T0: float = 0.0
    D: Optional[float] = None
    nonlinearity: str = "linear"

    @property
    def density_convention(self) -> str:
        if isinstance(self.geometry, String):
            return "linear (kg/m)"
        return "volumetric x thickness (kg/m^2 effective)"

    @property
    def effective_density(self) -> float:
        """Density as it appears in the equation of motion (rho for strings, rho*h for 2-D)."""
        if isinstance(self.geometry, String):
            return self.material.rho
        return self.material.rho * self.geometry.h


@dataclass(frozen=True)
class NormalizedParams:
    """The model's coefficients under the time-domain fit's names: d_hat =
    D / rho_eff, t0_hat = T0 / rho_eff, and the force scales tau_hat =
    derive_tau / rho_eff and vk_gain = E / (2 rho), rho volumetric, each 0
    unless the spec's nonlinearity uses it."""

    d_hat: float
    t0_hat: float
    tau_hat: float = 0.0
    vk_gain: float = 0.0


def _resolved_bending_stiffness(spec: ModelSpec) -> float:
    if spec.D is not None:
        return spec.D
    g = spec.geometry
    if isinstance(g, RectPlate):
        m = spec.material
        return m.E * g.h**3 / (12.0 * (1.0 - m.nu**2))
    return 0.0


def validate(spec: ModelSpec) -> ModelSpec:
    """Check every invariant at once; return the spec with D resolved.

    Raises ValidationError carrying all violations. Idempotent: validating a
    validated spec returns an equal spec.
    """
    errors = []
    m, g = spec.material, spec.geometry
    if not m.rho > 0:
        errors.append("rho must be positive")
    if m.E < 0:
        errors.append("E must be non-negative")
    if not (0.0 <= m.nu < 0.5):
        errors.append("nu must satisfy 0 <= nu < 0.5")
    if m.d1 < 0:
        errors.append("d1 must be non-negative")
    if m.d3 < 0:
        errors.append("d3 must be non-negative")

    if isinstance(g, String):
        if not g.L > 0:
            errors.append("L must be positive")
        if not g.A > 0:
            errors.append("A must be positive")
    elif isinstance(g, (RectMembrane, RectPlate)):
        if not g.Lx > 0:
            errors.append("Lx must be positive")
        if not g.Ly > 0:
            errors.append("Ly must be positive")
        if not g.h > 0:
            errors.append("h must be positive")
    else:
        errors.append(f"unknown geometry type {type(g).__name__}")

    if spec.T0 < 0:
        errors.append("T0 must be non-negative")
    if spec.D is not None and spec.D < 0:
        errors.append("D must be non-negative")

    d_res = None
    if not errors:
        d_res = _resolved_bending_stiffness(spec)
        if spec.T0 <= 0 and d_res <= 0:
            errors.append("degenerate dispersion: T0 and D are both zero")

    if spec.nonlinearity not in NONLINEARITY_KINDS:
        errors.append(f"nonlinearity must be one of {NONLINEARITY_KINDS}")
    elif spec.nonlinearity == "von-karman" and not isinstance(g, RectPlate):
        errors.append("von-karman nonlinearity requires rect-plate geometry")
    elif spec.nonlinearity == "tension-modulated" and isinstance(g, RectPlate):
        errors.append("tension-modulated nonlinearity requires string or membrane geometry")

    if errors:
        raise ValidationError(errors)
    return replace(spec, D=d_res)


def derive_tau(spec: ModelSpec) -> float:
    """Tension-modulation coefficient: E A / (2 L) for strings,
    E h / (2 Lx Ly (1 - nu^2)) for membranes."""
    g, m = spec.geometry, spec.material
    if isinstance(g, String):
        return m.E * g.A / (2.0 * g.L)
    if isinstance(g, RectMembrane):
        return m.E * g.h / (2.0 * g.Lx * g.Ly * (1.0 - m.nu**2))
    raise ValueError(
        "tau is defined for strings and membranes only; "
        "plate nonlinearity is the von Karman coupling"
    )


def derive_normalized(spec: ModelSpec) -> NormalizedParams:
    """The density-normalised coefficients of the validated spec's model."""
    spec = validate(spec)
    rho = spec.effective_density
    tau_hat = vk_gain = 0.0
    if spec.nonlinearity == "tension-modulated":
        tau_hat = derive_tau(spec) / rho
    elif spec.nonlinearity == "von-karman":
        vk_gain = spec.material.E / (2.0 * spec.material.rho)
    return NormalizedParams(d_hat=spec.D / rho, t0_hat=spec.T0 / rho, tau_hat=tau_hat,
                            vk_gain=vk_gain)


# --- JSON round trip -------------------------------------------------------

def _geometry_kind(g: Geometry) -> str:
    for kind, cls in _GEOMETRY_KINDS.items():
        if isinstance(g, cls):
            return kind
    raise ValueError(f"unknown geometry type {type(g).__name__}")


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "material": asdict(spec.material),
        "geometry": {"kind": _geometry_kind(spec.geometry), **asdict(spec.geometry)},
        "T0": spec.T0,
        "D": spec.D,
        "nonlinearity": spec.nonlinearity,
        "density_convention": spec.density_convention,
    }


def spec_from_dict(d: dict) -> ModelSpec:
    geo = dict(d["geometry"])
    kind = geo.pop("kind")
    if kind not in _GEOMETRY_KINDS:
        raise ValidationError([f"unknown geometry kind '{kind}'"])
    return ModelSpec(
        material=MaterialParams(**d["material"]),
        geometry=_GEOMETRY_KINDS[kind](**geo),
        T0=d.get("T0", 0.0),
        D=d.get("D"),
        nonlinearity=d.get("nonlinearity", "linear"),
    )


def spec_to_json(spec: ModelSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2)


def spec_from_json(text: str) -> ModelSpec:
    return spec_from_dict(json.loads(text))
