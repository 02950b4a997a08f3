from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modalsim.model import (
    MaterialParams, ModelSpec, RectMembrane, RectPlate, String, ValidationError,
    derive_normalized, derive_tau, spec_from_json, spec_to_json, validate,
)


def string_spec(rho=1.0, E=2.0, L=1.0, A=1.0, T0=1.0, D=None, **kw):
    return ModelSpec(MaterialParams(rho=rho, E=E, **kw), String(L=L, A=A), T0=T0, D=D)


def test_tau_string_unit_inputs():
    assert derive_tau(string_spec()) == pytest.approx(1.0)


def test_tau_membrane_unit_inputs():
    spec = ModelSpec(MaterialParams(rho=1.0, E=2.0, nu=0.0), RectMembrane(1.0, 1.0, 1.0), T0=1.0)
    assert derive_tau(spec) == pytest.approx(1.0)


def test_tau_guitar_string():
    # E = 200 GPa steel string, r = 0.4 mm, L = 65 cm
    spec = string_spec(rho=0.01, E=2e11, L=0.65, A=5.0265e-7, T0=60.0)
    assert derive_tau(spec) == pytest.approx(7.7331e4, rel=1e-4)


def test_tau_rejects_plates():
    spec = ModelSpec(MaterialParams(rho=1.0, E=1.0), RectPlate(1.0, 1.0, 0.01), T0=1.0)
    with pytest.raises(ValueError, match="von Karman"):
        derive_tau(spec)


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-2, max_value=1e2))
def test_tau_homogeneous_in_E(E, L):
    s1 = string_spec(E=E, L=L, A=0.3)
    s2 = string_spec(E=2 * E, L=L, A=0.3)
    assert derive_tau(s2) == pytest.approx(2 * derive_tau(s1))
    m1 = ModelSpec(MaterialParams(rho=1.0, E=E, nu=0.3), RectMembrane(L, 2 * L, 0.01), T0=1.0)
    m2 = ModelSpec(MaterialParams(rho=1.0, E=2 * E, nu=0.3), RectMembrane(L, 2 * L, 0.01), T0=1.0)
    assert derive_tau(m2) == pytest.approx(2 * derive_tau(m1))


def test_normalized_basic():
    spec = string_spec(rho=2.0, T0=0.0, D=10.0)
    par = derive_normalized(spec)
    assert par.d_hat == pytest.approx(5.0)
    assert par.t0_hat == 0.0


def test_normalized_degenerate_tension():
    par = derive_normalized(string_spec(rho=1.0, T0=0.0, D=1.0))
    assert par.t0_hat == 0.0 and par.d_hat == pytest.approx(1.0)


def test_normalized_plate_keeps_flag_and_zero_tau():
    spec = ModelSpec(
        MaterialParams(rho=1000.0, E=1e9, nu=0.3), RectPlate(0.5, 0.4, 0.01),
        T0=10.0, nonlinearity="von-karman",
    )
    par = derive_normalized(spec)
    assert par.tau_hat == 0.0
    assert par.vk_gain == 1e9 / (2.0 * 1000.0)
    assert validate(spec).nonlinearity == "von-karman"


def test_normalized_tau_matches_derive_tau():
    spec = string_spec(rho=0.01, E=2e11, L=0.65, A=5.0265e-7, T0=60.0)
    par = derive_normalized(replace(spec, nonlinearity="tension-modulated"))
    assert par.tau_hat == pytest.approx(derive_tau(spec) / 0.01)
    assert par.vk_gain == 0.0
    # the linear model uses neither coefficient
    assert derive_normalized(spec).tau_hat == 0.0


@given(st.floats(min_value=1e-2, max_value=1e2))
def test_normalized_density_scaling(c):
    base = string_spec(rho=1.0, T0=3.0, D=2.0)
    scaled = string_spec(rho=c, T0=3.0, D=2.0)
    p0, p1 = derive_normalized(base), derive_normalized(scaled)
    assert p1.d_hat == pytest.approx(p0.d_hat / c)
    assert p1.t0_hat == pytest.approx(p0.t0_hat / c)


def test_validate_negative_rho():
    with pytest.raises(ValidationError, match="rho must be positive"):
        validate(string_spec(rho=-1.0))


def test_validate_degenerate_dispersion():
    with pytest.raises(ValidationError, match="degenerate dispersion"):
        validate(string_spec(T0=0.0, D=None))


def test_validate_reports_all_violations_at_once():
    spec = ModelSpec(
        MaterialParams(rho=-1.0, E=-2.0, nu=0.7), String(L=-1.0, A=1.0), T0=-5.0
    )
    with pytest.raises(ValidationError) as ei:
        validate(spec)
    msgs = ei.value.errors
    assert len(msgs) >= 5
    assert any("rho" in m for m in msgs)
    assert any("nu" in m for m in msgs)
    assert any("T0" in m for m in msgs)
    assert any("L " in m or "L must" in m for m in msgs)


def test_validate_pass_through_and_idempotent():
    spec = string_spec()
    v1 = validate(spec)
    assert v1.material == spec.material and v1.T0 == spec.T0
    assert validate(v1) == v1


@given(
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=1e-4, max_value=10.0),
)
def test_validate_idempotent_random(rho, T0, D):
    spec = string_spec(rho=rho, T0=T0, D=D)
    assert validate(validate(spec)) == validate(spec)


def test_vk_flag_requires_plate():
    spec = ModelSpec(MaterialParams(rho=1.0, E=1.0), String(1.0, 1.0), T0=1.0,
                     nonlinearity="von-karman")
    with pytest.raises(ValidationError, match="rect-plate"):
        validate(spec)


def test_plate_bending_stiffness_derived():
    m = MaterialParams(rho=1000.0, E=7e10, nu=0.33)
    spec = validate(ModelSpec(m, RectPlate(0.5, 0.4, 0.002)))
    assert spec.D == pytest.approx(7e10 * 0.002**3 / (12 * (1 - 0.33**2)))
    direct = validate(ModelSpec(m, RectPlate(0.5, 0.4, 0.002), D=3.7))
    assert direct.D == 3.7


def test_membrane_default_bending_stiffness_is_zero():
    spec = validate(ModelSpec(MaterialParams(rho=1000.0, E=1e9, nu=0.3),
                              RectMembrane(0.5, 0.4, 0.001), T0=100.0))
    assert spec.D == 0.0


def test_effective_density_conventions():
    s = string_spec(rho=0.01)
    assert s.effective_density == 0.01
    assert "kg/m" in s.density_convention
    p = ModelSpec(MaterialParams(rho=1000.0, E=1e9), RectPlate(0.5, 0.4, 0.002), T0=1.0)
    assert p.effective_density == pytest.approx(2.0)
    assert "thickness" in p.density_convention


def test_json_round_trip():
    spec = validate(ModelSpec(
        MaterialParams(rho=1000.0, E=7e10, nu=0.33, d1=0.5, d3=1e-4),
        RectPlate(0.5, 0.4, 0.002), T0=10.0, nonlinearity="von-karman",
    ))
    again = spec_from_json(spec_to_json(spec))
    assert validate(again) == spec
