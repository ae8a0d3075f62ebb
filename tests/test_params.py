"""Parameter construction, unit conversion and invariant checks."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.constants as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from magcp import Drude, ParticleSpec, PerfectConductor, Plasma, \
    QuadratureConfig, build_particle, constants, decay_breakdown, \
    delta_gamma_m, from_dimensionless, gravity_force_dimensionless, \
    to_dimensionless
from magcp.params import E_A0, EnvironmentSpec, Geometry, \
    HierarchyViolation, NonPositiveInput, SublevelOutOfRange, UnknownKind, \
    eta_from_dipole, gamma0_from_dipole

from conftest import OMEGA_E, OMEGA_M, make_particle


def test_reference_wavenumber():
    # k_e = omega_e / c for omega_e = 2 pi x 10^15 rad/s
    p = make_particle()
    assert p.k_e == pytest.approx(2.0958450e7, rel=1e-6)


def test_frequency_ratio():
    p = make_particle()
    assert p.omega_tilde == pytest.approx(1e-5, rel=1e-12, abs=0.0)


def test_eta_equals_four_alpha_squared():
    # |d| = e a0 / 2 makes eta exactly (2 alpha)^2
    p = make_particle()
    assert p.eta == pytest.approx(4.0 * sc.alpha**2, rel=1e-12, abs=0.0)
    assert p.eta == pytest.approx(2.1300541779078e-4, rel=1e-10, abs=0.0)


def test_gamma0_from_dipole_definition():
    d = sc.e * sc.physical_constants["Bohr radius"][0] / 2.0
    k_e = OMEGA_E / sc.c
    expected = d**2 * k_e**3 / (3.0 * math.pi * sc.epsilon_0 * sc.hbar)
    assert gamma0_from_dipole(d, OMEGA_E) == pytest.approx(expected,
                                                           rel=1e-12)


def test_constants_are_scipy_codata():
    # written out in magcp.constants rather than imported from
    # scipy.constants; these are the CODATA 2022 values scipy gives
    assert (constants.c, constants.hbar, constants.e, constants.epsilon_0,
            constants.fine_structure) == (sc.c, sc.hbar, sc.e, sc.epsilon_0,
                                          sc.fine_structure)
    assert constants.bohr_radius == sc.physical_constants["Bohr radius"][0]
    assert constants.atomic_mass == \
        sc.physical_constants["atomic mass constant"][0]


def test_gamma0_override_and_hz_switch():
    # a quote overrides nothing, and the retired Hz switch is refused: a
    # quote is in rad/s
    derived = gamma0_from_dipole(0.5 * E_A0, OMEGA_E)
    assert _particle(gamma_0=1.8e7).gamma_0_free == derived
    with pytest.raises(TypeError, match="gamma_0_in_hz"):
        _particle(gamma_0=derived / (2.0 * math.pi), gamma_0_in_hz=True)


def test_gamma0_quote_checked_against_dipole():
    # the test particle quotes 1.8e7 rad/s, 4.25 % below its dipole's
    # rate; the same rate written in Hz is about 6 times off
    derived = gamma0_from_dipole(0.5 * E_A0, OMEGA_E)
    assert derived == pytest.approx(1.880e7, rel=1e-3)
    assert _particle(gamma_0=1.8e7).gamma_0_free == derived
    for quote in (derived / (2.0 * math.pi), 0.94 * derived,
                  1.06 * derived, -4.0):
        with pytest.raises(ValueError, match="gamma_0"):
            _particle(gamma_0=quote)


def test_dimensionless_units_use_dipole_gamma0():
    p = make_particle()
    unit = sc.hbar * gamma0_from_dipole(p.dipole_moment, p.omega_e)
    assert from_dimensionless(p, 2.5, "potential") == 2.5 * unit


def test_eta_independent_of_gamma0_override():
    d = sc.e * sc.physical_constants["Bohr radius"][0] / 2.0
    assert make_particle().eta == pytest.approx(eta_from_dipole(d),
                                                rel=1e-12, abs=0.0)


# the spin-flip rate is the one result that takes a sublevel
FLIP_ARGS = (PerfectConductor(), Geometry(1e-9), QuadratureConfig())


def test_default_sublevel_is_stretched_negative():
    p = make_particle(spin=7.0)
    value, res = delta_gamma_m(p, *FLIP_ARGS)
    assert (value, res.evaluations) == (0.0, 0)
    assert delta_gamma_m(p, *FLIP_ARGS, m_s=-7.0)[0] == 0.0


def test_sublevel_bounds_enforced():
    p = make_particle(spin=3.0)
    for m_s in (7.0, 3.5, -3.5):
        with pytest.raises(SublevelOutOfRange):
            delta_gamma_m(p, *FLIP_ARGS, m_s=m_s)
    with pytest.raises(SublevelOutOfRange):
        decay_breakdown(p, *FLIP_ARGS, m_s=-5.0)


def test_hierarchy_violation_rejected():
    with pytest.raises(HierarchyViolation):
        build_particle(omega_e=OMEGA_M, omega_m=OMEGA_E, spin=1,
                       dipole_moment_au=0.5)


def test_nonpositive_inputs_rejected():
    with pytest.raises(NonPositiveInput):
        build_particle(omega_e=-1.0, omega_m=OMEGA_M, spin=1,
                       dipole_moment_au=0.5)
    with pytest.raises(NonPositiveInput):
        make_particle(spin=-1.0)


def _particle(**over):
    return build_particle(**{"omega_e": OMEGA_E, "omega_m": OMEGA_M,
                             "spin": 1.0, "dipole_moment_au": 0.5, **over})


NON_FINITE_FIELDS = {
    "Geometry.z0": (lambda x: Geometry(x), NonPositiveInput),
    "EnvironmentSpec.g": (lambda x: EnvironmentSpec(g=x), NonPositiveInput),
    **{f"build_particle.{name}": (lambda x, name=name: _particle(**{name: x}),
                                  NonPositiveInput)
       for name in ("omega_e", "omega_m", "dipole_moment_au",
                    "mass_per_spin", "gyro_ratio", "spin", "gamma_0")},
    "delta_gamma_m.m_s": (lambda x: delta_gamma_m(make_particle(spin=3.0),
                                                  *FLIP_ARGS, m_s=x),
                          SublevelOutOfRange),
    "QuadratureConfig.rel_tol": (lambda x: QuadratureConfig(rel_tol=x),
                                 ValueError),
    "QuadratureConfig.abs_tol": (lambda x: QuadratureConfig(abs_tol=x),
                                 ValueError),
    "QuadratureConfig.tail_decades": (
        lambda x: QuadratureConfig(tail_decades=x), ValueError),
    "Drude.omega_p": (lambda x: Drude(omega_p=x, gamma=1e14), ValueError),
    "Drude.gamma": (lambda x: Drude(omega_p=1.36e16, gamma=x), ValueError),
    "Plasma.omega_p": (lambda x: Plasma(omega_p=x), ValueError),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_non_finite_inputs_rejected(field, value):
    # every comparison with NaN is false and infinity is positive, so a
    # bare x <= 0 check lets both through
    build, error = NON_FINITE_FIELDS[field]
    with pytest.raises(error):
        build(value)


@pytest.mark.parametrize("decades", [-3, 0, 16, 400])
def test_tail_decades_out_of_range_rejected(decades):
    # from 16 the tail cut t = span/(1 + span) is 1.0, and from 309
    # 10.0**tail_decades overflows
    with pytest.raises(ValueError, match="tail_decades"):
        QuadratureConfig(tail_decades=decades)
    assert QuadratureConfig(tail_decades=15).tail_decades == 15


@pytest.mark.parametrize("field", ["max_subdivisions", "tail_decades"])
@pytest.mark.parametrize("value", [10.5, 12.0, True, "12"],
                         ids=["fraction", "whole-float", "bool", "str"])
def test_quadrature_counts_must_be_ints(field, value):
    # refused where the config is made, not deep inside the adaptive core
    # (a float) or read as 1 (True)
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        QuadratureConfig(**{field: value})
    assert getattr(QuadratureConfig(**{field: np.int64(12)}), field) == 12


BASE = {"omega_e": OMEGA_E, "omega_m": OMEGA_M, "spin": 3.0,
        "dipole_moment": 0.5 * E_A0}


# a gamma_0 quote is checked by build_particle and changes nothing
@pytest.mark.parametrize("over", [{}, {"gyro_ratio": 1e11}, {"gamma_0": 1.8e7},
                                  {"mass_per_spin": 1e-26, "gyro_ratio": 1e11}])
def test_particle_spec_derives_what_build_particle_did(over):
    spec = ParticleSpec(**BASE, **{k: v for k, v in over.items()
                                   if k != "gamma_0"})
    built = build_particle(**BASE, **over)
    for f in dataclasses.fields(ParticleSpec):
        assert getattr(spec, f.name) == getattr(built, f.name), f.name
    assert spec.gamma_0_free == gamma0_from_dipole(BASE["dipole_moment"],
                                                   OMEGA_E)


REFUSED = [(name, value)
           for name in ("omega_e", "omega_m", "dipole_moment", "spin", "m_s",
                        "mass_per_spin", "gyro_ratio", "gamma_0_free")
           for value in (math.nan, math.inf, -math.inf, -4.0)] \
    + [("omega_m", 2.0 * OMEGA_E), ("m_s", 3.5)]


@pytest.mark.parametrize("name, value", REFUSED)
def test_particle_spec_refuses_what_build_particle_refuses(name, value):
    # gamma_0_free is derived: build_particle refuses a bad quote of it
    # (gamma_0) and ParticleSpec takes no value for it at all.  m_s is
    # retired: neither takes it, whatever its value
    if name == "m_s":
        with pytest.raises(TypeError):
            build_particle(**{**BASE, name: value})
        with pytest.raises(TypeError):
            ParticleSpec(**{**BASE, name: value})
        return
    derived = name == "gamma_0_free"
    arg = "gamma_0" if derived else name
    with pytest.raises(ValueError) as built:
        build_particle(**{**BASE, arg: value})
    with pytest.raises((TypeError, ValueError)) as spec:
        ParticleSpec(**{**BASE, name: value})
    assert spec.type is (TypeError if derived else built.type)


@pytest.mark.parametrize("name", ["eta", "omega_tilde", "k_e",
                                  "gamma_0_free"])
def test_particle_spec_derived_fields_not_settable(name):
    with pytest.raises(TypeError):
        ParticleSpec(**BASE, **{name: 1.0})


def test_replaced_spin_keeps_derived_fields():
    # spin_threshold takes its coefficients at dataclasses.replace(p,
    # spin=1.0); every field derived from the dipole and the frequencies
    # stays, and only the mass follows the spin
    p = make_particle(spin=100.0)
    q = dataclasses.replace(p, spin=1.0)
    assert q.gamma_0_free == p.gamma_0_free == \
        gamma0_from_dipole(p.dipole_moment, p.omega_e)
    assert (q.eta, q.omega_tilde, q.k_e) == (p.eta, p.omega_tilde, p.k_e)
    assert q.mass == p.mass / 100.0


def test_mass_scales_with_spin():
    p = make_particle(spin=100.0)
    assert p.mass == pytest.approx(100.0 * sc.atomic_mass, rel=1e-12, abs=0.0)


def test_geometry_distance_example():
    # z0 = 10 nm at the reference wavenumber
    p = make_particle()
    assert Geometry(10e-9).z_tilde(p) == pytest.approx(0.2096, rel=1e-3)


def test_gravity_example_value():
    # S = 100, Gamma0 = 1.880e7 rad/s: weight in hbar*Gamma0*k_e units
    p = make_particle(spin=100.0)
    f = gravity_force_dimensionless(p, EnvironmentSpec())
    assert f == pytest.approx(-3.92e-5, rel=0.01)


def test_unknown_conversion_kind_rejected():
    p = make_particle()
    with pytest.raises(UnknownKind):
        to_dimensionless(p, 1.0, kind="voltage")


@given(value=st.floats(min_value=1e-20, max_value=1e20),
       kind=st.sampled_from(["potential", "force", "distance", "frequency"]))
@settings(max_examples=50, deadline=None)
def test_conversion_round_trip(value, kind):
    p = make_particle()
    dimensionless = to_dimensionless(p, value, kind=kind)
    back = from_dimensionless(p, dimensionless, kind=kind)
    assert back == pytest.approx(value, rel=1e-12, abs=0.0)
