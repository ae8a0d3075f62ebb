"""Level shifts and decay-rate corrections against oracles.

The frozen Drude values below were produced with an independent
scipy.integrate.quad nesting of the same double integrals (epsrel 1e-12,
split at the low-frequency resonance), so they share no code with the
package quadrature engine.
"""

import cmath
import itertools
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magcp import Drude, Geometry, IntegralResult, PerfectConductor, \
    Plasma, QuadratureConfig, potentials
from magcp.materials import permittivity_real_freq
from magcp.mechanics import force_breakdown
from magcp.potentials import (
    QuadratureFailure,
    _exp_e1,
    _ladder,
    _pc_closed,
    _real_freq_integral,
    _resonant_j,
    _surface_pole,
    component,
    decay_breakdown,
    delta_gamma_e,
    delta_gamma_m,
    matrix_element_flip,
    potential_breakdown,
    u_e_ground,
    u_e_pc_closed,
    u_m0_pc_closed,
    u_m_excited0,
    u_m_ground_broadband,
    u_m_pc_closed,
    u_m_static,
)

from conftest import OMEGA_E, make_particle, resonant_drude

# independent scipy.quad oracle, Drude gold, z_tilde = 1, S = 100
ORACLE_UE_DRUDE_Z1 = -2.198571843666e-02
ORACLE_UM_DRUDE_Z1 = 3.930104158198e-06

GOLD = Drude(omega_p=1.36e16, gamma=1.0e14)
PLASMA = Plasma(omega_p=1.36e16)
PC = PerfectConductor()
QUAD = QuadratureConfig()


def geo(p, zt):
    return Geometry(zt / p.k_e)


def test_drude_electric_against_independent_oracle():
    p = make_particle()
    val, res = u_e_ground(p, GOLD, geo(p, 1.0), QUAD)
    assert res.converged
    assert val == pytest.approx(ORACLE_UE_DRUDE_Z1, rel=1e-8)


def test_drude_magnetic_against_independent_oracle():
    p = make_particle()
    val, res = u_m_ground_broadband(p, GOLD, geo(p, 1.0), QUAD)
    assert res.converged
    assert val == pytest.approx(ORACLE_UM_DRUDE_Z1, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("zt", [0.01, 1.0, 100.0])
def test_pc_double_matches_single_integral(zt):
    p = make_particle()
    g = geo(p, zt)
    ue, _ = u_e_ground(p, PC, g, QUAD)
    uec, _ = u_e_pc_closed(p, g, QUAD)
    um, _ = u_m_ground_broadband(p, PC, g, QUAD)
    umc, _ = u_m_pc_closed(p, g, QUAD)
    assert ue == pytest.approx(uec, rel=1e-8, abs=0.0)
    assert um == pytest.approx(umc, rel=1e-8, abs=0.0)


def test_sign_structure_pc():
    p = make_particle()
    for zt in (0.03, 1.0, 30.0):
        g = geo(p, zt)
        ue, _ = u_e_pc_closed(p, g, QUAD)
        um, _ = u_m_pc_closed(p, g, QUAD)
        uz, _ = u_m_static(p, PC, g, QUAD)
        assert ue < 0.0
        assert um > 0.0
        assert uz > 0.0


def test_broadband_magnetic_linear_in_spin():
    p1 = make_particle(spin=3.0)
    p2 = make_particle(spin=12.0)
    g = geo(p1, 0.7)
    u1, _ = u_m_pc_closed(p1, g, QUAD)
    u2, _ = u_m_pc_closed(p2, g, QUAD)
    assert u2 / u1 == pytest.approx(4.0, rel=1e-12)


def test_static_image_quadratic_in_spin():
    p1 = make_particle(spin=3.0)
    p2 = make_particle(spin=12.0)
    g = geo(p1, 0.7)
    u1, _ = u_m_static(p1, PC, g, QUAD)
    u2, _ = u_m_static(p2, PC, g, QUAD)
    assert u2 / u1 == pytest.approx(16.0, rel=1e-12)


def test_static_image_values_by_model():
    p = make_particle(spin=10.0)
    zt = 2.0
    g = geo(p, zt)
    v_drude, _ = u_m_static(p, GOLD, g, QUAD)
    assert v_drude == 0.0
    v_pc, _ = u_m_static(p, PC, g, QUAD)
    assert v_pc == pytest.approx(
        3.0 / 32.0 * p.eta * p.spin**2 / zt**3, rel=1e-12, abs=0.0)
    v_plasma, res = u_m_static(p, PLASMA, g, QUAD)
    assert res.converged
    assert 0.0 < v_plasma < v_pc


def _static_integral_mpmath(zt, deriv):
    """int_0^inf k^2 e^(-2 k z) r_s(k) (-2 k)^deriv dk for plasma gold in
    k_e units, with r_s = -k_p^2/(k + sqrt(k^2 + k_p^2))^2, 30 digits."""
    with mpmath.workdps(30):
        z, k_p = mpmath.mpf(zt), mpmath.mpf(PLASMA.omega_p / OMEGA_E)

        def f(k):
            r_s = -k_p**2 / (k + mpmath.sqrt(k * k + k_p**2)) ** 2
            return k * k * mpmath.exp(-2 * k * z) * r_s * (-2 * k) ** deriv

        cuts = sorted({0, mpmath.inf, k_p / 4, k_p, 4 * k_p,
                       *(4**j / (2 * z) for j in range(-1, 3))})
        return mpmath.quad(f, cuts)


@pytest.mark.parametrize("deriv", [False, True])
@pytest.mark.parametrize("zt", [1e-5, 1e-4, 1e-3])
def test_plasma_static_image_within_its_estimate(zt, deriv):
    # the static r_s was (k - k_2)/(k + k_2), which cancels at large k:
    # at z_tilde 1e-3 the value was 2.1e-12 off with an estimate of
    # 4.3e-13 (relative), and z_tilde <= 1e-4 did not converge
    p = make_particle()
    g = geo(p, zt)
    q = QuadratureConfig(rel_tol=1e-12, abs_tol=0.0, max_subdivisions=400)
    value, res = u_m_static(p, PLASMA, g, q, deriv=deriv, strict=False)
    assert res.converged
    ref = -3.0 / 8.0 * p.eta * p.spin**2 \
        * _static_integral_mpmath(g.z_tilde(p), deriv)
    assert abs(value - ref) <= res.error_estimate


def test_electric_shift_spin_independent():
    p1 = make_particle(spin=1.0)
    p2 = make_particle(spin=1000.0)
    g = geo(p1, 0.4)
    u1, _ = u_e_ground(p1, GOLD, g, QuadratureConfig(rel_tol=1e-6))
    u2, _ = u_e_ground(p2, GOLD, g, QuadratureConfig(rel_tol=1e-6))
    assert u1 == u2


def test_excited_closed_form_and_scaling():
    p = make_particle(spin=3.0)
    for wzt in (1e-3, 0.3, 10.0):
        g = geo(p, wzt / p.omega_tilde)
        v, res = u_m_excited0(p, PC, g, QUAD)
        assert res.converged
        assert v == pytest.approx(u_m0_pc_closed(p, g), rel=1e-6, abs=0.0)
    p1 = make_particle(spin=1.0)
    g = geo(p1, 0.05 / p1.omega_tilde)
    v1, _ = u_m_excited0(p1, PC, g, QUAD)
    v3, _ = u_m_excited0(p, PC, g, QUAD)
    assert v3 / v1 == pytest.approx(3.0 * 4.0 / 2.0, rel=1e-9)


def test_flip_weight_values():
    assert matrix_element_flip(2.0, -2.0) == 0.0
    assert matrix_element_flip(2.0, 0.0) == 6.0
    assert matrix_element_flip(5.0, 5.0) == pytest.approx(10.0)


def test_stretched_ground_sublevel_does_not_flip():
    p = make_particle(spin=4.0)
    v, res = delta_gamma_m(p, PC, geo(p, 1.0), QUAD)
    assert v == 0.0
    assert res.evaluations == 0


def test_spin_flip_rate_nonretarded_plateau():
    # for PC the near-zone flip rate is eta*S(S+1)*wt^3/2 per unit weight
    p = make_particle(spin=5.0)
    vals = []
    for wzt in (1e-3, 1e-2):
        g = geo(p, wzt / p.omega_tilde)
        v, res = delta_gamma_m(p, PC, g, QUAD, m_s=0.0)
        assert res.converged and res.evaluations > 0
        vals.append(v)
    expected = p.eta * p.spin * (p.spin + 1.0) * p.omega_tilde**3 / 2.0
    assert vals[0] == pytest.approx(expected, rel=1e-4, abs=0.0)
    assert vals[1] == pytest.approx(vals[0], rel=1e-3, abs=0.0)


def test_electric_rate_contact_and_far_limits():
    p = make_particle()
    near, res = delta_gamma_e(p, PC, geo(p, 1e-3), QUAD)
    assert res.converged
    assert near == pytest.approx(-1.0, rel=1e-5)
    far, _ = delta_gamma_e(p, PC, geo(p, 300.0), QUAD)
    assert abs(far) < 2e-3


def test_breakdown_totals_consistent():
    p = make_particle(spin=50.0)
    g = geo(p, 1.5)
    bd = potential_breakdown(p, PC, g, QUAD)
    assert bd.total_ground == pytest.approx(
        bd.u_e_minus + bd.u_m_minus + bd.u_m_z, rel=1e-12, abs=0.0)
    assert bd.u_m_excited0 is None
    db = decay_breakdown(p, PC, g, QUAD)
    assert db.delta_gamma_m == 0.0  # stretched sublevel
    assert db.converged


def test_pc_breakdown_uses_closed_forms(component_calls):
    p = make_particle(spin=50.0)
    g = geo(p, 1.5)
    bd = potential_breakdown(p, PC, g, QUAD)
    assert component_calls == {"u_e_pc_closed": 1, "u_m_pc_closed": 1,
                               "u_m_static": 1}
    component_calls.clear()
    bd0 = potential_breakdown(p, PC, g, QUAD, include_excited0=True)
    assert component_calls == {"u_e_pc_closed": 1, "u_m_pc_closed": 1,
                               "u_m_static": 1, "u_m0_pc_closed": 1}
    assert bd0.u_m_excited0 == pytest.approx(
        u_m_excited0(p, PC, g, QUAD)[0], rel=1e-7)
    # the closed forms agree with the double integrals they replace
    assert bd.u_e_minus == pytest.approx(u_e_ground(p, PC, g, QUAD)[0],
                                         rel=1e-9)
    assert bd.u_m_minus == pytest.approx(
        u_m_ground_broadband(p, PC, g, QUAD)[0], rel=1e-9, abs=0.0)


def test_strict_mode_raises_on_impossible_tolerance():
    p = make_particle()
    q = QuadratureConfig(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=10)
    with pytest.raises(QuadratureFailure):
        u_e_ground(p, GOLD, geo(p, 1.0), q, strict=True)


def test_breakdown_not_converged_on_impossible_tolerance():
    p = make_particle()
    q = QuadratureConfig(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=10)
    assert potential_breakdown(p, PC, geo(p, 1.0), QUAD).converged
    assert not potential_breakdown(p, GOLD, geo(p, 1.0), q).converged


@pytest.mark.parametrize("surface", [GOLD, PLASMA], ids=["drude", "plasma"])
def test_evaluator_results_in_value_units(surface):
    # each quadrature evaluator returns the IntegralResult of the value
    # it prints, as the closed forms do: that value, and the integral's
    # error estimate times |prefactor|, taken after Re or Im
    p = make_particle()
    g = geo(p, 1.0)
    q = QuadratureConfig(rel_tol=1e-6)
    j_m = _resonant_j(p, surface, g, q)
    j_e = _real_freq_integral(surface, p.omega_e, 2.0 * g.z_tilde(p),
                              swap_polarizations=True, quad=q)
    double = {which: potentials._ground_double(p, surface, g, q, which,
                                               False)
              for which in ("electric", "magnetic")}
    cases = [
        (u_e_ground(p, surface, g, q), double["electric"], None),
        (u_m_ground_broadband(p, surface, g, q), double["magnetic"], None),
        (u_m_static(p, surface, g, q), None, None),
        (u_m_excited0(p, surface, g, q), j_m, "real"),
        (delta_gamma_m(p, surface, g, q, m_s=0.0), j_m, "imag"),
        (delta_gamma_e(p, surface, g, q), j_e, "imag"),
    ]
    for (value, res), raw, part in cases:
        assert res.value == value
        assert res.converged
        if raw is not None:
            assert value != 0.0 and res.evaluations > 0
            size = raw.value if part is None else getattr(raw.value, part)
            assert res.error_estimate == pytest.approx(
                abs(value / size) * raw.error_estimate, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("zt", [1e-4, 1e-2, 1e3])
@pytest.mark.parametrize("ratio", [1e-5, 1e-8])
@pytest.mark.parametrize("surface", [
    GOLD, Drude(omega_p=1.36e16, gamma=1.3e15), PLASMA,
], ids=["drude", "strongly_damped", "plasma"])
def test_extreme_inputs_finite_and_converged(surface, ratio, zt):
    # the corners of the supported range, omega_m/omega_e down to 1e-8
    # and z_tilde from 1e-4 to 1e3, give finite and converged results
    p = make_particle(omega_m=ratio * OMEGA_E)
    g = geo(p, zt)
    q = QuadratureConfig(rel_tol=1e-6)
    bd = potential_breakdown(p, surface, g, q, include_excited0=True)
    fb = force_breakdown(p, surface, g, q)
    assert bd.converged and fb.converged
    values = [bd.u_e_minus, bd.u_m_minus, bd.u_m_z, bd.total_ground,
              bd.u_m_excited0, fb.f_e, fb.f_m_minus, fb.f_m_z, fb.f_total]
    assert all(math.isfinite(v) for v in values), values


@given(zt=st.floats(0.05, 50.0))
@settings(max_examples=15, deadline=None)
def test_pc_electric_monotone_and_negative(zt):
    p = make_particle()
    v, _ = u_e_pc_closed(p, geo(p, zt), QUAD)
    v2, _ = u_e_pc_closed(p, geo(p, zt * 1.3), QUAD)
    assert v < 0.0
    assert v < v2  # attraction weakens with distance


# ---------------------------------------------------------------------------
# perfect-conductor closed forms against mpmath

def _pc_kernel_mpmath(y):
    """I(y) and I'(y) of the broadband kernel from mpmath's Si and Ci at
    60 digits, which covers the y^3 cancellation of the identity."""
    with mpmath.workdps(60):
        y = mpmath.mpf(y)
        si = mpmath.si(y) - mpmath.pi / 2
        ci = mpmath.ci(y)
        f = ci * mpmath.sin(y) - si * mpmath.cos(y)
        g = -ci * mpmath.cos(y) - si * mpmath.sin(y)
        return (1 - y * y) * f + y * g + y, y * (y * g - f)


def _pc_closed_mpmath(pref, zt, w, deriv):
    i, di = _pc_kernel_mpmath(2 * mpmath.mpf(zt) * w)
    with mpmath.workdps(60):
        zt = mpmath.mpf(zt)
        if deriv:
            return float(pref * (-3 * i / zt**4 + 2 * w * di / zt**3))
        return float(pref * i / zt**3)


@pytest.mark.parametrize("y", [0.2, 20.0, 2000.0])
def test_pc_kernel_identity_matches_its_integral(y):
    # the Si/Ci reference above against mpmath's quadrature of the
    # defining integral, the kernel (1 + x + x^2) e^(-x) at x = y t
    with mpmath.workdps(40):
        ym = mpmath.mpf(y)
        cuts = sorted({0, 1, mpmath.inf, *(2**k / ym for k in range(-2, 6))})
        ref = mpmath.quad(lambda t: (1 + ym * t + (ym * t) ** 2)
                          * mpmath.exp(-ym * t) / (1 + t * t), cuts)
        ref_d = mpmath.quad(lambda t: (ym * t * t - ym**2 * t**3)
                            * mpmath.exp(-ym * t) / (1 + t * t), cuts)
        i, di = _pc_kernel_mpmath(y)
        assert abs(i / ref - 1) < 1e-25
        assert abs(di / ref_d - 1) < 1e-25


PC_GRID = (1e-4, 1e-3, 0.1, 1.0, 10.0, 20.0, 30.0, 100.0, 1e3, 1e7)


@pytest.mark.parametrize("deriv", [False, True])
@pytest.mark.parametrize("ratio", [None, 1e-8, 1e-5, 1.0],
                         ids=["electric", "m1e-8", "m1e-5", "m1"])
def test_pc_closed_forms_against_mpmath(ratio, deriv):
    # the grid straddles the switch to the asymptotic series at y = 40;
    # ratio 1 lies outside ParticleSpec's hierarchy, so there the w = 1
    # kernel is checked through _pc_closed with the magnetic prefactor
    p = make_particle(omega_m=min(ratio or 1e-5, 1e-5) * OMEGA_E)
    w = 1.0 if ratio == 1.0 else p.omega_tilde
    for zt in PC_GRID:
        g = geo(p, zt)
        zt = g.z_tilde(p)
        if ratio is None:
            value, res = u_e_pc_closed(p, g, QUAD, deriv=deriv)
            ref = _pc_closed_mpmath(-3.0 / (32.0 * math.pi), zt, 1.0, deriv)
        else:
            pref = 3.0 * p.eta * p.spin / (32.0 * math.pi)
            if ratio == 1.0:
                value, res = _pc_closed(zt, w, pref, deriv)
            else:
                value, res = u_m_pc_closed(p, g, QUAD, deriv=deriv)
            ref = _pc_closed_mpmath(pref, zt, w, deriv)
        err = abs(value - ref)
        assert res.converged and res.evaluations == 0
        assert res.value == value
        assert err <= 1e-10 * abs(ref), zt
        assert 0.0 < res.error_estimate and err <= res.error_estimate, zt
        # rounding is the only error, and the estimate is not far above it
        assert res.error_estimate <= 1e-9 * abs(ref), zt


def test_pc_magnetic_slope_converges_without_evaluations():
    # the z-derivative was an adaptive integral that cancels to -6.3e-13
    # here; with abs_tol near 0 it ran about 61k evaluations and reported
    # converged=False although its error was 9e-12 of the value
    p = make_particle(omega_m=1e-5 * OMEGA_E)
    g = geo(p, 1e-3)
    q = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-300, max_subdivisions=2000)
    value, res = u_m_pc_closed(p, g, q, deriv=True)
    assert res.converged and res.evaluations == 0
    pref = 3.0 * p.eta * p.spin / (32.0 * math.pi)
    ref = _pc_closed_mpmath(pref, g.z_tilde(p), p.omega_tilde, True)
    assert abs(value - ref) <= res.error_estimate < 1e-13 * abs(ref)


def _m0_pc_mpmath(p, zt, deriv):
    with mpmath.workdps(40):
        zt = mpmath.mpf(zt)
        x = mpmath.mpf(p.omega_tilde) * zt
        c2, s2 = mpmath.cos(2 * x), mpmath.sin(2 * x)
        bracket = c2 + 2 * x * s2 - 4 * x * x * c2
        pref = 3 * mpmath.mpf(p.eta) * p.spin * (p.spin + 1) / 64
        if deriv:
            slope = 8 * x * x * s2 - 4 * x * c2
            return float(pref * (-3 * bracket / zt**4
                                 + mpmath.mpf(p.omega_tilde) * slope / zt**3))
        return float(pref * bracket / zt**3)


@pytest.mark.parametrize("wzt", [1e-3, 0.3, 10.0, 300.0])
def test_pc_excited0_slope(wzt):
    p = make_particle(spin=3.0)
    g = geo(p, wzt / p.omega_tilde)
    zt = g.z_tilde(p)
    for deriv in (False, True):
        value, res = component("excited0", p, PC, g, QUAD, deriv=deriv)
        assert value == u_m0_pc_closed(p, g, deriv=deriv)
        assert res.converged and res.evaluations == 0
        ref = _m0_pc_mpmath(p, zt, deriv)
        assert abs(value - ref) <= res.error_estimate <= 1e-9 * abs(ref)
    # the resonant real-frequency integral it replaces
    tight = QuadratureConfig(rel_tol=1e-10, abs_tol=0.0)
    ref, res = u_m_excited0(p, PC, g, tight, deriv=True)
    assert res.converged
    assert u_m0_pc_closed(p, g, deriv=True) == pytest.approx(ref, rel=1e-9,
                                                             abs=0.0)


def test_pc_components_run_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a perfect-conductor shift ran a quadrature")

    for name in ("integrate_finite", "integrate_semi_infinite",
                 "integrate_nested"):
        monkeypatch.setattr(potentials, name, refuse)
    p = make_particle(spin=10.0)
    g = geo(p, 0.7)
    for mode in ("ground", "excited0"):
        assert force_breakdown(p, PC, g, QUAD, mode=mode).converged
    bd = potential_breakdown(p, PC, g, QUAD, include_excited0=True)
    assert bd.converged and bd.u_m_excited0 == u_m0_pc_closed(p, g)


# ---------------------------------------------------------------------------
# surface-plasmon pole of the real-frequency integrals

def test_plasma_electric_j_is_the_drude_limit():
    # the plasma pole sits on the real axis; its subtracted integral with
    # the lower-side E1 add-back must be the gamma -> 0 limit of Drude,
    # whose gap to the plasma value closes linearly in gamma
    p = make_particle()
    tight = QuadratureConfig(rel_tol=1e-10, abs_tol=0.0)

    def j(surface, zt):
        res = _real_freq_integral(surface, p.omega_e, 2.0 * zt,
                                  swap_polarizations=True, quad=tight)
        assert res.converged
        return res.value

    for zt in (0.3, 1.0, 3.0):
        j_plasma = j(PLASMA, zt)
        gaps = [abs(j(Drude(omega_p=PLASMA.omega_p, gamma=gamma), zt)
                    - j_plasma) for gamma in (1e12, 1e11, 1e10)]
        for wide, narrow in zip(gaps, gaps[1:]):
            assert 7.0 < wide / narrow < 13.0, (zt, gaps)
        assert gaps[-1] < 2e-6 * abs(j_plasma), (zt, gaps)


def _pole_term_quad(c, v0, a):
    """mpmath's integral of C e^(-a v)/(v - v0) over v in (0, inf)."""
    return complex(mpmath.quad(lambda v: c * mpmath.exp(-a * v) / (v - v0),
                               [0, v0.real, mpmath.inf]))


@pytest.mark.parametrize("swap", [True, False], ids=["electric", "magnetic"])
@pytest.mark.parametrize("deriv", [0, 1])
@pytest.mark.parametrize("a_v0", [0.4, 4.0])
def test_pole_add_back_matches_mpmath(swap, deriv, a_v0):
    p = make_particle()
    omega = p.omega_e if swap else p.omega_m
    # Drude: v0 complex, just above the real axis; the closed form holds
    # as it is
    v0, c = _surface_pole(permittivity_real_freq(GOLD, omega), swap, deriv)
    assert v0.imag > 0.0
    a = a_v0 / abs(v0)
    ref = _pole_term_quad(c, mpmath.mpc(v0.real, v0.imag), a)
    assert c * _exp_e1(-a * v0) == pytest.approx(ref, rel=1e-12, abs=0.0)
    # plasma: v0 real; the add-back is the limit of a pole lifted by
    # +i*delta, whose gap closes linearly in delta
    v0, c = _surface_pole(permittivity_real_freq(PLASMA, omega), swap,
                          deriv)
    assert v0.imag == 0.0
    a = a_v0 / abs(v0)
    add_back = c * _exp_e1(-a * v0)
    gaps = [abs(_pole_term_quad(c, mpmath.mpc(v0.real, d * v0.real), a)
                - add_back) / abs(add_back) for d in (1e-3, 1e-4, 1e-5)]
    for wide, narrow in zip(gaps, gaps[1:]):
        assert 8.0 < wide / narrow < 12.0, gaps
    assert gaps[-1] < 1e-4


def test_exp_e1_matches_mpmath_below_the_cut():
    grid = [cmath.rect(r, arg) if arg > -math.pi else complex(-r, 0.0)
            for r in np.logspace(-8, 4, 25)
            for arg in np.linspace(-math.pi, 0.0, 13)]
    # both sides of the switch from the power series to the continued
    # fraction at |z| + Re z = 3, out to |z| = 40
    for r in np.linspace(1.5, 40.0, 40):
        for s in (2.999, 3.0):
            z = complex(s - r, -math.sqrt(r * r - (s - r) ** 2))
            grid += [z, z.conjugate()]
    for z in grid:
        got = _exp_e1(z)
        assert cmath.isfinite(got), z
        with mpmath.workdps(30):
            zm = mpmath.mpc(z.real, z.imag)
            ref = complex(mpmath.exp(zm) * mpmath.expint(1, zm))
        if z.imag == 0.0 and z.real < 0.0:
            ref = ref.conjugate()   # mpmath takes the upper side
        assert abs(got - ref) <= 1e-13 * abs(ref), z


def test_plasma_decay_converges_across_the_grid():
    # the evanescent integrals through the real plasmon pole used up
    # every subdivision between z_tilde 0.02 and 10
    p = make_particle()
    q = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-12)
    for zt in np.logspace(-3.0, 3.0, 49):
        bd = decay_breakdown(p, PLASMA, geo(p, zt), q, m_s=0)
        assert bd.converged, zt
        assert math.isfinite(bd.delta_gamma_e), zt
        assert math.isfinite(bd.delta_gamma_m), zt


def test_unattainable_tolerance_at_the_real_pole_is_flagged():
    # below the rounding noise of r_p next to a real v0 the adaptive rule
    # bisects toward v0 until a node rounds onto it; the result must stay
    # finite and flagged, without a division by zero
    p = make_particle()
    q = QuadratureConfig(rel_tol=1e-14, abs_tol=0.0, max_subdivisions=2000)
    res = _real_freq_integral(PLASMA, p.omega_e, 0.6,
                              swap_polarizations=True, quad=q)
    assert cmath.isfinite(res.value)
    assert not res.converged


P_RES = make_particle(spin=5.0)
P_SLOW = make_particle(spin=5.0, omega_m=1e-8 * OMEGA_E)


@pytest.fixture
def initial_panels(monkeypatch):
    """Initial panels of every real-frequency sector: the propagating
    one's breakpoints inside (0, 1) and the evanescent one's split
    points, each plus the panel a sector starts from."""
    counts = []
    finite, semi = potentials.integrate_finite, potentials.integrate_semi_infinite

    def counting_finite(f, a, b, config, breakpoints=(), **kwargs):
        counts.append(sum(a < p < b for p in breakpoints) + 1)
        return finite(f, a, b, config, breakpoints, **kwargs)

    def counting_semi(f, a, config, **kwargs):
        counts.append(len(config.split_points or ()) + 1)
        return semi(f, a, config, **kwargs)

    monkeypatch.setattr(potentials, "integrate_finite", counting_finite)
    monkeypatch.setattr(potentials, "integrate_semi_infinite", counting_semi)
    return counts


@pytest.mark.parametrize("surface", [
    resonant_drude(P_RES),
    Plasma(omega_p=1.001 * math.sqrt(2.0) * P_RES.omega_m),
    Plasma(omega_p=1.001 * math.sqrt(2.0) * P_RES.omega_e),
    Plasma(omega_p=1e-3 * P_RES.omega_e),
    GOLD, PLASMA, PC,
], ids=["resonant-drude", "resonant-plasma-m", "resonant-plasma-e",
        "eps-near-one", "drude", "plasma", "pc"])
def test_real_frequency_calls_finite(surface, initial_panels):
    # eps just below -1 puts the pole far out with a large residue, and
    # eps near 1 or omega_m/omega_e = 1e-8 sets the material-scale
    # ladders many decades apart; every real-frequency result is finite
    # or flagged, no warning is raised, and the ladders stay short
    q = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-12)
    for particle, zt in itertools.product((P_RES, P_SLOW),
                                          np.logspace(-4.0, 3.0, 8)):
        g = geo(particle, zt)
        rate, res = delta_gamma_m(particle, surface, g, q, m_s=0.0,
                                  strict=False)
        assert rate != 0.0 and res.evaluations > 0, zt
        for value, _ in (
                delta_gamma_e(particle, surface, g, q, strict=False),
                (rate, res),
                u_m_excited0(particle, surface, g, q, strict=False),
                u_m_excited0(particle, surface, g, q, deriv=True,
                             strict=False)):
            assert math.isfinite(value), zt
    assert max(initial_panels) <= 36


def test_ladder_length_is_bounded():
    # ratio 4 while that takes at most about 32 points, wider beyond
    assert _ladder(1.0, 1.0) == (1.0,)
    assert _ladder(1.0, 64.0) == (1.0, 4.0, 16.0, 64.0)
    for lo, hi in ((1e-12, 1e12), (1e-150, 1e150), (5e-324, 1e300)):
        points = _ladder(lo, hi)
        ratio = points[1] / points[0]
        assert points[0] == lo and points[-1] * ratio > 3.9 * hi
        assert len(points) <= 33, (lo, hi)


def test_near_contact_resonant_integrals_converge():
    # r_s written as (kappa - kappa_2)/(kappa + kappa_2) cancelled at the
    # large kappa these reach, and each ran to 6046 evaluations without
    # converging
    q = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-12)
    p = make_particle()
    assert u_m_excited0(p, GOLD, geo(p, 1e-4), q, deriv=True,
                        strict=False)[1].converged
    surface = resonant_drude(P_RES)
    for zt in (1e-4, 1e-3, 0.01, 0.03):
        g = geo(P_RES, zt)
        for value, res in (
                delta_gamma_m(P_RES, surface, g, q, m_s=0.0, strict=False),
                u_m_excited0(P_RES, surface, g, q, strict=False),
                u_m_excited0(P_RES, surface, g, q, deriv=True,
                             strict=False)):
            assert res.converged, zt
            assert value != 0.0 and res.evaluations > 0, zt


# J of _real_freq_integral from mpmath alone, by make_real_freq_oracle.py
REAL_FREQ_ORACLE = json.loads(
    (Path(__file__).parent / "real_freq_oracle.json").read_text())


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
def test_real_freq_j_within_estimate_of_mpmath_oracle(rel_tol):
    # the table's inputs are the test particle's and gold's
    table = REAL_FREQ_ORACLE
    assert table["omega"] == {"electric": OMEGA_E,
                              "magnetic": make_particle().omega_m}
    surfaces = {"drude": Drude(**table["surfaces"]["drude"]),
                "plasma": Plasma(**table["surfaces"]["plasma"])}
    assert surfaces == {"drude": GOLD, "plasma": PLASMA}
    q = QuadratureConfig(rel_tol=rel_tol)
    assert len(table["rows"]) == 24
    for row in table["rows"]:
        res = _real_freq_integral(
            surfaces[row["surface"]], table["omega"][row["transition"]],
            row["a"], row["transition"] == "electric", q, row["deriv"])
        ref = complex(float(row["re"]), float(row["im"]))
        assert res.converged, row
        assert abs(res.value - ref) <= res.error_estimate, row


# D and S of the ground-state evaluators from mpmath alone, by
# make_ground_oracle.py
GROUND_ORACLE = json.loads(
    (Path(__file__).parent / "ground_oracle.json").read_text())

GROUND_EVALUATORS = {"electric": u_e_ground,
                     "magnetic": u_m_ground_broadband, "static": u_m_static}


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
def test_ground_state_within_estimate_of_mpmath_oracle(rel_tol):
    # the table's inputs are the test particle's and gold's, and a slice
    # at omega_m/omega_e = 1e-8, where the Lorentzian is narrowest
    table = GROUND_ORACLE
    assert table["omega_e"] == OMEGA_E
    particles = {om: make_particle(omega_m=om)
                 for om in {row["omega_m"] for row in table["rows"]}}
    assert make_particle().omega_m in particles
    assert sorted(p.omega_tilde for p in particles.values()) == \
        pytest.approx([1e-8, 1e-5], rel=1e-12, abs=0.0)
    surfaces = {"drude": Drude(**table["surfaces"]["drude"]),
                "plasma": Plasma(**table["surfaces"]["plasma"])}
    assert surfaces == {"drude": GOLD, "plasma": PLASMA}
    q = QuadratureConfig(rel_tol=rel_tol, abs_tol=0.0)
    assert len(table["rows"]) == 38
    for row in table["rows"]:
        p = particles[row["omega_m"]]
        # the evaluators are these prefactors times the tabulated integrals
        prefactor = {"electric": 3.0 / (8.0 * math.pi),
                     "magnetic": 3.0 / (8.0 * math.pi) * p.omega_tilde
                     * p.eta * p.spin,
                     "static": -3.0 / 8.0 * p.eta * p.spin**2}
        value, res = GROUND_EVALUATORS[row["integral"]](
            p, surfaces[row["surface"]], Geometry(row["z_tilde"] / p.k_e), q,
            deriv=bool(row["deriv"]), strict=False)
        ref = prefactor[row["integral"]] * float(row["value"])
        assert res.converged, row
        assert abs(value - ref) <= res.error_estimate, row


def test_near_contact_abs_tol_alone_converges_within_estimate():
    # Drude electric at z_tilde 1e-3, rel_tol 1e-10 and abs_tol 2.4e-2
    # (1e-10 of |value| is 2.4e-2): while the nested bound was the worst
    # inner error times ten outer tail scales, this reported an estimate
    # of 12.0 and converged=False after 44372 evaluations, although every
    # inner integral converged; weighted by the outer rule it converges
    p = make_particle()
    row = next(r for r in GROUND_ORACLE["rows"]
               if (r["surface"], r["integral"], r["z_tilde"], r["deriv"],
                   r["omega_m"]) == ("drude", "electric", 1e-3, 0, p.omega_m))
    q = QuadratureConfig(rel_tol=1e-10, abs_tol=2.4e-2)
    res = potentials._ground_double(p, GOLD, geo(p, 1e-3), q, "electric",
                                    False)
    assert res.converged and not res.level
    assert abs(res.value - float(row["value"])) <= res.error_estimate


def test_resonant_integrand_calls(monkeypatch):
    # Each integrand call costs ~190 us of overhead against well under
    # 1 us per point, so the time of a real-frequency integral follows
    # its calls.  Before the material-scale ladders this grid took 769
    # calls (the propagating sector bisected toward u_b one step at a
    # time); with them it takes 220.
    calls = []
    fresnel = potentials.fresnel_real_freq_from_kappa

    def counting(surface, kappa_perp, omega):
        calls.append(np.size(kappa_perp))
        return fresnel(surface, kappa_perp, omega)

    monkeypatch.setattr(potentials, "fresnel_real_freq_from_kappa", counting)
    p = make_particle()
    q = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-12)
    for surface in (GOLD, PLASMA):
        for deriv in (0, 1):
            for zt in np.logspace(-3.0, 3.0, 13):
                assert _resonant_j(p, surface, geo(p, zt), q,
                                   deriv=deriv).converged
    assert len(calls) <= 240


GROUND_CASES = list(itertools.product((GOLD, PLASMA), ("electric", "magnetic"),
                                      (False, True)))


def test_ground_double_integrand_calls(monkeypatch):
    # Each outer step of a ground-state double integral is one Fresnel
    # call over the inner lockstep, so its time follows its calls.
    # Before the outer xi ladder and the cancellation-free imaginary-axis
    # r_s this grid took 7577 calls (Drude electric/magnetic 530/3926,
    # plasma 578/2543) and 4 integrals did not converge; with them it
    # took 1776 (221/809 and 221/525).  Starting every inner kappa row
    # from panels graded toward its lower limit took it to 1409 (200/587
    # and 200/422), and from panels graded through its tail scale, which
    # span its e^(-2 kappa z) envelope, to 821.  With the outer integral
    # in u = asinh(xi/w) on panels a factor of 16 wide in xi, and the
    # inner errors weighted by the outer rule in the error bound, it
    # went from 439 (61/204 and 61/113) to 316 (62/152 and 62/40).
    calls = []
    fresnel = potentials.fresnel_imag_axis

    def counting(surface, kappa_perp, xi):
        calls.append(np.size(kappa_perp))
        return fresnel(surface, kappa_perp, xi)

    monkeypatch.setattr(potentials, "fresnel_imag_axis", counting)
    p = make_particle()
    q = QuadratureConfig(rel_tol=1e-6)
    for (surface, which, deriv), zt in itertools.product(
            GROUND_CASES, np.logspace(-3.0, 2.0, 11)):
        res = potentials._ground_double(p, surface, geo(p, zt), q, which,
                                        deriv)
        assert res.converged, (surface, which, deriv, zt)
    assert len(calls) <= 350


def test_ground_double_outer_panels_bounded(monkeypatch):
    # omega_m/omega_e = 1e-8 sets w and 1/(2z) up to twelve decades
    # apart; in u = asinh(xi/w) the outer integral starts from panels a
    # factor of 16 wide in xi, so it has at most about 15 initial panels
    # (the ratio-4 xi ladder needed 36), none of them past the u cap
    panels = []

    def counting(inner_f, outer_lower, inner_lower, config, **kwargs):
        panels.append(len(config.split_points) + 1)
        assert inner_lower(np.array([math.inf]))[0] < math.inf
        return IntegralResult(0.0, 0.0, 0, True)

    monkeypatch.setattr(potentials, "integrate_nested", counting)
    for zt, which in itertools.product((1e-4, 1e3), ("electric", "magnetic")):
        potentials._ground_double(P_SLOW, GOLD, geo(P_SLOW, zt), QUAD, which,
                                  False)
    assert max(panels) <= 16
    assert min(panels) >= 6


@pytest.mark.parametrize("zt", [1e-3, 0.1, 0.3, 10.0, 100.0])
def test_ground_double_loose_values_near_tight(zt):
    # rel_tol 1e-6 values are within 2e-10 of converged rel_tol 1e-11
    # ones (the worst is Drude magnetic deriv at z_tilde 1e-3), and
    # within their error estimates.  While inner kappa rows started from
    # panels graded only toward their lower limit, plasma electric deriv
    # at z_tilde 100 was 9.4e-8 off; while r_s cancelled, the tight Drude
    # magnetic runs at z_tilde 1e-3 did not converge.  The tight abs_tol
    # is 1e-11 of the far-zone values (down to 2e-10), and at most 1e-16:
    # below that the inner integrals at the far outer nodes near contact
    # stop at their rounding noise.
    p = make_particle()
    g = geo(p, zt)
    loose = QuadratureConfig(rel_tol=1e-6)
    for surface, which, deriv in GROUND_CASES:
        res = potentials._ground_double(p, surface, g, loose, which, deriv)
        tight = QuadratureConfig(rel_tol=1e-11,
                                 abs_tol=min(1e-16, 1e-11 * abs(res.value)))
        ref = potentials._ground_double(p, surface, g, tight, which, deriv)
        case = (surface, which, deriv)
        assert ref.converged, case
        assert res.value == pytest.approx(ref.value, rel=1e-8, abs=0.0), case
        if res.converged:
            assert abs(res.value - ref.value) <= res.error_estimate, case
