"""Region classification, asymptotic coefficients and resonance forms."""

import math

import numpy as np
import pytest
import scipy.constants as sc

from magcp import Drude, Geometry, PerfectConductor, Plasma, \
    QuadratureConfig
from magcp.asymptotics import (
    CLASSIFY_MARGIN,
    CrossoverRegion,
    ExpansionOutOfValidity,
    Region,
    RegimeViolation,
    UnsupportedModel,
    classify_region,
    coefficients,
    fresnel_nr_expansion,
    surface_resonance_potential,
    surface_resonance_rate,
    table1_potential,
)
from magcp.materials import NegativeFrequency, fresnel_imag_axis
from magcp.potentials import u_e_pc_closed, u_m_excited0

from conftest import GOLD_GAMMA, GOLD_OMEGA_P, make_particle

GOLD = Drude(omega_p=GOLD_OMEGA_P, gamma=GOLD_GAMMA)
PLASMA = Plasma(omega_p=GOLD_OMEGA_P)
PC = PerfectConductor()
QUAD = QuadratureConfig()


def geo(p, zt):
    return Geometry(zt / p.k_e)


def test_boundary_distance_is_crossover():
    # z0 = 10 nm sits at the Region I edge for the reference particle
    p = make_particle()
    assert classify_region(p, PC, Geometry(10e-9)) is Region.CROSSOVER


def test_region_ladder():
    p = make_particle()
    assert classify_region(p, GOLD, Geometry(1e-10)) is Region.I
    assert classify_region(p, GOLD, Geometry(3e-6)) is Region.II
    assert classify_region(p, GOLD, Geometry(1.0)) is Region.III


def test_margin_widens_crossover():
    # 10 nm would be Region I at a margin of 1, but not at the margin 10
    p = make_particle()
    assert CLASSIFY_MARGIN == 10.0
    assert classify_region(p, GOLD, Geometry(1e-8)) is Region.CROSSOVER


def test_crossover_has_no_tabulated_law():
    p = make_particle()
    with pytest.raises(CrossoverRegion):
        table1_potential(p, GOLD, Geometry(10e-9), Region.CROSSOVER,
                         "electric")


def test_electric_coefficient_gold_value():
    p = make_particle()
    c = coefficients(p, GOLD)
    assert c.c_e3 == pytest.approx(0.02835, rel=1e-3)
    assert coefficients(p, PLASMA).c_e3 == pytest.approx(c.c_e3, rel=1e-12,
                                                         abs=0.0)


def test_plasma_magnetic_coefficient_exceeds_drude():
    # the plasma model keeps the static image piece, quadratic in S
    p = make_particle()
    assert coefficients(p, PLASMA).c_m1 > coefficients(p, GOLD).c_m1


def test_pc_has_no_finite_coefficients():
    p = make_particle()
    with pytest.raises(UnsupportedModel):
        coefficients(p, PC)


def test_pc_near_field_laws_match_numerics():
    p = make_particle()
    zt = 1e-4
    g = geo(p, zt)
    ue, _ = u_e_pc_closed(p, g, QUAD)
    assert ue == pytest.approx(
        table1_potential(p, PC, g, Region.I, "electric"), rel=0.01)
    law = table1_potential(p, PC, g, Region.I, "magnetic")
    assert law == pytest.approx(
        3.0 / 64.0 * p.eta * p.spin * (2.0 * p.spin + 1.0) / zt**3,
        rel=1e-12)


def test_far_field_electric_law_universal():
    p = make_particle()
    g = geo(p, 500.0)
    for surface in (PC, GOLD, PLASMA):
        for region in (Region.II, Region.III):
            assert table1_potential(p, surface, g, region, "electric") == \
                pytest.approx(-3.0 / (16.0 * math.pi * 500.0**4), rel=1e-12,
                              abs=0.0)


def test_nr_fresnel_expansion_matches_exact():
    xi = 1e13
    kappa = np.array([1e8, 1e9])
    exact = fresnel_imag_axis(GOLD, kappa, xi)
    approx = fresnel_nr_expansion(GOLD, kappa, xi)
    assert np.allclose(approx.r_p, exact.r_p, rtol=1e-3)
    assert np.allclose(approx.r_s, exact.r_s, rtol=0.05)


def test_nr_fresnel_expansion_validity_guard():
    with pytest.raises(ExpansionOutOfValidity):
        fresnel_nr_expansion(GOLD, 1e5, 1e15)
    with pytest.raises(UnsupportedModel):
        fresnel_nr_expansion(PC, 1e8, 1e13)


@pytest.mark.parametrize("surface", [GOLD, PLASMA])
@pytest.mark.parametrize("xi", [0.0, -1e13, math.nan])
def test_nr_fresnel_expansion_refuses_non_positive_xi(surface, xi):
    # eps(0) is infinite, so the expansion would be inf/inf: NaN
    with pytest.raises(NegativeFrequency):
        fresnel_nr_expansion(surface, 1e8, xi)


def _resonant_drude(p, q_factor, delta_p):
    # invert Q = omega_p/(sqrt(2) gamma), delta_p = (omega_m - omega_p/
    # sqrt(2))/gamma for the material parameters
    gamma = p.omega_m / (q_factor + delta_p)
    return Drude(omega_p=math.sqrt(2.0) * q_factor * gamma, gamma=gamma)


def test_resonance_forms_agree_off_resonance():
    p = make_particle(spin=5.0)
    surface = _resonant_drude(p, 1e4, -1e2)
    g = geo(p, 1.0)
    eps_form = surface_resonance_potential(p, surface, g, form="epsilon")
    q_form = surface_resonance_potential(p, surface, g, form="q")
    assert eps_form == pytest.approx(q_form, rel=1.5e-2, abs=0.0)
    r_eps = surface_resonance_rate(p, surface, g, form="epsilon")
    r_q = surface_resonance_rate(p, surface, g, form="q")
    assert r_eps == pytest.approx(r_q, rel=1.5e-2, abs=0.0)


def test_resonance_scales_as_q_over_detuning():
    p = make_particle(spin=5.0)
    g = geo(p, 1.0)
    u1 = surface_resonance_potential(p, _resonant_drude(p, 1e4, -1e2), g,
                                     form="q")
    u2 = surface_resonance_potential(p, _resonant_drude(p, 2e4, -1e2), g,
                                     form="q")
    assert u2 / u1 == pytest.approx(2.0, rel=1e-6)


def test_resonance_regime_guards():
    p = make_particle(spin=5.0)
    with pytest.raises(RegimeViolation):
        # delta_p below unity violates the detuning hierarchy
        surface_resonance_potential(p, _resonant_drude(p, 1e4, 0.5),
                                    geo(p, 1.0), form="q")
    with pytest.raises(RegimeViolation):
        # retarded distance
        surface_resonance_potential(p, _resonant_drude(p, 1e4, -1e2),
                                    geo(p, 0.2 / p.omega_tilde))
    with pytest.raises(UnsupportedModel):
        surface_resonance_potential(p, PC, geo(p, 1.0))


def test_drude_region2_law_converges_like_skin_depth():
    # the bare (3/64) eta S / z^3 law misses a finite-skin-depth
    # correction -3 delta_m / z0, with delta_m = c sqrt(2 gamma/omega_m)/
    # omega_p the skin depth at omega_m; the numeric deviation must shrink
    # like 1/z with that coefficient, which pins the discrepancy to the
    # law rather than to the quadrature, independently of table1_potential
    from magcp.potentials import u_m_ground_broadband

    p = make_particle()
    q = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-14)
    scaled = []
    devs = []
    for zt in (300.0, 1000.0, 3000.0):
        g = geo(p, zt)
        num, res = u_m_ground_broadband(p, GOLD, g, q, strict=False)
        assert res.converged
        law = 3.0 / 64.0 * p.eta * p.spin / zt**3
        dev = num / law - 1.0
        devs.append(dev)
        scaled.append(dev * zt)
    assert devs[0] < devs[1] < devs[2] < 0.0
    for s in scaled:
        assert -90.0 < s < -40.0
    skin_depth = sc.c * math.sqrt(2.0 * GOLD_GAMMA / p.omega_m) \
        / GOLD_OMEGA_P
    assert scaled[-1] == pytest.approx(-3.0 * skin_depth * p.k_e, rel=0.05)


def test_drude_region2_law_refused_near_skin_depth():
    # 3 delta_m k_e = 78 for gold: z_tilde 300 is Region II, but there the
    # leading-order factor 1 - 3 delta_m/z0 is 0.74 and the law 9 % high
    p = make_particle()
    skin_depth = sc.c * math.sqrt(2.0 * GOLD_GAMMA / p.omega_m) \
        / GOLD_OMEGA_P
    near = geo(p, 300.0)
    assert classify_region(p, GOLD, near) is Region.II
    with pytest.raises(ExpansionOutOfValidity):
        table1_potential(p, GOLD, near, Region.II, "magnetic")
    assert table1_potential(p, GOLD, near, Region.II, "electric") < 0.0
    law = table1_potential(p, GOLD, geo(p, 1e3), Region.II, "magnetic")
    assert law == pytest.approx(
        3.0 / 64.0 * p.eta * p.spin / 1e9
        * (1.0 - 3.0 * skin_depth * p.k_e / 1e3), rel=1e-12, abs=0.0)


def test_resonance_epsilon_form_tracks_numerics():
    # the full real-frequency integral against the 1/z law, close to the
    # surface where the pole-emission channel is negligible
    p = make_particle(spin=5.0)
    surface = _resonant_drude(p, 1e4, -1e2)
    g = geo(p, 1.0)
    numeric, res = u_m_excited0(p, surface, g, QUAD, strict=False)
    law = surface_resonance_potential(p, surface, g, form="epsilon")
    assert numeric == pytest.approx(law, rel=0.05, abs=0.0)
