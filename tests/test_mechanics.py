"""Forces, levitation equilibria and repulsion thresholds."""

import math
from dataclasses import replace

import pytest

from magcp import Drude, Geometry, PerfectConductor, Plasma, \
    QuadratureConfig, asymptotics, potentials
from magcp.mechanics import (
    NoEquilibrium,
    RegimeViolation,
    approx_total_force_excited,
    find_equilibrium,
    force_breakdown,
    spin_threshold,
)
from magcp.params import EnvironmentSpec

from conftest import FD_REL_STEP, GOLD_GAMMA, GOLD_OMEGA_P, fd_force, \
    make_particle

# a tolerance the Drude double integrals cannot meet in 10 subdivisions
QUAD_IMPOSSIBLE = QuadratureConfig(rel_tol=1e-15, abs_tol=0.0,
                                   max_subdivisions=10)

PC = PerfectConductor()
GOLD = Drude(omega_p=GOLD_OMEGA_P, gamma=GOLD_GAMMA)
PLASMA = Plasma(omega_p=GOLD_OMEGA_P)
QUAD = QuadratureConfig()
QUAD_FAST = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-14)


def geo(p, zt):
    return Geometry(zt / p.k_e)


def test_force_components_signs():
    p = make_particle(spin=100.0)
    fb = force_breakdown(p, PC, geo(p, 1.0), QUAD)
    assert fb.converged
    assert fb.f_e < 0.0       # electric part attracts
    assert fb.f_m_minus > 0.0  # magnetic parts repel
    assert fb.f_m_z > 0.0
    assert fb.f_gravity < 0.0
    assert fb.f_total == pytest.approx(
        fb.f_e + fb.f_m_minus + fb.f_m_z + fb.f_gravity, rel=1e-12, abs=0.0)
    assert fb.f_total_cp == pytest.approx(
        fb.f_total - fb.f_m_z, rel=1e-9)


def test_analytic_vs_finite_difference_pc():
    p = make_particle(spin=100.0)
    g = geo(p, 2.0)
    a = force_breakdown(p, PC, g, QUAD)
    for name, force in (("electric", a.f_e), ("magnetic", a.f_m_minus),
                        ("static", a.f_m_z)):
        assert fd_force(name, p, PC, g, QUAD) == pytest.approx(
            force, rel=1e-4), name


def test_analytic_vs_finite_difference_drude():
    p = make_particle(spin=100.0)
    g = geo(p, 1.0)
    a = force_breakdown(p, GOLD, g, QUAD_FAST)
    for name, force in (("electric", a.f_e), ("magnetic", a.f_m_minus)):
        assert fd_force(name, p, GOLD, g, QUAD_FAST) == pytest.approx(
            force, rel=1e-4), name


def test_finite_difference_reports_non_convergence():
    p = make_particle(spin=100.0)
    g = geo(p, 1.0)
    assert not force_breakdown(p, GOLD, g, QUAD_IMPOSSIBLE).converged
    # and so do the potentials a central difference reads
    for zt in (1.0 - FD_REL_STEP, 1.0 + FD_REL_STEP):
        for name in ("electric", "magnetic"):
            _, res = potentials.component(name, p, GOLD, geo(p, zt),
                                          QUAD_IMPOSSIBLE)
            assert not res.converged


def test_force_mode_validation():
    p = make_particle()
    with pytest.raises(ValueError):
        force_breakdown(p, PC, geo(p, 1.0), QUAD, mode="bogus")


def test_pc_forces_use_closed_forms(component_calls):
    p = make_particle(spin=100.0)
    force_breakdown(p, PC, geo(p, 1.0), QUAD)
    assert component_calls == {"u_e_pc_closed": 1, "u_m_pc_closed": 1,
                               "u_m_static": 1}
    component_calls.clear()
    force_breakdown(p, PC, geo(p, 1.0), QUAD, mode="excited0")
    assert component_calls == {"u_e_pc_closed": 1, "u_m0_pc_closed": 1}


def test_excited_mode_breakdown():
    p = make_particle(spin=10.0)
    fb = force_breakdown(p, PC, geo(p, 1.0), QUAD, mode="excited0")
    assert fb.f_m_excited0 is not None and fb.f_m_excited0 > 0.0
    assert fb.f_m_minus == 0.0 and fb.f_m_z == 0.0


def test_gravity_off_environment():
    p = make_particle(spin=100.0)
    fb = force_breakdown(p, PC, geo(p, 1.0), QUAD,
                         environment=EnvironmentSpec(g=0.0))
    assert fb.f_gravity == 0.0


def test_cp_only_equilibrium_matches_quarter_power_law():
    p = make_particle(spin=2e5)
    eq = find_equilibrium(p, PC, QUAD, include_static=False,
                          bracket=(0.5, 50.0))
    assert eq.stable
    assert eq.analytic_estimate == pytest.approx(2.9565, rel=1e-3)
    assert eq.z_tilde_eq == pytest.approx(eq.analytic_estimate, rel=0.10)
    assert abs(eq.residual_force) < 1e-9


def test_static_equilibrium_matches_quarter_power_law():
    p = make_particle(spin=100.0)
    eq = find_equilibrium(p, PC, QUAD, include_static=True,
                          bracket=(1.0, 100.0))
    assert eq.stable
    assert eq.analytic_estimate == pytest.approx(11.118, rel=1e-3)
    assert eq.z_tilde_eq == pytest.approx(eq.analytic_estimate, rel=0.10)


def test_gamma0_quote_changes_no_result():
    # Gamma0 is derived from the dipole; a quote is only checked
    quoted, bare = make_particle(spin=100.0), make_particle(spin=100.0,
                                                           gamma_0=None)
    g = geo(quoted, 0.3)
    for surface, quad in ((PC, QUAD), (PLASMA, QUAD_FAST)):
        assert spin_threshold(quoted, surface, g, quad) == \
            spin_threshold(bare, surface, g, quad)
    assert find_equilibrium(quoted, PC, QUAD, bracket=(1.0, 100.0)) == \
        find_equilibrium(bare, PC, QUAD, bracket=(1.0, 100.0))


def test_no_equilibrium_without_gravity():
    # with static repulsion and no gravity the total force never vanishes
    p = make_particle(spin=100.0)
    with pytest.raises(NoEquilibrium):
        find_equilibrium(p, PC, QUAD, environment=EnvironmentSpec(g=0.0),
                         bracket=(1.0, 50.0))


def test_threshold_near_field_values():
    p = make_particle()
    th = spin_threshold(p, PC, geo(p, 1e-3), QUAD,
                        environment=EnvironmentSpec(g=0.0))
    assert th.converged
    assert th.with_static == pytest.approx(math.sqrt(0.5 / p.eta), rel=0.02)
    assert th.without_static == pytest.approx(1.0 / p.eta, rel=0.02)


def test_threshold_unreachable_far_away():
    # far from the surface gravity wins at every spin (no static, linear)
    p = make_particle()
    th = spin_threshold(p, PC, geo(p, 1e3), QUAD)
    assert th.without_static == math.inf


def test_force_vanishes_at_thresholds():
    # the unit-spin coefficients reproduce the force at another spin:
    # F(S) = C + A*S + B*S^2 + G*S vanishes at each threshold
    for surface, quad in ((PC, QUAD), (PLASMA, QUAD_FAST)):
        p = make_particle()
        g = geo(p, 0.3)
        th = spin_threshold(p, surface, g, quad)
        at_s = force_breakdown(replace(p, spin=th.with_static), surface, g,
                               quad)
        scale = abs(at_s.f_e)
        assert abs(at_s.f_total) < 1e-9 * scale
        at_s = force_breakdown(replace(p, spin=th.without_static), surface,
                               g, quad)
        assert abs(at_s.f_total_cp) < 1e-9 * scale


def test_excited_two_term_force():
    p = make_particle(spin=100.0)
    g = geo(p, 1.0)
    approx = approx_total_force_excited(p, g)
    fb = force_breakdown(p, PC, g, QUAD, mode="excited0")
    assert approx == pytest.approx(fb.f_m_excited0 + fb.f_gravity, rel=1e-3)
    # one non-retarded check and one exception class for the two-term
    # force and the asymptotic near-field forms
    assert RegimeViolation is asymptotics.RegimeViolation
    with pytest.raises(asymptotics.RegimeViolation, match="non-retarded"):
        approx_total_force_excited(p, geo(p, 0.5 / p.omega_tilde))
