"""Shared fixtures: reference particle, gold-like surfaces, tolerances."""

import math
from collections import Counter

import pytest

from magcp import Drude, Geometry, PerfectConductor, Plasma, \
    QuadratureConfig, build_particle, potentials

OMEGA_E = 2.0 * math.pi * 1.0e15
OMEGA_M = 2.0 * math.pi * 1.0e10
GOLD_OMEGA_P = 1.36e16
GOLD_GAMMA = 1.0e14


def make_particle(spin=100.0, omega_m=OMEGA_M, gamma_0=1.8e7):
    return build_particle(omega_e=OMEGA_E, omega_m=omega_m, spin=spin,
                          dipole_moment_au=0.5, gamma_0=gamma_0)


def resonant_drude(p, q_factor=1e4, delta_p=-1e2):
    """Drude surface with its plasmon resonance near p's omega_m; the
    defaults give Re eps(omega_m) = -1.04."""
    gamma = p.omega_m / (q_factor + delta_p)
    return Drude(omega_p=math.sqrt(2.0) * q_factor * gamma, gamma=gamma)


@pytest.fixture(scope="session")
def particle():
    return make_particle()


@pytest.fixture(scope="session")
def pc():
    return PerfectConductor()


@pytest.fixture(scope="session")
def gold_drude():
    return Drude(omega_p=GOLD_OMEGA_P, gamma=GOLD_GAMMA)


@pytest.fixture(scope="session")
def gold_plasma():
    return Plasma(omega_p=GOLD_OMEGA_P)


@pytest.fixture(scope="session")
def quad():
    return QuadratureConfig()


@pytest.fixture(scope="session")
def quad_fast():
    # metal double integrals are much cheaper at this tolerance and the
    # acceptance tolerances are percent-level
    return QuadratureConfig(rel_tol=1e-6, abs_tol=1e-14)


# the component evaluators a representation choice can route to
COUNTED_COMPONENTS = ("u_e_ground", "u_m_ground_broadband", "u_m_static",
                      "u_m_excited0", "u_e_pc_closed", "u_m_pc_closed",
                      "u_m0_pc_closed")


@pytest.fixture
def component_calls(monkeypatch):
    """Counter of calls per component evaluator.

    Each evaluator is wrapped by rebinding its name in magcp.potentials,
    as the benchmark's tracer does, so a caller that looked the function
    up elsewhere would go uncounted.
    """
    counts = Counter()
    for name in COUNTED_COMPONENTS:
        def counting(*args, _fn=getattr(potentials, name), _name=name,
                     **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(potentials, name, counting)
    return counts


FD_REL_STEP = 1e-4  # central-difference step, relative to z


def fd_force(name, particle, surface, geometry, quad):
    """Minus the central difference of potentials.component(name) at
    z*(1 +- FD_REL_STEP): a force that does not differentiate under the
    integral sign, to check the analytic one against."""
    zt = geometry.z_tilde(particle)
    h = FD_REL_STEP * zt
    u_p, _ = potentials.component(name, particle, surface,
                                  Geometry((zt + h) / particle.k_e), quad)
    u_m, _ = potentials.component(name, particle, surface,
                                  Geometry((zt - h) / particle.k_e), quad)
    return -(u_p - u_m) / (2 * h)
