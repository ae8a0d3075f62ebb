"""Shared fixtures: reference particle, gold-like surfaces, tolerances."""

from collections import Counter

import pytest

from magcp import acceptance, potentials
# the reference particle, gold and the finite-difference force are the
# acceptance criteria's
from magcp.acceptance import FD_REL_STEP, GOLD_GAMMA, GOLD_OMEGA_P, \
    OMEGA_E, OMEGA_M, fd_force, make_particle, resonant_drude  # noqa: F401


@pytest.fixture(scope="session")
def particle():
    return make_particle()


@pytest.fixture(scope="session")
def pc():
    return acceptance.PC


@pytest.fixture(scope="session")
def gold_drude():
    return acceptance.GOLD


@pytest.fixture(scope="session")
def gold_plasma():
    return acceptance.PLASMA


@pytest.fixture(scope="session")
def quad():
    return acceptance.QUAD


@pytest.fixture(scope="session")
def quad_fast():
    return acceptance.QUAD_FAST


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
