"""Casimir-Polder interactions of a magnetic point particle with a
planar surface.

The particle carries one electric-dipole transition (frequency omega_e)
and a large spin S with a magnetic transition at omega_m << omega_e; the
surface is a perfect conductor, a Drude metal or a lossless plasma.  The
package evaluates the dispersive level shifts, decay-rate corrections,
forces, levitation equilibria and the spin needed for net repulsion, all
in the dimensionless convention U/(hbar Gamma0), F/(hbar Gamma0 k_e),
z*k_e with k_e = omega_e/c.
"""

from .asymptotics import (
    AsymptoticCoefficients,
    Region,
    classify_region,
    coefficients,
    fresnel_nr_expansion,
    surface_resonance_potential,
    surface_resonance_rate,
    table1_potential,
)
from .materials import (
    Drude,
    FresnelPair,
    PerfectConductor,
    Plasma,
    SurfaceModel,
    fresnel_imag_axis,
    fresnel_static_limit,
    permittivity_imag_axis,
    permittivity_real_freq,
)
from .mechanics import (
    Equilibrium,
    ForceBreakdown,
    NoEquilibrium,
    SpinThresholds,
    approx_total_force_excited,
    find_equilibrium,
    force_breakdown,
    spin_threshold,
)
from .params import (
    EnvironmentSpec,
    Geometry,
    ParticleSpec,
    build_particle,
    eta_from_dipole,
    from_dimensionless,
    gamma0_from_dipole,
    gravity_force_dimensionless,
    to_dimensionless,
)
from .potentials import (
    DecayBreakdown,
    PotentialBreakdown,
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
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    integrate_finite,
    integrate_nested,
    integrate_semi_infinite,
)

__version__ = "1.0.0"

__all__ = [
    "AsymptoticCoefficients",
    "DecayBreakdown",
    "Drude",
    "EnvironmentSpec",
    "Equilibrium",
    "ForceBreakdown",
    "FresnelPair",
    "Geometry",
    "IntegralResult",
    "NoEquilibrium",
    "ParticleSpec",
    "PerfectConductor",
    "Plasma",
    "PotentialBreakdown",
    "QuadratureConfig",
    "Region",
    "SpinThresholds",
    "SurfaceModel",
    "approx_total_force_excited",
    "build_particle",
    "classify_region",
    "coefficients",
    "decay_breakdown",
    "delta_gamma_e",
    "delta_gamma_m",
    "eta_from_dipole",
    "find_equilibrium",
    "force_breakdown",
    "fresnel_imag_axis",
    "fresnel_nr_expansion",
    "fresnel_static_limit",
    "from_dimensionless",
    "gamma0_from_dipole",
    "gravity_force_dimensionless",
    "integrate_finite",
    "integrate_nested",
    "integrate_semi_infinite",
    "matrix_element_flip",
    "permittivity_imag_axis",
    "permittivity_real_freq",
    "potential_breakdown",
    "spin_threshold",
    "surface_resonance_potential",
    "surface_resonance_rate",
    "table1_potential",
    "to_dimensionless",
    "u_e_ground",
    "u_e_pc_closed",
    "u_m0_pc_closed",
    "u_m_excited0",
    "u_m_ground_broadband",
    "u_m_pc_closed",
    "u_m_static",
]
