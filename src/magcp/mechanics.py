"""Forces, equilibria and spin-repulsion thresholds.

Force components are minus the z-derivative of the corresponding
dimensionless potentials, computed by differentiating under the integral
sign (the only z-dependence of every integrand is an exponential).  Sign
convention: +z points away from the surface, so repulsion is positive and
gravity is negative.

Every component goes through :func:`magcp.potentials.component`, which
picks its representation (for the perfect conductor, the single-integral
closed forms of the ground-state shifts); the analytic and the
finite-difference force paths differ only in the deriv flag.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import scipy.constants as sc
from scipy.optimize import brentq

from .materials import SurfaceModel
from .params import EnvironmentSpec, Geometry, ParticleSpec, \
    gravity_force_dimensionless
from .potentials import component
from .quadrature import QuadratureConfig

log = logging.getLogger(__name__)


class BracketError(ValueError):
    pass


class NoEquilibrium(RuntimeError):
    pass


class RegimeViolation(ValueError):
    pass


@dataclass(frozen=True)
class ForceBreakdown:
    f_e: float
    f_m_minus: float
    f_m_z: float
    f_gravity: float
    f_total: float
    f_total_cp: float
    f_m_excited0: float | None = None
    converged: bool = True


@dataclass(frozen=True)
class Equilibrium:
    z_tilde_eq: float
    stable: bool
    residual_force: float
    method: str
    analytic_estimate: float | None = None
    converged: bool = True


_MODE_COMPONENTS = {"ground": ("electric", "magnetic", "static"),
                    "excited0": ("electric", "excited0")}


def _potential_slope(name: str, particle: ParticleSpec,
                     surface: SurfaceModel, geometry: Geometry,
                     quad: QuadratureConfig, finite_difference: bool,
                     rel_step: float = 1e-4):
    """(d/dz_tilde of one component, converged), analytic or central
    difference of the potentials at z*(1 +- rel_step)."""
    if not finite_difference:
        du, res = component(name, particle, surface, geometry, quad,
                            deriv=True)
        return du, res.converged
    zt = geometry.z_tilde(particle)
    h = rel_step * zt
    u_p, res_p = component(name, particle, surface,
                           Geometry((zt + h) / particle.k_e), quad)
    u_m, res_m = component(name, particle, surface,
                           Geometry((zt - h) / particle.k_e), quad)
    return (u_p - u_m) / (2 * h), res_p.converged and res_m.converged


def force_breakdown(particle: ParticleSpec, surface: SurfaceModel,
                    geometry: Geometry, quad: QuadratureConfig,
                    mode: str = "ground", include_static: bool = True,
                    environment: EnvironmentSpec = EnvironmentSpec(),
                    finite_difference: bool = False) -> ForceBreakdown:
    """All dimensionless force components (units hbar*Gamma0*k_e).

    f_total sums the mode's surface components and gravity; f_total_cp
    additionally excludes the magnetostatic image component.  The
    finite_difference flag swaps the analytic differentiation under the
    integral for a central difference of the potentials (step 1e-4 z).
    converged is true only when every integral behind the forces is.
    """
    if mode not in _MODE_COMPONENTS:
        raise ValueError(f"mode must be ground or excited0, got {mode!r}")
    slope = {"static": 0.0}  # what an excluded static term contributes
    ok = True
    for name in _MODE_COMPONENTS[mode]:
        if name != "static" or include_static:
            slope[name], good = _potential_slope(
                name, particle, surface, geometry, quad, finite_difference)
            ok = ok and good
    f_g = gravity_force_dimensionless(particle, environment)
    f_e = -slope["electric"]
    if mode == "ground":
        f_m, f_z = -slope["magnetic"], -slope["static"]
        return ForceBreakdown(
            f_e=f_e, f_m_minus=f_m, f_m_z=f_z, f_gravity=f_g,
            f_total=f_e + f_m + f_z + f_g,
            f_total_cp=f_e + f_m + f_g,
            converged=ok,
        )
    f_m = -slope["excited0"]
    return ForceBreakdown(
        f_e=f_e, f_m_minus=0.0, f_m_z=0.0, f_gravity=f_g,
        f_m_excited0=f_m,
        f_total=f_e + f_m + f_g,
        f_total_cp=f_e + f_m + f_g,
        converged=ok,
    )


def _total_force(particle, surface, quad, mode, include_static, environment,
                 use_cp_total):
    """The total force as a function of z_tilde, and the list it appends
    each evaluation's converged flag to."""
    flags: list[bool] = []

    def f(zt: float) -> float:
        fb = force_breakdown(particle, surface, Geometry(zt / particle.k_e),
                             quad, mode=mode, include_static=include_static,
                             environment=environment)
        flags.append(fb.converged)
        return fb.f_total_cp if use_cp_total else fb.f_total
    return f, flags


def _analytic_equilibrium(particle: ParticleSpec,
                          environment: EnvironmentSpec,
                          mode: str, include_static: bool) -> float | None:
    """Quarter-power near-field estimates of the equilibrium position."""
    if environment.g == 0:
        return None
    base = particle.eta * sc.hbar * particle.gamma_0_free * particle.k_e \
        / (particle.mass_per_spin * environment.g)
    if mode == "ground" and not include_static:
        return (9.0 / 64.0 * base) ** 0.25
    if mode == "ground":
        return (9.0 / 32.0 * particle.spin * base) ** 0.25
    return (9.0 / 64.0 * particle.spin * base) ** 0.25


def find_equilibrium(particle: ParticleSpec, surface: SurfaceModel,
                     quad: QuadratureConfig, mode: str = "ground",
                     include_static: bool = True,
                     bracket: tuple[float, float] = (0.5, 100.0),
                     environment: EnvironmentSpec = EnvironmentSpec(),
                     rel_tol: float = 1e-6) -> Equilibrium:
    """Root of the total dimensionless force over a z_tilde bracket.

    The bracket endpoints must straddle a sign change of the total force.
    include_static=False balances only the Casimir-Polder parts against
    gravity (the f_total_cp convention).  Stability comes from the sign of
    the numerical force slope at the root.  converged is true only when
    every force evaluation of the search, the slope and the residual is.
    """
    lo, hi = bracket
    if not (0 < lo < hi):
        raise BracketError(f"need 0 < lo < hi, got {bracket}")
    f, flags = _total_force(particle, surface, quad, mode, include_static,
                            environment, use_cp_total=not include_static)
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0 or f_hi == 0.0:
        root = lo if f_lo == 0.0 else hi
    elif f_lo * f_hi > 0:
        raise NoEquilibrium(
            f"total force has the same sign ({f_lo:.3g}, {f_hi:.3g}) at "
            f"both bracket ends {bracket}; no root to find")
    else:
        root = brentq(f, lo, hi, rtol=rel_tol)
    h = 1e-3 * root
    slope = (f(root + h) - f(root - h)) / (2 * h)
    residual = f(root)
    return Equilibrium(
        z_tilde_eq=root,
        stable=slope < 0,
        residual_force=residual,
        method="numeric-root",
        analytic_estimate=_analytic_equilibrium(particle, environment, mode,
                                                include_static),
        converged=all(flags),
    )


class SpinThresholds(NamedTuple):
    """Repulsion-threshold spins with and without the magnetostatic term."""
    with_static: float
    without_static: float
    converged: bool


def _smallest_positive_root(b: float, lin: float, c: float) -> float:
    """Smallest positive root of b*S^2 + lin*S + c, inf when none exists."""
    if abs(b) < 1e-30:
        if lin <= 0:
            log.warning("no positive threshold: linear coefficient %.3g <= 0",
                        lin)
            return math.inf
        return -c / lin
    disc = lin * lin - 4.0 * b * c
    if disc < 0:
        log.warning("no positive threshold: negative discriminant %.3g", disc)
        return math.inf
    sq = math.sqrt(disc)
    roots = [(-lin + sq) / (2.0 * b), (-lin - sq) / (2.0 * b)]
    pos = sorted(r for r in roots if r > 0)
    if not pos:
        log.warning("no positive threshold: roots %s", roots)
        return math.inf
    return pos[0]


def spin_threshold(particle: ParticleSpec, surface: SurfaceModel,
                   geometry: Geometry, quad: QuadratureConfig,
                   environment: EnvironmentSpec = EnvironmentSpec(),
                   ) -> SpinThresholds:
    """Smallest spins making the total ground-state force repulsive (zero).

    The magnetic force is exactly A*S + B*S^2 (broadband linear, static
    image quadratic), the electric part C is S-independent and gravity is
    G*S, so one force breakdown at S = 1 gives every coefficient.  The
    thresholds are the positive roots of B*S^2 + (A+G)*S + C (with the
    static term) and (A+G)*S + C (without it); inf when none exists.
    """
    fb = force_breakdown(particle.with_spin(1.0), surface, geometry, quad,
                         environment=environment)
    lin = fb.f_m_minus + fb.f_gravity
    return SpinThresholds(
        with_static=_smallest_positive_root(fb.f_m_z, lin, fb.f_e),
        without_static=_smallest_positive_root(0.0, lin, fb.f_e),
        converged=fb.converged,
    )


def approx_total_force_excited(particle: ParticleSpec, geometry: Geometry,
                               environment: EnvironmentSpec = EnvironmentSpec(),
                               ) -> float:
    """Two-term near-field force on |S, 0> above a perfect conductor.

    9 eta S(S+1)/(64 z^4) minus the dimensionless weight M g; valid only
    while the magnetic transition is non-retarded.
    """
    zt = geometry.z_tilde(particle)
    if particle.omega_tilde * zt >= 0.1:
        raise RegimeViolation(
            f"omega_m*z0/c = {particle.omega_tilde * zt:.3g}: the two-term "
            "force needs the non-retarded regime")
    cp = 9.0 * particle.eta * particle.spin * (particle.spin + 1.0) \
        / (64.0 * zt**4)
    return cp + gravity_force_dimensionless(particle, environment)
