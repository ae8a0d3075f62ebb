"""Closed-form asymptotic potentials, region classification and
near-field Fresnel expansions.

These serve both as fast evaluation paths and as oracles for the full
integrals in :mod:`magcp.potentials`.  Distance regimes:

* Region I: z0 small against every transition and material wavelength
  (non-retarded for everything).
* Region II: retarded for the electric transition and the material
  response, still non-retarded for the magnetic transition.
* Region III: retarded for everything.

A margin factor, CLASSIFY_MARGIN, keeps the classifier honest: when no
strict inequality chain holds by the margin, the distance is a crossover
and no tabulated law applies.

Note on validity: the Drude Region II magnetic law is the perfect-conductor
broadband law (3/64)*eta*S/z^3 times (1 - 3*delta_m/z0), where
delta_m = c*sqrt(2*gamma/omega_m)/omega_p is the skin depth at omega_m.
The factor is leading order in delta_m/z0 (see :func:`table1_potential`).
delta_m is a scale not visible in the region inequalities themselves, and
the correction falls off as 1/z0, so it is largest at the near end of
Region II: for gold parameters 3*delta_m*k_e = 78, against 7 % at
z_tilde = 1e3.  Where 3*delta_m/z0 >= 0.1 the law is refused with
ExpansionOutOfValidity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import constants as sc
from .materials import (
    Drude,
    FresnelPair,
    NegativeFrequency,
    PerfectConductor,
    Plasma,
    SurfaceModel,
    permittivity_imag_axis,
    permittivity_real_freq,
)
from .params import Geometry, ParticleSpec


class CrossoverRegion(ValueError):
    pass


class UnsupportedModel(ValueError):
    pass


class ExpansionOutOfValidity(ValueError):
    pass


class RegimeViolation(ValueError):
    pass


class Region(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    CROSSOVER = "crossover"


# factor by which each inequality of a region must hold
CLASSIFY_MARGIN = 10.0
# largest sqrt(eps - 1)*xi/(kappa*c) at which fresnel_nr_expansion applies
NR_EXPANSION_LIMIT = 0.3


def classify_region(particle: ParticleSpec, surface: SurfaceModel,
                    geometry: Geometry) -> Region:
    """Distance regime of Table-type asymptotics, or CROSSOVER."""
    z0 = geometry.z0
    scales_high = [sc.c / particle.omega_e]
    if isinstance(surface, (Drude, Plasma)):
        scales_high.append(sc.c / surface.omega_p)
    l_short = min(scales_high)   # first scale to become retarded
    l_short_all = max(scales_high)
    l_m = sc.c / particle.omega_m
    if z0 * CLASSIFY_MARGIN < l_short:
        return Region.I
    if l_short_all * CLASSIFY_MARGIN < z0 and z0 * CLASSIFY_MARGIN < l_m:
        return Region.II
    if z0 > l_m * CLASSIFY_MARGIN:
        return Region.III
    return Region.CROSSOVER


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Coefficients of the Region I 1/z^3 and 1/z laws.

    c_e3 multiplies -1/z^3 for the electric shift (the same coefficient is
    used for the Drude and plasma models); c_m1 multiplies +1/z for the
    magnetic shift and differs between the models, the plasma one
    containing an extra S^2 static piece.
    """
    c_e3: float
    c_m1: float


def coefficients(particle: ParticleSpec,
                 surface: SurfaceModel) -> AsymptoticCoefficients:
    """Region I coefficients for a Drude or plasma surface."""
    if isinstance(surface, PerfectConductor):
        raise UnsupportedModel(
            "the perfect conductor has no finite-omega_p coefficients")
    wp = surface.omega_p
    we = particle.omega_e
    wm = particle.omega_m
    eta = particle.eta
    spin = particle.spin
    wt = particle.omega_tilde
    c_e3 = 3.0 * wp / (64.0 * (math.sqrt(2.0) * we + wp))
    lead = wp / (wm + wp / math.sqrt(2.0))
    if isinstance(surface, Drude):
        g = surface.gamma
        bracket = lead + wp * (wm + (2.0 * g / math.pi) * math.log(g / wm)) \
            / (2.0 * (wm**2 + g**2))
        c_m1 = 3.0 * wt * eta * spin * wp / (64.0 * we) * bracket
    else:
        bracket = lead + wp / (2.0 * wm)
        c_m1 = 3.0 * wt * eta * spin * wp / (64.0 * we) * bracket \
            + 3.0 / 64.0 * (wp / we) ** 2 * eta * spin**2
    return AsymptoticCoefficients(c_e3=c_e3, c_m1=c_m1)


def table1_potential(particle: ParticleSpec, surface: SurfaceModel,
                     geometry: Geometry, region: Region,
                     kind: str) -> float:
    """Tabulated asymptotic ground-state shift for the given region.

    The magnetic entries are the totals (broadband plus any surviving
    static image part) for the stretched ground sublevel.

    Drude Region II magnetic: (3/64)*eta*S/z^3 * (1 - 3*delta_m/z0) with
    delta_m = c*sqrt(2*gamma/omega_m)/omega_p.  In Region II the magnetic
    response is non-retarded, so only the s-wave image matters, weighted
    by kappa^2*exp(-2*kappa*z0).  For xi << gamma,
    kappa_2^2 = kappa^2 + omega_p^2*xi/(gamma*c^2) and
    r_s = (kappa - kappa_2)/(kappa + kappa_2) ~ -1 + 2*kappa/kappa_2.
    Against that weight kappa averages to 3/(2*z0), so the correction is
    -3/(z0*kappa_2) relative to the perfect-conductor law.  Averaging
    1/kappa_2 against the magnetic polarizability
    omega_m/(omega_m^2 + xi^2), with
    int_0^inf t^(-1/2)/(1 + t^2) dt = pi/sqrt(2), gives delta_m.  The
    factor is leading order in delta_m/z0 and turns poor where 3*delta_m
    is not small against z0: for gold parameters it is 1 % high at
    z_tilde = 1e3, 9 % high at 300 and 170 % high at 100, though all three
    distances classify as Region II.  It is therefore refused with
    ExpansionOutOfValidity where 3*delta_m/z0 >= 0.1 (for gold, below
    z_tilde = 782).
    """
    if kind not in ("electric", "magnetic"):
        raise ValueError(f"kind must be electric or magnetic, got {kind!r}")
    if region is Region.CROSSOVER:
        raise CrossoverRegion("no tabulated law applies at a crossover distance")
    zt = geometry.z_tilde(particle)
    eta = particle.eta
    spin = particle.spin
    wt = particle.omega_tilde

    if kind == "electric":
        if region is Region.I:
            if isinstance(surface, PerfectConductor):
                return -3.0 / (64.0 * zt**3)
            return -coefficients(particle, surface).c_e3 / zt**3
        return -3.0 / (16.0 * math.pi * zt**4)

    if region is Region.I:
        if isinstance(surface, PerfectConductor):
            return 3.0 / 64.0 * eta * spin * (2.0 * spin + 1.0) / zt**3
        return coefficients(particle, surface).c_m1 / zt
    if region is Region.II:
        if isinstance(surface, Drude):
            delta_m = sc.c * math.sqrt(2.0 * surface.gamma / particle.omega_m) \
                / surface.omega_p
            correction = 3.0 * delta_m / geometry.z0
            if correction >= 0.1:
                raise ExpansionOutOfValidity(
                    f"3*delta_m/z0 = {correction:.3g} is not small; the "
                    f"Drude Region II magnetic law needs z0 >= "
                    f"{30.0 * delta_m:.3g} m")
            return 3.0 / 64.0 * eta * spin / zt**3 * (1.0 - correction)
        return 3.0 / 64.0 * eta * spin * (2.0 * spin + 1.0) / zt**3
    # Region III
    base = 3.0 / (16.0 * math.pi) * eta * spin / (wt * zt**4)
    if isinstance(surface, Drude):
        return base
    return base * (math.pi * spin * zt * wt / 2.0 + 1.0)


def fresnel_nr_expansion(surface: SurfaceModel, kappa_perp,
                         xi: float) -> FresnelPair:
    """Second-order near-field expansion of the imaginary-axis Fresnel pair.

    r_p ~ (eps-1)/(eps+1) - eps(eps-1)/(eps+1)^2 * xi^2/(kappa^2 c^2),
    r_s ~ -(1/4)(eps-1) * xi^2/(kappa^2 c^2).
    Valid for xi > 0 and sqrt(eps-1)*xi/(kappa*c) below NR_EXPANSION_LIMIT.
    """
    if isinstance(surface, PerfectConductor):
        raise UnsupportedModel("expansion needs a finite permittivity")
    # eps(0) is infinite and the expansion inf/inf; also refuses nan
    if not np.all(np.asarray(xi, dtype=float) > 0):
        raise NegativeFrequency(f"xi must be > 0, got {xi}")
    kappa_perp = np.asarray(kappa_perp, dtype=float)
    eps = permittivity_imag_axis(surface, xi)
    param = np.sqrt(eps - 1.0) * xi / (kappa_perp * sc.c)
    if np.any(param >= NR_EXPANSION_LIMIT):
        raise ExpansionOutOfValidity(
            f"expansion parameter {np.max(param):.3g} exceeds "
            f"{NR_EXPANSION_LIMIT}")
    ratio = (xi / (kappa_perp * sc.c)) ** 2
    r_p = (eps - 1.0) / (eps + 1.0) \
        - eps * (eps - 1.0) / (eps + 1.0) ** 2 * ratio
    r_s = -0.25 * (eps - 1.0) * ratio
    return FresnelPair(r_s, r_p)


def _check_nr(particle: ParticleSpec, geometry: Geometry) -> float:
    zt = geometry.z_tilde(particle)
    if particle.omega_tilde * zt >= 0.1:
        raise RegimeViolation(
            f"omega_m*z0/c = {particle.omega_tilde * zt:.3g} is not small; "
            "the near-field forms need the non-retarded regime")
    return zt


def _surface_resonance(particle: ParticleSpec, surface: Drude,
                       geometry: Geometry, form: str, imag: bool,
                       power: int) -> float:
    """(3 eta S(S+1) wt^2 / 64 z) times the part a surface form keeps.

    form = "epsilon": Im[(e-1)(e+5)/(e+1)] when imag, else
    -Re[(e-1)(e+5)/(e+1)]/2, with e = eps(omega_m).  form = "q":
    Q/delta_p**power with Q = omega_p/(sqrt(2) gamma) and delta_p the
    detuning from omega_p/sqrt(2) in linewidths; needs Q >> |delta_p| >> 1.
    """
    if not isinstance(surface, Drude):
        raise UnsupportedModel("surface resonance forms are Drude-specific")
    zt = _check_nr(particle, geometry)
    s_fac = particle.eta * particle.spin * (particle.spin + 1.0) \
        * particle.omega_tilde**2
    scale = 3.0 * s_fac / (64.0 * zt)
    if form == "epsilon":
        eps = permittivity_real_freq(surface, particle.omega_m)
        bracket = (eps - 1.0) * (eps + 5.0) / (eps + 1.0)
        return scale * (bracket.imag if imag else -0.5 * bracket.real)
    if form == "q":
        q = surface.omega_p / (math.sqrt(2.0) * surface.gamma)
        delta_p = (particle.omega_m - surface.omega_p / math.sqrt(2.0)) \
            / surface.gamma
        if not (q > 10.0 * abs(delta_p) and abs(delta_p) > 1.0):
            raise RegimeViolation(
                f"Q = {q:.3g}, delta_p = {delta_p:.3g} violate "
                "Q >> |delta_p| >> 1")
        return scale * q / delta_p**power
    raise ValueError(f"form must be epsilon or q, got {form!r}")


def surface_resonance_potential(particle: ParticleSpec, surface: Drude,
                                geometry: Geometry,
                                form: str = "epsilon") -> float:
    """Non-retarded resonant shift of |S, 0> near a Drude surface.

    form = "epsilon": -(3 eta S(S+1) wt^2 / 128 z) * Re[(e-1)(e+5)/(e+1)]
    with e = eps(omega_m).  form = "q": the plasmon-resonance reduction
    +(3 eta S(S+1) wt^2 / 64 z) * Q/delta_p with Q = omega_p/(sqrt(2)
    gamma) and delta_p the detuning in linewidths; needs Q >> |delta_p|
    >> 1.  The two agree to order 1/|delta_p| in that regime.
    """
    return _surface_resonance(particle, surface, geometry, form,
                              imag=False, power=1)


def surface_resonance_rate(particle: ParticleSpec, surface: Drude,
                           geometry: Geometry, form: str = "epsilon") -> float:
    """Non-retarded spin-flip rate of |S, 0>, units Gamma0.

    form = "epsilon": (3 eta S(S+1) wt^2 / 64 z) * Im[(e-1)(e+5)/(e+1)];
    form = "q": the on-resonance reduction with Im -> Q/delta_p^2.
    """
    return _surface_resonance(particle, surface, geometry, form,
                              imag=True, power=2)
