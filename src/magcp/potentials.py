"""Surface-induced level shifts and decay-rate corrections.

Ground-state shifts come from imaginary-frequency double integrals over
(xi, kappa_perp); the excited m_S = 0 sublevel additionally carries a
resonant real-frequency contribution evaluated as a split propagating/
evanescent integral.  Everything is dimensionless: potentials in units of
hbar*Gamma0, distances in 1/k_e.

The ground state is the stretched sublevel m_S = -S.  Its magnetic shift
splits into a broadband part linear in S, and a magnetostatic image part
quadratic in S that survives only for surface models with a nonzero
static r_s (perfect conductor and plasma, not Drude).

Sign conventions: shifts are potentials, so negative means attractive.
The electric shift is negative for every conducting surface; both
magnetic ground-state parts are repulsive for the perfect conductor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.constants as sc

from .materials import (
    Drude,
    PerfectConductor,
    Plasma,
    SurfaceModel,
    fresnel_imag_axis,
    fresnel_real_freq_from_kappa,
    fresnel_static_limit,
    permittivity_real_freq,
)
from .params import Geometry, ParticleSpec
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    integrate_finite,
    integrate_nested,
    integrate_semi_infinite,
)


class QuadratureFailure(RuntimeError):
    def __init__(self, message: str, result: IntegralResult):
        super().__init__(f"{message}: error estimate {result.error_estimate:.3g} "
                         f"after {result.evaluations} evaluations"
                         + (f" ({result.level})" if result.level else ""))
        self.result = result


@dataclass(frozen=True)
class PotentialBreakdown:
    u_e_minus: float
    u_m_minus: float
    u_m_z: float
    total_ground: float
    u_m_excited0: float | None = None
    u_e_converged: bool = True
    u_m_converged: bool = True
    u_m_z_converged: bool = True
    u_m_excited0_converged: bool = True


@dataclass(frozen=True)
class DecayBreakdown:
    delta_gamma_e: float
    delta_gamma_m: float
    converged: bool = True


def matrix_element_flip(spin: float, m_s: float) -> float:
    """<S,m|S+ S-|S,m> = S(S+1) - m(m-1), the spin-flip weight."""
    return spin * (spin + 1.0) - m_s * (m_s - 1.0)


def _finish(value: float, res: IntegralResult, what: str, strict: bool):
    """(value, res), or QuadratureFailure when strict and res did not
    converge."""
    if strict and not res.converged:
        raise QuadratureFailure(f"{what} did not converge", res)
    return value, res


# ---------------------------------------------------------------------------
# imaginary-frequency double integrals (ground-state broadband shifts)

def _ground_double(particle: ParticleSpec, surface: SurfaceModel,
                   geometry: Geometry, quad: QuadratureConfig,
                   which: str, deriv: bool) -> IntegralResult:
    """Common (xi, kappa) double integral for the broadband shifts.

    which = "electric": weight xi^2/(xi^2+1), bracket r_s - r_p k^2/x^2.
    which = "magnetic": weight wt*xi^2/(xi^2+wt^2), bracket r_p - r_s k^2/x^2
    with wt = omega_m/omega_e.  Both brackets are evaluated in the cleared
    form [r a x^2 - r_b k^2]/(x^2 + w^2) to stay finite at xi -> 0.
    deriv inserts the factor -2*kappa (d/dz of the exponential).
    """
    zt = geometry.z_tilde(particle)
    wt = particle.omega_tilde
    k_e = particle.k_e
    omega_e = particle.omega_e

    if which == "electric":
        w_sq = 1.0
    elif which == "magnetic":
        w_sq = wt * wt
    else:
        raise ValueError(f"which must be electric or magnetic, got {which!r}")

    # xi_t is a scalar with a 1-d kappa_t, or a column with a 2-d kappa_t
    def inner(xi_t, kappa_t: np.ndarray) -> np.ndarray:
        pair = fresnel_imag_axis(surface, kappa_t * k_e, xi_t * omega_e)
        if which == "electric":
            num = pair.r_s * xi_t**2 - pair.r_p * kappa_t**2
        else:
            num = pair.r_p * xi_t**2 - pair.r_s * kappa_t**2
        out = np.exp(-2.0 * kappa_t * zt) * num / (xi_t**2 + w_sq)
        if deriv:
            out *= -2.0 * kappa_t
        return out

    breakpoints = {wt, 1.0}
    if isinstance(surface, Drude):
        breakpoints.update({surface.omega_p / omega_e,
                            surface.gamma / omega_e})
    elif isinstance(surface, Plasma):
        breakpoints.add(surface.omega_p / omega_e)
    cfg = replace(quad,
                  split_points=tuple(sorted(b for b in breakpoints if b > 0)))
    # The inner integral leaves an overall exp(-2*xi*z) envelope, so the
    # outer support ends near xi = 1/(2*z) in both the near and far zones.
    outer_scale = 1.0 / (2.0 * zt)
    inner_scale = 1.0 / (2.0 * zt)
    return integrate_nested(inner, 0.0, lambda xi_t: xi_t, cfg,
                            outer_tail_scale=outer_scale,
                            inner_tail_scale=lambda xi_t: inner_scale)


def u_e_ground(particle: ParticleSpec, surface: SurfaceModel,
               geometry: Geometry, quad: QuadratureConfig,
               deriv: bool = False, strict: bool = True):
    """Electric ground-state shift (units hbar*Gamma0); negative.

    With deriv=True returns d/dz_tilde of the shift instead.
    """
    res = _ground_double(particle, surface, geometry, quad, "electric", deriv)
    return _finish(3.0 / (8.0 * math.pi) * res.value, res,
                   "electric ground shift", strict)


def u_m_ground_broadband(particle: ParticleSpec, surface: SurfaceModel,
                         geometry: Geometry, quad: QuadratureConfig,
                         deriv: bool = False, strict: bool = True):
    """Broadband magnetic ground-state shift; repulsive, linear in S."""
    res = _ground_double(particle, surface, geometry, quad, "magnetic", deriv)
    pref = 3.0 / (8.0 * math.pi) * particle.omega_tilde * particle.eta * particle.spin
    return _finish(pref * res.value, res, "broadband magnetic ground shift",
                   strict)


# ---------------------------------------------------------------------------
# magnetostatic image term

def u_m_static(particle: ParticleSpec, surface: SurfaceModel,
               geometry: Geometry, quad: QuadratureConfig,
               deriv: bool = False, strict: bool = True):
    """Zero-frequency magnetic image shift; quadratic in S.

    The xi -> 0 limit is taken analytically per material: Drude has
    r_s(kappa, 0) = 0 so the term vanishes identically; the perfect
    conductor admits the closed form (3/32) eta S^2 / z^3; the plasma
    value needs a single kappa quadrature.
    """
    zt = geometry.z_tilde(particle)
    eta_s2 = particle.eta * particle.spin**2
    if isinstance(surface, Drude):
        return (0.0, IntegralResult(0.0, 0.0, 0, True))
    if isinstance(surface, PerfectConductor):
        val = 3.0 / 32.0 * eta_s2 / zt**3
        if deriv:
            val = -3.0 * val / zt
        return (val, IntegralResult(val, 0.0, 0, True))

    def integrand(kappa_t: np.ndarray) -> np.ndarray:
        pair = fresnel_static_limit(surface, kappa_t * particle.k_e)
        out = kappa_t**2 * np.exp(-2.0 * kappa_t * zt) * pair.r_s
        if deriv:
            out *= -2.0 * kappa_t
        return out

    res = integrate_semi_infinite(integrand, 0.0, quad,
                                  tail_scale=1.0 / (2.0 * zt))
    return _finish(-3.0 / 8.0 * eta_s2 * res.value, res, "magnetostatic shift",
                   strict)


# ---------------------------------------------------------------------------
# perfect-conductor closed forms (single integrals)

def _f_kernel(x: np.ndarray) -> np.ndarray:
    return (1.0 + x + x**2) * np.exp(-x)


def _f_kernel_prime(x: np.ndarray) -> np.ndarray:
    return (x - x**2) * np.exp(-x)


def _pc_single(zt: float, w: float, quad: QuadratureConfig,
               deriv: bool = False) -> IntegralResult:
    """integral of w*f(2*xi*z)/(xi^2+w^2) over xi in (0, inf).

    With deriv=True integrates the z-derivative of the kernel,
    w*2*xi*f'(2*xi*z)/(xi^2+w^2), instead.
    """
    kern = _f_kernel_prime if deriv else _f_kernel

    def integrand(xi: np.ndarray) -> np.ndarray:
        val = w * kern(2.0 * xi * zt) / (xi**2 + w**2)
        if deriv:
            val *= 2.0 * xi
        return val

    # the kernel decays on scale 1/(2z) and the Lorentzian on scale w; a
    # geometric ladder of breakpoints bridges the two so no initial panel
    # spans the narrow support unsampled when the scales are far apart
    s_lo = min(w, 1.0 / (2.0 * zt))
    s_hi = max(w, 1.0 / (2.0 * zt))
    splits = []
    p = s_lo
    while p < 4.0 * s_hi:
        splits.append(p)
        p *= 4.0
    return integrate_semi_infinite(integrand, 0.0,
                                   replace(quad, split_points=tuple(splits)),
                                   tail_scale=s_hi)


def _pc_closed(zt: float, w: float, prefactor: float,
               quad: QuadratureConfig, deriv: bool, what: str, strict: bool):
    """Value (or z-derivative) of prefactor/z^3 times the kernel integral."""
    res = _pc_single(zt, w, quad)
    if not deriv:
        return _finish(prefactor / zt**3 * res.value, res, what, strict)
    res_d = _pc_single(zt, w, quad, deriv=True)
    value = prefactor * (-3.0 / zt**4 * res.value + res_d.value / zt**3)
    combined = IntegralResult(
        value,
        abs(prefactor) * (3.0 / zt**4 * res.error_estimate
                          + res_d.error_estimate / zt**3),
        res.evaluations + res_d.evaluations,
        res.converged and res_d.converged,
    )
    return _finish(value, combined, what, strict)


def u_e_pc_closed(particle: ParticleSpec, geometry: Geometry,
                  quad: QuadratureConfig, deriv: bool = False,
                  strict: bool = True):
    """Single-integral form of the electric shift, perfect conductor only."""
    zt = geometry.z_tilde(particle)
    return _pc_closed(zt, 1.0, -3.0 / (32.0 * math.pi), quad, deriv,
                      "electric closed form", strict)


def u_m_pc_closed(particle: ParticleSpec, geometry: Geometry,
                  quad: QuadratureConfig, deriv: bool = False,
                  strict: bool = True):
    """Single-integral form of the broadband magnetic shift (PC only)."""
    zt = geometry.z_tilde(particle)
    pref = 3.0 * particle.eta * particle.spin / (32.0 * math.pi)
    return _pc_closed(zt, particle.omega_tilde, pref, quad, deriv,
                      "magnetic closed form", strict)


# ---------------------------------------------------------------------------
# real-frequency split integral (resonant shift and decay rates)

def _surface_pole_position(surface: SurfaceModel, omega: float) -> float | None:
    """Evanescent kappa/k of the surface-plasmon pole, if one exists.

    The p-polarized denominator eps*kappa + kappa_2 vanishes at
    kappa/k = 1/sqrt(-(eps+1)) when Re(eps) < -1; the quadrature needs a
    breakpoint there because the peak width scales with Im(eps).
    """
    if isinstance(surface, PerfectConductor):
        return None
    eps = permittivity_real_freq(surface, omega)
    if eps.real < -1.0:
        return float((1.0 / np.sqrt(-(eps + 1.0))).real)
    return None


def _real_freq_integral(surface: SurfaceModel, omega: float, k_omega: float,
                        a: float, swap_polarizations: bool,
                        quad: QuadratureConfig,
                        deriv: int = 0) -> IntegralResult:
    """J = int_0^inf dx (x/K) e^(-a*K) [r_A + r_B K^2] at real frequency.

    x = k_par/k_omega, K = kappa_perp/k_omega.  (r_A, r_B) = (r_p, r_s)
    for the magnetic case, swapped for the electric one.  The propagating
    sector is substituted with u = sqrt(1 - x^2) (kappa_perp = -i*u*k_omega),
    which cancels the 1/K endpoint factor and leaves the analytic phase
    exp(i*a*u); the evanescent sector is parametrized by v = K directly.
    ``deriv`` multiplies the integrand by (-K)^deriv, the z-derivative of
    the exponential in units of 2*k_omega per order.
    """
    def propagating(u: np.ndarray) -> np.ndarray:
        pair = fresnel_real_freq_from_kappa(surface, -1j * u * k_omega, omega)
        r_a, r_b = (pair.r_s, pair.r_p) if swap_polarizations else (pair.r_p, pair.r_s)
        out = 1j * np.exp(1j * a * u) * (r_a - r_b * u**2)
        if deriv:
            out *= (1j * u) ** deriv
        return out

    def evanescent(v: np.ndarray) -> np.ndarray:
        pair = fresnel_real_freq_from_kappa(surface, v * k_omega, omega)
        r_a, r_b = (pair.r_s, pair.r_p) if swap_polarizations else (pair.r_p, pair.r_s)
        out = np.exp(-a * v) * (r_a + r_b * v**2)
        if deriv:
            out *= (-v) ** deriv
        return np.asarray(out, dtype=complex)

    cap = math.pi / a if a > 0 else None
    prop = integrate_finite(propagating, 0.0, 1.0, quad, max_panel_width=cap)
    pole = _surface_pole_position(surface, omega)
    evan_cfg = quad
    if pole is not None:
        evan_cfg = replace(quad, split_points=(0.99 * pole, pole, 1.01 * pole))
    evan = integrate_semi_infinite(evanescent, 0.0, evan_cfg,
                                   tail_scale=1.0 / a)
    return prop + evan


def _resonant_j(particle: ParticleSpec, surface: SurfaceModel,
                geometry: Geometry, quad: QuadratureConfig,
                deriv: int = 0) -> IntegralResult:
    k_m = particle.omega_m / sc.c
    a = 2.0 * particle.omega_tilde * geometry.z_tilde(particle)
    return _real_freq_integral(surface, particle.omega_m, k_m, a,
                               swap_polarizations=False, quad=quad,
                               deriv=deriv)


def u_m_excited0(particle: ParticleSpec, surface: SurfaceModel,
                 geometry: Geometry, quad: QuadratureConfig,
                 deriv: bool = False, strict: bool = True):
    """Resonant magnetic shift of the |S, m_S = 0> sublevel.

    Carries the superradiant S(S+1) enhancement.  The co- and
    counter-rotating broadband terms of this sublevel are the same
    imaginary-axis integral with opposite signs and cancel exactly, so
    the resonant real-frequency integral is the whole shift.  With
    deriv=True returns d/dz_tilde.
    """
    res = _resonant_j(particle, surface, geometry, quad,
                      deriv=1 if deriv else 0)
    pref = -3.0 / 16.0 * particle.eta * particle.spin * (particle.spin + 1.0) \
        * particle.omega_tilde**3
    if deriv:
        # one deriv order carries 2*k_m = 2*omega_tilde in z_tilde units
        pref *= 2.0 * particle.omega_tilde
    return _finish(pref * res.value.real, res, "resonant magnetic shift",
                   strict)


def u_m0_pc_closed(particle: ParticleSpec, geometry: Geometry) -> float:
    """Closed form of the resonant shift for the perfect conductor."""
    zt = geometry.z_tilde(particle)
    x = particle.omega_tilde * zt
    bracket = math.cos(2 * x) + 2 * x * math.sin(2 * x) \
        - 4 * x * x * math.cos(2 * x)
    return 3.0 * particle.eta * particle.spin * (particle.spin + 1.0) \
        / (64.0 * zt**3) * bracket


def delta_gamma_m(particle: ParticleSpec, surface: SurfaceModel,
                  geometry: Geometry, quad: QuadratureConfig,
                  m_s: float | None = None, strict: bool = True):
    """Spin-flip rate correction for |S, m_S> -> |S, m_S - 1>, in Gamma0.

    Includes the matrix-element weight S(S+1) - m_S(m_S - 1); the bottom
    sublevel m_S = -S therefore gets exactly zero without quadrature.
    """
    if m_s is None:
        m_s = particle.m_s
    weight = matrix_element_flip(particle.spin, m_s)
    if weight == 0.0:
        return 0.0, IntegralResult(0.0, 0.0, 0, True)
    res = _resonant_j(particle, surface, geometry, quad)
    pref = 3.0 / 8.0 * particle.eta * particle.omega_tilde**3 * weight
    return _finish(pref * res.value.imag, res, "spin-flip rate", strict)


def delta_gamma_e(particle: ParticleSpec, surface: SurfaceModel,
                  geometry: Geometry, quad: QuadratureConfig,
                  strict: bool = True):
    """Surface correction to the ED emission rate, in units of Gamma0.

    For the in-plane circular dipole above a perfect conductor this tends
    to -Gamma0 at contact (image dipole anti-aligned) and decays as an
    oscillatory 1/z envelope far away.
    """
    a = 2.0 * geometry.z_tilde(particle)
    res = _real_freq_integral(surface, particle.omega_e, particle.k_e, a,
                              swap_polarizations=True, quad=quad)
    return _finish(0.75 * res.value.imag, res, "ED rate correction", strict)


# ---------------------------------------------------------------------------
# aggregate helpers

def component(name: str, particle: ParticleSpec, surface: SurfaceModel,
              geometry: Geometry, quad: QuadratureConfig,
              deriv: bool = False):
    """(value, IntegralResult) of one shift, or of its d/dz_tilde.

    name is "electric", "magnetic" (broadband), "static" or "excited0".
    This is the one place that picks a representation: above a perfect
    conductor the electric and broadband magnetic shifts use the
    single-integral closed forms, which agree with the double integrals
    and cost far less; everything else uses the generic evaluator.  The
    evaluators are looked up by name on every call, so a wrapper bound
    to the module name sees each call.  Never raises on non-convergence.
    """
    if isinstance(surface, PerfectConductor) and name in ("electric",
                                                          "magnetic"):
        closed = u_e_pc_closed if name == "electric" else u_m_pc_closed
        return closed(particle, geometry, quad, deriv=deriv, strict=False)
    evaluator = {"electric": u_e_ground, "magnetic": u_m_ground_broadband,
                 "static": u_m_static, "excited0": u_m_excited0}[name]
    return evaluator(particle, surface, geometry, quad, deriv=deriv,
                     strict=False)


def potential_breakdown(particle: ParticleSpec, surface: SurfaceModel,
                        geometry: Geometry, quad: QuadratureConfig,
                        include_excited0: bool = False) -> PotentialBreakdown:
    args = (particle, surface, geometry, quad)
    ue, res_e = component("electric", *args)
    um, res_m = component("magnetic", *args)
    uz, res_z = component("static", *args)
    u0 = None
    res0_ok = True
    if include_excited0:
        u0, res0 = component("excited0", *args)
        res0_ok = res0.converged
    return PotentialBreakdown(
        u_e_minus=ue, u_m_minus=um, u_m_z=uz,
        total_ground=ue + um + uz,
        u_m_excited0=u0,
        u_e_converged=res_e.converged,
        u_m_converged=res_m.converged,
        u_m_z_converged=res_z.converged,
        u_m_excited0_converged=res0_ok,
    )


def decay_breakdown(particle: ParticleSpec, surface: SurfaceModel,
                    geometry: Geometry, quad: QuadratureConfig,
                    m_s: float | None = None) -> DecayBreakdown:
    dge, res_e = delta_gamma_e(particle, surface, geometry, quad, strict=False)
    dgm, res_m = delta_gamma_m(particle, surface, geometry, quad, m_s=m_s,
                               strict=False)
    return DecayBreakdown(delta_gamma_e=dge, delta_gamma_m=dgm,
                          converged=res_e.converged and res_m.converged)
