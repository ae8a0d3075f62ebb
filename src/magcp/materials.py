"""Dielectric response models and Fresnel reflection coefficients.

Three surface response models are supported: a perfect conductor, a Drude
metal and a dissipationless plasma.  Reflection coefficients are provided
on the imaginary frequency axis (where they are real), in the static
xi -> 0 limit (handled analytically per model, the Drude limit being a
removable zero) and at real frequency (complex, with the propagating and
evanescent sectors on fixed branches).  Permeability is fixed at mu = 1.

Branch conventions at real frequency omega: for k_par < omega/c the
perpendicular decay constant is kappa_perp = -i*sqrt(omega^2/c^2 - k_par^2)
so that exp(-2*kappa_perp*z0) oscillates and stays bounded; for
k_par > omega/c, kappa_perp = +sqrt(k_par^2 - omega^2/c^2).  Inside the
medium kappa_2 takes the principal complex square root (Re >= 0).
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import constants as sc

log = logging.getLogger(__name__)


class NegativeFrequency(ValueError):
    pass


class DomainViolation(ValueError):
    """kappa_perp below the imaginary-axis integration domain xi/c."""


@dataclass(frozen=True)
class PerfectConductor:
    pass


@dataclass(frozen=True)
class Drude:
    omega_p: float  # rad/s
    gamma: float    # rad/s

    def __post_init__(self) -> None:
        if not 0 < self.omega_p < math.inf:
            raise ValueError(
                f"omega_p must be positive and finite, got {self.omega_p}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(
                f"gamma must be positive and finite, got {self.gamma}")
        if self.gamma > self.omega_p / 10:
            warnings.warn(
                f"gamma = {self.gamma:.3g} is not small against omega_p = "
                f"{self.omega_p:.3g}; the model assumes gamma << omega_p",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Plasma:
    omega_p: float  # rad/s

    def __post_init__(self) -> None:
        if not 0 < self.omega_p < math.inf:
            raise ValueError(
                f"omega_p must be positive and finite, got {self.omega_p}")


SurfaceModel = PerfectConductor | Drude | Plasma


@dataclass(frozen=True)
class FresnelPair:
    r_s: complex
    r_p: complex


def _susceptibility_imag_axis(model: SurfaceModel, xi):
    """eps(i*xi) - 1 >= 0, formed without the rounding of 1 + (eps - 1),
    which is all of eps - 1 where eps -> 1 at large xi; PerfectConductor
    returns +inf."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise NegativeFrequency(f"xi must be >= 0, got {xi}")
    if isinstance(model, PerfectConductor):
        return np.full_like(xi, np.inf)
    if isinstance(model, Drude):
        with np.errstate(divide="ignore"):
            return model.omega_p**2 / (xi**2 + model.gamma * xi)
    if isinstance(model, Plasma):
        with np.errstate(divide="ignore"):
            return model.omega_p**2 / xi**2
    raise TypeError(f"unknown surface model {model!r}")


def permittivity_imag_axis(model: SurfaceModel, xi):
    """Real epsilon(i*xi) >= 1; PerfectConductor returns +inf."""
    return 1.0 + _susceptibility_imag_axis(model, xi)


def permittivity_real_freq(model: SurfaceModel, omega: float) -> complex:
    """Analytic continuation of the imaginary-axis permittivity."""
    if omega <= 0:
        raise NegativeFrequency(f"omega must be positive, got {omega}")
    if isinstance(model, PerfectConductor):
        return complex(np.inf)
    if isinstance(model, Drude):
        return 1.0 - model.omega_p**2 / (omega**2 + 1j * model.gamma * omega)
    if isinstance(model, Plasma):
        return 1.0 - model.omega_p**2 / omega**2
    raise TypeError(f"unknown surface model {model!r}")


def _fresnel_from_chi(chi, kappa_perp, xi_over_c_sq):
    """r_s, r_p on the imaginary axis from chi = eps(i*xi) - 1 and the
    vacuum kappa_perp, with kappa_2^2 = kappa_perp^2 + chi*xi^2/c^2.

    Both numerators cancel where the medium barely differs from vacuum,
    so each is written through kappa_perp - kappa_2 =
    -chi*xi^2/c^2/(kappa_perp + kappa_2): r_s as
    -chi*xi^2/c^2/(kappa_perp + kappa_2)^2, and r_p, whose numerator
    eps*kappa_perp - kappa_2 cancels where eps -> 1 at large xi, as
    (chi*kappa_perp - chi*xi^2/c^2/(kappa_perp + kappa_2))
    /(chi*kappa_perp + kappa_perp + kappa_2).  kappa_perp >= xi/c keeps
    the subtracted term below half of chi*kappa_perp."""
    contrast = chi * xi_over_c_sq
    kappa_2 = np.sqrt(kappa_perp**2 + contrast)
    total = kappa_perp + kappa_2
    r_s = -contrast / total**2
    chi_kappa = chi * kappa_perp
    r_p = (chi_kappa - contrast / total) / (chi_kappa + total)
    return r_s, r_p


def fresnel_imag_axis(model: SurfaceModel, kappa_perp, xi) -> FresnelPair:
    """Reflection coefficients at imaginary frequency i*xi.

    ``kappa_perp`` and ``xi`` may be scalars or arrays that broadcast
    against each other; the integration domain requires
    kappa_perp >= xi/c.  Elements with xi = 0 take the analytic static
    limit.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise NegativeFrequency(f"xi must be >= 0, got {xi}")
    kappa_perp = np.asarray(kappa_perp, dtype=float)
    if np.any(kappa_perp < xi / sc.c * (1.0 - 1e-12)):
        raise DomainViolation(
            f"kappa_perp = {kappa_perp!r} below xi/c = {xi / sc.c}")
    static = xi == 0.0
    if isinstance(model, PerfectConductor):
        ones = np.ones(np.broadcast_shapes(kappa_perp.shape, xi.shape))
        r_s, r_p = -ones, ones
    else:
        chi = _susceptibility_imag_axis(model, xi)
        with np.errstate(invalid="ignore"):  # chi = inf where xi = 0
            r_s, r_p = _fresnel_from_chi(chi, kappa_perp, (xi / sc.c) ** 2)
    if np.any(static):
        limit = fresnel_static_limit(model, kappa_perp)
        r_s = np.where(static, limit.r_s, r_s)
        r_p = np.where(static, limit.r_p, r_p)
    return FresnelPair(r_s, r_p)


def fresnel_static_limit(model: SurfaceModel, kappa_perp) -> FresnelPair:
    """xi -> 0 limit; r_p = +1 for every conducting model.

    r_s distinguishes the models: -1 (perfect conductor), 0 (Drude, the
    relaxation term kills the response) or the finite plasma value.
    """
    kappa_perp = np.asarray(kappa_perp, dtype=float)
    if np.any(kappa_perp <= 0):
        raise DomainViolation(f"kappa_perp must be positive, got {kappa_perp!r}")
    ones = np.ones_like(kappa_perp)
    if isinstance(model, PerfectConductor):
        return FresnelPair(-ones, ones)
    if isinstance(model, Drude):
        return FresnelPair(np.zeros_like(kappa_perp), ones)
    if isinstance(model, Plasma):
        root = np.sqrt(kappa_perp**2 + (model.omega_p / sc.c) ** 2)
        return FresnelPair((kappa_perp - root) / (kappa_perp + root), ones)
    raise TypeError(f"unknown surface model {model!r}")


def fresnel_real_freq_from_kappa(model: SurfaceModel, kappa_perp,
                                 omega: float) -> FresnelPair:
    """Complex reflection coefficients at real frequency omega.

    Parametrized by kappa_perp on the branch of the module note, so the
    propagating sector can pass kappa_perp = -i*u with u = sqrt(k^2 -
    k_par^2) known exactly, where recomputing it from k_par would lose
    precision near the light line.  Inside the medium kappa_2^2 =
    kappa_perp^2 - (eps - 1)*omega^2/c^2.  The principal square root
    (Re >= 0) is correct for lossy media; on the negative real axis
    (transparent medium below the light line in the medium) the
    outgoing-wave branch -i*sqrt(|.|) is taken, matching the gamma -> 0
    limit of the Drude model from below the real axis.  r_s is taken as
    (eps - 1)(omega/c)^2/(kappa_perp + kappa_2)^2, equal to
    (kappa_perp - kappa_2)/(kappa_perp + kappa_2) on either branch of
    kappa_2 and free of its cancellation at large kappa_perp.
    """
    if isinstance(model, PerfectConductor):
        shape = np.shape(np.asarray(kappa_perp))
        ones = np.ones(shape) if shape else 1.0
        return FresnelPair(-ones, ones)
    eps = permittivity_real_freq(model, omega)
    kappa_perp = np.asarray(kappa_perp, dtype=complex)
    contrast = (eps - 1.0) * (omega / sc.c) ** 2
    w = np.asarray(kappa_perp**2 - contrast, dtype=complex)
    neg_real = (w.imag == 0) & (w.real < 0)
    kappa_2 = np.where(neg_real,
                       -1j * np.sqrt(np.abs(w.real)),
                       np.sqrt(np.where(neg_real, 1.0, w)))
    # kappa_perp^2 - kappa_2^2 = contrast
    r_s = contrast / (kappa_perp + kappa_2) ** 2
    den_p = eps * kappa_perp + kappa_2
    # eps = 0 with k_par = 0 makes den_p vanish; the limit of r_p is -1.
    safe = np.where(den_p == 0, 1.0, den_p)
    r_p = np.where(den_p == 0, -1.0, (eps * kappa_perp - kappa_2) / safe)
    return FresnelPair(r_s, r_p)
