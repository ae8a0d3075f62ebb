"""Dielectric response models and Fresnel reflection coefficients.

Three surface response models are supported: a perfect conductor, a Drude
metal and a dissipationless plasma, each a _susceptibility.  One kernel,
_fresnel, gives the reflection coefficients on the imaginary axis (where
they are real), in the static xi -> 0 limit and at real frequency
(complex, with the propagating and evanescent sectors on fixed
branches); the perfect conductor keeps its exact +-1.  mu = 1.

Branch conventions at real frequency omega: for k_par < omega/c the
perpendicular decay constant is kappa_perp = -i*sqrt(omega^2/c^2 - k_par^2)
so that exp(-2*kappa_perp*z0) oscillates and stays bounded; for
k_par > omega/c, kappa_perp = +sqrt(k_par^2 - omega^2/c^2).  Inside the
medium kappa_2 takes the principal complex square root (Re >= 0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import constants as sc


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


def _susceptibility(model: SurfaceModel, s):
    """chi = eps - 1 at s = xi on the imaginary axis or s = -i*omega at
    real frequency, formed without the rounding of 1 + (eps - 1), which
    is all of eps - 1 where eps -> 1 at large xi.  PerfectConductor
    returns +inf; xi = 0 divides by zero."""
    if isinstance(model, PerfectConductor):
        return np.full_like(s, np.inf)
    if isinstance(model, Drude):
        return model.omega_p**2 / (s**2 + model.gamma * s)
    if isinstance(model, Plasma):
        return model.omega_p**2 / s**2
    raise TypeError(f"unknown surface model {model!r}")


def permittivity_imag_axis(model: SurfaceModel, xi):
    """Real epsilon(i*xi) >= 1; PerfectConductor returns +inf."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise NegativeFrequency(f"xi must be >= 0, got {xi}")
    with np.errstate(divide="ignore"):
        return 1.0 + _susceptibility(model, xi)


def permittivity_real_freq(model: SurfaceModel, omega: float) -> complex:
    """Analytic continuation of the imaginary-axis permittivity."""
    if omega <= 0:
        raise NegativeFrequency(f"omega must be positive, got {omega}")
    return 1.0 + _susceptibility(model, -1j * omega)


def _fresnel(chi, kappa_perp, contrast, kappa_2, den_can_vanish=False):
    """r_s, r_p from chi = eps - 1, the vacuum kappa_perp, the contrast
    kappa_2^2 - kappa_perp^2 = chi*s^2/c^2 and kappa_2, at any frequency.

    Both numerators cancel where the medium barely differs from vacuum,
    so each is written through kappa_perp - kappa_2 = -contrast/total,
    total = kappa_perp + kappa_2: r_s = -contrast/total^2 and
    r_p = (chi*kappa_perp - contrast/total)/(chi*kappa_perp + total),
    where kappa_perp >= xi/c on the imaginary axis keeps contrast/total
    below half of chi*kappa_perp.  Undefined at chi = inf.  The r_p
    denominator vanishes only at real frequency, at eps = 0 and normal
    incidence (r_p -> -1) or on a node at the lossless plasmon pole;
    den_can_vanish gives those elements r_p = -1 without dividing by 0.
    kappa_2, an array of the full broadcast shape, is overwritten: each
    step writes to an array of its own, as new ones cost page faults.
    """
    total = np.add(kappa_perp, kappa_2, out=kappa_2)
    r_s = np.square(total, out=np.empty_like(total))
    np.divide(-contrast, r_s, out=r_s)
    chi_kappa = np.multiply(chi, kappa_perp, out=np.empty_like(total))
    num_p = np.divide(contrast, total, out=np.empty_like(total))
    np.subtract(chi_kappa, num_p, out=num_p)
    den_p = np.add(chi_kappa, total, out=total)
    if not den_can_vanish:
        return r_s[()], np.divide(num_p, den_p, out=num_p)[()]
    zero = den_p == 0
    return r_s[()], np.where(zero, -1.0, num_p / np.where(zero, 1.0, den_p))


def fresnel_imag_axis(model: SurfaceModel, kappa_perp, xi) -> FresnelPair:
    """Reflection coefficients at imaginary frequency i*xi, xi > 0.

    ``kappa_perp`` and ``xi`` may be scalars or arrays that broadcast
    against each other; the integration domain requires
    kappa_perp >= xi/c.  xi = 0 is refused: its limit is
    fresnel_static_limit.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(xi > 0):  # also refuses nan
        raise NegativeFrequency(
            f"xi must be > 0, got {xi}; the xi -> 0 limit is "
            "fresnel_static_limit")
    kappa_perp = np.asarray(kappa_perp, dtype=float)
    if np.any(kappa_perp < xi / sc.c * (1.0 - 1e-12)):
        raise DomainViolation(
            f"kappa_perp = {kappa_perp!r} below xi/c = {xi / sc.c}")
    shape = np.broadcast_shapes(kappa_perp.shape, xi.shape)
    if isinstance(model, PerfectConductor):
        ones = np.ones(shape)
        return FresnelPair(-ones, ones)
    chi = _susceptibility(model, xi)
    contrast = chi * (xi / sc.c) ** 2
    kappa_2 = np.square(kappa_perp, out=np.empty(shape))
    np.add(kappa_2, contrast, out=kappa_2)
    return FresnelPair(*_fresnel(chi, kappa_perp, contrast,
                                 np.sqrt(kappa_2, out=kappa_2)))


def fresnel_static_limit(model: SurfaceModel, kappa_perp) -> FresnelPair:
    """xi -> 0 limit; r_p = +1 for every conducting model.

    r_s distinguishes the models: -1 (perfect conductor), or _fresnel's
    with the limit of the contrast chi*xi^2/c^2: 0 for Drude, whose
    relaxation term kills the response, and omega_p^2/c^2 for the plasma.
    """
    kappa_perp = np.asarray(kappa_perp, dtype=float)
    if np.any(kappa_perp <= 0):
        raise DomainViolation(f"kappa_perp must be positive, got {kappa_perp!r}")
    ones = np.ones_like(kappa_perp)
    if isinstance(model, PerfectConductor):
        return FresnelPair(-ones, ones)
    if isinstance(model, Drude):
        contrast = 0.0
    elif isinstance(model, Plasma):
        contrast = (model.omega_p / sc.c) ** 2
    else:
        raise TypeError(f"unknown surface model {model!r}")
    with np.errstate(invalid="ignore"):  # r_p is inf/inf at chi = inf
        r_s, _ = _fresnel(np.inf, kappa_perp, contrast,
                          np.sqrt(kappa_perp**2 + contrast,
                                  out=np.empty(kappa_perp.shape)))
    return FresnelPair(r_s, ones)


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
    limit of the Drude model from below the real axis.  The forms of
    _fresnel hold on either branch of kappa_2.
    """
    if isinstance(model, PerfectConductor):
        shape = np.shape(np.asarray(kappa_perp))
        ones = np.ones(shape) if shape else 1.0
        return FresnelPair(-ones, ones)
    if omega <= 0:
        raise NegativeFrequency(f"omega must be positive, got {omega}")
    chi = _susceptibility(model, -1j * omega)
    contrast = -chi * (omega / sc.c) ** 2
    kappa_perp = np.asarray(kappa_perp, dtype=complex)
    w = np.asarray(kappa_perp**2 + contrast, dtype=complex)
    neg_real = (w.imag == 0) & (w.real < 0)
    kappa_2 = np.where(neg_real,
                       -1j * np.sqrt(np.abs(w.real)),
                       np.sqrt(np.where(neg_real, 1.0, w)))
    return FresnelPair(*_fresnel(chi, kappa_perp, contrast, kappa_2,
                                 den_can_vanish=True))
