"""Domain types, unit handling and nondimensionalization.

All heavy numerics elsewhere in the package work in dimensionless form:
distances in 1/k_e, frequencies in omega_e, energies in hbar*Gamma0 and
forces in hbar*Gamma0*k_e, where Gamma0 is the free-space emission rate of
the electric-dipole transition and k_e = omega_e/c.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from . import constants as sc

log = logging.getLogger(__name__)

E_A0 = sc.e * sc.bohr_radius  # 1 atomic dipole unit, C*m
ALPHA = sc.fine_structure
M_U = sc.atomic_mass

# Gyromagnetic ratio of a g=2 electron spin.  Written via the fine-structure
# identity hbar*gyro = alpha*e*a0*c (== e/m_e up to CODATA rounding) so that
# the two defining expressions for the eta parameter agree exactly.
GYRO_ELECTRON = ALPHA * E_A0 * sc.c / sc.hbar


class NonPositiveInput(ValueError):
    pass


class SublevelOutOfRange(ValueError):
    pass


class HierarchyViolation(ValueError):
    """omega_m >= omega_e: the model needs omega_m << omega_e."""


class UnknownKind(ValueError):
    pass


@dataclass(frozen=True)
class ParticleSpec:
    """Point particle with one electric-dipole transition and a large spin.

    Frequencies are angular (rad/s); ``dipole_moment`` is in C*m.  Derived
    quantities are populated by :func:`build_particle`.
    """

    omega_e: float
    omega_m: float
    dipole_moment: float
    spin: float
    m_s: float = field(default=0.0)
    mass_per_spin: float = M_U
    gyro_ratio: float = GYRO_ELECTRON
    gamma_0_free: float = 0.0   # ED free-space emission rate, rad/s
    eta: float = 0.0            # magnetizability-to-polarizability ratio
    omega_tilde: float = 0.0    # omega_m / omega_e
    k_e: float = 0.0            # omega_e / c, 1/m

    @property
    def mass(self) -> float:
        return self.spin * self.mass_per_spin

    def with_spin(self, spin: float, m_s: float | None = None) -> "ParticleSpec":
        """Same particle with a different spin (used by threshold solving)."""
        return build_particle(
            omega_e=self.omega_e,
            omega_m=self.omega_m,
            dipole_moment=self.dipole_moment,
            spin=spin,
            m_s=-spin if m_s is None else m_s,
            mass_per_spin=self.mass_per_spin,
            gyro_ratio=self.gyro_ratio,
            gamma_0=self.gamma_0_free,
        )


@dataclass(frozen=True)
class Geometry:
    """Particle-surface distance."""

    z0: float  # metres

    def __post_init__(self) -> None:
        if not 0 < self.z0 < math.inf:
            raise NonPositiveInput(
                f"z0 must be positive and finite, got {self.z0}")

    def z_tilde(self, particle: ParticleSpec) -> float:
        return particle.k_e * self.z0


@dataclass(frozen=True)
class EnvironmentSpec:
    """External environment; gravity acts along -z."""

    g: float = 9.81

    def __post_init__(self) -> None:
        if not 0 <= self.g < math.inf:
            raise NonPositiveInput(f"g must be finite and >= 0, got {self.g}")


def gamma0_from_dipole(dipole_moment: float, omega_e: float) -> float:
    """Free-space ED emission rate |d|^2 k_e^3 / (3 pi eps0 hbar)."""
    k_e = omega_e / sc.c
    return dipole_moment**2 * k_e**3 / (3 * math.pi * sc.epsilon_0 * sc.hbar)


def eta_from_dipole(dipole_moment: float, gyro_ratio: float = GYRO_ELECTRON) -> float:
    """hbar^2 gyro^2 / (|d|^2 c^2); equals alpha^2 for |d| = e*a0."""
    return (sc.hbar * gyro_ratio) ** 2 / (dipole_moment**2 * sc.c**2)


def build_particle(
    omega_e: float,
    omega_m: float,
    spin: float,
    dipole_moment: float | None = None,
    dipole_moment_au: float | None = None,
    m_s: float | None = None,
    mass_per_spin: float = M_U,
    gyro_ratio: float = GYRO_ELECTRON,
    gamma_0: float | None = None,
    gamma_0_in_hz: bool = False,
) -> ParticleSpec:
    """Validate raw inputs and populate all derived quantities.

    The dipole moment is given either in SI (``dipole_moment``, C*m) or in
    atomic units of e*a0 (``dipole_moment_au``).  ``gamma_0``, when supplied,
    overrides the value derived from the dipole moment; it is read as an
    angular rate unless ``gamma_0_in_hz`` is set (the source quotes a rate in
    MHz without fixing the convention).
    """
    if (dipole_moment is None) == (dipole_moment_au is None):
        raise ValueError("give exactly one of dipole_moment, dipole_moment_au")
    if dipole_moment is None:
        dipole_moment = dipole_moment_au * E_A0
    for name, val in [
        ("omega_e", omega_e),
        ("omega_m", omega_m),
        ("dipole_moment", dipole_moment),
        ("mass_per_spin", mass_per_spin),
        ("gyro_ratio", gyro_ratio),
    ]:
        if not 0 < val < math.inf:
            raise NonPositiveInput(
                f"{name} must be positive and finite, got {val}")
    if not 0 <= spin < math.inf:
        raise NonPositiveInput(f"spin must be finite and >= 0, got {spin}")
    if omega_m >= omega_e:
        raise HierarchyViolation(
            f"omega_m = {omega_m} >= omega_e = {omega_e}; the intermediate "
            "distance regime needs omega_m << omega_e"
        )
    if m_s is None:
        m_s = -spin
    if not abs(m_s) <= spin + 1e-12:
        raise SublevelOutOfRange(f"|m_s| = {abs(m_s)} exceeds spin = {spin}")

    derived_gamma0 = gamma0_from_dipole(dipole_moment, omega_e)
    if gamma_0 is not None:
        if not 0 < gamma_0 < math.inf:
            raise NonPositiveInput(
                f"gamma_0 must be positive and finite, got {gamma_0}")
        if gamma_0_in_hz:
            gamma_0 = 2 * math.pi * gamma_0
        if abs(gamma_0 - derived_gamma0) / derived_gamma0 > 0.05:
            log.info(
                "supplied Gamma0 = %.4g rad/s overrides dipole-derived %.4g rad/s",
                gamma_0,
                derived_gamma0,
            )
    else:
        gamma_0 = derived_gamma0

    return ParticleSpec(
        omega_e=omega_e,
        omega_m=omega_m,
        dipole_moment=dipole_moment,
        spin=spin,
        m_s=m_s,
        mass_per_spin=mass_per_spin,
        gyro_ratio=gyro_ratio,
        gamma_0_free=gamma_0,
        eta=eta_from_dipole(dipole_moment, gyro_ratio),
        omega_tilde=omega_m / omega_e,
        k_e=omega_e / sc.c,
    )


_KINDS = ("potential", "force", "distance", "frequency")


def to_dimensionless(particle: ParticleSpec, quantity: float, kind: str) -> float:
    """SI -> dimensionless: U/(hbar Gamma0), F/(hbar Gamma0 k_e), z*k_e, w/w_e."""
    if kind == "potential":
        return quantity / (sc.hbar * particle.gamma_0_free)
    if kind == "force":
        return quantity / (sc.hbar * particle.gamma_0_free * particle.k_e)
    if kind == "distance":
        return quantity * particle.k_e
    if kind == "frequency":
        return quantity / particle.omega_e
    raise UnknownKind(f"kind must be one of {_KINDS}, got {kind!r}")


def from_dimensionless(particle: ParticleSpec, quantity: float, kind: str) -> float:
    """Inverse of :func:`to_dimensionless`."""
    if kind == "potential":
        return quantity * sc.hbar * particle.gamma_0_free
    if kind == "force":
        return quantity * sc.hbar * particle.gamma_0_free * particle.k_e
    if kind == "distance":
        return quantity / particle.k_e
    if kind == "frequency":
        return quantity * particle.omega_e
    raise UnknownKind(f"kind must be one of {_KINDS}, got {kind!r}")


def gravity_force_dimensionless(
    particle: ParticleSpec, environment: EnvironmentSpec
) -> float:
    """-M g / (hbar Gamma0 k_e) with M = spin * mass_per_spin."""
    return -particle.mass * environment.g / (
        sc.hbar * particle.gamma_0_free * particle.k_e
    )
