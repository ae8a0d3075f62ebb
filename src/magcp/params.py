"""Domain types, unit handling and nondimensionalization.

All heavy numerics elsewhere in the package work in dimensionless form:
distances in 1/k_e, frequencies in omega_e, energies in hbar*Gamma0 and
forces in hbar*Gamma0*k_e, where Gamma0 is the free-space emission rate of
the electric-dipole transition and k_e = omega_e/c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import constants as sc

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

    Frequencies are angular (rad/s); ``dipole_moment`` is in C*m.  The
    constructor validates its inputs and derives ``eta``, ``omega_tilde``,
    ``k_e`` and ``gamma_0_free``, the dipole's free-space rate: the one
    Gamma0 of every dimensionless unit and of ``eta``'s normalisation.
    The spin sublevel is not a property of the particle: each result that
    depends on it chooses it (``mode`` for shifts and forces, ``m_s`` for
    the spin-flip rate).
    """

    omega_e: float
    omega_m: float
    dipole_moment: float
    spin: float
    mass_per_spin: float = M_U
    gyro_ratio: float = GYRO_ELECTRON
    gamma_0_free: float = field(init=False)  # ED free-space rate, rad/s
    eta: float = field(init=False)  # magnetizability-to-polarizability ratio
    omega_tilde: float = field(init=False)  # omega_m / omega_e
    k_e: float = field(init=False)  # omega_e / c, 1/m

    def __post_init__(self) -> None:
        for name in ("omega_e", "omega_m", "dipole_moment", "mass_per_spin",
                     "gyro_ratio"):
            val = getattr(self, name)
            if not 0 < val < math.inf:
                raise NonPositiveInput(
                    f"{name} must be positive and finite, got {val}")
        if not 0 <= self.spin < math.inf:
            raise NonPositiveInput(
                f"spin must be finite and >= 0, got {self.spin}")
        if self.omega_m >= self.omega_e:
            raise HierarchyViolation(
                f"omega_m = {self.omega_m} >= omega_e = {self.omega_e}; the "
                "intermediate distance regime needs omega_m << omega_e")
        for name, val in (
                ("gamma_0_free",
                 gamma0_from_dipole(self.dipole_moment, self.omega_e)),
                ("eta", eta_from_dipole(self.dipole_moment, self.gyro_ratio)),
                ("omega_tilde", self.omega_m / self.omega_e),
                ("k_e", self.omega_e / sc.c)):
            object.__setattr__(self, name, val)

    @property
    def mass(self) -> float:
        return self.spin * self.mass_per_spin


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
    mass_per_spin: float = M_U,
    gyro_ratio: float = GYRO_ELECTRON,
    gamma_0: float | None = None,
) -> ParticleSpec:
    """A ParticleSpec from inputs in the units a source quotes.

    The dipole moment is given either in SI (``dipole_moment``, C*m) or in
    atomic units of e*a0 (``dipole_moment_au``).  ``gamma_0``, when given,
    is a quoted Gamma0 in rad/s, checked and never used: it is refused
    more than 5 % from the dipole's free-space rate, which is Gamma0.
    """
    if (dipole_moment is None) == (dipole_moment_au is None):
        raise ValueError("give exactly one of dipole_moment, dipole_moment_au")
    if dipole_moment is None:
        dipole_moment = dipole_moment_au * E_A0
    particle = ParticleSpec(omega_e, omega_m, dipole_moment, spin,
                            mass_per_spin, gyro_ratio)
    if gamma_0 is not None:
        if not 0 < gamma_0 < math.inf:
            raise NonPositiveInput(
                f"gamma_0 must be positive and finite, got {gamma_0}")
        if abs(gamma_0 / particle.gamma_0_free - 1.0) > 0.05:
            raise ValueError(
                f"gamma_0 = {gamma_0:.4g} rad/s is more than 5 % from the "
                f"dipole's free-space rate {particle.gamma_0_free:.4g} "
                "rad/s, which is Gamma0")
    return particle


def _unit(particle: ParticleSpec, kind: str) -> float:
    """SI size of one dimensionless unit: hbar Gamma0 (potential),
    hbar Gamma0 k_e (force), 1/k_e (distance), omega_e (frequency)."""
    energy = sc.hbar * particle.gamma_0_free
    sizes = {"potential": energy, "force": energy * particle.k_e,
             "distance": 1.0 / particle.k_e, "frequency": particle.omega_e}
    if kind not in sizes:
        raise UnknownKind(f"kind must be one of {tuple(sizes)}, got {kind!r}")
    return sizes[kind]


def to_dimensionless(particle: ParticleSpec, quantity: float, kind: str) -> float:
    """SI -> dimensionless: U/(hbar Gamma0), F/(hbar Gamma0 k_e), z*k_e, w/w_e."""
    return quantity / _unit(particle, kind)


def from_dimensionless(particle: ParticleSpec, quantity: float, kind: str) -> float:
    """Inverse of :func:`to_dimensionless`."""
    return quantity * _unit(particle, kind)


def gravity_force_dimensionless(
    particle: ParticleSpec, environment: EnvironmentSpec
) -> float:
    """-M g / (hbar Gamma0 k_e) with M = spin * mass_per_spin."""
    return -particle.mass * environment.g / _unit(particle, "force")
