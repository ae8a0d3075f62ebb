"""Surface-induced level shifts and decay-rate corrections.

Ground-state shifts come from imaginary-frequency double integrals over
(xi, kappa_perp); the excited m_S = 0 sublevel additionally carries a
resonant real-frequency contribution evaluated as a split propagating/
evanescent integral, as do the decay-rate corrections.  Where Re(eps)
< -1 the evanescent integrand has the surface-plasmon pole of r_p, real
for the lossless plasma; it is subtracted and its integral added back in
closed form (_real_freq_integral), so the plasma rates carry the
plasmon emission channel as the gamma -> 0 limit of Drude.  Everything
is dimensionless: potentials in units of hbar*Gamma0, distances in
1/k_e.

Above a perfect conductor every shift and slope has a closed form (the
sine and cosine integrals for the broadband shifts, elementary functions
for the static image and the resonant shift), and component() routes
there, so no perfect-conductor shift runs a quadrature.

The ground state is the stretched sublevel m_S = -S.  Its magnetic shift
splits into a broadband part linear in S, and a magnetostatic image part
quadratic in S that survives only for surface models with a nonzero
static r_s (perfect conductor and plasma, not Drude).

Sign conventions: shifts are potentials, so negative means attractive.
The electric shift is negative for every conducting surface; both
magnetic ground-state parts are repulsive for the perfect conductor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import constants as sc
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
from .params import Geometry, ParticleSpec, SublevelOutOfRange
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
    converged: bool = True


@dataclass(frozen=True)
class DecayBreakdown:
    delta_gamma_e: float
    delta_gamma_m: float
    converged: bool = True


def matrix_element_flip(spin: float, m_s: float) -> float:
    """<S,m|S+ S-|S,m> = S(S+1) - m(m-1), the spin-flip weight."""
    return spin * (spin + 1.0) - m_s * (m_s - 1.0)


def _finish(prefactor: float, part: float, res: IntegralResult, what: str,
            strict: bool):
    """(value, result) of value = prefactor * part, where part is the
    value of the integral res or its real or imaginary part.  The result
    is in the value's own units, as the closed forms' are: its value is
    the value and its error estimate is res's times |prefactor|.  Raises
    QuadratureFailure when strict and res did not converge."""
    value = prefactor * part
    res = replace(res, value=value,
                  error_estimate=abs(prefactor) * res.error_estimate)
    if strict and not res.converged:
        raise QuadratureFailure(f"{what} did not converge", res)
    return value, res


# ---------------------------------------------------------------------------
# imaginary-frequency double integrals (ground-state broadband shifts)

# the outer u-step of _ground_double above u = asinh(1): a factor of 16 in xi
_LN16 = math.log(16.0)


def _ground_double(particle: ParticleSpec, surface: SurfaceModel,
                   geometry: Geometry, quad: QuadratureConfig,
                   which: str, deriv: bool) -> IntegralResult:
    """Common (xi, kappa) double integral for the broadband shifts.

    which = "electric": weight xi^2/(xi^2+1), bracket r_s - r_p k^2/x^2.
    which = "magnetic": weight wt*xi^2/(xi^2+wt^2), bracket r_p - r_s k^2/x^2
    with wt = omega_m/omega_e.  Both brackets are evaluated in the cleared
    form [r a x^2 - r_b k^2]/(x^2 + w^2) to stay finite at xi -> 0.
    deriv inserts the factor -2*kappa (d/dz of the exponential).

    The outer integral runs over u = asinh(xi/w), xi = w sinh(u), so
    dxi/(xi^2 + w^2) = du/(w cosh(u)): the Lorentzian of width w is flat
    in u below u ~ 1 and the e^(-2 xi z) envelope, up to ten decades
    higher for the magnetic bracket, is smooth on the log scale u ~
    ln(2 xi/w) above it.  The outer panels start at asinh(b/w) for the
    scales b = w, 1 and the surface's frequencies, then every ln 16 (a
    factor of 16 in xi) from u = asinh(1) to one step past the envelope
    scale asinh(1/(2 z w)), and, where 1/(2z) < w, at a ratio-4 _ladder
    of xi from 1/(2z) to w.  Every outer bisection costs a whole lockstep
    of inner kappa integrals.  u is capped at asinh(400/(z w)), where
    e^(-2 xi z) <= e^(-800) is 0 in double precision, so the outer tail
    node stays finite.
    """
    zt = geometry.z_tilde(particle)
    wt = particle.omega_tilde
    k_e = particle.k_e
    omega_e = particle.omega_e

    if which not in ("electric", "magnetic"):
        raise ValueError(f"which must be electric or magnetic, got {which!r}")
    w = 1.0 if which == "electric" else wt
    envelope = 1.0 / (2.0 * zt)
    u_cap = math.asinh(400.0 / (zt * w))

    def xi_of(u_t):
        return w * np.sinh(np.minimum(u_t, u_cap))

    # u_t is a scalar with a 1-d kappa_t, or a column with a 2-d kappa_t;
    # the full-size steps write to the arrays they own
    def inner(u_t, kappa_t: np.ndarray) -> np.ndarray:
        xi_t = xi_of(u_t)
        pair = fresnel_imag_axis(surface, kappa_t * k_e, xi_t * omega_e)
        r_a, r_b = ((pair.r_s, pair.r_p) if which == "electric"
                    else (pair.r_p, pair.r_s))
        num = np.multiply(r_a, xi_t**2, out=r_a)
        kappa_sq = np.square(kappa_t)
        num -= np.multiply(r_b, kappa_sq, out=r_b)
        minus_2k = np.multiply(-2.0, kappa_t, out=kappa_sq)
        out = np.exp(np.multiply(minus_2k, zt, out=r_b), out=r_b)
        out *= num
        out /= w * np.cosh(np.minimum(u_t, u_cap))
        if deriv:
            out *= minus_2k
        return out

    scales = {w, 1.0}
    if isinstance(surface, Drude):
        scales.update({surface.omega_p / omega_e, surface.gamma / omega_e})
    elif isinstance(surface, Plasma):
        scales.add(surface.omega_p / omega_e)
    u_env = math.asinh(envelope / w)
    splits = {math.asinh(b / w) for b in scales}
    u = math.asinh(1.0)
    while u < u_env:
        u += _LN16
        splits.add(u)
    if envelope < w:
        splits.update(math.asinh(b / w) for b in _ladder(envelope, w))
    cfg = replace(quad, split_points=tuple(sorted(
        b for b in splits if 0.0 < b < u_cap)))
    # The kappa integrand decays on 1/(2*z), and the inner integral leaves
    # an exp(-2*xi*z) envelope: the outer support ends near u_env.
    return integrate_nested(inner, 0.0, xi_of, cfg,
                            outer_tail_scale=max(u_env, 1.0),
                            inner_tail_scale=envelope)


def u_e_ground(particle: ParticleSpec, surface: SurfaceModel,
               geometry: Geometry, quad: QuadratureConfig,
               deriv: bool = False, strict: bool = True):
    """Electric ground-state shift (units hbar*Gamma0); negative.

    With deriv=True returns d/dz_tilde of the shift instead.
    """
    res = _ground_double(particle, surface, geometry, quad, "electric", deriv)
    return _finish(3.0 / (8.0 * math.pi), res.value, res,
                   "electric ground shift", strict)


def u_m_ground_broadband(particle: ParticleSpec, surface: SurfaceModel,
                         geometry: Geometry, quad: QuadratureConfig,
                         deriv: bool = False, strict: bool = True):
    """Broadband magnetic ground-state shift; repulsive, linear in S."""
    res = _ground_double(particle, surface, geometry, quad, "magnetic", deriv)
    pref = 3.0 / (8.0 * math.pi) * particle.omega_tilde * particle.eta * particle.spin
    return _finish(pref, res.value, res, "broadband magnetic ground shift",
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
    return _finish(-3.0 / 8.0 * eta_s2, res.value, res, "magnetostatic shift",
                   strict)


# ---------------------------------------------------------------------------
# scale ladders for the initial panels

def _ladder(lo: float, hi: float) -> tuple[float, ...]:
    """Geometric breakpoints lo, 4*lo, 16*lo, ... below 4*hi.

    Bridges two scales lo <= hi of an integrand so that no initial panel
    spans a narrow feature unsampled when the scales are far apart.  The
    ratio widens beyond 4 where the ladder would otherwise have more than
    about 32 points.
    """
    ratio = max(4.0, math.exp((math.log(4.0 * hi) - math.log(lo)) / 32))
    points = []
    p = lo
    while p < 4.0 * hi:
        points.append(p)
        p *= ratio
    return tuple(points)


# ---------------------------------------------------------------------------
# perfect-conductor closed forms

_EPS = float(np.finfo(float).eps)
# y from which _pc_single sums the asymptotic series instead of f and g
_SERIES_FROM = 40.0


def _pc_single(y: float) -> tuple[float, float, float, float]:
    """(I, I', error of I, error of I') at y = 2*z*w, where
    I(y) = int_0^inf (1 + y t + y^2 t^2) e^(-y t)/(1 + t^2) dt.

    I is the broadband kernel int_0^inf w K(2 xi z)/(xi^2 + w^2) dxi with
    K(x) = (1 + x + x^2) e^(-x), and 2 w I'(y) is its z-derivative.  With
    the auxiliary functions f and g of the sine and cosine integrals (DLMF
    6.2.17-18), I = (1 - y^2) f + y g + y and I' = y (y g - f); f and g
    come from e^(iy) E1(iy) = g - i f.  These cancel by about y^2 and y^3:
    against mpmath they are within 3 eps (1 + y)^2 and 3 eps (1 + y)^3,
    and the errors returned are 16 eps (1 + y)^2 and 16 eps (1 + y)^3
    times their size.  From y = 40 the asymptotic series (DLMF 6.12(ii))
    I = sum_j (-1)^j (2j)! (2j + 2)^2 / y^(2j+1) and its termwise
    derivative are summed up to the smallest term instead.  Expanding
    1/(1 + t^2) to n terms leaves a remainder of at most the n-th term
    for I and (2n + 2)! (2n + 4)/y^(2n+2) for I'; these, plus rounding,
    are the errors there.
    """
    if y >= _SERIES_FROM:
        value = slope = 0.0
        term, j = 4.0 / y, 0
        while True:
            nxt = -term * (2 * j + 1) * (2 * j + 4) ** 2 \
                / ((2 * j + 2) * y * y)
            if abs(nxt) >= abs(term):
                break
            value += term
            slope -= (2 * j + 1) * term / y
            term, j = nxt, j + 1
        err_slope = abs(term) * (2 * j + 1) * (2 * j + 4) / ((2 * j + 2) * y)
        return (value, slope, abs(term) + 8.0 * _EPS * abs(value),
                err_slope + 8.0 * _EPS * abs(slope))
    # E1(iy) = -Ci(y) + i si(y), with si = Si - pi/2 (DLMF 6.5)
    h = _exp_e1(complex(0.0, y))
    f, g = -h.imag, h.real
    value = (1.0 - y * y) * f + y * g + y
    slope = y * (y * g - f)
    return (value, slope, 16.0 * _EPS * (1.0 + y) ** 2 * abs(value),
            16.0 * _EPS * (1.0 + y) ** 3 * abs(slope))


def _pc_closed(zt: float, w: float, prefactor: float, deriv: bool):
    """(value, IntegralResult) of prefactor * I(2 z w)/z^3, or of its
    z-derivative prefactor * (-3 I/z^4 + 2 w I'/z^3)."""
    i, di, err, err_d = _pc_single(2.0 * zt * w)
    if deriv:
        value = prefactor * (-3.0 / zt**4 * i + 2.0 * w * di / zt**3)
        bound = abs(prefactor) * (3.0 / zt**4 * err + 2.0 * w * err_d / zt**3)
    else:
        value = prefactor / zt**3 * i
        bound = abs(prefactor) / zt**3 * err
    bound += 4.0 * _EPS * abs(value)
    return value, IntegralResult(value, bound, 0, True)


def u_e_pc_closed(particle: ParticleSpec, geometry: Geometry,
                  quad: QuadratureConfig, deriv: bool = False,
                  strict: bool = True):
    """Closed form of the electric shift, perfect conductor only.

    quad and strict are accepted for the evaluators' common signature; a
    closed form runs no quadrature and cannot fail to converge.
    """
    zt = geometry.z_tilde(particle)
    return _pc_closed(zt, 1.0, -3.0 / (32.0 * math.pi), deriv)


def u_m_pc_closed(particle: ParticleSpec, geometry: Geometry,
                  quad: QuadratureConfig, deriv: bool = False,
                  strict: bool = True):
    """Closed form of the broadband magnetic shift (PC only); quad and
    strict are accepted and unused, as in u_e_pc_closed."""
    zt = geometry.z_tilde(particle)
    pref = 3.0 * particle.eta * particle.spin / (32.0 * math.pi)
    return _pc_closed(zt, particle.omega_tilde, pref, deriv)


# ---------------------------------------------------------------------------
# real-frequency split integral (resonant shift and decay rates)

_EULER_GAMMA = 0.5772156649015329


def _exp_e1(z: complex) -> complex:
    """e^z E1(z), with E1 taken on the lower side of its cut.

    On the negative real axis this is the limit from Im z < 0,
    E1(-x - i0) = -Ei(x) + i*pi; elsewhere E1 is the principal branch,
    which is continuous with that limit.  Four forms cover the plane,
    each within 1e-14 of mpmath where it is used:
    * |z| > 40: the asymptotic series sum_k (-1)^k k!/z^(k+1), summed to
      its smallest term, below 1e-17 of the sum there (the product of
      exp(z) and E1(z) would be 0*inf once -Re z passes about 709); the
      omitted Stokes term i*pi*e^z is below e^-40;
    * the negative real axis: Ei(x) = gamma + ln x + sum_k x^k/(k k!),
      whose terms are all positive;
    * |z| + Re z < 3: E1(z) = -gamma - log z - sum_k (-z)^k/(k k!), whose
      largest term exceeds the sum by about e^(|z| + Re z);
    * elsewhere the continued fraction 1/(z+1- 1/(z+3- 4/(z+5- ...))),
      which takes at most about 85 terms there.
    magcp sums these itself rather than import scipy.special, which
    costs about 24 MB of memory and 0.2 s of start-up.
    """
    z = complex(z)
    if abs(z) > 40.0:
        term, total = 1.0 / z, 0.0
        for k in range(1, int(abs(z)) + 1):
            total += term
            term *= -k / z
            if abs(term) < 1e-17 * abs(total):
                break
        return total
    if z.imag == 0.0 and z.real < 0.0:
        x = -z.real
        term = total = x
        k = 1
        while term > 1e-17 * total:
            k += 1
            term *= x * (k - 1) / (k * k)
            total += term
        ei = _EULER_GAMMA + math.log(x) + total
        return math.exp(z.real) * complex(-ei, math.pi)
    if abs(z) + z.real < 3.0:
        term = total = -z
        k = 1
        while abs(term) > 1e-17 * abs(total):
            k += 1
            term *= -z * (k - 1) / (k * k)
            total += term
        return cmath.exp(z) * (-_EULER_GAMMA - cmath.log(z) - total)
    # modified Lentz
    b = z + 1.0
    c, d = 1e300, 1.0 / b
    total = d
    for k in range(1, 500):
        b += 2.0
        d = 1.0 / (b - k * k * d)
        c = b - k * k / c
        total *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return total


def _surface_pole(eps: complex, swap_polarizations: bool,
                  deriv: int) -> tuple[complex, complex] | None:
    """(v0, C) of the surface-plasmon pole term C/(v - v0) of the
    evanescent bracket of a surface of permittivity eps, or None when
    Re(eps) >= -1 (no pole near the real axis).

    r_p has its pole at v0 = 1/sqrt(-(eps+1)), where eps*v + kappa_2
    vanishes, with residue R = 2 eps^2 v0/(eps^2 - 1).  C = R v0^2 when
    r_p carries the v^2 weight (electric swap), C = R otherwise, and the
    z-derivative factor (-v)^deriv contributes (-v0)^deriv.
    """
    if eps.real >= -1.0:
        return None
    v0 = 1.0 / cmath.sqrt(-(eps + 1.0))
    c = 2.0 * eps**2 * v0 / (eps**2 - 1.0)
    if swap_polarizations:
        c *= v0**2
    return v0, c * (-v0) ** deriv


def _real_freq_integral(surface: SurfaceModel, omega: float, a: float,
                        swap_polarizations: bool, quad: QuadratureConfig,
                        deriv: int = 0) -> IntegralResult:
    """J = int_0^inf dx (x/K) e^(-a*K) [r_A + r_B K^2] at real frequency.

    x = k_par/k_omega, K = kappa_perp/k_omega with k_omega = omega/c.
    (r_A, r_B) = (r_p, r_s) for the magnetic case, swapped for the
    electric one.  The propagating sector is substituted with
    u = sqrt(1 - x^2) (kappa_perp = -i*u*k_omega), which cancels the 1/K
    endpoint factor and leaves the analytic phase exp(i*a*u); the
    evanescent sector is parametrized by v = K directly.
    ``deriv`` multiplies the integrand by (-K)^deriv, the z-derivative of
    the exponential in units of 2*k_omega per order.

    Both sectors start from panels at the surface's own scales, in units
    of k_omega: r_p turns from -1 to +1 at grazing incidence near
    u_b = sqrt|eps - 1|/|eps|, r_s turns over near v_s = sqrt|eps - 1|,
    and e^(-a v) decays on 1/a.  A ratio-4 _ladder from u_b to 1 gives
    the propagating breakpoints (when u_b < 1/4), and one from
    min(u_b, 1/a) to max(v_s, 1/a) the evanescent split points, so the
    adaptive rule does not find these scales one bisection at a time.
    The perfect conductor has no such scales.

    When Re(eps) < -1, r_p has the surface-plasmon pole v0 (see
    _surface_pole): complex just above the real axis for Drude, real for
    the lossless plasma.  The evanescent integral is then done by
    singularity subtraction: the quadrature sees the bracket less
    C e^(-a v)/(v - v0), which is smooth at v0, with Re v0 as one more
    split point, and the pole term's integral is added back in closed
    form, int_0^inf C e^(-a v)/(v - v0) dv = C e^(-a v0) E1(-a v0).  E1
    is taken on the lower side of its cut, so the plasma value is the
    gamma -> 0 limit of the Drude one; its imaginary part
    pi C e^(-a v0) is the surface-plasmon emission channel.  The scaled
    _exp_e1 keeps the add-back finite where e^(-a v0) underflows.
    """
    k_omega = omega / sc.c

    def propagating(u: np.ndarray) -> np.ndarray:
        pair = fresnel_real_freq_from_kappa(surface, -1j * u * k_omega, omega)
        r_a, r_b = (pair.r_s, pair.r_p) if swap_polarizations else (pair.r_p, pair.r_s)
        out = 1j * np.exp(1j * a * u) * (r_a - r_b * u**2)
        if deriv:
            out *= (1j * u) ** deriv
        return out

    breakpoints, splits, pole, add_back = (), (), None, 0.0
    if not isinstance(surface, PerfectConductor):
        eps = complex(permittivity_real_freq(surface, omega))
        v_s = math.sqrt(abs(eps - 1.0))
        u_b = v_s / abs(eps)
        if 0.0 < u_b < 0.25:
            breakpoints = _ladder(u_b, 1.0)
        if u_b > 0.0:
            splits = _ladder(min(u_b, 1.0 / a), max(v_s, 1.0 / a))
        pole = _surface_pole(eps, swap_polarizations, deriv)
    if pole is not None:
        splits += (pole[0].real,)
        add_back = pole[1] * _exp_e1(-a * pole[0])

    def evanescent(v: np.ndarray) -> np.ndarray:
        pair = fresnel_real_freq_from_kappa(surface, v * k_omega, omega)
        r_a, r_b = (pair.r_s, pair.r_p) if swap_polarizations else (pair.r_p, pair.r_s)
        decay = np.exp(-a * v)
        out = decay * (r_a + r_b * v**2)
        if deriv:
            out *= (-v) ** deriv
        if pole is not None:
            # a node that rounds onto a real v0, reached only when the
            # tolerance is below the rounding noise of r_p there, takes
            # no pole term instead of a division by zero
            gap = v - pole[0]
            out = out - decay * pole[1] / np.where(gap == 0, np.inf, gap)
        return np.asarray(out, dtype=complex)

    prop = integrate_finite(propagating, 0.0, 1.0, quad,
                            breakpoints=breakpoints,
                            max_panel_width=math.pi / a)
    evan = integrate_semi_infinite(
        evanescent, 0.0, replace(quad, split_points=splits),
        tail_scale=1.0 / a)
    return prop + evan + IntegralResult(add_back, 0.0, 0, True)


def _resonant_j(particle: ParticleSpec, surface: SurfaceModel,
                geometry: Geometry, quad: QuadratureConfig,
                deriv: int = 0) -> IntegralResult:
    a = 2.0 * particle.omega_tilde * geometry.z_tilde(particle)
    return _real_freq_integral(surface, particle.omega_m, a,
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
    return _finish(pref, res.value.real, res, "resonant magnetic shift",
                   strict)


def u_m0_pc_closed(particle: ParticleSpec, geometry: Geometry,
                   deriv: bool = False) -> float:
    """Closed form of the resonant shift for the perfect conductor,
    C B(x)/z^3 with x = w z; with deriv=True its d/dz_tilde,
    C (-3 B/z^4 + w B'(x)/z^3)."""
    zt = geometry.z_tilde(particle)
    x = particle.omega_tilde * zt
    bracket = math.cos(2 * x) + 2 * x * math.sin(2 * x) \
        - 4 * x * x * math.cos(2 * x)
    if deriv:
        slope = 8 * x * x * math.sin(2 * x) - 4 * x * math.cos(2 * x)
        return 3.0 * particle.eta * particle.spin * (particle.spin + 1.0) \
            / 64.0 * (-3.0 * bracket / zt**4
                      + particle.omega_tilde * slope / zt**3)
    return 3.0 * particle.eta * particle.spin * (particle.spin + 1.0) \
        / (64.0 * zt**3) * bracket


def _u_m0_pc_result(particle: ParticleSpec, geometry: Geometry,
                    quad: QuadratureConfig, deriv: bool = False,
                    strict: bool = True):
    """u_m0_pc_closed as (value, IntegralResult), the form of the other
    evaluators.  The error is the rounding of the bracket, whose terms
    reach (1 + 2x)^2, and of its phase 2x, which costs one more power of
    1 + 2x; the slope has one more power of (1 + 2x)/z besides."""
    value = u_m0_pc_closed(particle, geometry, deriv=deriv)
    zt = geometry.z_tilde(particle)
    grow = 1.0 + 2.0 * particle.omega_tilde * zt
    size = 3.0 * particle.eta * particle.spin * (particle.spin + 1.0) \
        / (64.0 * zt**3) * grow**3
    if deriv:
        size *= 3.0 * grow / zt
    return value, IntegralResult(value, 8.0 * _EPS * size, 0, True)


def delta_gamma_m(particle: ParticleSpec, surface: SurfaceModel,
                  geometry: Geometry, quad: QuadratureConfig,
                  m_s: float | None = None, strict: bool = True):
    """Spin-flip rate correction for |S, m_S> -> |S, m_S - 1>, in Gamma0.

    m_s chooses the sublevel; None is the stretched ground sublevel -S.
    Includes the matrix-element weight S(S+1) - m_S(m_S - 1); the bottom
    sublevel m_S = -S therefore gets exactly zero without quadrature.
    Raises SublevelOutOfRange unless |m_S| <= S.
    """
    if m_s is None:
        m_s = -particle.spin
    if not abs(m_s) <= particle.spin + 1e-12:  # also refuses nan and inf
        raise SublevelOutOfRange(
            f"|m_s| = {abs(m_s)} exceeds spin = {particle.spin}")
    weight = matrix_element_flip(particle.spin, m_s)
    if weight == 0.0:
        return 0.0, IntegralResult(0.0, 0.0, 0, True)
    res = _resonant_j(particle, surface, geometry, quad)
    pref = 3.0 / 8.0 * particle.eta * particle.omega_tilde**3 * weight
    return _finish(pref, res.value.imag, res, "spin-flip rate", strict)


def delta_gamma_e(particle: ParticleSpec, surface: SurfaceModel,
                  geometry: Geometry, quad: QuadratureConfig,
                  strict: bool = True):
    """Surface correction to the ED emission rate, in units of Gamma0.

    For the in-plane circular dipole above a perfect conductor this tends
    to -Gamma0 at contact (image dipole anti-aligned) and decays as an
    oscillatory 1/z envelope far away.
    """
    a = 2.0 * geometry.z_tilde(particle)
    res = _real_freq_integral(surface, particle.omega_e, a,
                              swap_polarizations=True, quad=quad)
    return _finish(0.75, res.value.imag, res, "ED rate correction", strict)


# ---------------------------------------------------------------------------
# aggregate helpers

def component(name: str, particle: ParticleSpec, surface: SurfaceModel,
              geometry: Geometry, quad: QuadratureConfig,
              deriv: bool = False):
    """(value, IntegralResult) of one shift, or of its d/dz_tilde.

    name is "electric", "magnetic" (broadband), "static" or "excited0".
    This is the one place that picks a representation.  Above a perfect
    conductor every shift has a closed form and no quadrature runs: the
    electric and broadband magnetic shifts in the sine and cosine
    integrals (u_e_pc_closed, u_m_pc_closed), the resonant one in
    u_m0_pc_closed, and the static image inside u_m_static.  Drude and
    plasma surfaces use the integrals.  The evaluators are looked up by
    name on every call, so a wrapper bound to the module name sees each
    call.  Never raises on non-convergence.
    """
    if isinstance(surface, PerfectConductor) and name != "static":
        closed = {"electric": u_e_pc_closed, "magnetic": u_m_pc_closed,
                  "excited0": _u_m0_pc_result}[name]
        return closed(particle, geometry, quad, deriv=deriv, strict=False)
    evaluator = {"electric": u_e_ground, "magnetic": u_m_ground_broadband,
                 "static": u_m_static, "excited0": u_m_excited0}[name]
    return evaluator(particle, surface, geometry, quad, deriv=deriv,
                     strict=False)


def _components(names: tuple[str, ...], particle: ParticleSpec,
                surface: SurfaceModel, geometry: Geometry,
                quad: QuadratureConfig,
                deriv: bool = False) -> tuple[dict[str, float], bool]:
    """({name: value}, converged) of the named components, each from
    component() in the order given; converged is true only when every
    one is.  A static term left out of names reads 0.0."""
    values = {"static": 0.0}
    ok = True
    for name in names:
        values[name], res = component(name, particle, surface, geometry,
                                      quad, deriv=deriv)
        ok = ok and res.converged
    return values, ok


def potential_breakdown(particle: ParticleSpec, surface: SurfaceModel,
                        geometry: Geometry, quad: QuadratureConfig,
                        include_excited0: bool = False,
                        include_static: bool = True) -> PotentialBreakdown:
    """All dimensionless shifts (units hbar*Gamma0) at one distance;
    include_static=False leaves u_m_static uncalled and u_m_z 0.0."""
    names = ("electric", "magnetic") + ("static",) * include_static \
        + ("excited0",) * include_excited0
    u, ok = _components(names, particle, surface, geometry, quad)
    return PotentialBreakdown(
        u_e_minus=u["electric"], u_m_minus=u["magnetic"], u_m_z=u["static"],
        total_ground=u["electric"] + u["magnetic"] + u["static"],
        u_m_excited0=u.get("excited0"),
        converged=ok,
    )


def decay_breakdown(particle: ParticleSpec, surface: SurfaceModel,
                    geometry: Geometry, quad: QuadratureConfig,
                    m_s: float | None = None) -> DecayBreakdown:
    dge, res_e = delta_gamma_e(particle, surface, geometry, quad, strict=False)
    dgm, res_m = delta_gamma_m(particle, surface, geometry, quad, m_s=m_s,
                               strict=False)
    return DecayBreakdown(delta_gamma_e=dge, delta_gamma_m=dgm,
                          converged=res_e.converged and res_m.converged)
