"""Surface response models and reflection coefficients."""

import math

import mpmath
import numpy as np
import pytest
import scipy.constants as sc
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magcp.materials import (
    DomainViolation,
    Drude,
    NegativeFrequency,
    PerfectConductor,
    Plasma,
    fresnel_imag_axis,
    fresnel_real_freq_from_kappa,
    fresnel_static_limit,
    permittivity_imag_axis,
    permittivity_real_freq,
)

from conftest import OMEGA_E, make_particle, resonant_drude

GOLD = Drude(omega_p=1.36e16, gamma=1.0e14)
PLASMA = Plasma(omega_p=1.36e16)
PC = PerfectConductor()
RESONANT = resonant_drude(make_particle())


def kappa_perp(k_par, w):
    """Vacuum decay constant on the fixed real-frequency branch:
    -i*sqrt(k0^2 - k_par^2) propagating, +sqrt(k_par^2 - k0^2) evanescent."""
    diff = k_par**2 - (w / sc.c) ** 2
    return math.sqrt(diff) if diff >= 0 else -1j * math.sqrt(-diff)


def fresnel_real(model, k_par, w):
    return fresnel_real_freq_from_kappa(model, kappa_perp(k_par, w), w)


def test_model_validation():
    with pytest.raises(ValueError):
        Drude(omega_p=-1.0, gamma=1.0)
    with pytest.raises(ValueError):
        Plasma(omega_p=0.0)
    with pytest.warns(UserWarning):
        Drude(omega_p=1.0e16, gamma=5.0e15)


def test_permittivity_imag_axis_values():
    # eps(i xi) = 1 + wp^2/(xi(xi+gamma)) for Drude, 1 + wp^2/xi^2 plasma
    xi = 2.0e15
    assert permittivity_imag_axis(GOLD, xi) == pytest.approx(
        1.0 + GOLD.omega_p**2 / (xi * (xi + GOLD.gamma)), rel=1e-14, abs=0.0)
    assert permittivity_imag_axis(PLASMA, xi) == pytest.approx(
        1.0 + PLASMA.omega_p**2 / xi**2, rel=1e-14, abs=0.0)
    assert permittivity_imag_axis(PC, xi) == math.inf


def test_permittivity_negative_frequency_rejected():
    with pytest.raises(NegativeFrequency):
        permittivity_real_freq(GOLD, -1.0)


def test_real_freq_permittivity_drude():
    w = 3.0e15
    eps = permittivity_real_freq(GOLD, w)
    expected = 1.0 - GOLD.omega_p**2 / (w * (w + 1j * GOLD.gamma))
    assert eps == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert eps.imag > 0


def test_imag_axis_pair_is_real_and_bounded():
    xi = 1.0e15
    kappa = np.array([xi / sc.c * 1.5, 1.0e8, 1.0e9])
    pair = fresnel_imag_axis(GOLD, kappa, xi)
    assert pair.r_s.dtype.kind == "f" and pair.r_p.dtype.kind == "f"
    assert np.all(pair.r_s <= 0.0) and np.all(pair.r_s >= -1.0)
    assert np.all(pair.r_p >= 0.0) and np.all(pair.r_p <= 1.0)


def test_imag_axis_domain_enforced():
    xi = 1.0e15
    with pytest.raises(DomainViolation):
        fresnel_imag_axis(GOLD, 0.5 * xi / sc.c, xi)


def test_imag_axis_array_xi_matches_scalar_rows():
    # a column of xi broadcasts against a 2-d kappa: row i is the scalar
    # call at xi[i]; xi = 0 is refused, its limit is fresnel_static_limit
    xi = np.array([[1.0e13], [1.0e15], [2.0e16]])
    kappa = np.array([1.5, 3.0, 1.0e2]) * 2.0e16 / sc.c
    kappa_2d = kappa * np.array([[1.0], [2.0], [1.0]])
    for model in (GOLD, PLASMA, PC):
        pair = fresnel_imag_axis(model, kappa_2d, xi)
        assert pair.r_s.shape == pair.r_p.shape == kappa_2d.shape
        for row, x in enumerate(xi[:, 0]):
            one = fresnel_imag_axis(model, kappa_2d[row], x)
            np.testing.assert_allclose(pair.r_s[row], one.r_s, rtol=1e-15)
            np.testing.assert_allclose(pair.r_p[row], one.r_p, rtol=1e-15)
        with pytest.raises(NegativeFrequency, match="fresnel_static_limit"):
            fresnel_imag_axis(model, kappa, 0.0)


def test_imag_axis_array_xi_checks_every_element():
    kappa = np.full((2, 3), 1.0e8)
    for model in (GOLD, PLASMA, PC):
        with pytest.raises(NegativeFrequency):
            fresnel_imag_axis(model, kappa, np.array([[1.0e13], [-1.0]]))
        # 1e8 m^-1 is below xi/c = 3.3e8 m^-1 in the second row only
        with pytest.raises(DomainViolation):
            fresnel_imag_axis(model, kappa, np.array([[1.0e13], [1.0e17]]))
        # xi = 0 or nan in any element is refused
        for bad in (0.0, math.nan):
            with pytest.raises(NegativeFrequency):
                fresnel_imag_axis(model, kappa, np.array([[1.0e13], [bad]]))
        # the static limit needs kappa > 0
        with pytest.raises(DomainViolation):
            fresnel_static_limit(model, np.array([[0.0], [1.0e8]]))


def test_perfect_conductor_limits():
    xi = 1.0e15
    pair = fresnel_imag_axis(PC, 1.0e8, xi)
    assert pair.r_s == pytest.approx(-1.0)
    assert pair.r_p == pytest.approx(1.0)


def test_static_limits_distinguish_models():
    kappa = 5.0e7
    assert fresnel_static_limit(GOLD, kappa).r_s == 0.0
    assert fresnel_static_limit(GOLD, kappa).r_p == 1.0
    assert fresnel_static_limit(PC, kappa).r_s == -1.0
    k2 = math.sqrt(kappa**2 + (PLASMA.omega_p / sc.c) ** 2)
    assert fresnel_static_limit(PLASMA, kappa).r_s == pytest.approx(
        (kappa - k2) / (kappa + k2), rel=1e-14, abs=0.0)
    # against 50 digits; the difference form (kappa - k2)/(kappa + k2)
    # was 1.4e-10, 2.8e-6 and 1.2e-4 off at kappa/k_p = 1e3, 1e5 and 1e6
    k_p = PLASMA.omega_p / sc.c
    for ratio in (10.0, 1e3, 1e5, 1e6):
        got = float(fresnel_static_limit(PLASMA, ratio * k_p).r_s)
        with mpmath.workdps(50):
            k = mpmath.mpf(ratio * k_p)
            k2 = mpmath.sqrt(k**2 + mpmath.mpf(k_p) ** 2)
            ref = float((k - k2) / (k + k2))
        assert abs(got - ref) <= 1e-14 * abs(ref), ratio


def test_drude_to_plasma_degeneracy():
    # gamma -> 0 turns the Drude response into the plasma one
    nearly = Drude(omega_p=1.36e16, gamma=1.0e2)
    xi = 1.0e15
    kappa = 1.0e8
    p_d = fresnel_imag_axis(nearly, kappa, xi)
    p_p = fresnel_imag_axis(PLASMA, kappa, xi)
    assert p_d.r_s == pytest.approx(p_p.r_s, rel=1e-10)
    assert p_d.r_p == pytest.approx(p_p.r_p, rel=1e-10)


def test_plasma_to_pc_degeneracy():
    # omega_p -> inf approaches the perfect conductor
    big = Plasma(omega_p=1.0e22)
    xi = 1.0e15
    kappa = 1.0e8
    pair = fresnel_imag_axis(big, kappa, xi)
    assert pair.r_s == pytest.approx(-1.0, abs=1e-4)
    assert pair.r_p == pytest.approx(1.0, abs=1e-4)


def test_real_freq_branch_normal_incidence():
    # at k_par = 0 and omega = omega_p the permittivity vanishes; the
    # limit of r_p is -1 and of r_s is +1
    pair = fresnel_real(PLASMA, 0.0, PLASMA.omega_p)
    assert complex(pair.r_p) == pytest.approx(-1.0, abs=1e-10)
    assert complex(pair.r_s) == pytest.approx(1.0, abs=1e-10)


def test_real_freq_continuity_at_light_line():
    w = 2.0e15
    k0 = w / sc.c
    below = fresnel_real(GOLD, k0 * (1.0 - 1e-9), w)
    above = fresnel_real(GOLD, k0 * (1.0 + 1e-9), w)
    assert complex(below.r_p) == pytest.approx(complex(above.r_p), abs=1e-3)
    assert complex(below.r_s) == pytest.approx(complex(above.r_s), abs=1e-3)


def test_kappa_perp_branch():
    # the propagating branch -i*u is the passive one for a lossy medium:
    # |r_s| <= 1 there, while the opposite branch +i*u reflects more than
    # it receives
    w = 1.0e15
    u = 0.5 * w / sc.c
    passive = fresnel_real_freq_from_kappa(GOLD, -1j * u, w)
    active = fresnel_real_freq_from_kappa(GOLD, 1j * u, w)
    assert abs(complex(passive.r_s)) <= 1.0
    assert abs(complex(active.r_s)) > 1.0
    # the evanescent branch is real and positive
    evan = complex(kappa_perp(2.0 * w / sc.c, w))
    assert evan.imag == 0.0 and evan.real > 0.0


def test_lossless_plasma_outgoing_branch():
    # inside the gap (omega < omega_p) the transmitted wave must decay;
    # |r| = 1 for both polarizations in the propagating sector
    w = 0.5 * PLASMA.omega_p
    pair = fresnel_real(PLASMA, 0.2 * w / sc.c, w)
    assert abs(complex(pair.r_s)) == pytest.approx(1.0, rel=1e-12)
    assert abs(complex(pair.r_p)) == pytest.approx(1.0, rel=1e-12)


def test_surface_plasmon_pole_region():
    # Re eps < -1 just below omega_p/sqrt(2): r_p grows large near the
    # evanescent pole for small loss
    w_res = GOLD.omega_p / math.sqrt(2.0)
    eps = permittivity_real_freq(GOLD, w_res * 0.999)
    assert eps.real < -1.0
    k_par = 10.0 * w_res / sc.c
    on = fresnel_real(GOLD, k_par, w_res)
    off = fresnel_real(GOLD, k_par, 0.5 * w_res)
    assert abs(complex(on.r_p)) > 10.0 * abs(complex(off.r_p))


def _r_s_mpmath(model, kappa, w):
    """(kappa - kappa_2)/(kappa + kappa_2) at 40 digits, principal root."""
    with mpmath.workdps(40):
        w_m = mpmath.mpf(w)
        gamma = model.gamma if isinstance(model, Drude) else 0.0
        eps = 1 - mpmath.mpf(model.omega_p) ** 2 / (w_m**2 + 1j * gamma * w_m)
        k = mpmath.mpc(kappa.real, kappa.imag)
        k2 = mpmath.sqrt(k**2 - (eps - 1) * (w_m / sc.c) ** 2)
        return complex((k - k2) / (k + k2))


@pytest.mark.parametrize("model", [GOLD, PLASMA], ids=["drude", "plasma"])
@pytest.mark.parametrize("k_over_k0", [1e8, 1e9, 1e3, 1.0, -0.5j])
def test_real_freq_r_s_free_of_cancellation(model, k_over_k0):
    # at omega_m = 2 pi 10 GHz the difference kappa - kappa_2 cancelled:
    # Drude gold was 2.8e-9 off at kappa/k = 1e8 and 4.8e-6 at 1e9
    w = 2.0 * math.pi * 1e10
    kappa = complex(k_over_k0) * w / sc.c
    got = complex(fresnel_real_freq_from_kappa(model, kappa, w).r_s)
    ref = _r_s_mpmath(model, kappa, w)
    assert abs(got - ref) <= 1e-13 * abs(ref)


def _r_imag_mpmath(model, kappa, xi):
    """(r_s, r_p) = ((kappa - kappa_2)/(kappa + kappa_2),
    (eps kappa - kappa_2)/(eps kappa + kappa_2)) at imaginary frequency,
    40 digits."""
    with mpmath.workdps(40):
        xi_m = mpmath.mpf(xi)
        gamma = model.gamma if isinstance(model, Drude) else 0.0
        eps = 1 + mpmath.mpf(model.omega_p) ** 2 / (xi_m**2 + gamma * xi_m)
        k = mpmath.mpf(kappa)
        k2 = mpmath.sqrt(k**2 + (eps - 1) * (xi_m / sc.c) ** 2)
        return float((k - k2) / (k + k2)), \
            float((eps * k - k2) / (eps * k + k2))


@pytest.mark.parametrize("model", [GOLD, PLASMA], ids=["drude", "plasma"])
@pytest.mark.parametrize("xi_t, kappa_t", [(1e-8, 300.0), (1e-3, 1e5),
                                           (1e4, 1e4), (1e4, 1.5e4)])
def test_imag_axis_r_s_free_of_cancellation(model, xi_t, kappa_t):
    # xi and kappa in units of omega_e and k_e, reached by the near-
    # contact ground-state integrals: the difference kappa - kappa_2
    # cancelled, Drude gold was 5.0e-6 off at (1e-8, 300) and 2.1e-6 at
    # (1e-3, 1e5); likewise eps kappa - kappa_2 where eps -> 1 at large
    # xi, 1.5e-9 off at (1e4, 1e4) and 2.0e-10 at (1e4, 1.5e4)
    xi = xi_t * OMEGA_E
    kappa = kappa_t * OMEGA_E / sc.c
    pair = fresnel_imag_axis(model, kappa, xi)
    ref_s, ref_p = _r_imag_mpmath(model, kappa, xi)
    assert abs(float(pair.r_s) - ref_s) <= 1e-13 * abs(ref_s)
    assert abs(float(pair.r_p) - ref_p) <= 1e-13 * abs(ref_p)


def _fresnel_textbook(model, kappa, s, static=False):
    """r_s = (kappa - kappa_2)/(kappa + kappa_2) and r_p = (eps kappa -
    kappa_2)/(eps kappa + kappa_2) at 50 digits, for s = xi on the
    imaginary axis or s = -i omega at real frequency, with kappa_2^2 =
    kappa^2 + chi s^2/c^2 on the outgoing branch; static takes the
    xi -> 0 limit of chi s^2, omega_p^2 for the plasma and 0 for Drude."""
    with mpmath.workdps(50):
        s, k = mpmath.mpmathify(s), mpmath.mpmathify(kappa)
        gamma = model.gamma if isinstance(model, Drude) else 0
        if static:
            chi_s2 = 0 if gamma else mpmath.mpf(model.omega_p) ** 2
        else:
            chi = mpmath.mpf(model.omega_p) ** 2 / (s**2 + gamma * s)
            chi_s2 = chi * s**2
        w = k**2 + chi_s2 / mpmath.mpf(sc.c) ** 2
        if mpmath.im(w) == 0 and mpmath.re(w) < 0:
            k2 = -1j * mpmath.sqrt(-mpmath.re(w))
        else:
            k2 = mpmath.sqrt(w)
        r_s = complex((k - k2) / (k + k2))
        if static:
            return r_s, 1.0
        eps = 1 + chi
        return r_s, complex((eps * k - k2) / (eps * k + k2))


@given(model=st.sampled_from([GOLD, PLASMA, RESONANT]),
       sector=st.sampled_from(["imag", "propagating", "evanescent",
                               "static"]),
       log_w=st.floats(-8.0, 4.0), log_k=st.floats(-3.0, 8.0))
@settings(max_examples=150, deadline=None)
def test_fresnel_kernel_matches_textbook_forms(model, sector, log_w, log_k):
    # one kernel serves every frequency; it must agree with the textbook
    # quotients wherever those are well conditioned.  Next to the
    # plasmon pole (|r_p| > 1e3) r_p is ill-conditioned by nature.
    w = 10.0**log_w * OMEGA_E
    k = w / sc.c
    ratio = 10.0**log_k
    if sector == "imag":
        kappa = (1.0 + ratio) * k
        pair = fresnel_imag_axis(model, kappa, w)
        ref = _fresnel_textbook(model, kappa, w)
    elif sector == "static":
        kappa = ratio * k
        pair = fresnel_static_limit(model, kappa)
        ref = _fresnel_textbook(model, kappa, 0, static=True)
    else:
        if sector == "propagating":
            kappa = -1j * 10.0 ** (-3.0 * (log_k + 3.0) / 11.0) * k
        else:
            kappa = ratio * k
        pair = fresnel_real_freq_from_kappa(model, kappa, w)
        ref = _fresnel_textbook(model, kappa, -1j * w)
    assume(abs(ref[1]) <= 1e3)
    for got, want in zip((pair.r_s, pair.r_p), ref):
        assert abs(complex(got) - want) <= 1e-12 * max(1.0, abs(want))


@given(xi=st.floats(1e10, 1e18), kappa_factor=st.floats(1.0, 1e4))
@settings(max_examples=60, deadline=None)
def test_imag_axis_reflections_bounded(xi, kappa_factor):
    kappa = kappa_factor * xi / sc.c
    for model in (GOLD, PLASMA, PC):
        pair = fresnel_imag_axis(model, kappa, xi)
        assert -1.0 <= float(pair.r_s) <= 0.0
        assert 0.0 <= float(pair.r_p) <= 1.0


@given(w=st.floats(1e13, 1e17), k_factor=st.floats(0.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_real_freq_passivity(w, k_factor):
    # propagating-sector reflectivity cannot exceed unity for a lossy model
    k_par = k_factor * w / sc.c
    pair = fresnel_real(GOLD, k_par, w)
    if k_factor < 1.0:
        assert abs(complex(pair.r_s)) <= 1.0 + 1e-9
        assert abs(complex(pair.r_p)) <= 1.0 + 1e-9
