"""Write tests/real_freq_oracle.json, the real-frequency integral J of
magcp.potentials._real_freq_integral computed with mpmath alone.

    J = int_0^inf dx (x/K) e^(-a K) [r_A + r_B K^2] (-K)^deriv

with x = k_par/k and K = kappa_perp/k at k = omega/c, and
(r_A, r_B) = (r_s, r_p) for the electric transition, (r_p, r_s) for the
magnetic one.  This script writes its own permittivity and Fresnel
coefficients, in the textbook difference forms

    kappa_2 = sqrt(K^2 - (eps - 1)),  r_s = (K - kappa_2)/(K + kappa_2),
    r_p = (eps K - kappa_2)/(eps K + kappa_2),

and evaluates them at a precision where their cancellation (about
|eps - 1|/K^2 at large K) costs nothing: the magnetic rows reach K ~ 1e9,
so every value is computed at mp.dps 40 and again at 55, and the two
must agree to 1e-25.  It imports nothing from magcp.

The propagating sector x < 1 is written with u = sqrt(1 - x^2), K = -i u,
as i int_0^1 e^(i a u) [r_A - r_B u^2] (i u)^deriv du.  The evanescent
sector x > 1 is int_0^inf e^(-a v) [r_A + r_B v^2] (-v)^deriv dv over
v = K.  Where Re eps < -1, r_p has the surface-plasmon pole
v0 = 1/sqrt(-(eps + 1)): just above the real axis for Drude and on it for
the lossless plasma.  The path in v is the outgoing-wave contour: it
leaves the real axis and passes below the pole, through
Re(v0) (1 - i/2), and rejoins it at 2 Re(v0).  For Drude that is the real
axis deformed across no singularity; for the plasma it is the gamma -> 0
limit of Drude.  No closed-form add-back is used.  On every path of the
grid kappa_2^2 stays off the negative real axis, so the principal square
root is the branch magcp takes.

Grid: Drude gold (omega_p = 1.36e16 rad/s, gamma = 1e14 rad/s) and
plasma gold (omega_p = 1.36e16 rad/s); the electric transition
(omega_e = 2 pi 1e15 rad/s, a = 2 z_tilde) and the magnetic one
(omega_m = 2 pi 1e10 rad/s, a = 2 (omega_m/omega_e) z_tilde); deriv 0
and 1; z_tilde 1e-3, 0.1 and 10.  Run from the repository root:

    python tests/make_real_freq_oracle.py

It takes about 40 s on one core.
"""

import json
import math
import time
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).with_name("real_freq_oracle.json")
PRECISIONS = (40, 55)
AGREEMENT = 1e-25

OMEGA = {"electric": 2.0 * math.pi * 1e15, "magnetic": 2.0 * math.pi * 1e10}
SURFACES = {"drude": {"omega_p": 1.36e16, "gamma": 1e14},
            "plasma": {"omega_p": 1.36e16}}
Z_TILDE = (1e-3, 0.1, 10.0)


def permittivity(surface: dict, omega: float):
    """eps(omega) of the Drude model, or of the plasma without gamma."""
    omega_p, gamma = mp.mpf(surface["omega_p"]), surface.get("gamma", 0)
    omega = mp.mpf(omega)
    return 1 - omega_p**2 / (omega**2 + 1j * mp.mpf(gamma) * omega)


def geometric(lo, hi):
    """lo, 10 lo, 100 lo, ... below hi."""
    points = []
    while lo < hi:
        points.append(lo)
        lo *= 10
    return points


def j_value(eps, a, electric: bool, deriv: int):
    """J at the working precision mp.dps."""
    def brackets(k):
        kappa_2 = mp.sqrt(k * k - (eps - 1))
        r_s = (k - kappa_2) / (k + kappa_2)
        r_p = (eps * k - kappa_2) / (eps * k + kappa_2)
        return (r_s, r_p) if electric else (r_p, r_s)

    def propagating(u):
        r_a, r_b = brackets(-1j * u)
        return 1j * mp.exp(1j * a * u) * (r_a - r_b * u * u) * (1j * u)**deriv

    def evanescent(v):
        r_a, r_b = brackets(v)
        return mp.exp(-a * v) * (r_a + r_b * v * v) * (-v)**deriv

    # r_p turns over near u_b = sqrt|eps - 1|/|eps| and r_s near
    # v_s = sqrt|eps - 1|; e^(-a v) decays on 1/a
    v_s = mp.sqrt(abs(eps - 1))
    u_b = v_s / abs(eps)
    prop = mp.quad(propagating, [0] + geometric(u_b, 1) + [1])
    pole = 1 / mp.sqrt(-(eps + 1))
    if not (eps.real < -1 and pole.imag >= 0):
        raise ValueError(f"no surface-plasmon pole above the path: {eps}")
    p = pole.real
    far = 100 * max(v_s, 1 / a)
    path = [0, p * (1 - 0.5j)] + geometric(2 * p, far) + [far, mp.inf]
    evan = mp.quad(evanescent, path)
    return prop + evan


def main() -> None:
    rows = []
    for surface, params in SURFACES.items():
        for which, omega in OMEGA.items():
            for zt in Z_TILDE:
                a = 2.0 * zt * omega / OMEGA["electric"]
                for deriv in (0, 1):
                    start = time.perf_counter()
                    values = []
                    for dps in PRECISIONS:
                        with mp.workdps(dps):
                            values.append(j_value(
                                permittivity(params, omega), mp.mpf(a),
                                which == "electric", deriv))
                    with mp.workdps(PRECISIONS[-1]):
                        gap = abs(values[0] - values[1]) / abs(values[1])
                    if not gap < AGREEMENT:
                        raise RuntimeError(f"dps {PRECISIONS} disagree by "
                                           f"{gap}: {surface} {which} z "
                                           f"{zt} deriv {deriv}")
                    j = values[1]
                    rows.append({
                        "surface": surface, "transition": which,
                        "z_tilde": zt, "a": a, "deriv": deriv,
                        "re": mp.nstr(j.real, 20), "im": mp.nstr(j.imag, 20),
                        "precision_gap": float(gap),
                    })
                    print(f"{surface:6s} {which:8s} z {zt:g} deriv {deriv}: "
                          f"{mp.nstr(j, 12)} (gap {float(gap):.1e}, "
                          f"{time.perf_counter() - start:.1f} s)")
    OUT.write_text(json.dumps({
        "about": "J of potentials._real_freq_integral from mpmath alone; "
                 "written by tests/make_real_freq_oracle.py",
        "omega": OMEGA, "surfaces": SURFACES, "precisions": PRECISIONS,
        "rows": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
