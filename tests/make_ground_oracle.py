"""Write tests/ground_oracle.json, the ground-state integrals of
magcp.potentials' u_e_ground, u_m_ground_broadband and u_m_static
computed with mpmath alone.

In units of omega_e and k_e = omega_e/c, the broadband shifts are
prefactors times

    D = int_0^inf dxi int_xi^inf dkappa e^(-2 kappa z) (-2 kappa)^deriv
        N(xi, kappa)/(xi^2 + w^2),

with N = r_s xi^2 - r_p kappa^2 and w = 1 for the electric shift, and
N = r_p xi^2 - r_s kappa^2 and w = omega_m/omega_e for the magnetic one.
The plasma's static image is a prefactor times

    S = int_0^inf dkappa kappa^2 e^(-2 kappa z) (-2 kappa)^deriv r_s(kappa, 0).

This script writes its own permittivity and Fresnel coefficients, in the
textbook forms at imaginary frequency i xi,

    eps = 1 + omega_p^2/(xi^2 + gamma xi),
    kappa_2 = sqrt(kappa^2 + (eps - 1) xi^2),
    r_s = (kappa - kappa_2)/(kappa + kappa_2),
    r_p = (eps kappa - kappa_2)/(eps kappa + kappa_2),

(gamma = 0 for the plasma; the static r_s has (eps - 1) xi^2 = omega_p^2),
and evaluates them at mp.dps 25: the four z_tilde 1e-3 slopes, which
reach the largest kappa and so the deepest cancellation, print the same
20 digits at mp.dps 35.  It imports nothing from magcp, and it does
not take magcp's representation: magcp integrates xi outside and kappa
inside, this script kappa outside and xi over [0, kappa] inside.  The
inner integral substitutes xi = w tan(theta), which turns the Lorentzian
1/(xi^2 + w^2) into the constant 1/w.  Above xi = w it runs over
phi = pi/2 - theta instead, xi = w cot(phi), so that xi keeps its
relative precision on both sides.  The inner integral is split at the
angle of each of xi = gamma, omega_p and 1 below kappa, and the outer
one at kappa = w, gamma, 1, omega_p, 1/(2z) and 10/(2z), all in units
of omega_e and k_e.

Each value's self-check is mp.quad's own error estimate: the outer one
plus the largest inner one, weighted by e^(-2 kappa z) (2 kappa)^deriv,
times the outer extent 10/(2z), written as "error_bound"; compute()
refuses a value whose bound exceeds 1e-16 of it.

Grid: the test particle (omega_e = 2 pi 1e15 rad/s, omega_m = 2 pi 1e10
rad/s); Drude gold (omega_p = 1.36e16 rad/s, gamma = 1e14 rad/s) and
plasma gold (omega_p = 1.36e16 rad/s); electric and magnetic D, and the
plasma's S; deriv 0 and 1; z_tilde 1e-3, 0.1 and 10.  A second slice
puts omega_m at 2 pi 1e7 rad/s (omega_m/omega_e = 1e-8, the narrowest
Lorentzian): magnetic D on both surfaces, deriv 0 and 1, z_tilde 1e-3
and 10.  Every row carries its omega_m.  Run from the repository root:

    python tests/make_ground_oracle.py

Rows already in the file are kept and only missing ones are computed;
delete the file to recompute every row.  The first slice took about 40
minutes on a 2-vCPU host, the second about 80 s a row (see CHANGES.md).
"""

import json
import math
import time
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).with_name("ground_oracle.json")
DPS = 25
# largest error_bound accepted, relative to the value
SELF_CHECK = 1e-16

OMEGA_E = 2.0 * math.pi * 1e15
OMEGA_M = 2.0 * math.pi * 1e10
# the narrow-Lorentzian slice, omega_m/omega_e = 1e-8
OMEGA_M_SLOW = 2.0 * math.pi * 1e7
SURFACES = {"drude": {"omega_p": 1.36e16, "gamma": 1e14},
            "plasma": {"omega_p": 1.36e16}}
Z_TILDE = (1e-3, 0.1, 10.0)
Z_TILDE_SLOW = (1e-3, 10.0)


def grid():
    """(surface, integral, z_tilde, deriv, omega_m) of every row, in
    order."""
    rows = []
    for surface in SURFACES:
        integrals = ("electric", "magnetic") + (
            ("static",) if surface == "plasma" else ())
        for which in integrals:
            for zt in Z_TILDE:
                for deriv in (0, 1):
                    rows.append((surface, which, zt, deriv, OMEGA_M))
    for surface in SURFACES:
        for zt in Z_TILDE_SLOW:
            for deriv in (0, 1):
                rows.append((surface, "magnetic", zt, deriv, OMEGA_M_SLOW))
    return rows


def scales(surface: dict):
    """(omega_p, gamma) in units of omega_e, gamma 0 for the plasma."""
    return (mp.mpf(surface["omega_p"]) / OMEGA_E,
            mp.mpf(surface.get("gamma", 0)) / OMEGA_E)


def fresnel(omega_p, gamma, kappa, xi):
    """(r_s, r_p) at imaginary frequency xi > 0."""
    eps = 1 + omega_p**2 / (xi * xi + gamma * xi)
    kappa_2 = mp.sqrt(kappa * kappa + (eps - 1) * xi * xi)
    return ((kappa - kappa_2) / (kappa + kappa_2),
            (eps * kappa - kappa_2) / (eps * kappa + kappa_2))


def outer_points(zt, features):
    """0, the features and 1/(2z), 10/(2z) in ascending order, then inf."""
    envelope = 1 / (2 * mp.mpf(zt))
    inside = sorted(set(s for s in features if s > 0)
                    | {envelope, 10 * envelope})
    return [mp.mpf(0)] + inside + [mp.inf]


def double_integral(surface: dict, electric: bool, zt, deriv: int,
                    omega_m: float):
    """(D, error bound) at the working precision."""
    omega_p, gamma = scales(surface)
    w = mp.mpf(1) if electric else mp.mpf(omega_m) / OMEGA_E
    zt = mp.mpf(zt)

    def inner(kappa):
        """(value, error estimate) of the xi integral at kappa."""
        # xi = w tan(theta) below w and xi = w cot(phi) above it, so that
        # dxi/(xi^2 + w^2) = dtheta/w = -dphi/w and xi keeps its relative
        # precision on both sides; theta and phi each end at pi/4 (xi = w)
        def bracket(xi):
            r_s, r_p = fresnel(omega_p, gamma, kappa, xi)
            if electric:
                return (r_s * xi * xi - r_p * kappa * kappa) / w
            return (r_p * xi * xi - r_s * kappa * kappa) / w

        below = [s for s in (gamma, omega_p, mp.mpf(1)) if 0 < s < kappa]
        edges = [mp.mpf(0)] + sorted(mp.atan(s / w) for s in below
                                     if s < w) + [mp.atan(min(kappa, w) / w)]
        value, error = mp.quad(lambda t: bracket(w * mp.tan(t)), edges,
                               error=True)
        if kappa > w:
            edges = [mp.atan(w / kappa)] + sorted(
                mp.atan(w / s) for s in below if s > w) + [mp.pi / 4]
            more, err = mp.quad(lambda t: bracket(w / mp.tan(t)), edges,
                                error=True)
            value, error = value + more, error + err
        return value, error

    worst_inner = [mp.mpf(0)]

    def outer(kappa):
        weight = mp.exp(-2 * kappa * zt) * (-2 * kappa) ** deriv
        value, err = inner(kappa)
        worst_inner[0] = max(worst_inner[0], abs(weight) * err)
        return weight * value

    points = outer_points(zt, (w, gamma, mp.mpf(1), omega_p))
    value, err = mp.quad(outer, points, error=True)
    return value, err + worst_inner[0] * 10 / (2 * zt)


def static_integral(surface: dict, zt, deriv: int):
    """(S, error bound) of the plasma's static image term."""
    omega_p, _ = scales(surface)
    zt = mp.mpf(zt)

    def f(kappa):
        kappa_2 = mp.sqrt(kappa * kappa + omega_p**2)
        r_s = (kappa - kappa_2) / (kappa + kappa_2)
        return kappa**2 * mp.exp(-2 * kappa * zt) * (-2 * kappa) ** deriv * r_s

    value, err = mp.quad(f, outer_points(zt, (omega_p,)), error=True)
    return value, abs(err)


KEY = ("surface", "integral", "z_tilde", "deriv", "omega_m")


def compute(row):
    surface, which, zt, deriv, omega_m = row
    with mp.workdps(DPS):
        if which == "static":
            value, bound = static_integral(SURFACES[surface], zt, deriv)
        else:
            value, bound = double_integral(SURFACES[surface],
                                           which == "electric", zt, deriv,
                                           omega_m)
        if not bound <= SELF_CHECK * abs(value):
            raise RuntimeError(f"error bound {mp.nstr(bound, 3)} of "
                               f"{mp.nstr(value, 12)}: {row}")
        return dict(zip(KEY, row), value=mp.nstr(value, 20),
                    error_bound=float(bound))


def main() -> None:
    kept = {}
    if OUT.exists():
        table = json.loads(OUT.read_text())
        for entry in table["rows"]:
            # files from before the second slice name omega_m once
            entry.setdefault("omega_m", table.get("omega_m"))
            kept[tuple(entry[k] for k in KEY)] = {
                **{k: entry[k] for k in KEY}, "value": entry["value"],
                "error_bound": entry["error_bound"]}
    entries = []
    for row in grid():
        if row in kept:
            entries.append(kept[row])
            continue
        start = time.perf_counter()
        entries.append(compute(row))
        print(f"{' '.join(map(str, row))}: {entries[-1]['value']} "
              f"(bound {entries[-1]['error_bound']:.1e}, "
              f"{time.perf_counter() - start:.0f} s)", flush=True)
    OUT.write_text(json.dumps({
        "about": "ground-state integrals D and S of magcp.potentials "
                 "from mpmath alone; written by tests/make_ground_oracle.py",
        "omega_e": OMEGA_E, "surfaces": SURFACES,
        "dps": DPS, "rows": entries}, indent=1) + "\n")


if __name__ == "__main__":
    main()
