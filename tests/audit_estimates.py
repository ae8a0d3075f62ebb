"""Randomized audit of magcp's error estimates: does a converged result
lie within its own error_estimate?

Draws random inputs: a surface (Drude gold, a strongly damped Drude
surface with gamma = 1.3e15 rad/s, plasma gold), z_tilde log-uniform in
[1e-4, 1e3], omega_m/omega_e log-uniform in [1e-8, 1e-2] and rel_tol
1e-6, 1e-8 or 1e-10 with abs_tol 0.  At each it computes every chosen
component of potentials.component, value and slope, for the acceptance
criteria's particle with that omega_m, and again at rel_tol 1e-12.  A
converged result is a candidate when it differs from that reference by
more than its own estimate plus the reference's.  Each candidate is then
checked against mpmath, with the oracle generators beside this script:
make_ground_oracle's double_integral (electric and magnetic) and
static_integral, and make_real_freq_oracle's j_value (excited0).  A
candidate outside its estimate of the mpmath value is confirmed.

Run from the repository root, for example

    python tests/audit_estimates.py --samples 200 --seed 1
    python tests/audit_estimates.py --surfaces drude drude_damped \\
        --components electric magnetic --samples 300

The first part took 17 s for 300 samples of every component on a 2-vCPU
host; an mpmath check takes from under a second (static, excited0) to a
few minutes (a double integral near contact), and --no-confirm skips
them.  It is not part of the tier-1 tests; a
confirmed failure belongs in tests/ground_oracle.json or
tests/real_freq_oracle.json as rows, which tier-1 checks.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import make_ground_oracle as ground  # noqa: E402
import make_real_freq_oracle as real_freq  # noqa: E402
from magcp import Drude, Geometry, Plasma, QuadratureConfig  # noqa: E402
from magcp.acceptance import OMEGA_E, make_particle  # noqa: E402
from magcp.potentials import component  # noqa: E402

SURFACES = ground.SURFACES
COMPONENTS = ("electric", "magnetic", "static", "excited0")
REL_TOLS = (1e-6, 1e-8, 1e-10)
REFERENCE = QuadratureConfig(rel_tol=1e-12, abs_tol=0.0)


def surface_model(name: str):
    params = SURFACES[name]
    return Drude(**params) if "gamma" in params else Plasma(**params)


def mpmath_value(name: str, surface: str, particle, zt: float,
                 deriv: bool) -> float:
    """The component's value from the generators' mpmath integrals, times
    the evaluator's prefactor."""
    p, params = particle, SURFACES[surface]
    if name in ("electric", "magnetic"):
        with mp.workdps(ground.DPS):
            d, _ = ground.double_integral(params, name == "electric", zt,
                                          int(deriv), p.omega_m)
        pref = 3.0 / (8.0 * math.pi)
        if name == "magnetic":
            pref *= p.omega_tilde * p.eta * p.spin
        return pref * float(d)
    if name == "static":
        if "gamma" in params:   # Drude has no static image
            return 0.0
        with mp.workdps(ground.DPS):
            s, _ = ground.static_integral(params, zt, int(deriv))
        return -3.0 / 8.0 * p.eta * p.spin**2 * float(s)
    with mp.workdps(real_freq.PRECISIONS[0]):
        j = real_freq.j_value(real_freq.permittivity(params, p.omega_m),
                              mp.mpf(2.0 * p.omega_tilde * zt), False,
                              int(deriv))
    pref = -3.0 / 16.0 * p.eta * p.spin * (p.spin + 1.0) * p.omega_tilde**3
    if deriv:
        pref *= 2.0 * p.omega_tilde
    return pref * float(j.real)


def draw(rng: random.Random, surfaces):
    return (rng.choice(surfaces), 10.0 ** rng.uniform(-4.0, 3.0),
            10.0 ** rng.uniform(-8.0, -2.0), rng.choice(REL_TOLS))


def audit(samples: int, seed: int, surfaces, components, confirm: bool
          ) -> int:
    """Runs the audit and prints its report; returns the number of
    confirmed failures (candidates, with --no-confirm)."""
    rng = random.Random(seed)
    counts = {"results": 0, "converged": 0, "raised": 0}
    ratios = {name: [] for name in components}
    candidates = []
    start = time.perf_counter()
    for _ in range(samples):
        surface, zt, ratio, rel_tol = draw(rng, surfaces)
        particle = make_particle(omega_m=ratio * OMEGA_E)
        geometry = Geometry(zt / particle.k_e)
        quad = QuadratureConfig(rel_tol=rel_tol, abs_tol=0.0)
        for name in components:
            for deriv in (False, True):
                counts["results"] += 1
                try:
                    value, res = component(name, particle,
                                           surface_model(surface), geometry,
                                           quad, deriv=deriv)
                    ref, ref_res = component(name, particle,
                                             surface_model(surface),
                                             geometry, REFERENCE,
                                             deriv=deriv)
                except Exception as exc:  # reported, never aborts the audit
                    counts["raised"] += 1
                    print(f"raised: {surface} {name} deriv {int(deriv)} "
                          f"z {zt:.4g} w {ratio:.3g} rel_tol {rel_tol:g}: "
                          f"{exc!r}")
                    continue
                if not res.converged:
                    continue
                counts["converged"] += 1
                error = abs(value - ref)
                if error > 0.0:
                    ratios[name].append(res.error_estimate / error)
                if error > res.error_estimate + ref_res.error_estimate:
                    candidates.append((surface, name, deriv, zt, ratio,
                                       rel_tol, particle, value, error,
                                       res.error_estimate))
    print(f"{counts['results']} results in "
          f"{time.perf_counter() - start:.0f} s: {counts['converged']} "
          f"converged, {counts['raised']} raised, {len(candidates)} "
          f"candidates outside estimate + reference estimate")
    for name, values in ratios.items():
        if values:
            print(f"  {name}: estimate/error against rel_tol 1e-12, "
                  f"median {statistics.median(values):.3g}, smallest "
                  f"{min(values):.3g} ({len(values)} results)")
    confirmed = 0
    for (surface, name, deriv, zt, ratio, rel_tol, particle, value, error,
         estimate) in candidates:
        line = (f"candidate: {surface} {name} deriv {int(deriv)} z {zt!r} "
                f"w {ratio!r} rel_tol {rel_tol:g}: error {error:.3g} "
                f"against reference, estimate {estimate:.3g}")
        if not confirm:
            print(line)
            confirmed += 1
            continue
        t0 = time.perf_counter()
        truth = mpmath_value(name, surface, particle, zt, deriv)
        outside = abs(value - truth) > estimate
        confirmed += outside
        print(f"{line}; mpmath error {abs(value - truth):.3g} "
              f"({abs(value / truth - 1.0) if truth else 0.0:.3g} relative,"
              f" {time.perf_counter() - t0:.0f} s): "
              + ("CONFIRMED" if outside else "within its estimate"))
    return confirmed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--surfaces", nargs="+", choices=sorted(SURFACES),
                        default=sorted(SURFACES))
    parser.add_argument("--components", nargs="+", choices=COMPONENTS,
                        default=list(COMPONENTS))
    parser.add_argument("--no-confirm", dest="confirm", action="store_false",
                        help="list the candidates without the mpmath check")
    args = parser.parse_args(argv)
    found = audit(args.samples, args.seed, args.surfaces, args.components,
                  args.confirm)
    print(f"{found} {'confirmed' if args.confirm else 'unconfirmed'} "
          "failures")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
