#!/usr/bin/env python3
"""Spin-repulsion threshold versus distance for a chosen surface model.

For each distance the script reports the smallest spin at which the
total ground-state force turns repulsive, with and without the
zero-frequency magnetic image term.

The exit status is 4 when any integral behind a row did not converge,
as for the magcp CLI, and 0 otherwise.

Example:
    python scripts/threshold_vs_distance.py --surface pc \
        --zmin 0.001 --zmax 10 --points 20
"""

import argparse
import contextlib
import csv
import math
import sys

import numpy as np

from magcp import Drude, EnvironmentSpec, Geometry, PerfectConductor, \
    Plasma, QuadratureConfig, build_particle
from magcp.cli import EXIT_NOT_CONVERGED, EXIT_OK
from magcp.mechanics import spin_threshold


def build_surface(args):
    if args.surface == "pc":
        return PerfectConductor()
    if args.surface == "drude":
        return Drude(omega_p=args.omega_p, gamma=args.gamma)
    return Plasma(omega_p=args.omega_p)


def _open_out(path):
    """The CSV destination: stdout for '-', else the file at path."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def main(argv=None):
    """Write the CSV; the exit status is 4 when any row did not converge."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--surface", choices=["pc", "drude", "plasma"],
                    default="pc")
    ap.add_argument("--omega-p", type=float, default=1.36e16)
    ap.add_argument("--gamma", type=float, default=1.0e14)
    ap.add_argument("--zmin", type=float, default=1e-3)
    ap.add_argument("--zmax", type=float, default=10.0)
    ap.add_argument("--points", type=int, default=15)
    ap.add_argument("--no-gravity", action="store_true")
    ap.add_argument("--rel-tol", type=float, default=1e-6)
    ap.add_argument("--out", default="-")
    args = ap.parse_args(argv)

    particle = build_particle(omega_e=2 * math.pi * 1e15,
                              omega_m=2 * math.pi * 1e10,
                              spin=1.0, dipole_moment_au=0.5,
                              gamma_0=1.8e7)
    surface = build_surface(args)
    quad = QuadratureConfig(rel_tol=args.rel_tol)
    env = EnvironmentSpec(g=0.0) if args.no_gravity else EnvironmentSpec()

    grid = np.logspace(math.log10(args.zmin), math.log10(args.zmax),
                       args.points)
    all_ok = True
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["z_tilde", "spin_with_static", "spin_without_static"])
        for zt in grid:
            geo = Geometry(zt / particle.k_e)
            th = spin_threshold(particle, surface, geo, quad, environment=env)
            all_ok = all_ok and th.converged
            writer.writerow([f"{zt:.10e}", f"{th.with_static:.10e}",
                             f"{th.without_static:.10e}"])
    if args.out != "-":
        print(f"wrote {args.points} rows to {args.out}")
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
