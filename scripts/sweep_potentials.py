#!/usr/bin/env python3
"""Sweep the dimensionless potentials and forces over a distance grid.

Writes one CSV row per distance with the ground-state components, the
total, and the force breakdown.  Distances, potentials and forces are in
the package units (z in 1/k_e, U in hbar*Gamma0, F in hbar*Gamma0*k_e).

The exit status is 4 when any integral behind a row did not converge,
as for the magcp CLI, and 0 otherwise.

Example:
    python scripts/sweep_potentials.py --surface drude --spin 100 \
        --zmin 0.1 --zmax 100 --points 40 --out sweep.csv
"""

import argparse
import contextlib
import csv
import math
import sys

import numpy as np

from magcp import Drude, Geometry, PerfectConductor, Plasma, \
    QuadratureConfig, build_particle
from magcp.cli import EXIT_NOT_CONVERGED, EXIT_OK
from magcp.mechanics import force_breakdown
from magcp.potentials import potential_breakdown


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
    ap.add_argument("--omega-p", type=float, default=1.36e16,
                    help="plasma frequency in rad/s (gold default)")
    ap.add_argument("--gamma", type=float, default=1.0e14,
                    help="Drude relaxation rate in rad/s (gold default)")
    ap.add_argument("--spin", type=float, default=100.0)
    ap.add_argument("--zmin", type=float, default=0.1)
    ap.add_argument("--zmax", type=float, default=100.0)
    ap.add_argument("--points", type=int, default=30)
    ap.add_argument("--rel-tol", type=float, default=1e-6)
    ap.add_argument("--out", default="-", help="output CSV ('-' = stdout)")
    args = ap.parse_args(argv)

    particle = build_particle(omega_e=2 * math.pi * 1e15,
                              omega_m=2 * math.pi * 1e10,
                              spin=args.spin, dipole_moment_au=0.5,
                              gamma_0=1.8e7)
    surface = build_surface(args)
    quad = QuadratureConfig(rel_tol=args.rel_tol)

    grid = np.logspace(math.log10(args.zmin), math.log10(args.zmax),
                       args.points)
    all_ok = True
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["z_tilde", "u_e", "u_m_broadband", "u_m_static",
                         "u_total", "f_e", "f_m_broadband", "f_m_static",
                         "f_gravity", "f_total"])
        for zt in grid:
            geo = Geometry(zt / particle.k_e)
            pb = potential_breakdown(particle, surface, geo, quad)
            fb = force_breakdown(particle, surface, geo, quad)
            all_ok = (all_ok and pb.u_e_converged and pb.u_m_converged
                      and pb.u_m_z_converged and fb.converged)
            writer.writerow([f"{x:.10e}" for x in
                             (zt, pb.u_e_minus, pb.u_m_minus, pb.u_m_z,
                              pb.total_ground, fb.f_e, fb.f_m_minus, fb.f_m_z,
                              fb.f_gravity, fb.f_total)])
    if args.out != "-":
        print(f"wrote {args.points} rows to {args.out}")
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
