"""Workload definitions: the distance grids, the job inputs and one sweep.

Every workload is a closed loop with one caller: one distance point after
another, in one process on one thread.  The seed only draws the distance
grid; everything else (particle, surface, tolerances) is fixed here and
passed to magcp explicitly, so no environment variable can change a job.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass

# The README/test particle and gold, as used throughout the test suite.
PARTICLE = {"omega_e": 2.0 * math.pi * 1e15, "omega_m": 2.0 * math.pi * 1e10,
            "dipole_moment_au": 0.5, "spin": 100, "gamma_0": 1.8e7}
DRUDE_GOLD = {"model": "drude", "omega_p": 1.36e16, "gamma": 1e14}
PLASMA_GOLD = {"model": "plasma", "omega_p": 1.36e16}

REL_TOL = 1e-6
# Every QuadratureConfig field is set, so MAGCP_QUAD_RTOL cannot apply.
QUAD = {"rel_tol": REL_TOL, "abs_tol": 1e-12, "max_subdivisions": 200,
        "tail_decades": 6}


@dataclass(frozen=True)
class Workload:
    name: str
    z_range: tuple[float, float]   # z_tilde = k_e * z0, log-uniform
    points: int                    # distance points in one sweep


# Why each workload: see BENCHMARK.json and README.md.  Point counts make
# one sweep take 5-11 s, so that the three or more sweeps a run times
# (measure.MIN_SWEEPS) fit in 30 s.
WORKLOADS = {w.name: w for w in (
    Workload("metal_potential", (1e-3, 1e2), 12),
    Workload("plasma_threshold", (1e-3, 1e2), 4),
    Workload("resonant_decay", (1e-3, 1e3), 120),
)}


def make_grid(workload: Workload, seed: int, points: int | None = None
              ) -> list[float]:
    """Sorted log-uniform distances, one point per equal-width log stratum.

    The seed draws one offset u in [0, 1).  The point in stratum i sits at
    u of the way through it for even i and at 1 - u for odd i, so each
    point is log-uniform within its stratum while neighbouring strata
    mirror each other.  A sweep's cost changes with a point's position
    mostly linearly, and the mirrored pairs cancel that change, so the
    sweep's cost hardly depends on the seed.
    """
    n = points or workload.points
    u = random.Random(f"{workload.name}:{seed}").random()
    lo, hi = (math.log10(v) for v in workload.z_range)
    return [10.0 ** (lo + (hi - lo) * (i + (1.0 - u if i % 2 else u)) / n)
            for i in range(n)]


def job_config(workload: Workload, grid: list[float],
               quad: dict | None = None) -> dict:
    """The JSON job document for a CLI workload."""
    surface = {"metal_potential": DRUDE_GOLD,
               "plasma_threshold": PLASMA_GOLD}[workload.name]
    return {
        "particle": dict(PARTICLE),
        "surface": dict(surface),
        "grid": {"z_tilde": list(grid)},
        "quadrature": dict(quad or QUAD),
        "output": {"format": "csv", "precision": 12},
    }


CLI_COMMAND = {"metal_potential": "potential",
               "plasma_threshold": "threshold"}
CLI_COLUMNS = {"metal_potential": ("u_e_minus", "u_m_minus", "u_m_z",
                                   "total_ground"),
               "plasma_threshold": ("spin_with_static",
                                    "spin_without_static")}


@dataclass
class SweepResult:
    """Outputs of one sweep, keyed (point index, output name)."""
    values: dict
    exit_code: int | None      # CLI exit code, None for library sweeps
    output_bytes: int
    errors: list               # (point index or None, repr of exception)
    point_s: dict              # point index -> wall seconds (library)


def _parse_csv(text: str, columns: tuple[str, ...]) -> dict:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return {}
    header = lines[0].split(",")
    values = {}
    for i, line in enumerate(lines[1:]):
        row = dict(zip(header, line.split(",")))
        for col in columns:
            if row.get(col, "") != "":
                values[(i, col)] = float(row[col])
    return values


def run_cli_sweep(magcp, workload: Workload, config_path: str
                  ) -> SweepResult:
    """One `magcp <command> --config` job in process; stdout is captured."""
    out, err = io.StringIO(), io.StringIO()
    errors = []
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = magcp.cli.main([CLI_COMMAND[workload.name],
                                   "--config", config_path])
        except Exception as exc:  # counted as failed, never aborts the run
            errors.append((None, repr(exc)))
    text = out.getvalue()
    return SweepResult(_parse_csv(text, CLI_COLUMNS[workload.name]),
                       code, len(text.encode()), errors, {})


def _decay_calls(magcp, particle, geo, quad):
    """(output name, thunk) pairs for one resonant_decay distance point."""
    pot, mech = magcp.potentials, magcp.mechanics
    drude = magcp.Drude(DRUDE_GOLD["omega_p"], DRUDE_GOLD["gamma"])
    plasma = magcp.Plasma(PLASMA_GOLD["omega_p"])
    pc = magcp.PerfectConductor()
    calls = []
    for label, surf in (("drude", drude), ("plasma", plasma)):
        calls.append((label + ".decay", lambda s=surf: pot.decay_breakdown(
            particle, s, geo, quad, m_s=0)))
        calls.append((label + ".u_m_excited0", lambda s=surf: pot.u_m_excited0(
            particle, s, geo, quad, strict=False)))
        calls.append((label + ".du_m_excited0", lambda s=surf: pot.u_m_excited0(
            particle, s, geo, quad, deriv=True, strict=False)))
    calls.append(("pc.ground", lambda: mech.force_breakdown(
        particle, pc, geo, quad, mode="ground")))
    calls.append(("pc.excited0", lambda: mech.force_breakdown(
        particle, pc, geo, quad, mode="excited0")))
    return calls


def _decay_outputs(name: str, result) -> dict:
    if name.endswith(".decay"):
        return {name + ".delta_gamma_e": result.delta_gamma_e,
                name + ".delta_gamma_m": result.delta_gamma_m}
    if name.endswith("u_m_excited0"):
        return {name: result[0]}
    if name == "pc.ground":
        return {f"{name}.{f}": getattr(result, f)
                for f in ("f_e", "f_m_minus", "f_m_z", "f_total")}
    return {f"{name}.{f}": getattr(result, f)
            for f in ("f_m_excited0", "f_total")}


def run_library_sweep(magcp, grid: list[float], quad, tracer=None
                      ) -> SweepResult:
    """resonant_decay: library calls, one distance point after another."""
    particle = magcp.build_particle(**PARTICLE)
    values, errors, point_s = {}, [], {}
    for i, zt in enumerate(grid):
        geo = magcp.Geometry(zt / particle.k_e)
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        for name, thunk in _decay_calls(magcp, particle, geo, quad):
            try:
                result = thunk()
            except Exception as exc:  # counted as failed
                errors.append((i, repr(exc)))
                continue
            for key, val in _decay_outputs(name, result).items():
                values[(i, key)] = float(val)
        point_s[i] = time.perf_counter() - t0
    return SweepResult(values, None, 0, errors, point_s)


def write_job(path: str, workload: Workload, grid: list[float],
              quad: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(job_config(workload, grid, quad), fh)
