"""Command-line interface: config ingestion, sweeps, tabular output.

Subcommands: potential | force | equilibrium | threshold | validate.
Configuration is a single JSON document; unknown fields are rejected so
typos fail loudly.  All numeric output is dimensionless with the unit
convention stated in a header line.  Exit codes: 0 success, 2 config
error, 3 no result (e.g. no equilibrium in the bracket), 4 quadrature
non-convergence (partial output is still written).

The environment variable MAGCP_QUAD_RTOL overrides the built-in default
relative tolerance; an explicit value in the config wins over both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import asymptotics, mechanics, potentials
from .materials import Drude, PerfectConductor, Plasma
from .params import EnvironmentSpec, Geometry, build_particle
from .quadrature import QuadratureConfig

UNITS_LINE = "U in hbar*Gamma0; F in hbar*Gamma0*k_e; z in 1/k_e"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_RESULT = 3
EXIT_NOT_CONVERGED = 4


class ConfigError(ValueError):
    pass


def _require_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _build_particle(block: dict):
    _require_keys(block, {"omega_e", "omega_m", "dipole_moment",
                          "dipole_moment_au", "spin", "m_s", "mass_per_spin",
                          "gyro_ratio", "gamma_0", "gamma_0_in_hz"},
                  "particle")
    try:
        return build_particle(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"particle block invalid: {exc}") from exc


def _build_surface(block: dict):
    model = block.get("model")
    if model == "perfect_conductor":
        _require_keys(block, {"model"}, "surface")
        return PerfectConductor()
    if model == "drude":
        _require_keys(block, {"model", "omega_p", "gamma"}, "surface")
        try:
            return Drude(omega_p=block["omega_p"], gamma=block["gamma"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"drude surface invalid: {exc}") from exc
    if model == "plasma":
        _require_keys(block, {"model", "omega_p"}, "surface")
        try:
            return Plasma(omega_p=block["omega_p"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"plasma surface invalid: {exc}") from exc
    raise ConfigError(
        f"surface.model must be perfect_conductor, drude or plasma, "
        f"got {model!r}")


def _build_grid(block: dict, particle) -> list[float]:
    _require_keys(block, {"z_tilde", "z0_m", "log"}, "grid")
    if sum(k in block for k in ("z_tilde", "z0_m", "log")) != 1:
        raise ConfigError("grid needs exactly one of z_tilde, z0_m, log")
    if "z_tilde" in block:
        grid = [float(z) for z in block["z_tilde"]]
    elif "z0_m" in block:
        grid = [float(z) * particle.k_e for z in block["z0_m"]]
    else:
        spec = block["log"]
        if len(spec) != 3:
            raise ConfigError("grid.log must be [start, stop, n]")
        start, stop, n = float(spec[0]), float(spec[1]), int(spec[2])
        if n < 1 or start <= 0 or stop < start or (stop == start and n > 1):
            raise ConfigError(f"bad log grid {spec}")
        grid = list(np.logspace(math.log10(start), math.log10(stop), n))
    if not grid:
        raise ConfigError("grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("grid must be strictly increasing")
    if any(z <= 0 for z in grid):
        raise ConfigError("grid values must be positive")
    return grid


def _build_quadrature(block: dict) -> QuadratureConfig:
    _require_keys(block, {"rel_tol", "abs_tol", "max_subdivisions",
                          "tail_decades"}, "quadrature")
    defaults = {"rel_tol": float(os.environ.get("MAGCP_QUAD_RTOL", 1e-8))}
    try:
        return QuadratureConfig(**{**defaults, **block})
    except ValueError as exc:
        raise ConfigError(f"quadrature block invalid: {exc}") from exc


class JobConfig:
    """Validated run configuration assembled from the JSON document."""

    TOP_KEYS = {"particle", "surface", "grid", "quadrature", "mode",
                "include_static", "gravity", "environment", "output",
                "equilibrium"}

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        _require_keys(doc, self.TOP_KEYS, "config")
        for key in ("particle", "surface"):
            if key not in doc:
                raise ConfigError(f"config is missing the {key!r} block")
        self.particle = _build_particle(doc["particle"])
        self.surface = _build_surface(doc["surface"])
        self.grid = _build_grid(doc.get("grid", {"z_tilde": [1.0]}),
                                self.particle)
        self.quad = _build_quadrature(doc.get("quadrature", {}))
        self.mode = doc.get("mode", "ground")
        if self.mode not in ("ground", "excited0"):
            raise ConfigError(f"mode must be ground or excited0, "
                              f"got {self.mode!r}")
        self.include_static = bool(doc.get("include_static", True))
        self.gravity = bool(doc.get("gravity", True))
        env_block = doc.get("environment", {})
        _require_keys(env_block, {"g"}, "environment")
        try:
            self.environment = EnvironmentSpec(**env_block)
        except ValueError as exc:
            raise ConfigError(f"environment block invalid: {exc}") from exc
        out = doc.get("output", {})
        _require_keys(out, {"path", "format", "precision"}, "output")
        self.out_path = out.get("path")
        self.out_format = out.get("format", "csv")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, "
                              f"got {self.out_format!r}")
        self.precision = int(out.get("precision", 12))
        eq = doc.get("equilibrium", {})
        _require_keys(eq, {"bracket"}, "equilibrium")
        self.bracket = tuple(eq.get("bracket", (0.5, 100.0)))

    @property
    def effective_env(self) -> EnvironmentSpec:
        return self.environment if self.gravity else EnvironmentSpec(g=0.0)


def _fmt(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    if isinstance(value, str):
        return value
    return format(float(value), f".{precision}e")


def _emit(columns: list[str], rows: list[dict], cfg: JobConfig) -> None:
    if cfg.out_format == "csv":
        lines = [f"# {UNITS_LINE}", ",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(c), cfg.precision)
                                  for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "units": UNITS_LINE,
            "rows": [{c: (bool(row.get(c))
                          if isinstance(row.get(c), (bool, np.bool_))
                          else row.get(c)
                          if isinstance(row.get(c), (str, type(None)))
                          else float(_fmt(row.get(c), cfg.precision)))
                      for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_potential(cfg: JobConfig) -> int:
    columns = ["z_tilde", "u_e_minus", "u_m_minus", "u_m_z", "u_m_excited0",
               "total_ground", "converged"]
    rows = []
    all_ok = True
    for zt in cfg.grid:
        geo = Geometry(zt / cfg.particle.k_e)
        bd = potentials.potential_breakdown(
            cfg.particle, cfg.surface, geo, cfg.quad,
            include_excited0=(cfg.mode == "excited0"))
        ok = (bd.u_e_converged and bd.u_m_converged and bd.u_m_z_converged
              and bd.u_m_excited0_converged)
        all_ok = all_ok and ok
        rows.append({
            "z_tilde": zt, "u_e_minus": bd.u_e_minus,
            "u_m_minus": bd.u_m_minus, "u_m_z": bd.u_m_z,
            "u_m_excited0": bd.u_m_excited0,
            "total_ground": bd.total_ground, "converged": ok,
        })
    _emit(columns, rows, cfg)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def cmd_force(cfg: JobConfig) -> int:
    columns = ["z_tilde", "f_e", "f_m_minus", "f_m_z", "f_m_excited0",
               "f_gravity", "f_total", "f_total_cp", "converged"]
    rows = []
    all_ok = True
    for zt in cfg.grid:
        geo = Geometry(zt / cfg.particle.k_e)
        fb = mechanics.force_breakdown(
            cfg.particle, cfg.surface, geo, cfg.quad, mode=cfg.mode,
            include_static=cfg.include_static, environment=cfg.effective_env)
        all_ok = all_ok and fb.converged
        rows.append({
            "z_tilde": zt, "f_e": fb.f_e, "f_m_minus": fb.f_m_minus,
            "f_m_z": fb.f_m_z, "f_m_excited0": fb.f_m_excited0,
            "f_gravity": fb.f_gravity, "f_total": fb.f_total,
            "f_total_cp": fb.f_total_cp, "converged": fb.converged,
        })
    _emit(columns, rows, cfg)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def cmd_equilibrium(cfg: JobConfig) -> int:
    try:
        eq = mechanics.find_equilibrium(
            cfg.particle, cfg.surface, cfg.quad, mode=cfg.mode,
            include_static=cfg.include_static, bracket=cfg.bracket,
            environment=cfg.effective_env)
    except (mechanics.NoEquilibrium, mechanics.BracketError) as exc:
        sys.stderr.write(f"no equilibrium: {exc}\n")
        return EXIT_NO_RESULT
    columns = ["z_tilde_eq", "stable", "residual_force", "method",
               "analytic_estimate"]
    _emit(columns, [{
        "z_tilde_eq": eq.z_tilde_eq, "stable": eq.stable,
        "residual_force": eq.residual_force, "method": eq.method,
        "analytic_estimate": eq.analytic_estimate,
    }], cfg)
    return EXIT_OK if eq.converged else EXIT_NOT_CONVERGED


def cmd_threshold(cfg: JobConfig) -> int:
    columns = ["z_tilde", "spin_with_static", "spin_without_static"]
    rows = []
    all_ok = True
    for zt in cfg.grid:
        geo = Geometry(zt / cfg.particle.k_e)
        th = mechanics.spin_threshold(cfg.particle, cfg.surface, geo,
                                      cfg.quad, environment=cfg.effective_env)
        all_ok = all_ok and th.converged
        rows.append({"z_tilde": zt, "spin_with_static": th.with_static,
                     "spin_without_static": th.without_static})
    _emit(columns, rows, cfg)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def cmd_validate(cfg: JobConfig) -> int:
    """Cross-representation and asymptotic oracle checks, printed pass/fail."""
    particle = cfg.particle
    pc = PerfectConductor()
    checks: list[tuple[str, float, float]] = []  # name, deviation, tolerance

    worst = 0.0
    for zt in (0.01, 0.1, 1.0, 10.0, 100.0):
        geo = Geometry(zt / particle.k_e)
        ue, _ = potentials.u_e_ground(particle, pc, geo, cfg.quad,
                                      strict=False)
        uec, _ = potentials.u_e_pc_closed(particle, geo, cfg.quad,
                                          strict=False)
        um, _ = potentials.u_m_ground_broadband(particle, pc, geo, cfg.quad,
                                                strict=False)
        umc, _ = potentials.u_m_pc_closed(particle, geo, cfg.quad,
                                          strict=False)
        worst = max(worst, abs(ue / uec - 1.0), abs(um / umc - 1.0))
    checks.append(("pc closed-form equivalence (max rel dev)", worst, 1e-6))

    zt = 1e-4
    geo = Geometry(zt / particle.k_e)
    ue, _ = potentials.u_e_ground(particle, pc, geo, cfg.quad, strict=False)
    law = asymptotics.table1_potential(particle, pc, geo,
                                       asymptotics.Region.I, "electric")
    checks.append(("pc near-field electric law", abs(ue / law - 1.0), 0.02))

    wzt = 1e-3
    geo = Geometry(wzt / particle.omega_tilde / particle.k_e)
    u0, _ = potentials.u_m_excited0(particle, pc, geo, cfg.quad, strict=False)
    u0c = potentials.u_m0_pc_closed(particle, geo)
    checks.append(("excited-state closed form", abs(u0 / u0c - 1.0), 1e-6))

    ok = True
    for name, dev, tol in checks:
        good = dev < tol
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}  {name}: "
              f"deviation {dev:.3e} (tolerance {tol:g})")
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    if args.grid:
        parts = args.grid.split(":")
        if len(parts) != 4 or parts[0] != "log":
            raise ConfigError(f"--grid must look like log:start:stop:n, "
                              f"got {args.grid!r}")
        doc["grid"] = {"log": [float(parts[1]), float(parts[2]),
                               int(parts[3])]}
    if args.mode:
        doc["mode"] = args.mode
    if args.static:
        doc["include_static"] = args.static == "on"
    if args.gravity:
        doc["gravity"] = args.gravity == "on"
    if args.output:
        doc.setdefault("output", {})["path"] = args.output
    if args.format:
        doc.setdefault("output", {})["format"] = args.format
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="magcp",
        description="Casimir-Polder potentials, forces and spin-repulsion "
                    "thresholds for a magnetic particle above a planar "
                    "surface.")
    parser.add_argument("command",
                        choices=["potential", "force", "equilibrium",
                                 "threshold", "validate"])
    parser.add_argument("--config", required=True,
                        help="path to the JSON job configuration")
    parser.add_argument("--output", help="output file (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"])
    parser.add_argument("--grid", help='override grid, e.g. "log:0.01:100:25"')
    parser.add_argument("--mode", choices=["ground", "excited0"])
    parser.add_argument("--static", choices=["on", "off"])
    parser.add_argument("--gravity", choices=["on", "off"])
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        sys.stderr.write(f"config error: cannot read {args.config}: {exc}\n")
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"config error: {args.config} line {exc.lineno}: "
                         f"{exc.msg}\n")
        return EXIT_CONFIG

    try:
        doc = _apply_overrides(doc, args)
        cfg = JobConfig(doc)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG

    handler = {
        "potential": cmd_potential,
        "force": cmd_force,
        "equilibrium": cmd_equilibrium,
        "threshold": cmd_threshold,
        "validate": cmd_validate,
    }[args.command]
    return handler(cfg)


if __name__ == "__main__":
    sys.exit(main())
