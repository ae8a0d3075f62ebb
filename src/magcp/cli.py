"""Command-line interface: config ingestion, sweeps, tabular output.

Subcommands: potential | force | equilibrium | threshold | validate.
potential, force and threshold share one loop over the distance grid,
_sweep, and differ only in the row they compute for one distance.
Configuration is a single JSON document; _block reads each of its seven
blocks and refuses one that is not an object or has unknown fields, so
typos fail loudly.  A malformed value is a config error too.  All
numeric output is dimensionless with the unit convention stated in a
header line.  Exit codes: 0 success, 2 config error, 3 no result (e.g.
no equilibrium in the bracket), 4 quadrature non-convergence (partial
output is still written).

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

PARTICLE_KEYS = {"omega_e", "omega_m", "dipole_moment", "dipole_moment_au",
                 "spin", "m_s", "mass_per_spin", "gyro_ratio", "gamma_0",
                 "gamma_0_in_hz"}
# surface.model -> (class, the fields passed to it)
SURFACES = {"perfect_conductor": (PerfectConductor, ()),
            "drude": (Drude, ("omega_p", "gamma")),
            "plasma": (Plasma, ("omega_p",))}


class ConfigError(ValueError):
    pass


def _block(doc: dict, key: str, allowed: set[str]) -> dict:
    """doc[key] ({} when absent), refused unless it is a JSON object whose
    fields are all in allowed."""
    block = doc.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{key} must be a JSON object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {key}; "
                          f"allowed: {sorted(allowed)}")
    return block


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _flag(doc: dict, key: str, default: bool = True) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _build_surface(doc: dict):
    model = _block(doc, "surface", {"model", "omega_p", "gamma"}).get("model")
    if model not in SURFACES:
        raise ConfigError(
            f"surface.model must be perfect_conductor, drude or plasma, "
            f"got {model!r}")
    cls, fields = SURFACES[model]
    block = _block(doc, "surface", {"model", *fields})
    return cls(**{f: block[f] for f in fields})


def _build_grid(doc: dict, particle) -> list[float]:
    if "grid" not in doc:
        return [1.0]
    block = _block(doc, "grid", {"z_tilde", "z0_m", "log"})
    if len(block) != 1:
        raise ConfigError("grid needs exactly one of z_tilde, z0_m, log")
    (kind, spec), = block.items()
    if not isinstance(spec, list):
        raise ConfigError(f"grid.{kind} must be a list, got {spec!r}")
    if kind == "z_tilde":
        grid = [float(z) for z in spec]
    elif kind == "z0_m":
        grid = [float(z) * particle.k_e for z in spec]
    else:
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


def _build_quadrature(doc: dict) -> QuadratureConfig:
    block = _block(doc, "quadrature", {"rel_tol", "abs_tol",
                                       "max_subdivisions", "tail_decades"})
    if not all(map(_is_number, block.values())):
        raise ConfigError(f"quadrature values must be numbers, got {block}")
    defaults = {"rel_tol": float(os.environ.get("MAGCP_QUAD_RTOL", 1e-8))}
    return QuadratureConfig(**{**defaults, **block})


class JobConfig:
    """Validated run configuration assembled from the JSON document.

    A malformed document raises ConfigError, or the KeyError, TypeError or
    ValueError of the constructor that refused a value."""

    TOP_KEYS = {"particle", "surface", "grid", "quadrature", "mode",
                "include_static", "gravity", "environment", "output",
                "equilibrium"}

    def __init__(self, doc: dict):
        # the document itself is checked as the block "config" of a wrapper
        doc = _block({"config": doc}, "config", self.TOP_KEYS)
        for key in ("particle", "surface"):
            if key not in doc:
                raise ConfigError(f"config is missing the {key!r} block")
        particle = _block(doc, "particle", PARTICLE_KEYS)
        _flag(particle, "gamma_0_in_hz", default=False)
        self.particle = build_particle(**particle)
        self.surface = _build_surface(doc)
        self.grid = _build_grid(doc, self.particle)
        self.quad = _build_quadrature(doc)
        self.mode = doc.get("mode", "ground")
        if self.mode not in ("ground", "excited0"):
            raise ConfigError(f"mode must be ground or excited0, "
                              f"got {self.mode!r}")
        self.include_static = _flag(doc, "include_static")
        self.gravity = _flag(doc, "gravity")
        self.environment = EnvironmentSpec(**_block(doc, "environment",
                                                    {"g"}))
        out = _block(doc, "output", {"path", "format", "precision"})
        self.out_path = out.get("path")
        self.out_format = out.get("format", "csv")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, "
                              f"got {self.out_format!r}")
        self.precision = int(out.get("precision", 12))
        if self.precision < 0:
            raise ConfigError(f"output.precision must be >= 0, "
                              f"got {self.precision}")
        bracket = _block(doc, "equilibrium", {"bracket"}).get(
            "bracket", (0.5, 100.0))
        if len(bracket) != 2 or not all(map(_is_number, bracket)):
            raise ConfigError(f"equilibrium.bracket must be two numbers "
                              f"[low, high], got {bracket!r}")
        self.bracket = tuple(bracket)

    @property
    def effective_env(self) -> EnvironmentSpec:
        return self.environment if self.gravity else EnvironmentSpec(g=0.0)


def _fmt(value, precision: int) -> str:
    """A cell as CSV text."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    if isinstance(value, str):
        return value
    return format(float(value), f".{precision}e")


def _json_value(value, precision: int):
    """A cell as a JSON value: numbers carry the digits of the CSV cell."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if value is None or isinstance(value, str):
        return value
    return float(_fmt(value, precision))


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
            "rows": [{c: _json_value(row.get(c), cfg.precision)
                      for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sweep(cfg: JobConfig, columns: list[str], point) -> int:
    """Emit one row per grid distance; point(geometry) returns (row,
    converged), with row a column -> value map that lacks z_tilde.  Every
    row is written; the exit code is 4 when any row did not converge."""
    rows = []
    all_ok = True
    for zt in cfg.grid:
        row, ok = point(Geometry(zt / cfg.particle.k_e))
        rows.append({**row, "z_tilde": zt})
        all_ok = all_ok and ok
    _emit(columns, rows, cfg)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def cmd_potential(cfg: JobConfig) -> int:
    def point(geo):
        bd = potentials.potential_breakdown(
            cfg.particle, cfg.surface, geo, cfg.quad,
            include_excited0=(cfg.mode == "excited0"))
        return vars(bd), bd.converged
    return _sweep(cfg, ["z_tilde", "u_e_minus", "u_m_minus", "u_m_z",
                        "u_m_excited0", "total_ground", "converged"], point)


def cmd_force(cfg: JobConfig) -> int:
    def point(geo):
        fb = mechanics.force_breakdown(
            cfg.particle, cfg.surface, geo, cfg.quad, mode=cfg.mode,
            include_static=cfg.include_static, environment=cfg.effective_env)
        return vars(fb), fb.converged
    return _sweep(cfg, ["z_tilde", "f_e", "f_m_minus", "f_m_z",
                        "f_m_excited0", "f_gravity", "f_total", "f_total_cp",
                        "converged"], point)


def cmd_threshold(cfg: JobConfig) -> int:
    def point(geo):
        th = mechanics.spin_threshold(cfg.particle, cfg.surface, geo,
                                      cfg.quad, environment=cfg.effective_env)
        return {"spin_with_static": th.with_static,
                "spin_without_static": th.without_static}, th.converged
    return _sweep(cfg, ["z_tilde", "spin_with_static", "spin_without_static"],
                  point)


def cmd_equilibrium(cfg: JobConfig) -> int:
    try:
        eq = mechanics.find_equilibrium(
            cfg.particle, cfg.surface, cfg.quad, mode=cfg.mode,
            include_static=cfg.include_static, bracket=cfg.bracket,
            environment=cfg.effective_env)
    except (mechanics.NoEquilibrium, mechanics.BracketError) as exc:
        sys.stderr.write(f"no equilibrium: {exc}\n")
        return EXIT_NO_RESULT
    _emit(["z_tilde_eq", "stable", "residual_force", "method",
           "analytic_estimate"], [vars(eq)], cfg)
    return EXIT_OK if eq.converged else EXIT_NOT_CONVERGED


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
    if not isinstance(doc, dict):
        return doc  # JobConfig refuses it
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

    # every refused value ends here, whichever constructor refused it
    try:
        cfg = JobConfig(_apply_overrides(doc, args))
    except KeyError as exc:
        sys.stderr.write(f"config error: missing field {exc}\n")
        return EXIT_CONFIG
    except (TypeError, ValueError) as exc:
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
