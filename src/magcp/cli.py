"""Command-line interface: config ingestion, sweeps, tabular output.

Subcommands: potential | force | equilibrium | threshold | validate.
potential, force and threshold share one loop over the distance grid,
_sweep, and differ only in the row they compute for one distance.
validate writes the rows of the paper's acceptance criteria
(magcp.acceptance, imported only then), which run on fixed inputs: of
the job it reads only the output settings.
Configuration is a single JSON document.  FIELDS types its fields, and
a block that feeds a library constructor takes them from the
constructor's annotations; _block refuses an unknown field or a value of
the wrong JSON type, and _build a missing required one, naming it by its
dotted path (surface.omega_p).
All numeric output is dimensionless with the unit convention stated in a
header line.  Exit codes: 0 success, 2 config error, 3 no result (e.g.
no equilibrium in the bracket), 4 quadrature non-convergence, or a
failed check in validate (partial output is still written).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import mechanics, potentials
from .materials import Drude, PerfectConductor, Plasma
from .params import EnvironmentSpec, Geometry, build_particle
from .quadrature import QuadratureConfig

UNITS_LINE = "U in hbar*Gamma0; F in hbar*Gamma0*k_e; z in 1/k_e"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_RESULT = 3
EXIT_NOT_CONVERGED = 4


def _fields(obj, *drop: str) -> dict:
    """name -> type of a function's parameters or a dataclass's fields."""
    return {name: hint for name, hint in get_type_hints(obj).items()
            if name not in ("return", *drop)}


SURFACES = {"perfect_conductor": PerfectConductor, "drude": Drude,
            "plasma": Plasma}
# Each config field and its type; a dict is a block of fields.  surface
# takes every model's fields until its model is known.
FIELDS = {
    "particle": _fields(build_particle),
    "surface": {"model": Literal[tuple(SURFACES)],
                **{name: hint for cls in SURFACES.values()
                   for name, hint in _fields(cls).items()}},
    "environment": _fields(EnvironmentSpec),
    # potentials sets split_points per integral
    "quadrature": _fields(QuadratureConfig, "split_points"),
    "grid": {"z_tilde": list[float], "z0_m": list[float],
             "log": tuple[float, float, int]},
    "output": {"path": str | None, "format": Literal["csv", "json"],
               "precision": int},
    "equilibrium": {"bracket": tuple[float, float]},
    "mode": Literal["ground", "excited0"],
    "include_static": bool,
    "gravity": bool,
}


class ConfigError(ValueError):
    pass


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type hint: a float takes any finite
    number, an int only an integer, and neither takes true or false."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        return value in args
    if origin in (Union, UnionType):
        return any(_fits(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0])
                                               for v in value)
    if origin is tuple:
        return (isinstance(value, list) and len(value) == len(args)
                and all(map(_fits, value, args)))
    if hint is float:  # json reads NaN and Infinity as floats
        return isinstance(value, int) or (isinstance(value, float)
                                          and math.isfinite(value))
    return isinstance(value, hint)


def _block(block, path: str, fields: dict) -> dict:
    """block, refused unless it is a JSON object whose fields are all in
    fields, each holding a value of its type (a dict of fields is a
    nested block).  path is the block's dotted path, "" for the document."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object, "
                          f"got {block!r}")
    for name, value in block.items():
        field, hint = f"{path}.{name}".lstrip("."), fields.get(name)
        if hint is None:
            raise ConfigError(f"unknown field {field}")
        if isinstance(hint, dict):
            _block(value, field, hint)
        elif not _fits(value, hint):
            expected = hint.__name__ if get_origin(hint) is None \
                else str(hint).replace("typing.", "")
            raise ConfigError(f"{field} must be {expected}, got {value!r}")
    return block


def _build(build, block: dict, path: str):
    """build(**block), refused first if block lacks a parameter that
    build's signature requires, naming it by its dotted path."""
    for name, param in inspect.signature(build).parameters.items():
        if param.default is param.empty and name not in block:
            raise ConfigError(f"{path}.{name} is missing")
    return build(**block)


def _build_surface(block: dict):
    """The model a checked surface block names, built from its fields."""
    if "model" not in block:
        raise ConfigError(f"surface.model is missing: one of "
                          f"{sorted(SURFACES)}")
    cls = SURFACES[block["model"]]
    _block(block, "surface", {"model": str, **_fields(cls)})
    return _build(cls, {k: v for k, v in block.items() if k != "model"},
                  "surface")


def _build_grid(block: dict | None, particle) -> list[float]:
    if block is None:
        return [1.0]
    if len(block) != 1:
        raise ConfigError(f"grid needs exactly one of "
                          f"{', '.join(FIELDS['grid'])}")
    (kind, spec), = block.items()
    points = spec
    if kind == "log":
        start, stop, n = spec
        if min(start, stop, n) <= 0:
            raise ConfigError(f"grid.log needs start, stop and n > 0, "
                              f"got {spec}")
        points = np.logspace(math.log10(start), math.log10(stop), n)
    grid = [z * particle.k_e if kind == "z0_m" else z for z in points]
    if not grid or grid[0] <= 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"grid.{kind} must be positive and strictly "
                          f"increasing, got {spec}")
    return grid


class JobConfig:
    """Validated run configuration assembled from the JSON document.

    A malformed document raises ConfigError, which names the field, or the
    TypeError or ValueError of the library constructor that refused a
    value of the right type."""

    def __init__(self, doc: dict):
        doc = _block(doc, "", FIELDS)
        for key in ("particle", "surface"):
            if key not in doc:
                raise ConfigError(f"config is missing the {key!r} block")
        self.particle = _build(build_particle, doc["particle"], "particle")
        self.surface = _build_surface(doc["surface"])
        self.grid = _build_grid(doc.get("grid"), self.particle)
        self.quad = QuadratureConfig(**doc.get("quadrature", {}))
        self.mode = doc.get("mode", "ground")
        self.include_static = doc.get("include_static", True)
        self.gravity = doc.get("gravity", True)
        self.environment = EnvironmentSpec(**doc.get("environment", {}))
        out = doc.get("output", {})
        self.out_path = out.get("path")
        self.out_format = out.get("format", "csv")
        self.precision = out.get("precision", 12)
        if self.precision < 0:
            raise ConfigError(f"output.precision must be >= 0, "
                              f"got {self.precision}")
        self.bracket = tuple(doc.get("equilibrium", {}).get(
            "bracket", (0.5, 100.0)))

    @property
    def effective_env(self) -> EnvironmentSpec:
        return self.environment if self.gravity else EnvironmentSpec(g=0.0)


def _fmt(value, precision: int) -> str:
    """A cell as CSV text; text holding a comma, quote or line break is
    quoted, its quotes doubled (RFC 4180)."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    if isinstance(value, str):
        if any(ch in value for ch in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return format(float(value), f".{precision}e")


def _json_value(value, precision: int):
    """A cell as a JSON value: numbers carry the digits of the CSV cell,
    and a non-finite one is null, since JSON has no inf or nan."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if value is None or isinstance(value, str):
        return value
    number = float(_fmt(value, precision))
    return number if math.isfinite(number) else None


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
        text = json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
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
            include_excited0=(cfg.mode == "excited0"),
            include_static=cfg.include_static)
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
    if cfg.mode != "ground":
        sys.stderr.write(f"config error: mode: threshold solves for the "
                         f"ground state only, got {cfg.mode!r}\n")
        return EXIT_CONFIG
    if not cfg.include_static:
        sys.stderr.write("config error: include_static: threshold always "
                         "reports the spins with and without the static "
                         "term, got false\n")
        return EXIT_CONFIG

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
    except mechanics.BracketError as exc:
        sys.stderr.write(f"config error: equilibrium.bracket: {exc}\n")
        return EXIT_CONFIG
    except mechanics.NoEquilibrium as exc:
        sys.stderr.write(f"no equilibrium: {exc}\n")
        return EXIT_NO_RESULT
    _emit(["z_tilde_eq", "stable", "residual_force", "method",
           "analytic_estimate"], [vars(eq)], cfg)
    return EXIT_OK if eq.converged else EXIT_NOT_CONVERGED


def cmd_validate(cfg: JobConfig) -> int:
    """Rows of the paper's acceptance criteria; only cfg's output counts."""
    from .acceptance import COLUMNS, CRITERIA
    rows = [row for criterion in CRITERIA for row in criterion()]
    _emit(COLUMNS, rows, cfg)
    return EXIT_OK if all(row["passed"] for row in rows) \
        else EXIT_NOT_CONVERGED


COMMANDS = {"potential": cmd_potential, "force": cmd_force,
            "equilibrium": cmd_equilibrium, "threshold": cmd_threshold,
            "validate": cmd_validate}


def _apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    if not isinstance(doc, dict):
        return doc  # JobConfig refuses it
    if args.grid:
        try:  # the one place that parses numbers: the flag is text
            kind, start, stop, n = args.grid.split(":")
            if kind != "log":
                raise ValueError(kind)
            doc["grid"] = {"log": [float(start), float(stop), int(n)]}
        except ValueError:
            raise ConfigError(f"--grid must look like log:start:stop:n "
                              f"with an integer n, got {args.grid!r}"
                              ) from None
    if args.mode:
        doc["mode"] = args.mode
    if args.static:
        doc["include_static"] = args.static == "on"
    if args.gravity:
        doc["gravity"] = args.gravity == "on"
    for field, value in (("path", args.output), ("format", args.format)):
        if value and isinstance(doc.get("output", {}), dict):
            doc.setdefault("output", {})[field] = value
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="magcp",
        description="Casimir-Polder potentials, forces and spin-repulsion "
                    "thresholds for a magnetic particle above a planar "
                    "surface.")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True,
                        help="path to the JSON job configuration")
    parser.add_argument("--output", help="output file (default stdout)")
    parser.add_argument("--format",
                        choices=get_args(FIELDS["output"]["format"]))
    parser.add_argument("--grid", help='override grid, e.g. "log:0.01:100:25"')
    parser.add_argument("--mode", choices=get_args(FIELDS["mode"]))
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
    except (TypeError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG

    return COMMANDS[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
