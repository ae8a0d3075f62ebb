"""Reference values for a workload grid, from an independent quadrature.

The reference runs the same magcp calls as the measured sweep (the same
integrands, prefactors and output code) with magcp's three adaptive
integrators replaced by fixed composite Gauss-Legendre rules on panels
graded geometrically toward the lower limit, the breakpoints and the
decay scale that magcp passes to them.  A rule of order 16 gives the
reference value; a second pass at order 10 gives its check: a value is
verified when the two agree to VERIFY_TOL, and reported as unverified
otherwise.  The job's own tolerance block is tightened to rel_tol 1e-11
with more subdivisions and tail decades, for any integration that does
not go through the replaced names.

magcp's own quadrature at rel_tol 1e-11 is not used: the Drude broadband
shift costs 1-2 s per call there and still reports converged=False at
z = 0.1, while these rules take about 0.1 s per nested integral.

Run as a script, it computes the reference for one grid and writes JSON:
    python3 perfbench/reference.py --workload NAME --grid-file G --out R
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

import workloads as wl
from tracing import Tracer

VERIFY_TOL = 1e-8   # a hundredth of the benchmark tolerance
ORDERS = (16, 10)
REF_QUAD = {"rel_tol": 1e-11, "abs_tol": 0.0, "max_subdivisions": 2000,
            "tail_decades": 8}
_GL = {n: np.polynomial.legendre.leggauss(n) for n in ORDERS}
_GRADING = 30          # levels of 2x refinement toward ends and breakpoints


def _rule(f, edges, n):
    """Composite Gauss-Legendre of order n over sorted panel edges."""
    nodes, weights = _GL[n]
    e = np.asarray(edges, dtype=float)
    half = 0.5 * (e[1:] - e[:-1])
    mid = 0.5 * (e[1:] + e[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    y = np.asarray(f(x)).reshape(len(half), n)
    total = np.sum(half[:, None] * weights[None, :] * y)
    return total, x.size


def _graded(points, lo, hi, levels):
    """Edges graded by factors of 2 toward each point, within [lo, hi]."""
    out = set()
    for p in points:
        scale = abs(p) if p != 0 else hi - lo
        for k in range(1, levels + 1):
            for q in (p - scale * 2.0**-k, p + scale * 2.0**-k):
                if lo < q < hi:
                    out.add(q)
    return out


def _semi_edges(a, s, splits, grade_splits):
    rel = [s * 2.0**k for k in range(-40, 1)]
    rel += [s * 2.0**(k / 2) for k in range(1, 15)]   # to 128 decay scales
    edges = {a} | {a + r for r in rel}
    inside = [p for p in splits if p > a]
    edges |= set(inside)
    if grade_splits:
        edges |= _graded(inside, a, a + rel[-1], _GRADING)
    return sorted(edges)


def _value(total):
    if np.iscomplexobj(total):
        return complex(total)
    return float(total)


class ReferenceRules:
    """Drop-in replacements for integrate_finite/semi_infinite/nested."""

    def __init__(self, magcp, order: int):
        self.magcp = magcp
        self.n = order
        self._memo = {}

    def _result(self, total, evals):
        value = _value(total)
        ok = bool(np.isfinite(total))
        return self.magcp.quadrature.IntegralResult(value, 0.0, evals, ok)

    def _semi(self, f, a, s, splits, grade):
        with np.errstate(all="ignore"):
            return _rule(f, _semi_edges(a, s, splits, grade), self.n)

    def integrate_semi_infinite(self, f, lower_limit, config, tail_scale=None):
        a = float(lower_limit)
        s = float(tail_scale) if tail_scale is not None else max(1.0, abs(a))
        return self._result(*self._semi(f, a, s, config.split_points or (),
                                        True))

    def integrate_finite(self, f, a, b, config, breakpoints=(),
                         max_panel_width=None):
        pts = sorted({a, b} | {p for p in breakpoints if a < p < b})
        edges = set(pts) | _graded(pts, a, b, _GRADING)
        edges = sorted(edges)
        if max_panel_width:
            fine = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                k = max(1, math.ceil((hi - lo) / max_panel_width))
                fine.extend(np.linspace(lo, hi, k + 1)[:-1])
            edges = fine + [b]
        with np.errstate(all="ignore"):
            return self._result(*_rule(f, edges, self.n))

    def integrate_nested(self, inner_f, outer_lower, inner_lower, config,
                         outer_tail_scale=None, inner_tail_scale=None):
        key = _fingerprint((inner_f, outer_lower, inner_lower,
                            config.split_points, outer_tail_scale,
                            inner_tail_scale))
        if key is not None and key in self._memo:
            return self._memo[key]
        lower = inner_lower if callable(inner_lower) else \
            (lambda x: float(inner_lower))
        scale = inner_tail_scale if callable(inner_tail_scale) else \
            (lambda x: inner_tail_scale)
        evals = 0

        def outer(xs):
            nonlocal evals
            vals = []
            for x in xs:
                a = float(lower(x))
                s = scale(x)
                s = float(s) if s is not None else max(1.0, abs(a))
                v, m = self._semi(lambda y: inner_f(x, y), a, s, (), False)
                evals += m
                vals.append(v)
            return np.asarray(vals)

        a = float(outer_lower)
        s = float(outer_tail_scale) if outer_tail_scale else max(1.0, abs(a))
        total, m = self._semi(outer, a, s, config.split_points or (), False)
        res = self._result(total, evals + m)
        if key is not None:
            self._memo[key] = res
        return res

    def install(self):
        """Rebind the integrators where magcp looks them up; returns undo."""
        saved = []
        for module in (self.magcp.potentials, self.magcp.quadrature):
            for name in ("integrate_finite", "integrate_semi_infinite",
                         "integrate_nested"):
                if hasattr(module, name):
                    saved.append((module, name, getattr(module, name)))
                    setattr(module, name, getattr(self, name))

        def undo():
            for module, name, fn in saved:
                setattr(module, name, fn)
        return undo


def _fingerprint(obj):
    """Hashable identity of a closure: its code plus captured values.

    Two closures with the same code and equal captured values compute the
    same integrand, so a threshold's repeated integrals are done once.
    Returns None when something captured is not hashable.
    """
    def fp(o):
        if hasattr(o, "__code__"):
            cells = o.__closure__ or ()
            return (o.__code__, tuple(fp(c.cell_contents) for c in cells))
        if isinstance(o, tuple):
            return tuple(fp(x) for x in o)
        hash(o)
        return o
    try:
        return fp(obj)
    except (TypeError, ValueError):
        return None


def agree(a: float, b: float, tol: float = VERIFY_TOL) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _one_pass(magcp, workload, grid, order, workdir):
    rules = ReferenceRules(magcp, order)
    undo = rules.install()
    tracer = Tracer(magcp, spans=False).install(workload.name, grid)
    try:
        if workload.name in wl.CLI_COMMAND:
            path = os.path.join(workdir, f"reference-job-{order}.json")
            wl.write_job(path, workload, grid, REF_QUAD)
            sweep = wl.run_cli_sweep(magcp, workload, path)
        else:
            quad = magcp.QuadratureConfig(**REF_QUAD)
            sweep = wl.run_library_sweep(magcp, grid, quad, tracer)
    finally:
        tracer.restore()
        undo()
    raw = {}
    for call in tracer.calls:
        if call.result is not None and call.key not in raw:
            raw[call.key] = complex(call.result.value)
    return sweep, raw


def pc_crosscheck(magcp, zs, quad) -> float:
    """Worst relative gap between the generic and the closed perfect-
    conductor representations: u_e_ground vs u_e_pc_closed,
    u_m_ground_broadband vs u_m_pc_closed, u_m_excited0 vs u_m0_pc_closed.
    """
    pot = magcp.potentials
    particle = magcp.build_particle(**wl.PARTICLE)
    pc = magcp.PerfectConductor()
    worst = 0.0
    for zt in zs:
        geo = magcp.Geometry(zt / particle.k_e)
        pairs = (
            (pot.u_e_ground(particle, pc, geo, quad, strict=False)[0],
             pot.u_e_pc_closed(particle, geo, quad, strict=False)[0]),
            (pot.u_m_ground_broadband(particle, pc, geo, quad, strict=False)[0],
             pot.u_m_pc_closed(particle, geo, quad, strict=False)[0]),
            (pot.u_m_excited0(particle, pc, geo, quad, strict=False)[0],
             pot.u_m0_pc_closed(particle, geo)),
        )
        worst = max([worst] + [abs(a / b - 1.0) for a, b in pairs])
    return worst


def compute(magcp, workload, grid, workdir) -> dict:
    """Reference outputs and component integrals, with their checks."""
    t0 = time.perf_counter()
    hi, raw_hi = _one_pass(magcp, workload, grid, ORDERS[0], workdir)
    lo, raw_lo = _one_pass(magcp, workload, grid, ORDERS[1], workdir)
    undo = ReferenceRules(magcp, ORDERS[0]).install()
    try:
        cross = pc_crosscheck(magcp, [grid[0], grid[-1]],
                              magcp.QuadratureConfig(**REF_QUAD))
    finally:
        undo()
    outputs = []
    for key, value in sorted(hi.values.items()):
        other = lo.values.get(key, math.nan)
        outputs.append([key[0], key[1], value, agree(value, other)])
    components = []
    for key, value in raw_hi.items():
        other = raw_lo.get(key, complex(math.nan))
        ok = agree(value.real, other.real) and agree(value.imag, other.imag)
        components.append([*key, value.real, value.imag, ok])
    return {
        "outputs": outputs,
        "components": components,
        "errors": hi.errors + lo.errors,
        "pc_crosscheck_max_rel": cross,
        "pc_crosscheck_ok": cross <= VERIFY_TOL,
        "seconds": time.perf_counter() - t0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--grid-file", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    import magcp
    import magcp.cli  # noqa: F401  (the CLI module is not imported by magcp)
    with open(args.grid_file) as fh:
        grid = json.load(fh)
    ref = compute(magcp, wl.WORKLOADS[args.workload], grid,
                  os.path.dirname(os.path.abspath(args.out)))
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ref, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
