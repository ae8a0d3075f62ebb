"""Spans and result taps around magcp's public functions, from outside.

Nothing under src/ is changed: each layer's public function is wrapped by
rebinding its name in the module that calls it (``magcp.potentials``
imports ``fresnel_imag_axis`` by name, so the wrapper goes there).  A span
records its name, start, end, parent span and request id; the request id
is the index of the distance point being computed.  Spans stay in memory
until the run ends.

Two modes share the wrappers:
* the untraced (end-to-end) run installs only the point clock and the
  component result tap: two clock reads per point and one record per
  component call, each of which costs milliseconds or more;
* the traced run adds a span at every layer boundary listed in LAYERS.
"""

from __future__ import annotations

import gzip
import inspect
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

COMPONENTS = ("u_e_ground", "u_m_ground_broadband", "u_m_static",
              "u_m_excited0", "delta_gamma_e", "delta_gamma_m",
              "u_e_pc_closed", "u_m_pc_closed")

# (span name, [(module, attribute)...]) for every traced layer boundary.
LAYERS = (
    ("cli.main", [("cli", "main")]),
    ("potentials.potential_breakdown", [("potentials", "potential_breakdown")]),
    ("potentials.decay_breakdown", [("potentials", "decay_breakdown")]),
    ("mechanics.spin_threshold", [("mechanics", "spin_threshold")]),
    ("mechanics.force_breakdown", [("mechanics", "force_breakdown")]),
    ("quadrature.nested", [("potentials", "integrate_nested")]),
    ("quadrature.semi_infinite", [("potentials", "integrate_semi_infinite"),
                                  ("quadrature", "integrate_semi_infinite")]),
    ("quadrature.finite", [("potentials", "integrate_finite"),
                           ("quadrature", "integrate_finite")]),
    ("materials.fresnel_imag", [("potentials", "fresnel_imag_axis")]),
    ("materials.fresnel_real", [("potentials", "fresnel_real_freq_from_kappa")]),
)
# Layers whose spans carry a point count: the size of the kappa argument.
_POINT_LAYERS = {"materials.fresnel_imag", "materials.fresnel_real"}
# The function that computes one distance point of each CLI workload.
POINT_FUNCTION = {"metal_potential": ("potentials", "potential_breakdown"),
                  "plasma_threshold": ("mechanics", "spin_threshold")}


@dataclass
class ComponentCall:
    request: int | None
    component: str
    surface: str
    z_tilde: float
    deriv: bool
    result: object            # IntegralResult, or None when it raised
    error: str | None

    @property
    def key(self):
        return (self.component, self.surface, self.z_tilde, self.deriv)


def _surface_label(surface) -> str:
    return type(surface).__name__ if surface is not None else "PerfectConductor"


class Tracer:
    """Installs wrappers into magcp modules and collects what they see."""

    def __init__(self, magcp, spans: bool):
        self.magcp = magcp
        self.record_spans = spans
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, request, points]
        self._stack: list[int] = []
        self.request: int | None = None
        self.calls: list[ComponentCall] = []
        self.point_s: dict = defaultdict(float)
        self._grid_index: dict = {}
        self._saved: list = []

    # -- installation -------------------------------------------------
    def _rebind(self, module_name, attr, make):
        module = getattr(self.magcp, module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self, workload_name: str, grid: list[float]) -> "Tracer":
        self._grid_index = {z: i for i, z in enumerate(grid)}
        point = POINT_FUNCTION.get(workload_name)
        if point:
            self._rebind(*point, lambda fn: self._point_wrapper(
                fn, ".".join(point)))
        for comp in COMPONENTS:
            for module in ("potentials", "mechanics"):
                self._rebind(module, comp, lambda fn, c=comp:
                             self._component_wrapper(fn, c))
        if self.record_spans:
            for name, targets in LAYERS:
                for module, attr in targets:
                    if (module, attr) == point:
                        continue  # the point wrapper already records a span
                    self._rebind(module, attr, lambda fn, n=name:
                                 self._span_wrapper(fn, n))
        return self

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- wrappers -----------------------------------------------------
    def _open(self, name, points=0):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self.request, points]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def _span_wrapper(self, fn, name):
        counts_points = name in _POINT_LAYERS

        def wrapper(*args, **kwargs):
            pts = 0
            if counts_points:
                kappa = args[1] if len(args) > 1 else kwargs.get("kappa_perp")
                pts = getattr(kappa, "size", 1)
            rec = self._open(name, pts)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _point_wrapper(self, fn, name):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            zt = bound.arguments["geometry"].z_tilde(bound.arguments["particle"])
            self.request = self._grid_index.get(_grid_z(zt, self._grid_index))
            rec = self._open(name) if self.record_spans else None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.point_s[self.request] += time.perf_counter() - t0
                if rec is not None:
                    self._close(rec)
        return wrapper

    def _component_wrapper(self, fn, component):
        sig = inspect.signature(fn)
        name = "potentials." + component

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            call = ComponentCall(self.request, component,
                                 _surface_label(a.get("surface")),
                                 a["geometry"].z_tilde(a["particle"]),
                                 bool(a.get("deriv", False)), None, None)
            self.calls.append(call)
            rec = self._open(name) if self.record_spans else None
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                call.error = repr(exc)
                raise
            finally:
                if rec is not None:
                    self._close(rec)
            call.result = out[1]
            return out
        return wrapper

    # -- output -------------------------------------------------------
    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, (name, start, end, parent, request, pts) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request": request, "points": pts}))
                fh.write("\n")


def _grid_z(zt, index):
    """The grid value a call's z_tilde came from (k_e*(z/k_e) may differ
    from z in the last bit)."""
    if zt in index:
        return zt
    return min(index, key=lambda z: abs(z - zt)) if index else zt


def span_metrics(spans: list[list]) -> dict:
    """Per-layer calls, inclusive seconds, self seconds and points.

    Self time is a span's duration minus the time its direct children
    cover; with one thread, children nest inside their parent.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "points": 0})
    for sid, (name, start, end, parent, _, pts) in enumerate(spans):
        m = out[name]
        m["calls"] += 1
        m["s"] += (end - start) * 1e-9
        m["self_s"] += (end - start - child_ns[sid]) * 1e-9
        m["points"] += pts
    return out


def inner_calls(spans: list[list]) -> int:
    """integrate_semi_infinite calls made from inside integrate_nested.

    The outer pass of a nested integral is itself a semi-infinite span
    directly below the nested span; every semi-infinite span below that
    outer one is an inner integral.
    """
    count = 0
    for name, _, _, parent, _, _ in spans:
        if name != "quadrature.semi_infinite":
            continue
        seen_semi = False
        while parent >= 0:
            pname = spans[parent][0]
            if pname == "quadrature.semi_infinite":
                seen_semi = True
            elif pname == "quadrature.nested":
                count += seen_semi
                break
            parent = spans[parent][3]
    return count


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
