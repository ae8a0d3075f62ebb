"""Adaptive Gauss-Kronrod quadrature for finite, semi-infinite and
nested integrals.

All integrals are rows of one deterministic adaptive core on panel
arrays, ``_adaptive_rows``: a G7-K15 rule on all initial panels in one
integrand call, then on the two halves of the worst panel of every
unconverged row in one call per bisection step, each row taking the
panel decisions it would take alone.  Sums run over panels sorted by
position, so results are bit-stable.  Integrals over [a, inf) are rows
of ``_semi_infinite_rows``, one map and one tail bound for all: a lone
integral is one row, the inner integrals of a nested call many rows that
map their shared initial grid once and take their tail nodes in their
first call.  A nested integral's inner errors ride with its outer
panels as a carried sum that steers no bisection, so its bound weighs
each by the outer rule.  Slot arrays start with room for a few
bisections and double when full.  Integrands get a 1-d numpy array of
abscissae, the 15 nodes of each panel side by side, and return values
of that shape (real or complex), each depending only on its own
abscissa.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

try:  # numpy >= 2
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum

# K15 abscissae (positive half) and weights; G7 shares every other node.
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 nodes ascending
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])

# QUADPACK's round-off floor on a panel's error, 50*eps*resabs, applies
# where resabs exceeds tiny/(50*eps)
_TINY = np.finfo(float).tiny
_EPS50 = 50.0 * np.finfo(float).eps
_RESABS_FLOOR = _TINY / _EPS50

# bisections the slot arrays of _adaptive_rows first make room for
_FIRST_BISECTIONS = 8

# The inner rows of integrate_nested start from a ratio-4 grading through
# their tail scale s, at offsets d = s*4^k above the lower limit for
# k = -2..2: in t = d/(s + d) these edges are 1/17, 1/5, 1/2, 4/5 and
# 16/17 in every row, so the six initial panels span the row's e^(-d/s)
# envelope and bisections are not spent reaching it.
_INNER_T_EDGES = tuple(4.0**k / (1.0 + 4.0**k) for k in range(-2, 3))


class QuadratureError(Exception):
    pass


class NonFiniteIntegrand(QuadratureError):
    """Integrand returned nan/inf; message carries the abscissa."""


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    tail_decades: int = 6
    split_points: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not 0 < self.rel_tol < math.inf:
            raise ValueError(
                f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not 0 <= self.abs_tol < math.inf:
            raise ValueError(
                f"abs_tol must be finite and >= 0, got {self.abs_tol}")
        # from 16 decades on the tail cut t = span/(1 + span) rounds to 1.0
        for name, low, high in (("max_subdivisions", 10, math.inf),
                                ("tail_decades", 1, 15)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, np.integer)):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if not low <= value <= high:
                raise ValueError(
                    f"{name} must be from {low} to {high}, got {value}")


# slotted: callers may keep results by the thousand, and without a
# __dict__ a result takes 64 bytes where it took about 105
@dataclass(frozen=True, slots=True)
class IntegralResult:
    value: complex | float
    error_estimate: float
    evaluations: int
    converged: bool
    level: str = field(default="")  # set by nested integration on failure

    def __add__(self, other: "IntegralResult") -> "IntegralResult":
        return IntegralResult(
            value=self.value + other.value,
            error_estimate=self.error_estimate + other.error_estimate,
            evaluations=self.evaluations + other.evaluations,
            converged=self.converged and other.converged,
        )


def _rule(y, w):
    """The weighted sum of y over its last, 15-node axis, taken by
    einsum's C core (what np.einsum calls without its optimize option):
    in the same order for every row whatever the batch, where a BLAS
    product may change a row's last bit with the batch's size."""
    return c_einsum("...k,k->...", y, w)


def _panels(g, lo, hi):
    """G7/K15 estimates, QUADPACK-style error bounds and carried errors of
    every panel [lo, hi] of shape (n, p), with one call of ``g``.

    ``g`` gets the abscissae as an (n, 15*p) array, each row the 15 nodes
    of its panels side by side, and returns values of that shape, or of
    any number of rows for panels of shape (1, p), which they share.  It
    may instead return a pair (values, e) with e >= 0 of the same shape,
    an error carried by each value: then the third result is e's K15 sum
    on each panel, which no error bound sees, and otherwise None.
    """
    width = hi - lo
    half = 0.5 * width
    x = (0.5 * (lo + hi))[..., None] + half[..., None] * _NODES
    y = g(x.reshape(len(x), -1))
    y, carried = y if isinstance(y, tuple) else (y, None)
    y = np.asarray(y).reshape(-1, *x.shape[1:])
    size = np.abs(y).astype(float, copy=False)
    resabs = half * _rule(size, _WEIGHTS_K)
    # a non-finite value makes its panel's resabs non-finite; a finite
    # resabs proves every value finite without a pass over all of y
    if not np.isfinite(resabs).all():
        finite = np.isfinite(y)
        if not finite.all():
            bad = np.broadcast_to(x, y.shape)[~finite][0]
            raise NonFiniteIntegrand(f"integrand non-finite at x = {bad!r}")
    k15 = half * _rule(y, _WEIGHTS_K)
    g7 = half * _rule(y, _WEIGHTS_G)
    mean = k15 / width
    # |y - mean| in the buffer of |y|, where a complex y - mean needs its own
    dev = np.subtract(y, mean[..., None],
                      out=size if y.dtype == size.dtype else None)
    resasc = half * _rule(np.abs(dev, out=size), _WEIGHTS_K)
    err = np.abs(k15 - g7)
    scaled = np.logical_and(resasc, err)  # both nonzero
    safe = np.where(scaled, resasc, 1.0)
    err = np.where(scaled,
                   resasc * np.minimum(1.0, (200.0 * err / safe) ** 1.5), err)
    floor = resabs > _RESABS_FLOOR
    err = np.where(floor, np.maximum(err, _EPS50 * resabs), err)
    if carried is not None:
        carried = half * _rule(np.reshape(carried, y.shape), _WEIGHTS_K)
    return k15, err, carried


def _adaptive_rows(g, edges, n: int, config: QuadratureConfig):
    """Adaptive G7-K15 of n integrals, one per row, from shared edges.

    Row i integrates t -> g(rows, t)[k] where rows[k] == i: ``g`` gets an
    index array of rows and abscissae t of shape (len(rows), m) and
    returns values of that shape, or a pair (values, carried errors) as
    _panels takes it.  The p panels between the p+1 ``edges`` go to ``g``
    in one call, t their grid of shape (1, 15*p) for every row.  Then each
    step, every row short of max(rel_tol*|sum of values|, abs_tol) bisects
    its worst panel (largest error, oldest first), and the halves of all
    such rows go to ``g`` in one call, up to max_subdivisions bisections.
    Returns each row's value and error, summed in position order, and its
    evaluation count, as arrays.  Carried errors ride with their panels
    and add to the error only there: they steer no bisection.
    """
    edges = np.asarray(edges, dtype=float)
    p = len(edges) - 1
    rows = np.arange(n)     # the rows still short of their tolerance
    # Panel j of row i is [lo, hi][i, j], one row for all until the first
    # bisection.  Slots fill in creation order: a bisection appends both
    # halves and empties its parent's slot (lo = inf, value and errors 0),
    # so the first slot of largest error holds the oldest worst panel.
    # They start with room for _FIRST_BISECTIONS, doubled when full.
    lo, hi = edges[None, :-1], edges[None, 1:]
    val, err, carried = _panels(lambda t: g(rows, t), lo, hi)
    full = p + 2 * config.max_subdivisions
    evals = np.full(n, 15 * p)
    used = p                # slots filled so far, by every row alike
    live_val, live_err = val, err   # the slots of the rows in `rows`
    while used < full:
        short = ~_converged(live_val.sum(axis=1), live_err.sum(axis=1),
                            config)
        rows = rows[short]
        if rows.size == 0:
            break
        if used == val.shape[1]:
            width = min(full, p + 2 * max(_FIRST_BISECTIONS, used - p))
            lo, hi, val, err = (_widened(a, n, width, empty)
                                for a, empty in ((lo, np.inf), (hi, 0.0),
                                                 (val, 0.0), (err, 0.0)))
            if carried is not None:
                carried = _widened(carried, n, width, 0.0)
        j = live_err[short].argmax(axis=1)
        lo_j, hi_j = lo[rows, j], hi[rows, j]
        ends = np.array([lo_j, 0.5 * (lo_j + hi_j), hi_j])
        new_lo, new_hi = ends[:2].T, ends[1:].T
        v, e, c = _panels(lambda t: g(rows, t), new_lo, new_hi)
        lo[rows, used:used + 2] = new_lo
        hi[rows, used:used + 2] = new_hi
        val[rows, used:used + 2] = v
        err[rows, used:used + 2] = e
        lo[rows, j] = np.inf
        val[rows, j] = 0.0
        err[rows, j] = 0.0
        if carried is not None:
            carried[rows, used:used + 2] = c
            carried[rows, j] = 0.0
        evals[rows] += 30
        used += 2
        live_val, live_err = (a.take(rows, axis=0)[:, :used]
                              for a in (val, err))

    # sequential sums in position order (empty slots sort last, add 0),
    # each array gathered by one take of flat indices into a row per
    # position: the argsort of a row already in order is cheap, and
    # picking out the rows that bisected costs more than it saves
    parts = [a for a in (val, err, carried) if a is not None]
    if used > p:
        order = np.argsort(lo[:, :used], axis=1, kind="stable")
        width = val.shape[1]
        order += np.arange(0, n * width, width)[:, None]
        parts = [a.take(order.T) for a in parts]
    else:
        parts = [np.ascontiguousarray(a.T) for a in parts]
    value, error, *extra = (_in_order(a) for a in parts)
    if extra:
        error = error + extra[0]
    return value, error, evals


def _in_order(a):
    """The sum of each column of a, its rows added one after another.
    numpy adds pairwise only along the contiguous axis, so with two or
    more columns add.reduce over the rows is this sequential sum; a lone
    column is contiguous, so it takes the running sum instead."""
    if a.shape[1] == 1:
        return np.cumsum(a, axis=0)[-1]
    return np.add.reduce(a, axis=0)


def _widened(a, n, width, empty):
    """a, (n, k) or (1, k) broadcast to n rows, padded with empty to width."""
    out = np.full((n, width), empty, dtype=a.dtype)
    out[:, :a.shape[1]] = a
    return out


def _converged(value, error, config: QuadratureConfig):
    """error <= max(rel_tol*|value|, abs_tol), elementwise."""
    return error <= np.maximum(config.rel_tol * np.abs(value),
                               config.abs_tol)


def _result(value, error, evals, config: QuadratureConfig) -> IntegralResult:
    """Row 0 of _adaptive_rows' arrays as an IntegralResult; a complex
    value with imaginary part 0 becomes real."""
    total, total_err = value[0], float(error[0])
    converged = bool(_converged(total, total_err, config))
    if isinstance(total, complex) and total.imag == 0.0:
        total = total.real
    return IntegralResult(total, total_err, int(evals[0]), converged)


def _one_row(f):
    """The row integrand of a lone integral of the 1-d elementwise ``f``."""
    return lambda rows, t: np.asarray(f(t.ravel())).reshape(t.shape)


def integrate_finite(f, a: float, b: float, config: QuadratureConfig,
                     breakpoints=(), max_panel_width: float | None = None,
                     ) -> IntegralResult:
    """Adaptive G7-K15 on [a, b].

    ``breakpoints`` are interior abscissae used for the initial
    panelization; ``max_panel_width`` additionally caps the initial panel
    size (used for oscillatory integrands: at most half a period per
    panel).  Neither counts against ``max_subdivisions``.  ``f`` is called
    once for all initial panels and once per bisection, with a 1-d array
    of the 15 nodes of each panel, and must be elementwise.
    """
    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    edges: list[float] = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        if max_panel_width is not None and hi - lo > max_panel_width:
            n = int(np.ceil((hi - lo) / max_panel_width))
            edges.extend(np.linspace(lo, hi, n + 1)[:-1])
        else:
            edges.append(lo)
    edges.append(b)
    return _result(*_adaptive_rows(_one_row(f), edges, 1, config), config)


def _semi_infinite_rows(f, lower, scale: float, config: QuadratureConfig,
                        t_edges=()):
    """Integrals of f over [lower[i], inf), one row each, in lockstep.

    Row i maps x = a + s*t/(1-t) (a = lower[i], s = scale) onto t in
    [0, 1) and cuts the tail at x - a = s*10^tail_decades; the ascending
    t-values ``t_edges`` in between are initial edges of every row, whose
    shared grid is mapped once.  ``f`` gets an index array of rows and x
    of shape (len(rows), m), and returns values of that shape or a pair
    (values, carried errors), both mapped with the Jacobian; in its first
    call, on the initial panels, each row's last x is its tail node x_max,
    for the tail bound.  Returns each row's value, error estimate (tail
    bound and carried errors included) and evaluation count.
    """
    a = np.asarray(lower, dtype=float).reshape(-1, 1)
    n = len(a)
    span = 10.0 ** config.tail_decades
    edges = _mapped_edges(tuple(t_edges), config.tail_decades)
    x_max = a + scale * span
    # all rows need no gather; a lone row broadcasts faster as a float
    whole = float(a[0, 0]) if n == 1 else a
    tail = []

    def g(rows, t):
        one_m = 1.0 - t
        x = scale * t / one_m
        jacobian = scale / one_m**2
        if tail:
            a_r = whole if len(rows) == n else a[rows]
            y = f(rows, a_r + x)
            nodes = slice(None)
        else:
            # the first call: the shared grid of every row, tail node last
            xs = np.empty((n, x.shape[1] + 1))
            np.add(whole, x, out=xs[:, :-1])
            xs[:, -1:] = x_max
            y = f(rows, xs)
            nodes = slice(None, -1)
        parts = [np.asarray(part) for part in
                 (y if isinstance(y, tuple) else (y,))]
        if not tail:
            # Bound on the discarded tail: |f(x_max)|*x_max for decay at
            # least as fast as 1/x^2, nothing for exponentially decaying
            # kernels.
            tail.append(np.abs(parts[0][:, -1]) * x_max[:, 0])
        mapped = [part[:, nodes] * jacobian for part in parts]
        return tuple(mapped) if isinstance(y, tuple) else mapped[0]

    value, error, evals = _adaptive_rows(g, edges, n, config)
    return value, error + tail[0], evals + 1


@functools.lru_cache(maxsize=16)
def _mapped_edges(t_edges: tuple, tail_decades: int):
    """The initial edges in t of _semi_infinite_rows: 0, the ascending
    ``t_edges`` inside (0, t_max) and t_max, where the tail is cut.  Made
    once per pair and kept read-only: the inner rows of every nested
    integral share theirs."""
    span = 10.0 ** tail_decades
    t_max = span / (1.0 + span)
    edges = np.array([0.0, *(t for t in t_edges if 0.0 < t < t_max), t_max])
    edges.flags.writeable = False
    return edges


def _t_edges(points, lower: float, scale: float):
    """The initial t-edges d/(s + d), d = max(p - a, 0), of split points p
    on [a, inf) mapped with scale s, ascending and without repeats."""
    d = [max(p - lower, 0.0) for p in points or ()]
    return sorted({b / (scale + b) for b in d})


def _check_scale(name: str, scale: float) -> None:
    """Refuse a tail scale that is not positive and finite."""
    if not 0 < scale < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {scale}")


def integrate_semi_infinite(f, lower_limit: float, config: QuadratureConfig,
                            tail_scale: float) -> IntegralResult:
    """Integrate f over [lower_limit, inf): one row of _semi_infinite_rows.

    ``tail_scale`` s is the decay scale of the integrand, which every
    caller knows; the tail is cut at x - a = s*10^tail_decades.  Each of
    ``config.split_points`` p becomes the initial t-edge d/(s + d),
    d = max(p - a, 0).  ``f`` gets the tail node with the initial panels,
    last, in its first call.
    """
    _check_scale("tail_scale", tail_scale)
    t = _t_edges(config.split_points, lower_limit, tail_scale)
    return _result(*_semi_infinite_rows(_one_row(f), [lower_limit],
                                        tail_scale, config, t), config)


@functools.lru_cache(maxsize=16)
def _nested_budgets(rel_tol, abs_tol, max_subdivisions, tail_decades):
    """The (inner, outer) configs of integrate_nested, built once per
    tolerance.  Budget split: the outer pass targets half the requested
    tolerance and the inner passes a tenth, so the weighted inner errors
    leave room in the caller's tolerance and the converged flag stays
    honest.  Neither reads split points."""
    return tuple(QuadratureConfig(rel_tol / share, abs_tol / share,
                                  max_subdivisions, tail_decades)
                 for share in (10.0, 2.0))


def integrate_nested(inner_f, outer_lower: float, inner_lower,
                     config: QuadratureConfig, outer_tail_scale: float,
                     inner_tail_scale: float) -> IntegralResult:
    """Double integral over x in [outer_lower, inf), y in [inner_lower(x), inf).

    ``inner_f(x, y)`` evaluates the integrand.  The inner integrals of
    all outer nodes of one outer integrand call run together (the 15
    nodes of every initial outer panel, then the 30 of each outer
    bisection), so it is called with x of shape (n, 1) and y of shape
    (n, m), and must return shape (n, m); it must also accept a scalar x
    with a 1-d y.  ``inner_lower`` is a callable that gets the 1-d array
    of outer nodes and returns the inner lower limits, an array of that
    shape.  ``outer_tail_scale`` and ``inner_tail_scale`` are the decay
    scales of the outer and inner integrands, positive finite floats; the
    outer integral starts from ``config.split_points`` as
    integrate_semi_infinite does.  Each inner integral starts from a
    ratio-4 grading through its tail scale s (edges s*4^k above its lower
    limit for k = -2..2, the t-edges _INNER_T_EDGES) and from there
    bisects as it would alone; the one at the outer tail node is the last
    row with the initial outer panels.

    The error estimate is the outer one plus the inner errors weighted as
    the outer values are: the sum over the outer nodes of the final
    panels of each node's outer weight times its inner error.  The inner
    errors ride with the outer panels and steer no outer bisection.  An
    inner integral whose error is at most the smallest normal float (its
    envelope has underflowed) counts as converged, also at abs_tol 0.
    """
    _check_scale("outer_tail_scale", outer_tail_scale)
    _check_scale("inner_tail_scale", inner_tail_scale)
    inner_cfg, outer_cfg = _nested_budgets(
        config.rel_tol, config.abs_tol, config.max_subdivisions,
        config.tail_decades)
    stats = {"evals": 0, "failed_at": None}

    def outer_integrand(_, xs):
        x = xs[0]
        value, error, evals = _semi_infinite_rows(
            lambda rows, y: inner_f(x[rows, None], y), inner_lower(x),
            inner_tail_scale, inner_cfg, t_edges=_INNER_T_EDGES)
        # an error at most tiny is the rounding of an underflowed envelope
        converged = _converged(value, error, inner_cfg) | (error <= _TINY)
        stats["evals"] += int(evals.sum())
        if stats["failed_at"] is None and not converged.all():
            stats["failed_at"] = x[np.argmin(converged)]
        return value[None], error[None]

    outer = _result(*_semi_infinite_rows(
        outer_integrand, [outer_lower], outer_tail_scale, outer_cfg,
        _t_edges(config.split_points, outer_lower, outer_tail_scale)), config)
    level = "" if stats["failed_at"] is None else (
        f"inner integral non-converged at outer x = {stats['failed_at']!r}")
    return IntegralResult(outer.value, outer.error_estimate,
                          outer.evaluations + stats["evals"],
                          outer.converged and not level, level)
