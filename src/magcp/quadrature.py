"""Adaptive Gauss-Kronrod quadrature for finite, semi-infinite and
nested integrals.

All integrals are rows of one deterministic adaptive core on panel
arrays, ``_adaptive_rows``: a G7-K15 rule applied to all initial panels
in one integrand call, then to the two halves of the worst panel of
every unconverged row in one call per bisection step.  The final sum is
taken over panels sorted by position, so results are bit-stable for
identical inputs.  Integrals over [a, inf) share one mapping and one
tail bound, in ``_semi_infinite_rows``: ``integrate_semi_infinite`` is
one row, and the inner integrals of a nested call are many rows, each
taking the panel decisions it would take alone.  An inner row starts
from six panels graded by factors of 4 through its own tail scale, so
most rows meet their tolerance without a bisection.  A row's panels
live in slot arrays that start with room for a few bisections and
double when full, so a lockstep of many rows that mostly stop early
stays small.  Integrands are called with a 1-d numpy array of
abscissae, the 15 nodes of each panel side by side, and must return an
array of the same shape (real or complex) whose entries depend only on
their own abscissa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

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
        if self.max_subdivisions < 10:
            raise ValueError(
                f"max_subdivisions must be >= 10, got {self.max_subdivisions}"
            )
        # from 16 on the tail cut t = span/(1 + span) rounds to 1.0
        if not 1 <= self.tail_decades <= 15:
            raise ValueError(
                f"tail_decades must be from 1 to 15, got {self.tail_decades}")


@dataclass(frozen=True)
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
    np.einsum: in the same order for every row whatever the batch, where
    a BLAS product may change a row's last bit with the batch's size."""
    return np.einsum("...k,k->...", y, w)


def _panels(g, lo, hi):
    """G7/K15 estimates and QUADPACK-style error bounds of every panel
    [lo, hi] of shape (n, p), with one call of ``g``.

    ``g`` gets the abscissae as an (n, 15*p) array, each row the 15 nodes
    of its panels side by side, and returns values of that shape.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[..., None] + half[..., None] * _NODES
    y = np.asarray(g(x.reshape(len(x), -1))).reshape(x.shape)
    resabs = half * _rule(np.abs(y), _WEIGHTS_K)
    # a non-finite value makes its panel's resabs non-finite; a finite
    # resabs proves every value finite without a pass over all of y
    if not np.isfinite(resabs).all():
        finite = np.isfinite(y)
        if not finite.all():
            bad = x[~finite][0]
            raise NonFiniteIntegrand(f"integrand non-finite at x = {bad!r}")
    k15 = half * _rule(y, _WEIGHTS_K)
    g7 = half * _rule(y, _WEIGHTS_G)
    mean = k15 / (hi - lo)
    resasc = half * _rule(np.abs(y - mean[..., None]), _WEIGHTS_K)
    err = np.abs(k15 - g7)
    scaled = (resasc != 0.0) & (err != 0.0)
    safe = np.where(scaled, resasc, 1.0)
    err = np.where(scaled,
                   resasc * np.minimum(1.0, (200.0 * err / safe) ** 1.5), err)
    floor = resabs > _RESABS_FLOOR
    err = np.where(floor, np.maximum(err, _EPS50 * resabs), err)
    return k15, err


def _adaptive_rows(g, edges, config: QuadratureConfig):
    """Adaptive G7-K15 of one integral per row of ``edges``.

    Row i integrates t -> g(rows, t)[k] where rows[k] == i: ``g`` gets an
    index array of rows and abscissae t of shape (len(rows), m) and
    returns values of that shape.  ``edges`` has shape (n, p+1); row i
    starts from the p panels between edges[i], and all n*p of them go to
    ``g`` in one call.  Then the rows advance in lockstep: each step,
    every row that has not met its tolerance bisects its worst panel
    (largest error, oldest first), and the two halves of all such rows go
    to ``g`` in one call.  A row stops when the sum of its errors meets
    max(rel_tol*|sum of values|, abs_tol) or after max_subdivisions
    bisections.  Returns each row's value and error, both summed in
    position order, and its evaluation count, as arrays.
    """
    edges = np.asarray(edges, dtype=float)
    n, p = edges.shape[0], edges.shape[1] - 1
    rows = np.arange(n)     # the rows still short of their tolerance
    v, e = _panels(lambda t: g(rows, t), edges[:, :-1], edges[:, 1:])
    # Panel j of row i is [lo, hi][i, j].  Slots are filled in creation
    # order: a bisection appends both halves and empties its parent's
    # slot (lo = inf, value and error 0), so the first slot of largest
    # error holds the oldest worst panel.  Most rows stop after a few
    # bisections, so the slots start with room for _FIRST_BISECTIONS and
    # the room doubles whenever it fills, up to the budget.
    full = p + 2 * config.max_subdivisions
    lo, hi, val, err = edges[:, :-1], edges[:, 1:], v, e
    evals = np.full(n, 15 * p)
    used = p                # slots filled so far, by every row alike
    while used < full:
        live = err[rows, :used]
        short = ~_converged(val[rows, :used].sum(axis=1), live.sum(axis=1),
                            config)
        rows = rows[short]
        if rows.size == 0:
            break
        if used == lo.shape[1]:
            width = min(full, p + 2 * max(_FIRST_BISECTIONS, used - p))
            lo, hi, val, err = (_widened(a, width, empty)
                                for a, empty in ((lo, np.inf), (hi, 0.0),
                                                 (val, 0.0), (err, 0.0)))
        j = live[short].argmax(axis=1)
        lo_j, hi_j = lo[rows, j], hi[rows, j]
        ends = np.array([lo_j, 0.5 * (lo_j + hi_j), hi_j])
        new_lo, new_hi = ends[:2].T, ends[1:].T
        v, e = _panels(lambda t: g(rows, t), new_lo, new_hi)
        lo[rows, used:used + 2] = new_lo
        hi[rows, used:used + 2] = new_hi
        val[rows, used:used + 2] = v
        err[rows, used:used + 2] = e
        lo[rows, j] = np.inf
        val[rows, j] = 0.0
        err[rows, j] = 0.0
        evals[rows] += 30
        used += 2

    # sequential sums in position order; empty slots sort last and add 0
    order = np.argsort(lo[:, :used], axis=1, kind="stable")
    by_row = np.arange(n)[:, None]
    value = np.cumsum(val[by_row, order], axis=1)[:, -1]
    error = np.cumsum(err[by_row, order], axis=1)[:, -1]
    return value, error, evals


def _widened(a, width, empty):
    """The (n, k) array a followed by width - k columns of ``empty``."""
    out = np.full((len(a), width), empty, dtype=a.dtype)
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
    return _result(*_adaptive_rows(_one_row(f), [edges], config), config)


def _semi_infinite_rows(f, lower, scale, config: QuadratureConfig,
                        t_edges=()):
    """Integrals of f over [lower[i], inf), one row each, in lockstep.

    Row i maps x = a + s*t/(1-t) (a = lower[i], s = scale[i]) onto t in
    [0, 1) and cuts the tail at x - a = s*10^tail_decades; the t-values
    ``t_edges`` in between are initial edges of every row.  ``f`` gets an
    index array of rows and x of shape (len(rows), m).  Returns each row's
    value, error estimate (tail bound included) and evaluation count.
    """
    a = np.asarray(lower, dtype=float).reshape(-1, 1)
    s = np.asarray(scale, dtype=float).reshape(-1, 1)
    if (s <= 0).any():
        raise ValueError(f"tail_scale must be positive, got {s[s <= 0][0]}")
    n = len(a)
    span = 10.0 ** config.tail_decades
    t_max = span / (1.0 + span)
    t = np.unique(np.asarray(t_edges, dtype=float))
    t = t[(0.0 < t) & (t < t_max)]
    edges = np.tile(np.concatenate([[0.0], t, [t_max]]), (n, 1))

    # all rows need no gather; a lone row broadcasts faster as floats
    whole = (float(a[0, 0]), float(s[0, 0])) if n == 1 else (a, s)

    def g(rows, t):
        a_r, s_r = whole if len(rows) == n else (a[rows], s[rows])
        one_m = 1.0 - t
        return np.asarray(f(rows, a_r + s_r * t / one_m)) * (s_r / one_m**2)

    value, error, evals = _adaptive_rows(g, edges, config)
    # Truncation bound for the discarded tail: for decay at least as fast
    # as 1/x^2 the remainder is bounded by |f(x_max)|*x_max; exponentially
    # decaying kernels contribute nothing here.
    x_max = _tail_node(a, s, config)
    tail_bound = np.abs(np.asarray(f(np.arange(n), x_max))) * x_max
    return value, error + tail_bound[:, 0], evals + 1


def _tail_node(lower, scale, config: QuadratureConfig):
    """x_max = lower + scale*10^tail_decades, where the map cuts the tail."""
    return lower + scale * 10.0 ** config.tail_decades


def integrate_semi_infinite(f, lower_limit: float, config: QuadratureConfig,
                            tail_scale: float) -> IntegralResult:
    """Integrate f over [lower_limit, inf): one row of _semi_infinite_rows.

    ``tail_scale`` s is the decay scale of the integrand, which every
    caller knows; the tail is cut at x - a = s*10^tail_decades.  Each of
    ``config.split_points`` p becomes the initial t-edge d/(s + d),
    d = max(p - a, 0).
    """
    if not tail_scale > 0:
        raise ValueError(f"tail_scale must be positive, got {tail_scale}")
    d = np.maximum(np.array(config.split_points or ()) - lower_limit, 0.0)
    return _result(*_semi_infinite_rows(_one_row(f), [lower_limit],
                                        [tail_scale], config,
                                        t_edges=d / (tail_scale + d)),
                   config)


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
    scales of the outer and inner integrands, positive floats.  Each
    inner integral starts from a ratio-4 grading through its tail scale s
    (edges s*4^k above its lower limit for k = -2..2, the t-edges
    _INNER_T_EDGES) and from there bisects as it would alone.  The inner
    integral at the outer tail node, for the outer tail bound, runs with
    those of the initial outer panels.
    The error estimate conservatively adds the worst inner error, scaled
    by an effective outer extent, to the outer estimate.  An inner
    integral whose error is at most the smallest normal float (its
    envelope has underflowed) counts as converged, also at abs_tol 0.
    """
    # Budget split: the outer pass targets half the requested tolerance and
    # the inner passes a tenth, so the conservative combined bound still
    # meets the caller's tolerance and the converged flag stays honest.
    inner_cfg = replace(config, rel_tol=config.rel_tol / 10.0,
                        abs_tol=config.abs_tol / 10.0)
    outer_cfg = replace(config, rel_tol=config.rel_tol / 2.0,
                        abs_tol=config.abs_tol / 2.0)
    stats = {"evals": 0, "failed_at": None, "max_err": 0.0}

    def inner_rows(xs):
        value, error, evals = _semi_infinite_rows(
            lambda rows, y: inner_f(xs[rows, None], y), inner_lower(xs),
            np.full(xs.shape, inner_tail_scale), inner_cfg,
            t_edges=_INNER_T_EDGES)
        # an error at most tiny is the rounding of an underflowed envelope
        converged = _converged(value, error, inner_cfg) | (error <= _TINY)
        stats["evals"] += int(evals.sum())
        stats["max_err"] = float(np.fmax.reduce(error,
                                                initial=stats["max_err"]))
        return value, converged

    # The outer tail bound asks for the inner row at x_max alone, after the
    # last outer bisection: that row rides in the first call instead, with
    # the initial outer panels, and the tail call, the only one of a single
    # node, reads it back.
    x_tail = _tail_node(outer_lower, outer_tail_scale, outer_cfg)

    def outer_integrand(xs):
        if "tail" not in stats:
            value, converged = inner_rows(np.append(xs, x_tail))
            stats["tail"] = value[-1:], converged[-1:]
            value, converged = value[:-1], converged[:-1]
        elif xs.size == 1:
            value, converged = stats["tail"]
        else:
            value, converged = inner_rows(xs)
        if stats["failed_at"] is None and not converged.all():
            stats["failed_at"] = xs[np.argmin(converged)]
        return value

    outer = integrate_semi_infinite(outer_integrand, outer_lower, outer_cfg,
                                    tail_scale=outer_tail_scale)
    # Bound on the inner contribution to the total error, as the tighter
    # of two conservative estimates over an effective outer extent of 10
    # decay scales: (a) worst observed inner error times the extent, and
    # (b) the inner tolerance promise inner_rel*|result| + inner_abs*extent.
    extent = 10.0 * outer_tail_scale
    inner_bound = min(
        stats["max_err"] * extent,
        inner_cfg.rel_tol * abs(outer.value) + inner_cfg.abs_tol * extent,
    )
    err = outer.error_estimate + inner_bound
    converged = (stats["failed_at"] is None and
                 bool(_converged(outer.value, err, config)))
    level = "" if stats["failed_at"] is None else (
        f"inner integral non-converged at outer x = {stats['failed_at']!r}")
    return IntegralResult(outer.value, err, outer.evaluations + stats["evals"],
                          converged, level=level)
