"""Quadrature engine against closed-form and frozen oracles."""

import heapq
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magcp import Drude, Geometry, potentials
from magcp.quadrature import (
    _INNER_T_EDGES,
    _NODES,
    _WEIGHTS_G,
    _WEIGHTS_K,
    IntegralResult,
    NonFiniteIntegrand,
    QuadratureConfig,
    _converged,
    _panels,
    _semi_infinite_rows,
    integrate_finite,
    integrate_nested,
    integrate_semi_infinite,
)

from conftest import GOLD_GAMMA, GOLD_OMEGA_P, make_particle

CFG = QuadratureConfig()


# Frozen reference: the heap-based adaptive core that integrate_finite
# used before the panel-array core, one integrand call per panel.

def _panel(f, a: float, b: float):
    """G7/K15 estimates on [a, b] plus a QUADPACK-style error bound."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _NODES
    y = np.asarray(f(x))
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise NonFiniteIntegrand(f"integrand non-finite at x = {bad!r}")
    # the weighted sums in the order _panels takes them
    k15 = half * np.einsum("k,k->", y, _WEIGHTS_K)
    g7 = half * np.einsum("k,k->", y, _WEIGHTS_G)
    resabs = half * np.einsum("k,k->", np.abs(y), _WEIGHTS_K)
    mean = k15 / (b - a)
    resasc = half * np.einsum("k,k->", np.abs(y - mean), _WEIGHTS_K)
    err = abs(k15 - g7)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    eps = np.finfo(float).eps
    if resabs > np.finfo(float).tiny / (50.0 * eps):
        err = max(err, 50.0 * eps * resabs)
    return k15, err, resabs


def _heap_finite(f, a, b, config, breakpoints=(), max_panel_width=None,
                 after_initial=None):
    """integrate_finite on a heap of panels, worst (then oldest) first.
    ``after_initial``, if given, is called once between the initial
    panels and the first bisection."""
    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    edges = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        if max_panel_width is not None and hi - lo > max_panel_width:
            n = int(np.ceil((hi - lo) / max_panel_width))
            edges.extend(np.linspace(lo, hi, n + 1)[:-1])
        else:
            edges.append(lo)
    edges.append(b)

    heap = []
    counter = itertools.count()
    evals = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err, _ = _panel(f, lo, hi)
        evals += 15
        heapq.heappush(heap, (-err, next(counter), lo, hi, val, err))
    if after_initial is not None:
        after_initial()

    subdivisions = 0
    while subdivisions < config.max_subdivisions:
        total = sum(item[4] for item in heap)
        total_err = sum(item[5] for item in heap)
        if total_err <= max(config.rel_tol * abs(total), config.abs_tol):
            break
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            val, err, _ = _panel(f, *seg)
            evals += 15
            heapq.heappush(heap, (-err, next(counter), seg[0], seg[1], val, err))
        subdivisions += 1

    panels = sorted(heap, key=lambda item: item[2])
    total = sum(item[4] for item in panels)
    total_err = float(sum(item[5] for item in panels))
    converged = total_err <= max(config.rel_tol * abs(total), config.abs_tol)
    if isinstance(total, complex) and total.imag == 0.0:
        total = total.real
    return IntegralResult(total, total_err, evals, converged)


def _heap_semi_infinite(f, lower_limit, config, tail_scale, t_edges=()):
    """integrate_semi_infinite as it was before it became one row of
    _semi_infinite_rows: its own mapping, split-point mapping and tail
    bound around _heap_finite, which samples the tail node right after the
    initial panels, where _semi_infinite_rows samples it, last in its
    first call.  ``t_edges`` are further initial edges in the mapped
    variable t, as _semi_infinite_rows takes them."""
    a = float(lower_limit)
    s = float(tail_scale)
    span = 10.0 ** config.tail_decades
    t_max = span / (1.0 + span)

    def g(t):
        one_m = 1.0 - t
        return np.asarray(f(a + s * t / one_m)) * (s / one_m**2)

    breakpoints = [(p - a) / (s + (p - a))
                   for p in config.split_points or () if p > a]
    breakpoints += list(t_edges)
    x_max = a + s * span
    tail = []

    def sample_tail():
        tail.append(float(np.abs(np.asarray(f(np.array([x_max])))[0])))

    res = _heap_finite(g, 0.0, t_max, config, breakpoints=breakpoints,
                       after_initial=sample_tail)
    err = res.error_estimate + tail[0] * x_max
    converged = err <= max(config.rel_tol * abs(res.value), config.abs_tol)
    return IntegralResult(res.value, err, res.evaluations + 1, converged)


def test_finite_polynomial_exact():
    res = integrate_finite(lambda x: x**2, 0.0, 1.0, CFG)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)


def test_finite_breakpoints_resolve_narrow_peak():
    # Lorentzian of width 1e-6 at x = 0.5; closed form of the integral
    b = 1e-6
    f = lambda x: b / ((x - 0.5) ** 2 + b**2)
    exact = math.atan(0.5 / b) + math.atan(0.5 / b)
    res = integrate_finite(f, 0.0, 1.0, CFG, breakpoints=(0.5,))
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-8)


def test_finite_oscillatory():
    res = integrate_finite(lambda x: np.cos(50.0 * x), 0.0, 1.0, CFG)
    assert res.converged
    assert res.value == pytest.approx(math.sin(50.0) / 50.0, rel=1e-10,
                                      abs=0.0)


def test_semi_infinite_exponential():
    res = integrate_semi_infinite(lambda x: np.exp(-x), 0.0, CFG,
                                  tail_scale=1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_semi_infinite_scaled_exponential():
    # decay scale 1e4 must be resolvable via tail_scale
    res = integrate_semi_infinite(lambda x: np.exp(-x / 1e4), 0.0, CFG,
                                  tail_scale=1e4)
    assert res.converged
    assert res.value == pytest.approx(1e4, rel=1e-10)


def test_semi_infinite_power_law_tail_bound():
    # 1/(1+x^2) decays slowly; the truncation bound must keep the error
    # estimate honest, so demand agreement only within the reported error
    cfg = QuadratureConfig(tail_decades=10)
    res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x**2), 0.0, cfg,
                                  tail_scale=1.0)
    assert abs(res.value - math.pi / 2.0) <= max(res.error_estimate, 1e-8)


def test_semi_infinite_gamma_function():
    res = integrate_semi_infinite(lambda x: x**3 * np.exp(-x), 0.0, CFG,
                                  tail_scale=1.0)
    assert res.converged
    assert res.value == pytest.approx(6.0, rel=1e-9)


def test_nested_triangle_exponential():
    # int_0^inf dx int_x^inf dy e^{-y} = 1
    res = integrate_nested(lambda x, y: np.exp(-y), 0.0, lambda x: x, CFG,
                           outer_tail_scale=1.0, inner_tail_scale=1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-8)


def test_nested_triangle_weighted():
    # int_0^inf dx int_x^inf dy y e^{-2y} = 1/4
    res = integrate_nested(lambda x, y: y * np.exp(-2.0 * y), 0.0,
                           lambda x: x, CFG, outer_tail_scale=0.5,
                           inner_tail_scale=0.5)
    assert res.converged
    assert res.value == pytest.approx(0.25, rel=1e-8)


def _per_node_nested(inner_f, outer_lower, inner_lower, config,
                     outer_tail_scale, inner_tail_scale):
    """integrate_nested with one _heap_semi_infinite per outer node.

    The reference for the lockstep inner integrals and the batched outer
    panels: same budget split, same bookkeeping, the same graded initial
    inner panels, the heap core and a plain loop over the outer nodes.
    ``inner_lower`` is a callable; the tail scales are floats.
    """
    inner_cfg = QuadratureConfig(
        rel_tol=config.rel_tol / 10.0, abs_tol=config.abs_tol / 10.0,
        max_subdivisions=config.max_subdivisions,
        tail_decades=config.tail_decades)
    outer_cfg = QuadratureConfig(
        rel_tol=config.rel_tol / 2.0, abs_tol=config.abs_tol / 2.0,
        max_subdivisions=config.max_subdivisions,
        tail_decades=config.tail_decades, split_points=config.split_points)
    stats = {"evals": 0, "failed_at": None, "max_err": 0.0}

    def outer_integrand(xs):
        out = np.empty(len(xs))
        for i, x in enumerate(xs):
            res = _heap_semi_infinite(
                lambda y: inner_f(x, y), inner_lower(x), inner_cfg,
                tail_scale=inner_tail_scale, t_edges=_INNER_T_EDGES)
            stats["evals"] += res.evaluations
            stats["max_err"] = max(stats["max_err"], res.error_estimate)
            underflowed = res.error_estimate <= np.finfo(float).tiny
            if not (res.converged or underflowed) and \
                    stats["failed_at"] is None:
                stats["failed_at"] = x
            out[i] = res.value
        return out

    outer = _heap_semi_infinite(outer_integrand, outer_lower, outer_cfg,
                                tail_scale=outer_tail_scale)
    extent = 10.0 * outer_tail_scale
    inner_bound = min(
        stats["max_err"] * extent,
        inner_cfg.rel_tol * abs(outer.value) + inner_cfg.abs_tol * extent)
    err = outer.error_estimate + inner_bound
    converged = (stats["failed_at"] is None and
                 err <= max(config.rel_tol * abs(outer.value),
                            config.abs_tol))
    level = "" if stats["failed_at"] is None else (
        f"inner integral non-converged at outer x = {stats['failed_at']!r}")
    return IntegralResult(outer.value, err, outer.evaluations + stats["evals"],
                          converged, level=level)


def _smooth(x, y):
    return np.exp(-y) * (1.0 + x * y) / (1.0 + y**2)


def _kinked(x, y):
    # a kink at y = 2 that only the inner integrals with x < 2 contain
    return np.exp(-y) * np.sqrt(np.abs(y - 2.0))


TIGHT = QuadratureConfig(rel_tol=1e-9, abs_tol=0.0, max_subdivisions=12)


@pytest.mark.parametrize("f, config", [(_smooth, CFG), (_kinked, TIGHT)])
def test_lockstep_inner_integrals_match_per_node_loop(f, config):
    xs = np.array([0.0, 0.3, 1.0, 1.9, 2.5, 4.0, 7.0])
    value, error, evals = _semi_infinite_rows(
        lambda rows, y: f(xs[rows, None], y), xs, 1.0, config)
    converged = _converged(value, error, config)
    for i, x in enumerate(xs):
        ref = _heap_semi_infinite(lambda y: f(x, y), x, config,
                                  tail_scale=1.0)
        assert evals[i] == ref.evaluations
        assert converged[i] == ref.converged
        assert value[i] == pytest.approx(ref.value, rel=1e-14, abs=0.0)
        assert error[i] == pytest.approx(ref.error_estimate, rel=1e-14,
                                         abs=0.0)
    if f is _kinked:
        # the budget runs out exactly at the nodes below the kink
        assert list(converged) == [False] * 4 + [True] * 3


@pytest.mark.parametrize("f, config", [(_smooth, CFG), (_kinked, TIGHT)])
def test_nested_matches_per_node_loop(f, config):
    batched = integrate_nested(f, 0.0, lambda x: x, config,
                               outer_tail_scale=1.0, inner_tail_scale=1.0)
    ref = _per_node_nested(f, 0.0, lambda x: x, config,
                           outer_tail_scale=1.0, inner_tail_scale=1.0)
    assert batched.evaluations == ref.evaluations
    assert batched.converged == ref.converged
    assert batched.level == ref.level
    assert batched.value == pytest.approx(ref.value, rel=1e-14, abs=0.0)
    assert batched.error_estimate == pytest.approx(ref.error_estimate,
                                                   rel=1e-14, abs=0.0)
    assert (f is _kinked) == (not batched.converged) == bool(batched.level)


# the broadband magnetic shift does not converge at z_tilde = 1e-3 with
# rel_tol 1e-10 and 10 bisections, so the failing inner node is compared
# too; at rel_tol 1e-6 it converges
DRUDE_SHIFT_QUAD = {
    "magnetic": QuadratureConfig(rel_tol=1e-10, max_subdivisions=10),
    "electric": QuadratureConfig(rel_tol=1e-6),
}


@pytest.mark.parametrize("which, zt", [("magnetic", 1e-3), ("electric", 1.0)])
def test_nested_matches_per_node_loop_on_drude_shift(monkeypatch, which, zt):
    p = make_particle()
    surface = Drude(omega_p=GOLD_OMEGA_P, gamma=GOLD_GAMMA)
    geometry = Geometry(zt / p.k_e)
    quad = DRUDE_SHIFT_QUAD[which]
    batched = potentials._ground_double(p, surface, geometry, quad, which,
                                        False)
    monkeypatch.setattr(potentials, "integrate_nested", _per_node_nested)
    ref = potentials._ground_double(p, surface, geometry, quad, which, False)
    assert batched.evaluations == ref.evaluations
    assert batched.converged == ref.converged
    assert batched.level == ref.level
    assert batched.value == pytest.approx(ref.value, rel=1e-14, abs=0.0)
    assert (which == "magnetic") == (not batched.converged)


def test_batched_panel_rule_matches_panel():
    f = lambda x: np.exp(-x) * np.cos(3.0 * x) / (1.0 + x**2)
    rng = np.random.default_rng(7)
    lo = rng.uniform(-2.0, 5.0, (4, 2))
    hi = lo + rng.uniform(1e-3, 4.0, (4, 2))
    value, error = _panels(f, lo, hi)
    for i, j in np.ndindex(lo.shape):
        ref_value, ref_error, _ = _panel(f, lo[i, j], hi[i, j])
        assert value[i, j] == pytest.approx(ref_value, rel=1e-15, abs=0.0)
        assert error[i, j] == pytest.approx(ref_error, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("f", [
    lambda x: (x - 0.3) / (1.0 + x * x),
    lambda x: (x - 0.3) * (1.0 + 2.0j * x) / (1.0 + x * x),
], ids=["real", "complex"])
def test_panel_rule_rows_do_not_depend_on_batch(f):
    # a row's estimates are the same bits in a batch of 1320 panels as
    # alone (so no BLAS product, whose last bit follows the batch's size);
    # the integrand is plain arithmetic, the same bits in any batch
    rng = np.random.default_rng(11)
    lo = rng.uniform(-2.0, 5.0, (440, 3))
    hi = lo + rng.uniform(1e-3, 4.0, lo.shape)
    value, error = _panels(f, lo, hi)
    for i in range(len(lo)):
        row_value, row_error = _panels(f, lo[i:i + 1], hi[i:i + 1])
        assert value[i].tobytes() == row_value[0].tobytes()
        assert error[i].tobytes() == row_error[0].tobytes()


def _recorded(f):
    """f plus the list of the abscissa arrays it was called with."""
    calls = []

    def g(x):
        calls.append(np.array(x))
        return f(x)
    return g, calls


def _assert_same_samples(f, run, run_ref):
    """run(f) equals run_ref(f) bit for bit, and both sample the same
    abscissae in the same order (so they split the same panels)."""
    g, calls = _recorded(f)
    res = run(g)
    g_ref, calls_ref = _recorded(f)
    ref = run_ref(g_ref)
    assert np.asarray(res.value).tobytes() == np.asarray(ref.value).tobytes()
    assert res.evaluations == ref.evaluations
    assert res.converged == ref.converged
    assert res.error_estimate == pytest.approx(ref.error_estimate,
                                               rel=1e-14, abs=0.0)
    assert np.array_equal(np.concatenate(calls), np.concatenate(calls_ref))
    return res, calls


def _assert_matches_heap(f, a, b, config, **kwargs):
    """integrate_finite against _heap_finite, as _assert_same_samples."""
    return _assert_same_samples(
        f, lambda g: integrate_finite(g, a, b, config, **kwargs),
        lambda g: _heap_finite(g, a, b, config, **kwargs))


def test_finite_matches_heap_with_breakpoints():
    b = 1e-6
    f = lambda x: b / ((x - 0.5) ** 2 + b**2) + np.sqrt(np.abs(x - 0.2))
    res, _ = _assert_matches_heap(f, 0.0, 1.0, CFG, breakpoints=(0.5, 0.2))
    assert res.converged


def test_finite_matches_heap_on_many_oscillatory_panels():
    a = 900.0
    f = lambda u: 1j * np.exp(1j * a * u) * (1.0 - u**2) / (1.0 + u)
    res, calls = _assert_matches_heap(f, 0.0, 1.0, CFG,
                                      max_panel_width=math.pi / a)
    assert len(calls[0]) == 15 * math.ceil(a / math.pi)
    assert isinstance(res.value, complex)


def test_finite_matches_heap_on_tied_errors():
    # the same step in every unit panel, so their errors tie exactly and
    # only the oldest-first rule decides which is split next
    f = lambda x: (x - np.floor(x) > 1.0 / 3.0).astype(float)
    edges = np.arange(4.0)
    _, err = _panels(f, edges[None, :-1], edges[None, 1:])
    assert err[0, 0] > 0.0 and np.all(err == err[0, 0])
    res, _ = _assert_matches_heap(f, 0.0, 3.0, QuadratureConfig(
        rel_tol=1e-12, abs_tol=0.0, max_subdivisions=10),
        breakpoints=(1.0, 2.0))
    assert not res.converged


def test_finite_matches_heap_when_budget_runs_out():
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=10)
    res, calls = _assert_matches_heap(lambda x: np.sqrt(np.abs(x)), -1.0,
                                      1.0, cfg)
    assert not res.converged
    assert res.evaluations == 15 + 30 * 10 and len(calls) == 11


@given(points=st.lists(st.floats(0.01, 3.99), max_size=5),
       rel_tol=st.floats(1e-13, 1e-3))
@settings(max_examples=40, deadline=None)
def test_finite_matches_heap_over_breakpoints_and_tolerances(points,
                                                             rel_tol):
    f = lambda x: np.sqrt(np.abs(x - 1.3)) * np.cos(5.0 * x) + np.exp(-x)
    _assert_matches_heap(f, 0.0, 4.0, QuadratureConfig(rel_tol=rel_tol),
                         breakpoints=tuple(points))


def _kinked_decay(x):
    return np.exp(-x) * np.sqrt(np.abs(x - 1.3))


def _kinked_power(x):
    # a power-law tail, so the tail bound is not 0
    return np.sqrt(np.abs(x - 1.3)) / (1.0 + x**3)


@given(f=st.sampled_from([_kinked_decay, _kinked_power]),
       points=st.lists(st.one_of(st.floats(-5.0, 10.0),
                                 st.floats(1e6, 1e9)), max_size=5),
       a=st.floats(-0.9, 3.0), scale=st.floats(0.1, 10.0))
@example(f=_kinked_decay, points=[-4.0, 1.3, 2e8], a=0.0,
         scale=1.0)                                 # below a, past the cut
@example(f=_kinked_power, points=[0.5, 1.3, 1.3, 4.0], a=2.0, scale=0.5)
@settings(max_examples=40, deadline=None)
def test_semi_infinite_matches_heap_over_split_points(f, points, a, scale):
    # both sample the tail node right after the initial panels
    config = replace(CFG, split_points=tuple(points))
    _assert_same_samples(
        f, lambda g: integrate_semi_infinite(g, a, config, tail_scale=scale),
        lambda g: _heap_semi_infinite(g, a, config, tail_scale=scale))


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_semi_infinite_refuses_non_positive_tail_scale(scale):
    # refused before the split points are mapped through it, and never
    # reported as a non-finite integrand
    with pytest.raises(ValueError, match="tail_scale"):
        integrate_semi_infinite(lambda x: np.exp(-x), 0.0,
                                replace(CFG, split_points=(1.0,)),
                                tail_scale=scale)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["outer_tail_scale", "inner_tail_scale"])
def test_nested_refuses_bad_tail_scale(name, scale):
    scales = {"outer_tail_scale": 1.0, "inner_tail_scale": 1.0, name: scale}
    with pytest.raises(ValueError, match=name):
        integrate_nested(lambda x, y: np.exp(-y), 0.0, lambda x: x, CFG,
                         **scales)


def test_one_integrand_call_per_step():
    # all initial panels go in one call, then one call per bisection
    f, calls = _recorded(lambda x: np.sqrt(np.abs(x - 0.3)))
    res = integrate_finite(f, 0.0, 1.0, CFG, breakpoints=(0.25, 0.5))
    subdivisions = (res.evaluations - 3 * 15) // 30
    assert subdivisions > 0
    assert len(calls) == 1 + subdivisions
    assert [len(x) for x in calls] == [45] + [30] * subdivisions
    # integrate_semi_infinite makes no extra call: the tail node of its
    # tail bound, x_max = 0 + 1*10^tail_decades, ends its first call
    f, calls = _recorded(lambda x: np.exp(-x) * np.sqrt(np.abs(x - 0.3)))
    res = integrate_semi_infinite(f, 0.0, replace(CFG, split_points=(0.3,)),
                                  tail_scale=1.0)
    subdivisions = (res.evaluations - 1 - 2 * 15) // 30
    assert subdivisions > 0
    assert len(calls) == 1 + subdivisions
    assert [len(x) for x in calls] == [2 * 15 + 1] + [30] * subdivisions
    assert calls[0][-1] == 10.0 ** CFG.tail_decades
    assert (calls[0][:-1] < calls[0][-1]).all()


def test_nested_batches_initial_outer_panels():
    calls = []

    def f(x, y):
        calls.append((np.array(x), np.shape(y)))
        return np.exp(-y)

    res = integrate_nested(f, 0.0, lambda x: x,
                           replace(CFG, split_points=(1.0, 4.0, 16.0)),
                           outer_tail_scale=1.0, inner_tail_scale=1.0)
    assert res.converged
    # the outer pass does not bisect, so there is one lockstep of inner
    # rows, each from its graded panels with its own tail node last, in
    # one call; the rows are the 15 nodes of each initial outer panel and
    # the outer tail node x_max = 0 + 1*10^tail_decades, last
    inner_panels = len(_INNER_T_EDGES) + 1
    assert [shape for _, shape in calls] == [
        (4 * 15 + 1, 15 * inner_panels + 1)]
    x = calls[0][0]
    assert x.shape == (4 * 15 + 1, 1)
    assert x[-1, 0] == 10.0 ** CFG.tail_decades
    assert (x[:-1, 0] < x[-1, 0]).all()


def test_nested_non_finite_inner_integrand_raises():
    f = lambda x, y: np.where(y > 3.0, np.nan, np.exp(-y))
    with pytest.raises(NonFiniteIntegrand, match=r"non-finite at x = "):
        integrate_nested(f, 0.0, lambda x: x, CFG, outer_tail_scale=1.0,
                         inner_tail_scale=1.0)


def test_complex_integrand_supported():
    res = integrate_finite(lambda x: np.exp(1j * x), 0.0, math.pi, CFG)
    assert res.converged
    assert res.value == pytest.approx(2.0j, rel=1e-12)


def test_non_finite_integrand_raises():
    with pytest.raises(NonFiniteIntegrand):
        integrate_finite(lambda x: np.where(x > 0.5, np.nan, 1.0),
                         0.0, 1.0, CFG)


def test_budget_exhaustion_reports_not_converged():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=0.0, max_subdivisions=10)
    res = integrate_finite(lambda x: np.sqrt(np.abs(x)), 0.0, 1.0, cfg)
    assert not res.converged


def test_error_estimate_bounds_true_error():
    res = integrate_finite(lambda x: np.exp(-x) * np.sin(8.0 * x), 0.0,
                           20.0, CFG)
    # antiderivative: -e^{-x}(sin 8x + 8 cos 8x)/65
    exact = (8.0 - math.exp(-20.0)
             * (math.sin(160.0) + 8.0 * math.cos(160.0))) / 65.0
    assert abs(res.value - exact) <= max(res.error_estimate, 1e-12)


def test_results_are_deterministic():
    f = lambda x: np.exp(-x) / (1.0 + x**2)
    r1 = integrate_semi_infinite(f, 0.0, CFG, tail_scale=1.0)
    r2 = integrate_semi_infinite(f, 0.0, CFG, tail_scale=1.0)
    assert r1.value == r2.value
    assert r1.error_estimate == r2.error_estimate
    assert r1.evaluations == r2.evaluations


def test_result_addition_combines_budgets():
    a = IntegralResult(1.0, 1e-10, 15, True)
    b = IntegralResult(2.0, 1e-11, 30, False)
    c = a + b
    assert c.value == 3.0
    assert c.error_estimate == pytest.approx(1.1e-10, rel=1e-12, abs=0.0)
    assert c.evaluations == 45
    assert not c.converged


@given(c0=st.floats(-5, 5), c1=st.floats(-5, 5), c2=st.floats(-5, 5),
       c3=st.floats(-5, 5),
       a=st.floats(-3, 3), width=st.floats(0.1, 5))
@settings(max_examples=60, deadline=None)
def test_cubic_integrated_exactly(c0, c1, c2, c3, a, width):
    b = a + width
    f = lambda x: c0 + c1 * x + c2 * x**2 + c3 * x**3
    antider = lambda x: c0 * x + c1 * x**2 / 2 + c2 * x**3 / 3 + c3 * x**4 / 4
    res = integrate_finite(f, a, b, CFG)
    assert res.value == pytest.approx(antider(b) - antider(a),
                                      rel=1e-10, abs=1e-10)


@given(scale=st.floats(0.01, 100.0))
@settings(max_examples=30, deadline=None)
def test_exponential_any_scale(scale):
    res = integrate_semi_infinite(lambda x: np.exp(-x / scale), 0.0, CFG,
                                  tail_scale=scale)
    assert res.value == pytest.approx(scale, rel=1e-8)


# the kinked rows need about 50 bisections at this tolerance
SLOTS = QuadratureConfig(rel_tol=3e-14, abs_tol=0.0, max_subdivisions=40)


def test_lockstep_slot_growth_matches_per_node_loop():
    # 40 rows: most of those below the kink spend the whole budget, so
    # their slot arrays are widened three times, while the others stop
    # after a few bisections
    xs = np.linspace(0.0, 6.0, 40)
    value, error, evals = _semi_infinite_rows(
        lambda rows, y: _kinked(xs[rows, None], y), xs, 1.0, SLOTS)
    converged = _converged(value, error, SLOTS)
    for i, x in enumerate(xs):
        ref = _heap_semi_infinite(lambda y: _kinked(x, y), x, SLOTS,
                                  tail_scale=1.0)
        assert value[i].tobytes() == np.float64(ref.value).tobytes()
        assert error[i] == pytest.approx(ref.error_estimate, rel=1e-14,
                                         abs=0.0)
        assert evals[i] == ref.evaluations
        assert converged[i] == ref.converged
    budget = 1 + 15 + 30 * SLOTS.max_subdivisions
    assert (evals == budget).sum() > 5 and converged.sum() > 20


def test_inner_lockstep_slots_grow_with_use():
    # 270 rows at a budget of 2000 bisections: slot arrays sized for the
    # whole budget would take 270*(4 + 4000) slots of 4 arrays, 34.6 MB;
    # these rows stop after a few bisections
    xs = np.linspace(0.0, 8.0, 270)
    config = replace(CFG, max_subdivisions=2000)
    tracemalloc.start()
    try:
        _, _, evals = _semi_infinite_rows(
            lambda rows, y: _smooth(xs[rows, None], y), xs, 1.0, config,
            t_edges=_INNER_T_EDGES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert evals.max() < 1 + 4 * 15 + 30 * 20
    assert peak < 4e6


@pytest.mark.parametrize("f", [
    _smooth,
    lambda x, y: np.exp(-y) * (1.0 + 1j * x * y) / (1.0 + y**2),
], ids=["real", "complex"])
def test_semi_infinite_rows_do_not_depend_on_batch(f):
    # each row's value, error and evaluation count are the same bits in a
    # batch of 40 rows, which share their initial grid and its map and
    # take their tail nodes with it, as alone
    xs = np.linspace(0.0, 8.0, 40)
    config = replace(CFG, rel_tol=1e-12, abs_tol=0.0)
    value, error, evals = _semi_infinite_rows(
        lambda rows, y: f(xs[rows, None], y), xs, 0.5, config,
        t_edges=_INNER_T_EDGES)
    assert len(set(evals)) > 1
    for i in range(len(xs)):
        x = xs[i:i + 1]
        row_value, row_error, row_evals = _semi_infinite_rows(
            lambda rows, y: f(x[rows, None], y), x, 0.5, config,
            t_edges=_INNER_T_EDGES)
        assert value[i].tobytes() == row_value[0].tobytes()
        assert error[i].tobytes() == row_error[0].tobytes()
        assert evals[i] == row_evals[0]
