"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The smoke tests run every workload end to end on one distance point.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

import magcp  # noqa: E402
import magcp.cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- workload generator ------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_grid_is_deterministic_per_seed(name):
    w = wl.WORKLOADS[name]
    a, b, c = wl.make_grid(w, 7), wl.make_grid(w, 7), wl.make_grid(w, 8)
    assert a == b
    assert a != c
    assert a == sorted(a) and len(a) == w.points
    lo, hi = w.z_range
    assert all(lo <= z <= hi for z in a)


def test_grid_has_one_point_per_log_stratum():
    w = wl.WORKLOADS["metal_potential"]
    grid = wl.make_grid(w, 3)
    lo, hi = (math.log10(v) for v in w.z_range)
    strata = [int((math.log10(z) - lo) / (hi - lo) * w.points) for z in grid]
    assert strata == list(range(w.points))


def test_job_config_pins_every_tolerance(monkeypatch):
    monkeypatch.setenv("MAGCP_QUAD_RTOL", "1e-2")
    w = wl.WORKLOADS["metal_potential"]
    cfg = magcp.cli.JobConfig(wl.job_config(w, [0.5, 2.0]))
    assert cfg.quad == magcp.QuadratureConfig(**wl.QUAD)
    assert cfg.quad.rel_tol == wl.REL_TOL


# -- checker -------------------------------------------------------------

REF = [[0, "a", 1.0, True], [1, "a", -2.0, True], [2, "a", math.inf, True],
       [3, "a", 5.0, False]]


def _exact():
    return {(0, "a"): 1.0, (1, "a"): -2.0, (2, "a"): math.inf, (3, "a"): 9.0}


def test_checker_accepts_exact_values_and_skips_unverified():
    c = check.compare(_exact(), REF, wl.REL_TOL)
    assert c.within_tol_frac == 1.0 and c.ok
    assert c.checked == 3 and c.unverified == [(3, "a")]


def test_checker_lowers_within_tol_frac_on_a_perturbed_value():
    values = _exact()
    values[(1, "a")] = -2.0 * (1.0 + 10.0 * wl.REL_TOL)
    c = check.compare(values, REF, wl.REL_TOL)
    assert c.within_tol_frac == pytest.approx(2.0 / 3.0)
    assert c.ok  # a tolerance miss is measured, not a wrong answer


def test_checker_requires_nonfinite_values_to_match():
    values = _exact()
    values[(2, "a")] = 1e30
    c = check.compare(values, REF, wl.REL_TOL)
    assert c.nonfinite_mismatch == [(2, "a")] and not c.ok


def test_checker_flags_missing_and_gross_errors():
    values = _exact()
    del values[(0, "a")]
    values[(1, "a")] = -3.0
    c = check.compare(values, REF, wl.REL_TOL)
    assert c.missing == [(0, "a")] and c.gross == [(1, "a")] and not c.ok


def test_exit_4_job_is_counted_not_crashed_on():
    # Ten subdivisions cannot reach 1e-6: the job exits 4 with full output.
    quad = dict(wl.QUAD, max_subdivisions=10)
    w = wl.WORKLOADS["metal_potential"]
    work = ROOT / ".perfbench" / "tests"
    work.mkdir(parents=True, exist_ok=True)
    path = str(work / "exit4.json")
    wl.write_job(path, w, [0.01], quad)
    tracer = tracing.Tracer(magcp, spans=False).install(w.name, [0.01])
    try:
        sweep = wl.run_cli_sweep(magcp, w, path)
    finally:
        tracer.restore()
    assert sweep.exit_code == magcp.cli.EXIT_NOT_CONVERGED
    assert set(sweep.values) == {(0, c) for c in wl.CLI_COLUMNS[w.name]}
    attempted, failed, raised = check.failures(tracer.calls, sweep)
    assert attempted == 3 and failed >= 1 and raised == 0


def test_unexplained_exit_code_counts_as_one_failure():
    sweep = wl.SweepResult({}, 4, 0, [], {})
    assert check.failures([], sweep) == (1, 1, 1)


# -- tracing -------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = [["outer", 0, 100, -1, 0, 0], ["mid", 10, 60, 0, 0, 0],
             ["leaf", 20, 30, 1, 0, 5], ["leaf", 70, 90, 0, 0, 7]]
    m = tracing.span_metrics(spans)
    assert m["outer"]["self_s"] == pytest.approx(30e-9)
    assert m["mid"]["self_s"] == pytest.approx(40e-9)
    assert m["leaf"]["calls"] == 2 and m["leaf"]["points"] == 12


def test_inner_calls_skip_the_outer_pass():
    semi, nested = "quadrature.semi_infinite", "quadrature.nested"
    spans = [[nested, 0, 9, -1, 0, 0], [semi, 1, 8, 0, 0, 0],
             ["quadrature.finite", 2, 7, 1, 0, 0], [semi, 3, 4, 2, 0, 0],
             [semi, 5, 6, 2, 0, 0], [semi, 10, 11, -1, 0, 0]]
    assert tracing.inner_calls(spans) == 2


def test_tracer_restores_every_binding():
    before = {(m, a): getattr(getattr(magcp, m), a)
              for _, targets in tracing.LAYERS for m, a in targets}
    tracing.Tracer(magcp, spans=True).install("metal_potential", [1.0]) \
        .restore()
    after = {k: getattr(getattr(magcp, k[0]), k[1]) for k in before}
    assert before == after


# -- reference ------------------------------------------------------------

def test_reference_rules_integrate_known_integrals():
    rules = reference.ReferenceRules(magcp, 16)
    cfg = magcp.QuadratureConfig(**reference.REF_QUAD)
    semi = rules.integrate_semi_infinite(lambda x: np.exp(-x), 0.0, cfg)
    assert semi.value == pytest.approx(1.0, rel=1e-13)
    fin = rules.integrate_finite(lambda x: x**0.5, 0.0, 1.0, cfg,
                                 max_panel_width=0.1)
    assert fin.value == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_reference_matches_perfect_conductor_closed_forms():
    rules = reference.ReferenceRules(magcp, 16)
    undo = rules.install()
    try:
        gap = reference.pc_crosscheck(
            magcp, [2e-3, 0.5, 80.0], magcp.QuadratureConfig(**reference.REF_QUAD))
    finally:
        undo()
    assert gap < reference.VERIFY_TOL


# -- end to end -----------------------------------------------------------

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_one_point_smoke_run(name, trace):
    proc = _run(["--workload", name, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--points", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and name == "resonant_decay":
        assert metrics["quadrature.nested.calls"] == 0
        assert metrics["quadrature.inner.calls"] == 0
    if trace and name == "metal_potential":
        assert metrics["potentials.repeat_frac"] == 0
    if trace and name == "plasma_threshold":
        assert metrics["potentials.repeat_frac"] == pytest.approx(0.7)


def test_benchmark_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "tests" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(["--workload", "metal_potential", "--seed", "1",
                 "--seconds", "1"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not os.path.exists(bare)
