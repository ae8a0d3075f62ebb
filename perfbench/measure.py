"""One measuring process: set up, warm up, time sweeps, check, report.

Started by run.py with the grid and the reference already on disk, so
that set-up time covers importing magcp, building the inputs and loading
the reference, and nothing else.  Prints one JSON object as its last line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import magcp  # noqa: E402
import magcp.cli  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MIN_SWEEPS = 3           # plain sweeps timed in a --trace 0 run, at least


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


class Job:
    """The workload's inputs, built once; sweep() runs it end to end."""

    def __init__(self, workload, grid, workdir):
        self.workload = workload
        self.grid = grid
        if workload.name in wl.CLI_COMMAND:
            self.config = os.path.join(workdir, "job.json")
            self.warm_config = os.path.join(workdir, "warm.json")
            wl.write_job(self.config, workload, grid)
            wl.write_job(self.warm_config, workload, grid[-1:])
        else:
            self.quad = magcp.QuadratureConfig(**wl.QUAD)

    def sweep(self, tracer, warm=False):
        if self.workload.name in wl.CLI_COMMAND:
            path = self.warm_config if warm else self.config
            return wl.run_cli_sweep(magcp, self.workload, path)
        grid = self.grid[-1:] if warm else self.grid
        return wl.run_library_sweep(magcp, grid, self.quad, tracer)


def _timed_sweep(job, spans):
    tracer = tracing.Tracer(magcp, spans=spans).install(job.workload.name,
                                                       job.grid)
    try:
        t0 = time.perf_counter()
        sweep = job.sweep(tracer)
        dt = time.perf_counter() - t0
    finally:
        tracer.restore()
    return dt, sweep, tracer


def _point_seconds(sweep, tracer):
    return sweep.point_s if sweep.point_s else dict(tracer.point_s)


def _point_p50(runs):
    """Median point time within each sweep, then the median over sweeps."""
    return statistics.median(
        statistics.median(_point_seconds(sweep, tracer).values())
        for _, sweep, tracer in runs)


def _end_to_end(job, runs, ref, setup_s):
    times = [dt for dt, _, _ in runs]
    per_point = {}
    for _, sweep, tracer in runs:
        for i, s in _point_seconds(sweep, tracer).items():
            per_point.setdefault(i, []).append(s)
    cmp_ = check.compare(runs[-1][1].values, ref["outputs"], wl.REL_TOL)
    attempted = failed = raised = 0
    for _, sweep, tracer in runs:
        a, f, r = check.failures(tracer.calls, sweep)
        attempted, failed, raised = attempted + a, failed + f, raised + r
    repeatable = all(s.values == runs[0][1].values for _, s, _ in runs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (statistics.median(times), "s"),
        "within_tol_frac": (cmp_.within_tol_frac, "1"),
        "converged_frac": (1.0 - failed / attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    details = {
        "sweeps": len(runs), "sweep_s_all": times,
        "point_s": [statistics.median(per_point[i]) for i in sorted(per_point)],
        "points": len(job.grid), "failed_results": failed,
        "checked": cmp_.checked, "within": cmp_.within,
        "worst_rel_err": cmp_.worst_rel_err,
        "unverified": [list(k) for k in cmp_.unverified],
        "missing": [list(k) for k in cmp_.missing],
        "extra": [list(k) for k in cmp_.extra],
        "nonfinite_mismatch": [list(k) for k in cmp_.nonfinite_mismatch],
        "gross_errors": [list(k) for k in cmp_.gross],
        "repeatable": repeatable,
        "reference_pc_crosscheck_ok": ref["pc_crosscheck_ok"],
    }
    correct = cmp_.ok and repeatable and ref["pc_crosscheck_ok"]
    return correct, attempted, raised, metrics, details


def _component_errors(calls, raw):
    """Component integrals against their verified references: the ratios
    error_estimate / actual error, and the relative errors of the results
    that report converged=True."""
    ratios, rel_errs = [], []
    for c in calls:
        ref = raw.get(c.key)
        if c.result is None or ref is None or not ref[1]:
            continue
        err = abs(complex(c.result.value) - ref[0])
        if c.result.converged and abs(ref[0]):
            rel_errs.append(err / abs(ref[0]))
        if err > 0 and c.result.evaluations > 0:
            ratios.append(c.result.error_estimate / err)
    return ratios, rel_errs


def _per_layer(job, plain, traced, ref):
    raw = {(c[0], c[1], c[2], bool(c[3])): (complex(c[4], c[5]), c[6])
           for c in ref["components"]}
    samples = []
    for dt, sweep, tracer in traced:
        sm = tracing.span_metrics(tracer.spans)
        calls = tracer.calls
        evals = sum(c.result.evaluations for c in calls if c.result)
        per_point = {}
        for c in calls:
            per_point.setdefault(c.request, []).append(c.key)
        repeats = sum(len(keys) - len(set(keys)) for keys in per_point.values())
        ratios, rel_errs = _component_errors(calls, raw)
        imag = sm["materials.fresnel_imag"]
        m = {
            "materials.fresnel_imag.calls": imag["calls"],
            "materials.fresnel_imag.points": imag["points"],
            "materials.fresnel_imag.self_s": imag["self_s"],
            "materials.fresnel_imag.ns_per_point":
                imag["self_s"] * 1e9 / imag["points"] if imag["points"] else 0.0,
            "quadrature.inner.calls": tracing.inner_calls(tracer.spans),
            "quadrature.evals": evals,
            "quadrature.evals_per_point": evals / len(job.grid),
            "quadrature.est_over_true": tracing.median_or_zero(ratios),
            "potentials.repeat_frac": repeats / len(calls) if calls else 0.0,
            "potentials.max_err_over_tol":
                max(rel_errs, default=0.0) / wl.REL_TOL,
            "mechanics.self_s": sm["mechanics.force_breakdown"]["self_s"]
                + sm["mechanics.spin_threshold"]["self_s"],
            "cli.main.s": sm["cli.main"]["s"],
            "cli.self_s": sm["cli.main"]["self_s"],
            "cli.output_bytes": sweep.output_bytes,
        }
        fr = sm["materials.fresnel_real"]
        m.update({"materials.fresnel_real.calls": fr["calls"],
                  "materials.fresnel_real.points": fr["points"],
                  "materials.fresnel_real.self_s": fr["self_s"]})
        for layer in ("nested", "semi_infinite", "finite"):
            s = sm["quadrature." + layer]
            m[f"quadrature.{layer}.calls"] = s["calls"]
            m[f"quadrature.{layer}.self_s"] = s["self_s"]
        for comp in tracing.COMPONENTS:
            s = sm["potentials." + comp]
            m[f"potentials.{comp}.calls"] = s["calls"]
            m[f"potentials.{comp}.s"] = s["s"]
        for name in ("potential_breakdown", "decay_breakdown"):
            m[f"potentials.{name}.s"] = sm["potentials." + name]["s"]
        for name in ("force_breakdown", "spin_threshold"):
            s = sm["mechanics." + name]
            m[f"mechanics.{name}.calls"] = s["calls"]
            m[f"mechanics.{name}.s"] = s["s"]
        samples.append(m)
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics["sweep.point_s_p50"] = _point_p50(plain)
    metrics["trace.overhead_frac"] = (
        statistics.median(dt for dt, _, _ in traced)
        / statistics.median(dt for dt, _, _ in plain) - 1.0)
    return metrics


UNITS = {"calls": "count", "points": "count", "evals": "count",
         "output_bytes": "count", "ns_per_point": "ns",
         "evals_per_point": "count", "s": "s", "self_s": "s",
         "point_s_p50": "s"}


def _unit(name):
    return UNITS.get(name.rsplit(".", 1)[-1], "1")


def main(argv=None):
    args = _parse(argv)
    if not os.path.abspath(magcp.__file__).startswith(
            os.environ.get("PERFBENCH_SRC", "\0")):
        sys.stderr.write(f"magcp imported from {magcp.__file__}, not from "
                         "this checkout\n")
        return 2
    workload = wl.WORKLOADS[args.workload]
    with open(os.path.join(args.workdir, "grid.json")) as fh:
        grid = json.load(fh)
    job = Job(workload, grid, args.workdir)
    with open(os.path.join(args.workdir, "reference.json")) as fh:
        ref = json.load(fh)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    job.sweep(None, warm=True)
    plain, traced = [], []
    # A minimum count, so that one sweep slowed by the host is outvoted
    # and a slow first sweep does not end the run on its own.
    min_sweeps = 1 if args.trace else MIN_SWEEPS
    start = time.perf_counter()
    while True:
        plain.append(_timed_sweep(job, spans=False))
        if args.trace:
            traced.append(_timed_sweep(job, spans=True))
        elapsed = time.perf_counter() - start
        if (len(plain) >= min_sweeps
                and elapsed * (len(plain) + 1) / len(plain) > args.seconds):
            break

    correct, attempted, raised, e2e, details = _end_to_end(job, plain, ref,
                                                          setup_s)
    details.update({
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "reference_seconds": ref["seconds"],
    })
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in _per_layer(job, plain, traced, ref).items()}
        traced[0][2].write_spans(os.path.join(args.workdir, "spans.jsonl.gz"))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": raised, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
