"""magcp benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload metal_potential --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout.  The seed draws the distance grid; the
reference is computed in its own process (and cached under .perfbench/,
keyed by the grid and the source of magcp and of this benchmark); set-up
is then timed in several fresh processes and the sweeps in one more.
All processes run one after another, with BLAS and OpenMP pinned to one
thread.  The last line of stdout is the result JSON; the line before it
carries details (versions, nproc, unverified reference values).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUPS = 5               # set-up is timed in this many fresh processes
DEADLINE_S = 170         # a run must end within 180 s, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PERFBENCH_SRC"] = str(SRC) + os.sep
    return env


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("magcp/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _child(args: list[str], deadline: float) -> str:
    """Run a benchmark script to completion; it is killed at the deadline."""
    proc = subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}")
    return proc.stdout


def _reference(workload, grid, workdir: Path, deadline: float) -> Path:
    key = hashlib.sha256(json.dumps([workload.name, grid,
                                     _source_digest()]).encode())
    cached = STATE / "cache" / f"ref-{key.hexdigest()[:24]}.json"
    if not cached.exists():
        cached.parent.mkdir(parents=True, exist_ok=True)
        _child([str(HERE / "reference.py"), "--workload", workload.name,
                "--grid-file", str(workdir / "grid.json"),
                "--out", str(cached)], deadline)
    return cached


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run(workload_name: str, seed: int, seconds: float, trace: int,
        points: int | None = None) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    workload = wl.WORKLOADS[workload_name]
    grid = wl.make_grid(workload, seed, points)
    workdir = STATE / "runs" / f"{workload.name}-seed{seed}-trace{trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "grid.json").write_text(json.dumps(grid))
    ref = _reference(workload, grid, workdir, deadline)
    (workdir / "reference.json").write_bytes(ref.read_bytes())

    measure = [str(HERE / "measure.py"), "--workload", workload.name,
               "--workdir", str(workdir)]
    setups = [] if trace else [
        _last_json(_child(measure + ["--setup-only"], deadline))
        ["setup_s"] for _ in range(SETUPS - 1)]
    out = _child(measure + ["--seconds", str(seconds), "--trace", str(trace)],
                 deadline)
    details = _last_json(out.strip().rsplit("\n", 1)[0])["details"]
    result = _last_json(out)
    if not trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    details.update({"workload": workload.name, "seed": seed, "grid": grid,
                    "setup_s_all": setups})
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="magcp benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--points", type=int,
                    help="distance points per sweep (default: the workload's)")
    args = ap.parse_args(argv)
    if not (SRC / "magcp" / "__init__.py").is_file():
        sys.stderr.write(f"no magcp sources under {SRC}; run from the root "
                         "of a magcp checkout\n")
        return 2
    try:
        result, details = run(args.workload, args.seed, args.seconds,
                              args.trace, args.points)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"result": result,
                                            "details": details}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
