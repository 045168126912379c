"""The paretocert benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a source checkout (paretocert is imported from
``src``). The run writes the workload's inputs from the seed, times fresh
interpreters importing paretocert (``setup_s``), runs the jobs in a worker
process for ``S`` seconds after one warm-up job, checks every timed job's
output and prints, as its last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, job_s.p50,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones of tracer.py.
Scratch files go to ``.bench_out/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh starts per run for setup_s, half before and half after the jobs, so
# that a slow phase of the machine during either end does not set the median.
SETUP_STARTS = 8
WORKER_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # BLAS held to one thread
    return env


def _fresh_import(env: dict) -> float:
    """Seconds for a new interpreter to start, import paretocert and exit."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import paretocert; print(paretocert.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip().startswith(str(SRC)):
        raise RuntimeError(f"cannot import paretocert from {SRC}: {proc.stderr.strip()[-500:]}")
    return elapsed


def _check_job(plan: dict, job: dict, oracle) -> list[str]:
    report = json.loads(Path(job["outputs"]["report"]).read_text(encoding="utf-8"))
    expect = plan["expect"]
    if plan["workload"] == "soland_anchors":
        return checks.check_soland(report, expect)
    if plan["workload"] == "plane2d":
        return checks.check_plane2d(report, expect)
    efficient = json.loads(Path(job["outputs"]["filter"]).read_text(encoding="utf-8"))
    return checks.check_cloud3d(report, efficient, expect, oracle)


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    env = _env()
    plan = workloads.prepare(workload, seed, scratch)
    plan_file = scratch / "plan.json"
    plan_file.write_text(json.dumps(plan), encoding="utf-8")

    setup = [_fresh_import(env) for _ in range(SETUP_STARTS // 2)]
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(plan_file),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup += [_fresh_import(env) for _ in range(SETUP_STARTS - len(setup))]

    oracle = checks.cloud_oracle(plan["expect"]) if workload == "cloud3d" else None
    failed = 0
    correct = True
    for index, job in enumerate(result["jobs"]):
        if job["exit_code"] != 0:
            failed += 1
            print(f"job {index}: exit code {job['exit_code']}", file=sys.stderr)
            continue
        failures = _check_job(plan, job, oracle)
        if failures:
            failed += 1
            correct = False
            for line in failures[:20]:
                print(f"job {index}: {line}", file=sys.stderr)

    if trace:
        units = dict(PER_LAYER)
        metrics = {
            name: {"value": value, "unit": units[name]} for name, value in result["layers"].items()
        }
    else:
        job_s = statistics.median(job["seconds"] for job in result["jobs"])
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "job_s.p50": {"value": job_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": correct,
        "attempted": len(result["jobs"]),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "paretocert" / "__init__.py").is_file():
        print(f"error: no paretocert sources under {SRC}", file=sys.stderr)
        return 2
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
