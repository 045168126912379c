"""Runs one workload's jobs in a process of its own and times them.

    python3 bench/worker.py PLAN.json --seconds S --trace 0|1

with ``src`` on ``PYTHONPATH``. The plan comes from ``workloads.prepare``.
After one untimed warm-up job the worker runs jobs until ``S`` seconds have
passed and prints one JSON line: for each job its wall time, its exit code
and output files; and the peak resident set of this process. With
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the line adds the per-layer metrics of the traced jobs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from paretocert import cli, pareto
from paretocert.problems import load_problem

from tracer import PER_LAYER, Tracer


def _make_job(plan: dict, out_dir: Path):
    """A function running one job; it returns the exit code and output files."""
    argv = list(plan["report_argv"])
    cloud = None
    if plan["cloud_file"] is not None:
        text = Path(plan["cloud_file"]).read_text(encoding="utf-8")
        cloud = load_problem(text, label=plan["cloud_file"])
    count = 0

    def job():
        nonlocal count
        count += 1
        report = out_dir / f"report_{count:03d}.json"
        outputs = {"report": str(report)}
        start = perf_counter()
        if cloud is not None:
            efficient = pareto.pareto_filter(cloud)
        code = cli.main(argv + ["--out", str(report)])
        elapsed = perf_counter() - start
        if cloud is not None:
            path = out_dir / f"filter_{count:03d}.json"
            path.write_text(json.dumps(efficient), encoding="utf-8")
            outputs["filter"] = str(path)
        return elapsed, code, outputs

    return job


def _run_for(job, seconds: float, tracer: Tracer | None = None) -> list[dict]:
    jobs = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        elapsed, code, outputs = job()
        record = {"seconds": elapsed, "exit_code": code, "outputs": outputs}
        if tracer is not None:
            record["layers"] = tracer.snapshot()
        jobs.append(record)
        if perf_counter() - start >= seconds:
            return jobs


def _layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Counts of one traced job (they must repeat) and median times."""
    out = {}
    for name, unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        values = [job["layers"].get(name, 0) for job in traced]
        if unit == "count":
            if len(set(values)) > 1:
                print(f"warning: {name} differs between traced jobs: {values}", file=sys.stderr)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    traced_p50 = statistics.median(job["seconds"] for job in traced)
    out["trace.job_s.p50"] = traced_p50
    out["trace.overhead_s"] = traced_p50 - statistics.median(job["seconds"] for job in untraced)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    out_dir = Path(args.plan).parent
    job = _make_job(plan, out_dir)
    job()  # warm-up: caches, lazy imports and page faults are paid here
    result = {}
    if args.trace:
        untraced = _run_for(job, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _run_for(job, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        result["jobs"] = untraced + traced
        result["layers"] = _layer_metrics(untraced, traced)
    else:
        result["jobs"] = _run_for(job, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
