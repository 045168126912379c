"""Inputs of the benchmark workloads, made from a seed.

Every workload is a list of identical jobs. ``prepare`` writes the inputs a
job needs into a work directory and returns a plan: the job description the
worker runs and the expected values the output checks compare against.
Nothing here imports paretocert, so the expectations stay independent of the
program under test.

    python3 bench/workloads.py cloud3d --seed 7 --out cloud.json

writes the ``cloud3d`` cloud for a seed (see README.md).
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("soland_anchors", "plane2d", "cloud3d")

# soland_anchors: the paper's example, the origin is the Soland point.
# Depth 24 is the deepest at which every anchor exits 0 (deeper ladders hit
# "singular basis matrix" in the simplex).
SOLAND_LEVELS = 24
SOLAND_ANCHORS = tuple(k / 8 for k in range(33))  # 0, 0.125, ..., 4

# plane2d: a concave 2-D image with a criterion-space description; the probe
# points are the default uniform 5x5 decision grid.
PLANE2D_PROBLEM = {
    "type": "analytic",
    "decision_dim": 2,
    "criterion_dim": 3,
    "domain": [[0, 1], [0, 1]],
    "criteria": ["x0", "x1", "-(x0^2 + x1^2)"],
    "constraints": {
        "ineq": ["-y0", "-y1", "y0 - 1", "y1 - 1"],
        "eq": ["y2 + y0^2 + y1^2"],
    },
}
PLANE2D_GRID = 9
PLANE2D_LEVELS = 8
PLANE2D_PROBES = tuple((a / 4, b / 4) for a in range(5) for b in range(5))

# cloud3d: half the points on y2 = -(y0^2 + y1^2) over [0,1]^2, half pushed
# down from a surface point, so the efficient set is the surface half.
CLOUD3D_SIZE = 6000
CLOUD3D_SURFACE_REFS = 12
CLOUD3D_SHIFTED_REFS = 4
CLOUD3D_MAX_SHIFT = 0.2
CLOUD3D_MIN_SHIFT = 0.01  # added to one coordinate, so no shift is all zero


def make_cloud3d(seed: int, size: int = CLOUD3D_SIZE) -> dict:
    """The cloud3d points, the indices of its surface points and the reference
    indices (the surface references first, then the shifted ones)."""
    rng = np.random.default_rng(seed % 2**64)  # numpy takes no negative seed
    half = size // 2
    uv = rng.random((half, 2))
    surface = np.column_stack([uv, -(uv[:, 0] ** 2 + uv[:, 1] ** 2)])
    origin = rng.integers(half, size=size - half)
    shift = rng.random((size - half, 3)) * CLOUD3D_MAX_SHIFT
    shift[np.arange(size - half), rng.integers(3, size=size - half)] += CLOUD3D_MIN_SHIFT
    shifted = surface[origin] - shift
    order = rng.permutation(size)
    points = np.vstack([surface, shifted])[order]
    is_surface = order < half
    surface_idx = np.flatnonzero(is_surface)
    refs = np.concatenate(
        [
            rng.choice(surface_idx, CLOUD3D_SURFACE_REFS, replace=False),
            rng.choice(np.flatnonzero(~is_surface), CLOUD3D_SHIFTED_REFS, replace=False),
        ]
    )
    return {
        "points": points.tolist(),
        "surface": surface_idx.tolist(),
        "refs": [int(i) for i in refs],
    }


def cloud_document(points) -> dict:
    return {"type": "cloud", "criterion_dim": 3, "points": points}


def _point_flag(vector) -> str:
    # repr round-trips a float exactly, so the reference is the cloud point
    return "--point=" + ",".join(repr(float(v)) for v in vector)


def prepare(workload: str, seed: int, workdir: Path, *, cloud_size: int = CLOUD3D_SIZE) -> dict:
    """Write the inputs of ``workload`` into ``workdir`` and return its plan."""
    if workload == "soland_anchors":
        anchors = list(SOLAND_ANCHORS)
        random.Random(seed).shuffle(anchors)  # record order must not matter
        argv = ["report", "builtin:soland", "--levels", str(SOLAND_LEVELS)]
        for x in anchors:
            argv += ["--point-decision", repr(x)]
        return {
            "workload": workload,
            "report_argv": argv,
            "cloud_file": None,
            "expect": {"anchors": anchors, "levels": SOLAND_LEVELS},
        }
    if workload == "plane2d":
        path = workdir / "plane2d.json"
        path.write_text(json.dumps(PLANE2D_PROBLEM), encoding="utf-8")
        argv = [
            "report", str(path),
            "--grid", str(PLANE2D_GRID),
            "--levels", str(PLANE2D_LEVELS),
        ]
        return {
            "workload": workload,
            "report_argv": argv,
            "cloud_file": None,
            "expect": {"probes": [list(p) for p in PLANE2D_PROBES], "levels": PLANE2D_LEVELS},
        }
    if workload == "cloud3d":
        cloud = make_cloud3d(seed, cloud_size)
        path = workdir / "cloud3d.json"
        path.write_text(json.dumps(cloud_document(cloud["points"])), encoding="utf-8")
        argv = ["report", str(path)] + [_point_flag(cloud["points"][i]) for i in cloud["refs"]]
        return {
            "workload": workload,
            "report_argv": argv,
            "cloud_file": str(path),
            "expect": {
                "cloud_file": str(path),
                "surface": cloud["surface"],
                "refs": cloud["refs"],
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description="write the cloud3d input for a seed")
    parser.add_argument("workload", choices=["cloud3d"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    cloud = make_cloud3d(args.seed)
    Path(args.out).write_text(json.dumps(cloud_document(cloud["points"])), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
