"""Output checks for the benchmark jobs, computed apart from paretocert.

Each ``check_*`` function takes a parsed report (and, for cloud3d, the
indices ``pareto_filter`` returned) plus the workload's expectations, and
returns a list of failures; an empty list means the job is correct. The
expected values come from closed forms of the workload geometry and, where
scipy imports, from HiGHS. The verdicts ``proper`` and ``persistent`` at
boundary points are not checked: the sampled evidence there disagrees with
the KKT obstruction (see CHANGES.md).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SOLAND_DOMAIN = (0.0, 4.0)
SOLAND_GRID = 257  # the report's default uniform resolution
WITNESS_LEVELS = 12  # the depth cap of the witness sample
SOLAND_MARGIN_GAP = 1e-6
WEIGHT_TOL = 1e-6
LOWER_BOUND_SLACK = 1e-12
S_STAR_TOL = 1e-9
CLOUD_FEASIBILITY_TOL = 1e-9
CLOUD_WEIGHT_MARGIN_TOL = 1e-12
HIGHS_TOL = 1e-7


def _close(a, b, tol) -> bool:
    return a is not None and abs(a - b) <= tol


def _kkt(record: dict) -> dict:
    return (record.get("kkt") or {}).get("certificate") or {}


# ---------------------------------------------------------------------------
# soland_anchors


def soland_margin(x: float) -> float:
    """Tangent-line support margin of the image curve y1 = -y0^(3/2) at x."""
    return min(1.5 * x, 1.0) / (1.5 * x + 1.0)


def soland_weights(x: float) -> tuple[float, float]:
    return (1.5 * x / (1.5 * x + 1.0), 1.0 / (1.5 * x + 1.0))


def soland_witness_decisions(anchor: float, levels: int) -> np.ndarray:
    """Decisions of the witness sample: the uniform grid plus the geometric
    refinement toward the anchor, capped at depth 12."""
    lo, hi = SOLAND_DOMAIN
    values = set(np.linspace(lo, hi, SOLAND_GRID).tolist())
    values.add(anchor)
    for k in range(1, min(levels, WITNESS_LEVELS) + 1):
        for v in (anchor - 2.0 ** -k, anchor + 2.0 ** -k):
            if lo <= v <= hi:
                values.add(v)
    return np.array(sorted(values))


def _check_soland_witness(x: float, witness: dict, levels: int) -> list[str]:
    failures = []
    decisions = soland_witness_decisions(x, levels)
    if witness.get("sample_size") != len(decisions):
        failures.append(
            f"x={x}: witness sample has {witness.get('sample_size')} points, expected {len(decisions)}"
        )
    w = np.asarray(witness["weights"], dtype=float)
    a = np.asarray(witness["anchor"], dtype=float)
    c = float(witness["curvature"])
    others = decisions[decisions != x]
    y = np.column_stack([others**2, -(others**3)])
    gap = (w @ a) - (y @ w - c * ((y - a) ** 2).sum(axis=1))
    if not (c > 0 and float(gap.min()) > 0):
        failures.append(
            f"x={x}: witness is not uniquely maximal at the anchor (smallest gap {gap.min()})"
        )
    # the gradient w - 2c(y - a) is affine, so its box minimum is at a corner
    corners = np.array(np.meshgrid(*witness["box"])).reshape(2, -1).T
    if float((w - 2.0 * c * (corners - a)).min()) <= 0:
        failures.append(f"x={x}: witness is not strictly increasing on its box")
    return failures


def check_soland(report: dict, expect: dict) -> list[str]:
    failures = []
    levels = expect["levels"]
    tol_obstruction = report["config"]["tol_obstruction"]
    by_x = {record["decision"][0]: record for record in report["points"]}
    if sorted(by_x) != sorted(expect["anchors"]) or len(report["points"]) != len(expect["anchors"]):
        return [f"report anchors {sorted(by_x)} differ from {sorted(expect['anchors'])}"]
    for x, record in sorted(by_x.items()):
        if record["efficient"] is not True:
            failures.append(f"x={x}: not efficient")
        cert = _kkt(record)
        sup = record["support"]
        if x == 0.0:
            if cert.get("conclusion") != "obstruction":
                failures.append(f"x=0: kkt conclusion {cert.get('conclusion')!r}, expected obstruction")
            s_star = cert.get("s_star")
            if s_star is None or s_star > tol_obstruction:
                failures.append(f"x=0: s_star {s_star} above {tol_obstruction}")
            ratios = (record.get("divergence") or {}).get("ratios") or []
            expected = [2.0**k for k in range(1, levels + 1)]
            if len(ratios) != levels or any(
                not math.isclose(r, e, rel_tol=1e-12) for r, e in zip(ratios, expected)
            ):
                failures.append(f"x=0: divergence ratios are not 2^k, k=1..{levels}")
            if (sup.get("trend") or {}).get("verdict") != "vanishing":
                failures.append("x=0: margin trend is not vanishing")
            if sup.get("witness") is not None:
                failures.append("x=0: a witness is printed at the Soland point")
            continue
        margin = sup["margin"]["margin"]
        bound = soland_margin(x)
        if not bound - LOWER_BOUND_SLACK <= margin <= bound + SOLAND_MARGIN_GAP:
            failures.append(f"x={x}: margin {margin} not within [{bound}, {bound} + {SOLAND_MARGIN_GAP}]")
        weights = sup["margin"]["weights"]
        if weights is None or any(
            not _close(w, e, WEIGHT_TOL) for w, e in zip(weights, soland_weights(x))
        ):
            failures.append(f"x={x}: weights {weights} not near {soland_weights(x)}")
        if cert.get("conclusion") != "no_obstruction":
            failures.append(f"x={x}: kkt conclusion {cert.get('conclusion')!r}, expected no_obstruction")
        witness = sup.get("witness")
        if witness is None:
            failures.append(f"x={x}: no witness")
        else:
            failures += _check_soland_witness(x, witness, levels)
    return failures


# ---------------------------------------------------------------------------
# plane2d


def plane_margin(a: float, b: float) -> float:
    """Tangent-plane support margin of y2 = -(y0^2 + y1^2) at (a, b)."""
    return min(2 * a, 2 * b, 1.0) / (2 * a + 2 * b + 1.0)


def check_plane2d(report: dict, expect: dict) -> list[str]:
    failures = []
    gap = 2.0 ** -expect["levels"]  # the finest refinement offset
    tol_obstruction = report["config"]["tol_obstruction"]
    by_decision = {tuple(record["decision"]): record for record in report["points"]}
    probes = sorted(tuple(p) for p in expect["probes"])
    if sorted(by_decision) != probes or len(report["points"]) != len(probes):
        return [f"report probes {sorted(by_decision)} differ from {probes}"]
    for (a, b), record in sorted(by_decision.items()):
        where = f"({a}, {b})"
        if record["efficient"] is not True:
            failures.append(f"{where}: not efficient")
        cert = _kkt(record)
        s_star = cert.get("s_star")
        if a == 0.0 or b == 0.0:
            if cert.get("conclusion") != "obstruction" or s_star is None or s_star > tol_obstruction:
                failures.append(f"{where}: kkt {cert.get('conclusion')!r} with s_star {s_star}, expected obstruction")
        else:
            expected = min(2 * a, 2 * b, 1.0)
            if cert.get("conclusion") != "no_obstruction" or not _close(s_star, expected, S_STAR_TOL):
                failures.append(
                    f"{where}: kkt {cert.get('conclusion')!r} with s_star {s_star}, expected no_obstruction with {expected}"
                )
        margin = record["support"]["margin"]["margin"]
        bound = plane_margin(a, b)
        if not bound - LOWER_BOUND_SLACK <= margin <= bound + gap:
            failures.append(f"{where}: margin {margin} not within [{bound}, {bound} + {gap}]")
    return failures


# ---------------------------------------------------------------------------
# cloud3d


def highs_margin(diffs: np.ndarray) -> float | None:
    """The support margin LP solved by HiGHS, or None where scipy is missing."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    p = diffs.shape[1]
    # variables (w, t): maximize t, sum w = 1, t - w_i <= 0, <w, d> <= 0
    a_ub = np.zeros((len(diffs) + p, p + 1))
    a_ub[: len(diffs), :p] = diffs
    a_ub[len(diffs) :, :p] = -np.eye(p)
    a_ub[len(diffs) :, p] = 1.0
    res = linprog(
        c=np.r_[np.zeros(p), -1.0],
        A_ub=a_ub,
        b_ub=np.zeros(len(a_ub)),
        A_eq=np.r_[np.ones(p), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(None, None)] * (p + 1),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the margin LP: {res.message}")
    return -float(res.fun)


def cloud_oracle(expect: dict) -> dict:
    """Values every cloud3d job of one input is checked against."""
    doc = json.loads(Path(expect["cloud_file"]).read_text(encoding="utf-8"))
    points = np.asarray(doc["points"], dtype=float)
    surface = set(expect["surface"])
    highs = {
        i: highs_margin(points - points[i]) for i in expect["refs"] if i in surface
    }
    return {"points": points, "highs": highs}


def check_cloud3d(report: dict, efficient: list, expect: dict, oracle: dict) -> list[str]:
    failures = []
    points = oracle["points"]
    surface = set(expect["surface"])
    if efficient != expect["surface"]:
        failures.append(
            f"pareto_filter returned {len(efficient)} indices, not the {len(surface)} surface points"
        )
    records = report["points"]
    if len(records) != len(expect["refs"]):
        return failures + [f"report has {len(records)} points, expected {len(expect['refs'])}"]
    for i, record in zip(expect["refs"], records):
        where = f"reference {i}"
        y_ref = points[i]
        if record["criterion"] != y_ref.tolist():
            failures.append(f"{where}: criterion {record['criterion']} is not the cloud point")
            continue
        on_surface = i in surface
        if record["efficient"] is not on_surface:
            failures.append(f"{where}: efficient is {record['efficient']}, expected {on_surface}")
        sup = record["support"]
        if not on_surface:
            if record["proper_efficiency"]["status"] != "dominated":
                failures.append(f"{where}: status {record['proper_efficiency']['status']!r}, expected dominated")
            if sup.get("witness") is not None:
                failures.append(f"{where}: a witness is printed at a dominated point")
            continue
        margin = sup["margin"]["margin"]
        weights = sup["margin"]["weights"]
        if weights is None:
            failures.append(f"{where}: no support weights")
            continue
        w = np.asarray(weights, dtype=float)
        worst = float(np.max((points - y_ref) @ w))
        if worst > CLOUD_FEASIBILITY_TOL:
            failures.append(f"{where}: weights leave a point {worst} above the hyperplane")
        if not _close(float(w.min()), margin, CLOUD_WEIGHT_MARGIN_TOL):
            failures.append(f"{where}: smallest weight {w.min()} is not the margin {margin}")
        bound = plane_margin(y_ref[0], y_ref[1])
        if margin < bound - LOWER_BOUND_SLACK:
            failures.append(f"{where}: margin {margin} below the surface value {bound}")
        highs = oracle["highs"].get(i)
        if highs is not None and not _close(margin, highs, HIGHS_TOL):
            failures.append(f"{where}: margin {margin} differs from HiGHS {highs}")
    return failures
