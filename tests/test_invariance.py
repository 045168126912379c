"""Verdicts that do not depend on how a problem is written: listing the
criteria in another order is exact in floats, so it must change no verdict,
and for two criteria no margin bit where the closed form decides; reflecting
the decision domain must change no margin, ratio or verdict bit at all."""

import json

import numpy as np
import pytest

from paretocert import cli, support
from test_support import SLOW_SOLAND, level_ladder, recording_level_lps, two_criteria_sample

# builtin:soland with its criteria swapped, constraints rewritten to match
SWAPPED_SOLAND = {
    "type": "analytic", "decision_dim": 1, "criterion_dim": 2, "domain": [[0, 4]],
    "criteria": ["-x0^3", "x0^2"],
    "constraints": {"ineq": ["-y1"], "eq": ["y0 + y1^3/2"]},
}
# soland and the slow Soland problem with x -> lo + hi - x on their domains
REFLECTED_SOLAND = {
    "type": "analytic", "decision_dim": 1, "criterion_dim": 2, "domain": [[0, 4]],
    "criteria": ["(4 - x0)^2", "-((4 - x0)^3)"],
    "constraints": {"ineq": ["-y0"], "eq": ["y1 + y0^3/2"]},
}
REFLECTED_SLOW_SOLAND = dict(SLOW_SOLAND, criteria=["2 - x0", "-((2 - x0)^11/10)"])
TWO_D = {
    "type": "analytic", "decision_dim": 2, "criterion_dim": 3, "domain": [[0, 1], [0, 1]],
    "criteria": ["x0", "x1", "-(x0^2 + x1^2)"],
}


def report(tmp_path, problem, *flags):
    """The ``report`` payload of ``problem``, a builtin name or a document."""
    source = problem
    if isinstance(problem, dict):
        source = tmp_path / f"problem{len(list(tmp_path.iterdir()))}.json"
        source.write_text(json.dumps(problem))
    out = tmp_path / f"report{len(list(tmp_path.iterdir()))}.json"
    assert cli.main(["report", str(source), *flags, "--out", str(out)]) == 0
    return json.loads(out.read_text())["points"]


def verdicts(record):
    """Every verdict, status and flag of a point's record."""
    support_record = record["support"]
    witness = support_record.get("witness")
    return {
        "efficient": record["efficient"],
        "proper": record["proper_efficiency"]["status"],
        "growth": record["divergence"]["growth"],
        "trend": support_record["trend"]["verdict"],
        "feasible": support_record["margin"]["feasible"],
        "weighted": support_record["margin"]["weights"] is not None,
        "witness": witness and [c["passed"] for c in witness["verification"]["checks"]],
        "kkt": record["kkt"].get("error") or record["kkt"]["certificate"]["conclusion"],
    }


def test_swapped_soland_margins_equal_the_builtins_at_depth_60(tmp_path):
    # at anchor 3 the float cuts leave no weight from level 27 on, and the
    # LP's soft margins over the permuted rows may differ in the last bits
    builtin = report(tmp_path, "builtin:soland", "--levels", "60")
    swapped = report(tmp_path, SWAPPED_SOLAND, "--levels", "60")
    assert [r["decision"] for r in builtin] == [r["decision"] for r in swapped] == [[float(k)] for k in range(5)]
    for k, (b, s) in enumerate(zip(builtin, swapped)):
        assert verdicts(b) == verdicts(s)
        closed = 26 if k == 3 else 60
        b_margins, s_margins = b["support"]["trend"]["margins"], s["support"]["trend"]["margins"]
        assert repr(b_margins[:closed]) == repr(s_margins[:closed])
        weights = b["support"]["margin"]["weights"]
        if weights is not None:
            assert repr(weights[::-1]) == repr(s["support"]["margin"]["weights"])
    # the origin's margin is 2^-k/(1 + 2^-k) at every level, also below 2^-53
    origin = swapped[0]["support"]["trend"]["margins"]
    assert origin == [2.0**-k / (1 + 2.0**-k) for k in range(1, 61)]


def test_swapping_two_criteria_swaps_the_weights(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    solved = recording_level_lps(monkeypatch)

    def closed_form_levels(trend):
        # the LP solves the levels that the closed form leaves, a suffix
        hard = [mass for _, mass in solved].count("lambda")
        del solved[:]
        return len(trend.margins) - hard

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = np.random.default_rng(seed)
        points, y_ref = two_criteria_sample(rng)
        n = len(points)
        rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        levels = int(rng.integers(1, 5))
        entry = rng.integers(1, levels + 1, size=len(rows))
        entry[rng.integers(len(rows))] = 1  # no level is empty
        ladder = level_ladder(rows, entry, levels)
        del solved[:]
        trend = support.support_trend(points, ladder, y_ref)
        closed = closed_form_levels(trend)
        swapped = support.support_trend(points[:, ::-1], ladder, y_ref[::-1])
        assert closed_form_levels(swapped) == closed
        assert repr(trend.margins[:closed]) == repr(swapped.margins[:closed])
        if closed == levels and trend.last.weights is not None:
            assert trend.last.weights[::-1] == swapped.last.weights
            assert trend.last.binding == swapped.last.binding

    check()


def test_rotated_criteria_keep_every_verdict(tmp_path):
    rotated = dict(TWO_D, criteria=TWO_D["criteria"][1:] + TWO_D["criteria"][:1])
    flags = ("--grid", "33", "--levels", "10")
    plain, turned = report(tmp_path, TWO_D, *flags), report(tmp_path, rotated, *flags)
    assert len(plain) == 25
    assert [r["decision"] for r in plain] == [r["decision"] for r in turned]
    assert [verdicts(r) for r in plain] == [verdicts(r) for r in turned]


def unindexed(record):
    """A point's margins, weights, ratios and verdicts, without the fields
    that name a sample index (binding rows, the worst point, the witness's
    smallest gap's index) or echo the point."""
    support_record = record["support"]
    margin = dict(support_record["margin"], binding=len(support_record["margin"]["binding"]))
    witness = support_record.get("witness")
    if witness:
        checks = [dict(c, detail=c["detail"].split(" at sample index")[0]) for c in witness["verification"]["checks"]]
        witness = dict(witness, anchor=None, verification=checks)
    worst = record["proper_efficiency"]["worst"]
    return {
        **verdicts(record),
        "m_hat": record["proper_efficiency"]["m_hat"],
        "worst": worst and (worst["ratio"], worst["gain_index"], worst["loss_index"]),
        "divergence": record["divergence"],
        "trend": support_record["trend"],
        "margin": margin,
        "witness": witness,
    }


@pytest.mark.parametrize(
    "problem, reflected, hi",
    [("builtin:soland", REFLECTED_SOLAND, 4.0), (SLOW_SOLAND, REFLECTED_SLOW_SOLAND, 2.0)],
    ids=["soland", "slow_soland"],
)
def test_reflected_domain_keeps_every_margin_bit(tmp_path, problem, reflected, hi):
    # the grid and the ladders' dyadic offsets map onto themselves under
    # x -> hi - x, so each point sees the same criterion vectors in mirrored
    # order; its sample indices are mirrored, and nothing else may move
    plain, mirrored = report(tmp_path, problem, "--levels", "20"), report(tmp_path, reflected, "--levels", "20")
    assert [r["decision"] for r in plain] == [[hi - r["decision"][0]] for r in reversed(mirrored)]
    for p, q in zip(plain, reversed(mirrored)):
        assert repr(unindexed(p)) == repr(unindexed(q)), p["decision"]
