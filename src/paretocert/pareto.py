"""Pareto dominance and efficient-set extraction on finite clouds.

Maximization convention throughout: a dominates b when a >= b componentwise
and a != b. Points with equal criterion vectors never dominate each other, so
duplicates of an efficient value all survive the filter.

The filter sorts the distinct vectors and sweeps them against the running
front (Kung, Luccio and Preparata, J. ACM 1975): O(N log N) for up to three
criteria, O(N F) against a front of F vectors beyond that. NaN coordinates
are rejected, since a NaN vector is neither dominated nor dominating.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .errors import DimensionError
from .problems import distinct_rows, point_array


def dominates(a, b) -> bool:
    """True iff a >= b componentwise and a != b."""
    av = [float(v) for v in a]
    bv = [float(v) for v in b]
    if len(av) != len(bv):
        raise DimensionError(f"cannot compare vectors of lengths {len(av)} and {len(bv)}")
    return all(x >= y for x, y in zip(av, bv)) and av != bv


def pareto_filter(cloud) -> list[int]:
    """Indices of points not dominated by any other point, in ascending order.

    Equal vectors are merged first by ``problems.distinct_rows``: one stable
    lexicographic sort, with ``-0.0`` equal to ``0.0`` and a group's first
    vector in input order standing for it. The distinct vectors are visited
    in lexicographically descending order, so every vector that dominates
    ``v`` is visited before ``v``; ``v`` is kept unless an already-kept
    vector dominates it. For p <= 3 that test is a search in a
    2-D staircase, O(N log N) in all; for p >= 4 it is one numpy pass over the
    kept front, O(N F p) for a front of F vectors. ``+-inf`` coordinates are
    ordinary values; a NaN coordinate raises ``ValueError`` naming its row.
    """
    pts = point_array(cloud)
    nan_rows = np.flatnonzero(np.isnan(pts).any(axis=1))
    if nan_rows.size:
        raise ValueError(f"point {int(nan_rows[0])} has a NaN coordinate")
    order, starts, groups = distinct_rows(pts)
    sweep = _staircase_sweep if pts.shape[1] <= 3 else _front_sweep
    kept = sweep(np.take(pts, order[starts[::-1]], axis=0))[::-1]
    return np.flatnonzero(kept[groups]).tolist()


def _staircase_sweep(desc: np.ndarray) -> np.ndarray:
    """Kept mask of distinct vectors with p <= 3, given in descending
    lexicographic order.

    Padded to (y0, y1, y2), an earlier vector u already has u0 >= v0, so u
    dominates v iff u1 >= v1 and u2 >= v2. The kept vectors' (y1, y2) maxima
    form a staircase: ``firsts`` strictly increasing, ``neg_seconds`` (the
    negated y2) strictly increasing too.
    """
    n, p = desc.shape
    padded = np.zeros((n, 3))
    padded[:, :p] = desc
    firsts: list[float] = []
    neg_seconds: list[float] = []
    kept = np.zeros(n, dtype=bool)
    for k, (_, a, b) in enumerate(padded.tolist()):
        # the step with the smallest first >= a has the largest second there
        i = bisect_left(firsts, a)
        if i < len(firsts) and -neg_seconds[i] >= b:
            continue
        kept[k] = True
        # drop the steps (first <= a, second <= b) that (a, b) now covers
        hi = bisect_right(firsts, a)
        lo = bisect_left(neg_seconds, -b, 0, hi)
        firsts[lo:hi] = [a]
        neg_seconds[lo:hi] = [-b]
    return kept


def _front_sweep(desc: np.ndarray) -> np.ndarray:
    """Kept mask of distinct vectors of any p, given in descending
    lexicographic order: each vector is compared with the kept front only."""
    n = len(desc)
    tails = desc[:, 1:]
    front = np.empty_like(tails)
    size = 0
    kept = np.zeros(n, dtype=bool)
    for k in range(n):
        # earlier vectors already have y0 >= v0 and differ from v
        if size and (front[:size] >= tails[k]).all(axis=1).any():
            continue
        kept[k] = True
        front[size] = tails[k]
        size += 1
    return kept
