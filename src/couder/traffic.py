"""Traffic-matrix clustering, convex-set membership, and trace synthesis.

Critical matrices are per-cluster component-wise maxima of a demand
sequence; their convex combinations (with coefficients summing to at most
one) form the demand set the optimizer provisions for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import InvalidInputError
from .model import TOL, TmSequence, TrafficMatrix, _tables, demand_scale


#: K critical matrices, each a per-cluster component-wise maximum: a
#: ``TmSequence`` without timestamps.
CriticalSet = TmSequence


@dataclass(frozen=True)
class BoundednessResult:
    lambdas: np.ndarray
    slack: float  # max component shortfall of the best witness
    bounded: bool  # the slack over the criticals' sigma is at most TOL


#: Lloyd iterations ``_kmeans`` runs at most.
_KMEANS_ITERATIONS = 100


def _kmeans(points: np.ndarray, k: int, seed: int):
    """Plain Lloyd iterations with k-means++ seeding.

    Deterministic for a fixed seed; an emptied cluster is re-seeded from the
    point currently farthest from its assigned centroid.  Returns labels.
    """
    rng = np.random.default_rng(seed)
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c] = points[rng.integers(n)]
        else:
            centroids[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centroids[c]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=int)
    for _ in range(_KMEANS_ITERATIONS):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        for c in range(k):
            if counts[c]:
                continue
            # Re-seed an empty cluster from the farthest point a nonsingleton
            # cluster can spare (ties break toward the lowest index).
            own = dists[np.arange(n), new_labels]
            candidates = [i for i in range(n) if counts[new_labels[i]] > 1]
            stolen = max(candidates, key=lambda i: (own[i], -i))
            counts[new_labels[stolen]] -= 1
            new_labels[stolen] = c
            counts[c] = 1
        for c in range(k):
            centroids[c] = points[new_labels == c].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def extract_critical(seq: TmSequence, k: int, seed: int = 0) -> CriticalSet:
    """Cluster the sequence into k groups and take component-wise maxima."""
    if len(seq) == 0:
        raise InvalidInputError("empty sequence")
    if not 1 <= k <= len(seq):
        raise InvalidInputError("need 1 <= k <= sequence length")
    demands = seq.stacked()
    # Over a power of two, so that squared distances stay in float range.
    flat = demands.reshape(len(seq), -1)
    labels = _kmeans(flat / demand_scale(flat), k, seed)
    criticals = []
    for c in range(k):
        members = demands[labels == c]
        criticals.append(TrafficMatrix(members.max(axis=0)))
    return CriticalSet(tuple(criticals))


@functools.lru_cache(maxsize=8)
def _bounded_lp(stack: bytes, shape: tuple) -> tuple:
    """(model, its shortfall block, the lambda columns, sigma) of
    ``check_bounded``'s LP on the criticals whose ``stacked()`` array has
    these bytes and shape; the shortfall block's right-hand side, the
    demand over sigma, is set per matrix."""
    K, n = shape[0], shape[1]
    model = lp.LpModel("boundedness")
    lams = model.add_vars(K, 0.0, 1.0)
    s = model.add_vars(1, 0.0, None)[0]
    model.add_rows(np.zeros(K, dtype=int), lams, np.ones(K), lp.LE, [1.0])
    # Each pair (i, j), row-major, has the shortfall row
    # sum(lambda T) + s >= t, all over sigma.
    t = _tables(n)
    crit = np.frombuffer(stack).reshape(shape)
    sigma = demand_scale(crit)
    crit = crit[:, t.pair_src, t.pair_dst] / sigma  # (K, pairs)
    rows = np.arange(crit.shape[1])
    block = model.add_rows(
        np.concatenate([np.tile(rows, K), rows]),
        np.concatenate([np.repeat(lams, len(rows)), np.full(len(rows), s)]),
        np.concatenate([crit.ravel(), np.ones(len(rows))]),
        lp.GE, np.zeros(len(rows)))
    model.set_objective("min", [s], [1.0])
    return model, block, lams, sigma


def check_bounded(t: TrafficMatrix, crit: CriticalSet) -> BoundednessResult:
    """Whether T is dominated by a convex combination of the criticals.

    The one set tested is {T : T <= sum_k lambda_k T_k for some lambda >= 0
    with sum_k lambda_k <= 1}, component-wise.  Solved as an LP minimizing
    the worst component shortfall, so a witness and its slack come for free.
    The LP is posed without units: T and the criticals over sigma, the
    largest power of two at or below the criticals' largest entry
    (``model.demand_scale``), so the division is exact.  T is bounded when
    that unitless slack is at most ``model.TOL``, whatever unit the demand
    is in; the result's ``slack`` is sigma times it, in T's unit.  T
    enters the LP only on its right-hand side, so the model is built once
    per critical set (a small cache keyed by the criticals' bytes), and
    each call sets that side and solves cold.  A T whose entries over
    sigma overflow is InvalidInputError.
    """
    if t.num_pods != crit.num_pods:
        raise InvalidInputError("pod count mismatch")
    stack = crit.stacked()
    model, block, lams, sigma = _bounded_lp(stack.tobytes(), stack.shape)
    tab = _tables(t.num_pods)
    with np.errstate(over="ignore"):  # past the float range is refused
        demand = t.demand[tab.pair_src, tab.pair_dst] / sigma
    if not np.isfinite(demand).all():
        raise InvalidInputError("the matrix over the criticals' scale is"
                                " past the float range")
    model.set_rhs(block, demand)
    model.set_basis(None)
    sol = lp.solve(model)
    return BoundednessResult(sol.x[lams], sol.objective_value * sigma,
                             sol.objective_value <= TOL)


def gen_storage_tms(num_pods: int, count: int, seed: int = 0,
                    demand_range: tuple = (1.0, 100.0)) -> TmSequence:
    """Disaggregated-storage traffic: compute pods read/write to storage pods.

    Pods [0, N/2) are compute, [N/2, N) storage.  Each compute pod in turn
    draws its write demand, then its read demand, uniformly from
    ``demand_range``, finite with 0 <= min <= max, and spreads each evenly
    over every storage pod; storage and compute pods never talk among
    themselves.
    """
    if num_pods < 4 or num_pods % 2:
        raise InvalidInputError("need an even pod count of at least 4")
    if count < 1:
        raise InvalidInputError("need at least one matrix")
    lo, hi = demand_range
    if not 0 <= lo <= hi < np.inf:
        raise InvalidInputError(f"invalid demand range [{lo:g}, {hi:g}]")
    rng = np.random.default_rng(seed)
    half = num_pods // 2
    mats = []
    for step in range(count):
        t = np.zeros((num_pods, num_pods))
        for c in range(half):
            write = rng.uniform(lo, hi)
            read = rng.uniform(lo, hi)
            t[c, half:] = write / half
            t[half:, c] = read / half
        mats.append(TrafficMatrix(t, timestamp=float(step)))
    return TmSequence(tuple(mats), aggregation_window=1.0)


def gen_burst_tms(seq: TmSequence, burst_factor: float,
                  max_burst_pairs: int = 2) -> list:
    """Enumerate burst scenarios on top of the sequence's component-wise max.

    Every burst set of one (and optionally two) off-diagonal pairs gets the
    baseline demand plus ``burst_factor`` standard deviations on its pairs.
    Returns (burst_set, TrafficMatrix) tuples in deterministic order.  A
    factor that is negative or not finite, or whose burst on some pair
    passes the float range, is InvalidInputError.
    """
    if not 0 <= burst_factor < np.inf:
        raise InvalidInputError(
            f"burst factor {burst_factor:g} must be finite and nonnegative")
    if max_burst_pairs not in (1, 2):
        raise InvalidInputError("burst sets hold 1 or 2 pairs")
    if len(seq) < 2:
        raise InvalidInputError("need at least two matrices for a stddev")
    demands = seq.stacked()
    base = demands.max(axis=0)
    # std squares the deviations, past the float range from demands of
    # about 1e154 on; over their power-of-two scale it does not, and
    # scaling back is exact.
    scale = demand_scale(demands)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = (demands / scale).std(axis=0, ddof=1)
        peak = base + burst_factor * sigma * scale
    if not np.isfinite(peak).all():
        raise InvalidInputError(f"burst factor {burst_factor:g} takes a"
                                " demand past the float range")
    n = seq.num_pods
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    sets = [(p,) for p in pairs]
    if max_burst_pairs == 2:
        sets.extend((pairs[a], pairs[b])
                    for a in range(len(pairs)) for b in range(a + 1, len(pairs)))
    out = []
    for burst_set in sets:
        t = base.copy()
        for i, j in burst_set:
            t[i, j] = peak[i, j]
        out.append((burst_set, TrafficMatrix(t)))
    return out
