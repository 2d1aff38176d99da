"""Traffic-matrix clustering, convex-set membership, and trace synthesis.

Critical matrices are per-cluster component-wise maxima of a demand
sequence; their convex combinations (with coefficients summing to at most
one) form the demand set the optimizer provisions for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence, get_args

import numpy as np

from . import lp
from .errors import InvalidInputError
from .model import TOL, TmSequence, TrafficMatrix

BoundMode = Literal["exact", "dominated"]


def _check_mode(mode: str):
    if mode not in get_args(BoundMode):
        raise InvalidInputError(f"unknown boundedness mode {mode!r}")


@dataclass(frozen=True)
class CriticalSet:
    """K critical matrices plus the clustering that produced them."""

    matrices: tuple  # K TrafficMatrix, each a per-cluster component-wise max
    cluster_assignment: tuple = ()
    seed: int = 0

    def __post_init__(self):
        mats = tuple(self.matrices)
        if not mats:
            raise InvalidInputError("critical set must contain at least one matrix")
        n = mats[0].num_pods
        if any(t.num_pods != n for t in mats):
            raise InvalidInputError("critical matrices must share the pod count")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "cluster_assignment",
                           tuple(self.cluster_assignment))

    def __len__(self) -> int:
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    @property
    def num_pods(self) -> int:
        return self.matrices[0].num_pods

    def stacked(self) -> np.ndarray:
        return np.stack([t.demand for t in self.matrices])


@dataclass(frozen=True)
class BoundednessResult:
    bounded: bool
    lambdas: np.ndarray
    slack: float  # max component shortfall of the best witness


@dataclass(frozen=True)
class BurstSpec:
    """One burst scenario: baseline max matrix, per-entry stddev, burst pairs."""

    base: TrafficMatrix
    stddev: np.ndarray
    burst_factor: float
    burst_set: tuple  # 1-2 ordered (src, dst) pairs

    def __post_init__(self):
        sd = np.asarray(self.stddev, dtype=float)
        if sd.shape != self.base.demand.shape or (sd < 0).any():
            raise InvalidInputError("stddev must be nonnegative and match base")
        pairs = tuple(tuple(p) for p in self.burst_set)
        if not 1 <= len(pairs) <= 2 or any(i == j for i, j in pairs):
            raise InvalidInputError("burst set must hold 1-2 off-diagonal pairs")
        object.__setattr__(self, "stddev", sd)
        object.__setattr__(self, "burst_set", pairs)

    def matrix(self) -> TrafficMatrix:
        """Baseline demand with the burst pairs inflated by factor * stddev."""
        t = self.base.demand.copy()
        for i, j in self.burst_set:
            t[i, j] += self.burst_factor * self.stddev[i, j]
        return TrafficMatrix(t)


def _kmeans(points: np.ndarray, k: int, seed: int, max_iter: int = 100):
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
    for _ in range(max_iter):
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
    n = seq.num_pods
    labels = _kmeans(demands.reshape(len(seq), -1), k, seed)
    criticals = []
    for c in range(k):
        members = demands[labels == c]
        criticals.append(TrafficMatrix(members.max(axis=0)))
    return CriticalSet(tuple(criticals), tuple(int(v) for v in labels), seed)


def check_bounded(t: TrafficMatrix, crit: CriticalSet,
                  mode: BoundMode = "dominated",
                  tol: float = TOL) -> BoundednessResult:
    """Convex-membership test against the critical set.

    ``exact`` requires T to equal a convex combination; ``dominated`` only
    requires component-wise domination.  Solved as an LP minimizing the
    worst component shortfall, so a witness and its slack come for free.
    """
    _check_mode(mode)
    if t.num_pods != crit.num_pods:
        raise InvalidInputError("pod count mismatch")
    K = len(crit)
    n = t.num_pods
    model = lp.LpModel("boundedness")
    lams = model.add_vars(K, 0.0, 1.0)
    s = model.add_vars(1, 0.0, None)[0]
    # Row 0 is sum(lambda) <= 1.  Then each pair (i, j), row-major, has a
    # shortfall row t - sum(lambda T) <= s and, in exact mode, an
    # overshoot row sum(lambda T) - t <= s, in that order; both read
    # sign * (sum(lambda T) - t) - s <= 0.
    signs = np.array([-1.0, 1.0] if mode == "exact" else [-1.0])
    off = ~np.eye(n, dtype=bool)
    stack = crit.stacked()[:, off]  # (K, pairs)
    rows = 1 + np.arange(stack.size // K * len(signs))
    model.add_rows(
        np.concatenate([np.zeros(K, dtype=int), np.tile(rows, K), rows]),
        np.concatenate([lams, np.repeat(lams, len(rows)),
                        np.full(len(rows), s)]),
        np.concatenate([np.ones(K), (signs * stack[:, :, None]).ravel(),
                        np.full(len(rows), -1.0)]),
        lp.LE,
        np.concatenate([[1.0], (signs * t.demand[off][:, None]).ravel()]))
    model.set_objective("min", [s], [1.0])
    sol = lp.solve(model)
    slack = sol.objective_value
    return BoundednessResult(bool(slack <= tol), sol.x[lams], float(slack))


def boundability_curve(seq: TmSequence, crit_k: int,
                       windows: Sequence[float], *,
                       mode: BoundMode = "dominated",
                       seed: int = 0) -> list:
    """Fraction of matrices bounded by criticals from the preceding window.

    Matrices whose lookback window holds no history count as unbounded, so
    curves start at zero instead of being undefined.
    """
    _check_mode(mode)
    windows = list(windows)
    if not windows:
        raise InvalidInputError("need at least one window length")
    if any(b < a for a, b in zip(windows, windows[1:])):
        raise InvalidInputError("windows must be sorted ascending")
    times = seq.times()
    out = []
    for w in windows:
        bounded = 0
        for idx, t in enumerate(seq):
            lo = times[idx] - w
            hist = [seq[j] for j in range(idx) if lo <= times[j] < times[idx]]
            if not hist:
                continue
            crit = extract_critical(
                TmSequence(tuple(hist), seq.aggregation_window),
                min(crit_k, len(hist)), seed)
            if check_bounded(t, crit, mode).bounded:
                bounded += 1
        out.append((w, bounded / len(seq)))
    return out


def gen_storage_tms(num_pods: int, count: int, seed: int = 0,
                    demand_range: tuple = (1.0, 100.0)) -> TmSequence:
    """Disaggregated-storage traffic: compute pods read/write to storage pods.

    Pods [0, N/2) are compute, [N/2, N) storage.  Each compute pod draws one
    read and one write demand uniformly from ``demand_range`` and spreads each
    evenly over every storage pod; storage and compute pods never talk among
    themselves.
    """
    if num_pods < 4 or num_pods % 2:
        raise InvalidInputError("need an even pod count of at least 4")
    if count < 1:
        raise InvalidInputError("need at least one matrix")
    lo, hi = demand_range
    if not 0 <= lo <= hi:
        raise InvalidInputError("invalid demand range")
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
    Returns (burst_set, TrafficMatrix) tuples in deterministic order.
    """
    if burst_factor < 0:
        raise InvalidInputError("burst factor must be nonnegative")
    if max_burst_pairs not in (1, 2):
        raise InvalidInputError("burst sets hold 1 or 2 pairs")
    if len(seq) < 2:
        raise InvalidInputError("need at least two matrices for a stddev")
    demands = seq.stacked()
    base = TrafficMatrix(demands.max(axis=0))
    sigma = demands.std(axis=0, ddof=1)
    np.fill_diagonal(sigma, 0.0)
    n = seq.num_pods
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    sets = [(p,) for p in pairs]
    if max_burst_pairs == 2:
        sets.extend((pairs[a], pairs[b])
                    for a in range(len(pairs)) for b in range(a + 1, len(pairs)))
    out = []
    for burst_set in sets:
        spec = BurstSpec(base, sigma, burst_factor, burst_set)
        out.append((spec.burst_set, spec.matrix()))
    return out
