"""Fluid-model evaluation, baseline constructions, and staged reconfiguration.

Link loads follow directly from routing weights (no queueing or packet
effects): the load on link (a, b) is the weighted demand of every path
crossing it, as ``RoutingWeights.loads`` computes for the planner too.
A routing is ``model``'s path vector; the baselines here build theirs by
index arithmetic on ``_tables``.  MLU may exceed 1 to express congestion
severity; it is infinite for demand crossing a zero-capacity link, or a
utilization past the float range, and a record is feasible when it is
finite.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from . import lp, optimize, round as rounding, traffic
from .errors import InfeasibleRoutingError, InternalError, InvalidInputError
from .model import (FractionalTopology, IntegerTopology, PhysicalTopology,
                    RoutingWeights, TmSequence, TrafficMatrix, _tables)

Capacity = Union[IntegerTopology, FractionalTopology, np.ndarray]


@dataclass(frozen=True)
class EvalRecord:
    mlu: float
    ahc: float
    direct_fraction: float

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.mlu)


@dataclass(frozen=True)
class ReconfigPolicy:
    """Timing knobs of staged reconfiguration.  The longest switch-over,
    ``stage_latency * num_stages(1.0, alpha_pred)``, must fit in one
    period, ``frequency``, so that it ends by the next epoch."""

    frequency: float  # seconds between reconfigurations
    lookback: float  # history used before the first reconfiguration
    k: int  # critical matrices per epoch
    stage_latency: float = 0.0
    alpha_pred: float = 0.8  # predicted MLU of the critical set

    def __post_init__(self):
        if not 0 < self.alpha_pred < 1:
            raise InvalidInputError("alpha_pred must lie in (0, 1)")
        # Chained comparisons are False for NaN, so NaN fails each test.
        if not 0 < self.frequency < math.inf:
            raise InvalidInputError("frequency must be positive and finite")
        if not (0 <= self.stage_latency < math.inf
                and 0 < self.lookback < math.inf) or self.k < 1:
            raise InvalidInputError("invalid policy parameters")
        longest = self.stage_latency * num_stages(1.0, self.alpha_pred)
        if longest > self.frequency:
            raise InvalidInputError(
                f"a switch-over can take {longest:g} s, longer than the"
                f" reconfiguration period of {self.frequency:g} s")


def num_stages(p: float, alpha_pred: float) -> int:
    """Stages needed to switch a ``p`` fraction of links: ceil(p/(1-alpha)).

    No more than a 1-alpha fraction of links may be down per stage.  The
    tiny bias guards against float quotients landing just above an integer.
    """
    if not 0 < alpha_pred < 1:
        raise InvalidInputError("alpha_pred must lie in (0, 1)")
    if not 0 <= p <= 1 + 1e-9:  # False for NaN too
        raise InvalidInputError("changed-link fraction must lie in [0, 1]")
    if p <= 0:
        return 0
    return max(1, math.ceil(p / (1.0 - alpha_pred) - 1e-9))


def _check_bandwidth(bandwidth: float):
    """Refuse a link bandwidth that is not a positive finite number."""
    if not 0 < bandwidth < math.inf:  # False for NaN too
        raise InvalidInputError("link bandwidth must be positive and finite")


def _capacity_matrix(x: Capacity) -> np.ndarray:
    if isinstance(x, IntegerTopology):
        return x.X.astype(float)
    if isinstance(x, FractionalTopology):
        return x.d
    return np.asarray(x, dtype=float)


def evaluate_static(x: Capacity, omega: RoutingWeights, t: TrafficMatrix,
                    bandwidth: float = 1.0) -> EvalRecord:
    """Utilization, hop count, and feasibility of one matrix on fixed routes."""
    _check_bandwidth(bandwidth)
    cap = _capacity_matrix(x) * bandwidth
    if cap.shape != t.demand.shape:
        raise InvalidInputError("topology and matrix shapes differ")
    if omega.num_pods != t.num_pods:
        raise InvalidInputError(f"routing weights for {omega.num_pods} pods"
                                f" and a matrix of {t.num_pods}")
    tables = _tables(t.num_pods)
    cap = cap[tables.pair_src, tables.pair_dst]
    load = omega.loads(t.demand[None])[0]
    with np.errstate(over="ignore"):  # past the float range is inf
        util = np.divide(load, cap, out=np.zeros_like(load), where=cap > 0)
    # A path of weight 0 adds an exact 0, so any load is demand routed.
    dead = ((cap <= 0) & (load > 0)).any()
    mlu = math.inf if dead else float(util.max(initial=0.0))

    total = t.total
    if total > 0:
        demand = t.demand[tables.pair_src, tables.pair_dst]
        direct_fraction = float(
            (omega.omega[::t.num_pods - 1] * demand).sum() / total)
        direct_fraction = min(max(direct_fraction, 0.0), 1.0)
    else:
        direct_fraction = 1.0
    ahc = 1.0 + (1.0 - direct_fraction)
    return EvalRecord(mlu, ahc, direct_fraction)


#: A link whose capacity is at most this fraction of the largest counts as
#: absent in ``optimal_routing_mlu``: its coefficient in that LP would be at
#: most HiGHS's ``small_matrix_value``, which HiGHS drops without a word.
_SMALL_CAPACITY = 1e-9


class _RoutingLp(NamedTuple):
    """``optimal_routing_mlu``'s LP on one capacity matrix; the split rows'
    right-hand side is set per matrix."""

    model: lp.LpModel
    split: int  # the split rows' block
    routed: np.ndarray  # per pair: has a usable path, and so a split row
    u: int  # U's column
    c_max: float
    start: lp._highs.HighsBasis  # direct routing, each solve's start


@functools.lru_cache(maxsize=8)
def _routing_lp(cap: bytes, n: int) -> _RoutingLp:
    """The min-MLU flow LP of the n x n float capacity matrix with bytes
    ``cap``: one flow column per usable path, in path order, then U."""
    t = _tables(n)
    c = np.frombuffer(cap).reshape(n, n)[t.pair_src, t.pair_dst]
    c_max = float(c.max(initial=0.0))
    rel = c / c_max if c_max > 0 else c
    usable = (rel[t.path_links] > _SMALL_CAPACITY).all(axis=1)
    pair = t.path_pair[usable]
    routed = np.bincount(pair, minlength=len(t.pairs)) > 0
    col = np.cumsum(usable) - 1
    model = lp.LpModel("optimal-routing")
    flows = model.add_vars(len(pair), 0.0, None)
    u = int(model.add_vars(1, 0.0, None)[0])
    split = model.add_rows(np.cumsum(routed)[pair] - 1, flows,
                           np.ones(len(pair)), lp.EQ,
                           np.zeros(routed.sum()))
    on = usable[t.cross_path]
    links, row = np.unique(t.cross_link[on], return_inverse=True)
    rows = np.arange(len(links))
    link_rows = model.add_rows(np.concatenate([row, rows]),
                               np.concatenate([col[t.cross_path[on]],
                                               np.full(len(links), u)]),
                               np.concatenate([np.ones(len(row)),
                                               -rel[links]]),
                               lp.LE, np.zeros(len(links)))
    model.set_objective("min", [u], [1.0])
    # Paths come in pair order: the first usable path of each routed pair.
    first = np.flatnonzero(np.diff(pair, prepend=-1))
    return _RoutingLp(model, split, routed, u, c_max,
                      model.start_basis(flows[first], [link_rows]))


def optimal_routing_mlu(x: Capacity, t: TrafficMatrix,
                        bandwidth: float = 1.0) -> float:
    """Offline-optimal split: the smallest MLU any weights achieve on x.

    With t_q the demand of pair q, sigma = max_q t_q, c_l the capacity of
    link l and c_max the largest, this is U sigma / (b c_max) at the
    optimum of the LP

        minimize U subject to f >= 0 and
        sum_{p in q} f_p = t_q / sigma                 for each routed q,
        sum_{p crossing l} f_p - (c_l / c_max) U <= 0  for each link l,

    over the usable paths p: those whose every link has a capacity above
    1e-9 c_max.  A smaller positive capacity counts as absent, because
    HiGHS would drop its coefficient c_l / c_max without a word; integer
    topologies never get there.  A pair with a usable path is routed.  The
    LP reads t only on its right-hand side, and demand and bandwidth only
    through t / sigma and sigma / b, so the MLU scales as t / b and the LP
    is the same for every matrix: it is built once per capacity matrix
    (a small cache keyed by its bytes), and each call sets the split rows'
    right-hand side and solves from one start basis, direct routing: the
    first usable path of each routed pair basic in that pair's split row,
    every link row's slack basic, U nonbasic at 0.  Each basic flow sits
    in one split row alone, so the basis is nonsingular.  Every basic
    column costs 0, so the duals are 0 and each reduced cost is the
    column's own cost, 0 for a flow and 1 for U: the basis is dual
    feasible for every right-hand side, and dual simplex starts there.
    A call's result therefore depends on x and t alone, not on the calls
    before it, and it is the optimal value U, which no choice of optimal
    vertex changes.  An all-zero t has MLU 0, and a t demanding a pair
    without a usable path an infinite MLU; so does an MLU past the float
    range.

    Proof that this is 1/mu of stage 1 on t alone (K = 1) with link counts
    fixed at x, when no positive capacity is that small.  Stage 1's
    weights omega give pair q the flow t_q omega_p on its paths, and mu is
    largest when mu times the load of every link is at most its capacity
    b c_l, so 1/mu is the smallest MLU max_l load_l / (b c_l).  At stage
    1's optimum the flows f_p = t_q omega_p / sigma meet every row above
    with U = b c_max / (mu sigma), so U sigma / (b c_max) <= 1/mu.
    Conversely the weights omega_p = f_p sigma / t_q of any feasible
    (f, U) give link l the load sigma sum_{p crossing l} f_p <=
    sigma c_l U / c_max, an MLU of at most U sigma / (b c_max).  The tests
    keep stage 1 as the oracle.
    """
    _check_bandwidth(bandwidth)
    cap = np.ascontiguousarray(_capacity_matrix(x), dtype=float)
    if cap.shape != t.demand.shape:
        raise InvalidInputError("topology and matrix shapes differ")
    if not np.isfinite(cap).all():
        raise InvalidInputError("link capacities must be finite")
    tables = _tables(t.num_pods)
    demand = t.demand[tables.pair_src, tables.pair_dst]
    sigma = float(demand.max(initial=0.0))
    if sigma == 0.0:
        return 0.0
    routing = _routing_lp(cap.tobytes(), t.num_pods)
    if demand[~routing.routed].any():
        return math.inf
    routing.model.set_rhs(routing.split, demand[routing.routed] / sigma)
    routing.model.set_basis(routing.start)
    sol = lp.solve(routing.model)
    if not sol.optimal:
        raise InternalError(f"min-MLU LP ended {sol.status}")
    return float(sol.x[routing.u]) / routing.c_max * sigma / bandwidth


def ideal_toe_mlu(phys: PhysicalTopology, t: TrafficMatrix) -> float:
    """Per-matrix joint topology+routing optimum: the unrealizable floor.

    With fractional link counts and the one matrix t, this optimum is the
    hose bound

        max(max_i R_i / (b r_eg[i]), max_j C_j / (b r_ig[j]))

    where R and C are t's row and column sums and the maxima run over pods
    with a positive sum.  It is 0 for an all-zero t, and infinite when a
    pod with a positive row sum has no egress link, or one with a positive
    column sum no ingress link.  b is the fabric's link bandwidth.

    Proof.  Let mu be the inverse of the bound.  Routing every pair direct
    with d = mu t / b meets each port row, sum_j d_ij = mu R_i / b <= r_eg[i]
    and likewise for ingress, and each bound d_ij <= min(r_eg[i], r_ig[j]),
    since t_ij is at most R_i and C_j; so mu is reachable.  No routing does
    better: every path of a pair (i, j) leaves i on one of i's egress links
    and enters j on one of j's ingress links, so at throughput mu the
    links (i, x) carry at least mu R_i, and b sum_x d_ix >= mu R_i with
    sum_x d_ix <= r_eg[i]; columns likewise.  This is the radix argument
    behind ``optimize._newton_beta``'s lower bracket.  Stage 1 on t alone
    solves the same problem as an LP; the tests keep it as the oracle.
    """
    if t.num_pods != phys.num_pods:
        raise InvalidInputError("matrix does not match the fabric")
    with np.errstate(over="ignore"):
        sums = np.concatenate([t.demand.sum(axis=1), t.demand.sum(axis=0)])
    if not np.isfinite(sums).all():
        raise InvalidInputError("a row or column sum of the matrix"
                                " overflows")
    radix = np.concatenate([phys.egress_radix, phys.ingress_radix])
    sending = sums > 0
    if (radix[sending] == 0).any():
        return math.inf
    mlu = float((sums[sending] / radix[sending]).max(initial=0.0)) \
        / phys.link_bandwidth
    if mlu == math.inf:
        raise InvalidInputError("the matrix's MLU overflows at this"
                                " bandwidth")
    return mlu


def uniform_mesh(phys: PhysicalTopology) -> IntegerTopology:
    """Spread each pod's egress budget evenly over the other pods.

    The remainder goes round-robin to destinations in ascending order
    starting from each pod's successor (staggering keeps the extra links
    from piling onto one pod's ingress); links are then packed onto
    switches greedily within port budgets, each pair's in one step
    (``_fill``), so the result always validates.
    """
    n, M = phys.num_pods, phys.num_ocs
    want = np.zeros((n, n), dtype=int)
    for i in range(n):
        others = [(i + off) % n for off in range(1, n)]
        base, rem = divmod(int(phys.egress_radix[i]), n - 1)
        for idx, j in enumerate(others):
            want[i, j] = base + (1 if idx < rem else 0)
    x = np.zeros((M, n, n), dtype=int)
    eg_left = phys.egress_ports.copy()
    ig_left = phys.ingress_ports.copy()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            links = _fill(np.minimum(eg_left[:, i], ig_left[:, j]),
                          int(want[i, j]))
            x[:, i, j] = links
            eg_left[:, i] -= links
            ig_left[:, j] -= links
    return IntegerTopology(x)


def _fill(headroom: np.ndarray, w: int) -> np.ndarray:
    """Links per switch from placing ``w`` links one at a time, each on
    the switch with the most ``headroom`` left, the lowest index on ties,
    while that is positive.  Each link lowers its switch's headroom by
    one, so this lowers every headroom above a level L to L, L the lowest
    level >= 0 at which that takes at most w links, and then, when L > 0,
    places the links left one each on the first switches at L by index.
    The top k headrooms, summing to S_k, give up S_k - k L at level L, so
    L is the largest ceil((S_k - w) / k), or 0."""
    top = np.cumsum(np.sort(headroom)[::-1])
    k = np.arange(1, len(top) + 1)
    level = int((-((w - top) // k)).max(initial=0))
    links = np.maximum(headroom - level, 0)
    if level > 0:
        links[np.flatnonzero(headroom >= level)[:w - int(links.sum())]] += 1
    return links


def vlb_weights(x: Capacity) -> RoutingWeights:
    """Capacity-proportional oblivious splitting over direct + 2-hop paths,
    each weighed by its thinnest link; a pair with none goes direct."""
    cap = _capacity_matrix(x)
    t = _tables(cap.shape[0])
    hop_cap = cap[t.pair_src, t.pair_dst][t.path_links]
    return RoutingWeights.normalized(cap.shape[0], hop_cap.min(axis=1))


def direct_only_weights(x: Capacity) -> RoutingWeights:
    """All weight on direct paths; zero-link pairs surface as infeasible."""
    n = _capacity_matrix(x).shape[0]
    omega = np.zeros(len(_tables(n).paths))
    omega[::n - 1] = 1.0
    return RoutingWeights(n, omega)


def fat_tree_eval(t: TrafficMatrix, pod_uplinks, bandwidth: float = 1.0,
                  oversub: float = 2.0) -> EvalRecord:
    """Abstract oversubscribed fat tree: a non-blocking spine behind
    per-pod effective capacity uplinks*b/oversub; every hop count is 2.
    ``pod_uplinks`` is one count for every pod, or one count per pod, none
    negative.  A pod without effective capacity, from no uplinks or from
    underflow, adds nothing without demand and makes the MLU inf with
    it."""
    _check_bandwidth(bandwidth)
    if not 0 < oversub < math.inf:
        raise InvalidInputError("oversubscription must be positive and"
                                " finite")
    n = t.num_pods
    up = np.asarray(pod_uplinks, dtype=float)
    if up.ndim and up.shape != (n,):
        raise InvalidInputError(f"{up.size} pod uplink counts for a matrix"
                                f" of {n} pods")
    up = np.broadcast_to(up, (n,))
    if (up < 0).any():
        raise InvalidInputError("pod uplink counts must not be negative")
    effective = up * bandwidth / oversub
    load = np.maximum(t.demand.sum(axis=1), t.demand.sum(axis=0))
    with np.errstate(over="ignore"):  # past the float range is inf
        util = np.divide(load, effective, where=effective > 0,
                         out=np.where(load > 0, math.inf, 0.0))
    return EvalRecord(float(util.max(initial=0.0)), 2.0, 0.0)


def sensitivity_map(x: Capacity, omega: RoutingWeights,
                    bandwidth: float = 1.0) -> np.ndarray:
    """Worst utilization increase per unit demand surge, per link: the
    largest w / capacity of a path of weight w > 0 crossing it."""
    _check_bandwidth(bandwidth)
    cap = _capacity_matrix(x) * bandwidth
    n = cap.shape[0]
    if omega.num_pods != n:
        raise InvalidInputError(f"routing weights for {omega.num_pods} pods"
                                f" on a topology of {n}")
    t = _tables(n)
    w = omega.omega[t.hop_path]
    c = cap[t.pair_src, t.pair_dst][t.hop_link]
    hop = np.divide(w, c, out=np.full(len(w), math.inf), where=c > 0)
    link = t.hop_link[w > 0]
    sen = np.zeros((n, n))
    np.maximum.at(sen, (t.pair_src[link], t.pair_dst[link]), hop[w > 0])
    return sen


@dataclass(frozen=True)
class EpochInfo:
    """One reconfiguration event: when, how much changed, how many stages.

    ``error`` holds the reason an epoch could not be re-routed; such an
    epoch keeps the installed topology and weights, and reports their
    throughput and sensitivity.
    """

    time: float
    changed_fraction: float
    stages: int
    mu: float
    beta: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class SimPoint:
    time: float
    record: EvalRecord
    epoch: int
    stage: Optional[int]  # stage index while switching, else None


def _restrict_weights(omega: RoutingWeights, cap: np.ndarray) -> RoutingWeights:
    """Drop paths crossing removed links and renormalize per pair; a pair
    left with no path goes direct, which surfaces as infeasible."""
    t = _tables(omega.num_pods)
    live = (cap[t.pair_src, t.pair_dst][t.path_links] > 0).all(axis=1)
    return RoutingWeights.normalized(
        omega.num_pods, np.where(live, omega.omega, 0.0))


def _stage_shares(drop: np.ndarray, stages: int) -> np.ndarray:
    """``drop``, the circuits to tear down per (m, i, j), in ``stages``
    shares: the ``np.array_split`` pieces of those circuits listed in
    (i, j, m) order, cut from the running sums of the counts instead."""
    count = drop.transpose(1, 2, 0).ravel()
    after = np.cumsum(count)
    s = np.arange(stages + 1)[:, None]
    edge = s * (after[-1] // stages) + np.minimum(s, after[-1] % stages)
    share = np.minimum(after, edge[1:]) - np.maximum(after - count, edge[:-1])
    return np.maximum(share, 0).reshape(stages, *drop.shape[1:], -1
                                        ).transpose(0, 3, 1, 2)


def simulate_reconfig(phys: PhysicalTopology, seq: TmSequence,
                      policy: ReconfigPolicy, *, seed: int = 0,
                      tau_max: int = 50):
    """Periodic reconfiguration over a matrix sequence.

    Criticals come from the monotonically growing history of every matrix
    seen so far; each epoch reruns the full pipeline, rounds, recomputes
    routing, and switches over in ceil(p / (1 - alpha_pred)) stages.  While
    a stage is switching, its share of the changing links is removed and
    the previous weights are renormalized onto the surviving links.  The
    plan in use is one (IntegerTopology, FractionalSolution) pair, and
    each epoch installs its new plan once, at stages * stage_latency after
    the epoch: stages is 0 for the first install, which carries no traffic
    yet, and for an epoch that changes no circuit.  The policy ends each
    switch-over by the next epoch, so the schedule is in time order.  Each
    matrix is scored on the last schedule entry at or before its time, the
    later of two at equal times; a matrix before the first install is not
    scored.

    An epoch whose re-optimization raises InfeasibleRoutingError keeps the
    installed topology and weights, and is recorded with changed_fraction
    0, stages 0 and the error message; the run goes on.  In the first
    epoch nothing is installed yet, so there the error propagates.  The
    first epoch comes ``policy.lookback`` after the first matrix; when that
    is after the last one, the run is InvalidInputError.

    Returns (points, epochs).
    """
    if seq.aggregation_window > policy.frequency:
        raise InvalidInputError("reconfiguration period is finer than the"
                                " matrix aggregation step")
    times = seq.times()
    etime = times[0] + policy.lookback  # the first epoch
    if etime > times[-1]:
        raise InvalidInputError(
            f"lookback of {policy.lookback:g} s reaches past the sequence,"
            f" which spans {times[-1] - times[0]:g} s: no matrix is left to"
            " reconfigure for")
    installed = None  # the (IntegerTopology, FractionalSolution) in use
    schedule = []  # (time, capacity, weights, stage index or None, epoch)
    epochs = []
    while etime <= times[-1]:
        # Never empty: every epoch is at least lookback > 0 after times[0].
        history = seq.matrices[:np.searchsorted(times, etime)]
        try:
            crit = traffic.extract_critical(
                TmSequence(history, seq.aggregation_window),
                min(policy.k, len(history)), seed)
            topo = rounding.ldm_round(
                phys, optimize.run_pipeline(phys, crit).d, tau_max).topo
            routed = optimize.recompute_routing(phys, topo, crit)
        except InfeasibleRoutingError as exc:
            if installed is None:
                raise
            epochs.append(EpochInfo(etime, 0.0, 0, installed[1].mu,
                                    installed[1].beta, error=str(exc)))
        else:
            p, stages = 0.0, 0
            if installed is not None:
                old, old_omega = installed[0].x, installed[1].omega
                drop = np.maximum(old - topo.x, 0)
                total_old = int(old.sum())
                p = int(drop.sum()) / total_old if total_old else 0.0
                stages = num_stages(min(p, 1.0), policy.alpha_pred)
            if stages and policy.stage_latency > 0:
                for s, share in enumerate(_stage_shares(drop, stages)):
                    cap = (old - share).sum(axis=0).astype(float)
                    schedule.append((etime + s * policy.stage_latency, cap,
                                     _restrict_weights(old_omega, cap), s,
                                     len(epochs)))
            schedule.append((etime + stages * policy.stage_latency, topo,
                             routed.omega, None, len(epochs)))
            epochs.append(EpochInfo(etime, p, stages, routed.mu, routed.beta))
            installed = topo, routed
        etime += policy.frequency

    starts = [entry[0] for entry in schedule]
    points = []
    for now, t in zip(times, seq):
        k = bisect.bisect_right(starts, now) - 1
        if k < 0:
            continue
        _, cap, omega, stage, epoch = schedule[k]
        points.append(SimPoint(now, evaluate_static(cap, omega, t,
                                                    phys.link_bandwidth),
                               epoch, stage))
    return points, epochs
