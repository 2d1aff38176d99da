"""Shared instance generators and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

from couder import cli, lp, round as rounding
from couder.errors import (InfeasibleRoutingError, InvalidInputError,
                           UnboundedThroughputError)
from couder.evaluate import _capacity_matrix
from couder.model import (FractionalTopology, Path, PhysicalTopology,
                          TrafficMatrix, demand_scale)
from couder.optimize import BETA_CAP, solve_maxmin_throughput
from couder.traffic import CriticalSet


def _pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def enumerate_paths(num_pods: int) -> dict:
    """Reference of the path order of ``model._tables``: per ordered pair
    the direct path, then one 2-hop path per intermediate pod in ascending
    order, N - 1 paths per pair."""
    if num_pods < 2:
        raise InvalidInputError("need at least 2 pods")
    out = {}
    for i, j in _pairs(num_pods):
        paths = [Path(i, j)]
        paths.extend(Path(i, j, k) for k in range(num_pods)
                     if k != i and k != j)
        out[(i, j)] = paths
    return out


def make_fabric(n: int, m: int, ports_per_switch, bandwidth: float = 1.0
                ) -> PhysicalTopology:
    """Symmetric fabric: every pod exposes the same port count to each switch."""
    q = np.broadcast_to(np.asarray(ports_per_switch, dtype=int), (n,))
    h = np.tile(q, (m, 1))
    return PhysicalTopology(n, m, h, h.copy(), bandwidth)


def write_physical_topology(path, phys: PhysicalTopology):
    """``phys`` as the versioned JSON file the ``couder`` commands read."""
    obj = {"version": cli.VERSION, "num_pods": phys.num_pods,
           "num_ocs": phys.num_ocs, "bandwidth_gbps": phys.link_bandwidth,
           "h_eg": phys.egress_ports.tolist(),
           "h_ig": phys.ingress_ports.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cli._dump(obj) + "\n")


def random_fabric(rng: np.random.Generator, n: int, m: int,
                  qmin: int = 2, qmax: int = 8,
                  bandwidth: float = 1.0) -> PhysicalTopology:
    q = rng.integers(qmin, qmax + 1, size=n)
    return make_fabric(n, m, q, bandwidth)


def random_tm(rng: np.random.Generator, n: int, scale: float = 10.0
              ) -> TrafficMatrix:
    t = rng.uniform(0.0, scale, size=(n, n))
    np.fill_diagonal(t, 0.0)
    return TrafficMatrix(t)


def random_criticals(rng: np.random.Generator, n: int, k: int,
                     scale: float = 10.0) -> CriticalSet:
    return CriticalSet(tuple(random_tm(rng, n, scale) for _ in range(k)))


def hetero_fabric(rng: np.random.Generator, n: int, m: int,
                  qmin: int = 2, qmax: int = 8,
                  bandwidth: float = 1.0) -> PhysicalTopology:
    """Heterogeneous striping: random per-switch egress counts, ingress a
    random composition of each switch's total (at least one per pod)."""
    h_eg = rng.integers(qmin, qmax + 1, size=(m, n))
    h_ig = np.zeros_like(h_eg)
    for sw in range(m):
        total = int(h_eg[sw].sum())
        h_ig[sw] = rng.multinomial(total - n, np.full(n, 1.0 / n)) + 1
    return PhysicalTopology(n, m, h_eg, h_ig, bandwidth)


def idle_pod_instance() -> tuple:
    """(fabric, critical set): 4 pods on 1 switch with 3 ports each, but
    pod 3 has none and no traffic; one critical, 1 on every pair of the
    other pods."""
    ports = np.array([[3, 3, 3, 0]])
    t = np.ones((4, 4))
    t[3, :] = t[:, 3] = 0.0
    np.fill_diagonal(t, 0.0)
    return (PhysicalTopology(4, 1, ports, ports),
            CriticalSet((TrafficMatrix(t),)))


def zero_radix_fabric(rng: np.random.Generator, n: int, m: int,
                      dead: float = 0.1) -> PhysicalTopology:
    """Heterogeneous striping where some pods may have no egress or no
    ingress link at all: per-switch egress counts in [1, 4], each pod
    with none at probability ``dead``, and ingress a random composition of
    each switch's total over the pods not chosen, at probability ``dead``,
    to receive none."""
    h_eg = rng.integers(1, 5, size=(m, n))
    h_eg[:, rng.random(n) < dead] = 0
    takes = rng.random(n) >= dead
    takes[rng.integers(n)] = True
    h_ig = np.zeros_like(h_eg)
    for sw in range(m):
        h_ig[sw, takes] = rng.multinomial(h_eg[sw].sum(),
                                          np.full(takes.sum(),
                                                  1.0 / takes.sum()))
    return PhysicalTopology(n, m, h_eg, h_ig)


def sparse_tm(rng: np.random.Generator, n: int, density: float
              ) -> TrafficMatrix:
    """Random matrix with each off-diagonal entry, uniform in [0, 10),
    nonzero with probability ``density``."""
    t = rng.uniform(0.0, 10.0, size=(n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(t, 0.0)
    return TrafficMatrix(t)


def lp_ideal_toe_mlu(phys: PhysicalTopology, t: TrafficMatrix) -> float:
    """Oracle of ``evaluate.ideal_toe_mlu``: 1/mu of stage 1's LP on the
    one matrix t, over link counts and weights jointly.  0 for an all-zero
    t, infinite for a t that cannot be routed."""
    try:
        return 1.0 / solve_maxmin_throughput(phys, CriticalSet((t,))).mu
    except UnboundedThroughputError:
        return 0.0
    except InfeasibleRoutingError:
        return math.inf


def stage1_routing_mlu(x, t: TrafficMatrix, bandwidth: float = 1.0
                       ) -> float:
    """Oracle of ``evaluate.optimal_routing_mlu``: 1/mu of stage 1's LP on
    the one matrix t with link counts fixed at x's capacities, on a fabric
    of x's pod count, one switch without ports and link bandwidth
    ``bandwidth``.  0 for an all-zero t, infinite for a t that cannot be
    routed."""
    cap = _capacity_matrix(x)
    no_ports = np.zeros((1, cap.shape[0]), dtype=int)
    phys = PhysicalTopology(cap.shape[0], 1, no_ports, no_ports, bandwidth)
    try:
        return 1.0 / solve_maxmin_throughput(phys, CriticalSet((t,)),
                                             _fixed=cap).mu
    except UnboundedThroughputError:
        return 0.0
    except InfeasibleRoutingError:
        return math.inf


def random_fractional(rng: np.random.Generator, phys: PhysicalTopology,
                      fill: float = 0.95) -> FractionalTopology:
    """Random d scaled toward the fabric's degree bounds.

    Throughput-optimal fractional topologies use nearly all of every pod's
    degree budget, so realistic rounding inputs are degree-saturated.
    """
    n = phys.num_pods
    d = rng.uniform(0.2, 3.0, size=(n, n))
    np.fill_diagonal(d, 0.0)
    r_eg = phys.egress_radix.astype(float)
    r_ig = phys.ingress_radix.astype(float)
    for _ in range(60):
        rows = d.sum(axis=1)
        d *= np.where(rows > 0, fill * r_eg / np.maximum(rows, 1e-12),
                      1.0)[:, None]
        cols = d.sum(axis=0)
        over = cols > fill * r_ig
        d[:, over] *= (fill * r_ig[over] / cols[over])[None, :]
    np.fill_diagonal(d, 0.0)
    return FractionalTopology(np.clip(d, 0.0, None))


def brute_force_unit_flow(cost: np.ndarray, budgets: np.ndarray,
                          limits: np.ndarray):
    """Least cost . f over f in {0, 1}^m with budgets @ f <= limits.

    Returns None when no such f exists.
    """
    flows = np.array(list(itertools.product((0, 1), repeat=len(cost))))
    fits = (flows @ budgets.T <= limits + 1e-9).all(axis=1)
    if not fits.any():
        return None
    return float((flows[fits] @ cost).min())


def random_window_instance(rng: np.random.Generator, n: int):
    """Random h, p_net, port budgets and an x̂ that fits the budgets."""
    egress = rng.integers(1, 4, size=n)
    ingress = rng.integers(1, 4, size=n)
    h = rng.integers(0, 4, size=(n, n))
    p_net = rng.normal(0.0, 2.0, size=(n, n))
    x_hat = np.zeros((n, n), dtype=int)
    eg_left, ig_left = egress.copy(), ingress.copy()
    for _ in range(3 * n):
        i, j = rng.integers(n, size=2)
        if i != j and eg_left[i] and ig_left[j]:
            x_hat[i, j] += 1
            eg_left[i] -= 1
            ig_left[j] -= 1
    return h, p_net, x_hat, ingress, egress


def window_utility(x: np.ndarray, h: np.ndarray, p_net: np.ndarray) -> float:
    """Per-switch LDM utility: sum of -(x - h)^2 + p_net * x off the diagonal."""
    off = ~np.eye(len(h), dtype=bool)
    return float((-(x - h) ** 2 + p_net * x)[off].sum())


def brute_force_window_max(h, p_net, x_hat, ingress, egress) -> float:
    """Best utility over every assignment in the window that fits the ports."""
    n = len(h)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    ranges = [np.arange(max(x_hat[i, j] - 1, 0), x_hat[i, j] + 2)
              for i, j in zip(rows, cols)]
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1)
    cells = grid.reshape(-1, len(rows))
    eg_use = np.stack([cells[:, rows == i].sum(axis=1) for i in range(n)], 1)
    ig_use = np.stack([cells[:, cols == j].sum(axis=1) for j in range(n)], 1)
    fits = (eg_use <= egress).all(axis=1) & (ig_use <= ingress).all(axis=1)
    cells = cells[fits]
    h_off, p_off = h[rows, cols], p_net[rows, cols]
    return float((-(cells - h_off) ** 2 + p_off * cells).sum(axis=1).max())


def csc_arrays(dense) -> tuple:
    """The CSC arrays ``(data, indices, indptr)`` of a dense matrix, the
    form ``round.solve_circulation`` takes its budget matrix in."""
    dense = np.asarray(dense, dtype=float)
    cols, rows = np.nonzero(dense.T)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(dense, axis=0))])
    return dense[rows, cols], rows, indptr


def window_subproblem(h, p_net, x_hat, ingress, egress):
    """``round._solve_switch`` on n x n matrices of h, p_net and x̂: the
    result holds its link count per pod pair off the diagonal."""
    n = len(h)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    x = np.zeros((n, n), dtype=int)
    x[rows, cols] = rounding._solve_switch(
        np.column_stack([rows, n + cols]).astype(np.int32),
        2.0 * h[rows, cols] + 1.0, p_net[rows, cols], x_hat[rows, cols],
        np.concatenate([egress, ingress]).astype(float))
    return x


def loop_switch_subproblem(h, p_net, x_hat, ingress, egress):
    """The per-switch subproblem built over n x n matrices, its budget
    matrix through ``scipy.sparse`` and ``colwise_highs_lp`` and its tie
    reward through ``np.unique``, solved with the rounder's subproblem
    options: the reference for ``round._solve_switch``."""
    n = h.shape[0]
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    low = np.maximum(x_hat[rows, cols] - 1, 0)
    width = x_hat[rows, cols] + 1 - low
    cell = np.repeat(np.arange(len(rows)), width)
    first = np.repeat(np.cumsum(width) - width, width)
    unit = low[cell] + 1 + np.arange(len(cell)) - first
    gain = (2.0 * h[rows, cols][cell] + 1.0 - 2.0 * unit
            + p_net[rows, cols][cell])
    eps = 1e-9
    distinct = np.unique(np.round(gain, 12))
    if len(distinct) > 1:
        eps = min(eps, float(np.diff(distinct).min()) / 4)
    units = len(cell)
    index = np.column_stack([rows[cell], n + cols[cell]]).ravel()
    budgets = sp.csc_array((np.ones(2 * units), index,
                            np.arange(0, 2 * units + 1, 2)),
                           shape=(2 * n, units))
    limits = np.concatenate([egress - np.bincount(rows, low, n),
                             ingress - np.bincount(cols, low, n)])
    model = colwise_highs_lp(-(gain + eps), budgets,
                             np.full(len(limits), -np.inf), limits,
                             np.zeros(units), np.ones(units))
    res = lp._run_highs(model, lp._FAMILY_OPTIONS["ldm-subproblem"])
    assert res.status == "optimal"
    flows = np.rint(res.x).astype(int)
    x = np.zeros((n, n), dtype=int)
    x[rows, cols] = low + np.bincount(cell, flows, len(rows)).astype(int)
    return x


def has_short_path(X: np.ndarray, i: int, j: int) -> bool:
    """Whether link totals X give pod pair (i, j) a direct link or a 2-hop
    path."""
    return X[i, j] > 0 or any(X[i, k] > 0 and X[k, j] > 0
                              for k in range(len(X)) if k not in (i, j))


def loop_ldm_round(phys: PhysicalTopology, d_star: FractionalTopology,
                   tau_max: int) -> rounding.RoundingReport:
    """``round.ldm_round`` over n x n matrices, summing every switch's links
    again after each visit: the reference for its pair-vector loop.  The
    prices take a projected subgradient step of 1/tau after each visit.
    After each iteration it completes and repairs the best iterate and
    stops when that result meets every bracket and gives every pod pair a
    direct link or a 2-hop path."""
    n, M = phys.num_pods, phys.num_ocs
    c_minus, c_plus = rounding._brackets(d_star.d)
    np.fill_diagonal(c_minus, 0)
    np.fill_diagonal(c_plus, 0)
    h = np.minimum(phys.egress_ports[:, :, None],
                   phys.ingress_ports[:, None, :])
    x_hat = np.zeros((M, n, n), dtype=int)
    best = x_hat.copy()
    off = ~np.eye(n, dtype=bool)

    def goodness(totals):
        return int(((c_minus <= totals) & (totals <= c_plus))[off].sum())

    def complete(best):
        return rounding._repair(
            phys, d_star.d, rounding._complete(phys, d_star.d, best, c_plus),
            c_minus, c_plus)

    best_good = goodness(x_hat.sum(axis=0))
    p_plus, p_minus = np.zeros((n, n)), np.zeros((n, n))
    iterations = 0
    for tau in range(1, tau_max + 1):
        iterations = tau
        step = 1.0 / tau
        for m in range(M):
            x_hat[m] = loop_switch_subproblem(
                h[m], p_minus - p_plus, x_hat[m],
                phys.ingress_ports[m], phys.egress_ports[m])
            totals = x_hat.sum(axis=0)
            good = goodness(totals)
            if good > best_good:
                best_good = good
                best = x_hat.copy()
            p_plus = np.maximum(p_plus - step * (c_plus - totals), 0.0)
            p_minus = np.maximum(p_minus - step * (totals - c_minus), 0.0)
        if best_good == n * (n - 1):
            break
        X = complete(best).sum(axis=0)
        if goodness(X) == n * (n - 1) and all(
                has_short_path(X, i, j) for i, j in _pairs(n)):
            break
    return rounding._report(complete(best), c_minus, c_plus, iterations)


def loop_complete(phys: PhysicalTopology, d: np.ndarray, x: np.ndarray,
                  c_plus: np.ndarray) -> np.ndarray:
    """Reference of ``round._complete``, one link per pass: after the
    same trim, each switch in turn grants one link to the open pair with
    the largest residual d - X, the first in row-major order on ties."""
    x = x.copy()
    excess = x.sum(axis=0) - c_plus
    for i, j in zip(*np.nonzero(excess > 0)):
        for m in reversed(range(phys.num_ocs)):
            cut = min(x[m, i, j], excess[i, j])
            x[m, i, j] -= cut
            excess[i, j] -= cut
    totals = x.sum(axis=0)
    off_diag = ~np.eye(x.shape[1], dtype=bool)
    for m in range(phys.num_ocs):
        eg_left = phys.egress_ports[m] - x[m].sum(axis=1)
        ig_left = phys.ingress_ports[m] - x[m].sum(axis=0)
        while True:
            open_pairs = ((eg_left[:, None] > 0) & (ig_left[None, :] > 0)
                          & (totals < c_plus) & off_diag)
            if not open_pairs.any():
                break
            residual = np.where(open_pairs, d - totals, -np.inf)
            i, j = np.unravel_index(np.argmax(residual), residual.shape)
            x[m, i, j] += 1
            totals[i, j] += 1
            eg_left[i] -= 1
            ig_left[j] -= 1
    return x


def loop_vlb_weights(cap: np.ndarray) -> dict:
    """Reference of ``evaluate.vlb_weights`` as a ``{Path: w}`` map: one
    loop over the pairs, each path weighted by its thinnest link."""
    n = cap.shape[0]
    weights = {}
    for i, j in _pairs(n):
        caps = [(Path(i, j), cap[i, j])]
        caps.extend((Path(i, j, k), min(cap[i, k], cap[k, j]))
                    for k in range(n) if k not in (i, j))
        total = sum(c for _, c in caps)
        if total <= 0:
            weights[Path(i, j)] = 1.0
            continue
        for p, c in caps:
            if c > 0:
                weights[p] = float(c / total)
    return weights


def loop_sensitivity_map(cap: np.ndarray, weights: dict) -> np.ndarray:
    """Reference of ``evaluate.sensitivity_map`` on capacities ``cap``
    (bandwidth applied): one loop over the paths and their links."""
    n = cap.shape[0]
    sen = np.zeros((n, n))
    for p, w in weights.items():
        if w <= 0:
            continue
        for a, b in p.links():
            if cap[a, b] > 0:
                sen[a, b] = max(sen[a, b], w / cap[a, b])
            else:
                sen[a, b] = math.inf
    return sen


def loop_restrict_weights(weights: dict, cap: np.ndarray) -> dict:
    """Reference of ``evaluate._restrict_weights`` as a ``{Path: w}``
    map."""
    n = cap.shape[0]
    kept = [(p, w) for p, w in weights.items()
            if w > 0 and all(cap[a, b] > 0 for a, b in p.links())]
    total = {}
    for p, w in kept:
        total[p.src, p.dst] = total.get((p.src, p.dst), 0) + w
    out = {Path(i, j): 1.0 for i, j in _pairs(n) if (i, j) not in total}
    out.update((p, w / total[p.src, p.dst]) for p, w in kept)
    return out


def einsum_link_loads(weights: dict, t: np.ndarray) -> np.ndarray:
    """Reference of ``RoutingWeights.loads`` for one matrix ``t``, as an
    (N, N) array: dense direct and [src, dst, via] weights contracted with
    t."""
    n = t.shape[0]
    direct, via = np.zeros((n, n)), np.zeros((n, n, n))
    for p, w in weights.items():
        if p.via is None:
            direct[p.src, p.dst] = w
        else:
            via[p.src, p.dst, p.via] = w
    load = direct * t
    # 2-hop paths: first link (src, via), second link (via, dst).
    load += np.einsum("ijk,ij->ik", via, t)
    load += np.einsum("ijk,ij->kj", via, t)
    return load


def loop_evaluate_static(cap: np.ndarray, weights: dict, t: np.ndarray
                         ) -> tuple:
    """Reference (mlu, direct fraction) of ``evaluate.evaluate_static`` on
    capacities ``cap`` (bandwidth applied), from ``einsum_link_loads``."""
    load = einsum_link_loads(weights, t)
    util = np.zeros_like(load)
    live = cap > 0
    util[live] = load[live] / cap[live]
    if ((~live) & (load > 0)).any():
        mlu = math.inf
    else:
        mlu = float(util.max(initial=0.0))
    direct = sum(w * t[p.src, p.dst] for p, w in weights.items()
                 if p.via is None)
    return mlu, (float(direct / t.sum()) if t.sum() > 0 else 1.0)


def convex_combination(rng: np.random.Generator, crit: CriticalSet
                       ) -> TrafficMatrix:
    """Random demand inside the critical set: lambda >= 0, sum lambda <= 1."""
    k = len(crit)
    lam = rng.dirichlet(np.ones(k)) * rng.uniform(0.0, 1.0)
    t = np.tensordot(lam, crit.stacked(), axes=1)
    np.fill_diagonal(t, 0.0)
    return TrafficMatrix(t)


def wname(p: Path) -> str:
    """Name of a path's weight in the references below."""
    if p.via is None:
        return f"w_{p.src}.{p.dst}"
    return f"w_{p.src}.{p.via}.{p.dst}"


def dname(i: int, j: int) -> str:
    """Name of a link count in the references below."""
    return f"d_{i}.{j}"


class NamedModel:
    """An ``lp.LpModel`` built from variable names through a name -> column
    map of its own, one ``add_rows`` call per row: how the references
    below build the models the index-array code must reproduce."""

    def __init__(self, name: str):
        self.model = lp.LpModel(name)
        self.col = {}

    def var(self, name: str, lb=0.0, ub=None) -> str:
        assert name not in self.col, name
        self.col[name] = int(self.model.add_vars(1, lb, ub)[0])
        return name

    def _terms(self, expr: dict) -> tuple:
        return ([0] * len(expr), [self.col[name] for name in expr],
                list(expr.values()))

    def row(self, expr: dict, relation: str, rhs: float, scaled=None):
        """Add ``expr + scale * scaled  relation  rhs``."""
        self.model.add_rows(*self._terms(expr), relation, [rhs],
                            scaled=self._terms(scaled) if scaled else None)

    def objective(self, sense: str, expr: dict):
        self.model.set_objective(sense, *self._terms(expr)[1:])

    def value(self, sol: lp.LpSolution, name: str) -> float:
        return float(sol.x[self.col[name]])


def crossing_paths(n: int) -> dict:
    """Paths traversing each link (a, b): direct, first-hop, and second-hop."""
    out = {}
    for a, b in _pairs(n):
        paths = [Path(a, b)]
        paths.extend(Path(a, j, b) for j in range(n) if j not in (a, b))
        paths.extend(Path(i, b, a) for i in range(n) if i not in (a, b))
        out[(a, b)] = paths
    return out


def _usable(p: Path, room) -> bool:
    """Whether each link of ``p`` can hold a link: ``room[a, b] > 0``."""
    return all(room[a, b] > 0 for a, b in p.links())


class LoopStageBuilder:
    """Reference for ``optimize._StageBuilder``'s blocks: one row at a
    time from named terms, the rows in the order the index-array builder
    must reproduce."""

    def __init__(self, phys, crit, fixed=None):
        if crit.num_pods != phys.num_pods:
            raise InvalidInputError("critical set does not match the fabric")
        self.phys = phys
        self.crit = crit
        self.fixed = None if fixed is None else np.asarray(fixed, dtype=float)
        self.n = phys.num_pods
        self.b = phys.link_bandwidth
        self.paths = enumerate_paths(self.n)
        self.crossing = crossing_paths(self.n)
        self.demand = crit.stacked()
        self.demanded = self.demand.max(axis=0) > 0
        self.pair_paths = {}
        self.fallback_pairs = []
        # With free link counts a link can hold as many as its pods' radices.
        room = np.minimum.outer(phys.egress_radix, phys.ingress_radix) \
            if self.fixed is None else self.fixed
        for (i, j) in _pairs(self.n):
            usable = [p for p in self.paths[(i, j)] if _usable(p, room)]
            if usable:
                self.pair_paths[(i, j)] = usable
            elif self.demanded[i, j]:
                raise InfeasibleRoutingError(
                    f"no usable path for demanded pair ({i}, {j})", mu=0.0)
            else:
                self.fallback_pairs.append((i, j))

    def new_model(self, name, weight_ub) -> NamedModel:
        model = NamedModel(name)
        for paths in self.pair_paths.values():
            for p in paths:
                model.var(wname(p), 0.0, weight_ub)
        if self.fixed is None:
            r_eg = self.phys.egress_radix
            r_ig = self.phys.ingress_radix
            for i, j in _pairs(self.n):
                model.var(dname(i, j), 0.0, float(min(r_eg[i], r_ig[j])))
            for i in range(self.n):
                model.row({dname(i, j): 1.0 for j in range(self.n) if j != i},
                          lp.LE, float(r_eg[i]))
                model.row({dname(j, i): 1.0 for j in range(self.n) if j != i},
                          lp.LE, float(r_ig[i]))
        return model

    def add_load_constraints(self, model, scale):
        for a, b in _pairs(self.n):
            for k in range(len(self.crit)):
                terms = {}
                for p in self.crossing[(a, b)]:
                    if (p.src, p.dst) not in self.pair_paths:
                        continue
                    if p not in self.pair_paths[(p.src, p.dst)]:
                        continue
                    t = self.demand[k, p.src, p.dst]
                    if t > 0:
                        terms[wname(p)] = scale * t
                if not terms:
                    continue
                if self.fixed is None:
                    terms[dname(a, b)] = -self.b
                    model.row(terms, lp.LE, 0.0)
                else:
                    model.row(terms, lp.LE, self.b * self.fixed[a, b])

    def add_sensitivity_constraints(self, model, beta=None):
        """The caps; with fixed link counts on a column "gamma", pinned at
        ``beta`` when given (omega) and free otherwise (scaled weights).
        One row per (link, path) crossing, except with fixed link counts:
        there one row per usable path, in column order, at the least link
        count on it."""
        if self.fixed is not None:
            model.var("gamma", 0.0 if beta is None else beta, beta)
            for paths in self.pair_paths.values():
                for p in paths:
                    least = min(self.fixed[a, b] for a, b in p.links())
                    model.row({wname(p): 1.0, "gamma": -self.b * least},
                              lp.LE, 0.0)
            return
        if beta is not None:
            model.model.scale = beta
        for (a, b), paths in self.crossing.items():
            for p in paths:
                if p in self.pair_paths.get((p.src, p.dst), ()):
                    model.row({wname(p): 1.0}, lp.LE, 0.0,
                              scaled={dname(a, b): -self.b})

    def add_split_constraints(self, model, total):
        for pair, paths in self.pair_paths.items():
            expr = {wname(p): 1.0 for p in paths}
            if isinstance(total, str):
                expr[total] = -1.0
                model.row(expr, lp.EQ, 0.0)
            else:
                model.row(expr, lp.EQ, float(total))


def loop_stage_model(stage: str, phys, crit, fixed=None, mu=None,
                     beta=None):
    """The model each stage of ``optimize`` solves, built by
    ``LoopStageBuilder`` in scaled weights: stage "1" (max mu), "2" (stage
    1's model plus the caps: joint, at ``model.scale = beta``; with fixed
    link counts on the column gamma, mu pinned at ``mu`` and min gamma) or
    "3" (max z).

    Stage 3 is posed on the model of the stage before it, stage 2's or,
    without ``beta``, stage 1's: mu pinned at ``mu``, the caps at gamma =
    ``mu * beta`` (``scale``, or the gamma column pinned), then z, at
    most ``mu`` times the least positive critical total, and its rows."""
    builder = LoopStageBuilder(phys, crit, fixed)
    name = {"1": "maxmin-throughput" if fixed is None
            else "fixed-throughput",
            "2": "desensitize" if fixed is None else "fixed-desensitize",
            "3": "minimize-ahc-warm"}[stage]
    model = builder.new_model(name, None)
    model.var("mu", 0.0, None)
    builder.add_split_constraints(model, "mu")
    builder.add_load_constraints(model, 1.0)
    model.objective("max", {"mu": 1.0})
    if stage == "1":
        return model.model
    if stage == "2" or beta is not None:
        builder.add_sensitivity_constraints(model)
        if fixed is None:
            model.model.scale = beta if stage == "2" else mu * beta
    if stage == "2":
        if fixed is not None:
            model.model.set_bounds([model.col["mu"]], mu, mu)
            model.objective("min", {"gamma": 1.0})
        return model.model
    model.model.set_bounds([model.col["mu"]], mu, mu)
    if beta is not None and fixed is not None:
        model.model.set_bounds([model.col["gamma"]], mu * beta, mu * beta)
    model.var("z", 0.0, mu * min(t.demand.sum() for t in crit
                                  if t.demand.any()))
    _add_direct_rows(builder, model)
    return model.model


def loop_stage3_in_omega(phys, crit, fixed=None, mu=None, beta=None
                         ) -> NamedModel:
    """Stage 3 in the routing fractions omega, z unbounded: weights
    summing to one per pair, the loads at ``mu`` and, with ``beta``, the
    caps at ``beta``: an oracle for the optimum of the model in scaled
    weights that ``optimize`` solves instead."""
    builder = LoopStageBuilder(phys, crit, fixed)
    model = builder.new_model("minimize-ahc", 1.0)
    model.var("z", 0.0, None)
    builder.add_split_constraints(model, 1.0)
    builder.add_load_constraints(model, mu)
    if beta is not None:
        builder.add_sensitivity_constraints(model, beta)
    _add_direct_rows(builder, model)
    return model


def _add_direct_rows(builder: LoopStageBuilder, model: NamedModel):
    """Stage 3's rows, one per critical that carries traffic: its traffic
    on direct paths is at least z; and the objective, max z."""
    for k in range(len(builder.crit)):
        if not builder.demand[k].any():
            continue
        terms = {"z": -1.0}
        for (i, j), paths in builder.pair_paths.items():
            t = builder.demand[k, i, j]
            if t > 0 and paths[0].via is None:
                terms[wname(paths[0])] = t
        model.row(terms, lp.GE, 0.0)
    model.objective("max", {"z": 1.0})


def assert_same_model(model: lp.LpModel, ref: lp.LpModel):
    """The same columns, bounds, objective and rows, bit for bit: the
    row pattern with its values and its scaled values, and the row bounds,
    as ``lp.solve`` hands them to HiGHS."""
    assert model.num_variables == ref.num_variables
    assert model._lb.tobytes() == ref._lb.tobytes()
    assert model._ub.tobytes() == ref._ub.tobytes()
    assert model._sense == ref._sense and model.scale == ref.scale
    assert objective(model).tobytes() == objective(ref).tobytes()
    got, want = model._assembly(), ref._assembly()
    assert got.matrix.shape == want.matrix.shape
    for name in ("indptr", "indices", "data"):
        assert (getattr(got.matrix, name).tobytes()
                == getattr(want.matrix, name).tobytes())
    assert (got.scaled is None) == (want.scaled is None)
    if got.scaled is not None:
        assert got.scaled.data.tobytes() == want.scaled.data.tobytes()
    assert got.bounds.tobytes() == want.bounds.tobytes()


def objective(model: lp.LpModel) -> np.ndarray:
    """The model's objective as a dense cost vector."""
    c = np.zeros(model.num_variables)
    np.add.at(c, *model._objective)
    return c


# An LpModel built column-wise from one sparse matrix per part, the
# blocks stacked in the order added: the oracle for the model HiGHS must
# hold after lp.solve hands it the rows row-wise.

def _reference_stack(blocks, offsets, shape) -> sp.csr_matrix:
    """CSR matrix of the blocks' (rows, cols, coefs) triplets, block k's
    rows moved down by ``offsets[k]``; a block may be None, and zero
    values are dropped."""
    kept = [k for k, blk in enumerate(blocks) if blk is not None]
    if not kept:
        return sp.csr_matrix(shape)
    sizes = [len(blocks[k][0]) for k in kept]
    rows, cols, vals = (np.concatenate([blocks[k][part] for k in kept])
                        for part in range(3))
    rows += np.repeat([offsets[k] for k in kept], sizes)
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


def colwise_highs_lp(c, A, lower, upper, lb, ub) -> tuple:
    """The array ``passModel`` arguments, column-wise, of: minimize c x
    subject to lower <= A x <= upper and lb <= x <= ub, through
    ``scipy.sparse``'s CSC form of A."""
    A = sp.csc_array(A)
    num_row, num_col = A.shape
    return (num_col, num_row, A.nnz, lp._COLWISE, lp._MINIMIZE, 0.0,
            np.asarray(c, dtype=float), np.asarray(lb, dtype=float),
            np.asarray(ub, dtype=float), np.asarray(lower, dtype=float),
            np.asarray(upper, dtype=float), A.indptr.astype(np.int32),
            A.indices.astype(np.int32), A.data.astype(float),
            np.zeros(num_col, dtype=np.int32))


def reference_highs_lp(model: lp.LpModel):
    """The HiGHS model of ``model`` at its current ``scale``, built from
    sparse matrices: one CSR matrix of the fixed terms and one of the
    scaled terms, the blocks stacked in the order added, summed as
    A + scale * A_scaled and handed over column-wise, each row's
    right-hand side the bound or bounds its relation sets."""
    blocks = model._blocks
    sizes = [len(blk.rhs) for blk in blocks]
    offsets = np.cumsum([0] + sizes)
    shape = (sum(sizes), model.num_variables)
    A = _reference_stack([blk.terms for blk in blocks], offsets, shape)
    A_scaled = _reference_stack([blk.scaled for blk in blocks], offsets,
                                shape)
    if A_scaled.nnz:
        A = A + model.scale * A_scaled
    lower = np.concatenate([np.zeros(0)] + [
        np.full(len(blk.rhs), -np.inf) if blk.relation == lp.LE else blk.rhs
        for blk in blocks])
    upper = np.concatenate([np.zeros(0)] + [
        np.full(len(blk.rhs), np.inf) if blk.relation == lp.GE else blk.rhs
        for blk in blocks])
    sign = -1.0 if model._sense == "max" else 1.0
    return colwise_highs_lp(sign * objective(model), A, lower, upper,
                            np.array(model._lb), np.array(model._ub))


def held_lp(model: tuple) -> tuple:
    """What HiGHS holds after ``passModel(*model)``, ``model`` the
    argument tuple of the array ``passModel`` as ``lp._run_highs`` takes
    it: costs, column bounds, row bounds and the column-wise start, index
    and value arrays.  Every column must be continuous."""
    solver = lp._highs._Highs()
    solver.passOptions(lp._OPTIONS)
    assert solver.passModel(*model) != lp._highs.HighsStatus.kError
    held = solver.getLp()
    assert all(kind == lp._highs.HighsVarType.kContinuous
               for kind in held.integrality_)
    matrix = held.a_matrix_
    assert matrix.format_ == lp._highs.MatrixFormat.kColwise
    return tuple(np.asarray(part).tobytes() for part in (
        held.col_cost_, held.col_lower_, held.col_upper_, held.row_lower_,
        held.row_upper_, matrix.start_, matrix.index_, matrix.value_))


def record_highs_models(monkeypatch) -> list:
    """(``held_lp`` of the HiGHS model, ``held_lp`` of
    ``reference_highs_lp``) of every ``lp.solve`` from now on, in order.
    The first is taken as the model is sent, since a later solve of the
    same ``LpModel`` writes into the arrays it sent; the reference reads
    the ``LpModel`` before the solve, at its ``scale`` then."""
    pairs, sent = [], []
    solve, run = lp.solve, lp._run_highs

    def recording_solve(model):
        ref = held_lp(reference_highs_lp(model))
        res = solve(model)
        pairs.append((sent.pop(), ref))
        return res

    def recording_run(model, *args, **kwargs):
        sent.append(held_lp(model))
        return run(model, *args, **kwargs)

    monkeypatch.setattr(lp, "solve", recording_solve)
    monkeypatch.setattr(lp, "_run_highs", recording_run)
    return pairs


def record_highs(monkeypatch) -> list:
    """(basis, ``LpSolution``) of each HiGHS call ``lp.solve`` makes from
    now on, the basis being the one the call starts from, None for a cold
    solve."""
    calls, real = [], lp.linprog

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((kwargs["basis"], res))
        return res

    monkeypatch.setattr(lp, "linprog", recording)
    return calls


def frozen(model: lp.LpModel) -> lp.LpModel:
    """A copy of ``model`` as it stands, which later edits of ``model`` do
    not change: every edit replaces the arrays and tuples it changes, and
    the copy assembles its own rows."""
    copy = lp.LpModel(model.name)
    copy.__dict__.update(model.__dict__, _blocks=list(model._blocks),
                         _assembled=None)
    return copy


def feasible_at_beta(builder: LoopStageBuilder, mu_star: float,
                     beta: float) -> bool:
    """Whether stage 2's rows admit weights at this beta: one feasibility
    LP built from scratch, the caps written with beta as a constant."""
    model = builder.new_model("oracle", 1.0)
    builder.add_split_constraints(model, 1.0)
    builder.add_load_constraints(model, mu_star)
    for a, b in _pairs(builder.n):
        for p in builder.crossing[(a, b)]:
            if p not in builder.pair_paths.get((p.src, p.dst), ()):
                continue
            if builder.fixed is None:
                model.row({wname(p): 1.0, dname(a, b): -beta * builder.b},
                          lp.LE, 0.0)
            else:
                model.row({wname(p): 1.0}, lp.LE,
                          beta * builder.b * builder.fixed[a, b])
    return lp.solve(model.model).optimal


def bisect_beta(phys: PhysicalTopology, crit: CriticalSet, mu_star: float,
                fixed=None, tol: float = 1e-3):
    """Smallest feasible beta by bisection from the bracket [0, 1], whose
    upper end doubles until feasible; stops at relative width ``tol``.
    None when no beta up to ``BETA_CAP`` is feasible."""
    builder = LoopStageBuilder(phys, crit, fixed=fixed)
    lo, hi = 0.0, 1.0
    while not feasible_at_beta(builder, mu_star, hi):
        lo, hi = hi, 2 * hi
        if hi > BETA_CAP:
            return None
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2
        if feasible_at_beta(builder, mu_star, mid):
            hi = mid
        else:
            lo = mid
    return hi
