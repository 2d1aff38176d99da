"""Fractional topology + routing optimization pipeline.

Three LP stages over a set of critical traffic matrices:

1. maximize the worst-case throughput scale factor mu shared by all
   critical matrices (a single routing weight set serves every matrix);
2. desensitize: find the smallest sensitivity bound beta that still
   supports mu.  The bound caps every path on every link it crosses,
   w_p <= beta * b * d_ab, so beta bounds the utilization a unit burst on
   one pair can add to any link: exactly what
   ``evaluate.sensitivity_map`` reports.  With free link counts the caps
   are bilinear in (beta, d); written in stage 1's scaled weights as
   w_p <= gamma * b * d_ab they are linear for a fixed gamma, and the
   largest throughput F(gamma) under them is one LP whose duals also give
   F'(gamma).  Stage 2 is a safeguarded Newton root-find of
   F(gamma) = mu* (Dinkelbach's method), and beta = gamma / F.  With link
   counts fixed it is one LP minimizing beta;
3. minimize average hop count by maximizing worst-case direct-path
   traffic subject to mu and beta.

Stage 1 is nonlinear as written (mu * omega products) and is solved in
scaled weights wp = omega * mu, which linearizes every constraint.
The same stages rerun with link counts frozen to an integer topology to
recompute routing after rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import lp
from .errors import (InfeasibleRoutingError, InternalError, InvalidInputError,
                     UnboundedThroughputError)
from .model import (FractionalTopology, IntegerTopology, Path,
                    PhysicalTopology, RoutingWeights, _freeze,
                    enumerate_paths, validate)
from .traffic import CriticalSet

#: Relative throughput slack of the joint stage 2: it accepts a cap gamma
#: once F(gamma) >= mu* (1 - MU_SLACK), and hands stage 3 that F, lowered
#: by the same factor.
MU_SLACK = 1e-7
#: Relative width at which stage 2's fallback bracket on gamma stops.  Only
#: a Newton step that overshoots onto the plateau F = mu* falls back to it.
BETA_TOL = 1e-3
BETA_CAP = 1e6


@dataclass(frozen=True)
class FractionalSolution:
    d: FractionalTopology
    omega: RoutingWeights
    mu: float
    beta: Optional[float] = None


def _pairs(n: int):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


class _Tables(NamedTuple):
    """Index tables of every path and link among ``n`` pods.

    Links and pairs share one index: the position in ``_pairs(n)``, which
    is also the row-major order of a matrix's off-diagonal entries.  Paths
    run in column order: pairs order, then ``enumerate_paths`` order, so
    pair q owns paths q (n - 1) .. (q + 1) (n - 1) - 1.
    """

    pairs: tuple
    pair_src: np.ndarray  # (pairs,)
    pair_dst: np.ndarray
    paths: tuple
    path_pair: np.ndarray  # (paths,)
    path_links: np.ndarray  # (paths, 2); a direct path's one link twice
    # Each (link, path) crossing, link-major; per link the direct path,
    # then the paths with it as first hop, then as second hop.
    cross_link: np.ndarray
    cross_path: np.ndarray


@functools.lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    """The read-only ``_Tables`` of ``n`` pods, built once per process."""
    pairs = tuple(_pairs(n))
    link = {pair: q for q, pair in enumerate(pairs)}
    paths = tuple(p for ps in enumerate_paths(n).values() for p in ps)
    column = {p: k for k, p in enumerate(paths)}
    crossing = []
    for (a, b), q in link.items():
        through = [Path(a, b)]
        through.extend(Path(a, j, b) for j in range(n) if j not in (a, b))
        through.extend(Path(i, b, a) for i in range(n) if i not in (a, b))
        crossing.extend((q, column[p]) for p in through)
    hops = [p.links() for p in paths]
    return _Tables(
        pairs, _freeze([i for i, _ in pairs]), _freeze([j for _, j in pairs]),
        paths, _freeze([link[p.src, p.dst] for p in paths]),
        _freeze([(link[ls[0]], link[ls[-1]]) for ls in hops]),
        _freeze([q for q, _ in crossing]), _freeze([k for _, k in crossing]))


def _per_row_term(rows, cols, coefs, num_rows: int, col, coef) -> tuple:
    """The triplets plus one term on each of rows 0 .. num_rows - 1: the
    coefficient ``coef`` on the column ``col``, each a value or one per
    row."""
    return (np.concatenate([rows, np.arange(num_rows)]),
            np.concatenate([cols, np.broadcast_to(col, num_rows)]),
            np.concatenate([coefs, np.broadcast_to(coef, num_rows)]))


class _StageBuilder:
    """Shared constraint blocks for the three LP stages.

    When ``fixed`` is given, link counts are constants (routing-only mode)
    and paths crossing a zero-capacity link are dropped; pairs left with no
    usable path are deferred to a direct-only fallback unless demanded.

    A model from ``new_model`` has a known column layout: one weight per
    usable path, in path order (``col`` maps each path to its column, or
    to -1 when it crosses a zero-capacity link); then, unless link counts
    are fixed, one link count per pair (``_dcol``); then ``stage_col``,
    the stage's own variable (mu, beta or z).  Every block of rows is one
    ``LpModel.add_rows`` call whose triplets come from numpy index
    arithmetic on ``_tables(n)``: the paths in column order, each path's
    pair and links, and the (link, path) crossing table, built once per
    pod count and shared read-only.  A builder adds what depends on its
    topology: ``capacity`` per link when fixed, and ``col``.
    """

    def __init__(self, phys: PhysicalTopology, crit: CriticalSet,
                 fixed: Optional[np.ndarray] = None):
        if crit.num_pods != phys.num_pods:
            raise InvalidInputError("critical set does not match the fabric")
        self.phys = phys
        self.crit = crit
        self.fixed = None if fixed is None else np.asarray(fixed, dtype=float)
        self.n = phys.num_pods
        self.b = phys.link_bandwidth
        self.tables = t = _tables(self.n)
        self.demand = crit.stacked()
        self.demanded = self.demand.max(axis=0) > 0
        if self.fixed is None:
            self.capacity = None
            usable = np.ones(len(t.paths), dtype=bool)
        else:
            self.capacity = self.fixed[t.pair_src, t.pair_dst]  # per link
            usable = (self.capacity[t.path_links] > 0).all(axis=1)
        self.col = np.where(usable, np.cumsum(usable) - 1, -1)
        self.num_weights = int(usable.sum())
        self.stage_col = self.num_weights + (
            len(t.pairs) if self.fixed is None else 0)
        routed = np.bincount(t.path_pair[usable], minlength=len(t.pairs)) > 0
        stranded = np.flatnonzero(~routed
                                  & self.demanded[t.pair_src, t.pair_dst])
        if len(stranded):
            raise InfeasibleRoutingError(
                f"no usable path for demanded pair {t.pairs[stranded[0]]}",
                mu=0.0)
        self.fallback = np.flatnonzero(~routed)
        self.usable = np.flatnonzero(usable)
        # The routed pairs, and each weight column's position among them:
        # its split row.
        self.routed, self.split_row = np.unique(t.path_pair[usable],
                                                return_inverse=True)

    def _dcol(self) -> np.ndarray:
        """Column of each link count, right after the weights."""
        return self.num_weights + np.arange(len(self.tables.pairs))

    def _crossing(self) -> tuple:
        """(link, path) of each usable path crossing each link."""
        t = self.tables
        on = self.col[t.cross_path] >= 0
        return t.cross_link[on], t.cross_path[on]

    def new_model(self, name: str, weight_ub: Optional[float]) -> lp.LpModel:
        """One weight column per usable path, then link-count columns and
        port rows."""
        t = self.tables
        model = lp.LpModel(name)
        model.add_vars(self.num_weights, 0.0, weight_ub)
        if self.fixed is None:
            r_eg = self.phys.egress_radix
            r_ig = self.phys.ingress_radix
            dcol = model.add_vars(
                len(t.pairs), 0.0, np.minimum(r_eg[t.pair_src],
                                              r_ig[t.pair_dst]))
            # Row 2i caps pod i's egress links, row 2i + 1 its ingress.
            model.add_rows(np.concatenate([2 * t.pair_src, 2 * t.pair_dst + 1]),
                           np.tile(dcol, 2), np.ones(2 * len(dcol)), lp.LE,
                           np.stack([r_eg, r_ig], axis=1).ravel())
        return model

    def add_load_constraints(self, model: lp.LpModel, scale: float):
        """Per-link, per-critical capacity rows: load <= capacity.

        Rows run link-major, critical-minor; a row no demanded path
        crosses is left out.
        """
        t = self.tables
        link, path = self._crossing()
        K = len(self.crit)
        demand = self.demand[:, t.pair_src, t.pair_dst][:, t.path_pair[path]]
        k, c = np.nonzero(demand > 0)
        row_ids, row = np.unique(link[c] * K + k, return_inverse=True)
        row_link = row_ids // K
        cols = self.col[path[c]]
        coefs = scale * demand[k, c]
        if self.fixed is None:
            model.add_rows(*_per_row_term(row, cols, coefs, len(row_ids),
                                          self._dcol()[row_link], -self.b),
                           lp.LE, np.zeros(len(row_ids)))
        else:
            model.add_rows(row, cols, coefs, lp.LE,
                           self.b * self.capacity[row_link])

    def add_sensitivity_constraints(self, model: lp.LpModel,
                                    beta: Optional[float] = None):
        """Cap each path weight at beta times every link the path crosses.

        w_p <= beta * b * d_ab for each link (a, b) of p, so no link's
        utilization rises by more than beta per unit of one pair's demand;
        ``evaluate.sensitivity_map`` reports the same quantity.  With free
        link counts the cap's d term is a scaled term and beta is
        ``model.scale``.  With fixed link counts beta is a new column,
        pinned to ``beta`` when given and free otherwise.
        """
        link, path = self._crossing()
        rows = np.arange(len(path))
        if self.fixed is None:
            if beta is not None:
                model.scale = beta
            model.add_rows(rows, self.col[path], np.ones(len(rows)), lp.LE,
                           np.zeros(len(rows)),
                           scaled=(rows, self._dcol()[link],
                                   np.full(len(rows), -self.b)))
        else:
            beta_col = model.add_vars(1, 0.0 if beta is None else beta,
                                      beta)[0]
            model.add_rows(*_per_row_term(rows, self.col[path],
                                          np.ones(len(rows)), len(rows),
                                          beta_col,
                                          -self.b * self.capacity[link]),
                           lp.LE, np.zeros(len(rows)))

    def add_split_constraints(self, model: lp.LpModel,
                              total: Optional[int] = None):
        """Per-pair weight sums, one row per routed pair: equal to the
        column ``total`` when given, else to one."""
        rows, cols = self.split_row, np.arange(self.num_weights)
        coefs, num_rows = np.ones(len(rows)), len(self.routed)
        if total is None:
            model.add_rows(rows, cols, coefs, lp.EQ, np.ones(num_rows))
        else:
            model.add_rows(*_per_row_term(rows, cols, coefs, num_rows,
                                          total, -1.0),
                           lp.EQ, np.zeros(num_rows))

    def extract(self, x: np.ndarray, normalize: Optional[float] = None):
        """(d, omega, weights) of a solved model's vertex ``x``: omega
        holds each path's weight in ``_tables`` order, and ``weights`` the
        positive ones as a ``Path``-keyed dict, in that order, with the
        pairs deferred at construction last.

        ``normalize`` divides weights (recovering omega from scaled wp)
        and per-pair sums are renormalized to exactly one; a routed pair
        whose weights sum to almost nothing, and a pair deferred at
        construction, falls back to its direct path.  Each pair's sum
        adds its weights in path order, as numpy sums a pair's slice of
        up to seven, so that up to 8 pods the result is bit for bit what
        a loop over the pairs gives.
        """
        t = self.tables
        w = x[:self.num_weights]
        if normalize is not None:
            w = w / normalize
        total = np.bincount(self.split_row, w, len(self.routed))
        empty = total <= 1e-12
        omega = np.zeros(len(t.paths))
        omega[self.usable] = np.divide(w, total[self.split_row],
                                       out=np.zeros(len(w)),
                                       where=~empty[self.split_row])
        per = self.n - 1
        omega[self.routed[empty] * per] = 1.0
        keys = np.flatnonzero(omega > 0)
        weights = dict(zip([t.paths[k] for k in keys], omega[keys].tolist()))
        weights.update((Path(*t.pairs[q]), 1.0) for q in self.fallback)
        omega[self.fallback * per] = 1.0
        if self.fixed is None:
            d = np.zeros((self.n, self.n))
            d[t.pair_src, t.pair_dst] = np.maximum(x[self._dcol()], 0.0)
        else:
            d = self.fixed.copy()
        return d, omega, weights

    def lift_d(self, d: np.ndarray, omega: np.ndarray,
               mu: float) -> np.ndarray:
        """Raise d to cover the realized critical loads exactly.

        Clears sub-tolerance LP residue so the throughput guarantee holds
        with a true inequality on every link; the lift is bounded by the
        solver feasibility tolerance.  ``omega`` is ``extract``'s.  Each
        link adds its loads in path order, as a loop over the weights
        dict does.
        """
        if self.fixed is not None or mu <= 0:
            return d
        t = self.tables
        num_links = len(t.pairs)
        demand = self.demand[:, t.pair_src, t.pair_dst][:, t.path_pair]
        k, path = np.nonzero((demand > 0) & (omega > 0))
        flow = omega[path] * mu * demand[k, path]
        # Each path's links in order; a direct path has its one link once.
        links = t.path_links[path]
        hop = np.ones(links.shape, dtype=bool)
        hop[:, 1] = links[:, 0] != links[:, 1]
        index = (k[:, None] * num_links + links)[hop]
        load = np.bincount(index, np.repeat(flow, hop.sum(axis=1)),
                           len(self.crit) * num_links)
        lifted = d.copy()
        lifted[t.pair_src, t.pair_dst] = np.maximum(
            d[t.pair_src, t.pair_dst],
            load.reshape(len(self.crit), num_links).max(axis=0) / self.b)
        return lifted


def _throughput_model(builder: _StageBuilder, name: str) -> lp.LpModel:
    """Stage 1's LP in scaled weights: maximize mu subject to weights
    summing to mu per pair and every critical's load within capacity."""
    model = builder.new_model(name, None)
    mu = model.add_vars(1, 0.0, None)[0]
    builder.add_split_constraints(model, mu)
    builder.add_load_constraints(model, 1.0)
    model.set_objective("max", [mu], [1.0])
    return model


def solve_maxmin_throughput(phys: PhysicalTopology, crit: CriticalSet,
                            _fixed: Optional[np.ndarray] = None
                            ) -> FractionalSolution:
    """Stage 1: jointly choose link counts and one weight set maximizing mu.

    With ``_fixed`` the link counts are those constants and only the
    weights are chosen.
    """
    builder = _StageBuilder(phys, crit, fixed=_fixed)
    if not builder.demanded.any():
        raise UnboundedThroughputError("all critical matrices are zero")
    name = "maxmin-throughput" if _fixed is None else "fixed-throughput"
    sol = lp.solve(_throughput_model(builder, name))
    if sol.status == "unbounded":
        raise UnboundedThroughputError("throughput is unbounded")
    if not sol.optimal:
        raise InternalError(f"stage-1 LP ended {sol.status}")
    mu = float(sol.x[builder.stage_col])
    if mu <= 1e-12:
        raise InfeasibleRoutingError("critical demand cannot be routed", mu=0.0)
    d, omega, weights = builder.extract(sol.x, normalize=mu)
    d = builder.lift_d(d, omega, mu)
    return FractionalSolution(FractionalTopology(d),
                              RoutingWeights(weights, mu=mu), mu)


def _newton_beta(builder: _StageBuilder, model: lp.LpModel, mu_star: float):
    """(beta, F, solution) of the joint stage 2, with F >= mu* (1 - MU_SLACK).

    ``model`` is stage 1's LP plus the caps w_p <= gamma * b * d_ab, gamma
    being ``model.scale``; its optimum F(gamma) does not decrease in gamma
    and each solve gives the slope F'(gamma).  A point (F, gamma) has
    beta = gamma / F.  The search starts at the radix bound: pod i splits
    F over each of its n - 1 pairs, and each path is capped at its first
    link (i, x), the first link of n - 1 of those paths, so
    F <= gamma * b * sum_x d_ix <= gamma * b * r_eg[i]; ingress likewise.
    Below target, gamma takes the Newton step gamma + (mu* - F) / F' when
    F' > 0 and the step stays inside the bracket (lo, hi); otherwise it
    doubles while there is no upper end and bisects once there is.  At or
    above target a rising F is accepted; a flat one has overshot onto the
    plateau F = mu*, so it becomes the upper end, kept once the bracket is
    narrower than ``BETA_TOL``.  After a Newton step overshoots, the next
    gamma probes hi (1 - ``BETA_TOL``): if F falls short there, that
    closes the bracket.
    """
    radix = int(min(builder.phys.egress_radix.min(),
                    builder.phys.ingress_radix.min()))
    if radix <= 0:
        raise InternalError("no feasible sensitivity bound below cap")
    beta_lo = 1.0 / (builder.b * radix)
    target = mu_star * (1.0 - MU_SLACK)
    gamma = lo = mu_star * beta_lo
    hi = math.inf
    newton = False  # whether gamma came from a Newton step
    while True:
        if gamma > BETA_CAP * mu_star:
            raise InternalError("no feasible sensitivity bound below cap")
        model.scale = gamma
        sol = lp.solve(model)
        if not sol.optimal:
            raise InternalError(f"stage-2 LP ended {sol.status}")
        F = float(sol.x[builder.stage_col])
        # A slope this small moves F by less than the slack as gamma doubles.
        rising = sol.slope * gamma > MU_SLACK * F
        if F >= target and rising:
            break
        if F >= target:
            hi, best = gamma, sol
        else:
            lo = gamma
        if lo >= (1.0 - BETA_TOL) * hi:
            gamma, sol = hi, best
            break
        step = gamma + (mu_star - F) / sol.slope if rising else math.nan
        # A Newton step that overshot onto the plateau lands just above the
        # root where F is convex below it: one probe just under it closes
        # the bracket.  A bisection midpoint can land anywhere above it.
        probe = F >= target and newton
        newton = not probe and lo < step < hi
        if probe:
            gamma = (1.0 - BETA_TOL) * hi
        elif newton:
            gamma = step
        elif math.isinf(hi):
            gamma = 2.0 * gamma
        else:
            gamma = (lo + hi) / 2.0
    # The radix bound is a proof; float noise in F, or in gamma / F itself,
    # can put the quotient an ulp below it.
    F = float(sol.x[builder.stage_col])
    return max(gamma / F, beta_lo), F, sol


def desensitize(phys: PhysicalTopology, crit: CriticalSet, mu_star: float,
                _fixed: Optional[np.ndarray] = None) -> FractionalSolution:
    """Stage 2: smallest sensitivity bound beta preserving throughput mu*.

    With free link counts this is ``_newton_beta``'s root-find of
    F(gamma) = mu*, one re-solve of one model per step.  The solution has
    beta = gamma / F and mu = F (1 - MU_SLACK), both meant for stage 3:
    stage 2's own solution proves (F, gamma / F) feasible, yet HiGHS has
    called stage 3 infeasible exactly there, so stage 3 gets that slack.
    With link counts fixed by ``_fixed`` the caps are linear in beta, one
    LP minimizes it exactly, and mu is mu*.
    """
    if mu_star <= 0:
        raise InvalidInputError("mu_star must be positive")
    builder = _StageBuilder(phys, crit, fixed=_fixed)
    if _fixed is None:
        model = _throughput_model(builder, "desensitize")
        builder.add_sensitivity_constraints(model)
        beta, F, best = _newton_beta(builder, model, mu_star)
        mu = F * (1.0 - MU_SLACK)
        d, omega, weights = builder.extract(best.x, normalize=F)
    else:
        model = builder.new_model("desensitize", 1.0)
        builder.add_split_constraints(model)
        builder.add_load_constraints(model, mu_star)
        builder.add_sensitivity_constraints(model)
        model.set_objective("min", [builder.stage_col], [1.0])
        best = lp.solve(model)
        beta = float(best.x[builder.stage_col]) if best.optimal else math.inf
        if beta > BETA_CAP:
            raise InternalError("no feasible sensitivity bound below cap")
        mu = mu_star
        d, omega, weights = builder.extract(best.x)
    d = builder.lift_d(d, omega, mu)
    return FractionalSolution(FractionalTopology(d),
                              RoutingWeights(weights, mu=mu, beta=beta),
                              mu, beta)


def minimize_ahc(phys: PhysicalTopology, crit: CriticalSet, mu_star: float,
                 beta: Optional[float],
                 _fixed: Optional[np.ndarray] = None) -> FractionalSolution:
    """Stage 3: maximize worst-case direct-path traffic at fixed mu* and beta.

    ``beta=None`` skips the sensitivity caps (the non-desensitized variant).
    """
    if mu_star <= 0:
        raise InvalidInputError("mu_star must be positive")
    builder = _StageBuilder(phys, crit, fixed=_fixed)
    model = builder.new_model("minimize-ahc", 1.0)
    z = model.add_vars(1, 0.0, None)[0]
    builder.add_split_constraints(model)
    builder.add_load_constraints(model, mu_star)
    if beta is not None:
        builder.add_sensitivity_constraints(model, beta)
    # Row k: critical k's traffic on direct paths is at least z.
    t = builder.tables
    direct = builder.col[np.arange(len(t.pairs)) * (builder.n - 1)]
    demand = builder.demand[:, t.pair_src, t.pair_dst]
    k, q = np.nonzero((demand > 0) & (direct >= 0))
    model.add_rows(*_per_row_term(k, direct[q], demand[k, q], len(crit), z,
                                  -1.0), lp.GE, np.zeros(len(crit)))
    model.set_objective("max", [z], [1.0])
    sol = lp.solve(model)
    if not sol.optimal:
        raise InternalError(f"stage-3 LP ended {sol.status}")
    d, omega, weights = builder.extract(sol.x)
    d = builder.lift_d(d, omega, mu_star)
    return FractionalSolution(FractionalTopology(d),
                              RoutingWeights(weights, mu=mu_star, beta=beta),
                              mu_star, beta)


def run_pipeline(phys: PhysicalTopology, crit: CriticalSet,
                 desensitized: bool = True) -> FractionalSolution:
    """Full stage 1 -> 2 -> 3 run; stage 2 is skipped when not desensitized."""
    step = solve_maxmin_throughput(phys, crit)
    if desensitized:
        step = desensitize(phys, crit, step.mu)
    return minimize_ahc(phys, crit, step.mu, step.beta)


def recompute_routing(phys: PhysicalTopology, topo: IntegerTopology,
                      crit: CriticalSet,
                      desensitized: bool = True) -> FractionalSolution:
    """Rerun the three stages with link counts frozen to the integer topology.

    Stage 2 is one LP here, so stage 3 runs at its exact minimum beta.
    """
    if validate(phys, topo):
        raise InvalidInputError("integer topology violates port budgets")
    fixed = topo.X.astype(float)
    mu = solve_maxmin_throughput(phys, crit, _fixed=fixed).mu
    beta = None
    if desensitized:
        beta = desensitize(phys, crit, mu, _fixed=fixed).beta
    return minimize_ahc(phys, crit, mu, beta, _fixed=fixed)


def compute_path_capacity(topo: IntegerTopology, max_hops: int,
                          bandwidth: float = 1.0) -> float:
    """Mean pod-pair capacity over paths of at most ``max_hops`` hops.

    Per ordered pair this is a hop-layered maximum flow: layer-indexed link
    flows share each physical link's capacity, may not revisit the source
    or leave the destination, and must reach the destination within the hop
    budget.  One hop reduces to the direct link count.
    """
    if max_hops not in (1, 2, 3, 4):
        raise InvalidInputError("max_hops must be between 1 and 4")
    X = topo.X.astype(float) * bandwidth
    n = topo.num_pods
    if max_hops == 1:
        total = X.sum()  # diagonal is zero by construction
        return float(total / (n * (n - 1)))
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += _pair_capacity(X, i, j, max_hops)
    return float(total / (n * (n - 1)))


def _pair_capacity(X: np.ndarray, src: int, dst: int, H: int) -> float:
    n = X.shape[0]
    # One column per arc (layer, u, v), layer-major: layer 0 leaves src,
    # the last layer enters dst, and no arc enters src or leaves dst.
    layer, u, v = np.nonzero(np.broadcast_to(X > 0, (H, n, n)))
    keep = ((u != v) & (v != src) & (u != dst) & ((layer == 0) == (u == src))
            & ((layer < H - 1) | (v == dst)))
    layer, u, v = layer[keep], u[keep], v[keep]
    if not len(layer):
        return 0.0
    model = lp.LpModel(f"capacity_{src}_{dst}")
    arc = model.add_vars(len(layer), 0.0, X[u, v])
    # Shared physical link capacity across layers.
    links, row, count = np.unique(u * n + v, return_inverse=True,
                                  return_counts=True)
    shared = count > 1
    on = shared[row]
    model.add_rows((np.cumsum(shared) - 1)[row[on]], arc[on],
                   np.ones(on.sum()), lp.LE, X.ravel()[links[shared]])
    # Flow into an intermediate pod on one layer leaves it on the next.
    into, out = (layer < H - 1) & (v != dst), layer > 0
    keys, row = np.unique(np.concatenate([layer[into] * n + v[into],
                                          (layer[out] - 1) * n + u[out]]),
                          return_inverse=True)
    model.add_rows(row, np.concatenate([arc[into], arc[out]]),
                   np.repeat([1.0, -1.0], [into.sum(), out.sum()]), lp.EQ,
                   np.zeros(len(keys)))
    model.set_objective("max", arc[v == dst], np.ones((v == dst).sum()))
    sol = lp.solve(model)
    if not sol.optimal:
        raise InternalError(f"capacity LP ended {sol.status}")
    return sol.objective_value
