"""Fractional topology + routing optimization pipeline.

Three LP stages over a set of critical traffic matrices:

1. maximize the worst-case throughput scale factor mu shared by all
   critical matrices (a single routing weight set serves every matrix);
2. desensitize: find the smallest sensitivity bound beta that still
   supports mu.  The bound caps every path on every link it crosses,
   omega_p <= beta * b * d_ab, so beta bounds the utilization a unit
   burst on one pair can add to any link: exactly what
   ``evaluate.sensitivity_map`` reports.  In scaled weights the caps read
   w_p <= gamma * d_ab, gamma = mu * beta * b.  With free link counts the
   largest throughput F(gamma) under them is one LP whose duals also give
   F'(gamma), and stage 2 is a safeguarded Newton root-find of
   F(gamma) = mu* (Dinkelbach's method), beta = gamma / F.  With link
   counts fixed it is one LP minimizing the column gamma at mu = mu*,
   and d is constant, so each path's caps are one row at its least
   link count;
3. minimize average hop count by maximizing worst-case direct-path
   traffic subject to mu and beta.

Stage 1 is nonlinear as written (mu * omega products) and is solved in
scaled weights w = omega * mu, which linearizes every constraint.  The
same stages rerun with link counts frozen to an integer topology to
recompute routing after rounding.  ``_stages`` chains them on one
``_StageBuilder`` and its model, stage 1's LP, which each stage extends:
stage 2 adds the caps and drops stage 1's basis, so its first solve is
cold; stage 3 re-solves from the basis the stage before it accepted,
which is feasible.  A stage called alone builds that model, solved cold.

Stage 3 pins mu at the mu* it is given (F' = F (1 - MU_SLACK) after the
joint stage 2) and the caps at gamma = F' beta (``scale``, or the gamma
column pinned), and adds a column z with its direct-traffic rows.  With
mu fixed at F', w = F' omega maps stage 3's LP in omega onto this one
exactly: the split rows sum w to F', the load rows read F' T omega <= d,
the caps w <= F' beta d, and z is F' times the least direct traffic, at
most F' min_k sum T_k: its bound, without which HiGHS called the LP
unbounded from 2**26 ports on.

Every stage LP is unitless: the criticals over sigma, the largest power
of two at or below their largest entry (``demand_scale``), capacity in
links, and no row, cap or bound holding the link bandwidth b.  A plan's
mu = mu_hat * b / sigma and beta = beta_hat / b for the LP's mu_hat and
beta_hat, and stages 2 and 3 convert the mu* and beta they take back, so
a plan is the same in any unit shared by demand and bandwidth (the same
bits when it changes by a power of two); one past the float range is
InvalidInputError.  ``BETA_CAP`` and the guard on mu are unitless.  A
demand entry at or below about 1e-9 sigma is under HiGHS's
``small_matrix_value``, which drops it, as ``evaluate._SMALL_CAPACITY``
says of the min-MLU LP.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import lp
from .errors import (InfeasibleRoutingError, InternalError, InvalidInputError,
                     UnboundedThroughputError)
from .model import (FractionalTopology, IntegerTopology, PhysicalTopology,
                    RoutingWeights, _tables, demand_scale, validate)
from .traffic import CriticalSet

#: Relative throughput slack of the joint stage 2: it accepts a cap gamma
#: once F(gamma) >= mu* (1 - MU_SLACK), and hands stage 3 that F, lowered
#: by the same factor.
MU_SLACK = 1e-7
#: Relative width at which stage 2's fallback bracket on gamma stops.  Only
#: a Newton step that overshoots onto the plateau F = mu* falls back to it.
BETA_TOL = 1e-3
#: Largest unitless sensitivity bound beta_hat = beta * b that stage 2 seeks.
BETA_CAP = 1e6


@dataclass(frozen=True)
class FractionalSolution:
    """A plan: link counts d, one weight set, and the plan's throughput mu
    and sensitivity bound beta (None when not desensitized).  This type is
    the one owner of mu and beta; ``omega`` holds only the split.

    ``_warm`` is no part of the plan: the ``_StageBuilder`` stages 1 and 2
    leave for the next, its model at the basis they accepted."""

    d: FractionalTopology
    omega: RoutingWeights
    mu: float
    beta: Optional[float] = None
    _warm: Optional[_StageBuilder] = field(default=None, repr=False,
                                           compare=False)


def _per_row_term(rows, cols, coefs, num_rows: int, col, coef) -> tuple:
    """The triplets plus one term on each of rows 0 .. num_rows - 1: the
    coefficient ``coef`` on the column ``col``, each a value or one per
    row."""
    return (np.concatenate([rows, np.arange(num_rows)]),
            np.concatenate([cols, np.broadcast_to(col, num_rows)]),
            np.concatenate([coefs, np.broadcast_to(coef, num_rows)]))


def _in_range(value: float, name: str) -> float:
    if not 0 < value < math.inf:  # False for NaN too
        raise InvalidInputError(f"{name} = {value:g} is not a positive"
                                " finite number in these units")
    return value


class _StageBuilder:
    """Shared constraint blocks for the three unitless LP stages.

    When ``fixed`` is given, link counts are constants (routing-only mode).
    A path is usable when each of its links can hold a link: a positive
    fixed count, or with free counts a positive radix at both ends,
    min(r_eg[a], r_ig[b]) > 0.  Other paths are dropped, and pairs left
    with no usable path are deferred to a direct-only fallback unless
    demanded.

    A model from ``new_model`` has a known column layout: one scaled weight
    per usable path, in path order (``col`` maps each path to its column,
    or to -1 when it crosses a link that can hold none); then, unless link
    counts are fixed, one link count per pair (``_dcol``); then mu at
    ``stage_col``, gamma when fixed caps add it, and stage 3's z.  Every
    block of rows is one ``LpModel.add_rows`` call whose triplets come from
    numpy index arithmetic on ``_tables(n)``: the paths in column order,
    each path's pair and links, and the (link, path) crossing table, built
    once per pod count and shared read-only.  A builder adds what depends
    on its topology: ``capacity`` per link when fixed, and ``col``.  Every
    stage extends ``model``, stage 1's LP, and makes its plan by ``solution``.
    """

    def __init__(self, phys: PhysicalTopology, crit: CriticalSet,
                 fixed: Optional[np.ndarray] = None):
        if crit.num_pods != phys.num_pods:
            raise InvalidInputError("critical set does not match the fabric")
        self.phys = phys
        self.fixed = None if fixed is None else np.asarray(fixed, dtype=float)
        self.n = phys.num_pods
        self.bandwidth = phys.link_bandwidth
        self.tables = t = _tables(self.n)
        demand = crit.stacked()
        self.sigma = demand_scale(demand)
        # A critical without traffic would pin stage 3's z at 0, and a
        # repeat would double its rows: the first copy of each stays, in
        # order.
        flat = demand.reshape(len(demand), -1)
        repeat = np.triu((flat[:, None] == flat[None]).all(axis=2), 1)
        self.demand = demand[flat.any(axis=1) & ~repeat.any(axis=0)] \
            / self.sigma
        self.demanded = self.demand.any(axis=0)
        if not self.demanded.any():
            raise UnboundedThroughputError("all critical matrices are zero")
        if self.fixed is None:
            self.capacity = None
            # The most links each link can hold: its pods' radices.
            room = np.minimum(phys.egress_radix[t.pair_src],
                              phys.ingress_radix[t.pair_dst])
        else:
            self.capacity = room = self.fixed[t.pair_src, t.pair_dst]
        usable = (room[t.path_links] > 0).all(axis=1)
        self.col = np.where(usable, np.cumsum(usable) - 1, -1)
        self.num_weights = int(usable.sum())
        self.stage_col = self.num_weights + (
            len(t.pairs) if self.fixed is None else 0)
        routed = np.bincount(t.path_pair[usable], minlength=len(t.pairs)) > 0
        stranded = np.flatnonzero(~routed
                                  & self.demanded[t.pair_src, t.pair_dst])
        if len(stranded):
            raise InfeasibleRoutingError(
                f"no usable path for demanded pair {t.pairs[stranded[0]]}")
        # The routed pairs, and each weight column's position among them:
        # its split row.
        self.routed, self.split_row = np.unique(t.path_pair[usable],
                                                return_inverse=True)
        self.model = _throughput_model(self, "")

    def unitless(self, mu: float, beta: Optional[float] = None) -> tuple:
        """(mu_hat, beta_hat) of a plan's throughput and bound."""
        return (_in_range(mu * (self.sigma / self.bandwidth), "mu"),
                None if beta is None else _in_range(beta * self.bandwidth,
                                                    "beta"))

    def _dcol(self) -> np.ndarray:
        """Column of each link count, right after the weights."""
        return self.num_weights + np.arange(len(self.tables.pairs))

    def _crossing(self) -> tuple:
        """(link, path) of each usable path crossing each link."""
        t = self.tables
        on = self.col[t.cross_path] >= 0
        return t.cross_link[on], t.cross_path[on]

    def new_model(self, name: str) -> lp.LpModel:
        """One weight column per usable path, then link-count columns and
        port rows."""
        t = self.tables
        model = lp.LpModel(name)
        model.add_vars(self.num_weights, 0.0, None)
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

    def add_load_constraints(self, model: lp.LpModel):
        """Per-link, per-critical capacity rows: load <= capacity.

        Rows run link-major, critical-minor.  Row (l, k) is left out when
        no demanded path crosses l, and when another critical k' implies
        it: T_k' is at least T_k on the pair of every usable path crossing
        l, so with weights >= 0 the row of k' holds it.  Between criticals
        equal on those pairs the lowest k keeps its row.
        """
        t = self.tables
        link, path = self._crossing()
        K, num_links = len(self.demand), len(t.pairs)
        demand = self.demand[:, t.pair_src, t.pair_dst][:, t.path_pair[path]]
        # covers[a, b, l]: T_a is at least T_b on every crossing of l.
        pos = (np.arange(K)[:, None] * num_links + link).ravel()
        covers = np.stack([
            np.bincount(pos, (row < demand).ravel(), K * num_links) == 0
            for row in demand]).reshape(K, K, num_links)
        earlier = np.arange(K)[:, None] < np.arange(K)
        implied = (covers & (~covers.transpose(1, 0, 2)
                             | earlier[..., None])).any(axis=0)
        k, c = np.nonzero((demand > 0) & ~implied[:, link])
        row_ids, row = np.unique(link[c] * K + k, return_inverse=True)
        row_link = row_ids // K
        terms = row, self.col[path[c]], demand[k, c]
        if self.fixed is None:
            model.add_rows(*_per_row_term(*terms, len(row_ids),
                                          self._dcol()[row_link], -1.0),
                           lp.LE, np.zeros(len(row_ids)))
        else:
            model.add_rows(*terms, lp.LE, self.capacity[row_link])

    def add_sensitivity_constraints(self, model: lp.LpModel):
        """Cap each scaled path weight at gamma times each link it crosses.

        w_p <= gamma * d_ab for each link (a, b) of p, so at throughput
        mu_hat no link's utilization rises by more than beta = gamma /
        (mu_hat * b) per unit of one pair's demand, the quantity
        ``evaluate.sensitivity_map`` reports.  With free link counts the
        cap's d term is a scaled term and gamma is ``model.scale``: one row
        per (link, path) crossing.  With fixed link counts gamma is a new
        column, the one after mu, and d is constant, so a path's caps are
        one row, w_p <= gamma * min over its links of d: one row per
        usable path, in column order.
        """
        if self.fixed is None:
            link, path = self._crossing()
            rows = np.arange(len(path))
            model.add_rows(rows, self.col[path], np.ones(len(rows)), lp.LE,
                           np.zeros(len(rows)),
                           scaled=(rows, self._dcol()[link],
                                   np.full(len(rows), -1.0)))
        else:
            gamma = model.add_vars(1, 0.0, None)[0]
            usable, w = self.col >= 0, self.num_weights
            least = self.capacity[self.tables.path_links[usable]].min(axis=1)
            model.add_rows(*_per_row_term(np.arange(w), np.arange(w),
                                          np.ones(w), w, gamma, -least),
                           lp.LE, np.zeros(w))

    def add_split_constraints(self, model: lp.LpModel, total: int):
        """Per-pair weight sums, one row per routed pair: equal to the
        column ``total``."""
        w, num_rows = self.num_weights, len(self.routed)
        model.add_rows(*_per_row_term(self.split_row, np.arange(w), np.ones(w),
                                      num_rows, total, -1.0),
                       lp.EQ, np.zeros(num_rows))

    def solution(self, x: np.ndarray, mu: float,
                 beta: Optional[float] = None) -> FractionalSolution:
        """The plan at a solved model's vertex ``x``, with the unitless
        throughput ``mu`` and bound ``beta`` converted to the plan's units.

        The scaled weights over ``mu`` are omega, up to stage 2's slack.
        ``RoutingWeights.normalized`` then rescales each pair's weights to
        sum to exactly one, adding them in path order; a routed pair whose
        weights sum to almost nothing, and a pair deferred at
        construction, goes direct.  The LP's tiny negative weights are
        stored as 0.

        With free link counts d is then raised to cover, in links, the
        critical loads at ``mu`` and, with ``beta``, the caps: d_ab >=
        omega_p / beta on each link of a usable path p.  That clears
        sub-tolerance LP residue, so the throughput guarantee and the
        sensitivity bound hold on every link; the lift is bounded by the
        solver's tolerance.  A deferred pair's direct path is not usable,
        so d stays 0 on links no path may cross.
        """
        t = self.tables
        w = np.zeros(len(t.paths))
        w[self.col >= 0] = x[:self.num_weights] / mu
        omega = RoutingWeights.normalized(self.n, w, 1e-12)
        d = self.fixed
        if d is None:
            links = np.maximum(np.maximum(x[self._dcol()], 0.0),
                               omega.loads(self.demand, mu).max(axis=0))
            if beta is not None:
                hop = self.col[t.hop_path] >= 0
                np.maximum.at(links, t.hop_link[hop],
                              omega.omega[t.hop_path[hop]] / beta)
            d = np.zeros((self.n, self.n))
            d[t.pair_src, t.pair_dst] = links
        return FractionalSolution(
            FractionalTopology(d), omega,
            _in_range(mu * (self.bandwidth / self.sigma), "mu"),
            None if beta is None else _in_range(beta / self.bandwidth, "beta"))


def _throughput_model(builder: _StageBuilder, name: str) -> lp.LpModel:
    """Stage 1's LP in scaled weights: maximize mu subject to weights
    summing to mu per pair and every critical's load within capacity."""
    model = builder.new_model(name)
    mu = model.add_vars(1, 0.0, None)[0]
    builder.add_split_constraints(model, mu)
    builder.add_load_constraints(model)
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
    builder.model.name = ("maxmin-throughput" if _fixed is None
                          else "fixed-throughput")
    sol = lp.solve(builder.model)
    if sol.status == "unbounded":
        raise UnboundedThroughputError("throughput is unbounded")
    if not sol.optimal:
        raise InternalError(f"stage-1 LP ended {sol.status}")
    mu = float(sol.x[builder.stage_col])
    if mu <= 1e-12:
        raise InfeasibleRoutingError("critical demand cannot be routed")
    return replace(builder.solution(sol.x, mu), _warm=builder)


def _newton_beta(builder: _StageBuilder, model: lp.LpModel, mu_star: float):
    """Unitless (beta, F, solution) of stage 2, F >= mu* (1 - MU_SLACK).

    ``model`` is stage 1's LP plus the caps w_p <= gamma * d_ab, gamma
    being ``model.scale``; its optimum F(gamma) does not decrease in gamma
    and each solve gives the slope F'(gamma).  A point (F, gamma) has
    beta = gamma / F.  The search starts at the radix bound: a routed
    pair (i, j) splits F over its usable paths, each capped at its first
    link (i, x), a different one for each path, so
    F <= gamma * sum_x d_ix <= gamma * r_eg[i]; r_ig[j] likewise.  The
    bound runs over the sources and destinations of routed pairs only,
    whose radices are positive, since each has a usable path.
    Below target, gamma takes the Newton step gamma + (mu* - F) / F' when
    F' > 0 and the step stays inside the bracket (lo, hi); otherwise it
    doubles while there is no upper end and bisects once there is.  At or
    above target a rising F is accepted; a flat one has overshot onto the
    plateau F = mu*, so it becomes the upper end, kept once the bracket is
    narrower than ``BETA_TOL``.  After a Newton step overshoots, the next
    gamma probes hi (1 - ``BETA_TOL``): if F falls short there, that
    closes the bracket.  The model is left at the accepted gamma and the
    basis of its solution, for stage 3 to start from.

    The solves are three LP families (see the lp module): the first is
    the model's one cold solve, "desensitize"; the second, the first
    re-solve, starts from that far-off vertex under the same name; the
    model is then renamed "desensitize-late" for the rest, which start
    near their optimum.
    """
    t, routed = builder.tables, builder.routed
    radix = int(min(builder.phys.egress_radix[t.pair_src[routed]].min(),
                    builder.phys.ingress_radix[t.pair_dst[routed]].min()))
    beta_lo = 1.0 / radix
    target = mu_star * (1.0 - MU_SLACK)
    gamma = lo = mu_star * beta_lo
    hi = math.inf
    newton = False  # whether gamma came from a Newton step
    for solves in itertools.count(1):
        if gamma > BETA_CAP * mu_star:
            raise InternalError("no feasible sensitivity bound below cap")
        model.scale = gamma
        sol = lp.solve(model)
        if not sol.optimal:
            raise InternalError(f"stage-2 LP ended {sol.status}")
        if solves == 2:
            model.name = "desensitize-late"
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
            model.scale = gamma
            model.set_basis(sol.basis)
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
                _fixed: Optional[np.ndarray] = None,
                _warm: Optional[_StageBuilder] = None) -> FractionalSolution:
    """Stage 2: smallest sensitivity bound beta preserving throughput mu*.

    Its model is stage 1's, ``_warm``'s or built here, plus the caps, first
    solved cold.  With free link counts this is ``_newton_beta``'s
    root-find of F(gamma) = mu*, one re-solve per step.  The solution has
    beta = gamma / F and mu = F (1 - MU_SLACK), both meant for stage 3:
    stage 2's own solution proves (F, gamma / F) feasible, yet HiGHS once
    called stage 3 infeasible exactly there, so stage 3 gets that slack,
    and re-solves this model from its accepted vertex scaled by
    (1 - MU_SLACK), feasible by construction.  With link counts fixed by
    ``_fixed`` gamma is a column: one cold LP, family "fixed-desensitize",
    minimizes it at mu_hat, and beta_hat = gamma / mu_hat must lie in
    (0, ``BETA_CAP``].  The solution's mu is the mu* given, not mu_hat
    converted back an ulp off, so stage 3 gets the very mu stage 1 found.
    """
    builder = _warm or _StageBuilder(phys, crit, fixed=_fixed)
    mu_hat = builder.unitless(mu_star)[0]
    model = builder.model
    model.name = "desensitize" if _fixed is None else "fixed-desensitize"
    model.set_basis(None)
    builder.add_sensitivity_constraints(model)
    if _fixed is None:
        beta, F, best = _newton_beta(builder, model, mu_hat)
        return replace(builder.solution(best.x, F * (1.0 - MU_SLACK), beta),
                       _warm=builder)
    gamma = builder.stage_col + 1
    model.set_bounds([builder.stage_col], mu_hat, mu_hat)
    model.set_objective("min", [gamma], [1.0])
    best = lp.solve(model)
    beta = float(best.x[gamma]) / mu_hat if best.optimal else math.inf
    # At a throughput below the solver's tolerances gamma can come out 0.
    if not 0 < beta <= BETA_CAP:
        raise InternalError("no feasible sensitivity bound below cap")
    return replace(builder.solution(best.x, mu_hat, beta), mu=mu_star,
                   _warm=builder)


def _maximize_direct(builder: _StageBuilder, model: lp.LpModel, z: int):
    """Stage 3's rows and objective on the column ``z``: maximize z, with
    row k: the k-th critical with traffic puts at least z on direct paths."""
    t = builder.tables
    direct = builder.col[np.arange(len(t.pairs)) * (builder.n - 1)]
    demand = builder.demand[:, t.pair_src, t.pair_dst]
    k, q = np.nonzero((demand > 0) & (direct >= 0))
    model.add_rows(*_per_row_term(k, direct[q], demand[k, q],
                                  len(demand), z, -1.0),
                   lp.GE, np.zeros(len(demand)))
    model.set_objective("max", [z], [1.0])


def minimize_ahc(phys: PhysicalTopology, crit: CriticalSet, mu_star: float,
                 beta: Optional[float],
                 _fixed: Optional[np.ndarray] = None,
                 _warm: Optional[_StageBuilder] = None) -> FractionalSolution:
    """Stage 3: maximize worst-case direct-path traffic at fixed mu* and beta.

    ``beta=None`` skips the caps (the non-desensitized variant).  Stage 3
    is one solve of the model the module docstring describes, ``_warm``'s
    from its basis or built here, cold; ``_fixed`` fixes the link counts.
    """
    builder = _warm or _StageBuilder(phys, crit, fixed=_fixed)
    mu_star, beta = builder.unitless(mu_star, beta)
    model = builder.model
    if _warm is None and beta is not None:
        builder.add_sensitivity_constraints(model)
    model.name = "minimize-ahc-warm"
    model.set_bounds([builder.stage_col], mu_star, mu_star)
    if beta is not None:
        gamma = mu_star * beta
        if _fixed is None:
            model.scale = gamma
        else:
            model.set_bounds([builder.stage_col + 1], gamma, gamma)
    least_total = builder.demand.sum(axis=(1, 2)).min()
    z = model.add_vars(1, 0.0, mu_star * least_total)[0]
    _maximize_direct(builder, model, z)
    sol = lp.solve(model)
    if not sol.optimal:
        raise InternalError(f"stage-3 LP ended {sol.status}")
    return builder.solution(sol.x, mu_star, beta)


def _stages(phys: PhysicalTopology, crit: CriticalSet, desensitized: bool,
            fixed: Optional[np.ndarray] = None) -> FractionalSolution:
    """Stage 1 -> 2 -> 3, each stage on the mu (and beta) the one before
    found; stage 2 is skipped when not desensitized.  ``fixed`` freezes
    the link counts of all three.  Each extends the model of the one
    before, which it hands on in ``_warm``."""
    step = solve_maxmin_throughput(phys, crit, _fixed=fixed)
    if desensitized:
        step = desensitize(phys, crit, step.mu, _fixed=fixed,
                           _warm=step._warm)
    return minimize_ahc(phys, crit, step.mu, step.beta, _fixed=fixed,
                        _warm=step._warm)


def run_pipeline(phys: PhysicalTopology, crit: CriticalSet,
                 desensitized: bool = True) -> FractionalSolution:
    """Full stage 1 -> 2 -> 3 run; stage 2 is skipped when not desensitized."""
    return _stages(phys, crit, desensitized)


def recompute_routing(phys: PhysicalTopology, topo: IntegerTopology,
                      crit: CriticalSet,
                      desensitized: bool = True) -> FractionalSolution:
    """Rerun the three stages with link counts frozen to the integer topology.

    Stage 2 is one LP here, so stage 3 runs at its exact minimum beta.
    """
    if validate(phys, topo):
        raise InvalidInputError("integer topology violates port budgets")
    return _stages(phys, crit, desensitized, topo.X.astype(float))
