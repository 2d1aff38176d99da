"""Rounding a fractional topology onto the circuit-switch bank.

The Lagrangian dual method relaxes the per-pair matching constraints
floor(d*) <= sum_m x_ij^m <= ceil(d*) with projected dual prices and
visits switches one at a time: each visit re-optimizes that switch's
cells within a one-link move window, then takes an immediate subgradient
step on the prices.  Port budgets are enforced inside every subproblem,
so hard feasibility holds at all times; the best solution by
matching-constraint goodness is kept.

The per-switch utility -(x - h)^2 is concave, so inside the move window
it decomposes exactly into per-unit variables with decreasing gains
(2h + 1 - 2a for the a-th link).  A midpoint linearization would price
"keep the current link" and "add one more" identically, which lets the
solver flip cells freely once the dual prices balance and keeps the
iteration from ever settling; the exact unit gains leave a stability
band of width 2 around the current state.

Each subproblem is a small LP solved by HiGHS dual simplex: one [0, 1]
variable per unit, one egress and one ingress budget row per pod.  Every
variable sits in exactly one egress and one ingress row, so the
constraint matrix is a bipartite incidence matrix, totally unimodular,
and the simplex vertex is integral.  A reward of at most 1e-9 per unit
breaks exact ties toward more links; HiGHS's feasibility tolerances are
tightened to 1e-10 because at their default of 1e-7 the solver ignores
a reward that small and can stop short of a full matching.  The LP goes
to HiGHS through ``lp._run_highs`` as a column-wise model built straight
from the budget matrix's CSC arrays, under the LDM subproblem's entry
of ``lp._FAMILY_OPTIONS``: dual simplex, those tolerances and presolve
off.  On degree-saturated targets over an
evenly striped fabric presolve removes nothing from these LPs; on the
uneven fabrics measured it does reduce most of them, yet the solves
still ran faster without it.  One rounding run reuses one HiGHS object
for all its subproblems; loading each model resets it, so every solve
is cold and ends on the vertex a fresh solver would.

Both rounders share one completion pass.  The dual method stops at the
first iterate that meets every bracket, which can leave ports idle on
pods whose d* row is small, and its best iterate may hold more than
ceil(d*) links on a pair.  The pass first trims every pair down to its
ceiling, then pairs each switch's idle egress and ingress ports onto pod
pairs still below their ceiling, largest residual d* - X first.  The
result stays within the ceilings and the port budgets, so it still
validates, and matching-constraint goodness never drops: a trimmed pair
now meets its bracket, and a link added below the ceiling cannot break
one.  Run from an empty assignment, the same pass is the greedy baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import lp, optimize
from .errors import (InfeasibleRoutingError, InternalError, InvalidInputError,
                     UndefinedGapError)
from .model import (FractionalTopology, IntegerTopology, PhysicalTopology,
                    check_fractional, validate)
from .traffic import CriticalSet

#: Guard against LP float fuzz when snapping d* to its integer brackets.
_SNAP = 1e-9
#: Largest distance from an integer at which a vertex entry still rounds.
_INTEGRAL_TOL = 1e-6


@dataclass
class DualState:
    """Projected dual prices and the integer brackets they enforce."""

    p_plus: np.ndarray
    p_minus: np.ndarray
    c_minus: np.ndarray
    c_plus: np.ndarray
    iteration: int = 0

    @property
    def step(self) -> float:
        """Harmonic step size 1/tau (diverging sum, so prices can grow)."""
        return 1.0 / self.iteration

    def update(self, totals: np.ndarray):
        """Projected subgradient step from aggregate link counts."""
        delta = self.step
        self.p_plus = np.maximum(self.p_plus - delta * (self.c_plus - totals),
                                 0.0)
        self.p_minus = np.maximum(self.p_minus - delta * (totals - self.c_minus),
                                  0.0)


@dataclass(frozen=True)
class RoundingReport:
    topo: IntegerTopology
    goodness: int  # pod pairs whose matching constraints hold
    violation_ratio: float
    iterations_run: int


def _brackets(d: np.ndarray):
    c_minus = np.floor(d + _SNAP).astype(int)
    c_plus = np.ceil(d - _SNAP).astype(int)
    return c_minus, c_plus


def _goodness(x_total: np.ndarray, c_minus: np.ndarray,
              c_plus: np.ndarray) -> int:
    n = x_total.shape[0]
    ok = (c_minus <= x_total) & (x_total <= c_plus)
    np.fill_diagonal(ok, True)
    return int(ok.sum()) - n


def _report(x: np.ndarray, c_minus, c_plus, iterations: int) -> RoundingReport:
    n = x.shape[1]
    topo = IntegerTopology(x)
    good = _goodness(topo.X, c_minus, c_plus)
    total_pairs = n * (n - 1)
    return RoundingReport(topo, good, (total_pairs - good) / total_pairs,
                          iterations)


def _complete(phys: PhysicalTopology, d: np.ndarray, x: np.ndarray,
              c_plus: np.ndarray) -> np.ndarray:
    """Trim links above the ceilings, then pair idle ports onto pairs below.

    A pair holding more than c+_ij links loses the excess, highest switch
    index first; that pair then meets its bracket.  Each switch in turn
    then repeatedly grants one link to the pair (i != j) with the largest
    residual d_ij - X_ij among those with a spare egress port on i, a
    spare ingress port on j and X_ij < c+_ij; ties break
    lexicographically.  Afterwards X <= c+ and no switch can serve another
    such pair.
    """
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


def _check_inputs(phys: PhysicalTopology, d_star: FractionalTopology):
    if d_star.num_pods != phys.num_pods:
        raise InvalidInputError("fractional topology does not match the fabric")
    if check_fractional(phys, d_star):
        raise InvalidInputError("fractional topology violates degree bounds")


def solve_circulation(cost: np.ndarray, budgets, limits: np.ndarray,
                      solver=None) -> np.ndarray:
    """Minimize cost . f over unit flows 0 <= f <= 1 with budgets f <= limits.

    ``budgets`` holds one egress and one ingress row per pod, so it is the
    incidence matrix of a bipartite graph and totally unimodular; with
    integral ``limits`` every vertex of the feasible set is integral, and
    HiGHS dual simplex ends on a vertex.  Equivalently, this is the
    min-cost circulation through a source, the egress ports, the ingress
    ports and a sink.  ``budgets`` is a dense or sparse matrix, or its CSC
    arrays ``(data, indices, indptr)``, which go into the column-wise
    HiGHS model as they are.  HiGHS is called through ``lp._run_highs``
    with the simplex solver, presolve off and feasibility tolerances of
    1e-10, and only the vertex is read back; ``solver`` is the HiGHS
    object to reuse, a fresh one when None.  The solve is cold either way.
    """
    if not isinstance(budgets, tuple):
        budgets = sp.csc_array(budgets)
        budgets = budgets.data, budgets.indices, budgets.indptr
    value, index, start = budgets
    cost = np.asarray(cost, dtype=float)
    limits = np.asarray(limits, dtype=float)
    if not (np.isfinite(cost).all() and np.isfinite(value).all()
            and np.isfinite(limits).all()):
        raise InternalError("LP data is not finite")
    units, rows = len(cost), len(limits)
    model = lp._highs_model(lp._highs.MatrixFormat.kColwise, cost.tolist(),
                            [0.0] * units, [1.0] * units, [-np.inf] * rows,
                            limits.tolist(), start.tolist(), index.tolist(),
                            value.tolist())
    res = lp._run_highs(model, lp._FAMILY_OPTIONS["ldm-subproblem"],
                        solver=solver, vertex_only=True)
    if res.status != "optimal":
        raise InternalError(f"per-switch subproblem ended {res.status}")
    flows = np.rint(res.x)
    if np.abs(res.x - flows).max(initial=0.0) > _INTEGRAL_TOL:
        raise InternalError("per-switch subproblem vertex is not integral")
    return flows.astype(int)


def _solve_switch_subproblem(rows: np.ndarray, cols: np.ndarray,
                             h: np.ndarray, p_net: np.ndarray,
                             x_hat: np.ndarray, ingress: np.ndarray,
                             egress: np.ndarray, solver=None) -> np.ndarray:
    """Re-optimize one switch's cells within a one-link move window.

    The cells are the pod pairs (rows[k], cols[k]), i != j; ``h``,
    ``p_net`` and ``x_hat`` hold one entry per pair, and the result is
    the new link count per pair.  Maximizes sum of -(x - h)^2 + p_net * x
    per cell subject to the switch's port budgets and max(x̂-1, 0) <= x <=
    x̂+1.  The concave utility splits into one [0, 1] variable per unit of
    the window, with gains 2h + 1 - 2a for the a-th link, so the LP over
    the units is exact.  The window's fixed lower part comes off the port
    budgets.  A reward eps <= 1e-9 per unit breaks exact ties toward more
    links; it stays under a quarter of the smallest gap between distinct
    gains.  HiGHS dual simplex solves the LP (``solve_circulation``, on
    ``solver`` when given) with presolve off and feasibility tolerances
    of 1e-10, since at the default 1e-7 it would ignore eps; its vertex
    is integral because the budget rows form a bipartite incidence
    matrix, built here in CSC with two entries per unit.
    """
    n = len(egress)
    low = np.maximum(x_hat - 1, 0)
    width = x_hat + 1 - low
    cell = np.repeat(np.arange(len(rows)), width)
    first = np.repeat(np.cumsum(width) - width, width)
    unit = low[cell] + 1 + np.arange(len(cell)) - first
    gain = 2.0 * h[cell] + 1.0 - 2.0 * unit + p_net[cell]
    # The gaps between consecutive distinct gains, read off the sorted ones.
    ranked = np.sort(gain.round(12))
    steps = ranked[1:] - ranked[:-1]
    eps = min(1e-9, float(steps.min(initial=np.inf, where=steps > 0)) / 4)
    units = len(cell)
    # Unit k sits in egress row rows[cell[k]] and ingress row n + cols[...].
    index = np.column_stack([rows[cell], n + cols[cell]]).ravel()
    budgets = (np.ones(2 * units), index, np.arange(0, 2 * units + 1, 2))
    limits = np.concatenate([egress - np.bincount(rows, low, n),
                             ingress - np.bincount(cols, low, n)])
    flows = solve_circulation(-(gain + eps), budgets, limits, solver)
    return low + np.bincount(cell, flows, len(rows)).astype(int)


def ldm_round(phys: PhysicalTopology, d_star: FractionalTopology,
              tau_max: int = 200) -> RoundingReport:
    """Dual-ascent rounding with per-switch HiGHS subproblems.

    Each iteration re-optimizes every switch in turn with an LP that HiGHS
    dual simplex solves to an integral vertex (the budget matrix is totally
    unimodular), with tolerances tight enough to honour the tie reward.
    Keeps the iterate with the best goodness, stopping early once every
    matching constraint holds, then applies the completion pass: the
    result stays within ceil(d*) and every port budget, and its goodness
    is no lower than the kept iterate's.  The loop works on vectors over
    the off-diagonal pod pairs and keeps the per-pair link totals up to
    date after each visit.
    """
    _check_inputs(phys, d_star)
    if tau_max < 1:
        raise InvalidInputError("need at least one iteration")
    n, M = phys.num_pods, phys.num_ocs
    c_minus, c_plus = _brackets(d_star.d)
    np.fill_diagonal(c_minus, 0)
    np.fill_diagonal(c_plus, 0)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    lo, hi = c_minus[rows, cols], c_plus[rows, cols]
    # h_ij^m: the natural per-switch ceiling on x_ij^m; the primal objective
    # -(x - h)^2 rewards forming as many links as ports allow.
    h = np.minimum(phys.egress_ports[:, rows], phys.ingress_ports[:, cols])

    x_hat = np.zeros((M, len(rows)), dtype=int)
    totals = np.zeros(len(rows), dtype=int)
    best = x_hat.copy()
    best_good = int(((lo <= totals) & (totals <= hi)).sum())
    dual = DualState(np.zeros(len(rows)), np.zeros(len(rows)), lo, hi)
    solver = lp._highs._Highs()

    iterations = 0
    for tau in range(1, tau_max + 1):
        iterations = tau
        dual.iteration = tau
        for m in range(M):
            x = _solve_switch_subproblem(
                rows, cols, h[m], dual.p_minus - dual.p_plus, x_hat[m],
                phys.ingress_ports[m], phys.egress_ports[m], solver)
            if (np.bincount(rows, x, n) > phys.egress_ports[m]).any() \
                    or (np.bincount(cols, x, n) > phys.ingress_ports[m]).any():
                raise InternalError("port budget violated after subproblem")
            totals += x - x_hat[m]
            x_hat[m] = x
            good = int(((lo <= totals) & (totals <= hi)).sum())
            if good > best_good:
                best_good = good
                best = x_hat.copy()
            dual.update(totals)
        if best_good == len(rows):
            break  # every matching constraint already satisfied
    x = np.zeros((M, n, n), dtype=int)
    x[:, rows, cols] = best
    return _report(_complete(phys, d_star.d, x, c_plus), c_minus, c_plus,
                   iterations)


def greedy_round(phys: PhysicalTopology, d_star: FractionalTopology
                 ) -> RoundingReport:
    """Largest-residual-first matching baseline.

    Each switch in index order repeatedly grants one link to the pod pair
    with the largest remaining fractional demand that its ports can still
    serve; ties break lexicographically.  This is the completion pass run
    from an empty assignment, so the result stays within ceil(d*) and the
    port budgets, and no switch is left with ports it could still pair.
    """
    _check_inputs(phys, d_star)
    n, M = phys.num_pods, phys.num_ocs
    c_minus, c_plus = _brackets(d_star.d)
    x = _complete(phys, d_star.d, np.zeros((M, n, n), dtype=int), c_plus)
    return _report(x, c_minus, c_plus, 0)


def optimality_gap(phys: PhysicalTopology, report: RoundingReport,
                   crit: CriticalSet) -> float:
    """Throughput lost by rounding: 1 - mu_int / mu*.

    mu* is the joint stage-1 throughput and mu_int the stage-1 throughput
    with link counts fixed at the rounded topology, which must fit the
    port budgets.  Such a topology is a feasible d of the joint LP, so
    mu_int <= mu* and the gap lies in [0, 1]; float fuzz below zero snaps
    to 0, and a gap below -1e-9 is an internal error.
    """
    if validate(phys, report.topo):
        raise InvalidInputError("integer topology violates port budgets")
    try:
        mu_star = optimize.solve_maxmin_throughput(phys, crit).mu
    except InfeasibleRoutingError:
        raise UndefinedGapError("fractional throughput is zero")
    try:
        mu_int = optimize.solve_maxmin_throughput(
            phys, crit, _fixed=report.topo.X.astype(float)).mu
    except InfeasibleRoutingError:
        mu_int = 0.0
    gap = 1.0 - mu_int / mu_star
    if gap < -1e-9:
        raise InternalError(f"rounded throughput {mu_int} exceeds the"
                            f" fractional optimum {mu_star}")
    return max(gap, 0.0)
