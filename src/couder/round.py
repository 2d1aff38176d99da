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
to HiGHS through ``lp._run_highs`` under the LDM subproblem's entry of
``lp._FAMILY_OPTIONS``: dual simplex, those tolerances and presolve
off.  On degree-saturated targets over an evenly striped fabric
presolve removes nothing from these LPs; on the uneven fabrics measured
it does reduce most of them, yet the solves still ran faster without
it.  Each subproblem runs on ``lp``'s one HiGHS object; loading the
model resets it, so every solve is cold and ends on the vertex a fresh
solver would.

The model reaches HiGHS as numpy arrays, through ``lp._run_highs``, in
column-wise (CSC) form.  What every switch visit of one ``ldm_round``
shares is built once: 2h + 1 per switch and pair, and in
``_Subproblems`` each pair's two budget rows as int32 and read-only
buffers of zeros, ones, column starts and integrality flags for two
units per pair, of which each visit passes slices.  A visit lists its
units with one window mask and ``nonzero`` and gathers their gains and
budget rows.

The prices take a projected subgradient step of 1/tau at iteration tau
after every switch visit: a harmonic step, whose diverging sum lets the
prices grow as far as the brackets need.

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
from typing import Optional

import numpy as np

from . import lp
from .errors import InternalError, InvalidInputError
from .model import (TOL, FractionalTopology, IntegerTopology,
                    PhysicalTopology)

#: Guard against LP float fuzz when snapping d* to its integer brackets.
_SNAP = 1e-9
#: Largest distance from an integer at which a vertex entry still rounds.
_INTEGRAL_TOL = 1e-6


@dataclass(frozen=True)
class RoundingReport:
    topo: IntegerTopology
    goodness: int  # pod pairs whose matching constraints hold
    iterations_run: int

    @property
    def violation_ratio(self) -> float:  # share of pairs off their brackets
        pairs = self.topo.num_pods * (self.topo.num_pods - 1)
        return (pairs - self.goodness) / pairs


def _brackets(d: np.ndarray):
    c_minus = np.floor(d + _SNAP).astype(int)
    c_plus = np.ceil(d - _SNAP).astype(int)
    return c_minus, c_plus


def _goodness(totals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """Pod pairs whose link total lies in its bracket [lo, hi]; one entry
    per off-diagonal pair in each vector."""
    return int(np.count_nonzero((lo <= totals) & (totals <= hi)))


def _report(x: np.ndarray, c_minus, c_plus, iterations: int) -> RoundingReport:
    n = x.shape[1]
    topo = IntegerTopology(x)
    off = ~np.eye(n, dtype=bool)
    return RoundingReport(topo, _goodness(topo.X[off], c_minus[off],
                                          c_plus[off]), iterations)


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
    if (d_star.d.sum(axis=1) > phys.egress_radix + TOL).any() \
            or (d_star.d.sum(axis=0) > phys.ingress_radix + TOL).any():
        raise InvalidInputError("fractional topology violates degree bounds")


class _Buffers:
    """Arrays that circulation LPs of up to ``units`` units and ``rows``
    rows take their HiGHS input from as slices.  They are read-only, so a
    slice handed to HiGHS keeps its values."""

    def __init__(self, units: int, rows: int):
        self.zero = np.zeros(units)  # column lower bounds
        # Column upper bounds, and budget entries at 2 per unit.
        self.one = np.ones(2 * units)
        self.start = np.arange(0, 2 * units + 1, 2, dtype=np.int32)
        self.integrality = np.zeros(units, dtype=np.int32)  # continuous
        self.no_lower = np.full(rows, -np.inf)  # row lower bounds
        for array in vars(self).values():
            array.flags.writeable = False


def solve_circulation(cost: np.ndarray, budgets: tuple, limits: np.ndarray,
                      buffers: Optional[_Buffers] = None) -> np.ndarray:
    """Minimize cost . f over unit flows 0 <= f <= 1 with budgets f <= limits.

    ``budgets`` is the budget matrix as its CSC arrays ``(data, indices,
    indptr)``: column k, one per unit, holds ``data[s]`` in row
    ``indices[s]`` for s in ``range(indptr[k], indptr[k + 1])``.  The
    matrix holds one egress and one ingress row per pod, so it is the
    incidence matrix of a bipartite graph and totally unimodular; with
    integral ``limits`` every vertex of the feasible set is integral, and
    HiGHS dual simplex ends on a vertex.  Equivalently, this is the
    min-cost circulation through a source, the egress ports, the ingress
    ports and a sink.

    The model goes to HiGHS as arrays, through ``lp._run_highs`` on
    ``lp``'s one HiGHS object: the cost, the limits and the CSC arrays as
    they are, and the column bounds, integrality and row lower bounds as
    slices of ``buffers`` (``_Buffers`` of this LP's size when None).
    HiGHS runs the simplex solver, presolve off and feasibility
    tolerances of 1e-10; the solve is cold, and only the vertex is read
    back.  ``_run_highs`` refuses non-finite data as InternalError.
    """
    value, index, start = budgets
    cost = np.asarray(cost, dtype=float)
    limits = np.asarray(limits, dtype=float)
    units, rows = len(cost), len(limits)
    if buffers is None:
        buffers = _Buffers(units, rows)
    res = lp._run_highs(
        (units, rows, len(value), lp._COLWISE, lp._MINIMIZE, 0.0, cost,
         buffers.zero[:units], buffers.one[:units], buffers.no_lower[:rows],
         limits, start, index, value, buffers.integrality[:units]),
        lp._FAMILY_OPTIONS["ldm-subproblem"], vertex_only=True)
    if res.status != "optimal":
        raise InternalError(f"per-switch subproblem ended {res.status}")
    flows = np.rint(res.x)
    if np.abs(res.x - flows).max(initial=0.0) > _INTEGRAL_TOL:
        raise InternalError("per-switch subproblem vertex is not integral")
    return flows.astype(int)


class _Subproblems:
    """The per-switch subproblems of one ``ldm_round`` over the pod pairs
    (rows[k], cols[k]) of an n-pod fabric, with what every switch visit
    shares built once: each pair's budget rows as int32, egress row i then
    ingress row n + j; the window mask, one row per pair and one column
    per unit a window can hold; and ``_Buffers`` for two units per pair.
    The window max(x̂-1, 0) <= x <= x̂+1 above its fixed lower part holds
    min(x̂, 1) + 1 units, so never more than two."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int):
        self.budget_rows = np.column_stack([rows, n + cols]).astype(np.int32)
        self.num_rows = 2 * n
        self.window = np.ones((len(rows), 2), dtype=bool)
        self.buffers = _Buffers(2 * len(rows), self.num_rows)

    def usage(self, x: np.ndarray) -> np.ndarray:
        """The ports that ``x`` links per pair take on one switch: egress
        per pod, then ingress per pod."""
        return np.bincount(self.budget_rows.ravel(), x.repeat(2),
                           self.num_rows)

    def solve(self, two_h1: np.ndarray, p_net: np.ndarray,
              x_hat: np.ndarray, ports: np.ndarray) -> np.ndarray:
        """Re-optimize one switch's cells within a one-link move window.

        ``two_h1`` (2h + 1), ``p_net`` and ``x_hat`` hold one entry per
        pair, and ``ports`` the switch's egress then ingress ports per pod,
        as floats.  The result is the new link count per pair.  Maximizes
        sum of -(x - h)^2 + p_net * x per cell subject to the switch's port
        budgets and max(x̂-1, 0) <= x <= x̂+1.  The concave utility splits
        into one [0, 1] variable per unit of the window, with gains
        2h + 1 - 2a for the a-th link, so the LP over the units is exact.
        The window mask and ``nonzero`` list the units pair by pair.  The
        window's fixed lower part comes off the port budgets.  A reward
        eps <= 1e-9 per unit breaks exact ties toward more links; it stays
        under a quarter of the smallest gap between distinct gains.  HiGHS
        dual simplex solves the LP (``solve_circulation``) with presolve
        off and feasibility tolerances of 1e-10, since at the default 1e-7
        it would ignore eps; its vertex is integral because the budget rows
        form a bipartite incidence matrix, here in CSC with two entries per
        unit.
        """
        linked = x_hat > 0
        low = x_hat - linked
        self.window[:, 1] = linked
        cell, slot = self.window.nonzero()
        gain = two_h1[cell] - 2.0 * (low[cell] + 1 + slot) + p_net[cell]
        # The gaps between consecutive distinct gains, read off the sorted
        # ones.
        ranked = gain.round(12)
        ranked.sort()
        steps = ranked[1:] - ranked[:-1]
        eps = min(1e-9, float(steps[steps > 0].min(initial=np.inf)) / 4)
        units, buffers = len(cell), self.buffers
        budgets = (buffers.one[:2 * units], self.budget_rows[cell].ravel(),
                   buffers.start[:units + 1])
        flows = solve_circulation(-(gain + eps), budgets,
                                  ports - self.usage(low), buffers)
        return low + np.bincount(cell, flows, len(x_hat)).astype(int)


def ldm_round(phys: PhysicalTopology, d_star: FractionalTopology,
              tau_max: int) -> RoundingReport:
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
    two_h1 = 2.0 * h + 1.0
    ports = np.hstack([phys.egress_ports, phys.ingress_ports]).astype(float)
    subproblems = _Subproblems(rows, cols, n)

    x_hat = np.zeros((M, len(rows)), dtype=int)
    totals = np.zeros(len(rows), dtype=int)
    best = x_hat.copy()
    best_good = _goodness(totals, lo, hi)
    p_plus, p_minus = np.zeros(len(rows)), np.zeros(len(rows))

    iterations = 0
    for tau in range(1, tau_max + 1):
        iterations = tau
        step = 1.0 / tau
        for m in range(M):
            x = subproblems.solve(two_h1[m], p_minus - p_plus, x_hat[m],
                                  ports[m])
            if (subproblems.usage(x) > ports[m]).any():
                raise InternalError("port budget violated after subproblem")
            totals += x - x_hat[m]
            x_hat[m] = x
            good = _goodness(totals, lo, hi)
            if good > best_good:
                best_good = good
                best = x_hat.copy()
            p_plus = np.maximum(p_plus - step * (hi - totals), 0.0)
            p_minus = np.maximum(p_minus - step * (totals - lo), 0.0)
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
