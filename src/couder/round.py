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
"keep the current link" and "add one more" identically within a cell;
the exact unit gains tell them apart by 2.  Across cells they do not
settle the iteration: keeping a cell's only link and opening a link on
an empty cell of the same h both gain 2h - 1, so the prices move links
between cells at no cost in utility, and a visit may change many cells
of its switch.

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
column-wise (CSC) form.  ``ldm_round`` builds 2h + 1 and each pair's two
budget rows (int32) once; every visit builds the rest of its LP afresh.
Against read-only buffers made once per rounding and passed as slices,
which hand HiGHS the same values, that measured the same on a shared
2-vCPU Xeon: over 16 alternating runs on 48 round-saturated targets
(best of 15 each) the median per-rounding CPU ratio was +0.1 %.

The prices take a projected subgradient step of 1/tau at iteration tau
after every switch visit: a harmonic step, whose diverging sum lets the
prices grow as far as the brackets need.

A completion pass and a repair end every rounding.  The best iterate can
leave ports idle on pods whose d* row is small, and may hold more than
ceil(d*) links on a pair.  The completion first trims every pair down to
its ceiling, then pairs each switch's idle egress and ingress ports onto
pod pairs still below their ceiling, largest residual d* - X first.  The
result stays within the ceilings and the port budgets, so it still
validates, and matching-constraint goodness never drops: a trimmed pair
now meets its bracket, and a link added below the ceiling cannot break
one.  It can still leave a pair below its floor, where the ports it
needs went to other pairs first, and it can strand an ordered pod pair
with no direct link and no 2-hop path, which re-routing cannot serve.
The repair then moves links within a switch: onto each pair below its
floor from pairs above theirs, and then onto each stranded pair, or onto
a leg that completes a 2-hop path for it, where that lowers the count of
stranded pairs.  Freed ports go back through the completion's fill.
Every move keeps the port budgets, the ceilings and each bracket that
was met, so goodness never drops and no pair is newly stranded.  From
an empty assignment (``tau_max`` 0) completion and repair are the
greedy baseline.

The dual method stops early in two ways, each checked after a whole
iteration.  Once the best iterate meets every bracket no later one can
replace it.  And the best iterate is completed and repaired whenever it
has changed since it last was: once the result meets every bracket and
gives every ordered pod pair a direct link or a 2-hop path, no later
iterate could give a better answer, so it is returned as it is.  On
every degree-saturated target measured, evenly and unevenly striped,
N = 8 to 24, the repaired first iterate does, so LDM stops after one
iteration.  Without the connectivity clause the run would stop on
results that strand a pair.  When neither stop fires the result is the
repaired completion of the best of all ``tau_max`` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .errors import InternalError, InvalidInputError
from .model import (TOL, FractionalTopology, IntegerTopology,
                    PhysicalTopology, _tables)

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


def _stranded(X: np.ndarray) -> np.ndarray:
    """The ordered pod pairs that link totals X give neither a direct link
    nor a 2-hop path."""
    linked = (X > 0).astype(int)
    stranded = linked + linked @ linked == 0
    np.fill_diagonal(stranded, False)
    return stranded


def _report(x: np.ndarray, c_minus, c_plus, iterations: int) -> RoundingReport:
    topo = IntegerTopology(x)
    t = _tables(topo.num_pods)
    pair = t.pair_src, t.pair_dst
    return RoundingReport(topo, _goodness(topo.X[pair], c_minus[pair],
                                          c_plus[pair]), iterations)


def _complete(phys: PhysicalTopology, d: np.ndarray, x: np.ndarray,
              c_plus: np.ndarray) -> np.ndarray:
    """Trim links above the ceilings, then pair idle ports onto pairs below.

    A pair holding more than c+_ij links loses the excess, highest switch
    index first; that pair then meets its bracket.  ``_fill`` then pairs
    the idle ports, so afterwards X <= c+ and no switch can serve another
    pair below its ceiling.  The result can still leave a pair below its
    floor, or an ordered pod pair with no 1- or 2-hop path: ``_repair``
    takes it from there.
    """
    before = np.cumsum(x, axis=0) - x  # links on lower-index switches
    return _fill(phys, d, np.clip(c_plus - before, 0, x), c_plus)


def _fill(phys: PhysicalTopology, d: np.ndarray, x: np.ndarray,
          c_plus: np.ndarray) -> np.ndarray:
    """Pair each switch's idle ports onto pairs below their ceiling, in place.

    Takes X <= c+.  Each switch in turn repeatedly grants one link to the
    pair (i != j) with the largest residual d_ij - X_ij among those with a
    spare egress port on i, a spare ingress port on j and X_ij < c+_ij;
    ties break lexicographically.  Afterwards no switch can serve another
    such pair.

    Grants come in whole bands, with the same result.  An open pair has
    0 < d_ij - X_ij <= d_ij, exact while d < 2**53, and a grant lowers it
    by one, so each pair keeps the fractional part of d_ij and, within a
    band [b, b + 1) of residuals, the order is fixed: larger fractional
    part first, then lower pair index.  Each pair of the top band thus
    takes ``runs`` links at once: the least of the gap to the next band,
    its room below c+, and each port's spare count over the top pairs on
    it.  At 0 the single next grant is made.  A switch takes a number of
    passes polynomial in N, whatever its port counts.
    """
    totals = x.sum(axis=0)
    off_diag = ~np.eye(x.shape[1], dtype=bool)
    for m in range(phys.num_ocs):
        while True:
            eg_left = phys.egress_ports[m] - x[m].sum(axis=1)
            ig_left = phys.ingress_ports[m] - x[m].sum(axis=0)
            open_pairs = ((eg_left[:, None] > 0) & (ig_left[None, :] > 0)
                          & (totals < c_plus) & off_diag)
            if not open_pairs.any():
                break
            residual = np.where(open_pairs, d - totals, -np.inf)
            band = np.floor(residual)
            i, j = np.nonzero(band == band.max())
            runs = int(min(band.max() - band[band < band.max()].max(),
                           (c_plus - totals)[i, j].min(),
                           (eg_left[i] // np.bincount(i)[i]).min(),
                           (ig_left[j] // np.bincount(j)[j]).min()))
            if runs == 0:  # the loop's next grant
                k = np.argmax(residual[i, j])
                i, j, runs = i[k:k + 1], j[k:k + 1], 1
            x[m, i, j] += runs
            totals[i, j] += runs
    return x


def _moves(phys: PhysicalTopology, d: np.ndarray, x: np.ndarray,
           c_minus: np.ndarray, c_plus: np.ndarray, i: int, j: int):
    """The moves within one switch that give pair (i, j) one more link,
    best first, each as the cells (m, a, b) it takes a link from and the
    cells it adds one to.  Every move keeps the port budgets.

    A donor is a cell whose pair holds more than c- links, so it stays at
    or above its floor.  First the moves with one donor: k -> j becomes
    i -> j on a switch where i has an idle egress port, or i -> j' becomes
    i -> j on one where j has an idle ingress port, the donor with the
    least residual r = d - X first.  Then the swaps (i -> j', k -> j) ->
    (i -> j, k -> j'), with (k, j') below its ceiling, least
    r_ij' + r_kj - r_kj' first.  Each kind thus lowers sum (d - X)^2 most
    first.  Ties go to the k -> j moves, then by switch and pod index.
    """
    X = x.sum(axis=0)
    r = d - X
    give = (x > 0) & (X > c_minus)
    eg_idle = phys.egress_ports[:, i] > x[:, i].sum(axis=1)
    ig_idle = phys.ingress_ports[:, j] > x[:, :, j].sum(axis=1)
    m1, k = np.nonzero(give[:, :, j] & eg_idle[:, None])
    m2, j2 = np.nonzero(give[:, i, :] & ig_idle[:, None])
    m = np.concatenate([m1, m2])
    src = np.concatenate([k, np.full_like(j2, i)])
    dst = np.concatenate([np.full_like(k, j), j2])
    for s in np.argsort(r[src, dst], kind="stable"):
        yield (m[s], src[s], dst[s]), (m[s], i, j)
    m, k, j2 = np.nonzero(give[:, :, j, None] & give[:, None, i, :]
                          & (X < c_plus))
    for s in np.argsort(r[i, j2] + r[k, j] - r[k, j2], kind="stable"):
        both = (m[s], m[s])
        yield (both, (i, k[s]), (j2[s], j)), (both, (i, k[s]), (j, j2[s]))


def _repair(phys: PhysicalTopology, d: np.ndarray, x: np.ndarray,
            c_minus: np.ndarray, c_plus: np.ndarray) -> np.ndarray:
    """Raise pairs below their floor, then link stranded pod pairs.

    Takes ``_complete``'s output, so X <= c+.  First, while some pair is
    below its floor, the one with the largest residual d - X (ties as
    ``_fill`` breaks them) takes the first of its ``_moves`` that strands
    no more ordered pod pairs than before; ``_fill`` then pairs the ports
    these moves freed.  Then, while some pod pair has no 1- or 2-hop
    path, the one with the largest residual takes the first move that,
    followed by ``_fill``, lowers the count of such pairs: a move onto
    the pair itself, else onto a pair (i, k) or (k, j) whose other leg is
    linked, largest residual first, each below its ceiling.  A pair that
    no move can raise is given up on.

    Every move keeps the port budgets, keeps X <= c+ and leaves each
    bracket that was met met, so goodness never drops and the count of
    stranded pairs never rises.  A donor holds at most one link above its
    floor, as c+ <= c- + 1, so each move shifts one link.  Each move of
    the first stage lowers the count of links held above the floors, at
    most N(N - 1), by at least one, and each of the second the count of
    stranded pairs; each stage gives up on at most N(N - 1) pairs.  The
    loops thus run a number of times polynomial in N and M, whatever the
    port counts.
    """
    for floor in (True, False):
        given_up = np.zeros(x.shape[1:], dtype=bool)
        while True:
            X = x.sum(axis=0)
            stranded = _stranded(X)
            todo = (X < c_minus if floor else stranded) & ~given_up
            if not todo.any():
                break
            r = d - X
            i, j = np.unravel_index(np.argmax(np.where(todo, r, -np.inf)),
                                    X.shape)
            legs = np.zeros_like(todo)
            if not floor:
                legs[i, X[:, j] > 0] = legs[X[i] > 0, j] = True
            src, dst = np.nonzero(legs & (X < c_plus))
            order = np.argsort(-r[src, dst], kind="stable")
            targets = [(i, j)] * bool(X[i, j] < c_plus[i, j]) \
                + list(zip(src[order], dst[order]))
            moved = _first_move(phys, d, x, c_minus, c_plus, targets,
                                stranded.sum() - (not floor), refill=not floor)
            if moved is None:
                given_up[i, j] = True
            else:
                x = moved
        if floor:
            x = _fill(phys, d, x.copy(), c_plus)
    return x


def _first_move(phys: PhysicalTopology, d: np.ndarray, x: np.ndarray,
                c_minus: np.ndarray, c_plus: np.ndarray, targets: list,
                limit: int, refill: bool) -> Optional[np.ndarray]:
    """x after the first of the ``_moves`` onto ``targets``, in order,
    that leaves at most ``limit`` stranded pairs, ``_fill`` included when
    ``refill``; None when there is no such move."""
    for a, b in targets:
        for take, put in _moves(phys, d, x, c_minus, c_plus, a, b):
            moved = x.copy()
            moved[take] -= 1
            moved[put] += 1
            if refill:
                _fill(phys, d, moved, c_plus)
            if _stranded(moved.sum(axis=0)).sum() <= limit:
                return moved
    return None


def _check_inputs(phys: PhysicalTopology, d_star: FractionalTopology):
    if d_star.num_pods != phys.num_pods:
        raise InvalidInputError("fractional topology does not match the fabric")
    if (d_star.d.sum(axis=1) > phys.egress_radix + TOL).any() \
            or (d_star.d.sum(axis=0) > phys.ingress_radix + TOL).any():
        raise InvalidInputError("fractional topology violates degree bounds")


def solve_circulation(cost: np.ndarray, budgets: tuple,
                      limits: np.ndarray) -> np.ndarray:
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
    ``lp``'s one HiGHS object, with column bounds [0, 1], no row lower
    bounds and every column continuous.  The simplex solver runs with
    presolve off and feasibility tolerances of 1e-10; the solve is cold,
    and only the vertex is read back.  ``_run_highs`` refuses non-finite
    data as InternalError.
    """
    value, index, start = budgets
    cost = np.asarray(cost, dtype=float)
    limits = np.asarray(limits, dtype=float)
    units, rows = len(cost), len(limits)
    res = lp._run_highs(
        (units, rows, len(value), lp._COLWISE, lp._MINIMIZE, 0.0, cost,
         np.zeros(units), np.ones(units), np.full(rows, -np.inf), limits,
         start, index, value, np.zeros(units, dtype=np.int32)),
        lp._FAMILY_OPTIONS["ldm-subproblem"], vertex_only=True)
    if res.status != "optimal":
        raise InternalError(f"per-switch subproblem ended {res.status}")
    flows = np.rint(res.x)
    if np.abs(res.x - flows).max(initial=0.0) > _INTEGRAL_TOL:
        raise InternalError("per-switch subproblem vertex is not integral")
    return flows.astype(int)


def _solve_switch(budget_rows: np.ndarray, two_h1: np.ndarray,
                  p_net: np.ndarray, x_hat: np.ndarray,
                  ports: np.ndarray) -> np.ndarray:
    """Re-optimize one switch's cells within a one-link move window.

    ``budget_rows`` holds each pair's egress row i and ingress row n + j
    as int32, ``two_h1`` (2h + 1), ``p_net`` and ``x_hat`` one entry per
    pair, and ``ports`` the switch's egress then ingress ports per pod, as
    floats.  Returns the new link count per pair: the x that maximizes
    sum of -(x - h)^2 + p_net * x within the port budgets and
    max(x̂-1, 0) <= x <= x̂+1, from the LP over the window's units (see the
    module docstring).  Above its fixed lower part, which comes off the
    port budgets, a window holds min(x̂, 1) + 1 units, so a two-column
    window mask and ``nonzero`` list them pair by pair.  The tie reward
    eps stays under a quarter of the smallest gap between distinct gains.
    """
    linked = x_hat > 0
    low = x_hat - linked
    window = np.ones((len(x_hat), 2), dtype=bool)
    window[:, 1] = linked
    cell, slot = window.nonzero()
    gain = two_h1[cell] - 2.0 * (low[cell] + 1 + slot) + p_net[cell]
    # The gaps between consecutive distinct gains, read off the sorted ones.
    ranked = gain.round(12)
    ranked.sort()
    steps = ranked[1:] - ranked[:-1]
    eps = min(1e-9, float(steps[steps > 0].min(initial=np.inf)) / 4)
    units = len(cell)
    budgets = (np.ones(2 * units), budget_rows[cell].ravel(),
               np.arange(0, 2 * units + 1, 2, dtype=np.int32))
    used = np.bincount(budget_rows.ravel(), low.repeat(2), len(ports))
    flows = solve_circulation(-(gain + eps), budgets, ports - used)
    return low + np.bincount(cell, flows, len(x_hat)).astype(int)


def ldm_round(phys: PhysicalTopology, d_star: FractionalTopology,
              tau_max: int) -> RoundingReport:
    """Dual-ascent rounding with per-switch HiGHS subproblems.

    Each iteration re-optimizes every switch in turn with an LP that HiGHS
    dual simplex solves to an integral vertex (the budget matrix is totally
    unimodular), with tolerances tight enough to honour the tie reward.
    Keeps the iterate with the best goodness and returns its completion
    (``_complete``) after ``_repair``: the result stays within ceil(d*)
    and every port budget, its goodness is no lower than the completion's
    and it strands no more pod pairs.  Runs at most ``tau_max``
    iterations.  After each one it stops if the kept iterate meets every
    matching constraint, or if the repaired completion of the kept
    iterate, made once per kept iterate, meets every matching constraint
    and links every ordered pod pair in one or two hops.  The loop works
    on vectors over the off-diagonal pod pairs and keeps the per-pair link
    totals up to date after each visit.  At ``tau_max`` 0 the result is
    the repaired completion of an empty assignment: the greedy baseline.
    """
    _check_inputs(phys, d_star)
    if tau_max < 0:
        raise InvalidInputError("iteration count must not be negative")
    n, M = phys.num_pods, phys.num_ocs
    c_minus, c_plus = _brackets(d_star.d)
    rows, cols = _tables(n).pair_src, _tables(n).pair_dst
    lo, hi = c_minus[rows, cols], c_plus[rows, cols]
    # h_ij^m: the natural per-switch ceiling on x_ij^m; the primal objective
    # -(x - h)^2 rewards forming as many links as ports allow.
    h = np.minimum(phys.egress_ports[:, rows], phys.ingress_ports[:, cols])
    two_h1 = 2.0 * h + 1.0
    ports = np.hstack([phys.egress_ports, phys.ingress_ports]).astype(float)
    budget_rows = np.column_stack([rows, n + cols]).astype(np.int32)

    x_hat = np.zeros((M, len(rows)), dtype=int)
    totals = np.zeros(len(rows), dtype=int)
    best = x_hat.copy()
    best_good = _goodness(totals, lo, hi)
    p_plus, p_minus = np.zeros(len(rows)), np.zeros(len(rows))

    def complete(best):
        x = np.zeros((M, n, n), dtype=int)
        x[:, rows, cols] = best
        return _repair(phys, d_star.d, _complete(phys, d_star.d, x, c_plus),
                       c_minus, c_plus)

    iterations, done = 0, None  # done: the completion of best, once made
    for tau in range(1, tau_max + 1):
        iterations = tau
        step = 1.0 / tau
        for m in range(M):
            x = _solve_switch(budget_rows, two_h1[m], p_minus - p_plus,
                              x_hat[m], ports[m])
            if (np.bincount(budget_rows.ravel(), x.repeat(2), 2 * n)
                    > ports[m]).any():
                raise InternalError("port budget violated after subproblem")
            totals += x - x_hat[m]
            x_hat[m] = x
            good = _goodness(totals, lo, hi)
            if good > best_good:
                best_good, best, done = good, x_hat.copy(), None
            p_plus = np.maximum(p_plus - step * (hi - totals), 0.0)
            p_minus = np.maximum(p_minus - step * (totals - lo), 0.0)
        if best_good == len(rows):
            break  # no later iterate can replace best
        if done is None:
            done = complete(best)
            X = done.sum(axis=0)
            if _goodness(X[rows, cols], lo, hi) == len(rows) \
                    and not _stranded(X).any():
                break  # no later iterate can do better
    if done is None:
        done = complete(best)
    return _report(done, c_minus, c_plus, iterations)
