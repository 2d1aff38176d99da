"""The per-switch unit-flow LP and the LDM subproblem built on it.

``round.solve_circulation`` is a min-cost circulation through a source,
one switch's egress ports, its ingress ports and a sink, written as an LP
over unit arcs; ``round._Subproblems.solve`` builds that LP from a
switch's move window.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from couder.errors import InternalError
from couder.lp import _HIGHS_TIGHT
from couder.round import solve_circulation
from helpers import (brute_force_unit_flow, brute_force_window_max,
                     csc_arrays, random_window_instance, window_subproblem,
                     window_utility)


def random_network(rng, pods=3, num_units=8, max_limit=2):
    """Random unit arcs from egress to ingress ports of one switch.

    Returns the arc costs, the bipartite budget matrix (one egress and one
    ingress row per pod) and the integer port limits.
    """
    tails = rng.integers(pods, size=num_units)
    heads = rng.integers(pods, size=num_units)
    budgets = np.zeros((2 * pods, num_units))
    budgets[tails, np.arange(num_units)] = 1.0
    budgets[pods + heads, np.arange(num_units)] = 1.0
    limits = rng.integers(0, max_limit + 1, size=2 * pods).astype(float)
    cost = rng.integers(-5, 6, size=num_units).astype(float)
    return cost, budgets, limits


class TestSolveCirculation:
    @pytest.mark.parametrize("cost, limit", [(np.nan, 1.0), (np.inf, 1.0),
                                             (1.0, np.inf)])
    def test_non_finite_data_is_internal_error(self, cost, limit):
        with pytest.raises(InternalError, match="not finite"):
            solve_circulation(np.array([cost, 1.0]),
                              csc_arrays(np.ones((1, 2))), np.array([limit]))

    def test_unsatisfiable_lower_bound_infeasible(self):
        # A fixed lower part above the ports leaves a negative limit.
        with pytest.raises(InternalError):
            solve_circulation(np.ones(1), csc_arrays(np.ones((1, 1))),
                              np.array([-1.0]))
        x_hat = np.array([[0, 2], [0, 0]])
        with pytest.raises(InternalError):
            window_subproblem(np.zeros((2, 2)), np.zeros((2, 2)),
                              x_hat, np.array([2, 2]),
                              np.array([0, 2]))

    def test_zero_network_trivially_feasible(self):
        rng = np.random.default_rng(0)
        _, budgets, limits = random_network(rng)
        flows = solve_circulation(np.ones(budgets.shape[1]),
                                  csc_arrays(budgets), limits)
        assert flows.dtype.kind == "i"
        assert flows.tolist() == [0] * budgets.shape[1]

    def test_negative_cycle_saturates(self):
        # Negative cost on every arc of the source-egress-ingress-sink cycle
        # with room on every port: every unit is used.
        budgets = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                            [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        flows = solve_circulation(-np.ones(3), csc_arrays(budgets),
                                  np.array([2.0, 1.0, 1.0, 2.0]))
        assert flows.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        cost, budgets, limits = random_network(rng)
        flows = solve_circulation(cost, csc_arrays(budgets), limits)
        oracle = brute_force_unit_flow(cost, budgets, limits)
        assert oracle is not None
        assert float(cost @ flows) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("seed", range(25, 40))
    def test_integrality_and_conservation(self, seed):
        rng = np.random.default_rng(seed)
        cost, budgets, limits = random_network(rng, pods=5, num_units=10,
                                               max_limit=3)
        flows = solve_circulation(cost, csc_arrays(budgets), limits)
        assert flows.dtype.kind == "i"
        assert ((flows == 0) | (flows == 1)).all()
        used = budgets @ flows
        assert (used <= limits).all()
        # Flow out of the source through the egress ports equals flow into
        # the sink through the ingress ports.
        assert used[:5].sum() == used[5:].sum() == flows.sum()

    @pytest.mark.parametrize("seed", range(40, 60))
    def test_same_vertex_as_linprog(self, seed):
        # solve_circulation calls HiGHS directly, on the HiGHS object every
        # solve reuses; scipy's linprog with the same options must end on
        # the very same vertex.
        rng = np.random.default_rng(seed)
        for _ in range(5):
            pods = int(rng.integers(2, 7))
            cost, budgets, limits = random_network(
                rng, pods=pods, num_units=int(rng.integers(1, 40)),
                max_limit=3)
            ref = linprog(cost, A_ub=budgets, b_ub=limits, bounds=(0, 1),
                          method="highs-ds",
                          options={**_HIGHS_TIGHT, "presolve": False})
            assert ref.status == 0
            arrays = csc_arrays(budgets)
            ref_csc = sp.csc_array(budgets)
            for got, want in zip(arrays, (ref_csc.data, ref_csc.indices,
                                          ref_csc.indptr)):
                assert got.tolist() == want.tolist()
            flows = solve_circulation(cost, arrays, limits)
            assert flows.tolist() == np.rint(ref.x).astype(int).tolist()

    def test_constant_cost_shift_with_pinned_total(self):
        # Bipartite 2x2, two units per cell, the total pinned to 3 by a pair
        # of rows, so a constant cost shift cannot change the argmin set.
        cell_cost = np.array([1.0, 4.0, 2.0, 0.5])
        cell = np.repeat(np.arange(4), 2)
        budgets = np.zeros((6, 8))
        budgets[cell // 2, np.arange(8)] = 1.0
        budgets[2 + cell % 2, np.arange(8)] = 1.0
        budgets[4], budgets[5] = 1.0, -1.0
        limits = np.array([2.0, 2.0, 2.0, 2.0, 3.0, -3.0])

        arrays = csc_arrays(budgets)
        base = solve_circulation(cell_cost[cell], arrays, limits)
        shifted = solve_circulation(cell_cost[cell] + 10.0, arrays, limits)
        assert np.bincount(cell, base).tolist() == [1, 0, 0, 2]
        assert np.bincount(cell, shifted).tolist() == [1, 0, 0, 2]
        assert float((cell_cost[cell] + 10.0) @ shifted) == pytest.approx(
            float(cell_cost[cell] @ base) + 10.0 * 3)

    def test_forced_two_cycle(self):
        # Pods 0 and 1 hold two links each way; the window keeps at least
        # one on each however much the prices push them down.
        x_hat = np.array([[0, 2], [2, 0]])
        x = window_subproblem(np.zeros((2, 2)), np.full((2, 2), -50.0),
                              x_hat, np.array([2, 2]),
                              np.array([2, 2]))
        assert x.tolist() == [[0, 1], [1, 0]]


class TestBuildSubproblem:
    def test_negative_cost_saturates(self):
        # A large price on (0, 1) makes every unit of its window pay off, up
        # to x̂ + 1; the priced-down (1, 0) falls to its window floor.
        p_net = np.zeros((2, 2))
        p_net[0, 1], p_net[1, 0] = 10.0, -10.0
        x = window_subproblem(np.zeros((2, 2)), p_net,
                              np.array([[0, 1], [1, 0]]),
                              np.array([3, 3]), np.array([3, 3]))
        assert x.tolist() == [[0, 2], [0, 0]]

    def test_epsilon_maximizes_flow_on_ties(self):
        # Every unit gains exactly 0, so only the tie reward decides; it
        # must reach the largest link count the uneven ports allow.
        egress, ingress = np.array([1, 2, 2]), np.array([2, 2, 1])
        h, p_net = np.ones((3, 3)), -np.ones((3, 3))
        x = window_subproblem(h, p_net, np.zeros((3, 3), dtype=int),
                              ingress, egress)
        off = ~np.eye(3, dtype=bool)
        budgets = np.zeros((6, 6))
        rows, cols = np.nonzero(off)
        budgets[rows, np.arange(6)] = 1.0
        budgets[3 + cols, np.arange(6)] = 1.0
        most = -brute_force_unit_flow(-np.ones(6), budgets,
                                      np.concatenate([egress, ingress]))
        assert x.sum() == most
        assert window_utility(x, h, p_net) == pytest.approx(-6.0)

    def test_epsilon_shrinks_below_cost_gap(self):
        # Units (0, 1) and (0, 2) lose 1.6e-9 and 8e-10; the default reward
        # of 1e-9 would make the second pay off, but the reward shrinks
        # below their gap, so neither is taken.
        p_net = np.full((3, 3), -50.0)
        p_net[0, 1], p_net[0, 2] = -1.0 - 1.6e-9, -1.0 - 8e-10
        x = window_subproblem(np.ones((3, 3)), p_net,
                              np.zeros((3, 3), dtype=int),
                              np.array([1, 1, 1]), np.array([2, 1, 1]))
        assert x.sum() == 0

    def test_epsilon_reads_the_gap_between_any_two_units(self):
        # As above, but the two close units, (0, 1) and (2, 1), are not
        # neighbours in column order: the reward still shrinks below their
        # gap of 8e-10, so (2, 1)'s loss of 8e-10 does not pay off.
        p_net = np.full((3, 3), -50.0)
        p_net[0, 1], p_net[2, 1] = -1.0 - 1.6e-9, -1.0 - 8e-10
        x = window_subproblem(np.ones((3, 3)), p_net,
                              np.zeros((3, 3), dtype=int),
                              np.ones(3, dtype=int), np.ones(3, dtype=int))
        assert x.sum() == 0

    def test_respects_caps_and_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            h, p_net, x_hat, ingress, egress = random_window_instance(rng, n)
            x = window_subproblem(h, p_net, x_hat, ingress, egress)
            assert (x >= np.maximum(x_hat - 1, 0)).all()
            assert (x <= x_hat + 1).all()
            assert (x.sum(axis=1) <= egress).all()
            assert (x.sum(axis=0) <= ingress).all()

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive_assignment(self, seed):
        # From no links, every cell is 0 or 1; integer h and prices make
        # many units tie exactly.
        rng = np.random.default_rng(100 + seed)
        h = rng.integers(0, 3, size=(3, 3)).astype(float)
        p_net = rng.integers(-5, 6, size=(3, 3)).astype(float)
        x_hat = np.zeros((3, 3), dtype=int)
        egress, ingress = rng.integers(1, 4, size=3), rng.integers(1, 4, size=3)
        x = window_subproblem(h, p_net, x_hat, ingress, egress)
        best = brute_force_window_max(h, p_net, x_hat, ingress, egress)
        assert window_utility(x, h, p_net) == pytest.approx(best, abs=1e-9)
