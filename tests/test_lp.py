import importlib.metadata
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _highs
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from couder import lp
from couder.errors import InternalError, InvalidInputError, SolverLimitError
from helpers import (assert_same_model, colwise_highs_lp, record_highs,
                     record_highs_models)


def test_simple_bounded_max():
    m = lp.LpModel()
    x = m.add_vars(1, 0.0, 3.0)
    m.set_objective("max", x, [1.0])
    sol = lp.solve(m)
    assert sol.optimal
    assert sol.x[x[0]] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_infeasible_pair():
    m = lp.LpModel()
    m.add_vars(1, 0.0, None)
    m.add_rows([0], [0], [1.0], lp.GE, [1.0])
    m.add_rows([0], [0], [1.0], lp.LE, [0.0])
    assert lp.solve(m).status == "infeasible"


def test_degenerate_optimum_objective_unique():
    m = lp.LpModel()
    m.add_vars(2, 0.0, 3.0)
    m.add_rows([0, 0], [0, 1], [1.0, 1.0], lp.LE, [4.0])
    m.set_objective("max", [0, 1], [1.0, 1.0])
    sol = lp.solve(m)
    assert sol.objective_value == pytest.approx(4.0, abs=1e-9)
    assert sol.x.sum() == pytest.approx(4.0, abs=1e-9)


def test_unbounded():
    m = lp.LpModel()
    m.add_vars(1, 0.0, None)
    m.set_objective("max", [0], [1.0])
    assert lp.solve(m).status == "unbounded"
    assert lp.solve(m).x is None


def test_feasibility_empty_constraints():
    m = lp.LpModel()
    m.add_vars(1, 0.0, 5.0)
    sol = lp.solve(m)
    assert sol.optimal and sol.x.shape == (1,)


def test_feasibility_contradiction():
    m = lp.LpModel()
    m.add_vars(1, None, None)
    m.add_rows([0, 1], [0, 0], [1.0, 1.0], lp.EQ, [1.0, 2.0])
    assert lp.solve(m).status == "infeasible"


@pytest.mark.parametrize("relation, rhs, status", [
    (lp.LE, [0.0, 1.0], "optimal"), (lp.LE, [-1.0], "infeasible"),
    (lp.GE, [-1.0, 0.0], "optimal"), (lp.GE, [1.0], "infeasible"),
    (lp.EQ, [0.0], "optimal"), (lp.EQ, [0.0, 2.0], "infeasible")])
def test_model_without_columns_checks_its_rows(relation, rhs, status):
    # Each row reads 0 (relation) rhs, which holds or not as ``status``
    # says; either way a model without columns is refused before HiGHS,
    # which would call it "Empty", sees it.
    m = lp.LpModel()
    m.add_rows([], [], [], lp.LE, [3.0])
    m.add_rows([], [], [], relation, rhs)
    with pytest.raises(InvalidInputError, match="at least one column"):
        lp.solve(m)


def test_feasibility_simplex_witness():
    m = lp.LpModel()
    lams = m.add_vars(3, 0.0, None)
    m.add_rows([0, 0, 0], lams, np.ones(3), lp.LE, [1.0])
    m.add_rows([0], [lams[0]], [2.0], lp.EQ, [1.0])
    sol = lp.solve(m)
    assert sol.optimal
    assert sol.x[lams[0]] == pytest.approx(0.5, abs=1e-9)


def test_weak_duality_spot_check():
    # max 3x + 2y  s.t. x + y <= 4, x <= 3  (x, y >= 0)
    m = lp.LpModel()
    m.add_vars(2, 0.0, None)
    m.add_rows([0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0], lp.LE, [4.0, 3.0])
    m.set_objective("max", [0, 1], [3.0, 2.0])
    sol = lp.solve(m)
    # Any dual-feasible y gives an upper bound: take y = (2, 1).
    dual_bound = 2.0 * 4.0 + 1.0 * 3.0
    assert sol.objective_value <= dual_bound + 1e-9
    assert sol.objective_value == pytest.approx(11.0, abs=1e-8)


def test_row_scaling_leaves_solution_unchanged():
    def build(scale):
        m = lp.LpModel()
        m.add_vars(2, 0.0, None)
        m.add_rows([0, 0, 1, 1], [0, 1, 0, 1],
                   scale * np.array([2.0, 1.0, 1.0, 3.0]), lp.LE,
                   scale * np.array([10.0, 15.0]))
        m.set_objective("max", [0, 1], [1.0, 1.0])
        return lp.solve(m)

    a, b = build(1.0), build(7.5)
    assert a.status == b.status == "optimal"
    assert a.objective_value == pytest.approx(b.objective_value, rel=1e-9)
    assert a.x == pytest.approx(b.x, abs=1e-8)


def num_rows(m: lp.LpModel) -> int:
    """The rows the model's ``add_rows`` calls added."""
    return sum(len(blk.rhs) for blk in m._blocks)


def test_undeclared_variable_rejected():
    m = lp.LpModel()
    m.add_vars(1)
    for col in (1, -1):
        with pytest.raises(InvalidInputError):
            m.set_objective("max", [col], [1.0])


@pytest.mark.parametrize("rows, cols", [([0], [1.0]), ([0.0], [1]),
                                        ([0], np.array([1.7])),
                                        ([0], [True])])
def test_non_integer_row_or_column_index_rejected(rows, cols):
    # Casting would truncate 1.7 to column 1 instead of refusing it.
    m = lp.LpModel()
    m.add_vars(2)
    with pytest.raises(InvalidInputError, match="integers"):
        m.add_rows(rows, cols, [1.0], lp.LE, [1.0])
    assert num_rows(m) == 0
    # An empty list reads as float but holds no index; any int dtype is fine.
    m.add_rows([], [], [], lp.LE, [])
    m.add_rows(np.array([0]), np.array([1], dtype=np.uint8), [1.0], lp.LE,
               [1.0])
    assert num_rows(m) == 1


@pytest.mark.parametrize("cols", [[1.0], np.array([1.7]), [True]])
def test_non_integer_objective_column_rejected(cols):
    m = lp.LpModel()
    m.add_vars(2)
    with pytest.raises(InvalidInputError, match="integers"):
        m.set_objective("max", cols, [1.0])
    m.set_objective("max", [], [])


def test_bad_bounds_rejected():
    m = lp.LpModel()
    with pytest.raises(InvalidInputError):
        m.add_vars(1, 2.0, 1.0)


@pytest.mark.parametrize("lb, ub", [([0.0, 2.0], [1.0, 1.0]), (3.0, 1.0)])
def test_bad_block_of_variables_rejected_whole(lb, ub):
    m = lp.LpModel()
    m.add_vars(1)
    with pytest.raises(InvalidInputError):
        m.add_vars(2, lb, ub)
    assert m.num_variables == 1 and m._lb.tolist() == [0.0]


def test_block_of_rows_is_the_rows_added_one_by_one():
    # Zero terms dropped, blocks stacked in the order added: what one
    # add_rows call per row gives.
    one, block = lp.LpModel(), lp.LpModel()
    for m in (one, block):
        assert list(m.add_vars(3, [0.0, -1.0, -np.inf], 2.0)) == [0, 1, 2]
        m.set_objective("max", [0], [1.0])
    one.add_rows([0, 0], [0, 1], [1.0, 0.0], lp.GE, [-1.0],
                 scaled=([0], [2], [2.0]))
    one.add_rows([0, 0], [1, 2], [3.0, -1.0], lp.GE, [-2.0])
    one.add_rows([0, 0], [0, 2], [1.0, 1.0], lp.EQ, [1.5])
    one.add_rows([0], [2], [4.0], lp.LE, [0.5])
    block.add_rows([0, 0, 1, 1], [0, 1, 1, 2], [1.0, 0.0, 3.0, -1.0], lp.GE,
                   [-1.0, -2.0], scaled=([0], [2], [2.0]))
    block.add_rows([0, 0], [0, 2], [1.0, 1.0], lp.EQ, [1.5])
    block.add_rows([0], [2], [4.0], lp.LE, [0.5])
    assert num_rows(block) == num_rows(one) == 4
    assert_same_model(block, one)
    assert lp.solve(block).objective_value == lp.solve(one).objective_value


@pytest.mark.parametrize("rows, cols, coefs, rhs", [
    ([0, 1], [0, 0], [1.0, 1.0], [1.0]),  # row beyond rhs
    ([0], [2], [1.0], [1.0]),  # undeclared column
    ([0], [-1], [1.0], [1.0]),
    ([0, 0], [0], [1.0, 1.0], [1.0])])  # lengths differ
def test_bad_block_of_rows_rejected(rows, cols, coefs, rhs):
    m = lp.LpModel()
    m.add_vars(2)
    with pytest.raises(InvalidInputError):
        m.add_rows(rows, cols, coefs, lp.LE, rhs)
    assert num_rows(m) == 0


def pattern_model() -> tuple:
    """(model, columns, blocks): blocks whose sums and zeros the pattern
    must get right.  A duplicate (row, column) triplet, summed; an explicit
    0, dropped; a scaled term that cancels a fixed one at scale 2; a >=
    block and an equality block."""
    m = lp.LpModel()
    x = m.add_vars(4, [0.0, -1.0, 0.0, 0.0], [3.0, 2.0, np.inf, 5.0])
    blocks = (
        m.add_rows([0, 0, 0, 1, 1], [x[0], x[1], x[0], x[2], x[3]],
                   [0.1, 0.0, 0.2, 1.0, -1.5], lp.LE, [4.0, 2.0],
                   scaled=([0, 1, 1], [x[3], x[2], x[1]], [1.0, -0.5, 0.3])),
        m.add_rows([0, 0, 1], [x[1], x[2], x[2]], [1.0, 0.0, 2.0], lp.GE,
                   [-1.0, 0.5]),
        m.add_rows([0, 0, 0, 0], [x[0], x[3], x[3], x[1]],
                   [1.0, 0.7, 0.6, 0.0], lp.EQ, [1.5],
                   scaled=([0, 0], [x[3], x[3]], [0.1, 0.2])))
    m.set_objective("max", x[[0, 2, 0]], [1.0, -1.0, 0.5])
    return m, x, blocks


def test_highs_holds_the_reference_model(monkeypatch):
    # HiGHS must hold the model built column-wise from separate sparse
    # matrices per part, at every scale.
    m, _, _ = pattern_model()
    pairs = record_highs_models(monkeypatch)
    for scale in (1.0, 2.0, 0.0, -3.5):
        m.scale = scale
        assert lp.solve(m).optimal
    assert len(pairs) == 4
    for sent, ref in pairs:
        assert sent == ref
    # At scale 2 the scaled term cancels row 1's fixed one on x[2].
    values = [sent[-1] for sent, _ in pairs]
    assert len(values[0]) - len(values[1]) == 8  # one float64 entry


def test_held_input_is_patched_or_rebuilt_as_a_fresh_build(monkeypatch):
    # The arrays a model hands HiGHS: set_rhs and a change of scale write
    # into them; add_rows, add_vars and set_objective after a solve
    # assemble new ones.  Either way HiGHS holds, bit for bit, what a
    # fresh build gives.
    m, x, blocks = pattern_model()
    pairs = record_highs_models(monkeypatch)
    lp.solve(m)
    for change in (lambda: m.set_rhs(blocks[1], [-0.5, 1.0]),
                   lambda: setattr(m, "scale", 2.0),
                   lambda: m.add_rows([0], [x[2]], [1.0], lp.LE, [4.0]),
                   lambda: m.add_vars(1, 0.0, 1.0),
                   lambda: m.set_objective("min", x[[1, 3]], [1.0, 0.5])):
        change()
        assert lp.solve(m).optimal
    assert len(pairs) == 6
    for sent, ref in pairs:
        assert sent == ref


def start_model(relation=lp.EQ) -> tuple:
    """(model, x, == block, <= block): min 3 x0 + 2 x1 + x2 subject to
    x0 + x1 + x2 == 1, x0 <= 0.5, x1 <= 0.25 and x >= 0, the == block
    added first, or a block of ``relation`` in its place.  The basis with
    x2 and the <= rows basic is optimal for == and >=."""
    m = lp.LpModel()
    x = m.add_vars(3, 0.0, None)
    eq = m.add_rows([0, 0, 0], x, [1.0, 1.0, 1.0], relation, [1.0])
    le = m.add_rows([0, 1], x[:2], [1.0, 1.0], lp.LE, [0.5, 0.25])
    m.set_objective("min", x, [3.0, 2.0, 1.0])
    return m, x, eq, le


def test_start_basis_maps_blocks_to_highs_rows():
    # HiGHS holds the rows in the order added, the first block's first:
    # the <= block's rows after it are basic.  The first row, nonbasic,
    # sits at the bound its right-hand side sets: the upper one of an
    # equality row, the lower one of a >= row.  The basis is returned, not
    # kept: the next solve starts there only through set_basis.
    status = lp._highs.HighsBasisStatus
    for relation, at in ((lp.EQ, status.kUpper), (lp.GE, status.kLower)):
        m, x, _, le = start_model(relation)
        start = m.start_basis([x[2]], [le])
        assert m._basis is None
        assert start.col_status == [status.kLower, status.kLower,
                                    status.kBasic]
        assert start.row_status == [at, status.kBasic, status.kBasic]
        m.set_basis(start)
        res = lp.solve(m)
        assert res.optimal and res.nit == 0 and res.x.tolist() == [0, 0, 1]


def test_set_basis_restores_the_start_basis(monkeypatch):
    # set_rhs leaves the kept basis, the last solve's, alone; set_basis
    # before each solve starts every one from the start basis, whatever
    # the solves before it ended on, and set_basis(None) makes it cold.
    calls = record_highs(monkeypatch)
    m, x, eq, le = start_model()
    start = m.start_basis([x[2]], [le])
    for rhs in ([2.0], [0.5], [3.0]):
        m.set_rhs(eq, rhs)
        m.set_basis(start)
        got = lp.solve(m)
        m.set_rhs(eq, [1.0])
        assert lp.solve(m).optimal  # starts from got's basis
        cold, _, _, _ = start_model()
        cold.set_rhs(eq, rhs)
        assert got.objective_value == lp.solve(cold).objective_value
    bases = [basis for basis, _ in calls]
    assert bases[::3] == [start] * 3 and bases[2::3] == [None] * 3
    assert [basis is res.basis for basis, (_, res)
            in zip(bases[1::3], calls[::3])] == [True] * 3
    m.set_basis(None)
    lp.solve(m)
    assert calls[-1][0] is None


@pytest.mark.parametrize("cols, lb, match", [
    ([0, 1], 0.0, "one basic column or row per row"),
    ([], 0.0, "one basic column or row per row"),
    ([2], -np.inf, "finite lower bound")])
def test_start_basis_rejected(cols, lb, match):
    m, x, eq, le = start_model()
    m.add_vars(1, lb, 1.0)
    with pytest.raises(InvalidInputError, match=match):
        m.start_basis(cols, [le])
    assert m._basis is None


def test_basis_highs_refuses_is_internal_error():
    # Two basic columns for one row: HiGHS's setBasis refuses it, and the
    # solve must not go on cold.
    model = colwise_highs_lp(np.ones(2), np.ones((1, 2)), np.ones(1),
                             np.ones(1), np.zeros(2), np.ones(2))
    status = lp._highs.HighsBasisStatus
    basis = lp._highs.HighsBasis()
    basis.col_status = [status.kBasic, status.kBasic]
    basis.row_status = [status.kUpper]
    basis.valid, basis.alien = True, False
    with pytest.raises(InternalError, match="refused the basis"):
        lp._run_highs(model, lp._OPTIONS, basis)


def test_constraints_hold_at_optimum():
    rng = np.random.default_rng(7)
    m = lp.LpModel()
    cols = m.add_vars(6, 0.0, 10.0)
    A = rng.uniform(-1, 1, (8, 6))
    b = rng.uniform(1, 5, 8)
    rows, terms = np.nonzero(A)
    m.add_rows(rows, cols[terms], A[rows, terms], lp.LE, b)
    m.set_objective("max", cols, rng.uniform(0, 1, 6))
    sol = lp.solve(m)
    assert sol.optimal
    assert (A @ sol.x[cols] <= b + 1e-6).all()


def test_scaled_terms_follow_scale():
    # max x  s.t.  x - scale * y <= 0,  y <= 2: the optimum is 2 * scale.
    m = lp.LpModel()
    m.add_vars(2, 0.0, [np.inf, 2.0])
    m.add_rows([0], [0], [1.0], lp.LE, [0.0], scaled=([0], [1], [-1.0]))
    m.set_objective("max", [0], [1.0])
    for scale in (0.5, 3.0, 1.25):
        m.scale = scale
        assert lp.solve(m).x[0] == pytest.approx(2.0 * scale, abs=1e-9)


@pytest.mark.parametrize("sense", ["max", "min"])
def test_slope_matches_finite_difference(sense):
    # max x + y + z  s.t.  scale * x + y <= 4,  y >= 1,  z - scale * x = 0:
    # the optimum is 4 + 3 / scale, one scaled term in each row block.
    sign = 1.0 if sense == "max" else -1.0
    m = lp.LpModel()
    x, y, z = m.add_vars(3, 0.0, None)
    m.add_rows([0], [y], [1.0], lp.LE, [4.0], scaled=([0], [x], [1.0]))
    m.add_rows([0], [y], [1.0], lp.GE, [1.0])
    m.add_rows([0], [z], [1.0], lp.EQ, [0.0], scaled=([0], [x], [-1.0]))
    m.set_objective(sense, [x, y, z], np.full(3, sign))

    def objective(scale):
        m.scale = scale
        return lp.solve(m)

    h = 1e-5
    sol = objective(0.5)
    fd = (objective(0.5 + h).objective_value
          - objective(0.5 - h).objective_value) / (2 * h)
    assert sol.objective_value == pytest.approx(sign * 10.0, abs=1e-9)
    assert sol.slope == pytest.approx(fd, rel=1e-6)
    assert sol.slope == pytest.approx(sign * -12.0, abs=1e-9)


@pytest.mark.parametrize("sense", ["max", "min"])
def test_row_duals_are_objective_slopes_in_row_order(sense):
    # x - y = 1, x + 2y >= 2, x + y <= 5, added in that order: the duals
    # list the rows in that order, each the slope in its own right-hand
    # side.  Max 3x + y binds the <= row, min x + 3y the >=.
    def solve_at(eq, ge, le):
        m = lp.LpModel()
        x, y = m.add_vars(2, 0.0, 10.0)
        m.add_rows([0, 0], [x, y], [1.0, -1.0], lp.EQ, [eq])
        m.add_rows([0, 0], [x, y], [1.0, 2.0], lp.GE, [ge])
        m.add_rows([0, 0], [x, y], [1.0, 1.0], lp.LE, [le])
        m.set_objective(sense, [x, y],
                        [3.0, 1.0] if sense == "max" else [1.0, 3.0])
        return lp.solve(m)

    base, h = np.array([1.0, 2.0, 5.0]), 1e-4
    sol = solve_at(*base)
    for row, dual in enumerate(sol.row_dual):
        step = np.zeros(3)
        step[row] = h
        fd = (solve_at(*base + step).objective_value
              - solve_at(*base - step).objective_value) / (2 * h)
        assert dual == pytest.approx(fd, abs=1e-7)
    assert sol.row_dual == pytest.approx([1.0, 0.0, 2.0] if sense == "max"
                                         else [-1 / 3, 4 / 3, 0.0])


def test_rows_reach_highs_as_ranges_in_the_order_added():
    # A >= block, a <= block and an == block, added in that order: HiGHS
    # gets the rows in that order, none negated, a >= row's right-hand
    # side as its lower bound, and each dual is the objective's slope in
    # its row's right-hand side.  Min x + 3y binds the >= and == rows.
    m = lp.LpModel()
    x, y = m.add_vars(2, 0.0, 10.0)
    m.add_rows([0, 0], [x, y], [1.0, 2.0], lp.GE, [2.0])
    m.add_rows([0, 0], [x, y], [1.0, 1.0], lp.LE, [5.0])
    m.add_rows([0, 0], [x, y], [1.0, -1.0], lp.EQ, [1.0])
    m.set_objective("min", [x, y], [1.0, 3.0])
    sol = lp.solve(m)
    asm = m._assembly()
    assert asm.matrix.indptr.tolist() == [0, 2, 4, 6]
    assert asm.matrix.data.tolist() == [1.0, 2.0, 1.0, 1.0, 1.0, -1.0]
    assert asm.bounds.tolist() == [[2.0, -np.inf, 1.0], [np.inf, 5.0, 1.0]]
    assert sol.x == pytest.approx([4 / 3, 1 / 3])
    assert sol.row_dual == pytest.approx([4 / 3, 0.0, -1 / 3])


def test_rows_added_after_a_solve_count():
    m = lp.LpModel()
    x = m.add_vars(1, 0.0, 5.0)[0]
    m.set_objective("max", [x], [1.0])
    assert lp.solve(m).x[x] == pytest.approx(5.0, abs=1e-9)
    m.add_rows([0], [x], [-1.0], lp.GE, [-3.0], scaled=([0], [x], [0.0]))
    assert lp.solve(m).x[x] == pytest.approx(3.0, abs=1e-9)
    y = m.add_vars(1, 0.0, 1.0)[0]
    m.add_rows([0, 0], [x, y], [1.0, 1.0], lp.EQ, [2.5])
    sol = lp.solve(m)
    assert sol.x[x] == pytest.approx(2.5, abs=1e-9)
    assert sol.x[y] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# couder.lp calls HiGHS directly; scipy's linprog, which calls the same
# HiGHS through its own wrapper, is the oracle for what it must compute.

def test_private_highs_api_used_is_present():
    # couder.lp drives scipy's private HiGHS binding; a scipy release that
    # moves one of these names fails here rather than inside a stage.
    solver = _highs._Highs()
    for name in ("passOptions", "passModel", "setBasis", "getBasis", "run",
                 "getModelStatus", "getSolution", "getInfo",
                 "modelStatusToString"):
        assert callable(getattr(solver, name)), name
    options = _highs.HighsOptions()
    for name in ("presolve", "simplex_strategy", "output_flag",
                 "log_to_console", "solver", "dual_feasibility_tolerance",
                 "primal_feasibility_tolerance", "run_crossover",
                 "simplex_dual_edge_weight_strategy",
                 "simplex_scale_strategy"):
        assert hasattr(options, name), name
    info = solver.getInfo()
    for name in ("simplex_iteration_count", "ipm_iteration_count",
                 "objective_function_value"):
        assert hasattr(info, name), name
    solution = solver.getSolution()
    assert hasattr(solution, "col_value") and hasattr(solution, "row_dual")
    for name in ("kOptimal", "kInfeasible", "kModelError", "kUnbounded",
                 "kUnboundedOrInfeasible"):
        assert hasattr(_highs.HighsModelStatus, name), name
    assert hasattr(_highs.HighsStatus, "kError")
    for name in ("kColwise", "kRowwise"):
        assert hasattr(_highs.MatrixFormat, name), name
    basis = _highs.HighsBasis()
    for name in ("col_status", "row_status", "valid", "alien"):
        assert hasattr(basis, name), name
    for name in ("kBasic", "kLower", "kUpper"):
        assert hasattr(_highs.HighsBasisStatus, name), name
    # The array passModel overload, the only way couder.lp hands HiGHS a
    # model: format and sense as ints, start, index and integrality as
    # int32.  hasattr cannot see an overload, so an LP goes in row-wise, as
    # lp.solve passes it, and column-wise, as couder.round does, and is
    # read back column-wise.
    for model in (rowwise_lp(), array_lp()):
        assert solver.passModel(*model) == _highs.HighsStatus.kOk
        held = solver.getLp()
        num_col = model[0]
        assert (held.num_col_, held.num_row_) == (num_col, 1)
        assert list(held.col_cost_) == [-1.0] * num_col
        assert list(held.col_lower_) == [0.0] * num_col
        assert list(held.col_upper_) == [1.0] * num_col
        assert (list(held.row_lower_), list(held.row_upper_)) == ([-np.inf],
                                                                  [0.5])
        assert list(held.integrality_) \
            == [_highs.HighsVarType.kContinuous] * num_col
        assert held.a_matrix_.format_ == _highs.MatrixFormat.kColwise
        assert list(held.a_matrix_.start_) == list(range(num_col + 1))
        assert list(held.a_matrix_.index_) == [0] * num_col
        assert list(held.a_matrix_.value_) == [2.0, 1.0][:num_col]
    # Stage 2's first probe runs IPM with crossover, which must end on a
    # basis that a warm dual simplex re-solve, Devex pricing or not, starts
    # from without an iteration.  Presolve off, so that IPM runs at all.
    ipm = lp._highs_options(solver="ipm", run_crossover="on", presolve="off")
    assert solver.passOptions(ipm) == _highs.HighsStatus.kOk
    assert solver.passModel(*rowwise_lp()) == _highs.HighsStatus.kOk
    assert solver.run() == _highs.HighsStatus.kOk
    assert solver.getInfo().ipm_iteration_count > 0
    basis, x = solver.getBasis(), list(solver.getSolution().col_value)
    assert basis.valid
    for options in (lp._OPTIONS, lp._FAMILY_OPTIONS["desensitize-late"]):
        assert solver.passOptions(options) == _highs.HighsStatus.kOk
        assert solver.passModel(*rowwise_lp()) == _highs.HighsStatus.kOk
        assert solver.setBasis(basis) == _highs.HighsStatus.kOk
        assert solver.run() == _highs.HighsStatus.kOk
        assert solver.getModelStatus() == _highs.HighsModelStatus.kOptimal
        assert solver.getInfo().simplex_iteration_count == 0
        assert list(solver.getSolution().col_value) == x


def array_lp(entry=2.0, lower=-np.inf, upper=0.5, col_lower=0.0,
             col_upper=1.0) -> list:
    """The arguments of the array ``passModel``, in the column-wise form
    couder.round passes them, for: minimize -x subject to lower <= entry
    * x <= upper and col_lower <= x <= col_upper."""
    i32 = np.int32
    return [1, 1, 1, lp._COLWISE, lp._MINIMIZE, 0.0, np.array([-1.0]),
            np.array([col_lower]), np.array([col_upper]), np.array([lower]),
            np.array([upper]), np.array([0, 1], dtype=i32),
            np.zeros(1, dtype=i32), np.array([entry]), np.zeros(1, dtype=i32)]


def rowwise_lp() -> list:
    """The arguments of the array ``passModel``, in the row-wise form
    ``lp.solve`` passes them, for: minimize -x0 - x1 subject to
    2 x0 + x1 <= 0.5 and 0 <= x <= 1."""
    i32 = np.int32
    return [2, 1, 2, lp._ROWWISE, lp._MINIMIZE, 0.0, np.array([-1.0, -1.0]),
            np.zeros(2), np.ones(2), np.array([-np.inf]), np.array([0.5]),
            np.array([0, 2], dtype=i32), np.array([0, 1], dtype=i32),
            np.array([2.0, 1.0]), np.zeros(2, dtype=i32)]


def test_array_model_with_a_short_array_is_refused():
    # The binding reads the arrays through bare pointers: _run_highs checks
    # every length against the sizes before HiGHS sees them, the starts
    # against the rows or the columns as the format says.
    for model, x in ((array_lp(), [0.25]), (rowwise_lp(), [0.0, 0.5])):
        res = lp._run_highs(tuple(model), lp._OPTIONS)
        assert res.x.tolist() == x
        for k in range(6, len(model)):
            short = list(model)
            short[k] = model[k][:-1]
            with pytest.raises(InternalError, match="sizes"):
                lp._run_highs(tuple(short), lp._OPTIONS)
        other_format = list(model)
        other_format[3] = lp._COLWISE + lp._ROWWISE - model[3]
        if model[0] != model[1]:
            with pytest.raises(InternalError, match="sizes"):
                lp._run_highs(tuple(other_format), lp._OPTIONS)


@pytest.mark.parametrize("entry, lower, upper, named", [
    (1e15, -np.inf, 0.5, "every constraint coefficient must be below 1e+15"),
    (2.0, 1e20, np.inf, "every right-hand side must be below 1e+20"),
    (2.0, -np.inf, -1e21, "every right-hand side must be below 1e+20"),
])
def test_refused_model_names_its_cause(entry, lower, upper, named):
    # HiGHS refuses a matrix entry of 1e15 or more, and _run_highs a finite
    # bound of 1e20 or more: the input error says which.
    with pytest.raises(InvalidInputError, match=re.escape(named)):
        lp._run_highs(tuple(array_lp(entry, lower, upper)), lp._OPTIONS)


def test_finite_bound_past_the_infinite_bound_is_refused():
    # HiGHS would take each of these as no bound, or refuse the model, and
    # solve x <= 1e21 / 2 to x = 1 without a word: every finite row or
    # column bound of 1e20 or more in magnitude is refused instead.
    named = "every right-hand side must be below 1e+20"
    for bounds in ({"upper": 1e21}, {"upper": 1e20}, {"lower": -1e21},
                   {"col_upper": 1e20}, {"col_lower": -1e21}):
        with pytest.raises(InvalidInputError, match=re.escape(named)):
            lp._run_highs(tuple(array_lp(**bounds)), lp._OPTIONS)
    res = lp._run_highs(tuple(array_lp(upper=1e19, col_upper=np.inf)),
                        lp._OPTIONS)
    assert res.status == "optimal" and res.x.tolist() == [5e18]


def random_lp(rng, num_ub: int, num_eq: int, n: int = 5):
    """Dense random LP data; many instances are infeasible or unbounded."""
    def block(m):
        return rng.uniform(-1, 1, (m, n)) * (rng.random((m, n)) < 0.6)
    lb = np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-1, 0, n))
    ub = np.where(rng.random(n) < 0.4, np.inf, rng.uniform(1, 4, n))
    return (rng.normal(size=n), block(num_ub), rng.uniform(-1, 3, num_ub),
            block(num_eq), rng.uniform(-1, 1, num_eq), lb, ub)


def model_of(c, A_ub, b_ub, A_eq, b_eq, lb, ub) -> lp.LpModel:
    m = lp.LpModel()
    cols = m.add_vars(len(c), lb, ub)
    for A, b, rel in ((A_ub, b_ub, lp.LE), (A_eq, b_eq, lp.EQ)):
        rows, terms = np.nonzero(A)
        m.add_rows(rows, cols[terms], A[rows, terms], rel, b)
    m.set_objective("min", cols, c)
    return m


def test_solve_matches_linprog():
    # Models with no rows, only inequalities, only equalities and both.
    statuses = set()
    for shape in [(0, 0), (4, 0), (0, 2), (6, 2), (3, 3)]:
        rng = np.random.default_rng(sum(shape))
        for _ in range(30):
            data = random_lp(rng, *shape)
            c, A_ub, b_ub, A_eq, b_eq, lb, ub = data
            ref = linprog(c, A_ub=A_ub if len(b_ub) else None,
                          b_ub=b_ub if len(b_ub) else None,
                          A_eq=A_eq if len(b_eq) else None,
                          b_eq=b_eq if len(b_eq) else None,
                          bounds=list(zip(lb, ub)), method="highs")
            sol = lp.solve(model_of(*data))
            assert sol.status == {0: "optimal", 2: "infeasible",
                                  3: "unbounded"}[ref.status]
            if sol.optimal:
                assert sol.objective_value == pytest.approx(
                    ref.fun, rel=1e-9, abs=1e-9)
            statuses.add((shape == (0, 0), sol.status))
    assert statuses >= {(True, "optimal"), (True, "unbounded"),
                        (False, "optimal"), (False, "unbounded"),
                        (False, "infeasible")}


class FakeSolver:
    """Stands in for HiGHS and ends every solve with one model status, on
    the vertex ``x`` with the objective value ``objective``."""

    def __init__(self, status, x=(0.0,), objective=0.0):
        self.status, self.x, self.objective = status, list(x), objective

    def passOptions(self, options):
        pass

    def passModel(self, *model):
        return _highs.HighsStatus.kOk

    def run(self):
        return _highs.HighsStatus.kOk

    def getModelStatus(self):
        return self.status

    def modelStatusToString(self, status):
        return str(status)

    def getInfo(self):
        return SimpleNamespace(simplex_iteration_count=3,
                               ipm_iteration_count=0,
                               objective_function_value=self.objective)

    def getSolution(self):
        return SimpleNamespace(col_value=self.x, row_dual=[0.0] * 3)

    def getBasis(self):
        return None


@pytest.mark.parametrize("status",
                         list(_highs.HighsModelStatus.__members__.values()))
def test_model_status_maps_as_linprog_did(monkeypatch, status):
    code, _ = _highs_to_scipy_status_message(status, "")
    model = colwise_highs_lp(np.zeros(1), np.zeros((0, 1)), np.zeros(0),
                             np.zeros(0), np.zeros(1), np.ones(1))
    monkeypatch.setattr(lp, "_solver", FakeSolver(status))
    if code in (1, 4):
        with pytest.raises(SolverLimitError):
            lp._run_highs(model, lp._OPTIONS)
    else:
        res = lp._run_highs(model, lp._OPTIONS)
        assert res.status == {0: "optimal", 2: "infeasible",
                              3: "unbounded"}[code]


# ``vertex_model``: x0 <= 0.5, x1 == 0.5, x2 >= 0.5 and 0 <= x <= 1, all
# met at VERTEX.
VERTEX = np.array([0.5, 0.5, 1.0])


def vertex_model() -> lp.LpModel:
    m = lp.LpModel()
    x = m.add_vars(3, 0.0, 1.0)
    for k, relation in enumerate((lp.LE, lp.EQ, lp.GE)):
        m.add_rows([0], [x[k]], [1.0], relation, [0.5])
    m.set_objective("min", x, [1.0, 1.0, 1.0])
    return m


@pytest.mark.parametrize("miss, objective", [
    ((1e-3, 0.0, 0.0), 0.0),  # the <= row
    ((0.0, -1e-3, 0.0), 0.0),  # the == row, from below
    ((0.0, 0.0, 1e-3), 0.0),  # x2's upper bound
    ((0.0, 0.0, -0.501), 0.0),  # the >= row
    ((0.0, 0.0, 0.0), math.inf),
    ((0.0, 0.0, 0.0), math.nan),
])
def test_vertex_outside_the_feasible_set_is_refused(monkeypatch, miss,
                                                    objective):
    # HiGHS reports optimal on a vertex that misses a row or a bound by
    # 1e-3, or with an objective that is not finite: the solve refuses it.
    monkeypatch.setattr(lp, "_solver", FakeSolver(
        _highs.HighsModelStatus.kOptimal, VERTEX + miss, objective))
    with pytest.raises(SolverLimitError, match="outside the feasible set"):
        lp.solve(vertex_model())


def test_vertex_within_the_residual_is_kept(monkeypatch):
    # A miss of 1e-5 is within the residual sqrt(1e-9) * 10 scipy's
    # linprog allowed, on each row and bound.
    x = VERTEX + [1e-5, -1e-5, 1e-5]
    monkeypatch.setattr(lp, "_solver", FakeSolver(
        _highs.HighsModelStatus.kOptimal, x, 2.0))
    sol = lp.solve(vertex_model())
    assert sol.optimal and sol.x.tolist() == x.tolist()
    assert sol.objective_value == 2.0


# ---------------------------------------------------------------------------
# Every solve runs on the one HiGHS object lp._solver; passModel resets it.

def plan_highs_calls(monkeypatch, n: int) -> list:
    """The arguments of each HiGHS call of a plan on a random n-pod fabric:
    the three stages with free link counts, then with the link counts
    fixed at its greedy rounding.  On these fabrics stage 2 re-solves its
    model warm at least once."""
    from couder.optimize import recompute_routing, run_pipeline
    from couder.round import ldm_round
    from helpers import random_criticals, random_fabric
    rng = np.random.default_rng(40 + n)
    phys = random_fabric(rng, n, 2, qmin=2, qmax=5)
    crit = random_criticals(rng, n, 3)
    calls, run = [], lp._run_highs

    def record(model, *args):
        # A later solve of the same LpModel writes into the arrays sent.
        calls.append((tuple(part.copy() if isinstance(part, np.ndarray)
                            else part for part in model), *args))
        return run(model, *args)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_run_highs", record)
        frac = run_pipeline(phys, crit)
        recompute_routing(phys, ldm_round(phys, frac.d, 0).topo, crit)
    return calls


def solved(res: lp.LpSolution) -> tuple:
    return (res.status, res.x.tobytes(), res.row_dual.tobytes(),
            res.objective_value, res.nit)


@pytest.mark.parametrize("n", range(3, 6))
def test_solve_returns_the_highs_record_in_the_model_sense(monkeypatch, n):
    # The stage LPs of a plan, free and fixed link counts, max and min:
    # lp.solve hands back HiGHS's own record, with a max model's
    # objective and duals negated, and its iterations and basis as they
    # are.
    from couder.optimize import recompute_routing, run_pipeline
    from couder.round import ldm_round
    from helpers import random_criticals, random_fabric
    rng = np.random.default_rng(40 + n)
    phys = random_fabric(rng, n, 2, qmin=2, qmax=5)
    crit = random_criticals(rng, n, 3)
    raw, solved = [], []
    run, solve = lp._run_highs, lp.solve

    def recording_run(*args):
        res = run(*args)
        raw.append((res.status, res.x.copy(), res.objective_value,
                    res.row_dual.copy(), res.nit, res.basis))
        return res

    def recording_solve(model):
        solved.append((model._sense, solve(model)))
        return solved[-1][1]

    monkeypatch.setattr(lp, "_run_highs", recording_run)
    monkeypatch.setattr(lp, "solve", recording_solve)
    frac = run_pipeline(phys, crit)
    recompute_routing(phys, ldm_round(phys, frac.d, 0).topo, crit)
    assert len(raw) == len(solved)
    assert {sense for sense, _ in solved} == {"max", "min"}
    for (status, x, objective, duals, nit, basis), (sense, res) in zip(
            raw, solved):
        sign = -1.0 if sense == "max" else 1.0
        assert res.status == status == "optimal"
        assert res.x.tobytes() == x.tobytes()
        assert res.objective_value == sign * objective
        assert res.row_dual.tobytes() == (sign * duals).tobytes()
        assert res.nit == nit and res.basis is basis


@pytest.mark.parametrize("n", range(3, 7))
def test_shared_solver_ends_where_a_fresh_one_does(monkeypatch, n):
    # Each stage LP solved on the shared object, right after another
    # model, after a model HiGHS refused and after a warm stage-2
    # re-solve, gives the bits a fresh HiGHS object gives.
    calls = plan_highs_calls(monkeypatch, n)
    families = {call[1] for call in calls}
    assert {lp._OPTIONS, lp._FAMILY_OPTIONS["fixed-throughput"]} <= families
    warm = next(call for call in calls if call[2] is not None)
    refused = colwise_highs_lp(np.zeros(1), np.array([[1e15]]), [-np.inf],
                               np.ones(1), np.zeros(1), np.ones(1))

    def refuse():
        with pytest.raises(InvalidInputError):
            lp._run_highs(refused, lp._OPTIONS)

    for k, call in enumerate(calls):
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_solver", _highs._Highs())
            want = solved(lp._run_highs(*call))
        for before in (lambda: lp._run_highs(*calls[k - 1]), refuse,
                       lambda: lp._run_highs(*warm)):
            before()
            assert solved(lp._run_highs(*call)) == want


class CountingSolver:
    """The real HiGHS object, counting the options passed and the runs."""

    def __init__(self, solver):
        self.solver, self.passed, self.runs = solver, [], 0

    def passOptions(self, options):
        self.passed.append(options)
        return self.solver.passOptions(options)

    def run(self):
        self.runs += 1
        return self.solver.run()

    def __getattr__(self, name):
        return getattr(self.solver, name)


def test_options_are_passed_when_they_or_the_solver_change(monkeypatch):
    # HiGHS keeps its options from model to model: the subproblems of an
    # ldm_round all run on one passOptions, a change of family passes
    # options again, and so does the real solver once a stand-in is gone.
    from couder.round import ldm_round
    from helpers import make_fabric, random_fractional
    counting = CountingSolver(lp._solver)
    monkeypatch.setattr(lp, "_solver", counting)
    phys = make_fabric(4, 2, 2)
    ldm_round(phys, random_fractional(np.random.default_rng(5), phys),
              tau_max=3)
    ldm = lp._FAMILY_OPTIONS["ldm-subproblem"]
    visits = counting.runs
    assert visits > 1 and counting.passed == [ldm]
    assert lp.solve(pattern_model()[0]).optimal
    assert counting.passed == [ldm, lp._OPTIONS]
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_solver",
                      FakeSolver(_highs.HighsModelStatus.kOptimal))
        lp._run_highs(tuple(array_lp()), lp._OPTIONS)
    res = lp._run_highs(tuple(array_lp()), lp._OPTIONS)
    assert counting.passed == [ldm, lp._OPTIONS, lp._OPTIONS]
    assert counting.runs == visits + 2 and res.x.tolist() == [0.25]


def warm_flags(calls: list) -> list:
    """Whether each call ``record_highs`` recorded started from a basis."""
    return [basis is not None for basis, _ in calls]


@pytest.mark.parametrize("seed", range(3))
def test_rescaled_model_resolves_warm(monkeypatch, seed):
    # Stage 2's model re-solved after a change of scale: the same optimum
    # as the model built afresh and solved cold, in no more iterations.
    # Its family runs dual simplex cold too, so the counts compare.
    from couder.optimize import _StageBuilder, _throughput_model
    from helpers import random_criticals, random_fabric
    rng = np.random.default_rng(seed)
    phys = random_fabric(rng, 5, 2, qmin=2, qmax=5)
    builder = _StageBuilder(phys, random_criticals(rng, 5, 3))

    def stage2(scale):
        model = _throughput_model(builder, "stage-2")
        builder.add_sensitivity_constraints(model)
        model.scale = scale
        return model

    calls = record_highs(monkeypatch)
    model = stage2(0.05)
    lp.solve(model)
    for scale in (0.06, 0.08, 0.12):
        model.scale = scale
        warm = lp.solve(model)
        cold = lp.solve(stage2(scale))
        assert warm.objective_value == pytest.approx(cold.objective_value,
                                                     abs=1e-9)
    assert warm_flags(calls) == [False] + [True, False] * 3
    for (_, warm_res), (_, cold_res) in zip(calls[1::2], calls[2::2]):
        assert warm_res.nit <= cold_res.nit


STATUS = lp._highs.HighsBasisStatus


def test_edits_carry_the_basis_over(monkeypatch):
    # No edit reads or writes the kept basis: the next solve starts from
    # the very basis the last one left, padded for what was added since.
    # A new column enters nonbasic at a finite bound, a new row basic
    # after the rows before it; an objective, a column bound, a
    # right-hand side or a scale leaves every status as it was.  Every
    # solve ends where a cold solve of the model does.
    calls = record_highs(monkeypatch)
    m = lp.LpModel()
    x, y = m.add_vars(2, 0.0, [np.inf, 2.0])
    m.add_rows([0, 0], [x, y], [1.0, -1.0], lp.EQ, [0.0])
    le = m.add_rows([0], [x], [1.0], lp.LE, [0.0], scaled=([0], [y], [-1.0]))
    m.set_objective("max", [x], [1.0])
    lp.solve(m)
    m.scale = 2.0
    last = lp.solve(m)
    assert calls[-1][0] is calls[0][1].basis
    edits = [
        (lambda: m.add_rows([0], [x], [1.0], lp.LE, [3.0]),
         lambda col, row: (col, row + [STATUS.kBasic])),
        (lambda: m.add_vars(3, [0.0, -np.inf, -np.inf], [1.0, 5.0, np.inf]),
         lambda col, row: (col + [STATUS.kLower, STATUS.kUpper,
                                  STATUS.kZero], row)),
        (lambda: (m.add_vars(1, -1.0, 1.0),
                  m.add_rows([0, 1], [x, 5], [1.0, 1.0], lp.LE, [4.0, 1.0])),
         lambda col, row: (col + [STATUS.kLower], row + [STATUS.kBasic] * 2)),
        (lambda: m.set_objective("min", [x, 2], [1.0, -1.0]), None),
        (lambda: m.set_bounds([2, 3], [-np.inf, -4.0], [0.5, 5.0]), None),
        (lambda: m.set_rhs(le, [1.0]), None),
        (lambda: setattr(m, "scale", 1.5), None),
    ]
    for edit, extend in edits:
        kept = (m._basis, m._basis_size)
        edit()
        assert m._basis is kept[0] and m._basis_size == kept[1]
        last = lp.solve(m)
        basis = calls[-1][0]
        if extend is None:
            assert basis is kept[0]
        else:
            assert (basis.col_status, basis.row_status) \
                == extend(kept[0].col_status, kept[0].row_status)
        cold = lp.LpModel()
        cold.__dict__.update(m.__dict__, _assembled=None, _basis=None)
        assert last.optimal and last.objective_value == pytest.approx(
            lp.solve(cold).objective_value, abs=1e-9)
    assert warm_flags(calls) == [False, True] + [True, False] * len(edits)


def test_edits_leave_a_solutions_basis_alone():
    # The kept basis is replaced, not changed: a solution's stays as it
    # was returned.
    m = lp.LpModel()
    x = m.add_vars(1, 0.0, 1.0)
    m.set_objective("max", x, [1.0])
    res = lp.solve(m)
    status = (list(res.basis.col_status), list(res.basis.row_status))
    m.add_rows([0], x, [1.0], lp.LE, [0.5])
    m.add_vars(1, 0.0, 1.0)
    m.set_bounds(x, 0.0, 2.0)
    assert (res.basis.col_status, res.basis.row_status) == status


def test_set_basis_starts_the_next_solve_there(monkeypatch):
    calls = record_highs(monkeypatch)
    m = lp.LpModel()
    x, y = m.add_vars(2, 0.0, [np.inf, 2.0])
    m.add_rows([0], [x], [1.0], lp.LE, [0.0], scaled=([0], [y], [-1.0]))
    m.set_objective("max", [x], [1.0])
    first = lp.solve(m)
    m.scale = 0.5
    lp.solve(m)
    m.set_basis(first.basis)
    lp.solve(m)
    assert calls[-1][0] is first.basis


@pytest.mark.parametrize("cols, lb, ub, match", [
    ([2], 0.0, 1.0, "out of range"), ([0.0], 0.0, 1.0, "dtype"),
    ([0], 1.0, 0.0, "lb > ub")])
def test_set_bounds_rejected(cols, lb, ub, match):
    m = lp.LpModel()
    m.add_vars(2, 0.0, 1.0)
    with pytest.raises(InvalidInputError, match=match):
        m.set_bounds(cols, lb, ub)


def test_infeasible_resolve_keeps_no_basis(monkeypatch):
    # x >= 1 and x <= scale: infeasible below scale 1, so the solve after
    # it starts cold again.
    calls = record_highs(monkeypatch)
    m = lp.LpModel()
    x, y = m.add_vars(2, 1.0, [np.inf, 1.0])
    m.add_rows([0], [x], [1.0], lp.LE, [0.0], scaled=([0], [y], [-1.0]))
    m.set_objective("max", [x], [1.0])
    for scale, status in ((2.0, "optimal"), (0.5, "infeasible"),
                          (3.0, "optimal")):
        m.scale = scale
        assert lp.solve(m).status == status
    assert warm_flags(calls) == [False, True, False]


def mixed_model(rhs) -> tuple:
    """A model with a <= block, a >= block, an == block and another >=
    block, their right-hand sides in turn from ``rhs``; returns it with
    the block indices ``add_rows`` gave."""
    m = lp.LpModel()
    x = m.add_vars(3, 0.0, 5.0)
    blocks = (m.add_rows([0, 0, 1], [0, 1, 2], [1.0, 1.0, 1.0], lp.LE, rhs[0]),
              m.add_rows([0, 1], [0, 1], [1.0, 2.0], lp.GE, rhs[1]),
              m.add_rows([0, 0], [1, 2], [1.0, -1.0], lp.EQ, rhs[2]),
              m.add_rows([0], [2], [1.0], lp.GE, rhs[3]))
    m.set_objective("max", x, [1.0, 2.0, 3.0])
    return m, blocks


MIXED_RHS = ([4.0, 3.0], [1.0, 2.0], [0.0], [0.5])
NEW_RHS = ([6.0, 2.5], [0.5, 1.0], [1.0], [1.5])


def test_add_rows_returns_the_block_index():
    assert mixed_model(MIXED_RHS)[1] == (0, 1, 2, 3)


@pytest.mark.parametrize("block, rhs", [(0, [1.0]), (1, [1.0, 2.0, 3.0]),
                                        (2, []), (4, [1.0]), (-1, [1.0])])
def test_set_rhs_of_another_length_or_block_rejected(block, rhs):
    m, _ = mixed_model(MIXED_RHS)
    with pytest.raises(InvalidInputError):
        m.set_rhs(block, rhs)


def test_set_rhs_patches_the_assembled_rows_in_place():
    m, blocks = mixed_model(MIXED_RHS)
    lp.solve(m)
    assembled = m._assembly()
    for block, rhs in zip(blocks, NEW_RHS):
        m.set_rhs(block, rhs)
    # The same assembly, patched in the order added: a <= row's upper
    # bound, a >= row's lower one and both of an equality row.
    inf = np.inf
    assert m._assembly() is assembled
    assert assembled.bounds.tolist() == [[-inf, -inf, 0.5, 1.0, 1.0, 1.5],
                                         [6.0, 2.5, inf, inf, 1.0, inf]]
    assert_same_model(m, mixed_model(NEW_RHS)[0])


@pytest.mark.parametrize("solved_first", [False, True])
def test_set_rhs_gives_what_a_fresh_build_gives(monkeypatch, solved_first):
    # HiGHS holds the model a fresh build hands it, and the solve after
    # set_rhs, cold since set_basis(None) drops the basis a solve left,
    # gives the same vertex, objective and duals to the bit.
    m, blocks = mixed_model(MIXED_RHS)
    if solved_first:
        lp.solve(m)
    pairs = record_highs_models(monkeypatch)
    calls = record_highs(monkeypatch)
    for block, rhs in zip(blocks, NEW_RHS):
        m.set_rhs(block, rhs)
    m.set_basis(None)
    got = lp.solve(m)
    want = lp.solve(mixed_model(NEW_RHS)[0])
    assert warm_flags(calls) == [False, False]
    assert pairs[0][0] == pairs[1][0] == pairs[0][1]
    assert got.optimal and solved(got) == solved(want)


@pytest.mark.parametrize("where", ["objective", "row", "rhs", "scaled",
                                   "scaled-term"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_entry_is_internal_error(where, value):
    # Forming fixed + scale * scaled raises no RuntimeWarning on the way,
    # not even for an infinite scaled term at scale 0.
    m = lp.LpModel()
    x, y = m.add_vars(2, 0.0, 1.0)
    m.set_objective("max", [x], [value if where == "objective" else 1.0])
    m.add_rows([0, 0], [x, y], [value if where == "row" else 1.0, 1.0],
               lp.LE, [value if where == "rhs" else 1.0],
               scaled=([0], [y], [value if where == "scaled-term" else 1.0]))
    m.scale = {"scaled": value, "scaled-term": 0.0}.get(where, 1.0)
    with pytest.raises(InternalError):
        lp.solve(m)


@pytest.mark.parametrize("bound", ["col_lower", "col_upper", "lower"])
def test_nan_bound_is_internal_error(bound):
    # A NaN bound is refused even where the other bound of its row or
    # column is finite.
    with pytest.raises(InternalError, match="not finite"):
        lp._run_highs(tuple(array_lp(**{bound: np.nan})), lp._OPTIONS)


@pytest.mark.parametrize("seed", range(6))
def test_csr_product_is_the_bits_scipy_gives(seed):
    # The stage-2 slope y @ (scaled @ x) must not move by a bit.
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(0, 40)), int(rng.integers(1, 40))
    dense = (rng.normal(size=(rows, cols))
             * 10.0 ** rng.integers(-8, 9, size=(rows, cols))
             * (rng.random((rows, cols)) < 0.5))
    ref = sp.csr_array(dense)
    a = lp._Csr(ref.data, ref.indices, ref.indptr, ref.shape)
    x = rng.normal(size=cols) * 10.0 ** rng.integers(-8, 9, size=cols)
    assert a.nnz == ref.nnz
    assert (a @ x).tobytes() == (ref @ x).tobytes()


# ---------------------------------------------------------------------------
# couder.lp loads the HiGHS binding without running scipy's package inits.

SRC = str(Path(lp.__file__).resolve().parents[1])


def run_python(code: str, *path: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter with ``path``, then couder's
    source directory, first on its module search path."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   *path, SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_only_the_highs_binding_of_scipy():
    out = run_python(
        "import sys, couder, couder.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " and not (m + '.').startswith(couder.lp._HIGHS_MODULE + '.')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("first", ["couder.lp", "scipy.optimize"])
def test_one_highs_module_in_either_import_order(first):
    # A pybind11 module loads once: scipy.optimize, imported before or
    # after couder, must find couder's binding and solve with it.
    second = {"couder.lp": "scipy.optimize",
              "scipy.optimize": "couder.lp"}[first]
    out = run_python(f"""
import {first}
import {second}
import sys
from couder import lp
import scipy.optimize
assert lp._highs is sys.modules["scipy.optimize._highspy._core"]
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                             method="highs")
assert res.status == 0 and res.fun == 1.0, res
m = lp.LpModel()
x = m.add_vars(2, 0.0, 1.0)
m.add_rows([0, 0], x, [1.0, 1.0], lp.GE, [1.0])
m.set_objective("min", x, [1.0, 2.0])
assert lp.solve(m).objective_value == 1.0
""")
    assert out.returncode == 0, out.stderr


def test_missing_binding_is_one_import_error_naming_the_version(tmp_path):
    # A scipy without the binding; its package inits must not run.
    for package in ("scipy", "scipy/optimize"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "__init__.py").write_text(
            f"raise RuntimeError('{package} ran')\n")
    out = run_python("import couder.lp", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr.strip().splitlines()[-1] == (
        "ImportError: HiGHS binding scipy.optimize._highspy._core not found"
        f" (scipy {importlib.metadata.version('scipy')}); couder needs"
        " scipy>=1.15")
