from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _highs
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from couder import lp
from couder.errors import InternalError, InvalidInputError, SolverLimitError
from helpers import (assert_same_model, colwise_highs_lp, held_lp,
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
    assert m.num_constraints == 0
    # An empty list reads as float but holds no index; any int dtype is fine.
    m.add_rows([], [], [], lp.LE, [])
    m.add_rows(np.array([0]), np.array([1], dtype=np.uint8), [1.0], lp.LE,
               [1.0])
    assert m.num_constraints == 1


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
    assert m.num_variables == 1 and m._lb == [0.0]


def test_block_of_rows_is_the_rows_added_one_by_one():
    # Zero terms dropped, >= rows negated, blocks stacked in insertion
    # order per relation: what one add_rows call per row gives.
    one, block = lp.LpModel(), lp.LpModel()
    for m in (one, block):
        assert list(m.add_vars(3, [0.0, -1.0, -np.inf], 2.0)) == [0, 1, 2]
        m.set_objective("max", [0], [1.0])
    one.add_rows([0, 0], [0, 1], [1.0, 0.0], lp.LE, [1.0],
                 scaled=([0], [2], [2.0]))
    one.add_rows([0, 0], [1, 2], [3.0, -1.0], lp.GE, [-2.0])
    one.add_rows([0, 0], [0, 2], [1.0, 1.0], lp.EQ, [1.5])
    one.add_rows([0], [2], [4.0], lp.LE, [0.5])
    block.add_rows([0, 0, 1, 1], [0, 1, 1, 2], [1.0, 0.0, -3.0, 1.0], lp.LE,
                   [1.0, 2.0], scaled=([0], [2], [2.0]))
    block.add_rows([0, 0], [0, 2], [1.0, 1.0], lp.EQ, [1.5])
    block.add_rows([0], [2], [4.0], lp.LE, [0.5])
    assert block.num_constraints == one.num_constraints == 4
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
    assert m.num_constraints == 0


def test_highs_holds_the_reference_model(monkeypatch):
    # Blocks whose sums and zeros the pattern must get right: a duplicate
    # (row, column) triplet, summed; an explicit 0, dropped; a scaled term
    # that cancels a fixed one at scale 2; a >= block and an equality
    # block.  HiGHS must hold the model built column-wise from separate
    # sparse matrices per part, at every scale.
    m = lp.LpModel()
    x = m.add_vars(4, [0.0, -1.0, 0.0, 0.0], [3.0, 2.0, np.inf, 5.0])
    m.add_rows([0, 0, 0, 1, 1], [x[0], x[1], x[0], x[2], x[3]],
               [0.1, 0.0, 0.2, 1.0, -1.5], lp.LE, [4.0, 2.0],
               scaled=([0, 1, 1], [x[3], x[2], x[1]], [1.0, -0.5, 0.3]))
    m.add_rows([0, 0, 1], [x[1], x[2], x[2]], [1.0, 0.0, 2.0], lp.GE,
               [-1.0, 0.5])
    m.add_rows([0, 0, 0, 0], [x[0], x[3], x[3], x[1]], [1.0, 0.7, 0.6, 0.0],
               lp.EQ, [1.5], scaled=([0, 0], [x[3], x[3]], [0.1, 0.2]))
    m.set_objective("max", x[[0, 2, 0]], [1.0, -1.0, 0.5])
    pairs = record_highs_models(monkeypatch)
    for scale in (1.0, 2.0, 0.0, -3.5):
        m.scale = scale
        assert lp.solve(m).optimal
    assert len(pairs) == 4
    for sent, ref in pairs:
        assert held_lp(sent) == held_lp(ref)
    # At scale 2 the scaled term cancels row 1's fixed one on x[2].
    values = [held_lp(sent)[-1] for sent, _ in pairs]
    assert len(values[0]) - len(values[1]) == 8  # one float64 entry


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
    assert (A @ sol.x[cols] <= b + lp.FEAS_TOL).all()


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
    model = _highs.HighsLp()
    for name in ("num_col_", "num_row_", "col_cost_", "col_lower_",
                 "col_upper_", "row_lower_", "row_upper_", "a_matrix_"):
        assert hasattr(model, name), name
    for name in ("format_", "num_col_", "num_row_", "start_", "index_",
                 "value_"):
        assert hasattr(model.a_matrix_, name), name
    options = _highs.HighsOptions()
    for name in ("presolve", "simplex_strategy", "output_flag",
                 "log_to_console", "solver", "dual_feasibility_tolerance",
                 "primal_feasibility_tolerance"):
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
    """Stands in for HiGHS and ends every solve with one model status."""

    def __init__(self, status):
        self.status = status

    def passOptions(self, options):
        pass

    def passModel(self, model):
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
                               objective_function_value=0.0)

    def getSolution(self):
        return SimpleNamespace(col_value=[0.0], row_dual=[])

    def getBasis(self):
        return None


@pytest.mark.parametrize("status",
                         list(_highs.HighsModelStatus.__members__.values()))
def test_model_status_maps_as_linprog_did(status):
    code, _ = _highs_to_scipy_status_message(status, "")
    model = colwise_highs_lp(np.zeros(1), np.zeros((0, 1)), np.zeros(0), 0,
                             np.zeros(1), np.ones(1))
    solver = FakeSolver(status)
    if code in (1, 4):
        with pytest.raises(SolverLimitError):
            lp._run_highs(model, lp._OPTIONS, solver=solver)
    else:
        res = lp._run_highs(model, lp._OPTIONS, solver=solver)
        assert res.status == {0: "optimal", 2: "infeasible",
                              3: "unbounded"}[code]


def record_highs(monkeypatch) -> list:
    """(warm, simplex iterations) of each HiGHS call ``lp.solve`` makes."""
    calls = []
    real = lp.linprog

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((kwargs.get("basis") is not None, res.nit))
        return res

    monkeypatch.setattr(lp, "linprog", recording)
    return calls


@pytest.mark.parametrize("seed", range(3))
def test_rescaled_model_resolves_warm(monkeypatch, seed):
    # Stage 2's model re-solved after a change of scale: the same optimum
    # as the model built afresh and solved cold, in no more iterations.
    from couder.optimize import _StageBuilder, _throughput_model
    from helpers import random_criticals, random_fabric
    rng = np.random.default_rng(seed)
    phys = random_fabric(rng, 5, 2, qmin=2, qmax=5)
    builder = _StageBuilder(phys, random_criticals(rng, 5, 3))

    def stage2(scale):
        model = _throughput_model(builder, "desensitize")
        builder.add_sensitivity_constraints(model, scale)
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
    assert [w for w, _ in calls] == [False] + [True, False] * 3
    for (_, warm_nit), (_, cold_nit) in zip(calls[1::2], calls[2::2]):
        assert warm_nit <= cold_nit


def test_new_row_or_objective_drops_the_basis(monkeypatch):
    calls = record_highs(monkeypatch)
    m = lp.LpModel()
    x, y = m.add_vars(2, 0.0, [np.inf, 2.0])
    m.add_rows([0], [x], [1.0], lp.LE, [0.0], scaled=([0], [y], [-1.0]))
    m.set_objective("max", [x], [1.0])
    lp.solve(m)
    m.scale = 2.0
    assert lp.solve(m).x[x] == pytest.approx(4.0, abs=1e-9)
    m.add_rows([0], [x], [1.0], lp.LE, [3.0])
    assert lp.solve(m).x[x] == pytest.approx(3.0, abs=1e-9)
    m.set_objective("min", [x], [1.0])
    assert lp.solve(m).x[x] == pytest.approx(0.0, abs=1e-9)
    m.add_vars(1, 0.0, 1.0)
    lp.solve(m)
    assert [warm for warm, _ in calls] == [False, True, False, False, False]


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
    assert [warm for warm, _ in calls] == [False, True, False]


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
