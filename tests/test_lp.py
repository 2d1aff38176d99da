import numpy as np
import pytest

from couder import lp
from couder.errors import InvalidInputError


def test_simple_bounded_max():
    m = lp.LpModel()
    m.add_var("x", 0.0, 3.0)
    m.set_objective("max", {"x": 1.0})
    sol = lp.solve(m)
    assert sol.optimal
    assert sol["x"] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_infeasible_pair():
    m = lp.LpModel()
    m.add_var("x", 0.0, None)
    m.add_constraint({"x": 1.0}, lp.GE, 1.0)
    m.add_constraint({"x": 1.0}, lp.LE, 0.0)
    assert lp.solve(m).status == "infeasible"


def test_degenerate_optimum_objective_unique():
    m = lp.LpModel()
    m.add_var("x", 0.0, 3.0)
    m.add_var("y", 0.0, 3.0)
    m.add_constraint({"x": 1.0, "y": 1.0}, lp.LE, 4.0)
    m.set_objective("max", {"x": 1.0, "y": 1.0})
    sol = lp.solve(m)
    assert sol.objective_value == pytest.approx(4.0, abs=1e-9)
    assert sol["x"] + sol["y"] == pytest.approx(4.0, abs=1e-9)


def test_unbounded():
    m = lp.LpModel()
    m.add_var("x", 0.0, None)
    m.set_objective("max", {"x": 1.0})
    assert lp.solve(m).status == "unbounded"


def test_feasibility_empty_constraints():
    m = lp.LpModel()
    m.add_var("x", 0.0, 5.0)
    sol = lp.solve(m)
    assert sol.optimal


def test_feasibility_contradiction():
    m = lp.LpModel()
    m.add_var("x", None, None)
    m.add_constraint({"x": 1.0}, lp.EQ, 1.0)
    m.add_constraint({"x": 1.0}, lp.EQ, 2.0)
    assert lp.solve(m).status == "infeasible"


def test_feasibility_simplex_witness():
    m = lp.LpModel()
    for k in range(3):
        m.add_var(f"l{k}", 0.0, None)
    m.add_constraint({f"l{k}": 1.0 for k in range(3)}, lp.LE, 1.0)
    m.add_constraint({"l0": 2.0}, lp.EQ, 1.0)
    sol = lp.solve(m)
    assert sol.optimal
    assert sol["l0"] == pytest.approx(0.5, abs=1e-9)


def test_weak_duality_spot_check():
    # max 3x + 2y  s.t. x + y <= 4, x <= 3  (x, y >= 0)
    m = lp.LpModel()
    m.add_var("x", 0.0, None)
    m.add_var("y", 0.0, None)
    m.add_constraint({"x": 1.0, "y": 1.0}, lp.LE, 4.0)
    m.add_constraint({"x": 1.0}, lp.LE, 3.0)
    m.set_objective("max", {"x": 3.0, "y": 2.0})
    sol = lp.solve(m)
    # Any dual-feasible y gives an upper bound: take y = (2, 1).
    dual_bound = 2.0 * 4.0 + 1.0 * 3.0
    assert sol.objective_value <= dual_bound + 1e-9
    assert sol.objective_value == pytest.approx(11.0, abs=1e-8)


def test_row_scaling_leaves_solution_unchanged():
    def build(scale):
        m = lp.LpModel()
        m.add_var("x", 0.0, None)
        m.add_var("y", 0.0, None)
        m.add_constraint({"x": scale * 2.0, "y": scale * 1.0}, lp.LE,
                         scale * 10.0)
        m.add_constraint({"x": scale * 1.0, "y": scale * 3.0}, lp.LE,
                         scale * 15.0)
        m.set_objective("max", {"x": 1.0, "y": 1.0})
        return lp.solve(m)

    a, b = build(1.0), build(7.5)
    assert a.status == b.status == "optimal"
    assert a.objective_value == pytest.approx(b.objective_value, rel=1e-9)
    assert a["x"] == pytest.approx(b["x"], abs=1e-8)
    assert a["y"] == pytest.approx(b["y"], abs=1e-8)


def test_undeclared_variable_rejected():
    m = lp.LpModel()
    m.add_var("x")
    with pytest.raises(InvalidInputError):
        m.add_constraint({"ghost": 1.0}, lp.LE, 1.0)


def test_bad_bounds_rejected():
    m = lp.LpModel()
    with pytest.raises(InvalidInputError):
        m.add_var("x", 2.0, 1.0)


def test_duplicate_variable_rejected():
    m = lp.LpModel()
    m.add_var("x")
    with pytest.raises(InvalidInputError):
        m.add_var("x")


def test_constraints_hold_at_optimum():
    rng = np.random.default_rng(7)
    m = lp.LpModel()
    names = [m.add_var(f"v{i}", 0.0, 10.0) for i in range(6)]
    rows = []
    for r in range(8):
        coef = {nm: float(c) for nm, c in zip(names, rng.uniform(-1, 1, 6))}
        rhs = float(rng.uniform(1, 5))
        m.add_constraint(coef, lp.LE, rhs)
        rows.append((coef, rhs))
    m.set_objective("max", {nm: float(c)
                            for nm, c in zip(names, rng.uniform(0, 1, 6))})
    sol = lp.solve(m)
    assert sol.optimal
    for coef, rhs in rows:
        val = sum(c * sol[nm] for nm, c in coef.items())
        assert val <= rhs + lp.FEAS_TOL



def test_scaled_terms_follow_scale():
    # max x  s.t.  x - scale * y <= 0,  y <= 2: the optimum is 2 * scale.
    m = lp.LpModel()
    m.add_var("x", 0.0, None)
    m.add_var("y", 0.0, 2.0)
    m.add_constraint({"x": 1.0}, lp.LE, 0.0, scaled={"y": -1.0})
    m.set_objective("max", {"x": 1.0})
    for scale in (0.5, 3.0, 1.25):
        m.scale = scale
        assert lp.solve(m)["x"] == pytest.approx(2.0 * scale, abs=1e-9)


@pytest.mark.parametrize("sense", ["max", "min"])
def test_slope_matches_finite_difference(sense):
    # max x + y + z  s.t.  scale * x + y <= 4,  y >= 1,  z - scale * x = 0:
    # the optimum is 4 + 3 / scale, one scaled term in each row block.
    sign = 1.0 if sense == "max" else -1.0
    m = lp.LpModel()
    for name in "xyz":
        m.add_var(name, 0.0, None)
    m.add_constraint({"y": 1.0}, lp.LE, 4.0, scaled={"x": 1.0})
    m.add_constraint({"y": 1.0}, lp.GE, 1.0)
    m.add_constraint({"z": 1.0}, lp.EQ, 0.0, scaled={"x": -1.0})
    m.set_objective(sense, {name: sign for name in "xyz"})

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
    m.add_var("x", 0.0, 5.0)
    m.set_objective("max", {"x": 1.0})
    assert lp.solve(m)["x"] == pytest.approx(5.0, abs=1e-9)
    m.add_constraint({"x": -1.0}, lp.GE, -3.0, scaled={"x": 0.0})
    assert lp.solve(m)["x"] == pytest.approx(3.0, abs=1e-9)
    m.add_var("y", 0.0, 1.0)
    m.add_constraint({"x": 1.0, "y": 1.0}, lp.EQ, 2.5)
    sol = lp.solve(m)
    assert sol["x"] == pytest.approx(2.5, abs=1e-9)
    assert sol["y"] == pytest.approx(0.0, abs=1e-9)
