"""Minimal linear-programming core used by the optimization modules.

The model builder keeps named variables with bounds, linear constraints,
and a linear objective.  Every LP in the toolkit is solved by HiGHS
through the binding scipy ships (``scipy.optimize._highspy._core``),
called directly rather than through ``scipy.optimize.linprog``, whose
Python wrapper cost several times the solve on the small LPs here.  One
helper, ``_run_highs``, makes every call: it passes a column-wise model,
an options object built once at import and, optionally, a starting
basis.  ``linprog`` below is this module's own call for ``LpModel``:
dual simplex, presolve on, output off, as scipy's
``linprog(method="highs")`` set them.  The rounding module drives the
same helper for its per-switch subproblem, with its own options.

``passModel`` resets the solver, so a solve is cold unless it is given
a basis.  An ``LpModel`` keeps the optimal basis of its last solve and
hands it to the next one when only ``scale`` changed in between; any new
variable, constraint or objective drops it.  HiGHS then starts from that
vertex and skips presolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _highs

from .errors import InternalError, InvalidInputError, SolverLimitError

FEAS_TOL = 1e-6
#: The residual scipy's ``linprog`` allowed an optimal vertex.
_RESIDUAL_TOL = math.sqrt(1e-9) * 10

LE, EQ, GE = "<=", "==", ">="
_RELATIONS = (LE, EQ, GE)


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: dict
    objective_value: float
    #: d(objective)/d(``model.scale``) at an optimum; 0 without scaled terms.
    slope: float = 0.0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def __getitem__(self, name: str) -> float:
        return self.values[name]


class LpModel:
    """Incrementally built LP: named bounded variables, linear rows, objective.

    A row may also carry scaled terms, whose coefficients are multiplied by
    ``scale`` at solve time.  LPs that differ only in that one block of
    coefficients are then one model, built once and re-solved after each
    change of ``scale``; its constraint matrix is assembled once, and each
    re-solve starts from the optimal basis of the one before.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self.scale = 1.0
        self._index = {}
        self._lb = []
        self._ub = []
        # (terms, scaled terms, relation, rhs); terms = (indices, coefs)
        self._rows = []
        self._sense = "min"
        self._objective = ([], [])  # (var indices, coefficients)
        self._assembled = None
        self._basis = None  # optimal basis of the last solve

    @property
    def num_variables(self) -> int:
        return len(self._index)

    @property
    def num_constraints(self) -> int:
        return len(self._rows)

    def add_var(self, name: str, lb: float = 0.0,
                ub: Optional[float] = None) -> str:
        if name in self._index:
            raise InvalidInputError(f"variable {name!r} already declared")
        if ub is not None and lb is not None and lb > ub:
            raise InvalidInputError(f"variable {name!r} has lb > ub")
        self._index[name] = len(self._lb)
        self._lb.append(-np.inf if lb is None else float(lb))
        self._ub.append(np.inf if ub is None else float(ub))
        self._assembled = self._basis = None
        return name

    def _terms(self, expr) -> tuple:
        """(variable indices, coefficients) of the non-zero terms."""
        items = expr.items() if isinstance(expr, dict) else expr
        idxs, coefs = [], []
        for name, coef in items:
            idx = self._index.get(name)
            if idx is None:
                raise InvalidInputError(f"term references undeclared variable {name!r}")
            c = float(coef)
            if c != 0.0:
                idxs.append(idx)
                coefs.append(c)
        return idxs, coefs

    def add_constraint(self, expr, relation: str, rhs: float, scaled=()):
        """Add ``expr + scale * scaled  relation  rhs``.

        ``expr`` and ``scaled`` map variable names to coefficients.
        """
        if relation not in _RELATIONS:
            raise InvalidInputError(f"unknown relation {relation!r}")
        self._rows.append((self._terms(expr), self._terms(scaled), relation,
                           float(rhs)))
        self._assembled = self._basis = None

    def set_objective(self, sense: str, expr):
        if sense not in ("min", "max"):
            raise InvalidInputError("objective sense must be 'min' or 'max'")
        self._sense = sense
        self._objective = self._terms(expr)
        self._basis = None

    def _assemble(self) -> list:
        """(A, A_scaled, b) of the inequality rows, as <=, and of the
        equality rows; an empty block is all None."""
        blocks = []
        for equality in (False, True):
            base, scaled, b = _Triplets(), _Triplets(), []
            for terms, scaled_terms, rel, rhs in self._rows:
                if (rel == EQ) != equality:
                    continue
                sign = -1.0 if rel == GE else 1.0
                base.add(len(b), terms, sign)
                scaled.add(len(b), scaled_terms, sign)
                b.append(sign * rhs)
            if not b:
                blocks.append((None, None, None))
                continue
            shape = (len(b), self.num_variables)
            blocks.append((base.csr(shape),
                           scaled.csr(shape) if scaled.vals else None,
                           np.array(b)))
        return blocks

    def _matrices(self):
        """(c, A_ub, b_ub, A_eq, b_eq) at the current ``scale``, and the
        scaled blocks (A_ub_scaled, A_eq_scaled), None where absent."""
        if self._assembled is None:
            self._assembled = self._assemble()
        c = np.zeros(self.num_variables)
        idxs, coefs = self._objective
        np.add.at(c, idxs, coefs)
        out, scaled = [c], []
        for A, A_scaled, b in self._assembled:
            if A_scaled is not None:
                A = A + self.scale * A_scaled
            out.extend((A, b))
            scaled.append(A_scaled)
        return tuple(out), scaled


class _Triplets:
    """Row, column and value lists of a sparse matrix being assembled."""

    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, row: int, terms: tuple, sign: float):
        idxs, coefs = terms
        self.rows.extend([row] * len(idxs))
        self.cols.extend(idxs)
        self.vals.extend(coefs if sign > 0 else [-c for c in coefs])

    def csr(self, shape) -> sp.csr_matrix:
        return sp.csr_matrix((self.vals, (self.rows, self.cols)), shape=shape)


_STATUS = _highs.HighsModelStatus


def _highs_options(**extra) -> _highs.HighsOptions:
    """HiGHS options as scipy's ``linprog`` set them: dual simplex,
    presolve on and no output, plus ``extra`` by option name."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = 1  # dual
    options.output_flag = False
    options.log_to_console = False
    for name, value in extra.items():
        setattr(options, name, value)
    return options


_OPTIONS = _highs_options()


@dataclass
class HighsResult:
    """One HiGHS solve.  ``status`` is as in ``LpSolution``; the vertex,
    row duals, objective and basis are set at an optimum only."""

    status: str
    x: Optional[np.ndarray] = None
    row_dual: Optional[np.ndarray] = None
    fun: float = math.nan
    nit: int = 0  # simplex iterations, or IPM iterations if HiGHS chose IPM
    basis: Optional[_highs.HighsBasis] = None


def _highs_lp(c, A, b, num_eq: int, lb, ub) -> _highs.HighsLp:
    """Column-wise HiGHS model of: minimize c x subject to A x <= b on all
    rows but the last ``num_eq``, A x = b on those, and lb <= x <= ub.

    A non-finite entry of c, A or b, or a NaN bound, is an internal error,
    as scipy's ``linprog`` refused them.
    """
    A = sp.csc_array(A)
    c, b = np.asarray(c, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(c).all() and np.isfinite(A.data).all()
            and np.isfinite(b).all()) or np.isnan(lb).any() \
            or np.isnan(ub).any():
        raise InternalError("LP data is not finite")
    num_row, num_col = A.shape
    lower = b.copy()
    lower[:num_row - num_eq] = -np.inf
    model = _highs.HighsLp()
    model.num_col_, model.num_row_ = num_col, num_row
    model.col_cost_, model.col_lower_, model.col_upper_ = c, lb, ub
    model.row_lower_, model.row_upper_ = lower, b
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = num_col, num_row
    # The binding copies integer lists faster than integer arrays.
    matrix.start_, matrix.index_ = A.indptr.tolist(), A.indices.tolist()
    matrix.value_ = A.data
    return model


def _run_highs(model: _highs.HighsLp, options: _highs.HighsOptions,
               basis=None, solver=None) -> HighsResult:
    """Solve ``model`` from ``basis`` when one is given, on ``solver``, or
    on a fresh HiGHS object when that is None.

    ``passModel`` clears whatever ``solver`` held, so a solve without a
    basis is cold.  Model statuses map as scipy's ``linprog`` mapped them:
    a model HiGHS refuses counts as infeasible, and anything but optimal,
    infeasible or unbounded, "unbounded or infeasible" included, raises
    SolverLimitError.
    """
    if solver is None:
        solver = _highs._Highs()
    solver.passOptions(options)
    if solver.passModel(model) == _highs.HighsStatus.kError:
        return HighsResult("infeasible")
    if basis is not None:
        solver.setBasis(basis)
    ran = solver.run() != _highs.HighsStatus.kError
    status = solver.getModelStatus()
    info = solver.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if status == _STATUS.kOptimal and ran:
        sol = solver.getSolution()
        return HighsResult("optimal", np.array(sol.col_value),
                           np.array(sol.row_dual),
                           info.objective_function_value, nit,
                           solver.getBasis())
    if status in (_STATUS.kInfeasible, _STATUS.kModelError):
        return HighsResult("infeasible", nit=nit)
    if status == _STATUS.kUnbounded:
        return HighsResult("unbounded", nit=nit)
    raise SolverLimitError("solver did not converge: "
                           + solver.modelStatusToString(status))


def linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, basis=None) -> HighsResult:
    """Minimize c x subject to A_ub x <= b_ub, A_eq x = b_eq and
    bounds[0] <= x <= bounds[1], from ``basis`` when one is given.  A
    block that is None has no rows.

    ``LpModel``'s one call into HiGHS.  Like ``scipy.optimize.linprog`` it
    raises SolverLimitError on an optimal vertex that misses a bound or
    row by more than sqrt(1e-9) * 10.
    """
    n = len(c)
    lb, ub = (np.asarray(v, dtype=float) for v in bounds)
    blocks = [(A, b) for A, b in ((A_ub, b_ub), (A_eq, b_eq))
              if A is not None]
    A = sp.vstack([A for A, _ in blocks]) if blocks else sp.csc_array((0, n))
    b = np.concatenate([b for _, b in blocks]) if blocks else np.zeros(0)
    num_eq = 0 if A_eq is None else A_eq.shape[0]
    res = _run_highs(_highs_lp(c, A, b, num_eq, lb, ub), _OPTIONS, basis)
    if res.status == "optimal":
        x, tol = res.x, _RESIDUAL_TOL
        row = A @ x
        eq = slice(len(b) - num_eq, None)
        if not (np.all(x >= lb - tol) and np.all(x <= ub + tol)
                and np.all(row <= b + tol) and np.all(row[eq] >= b[eq] - tol)
                and np.isfinite(res.fun)):
            raise SolverLimitError("solver returned a vertex outside the"
                                   " feasible set")
    return res


def solve(model: LpModel) -> LpSolution:
    """Optimize the model; raises SolverLimitError on solver breakdown.

    A model without an objective is a feasibility check.  At an optimum the
    solution carries the objective's slope in ``model.scale``: by the
    envelope theorem, scaling the rows' scaled terms moves the objective
    by -sum_i y_i (A_scaled x)_i, with y the row duals of the minimization
    HiGHS solves.  The optimal basis stays with the model for its next
    solve.
    """
    if model.num_variables == 0:
        return LpSolution("optimal", {}, 0.0)
    (c, A_ub, b_ub, A_eq, b_eq), scaled = model._matrices()
    sign = -1.0 if model._sense == "max" else 1.0
    res = linprog(sign * c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(model._lb, model._ub), basis=model._basis)
    model._basis = res.basis
    if res.status == "optimal":
        values = {name: float(res.x[idx]) for name, idx in model._index.items()}
        num_ub = 0 if A_ub is None else A_ub.shape[0]
        duals = (res.row_dual[:num_ub], res.row_dual[num_ub:])
        slope = 0.0
        for A_scaled, y in zip(scaled, duals):
            if A_scaled is not None:
                slope -= float(y @ (A_scaled @ res.x))
        return LpSolution("optimal", values, float(sign * res.fun),
                          sign * slope)
    if res.status == "infeasible":
        return LpSolution("infeasible", {}, float("nan"))
    return LpSolution("unbounded", {}, float("inf"))
