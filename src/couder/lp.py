"""Minimal linear-programming core used by the optimization modules.

A model is built by column index only.  ``add_vars`` declares a run of
bounded columns and returns their indices; ``add_rows`` adds a block of
rows from (row, column, value) triplets; ``set_objective`` takes column
indices and coefficients.  ``solve`` returns the optimal vertex as an
array, ``LpSolution.x``, so a caller reads a variable by the column
``add_vars`` gave it.  Every LP in the toolkit is solved by HiGHS
through the binding scipy ships (``scipy.optimize._highspy._core``),
called directly rather than through ``scipy.optimize.linprog``, whose
Python wrapper cost several times the solve on the small LPs here.  One
helper, ``_run_highs``, makes every call: it passes a column-wise model,
an options object built once at import and, optionally, a starting
basis.  ``linprog`` below is this module's own call for ``LpModel``:
dual simplex, presolve on, output off, as scipy's
``linprog(method="highs")`` set them.  The rounding module drives the
same helper for its per-switch subproblem, with its own options, a
model it builds with ``_column_lp`` and only the vertex read back.

``passModel`` resets the solver, so a solve is cold unless it is given
a basis.  An ``LpModel`` keeps the optimal basis of its last solve and
hands it to the next one when only ``scale`` changed in between; any new
column, row or objective drops it.  HiGHS then starts from that
vertex and skips presolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    x: Optional[np.ndarray]  # the vertex by column; None unless optimal
    objective_value: float
    #: d(objective)/d(``model.scale``) at an optimum; 0 without scaled terms.
    slope: float = 0.0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Block(NamedTuple):
    """Rows added in one call: (row, column, value) triplets, the rows
    numbered from 0 within the block, and one right-hand side per row."""

    relation: str
    terms: tuple  # (rows, cols, coefs) arrays
    scaled: Optional[tuple]  # the same for the scaled terms, or None
    rhs: np.ndarray


class LpModel:
    """Incrementally built LP: bounded columns, linear rows, objective.

    Rows live in one store of blocks, one block per ``add_rows`` call.
    Assembly stacks the blocks per relation in insertion order.

    A row may also carry scaled terms, whose coefficients are multiplied by
    ``scale`` at solve time.  LPs that differ only in that one block of
    coefficients are then one model, built once and re-solved after each
    change of ``scale``; its constraint matrix is assembled once, and each
    re-solve starts from the optimal basis of the one before.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self.scale = 1.0
        self._lb = []
        self._ub = []
        self._blocks = []
        self._num_rows = 0
        self._sense = "min"
        self._objective = (np.zeros(0, dtype=int), np.zeros(0))  # cols, coefs
        self._assembled = None
        self._basis = None  # optimal basis of the last solve

    @property
    def num_variables(self) -> int:
        return len(self._lb)

    @property
    def num_constraints(self) -> int:
        return self._num_rows

    def add_vars(self, count: int, lb=0.0, ub=None) -> np.ndarray:
        """Declare ``count`` columns, bounds broadcast from ``lb`` and
        ``ub`` (None is unbounded); returns their column indices."""
        start = len(self._lb)
        lbs, ubs = (np.broadcast_to(np.asarray(default if bound is None
                                               else bound, dtype=float),
                                    count)
                    for bound, default in ((lb, -np.inf), (ub, np.inf)))
        if (lbs > ubs).any():
            raise InvalidInputError("variable has lb > ub")
        self._lb.extend(lbs.tolist())
        self._ub.extend(ubs.tolist())
        self._assembled = self._basis = None
        return np.arange(start, start + count)

    def _check_cols(self, cols: np.ndarray):
        if len(cols) and (cols.min() < 0 or cols.max() >= self.num_variables):
            raise InvalidInputError("column index out of range")

    def add_rows(self, rows, cols, coefs, relation: str, rhs, scaled=None):
        """Add ``len(rhs)`` rows as one block.

        Row r reads ``sum(coefs[t] * x[cols[t]] for t with rows[t] == r)
        relation rhs[r]``.  The triplets ``scaled`` = (rows, cols, coefs),
        when given, add terms whose coefficients are multiplied by
        ``scale``.
        """
        if relation not in _RELATIONS:
            raise InvalidInputError(f"unknown relation {relation!r}")
        rhs = np.array(rhs, dtype=float, ndmin=1)
        terms, scaled = (None if t is None else _triplets(*t)
                         for t in ((rows, cols, coefs), scaled))
        for r, c, v in filter(None, (terms, scaled)):
            if not r.shape == c.shape == v.shape or r.ndim != 1:
                raise InvalidInputError("rows, cols and coefs must be"
                                        " vectors of one length")
            if len(r) and (r.min() < 0 or r.max() >= len(rhs)):
                raise InvalidInputError("row index out of range")
            self._check_cols(c)
        self._blocks.append(_Block(relation, terms, scaled, rhs))
        self._num_rows += len(rhs)
        self._assembled = self._basis = None

    def set_objective(self, sense: str, cols, coefs):
        """Minimize or maximize ``sum(coefs[t] * x[cols[t]])``."""
        if sense not in ("min", "max"):
            raise InvalidInputError("objective sense must be 'min' or 'max'")
        cols = _indices(cols)
        coefs = np.asarray(coefs, dtype=float)
        if cols.shape != coefs.shape or cols.ndim != 1:
            raise InvalidInputError("cols and coefs must be vectors of one"
                                    " length")
        self._check_cols(cols)
        self._sense = sense
        self._objective = (cols, coefs)
        self._basis = None

    def _assemble(self) -> list:
        """(A, A_scaled, b) of the inequality rows, as <=, and of the
        equality rows; either is all None when it has no rows."""
        out = []
        for equality in (False, True):
            group = [blk for blk in self._blocks
                     if (blk.relation == EQ) == equality and len(blk.rhs)]
            if not group:
                out.append((None, None, None))
                continue
            sizes = [len(blk.rhs) for blk in group]
            offsets = np.cumsum([0] + sizes[:-1])
            signs = [-1.0 if blk.relation == GE else 1.0 for blk in group]
            shape = (sum(sizes), self.num_variables)
            A_scaled = _stack([blk.scaled for blk in group], offsets, signs,
                              shape)
            out.append((
                _stack([blk.terms for blk in group], offsets, signs, shape),
                A_scaled if A_scaled.nnz else None,
                np.concatenate([s * blk.rhs for s, blk in zip(signs, group)])))
        return out

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


def _indices(idx) -> np.ndarray:
    """``idx`` as an int array.  An index array of another dtype is
    InvalidInputError, since casting would truncate a float index to some
    other row or column; an empty list, which numpy reads as float, is
    no index at all."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu" and idx.size:
        raise InvalidInputError(f"index array of dtype {idx.dtype}; row and"
                                " column indices must be integers")
    return idx.astype(int, copy=False)


def _triplets(rows, cols, coefs) -> tuple:
    return _indices(rows), _indices(cols), np.asarray(coefs, dtype=float)


def _stack(blocks, offsets, signs, shape) -> sp.csr_matrix:
    """CSR matrix of the blocks' (rows, cols, coefs) triplets, block k's
    rows moved down by ``offsets[k]`` and its values multiplied by
    ``signs[k]``; a block may be None, and zero values are dropped."""
    kept = [k for k, blk in enumerate(blocks) if blk is not None]
    if not kept:
        return sp.csr_matrix(shape)
    sizes = [len(blocks[k][0]) for k in kept]
    rows, cols, vals = (np.concatenate([blocks[k][part] for k in kept])
                        for part in range(3))
    rows += np.repeat([offsets[k] for k in kept], sizes)
    vals *= np.repeat([signs[k] for k in kept], sizes)
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


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
    lower = b.copy()
    lower[:A.shape[0] - num_eq] = -np.inf
    # The binding copies integer lists faster than integer arrays.
    return _column_lp(c, lb, ub, lower, b, A.indptr.tolist(),
                      A.indices.tolist(), A.data)


def _column_lp(cost, col_lower, col_upper, row_lower, row_upper, start,
               index, value) -> _highs.HighsLp:
    """HiGHS model of: minimize cost x subject to row_lower <= A x <=
    row_upper and col_lower <= x <= col_upper, A given column-wise by
    ``start``, ``index`` and ``value``.  Each argument is a sequence the
    binding copies: a list copies several times faster than an array."""
    model = _highs.HighsLp()
    model.num_col_, model.num_row_ = len(cost), len(row_upper)
    model.col_cost_, model.col_lower_, model.col_upper_ = (cost, col_lower,
                                                           col_upper)
    model.row_lower_, model.row_upper_ = row_lower, row_upper
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = len(cost), len(row_upper)
    matrix.start_, matrix.index_, matrix.value_ = start, index, value
    return model


def _run_highs(model: _highs.HighsLp, options: _highs.HighsOptions,
               basis=None, solver=None, vertex_only=False) -> HighsResult:
    """Solve ``model`` from ``basis`` when one is given, on ``solver``, or
    on a fresh HiGHS object when that is None.  With ``vertex_only`` the
    result holds the status and, at an optimum, the vertex: no row duals,
    basis, objective or iteration count, for a caller that reads none.

    ``passModel`` clears whatever ``solver`` held, so a solve without a
    basis is cold.  HiGHS refuses a model with a matrix entry of magnitude
    ``large_matrix_value`` (1e15) or more, which only an input that large
    can produce: that is InvalidInputError.  Model statuses map as
    scipy's ``linprog`` mapped them: anything but optimal, infeasible or
    unbounded, "unbounded or infeasible" included, raises SolverLimitError.
    """
    if solver is None:
        solver = _highs._Highs()
    solver.passOptions(options)
    if solver.passModel(model) == _highs.HighsStatus.kError:
        raise InvalidInputError(
            "input too large for the LP solver: every constraint coefficient"
            f" must be below {options.large_matrix_value:g} in magnitude")
    if basis is not None:
        solver.setBasis(basis)
    ran = solver.run() != _highs.HighsStatus.kError
    status = solver.getModelStatus()
    if vertex_only and status == _STATUS.kOptimal and ran:
        return HighsResult("optimal", np.array(solver.getSolution().col_value))
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
        return LpSolution("optimal", np.zeros(0), 0.0)
    (c, A_ub, b_ub, A_eq, b_eq), scaled = model._matrices()
    sign = -1.0 if model._sense == "max" else 1.0
    res = linprog(sign * c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(model._lb, model._ub), basis=model._basis)
    model._basis = res.basis
    if res.status == "optimal":
        num_ub = 0 if A_ub is None else A_ub.shape[0]
        duals = (res.row_dual[:num_ub], res.row_dual[num_ub:])
        slope = 0.0
        for A_scaled, y in zip(scaled, duals):
            if A_scaled is not None:
                slope -= float(y @ (A_scaled @ res.x))
        return LpSolution("optimal", res.x, float(sign * res.fun),
                          sign * slope)
    if res.status == "infeasible":
        return LpSolution("infeasible", None, float("nan"))
    return LpSolution("unbounded", None, float("inf"))
