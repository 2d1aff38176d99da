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
helper, ``_run_highs``, makes every call: it passes a model, the options
of the LP's family and, optionally, a starting basis.

Rows go to HiGHS row-wise, built once per model.  At its first solve a
model assembles each relation group, the inequalities as <= and then
the equalities, into one CSR pattern that holds both the fixed value
and the ``scale``d value of each entry: duplicate triplets summed,
exact zeros dropped.  A solve only forms fixed + scale * scaled on that
pattern, for a group with scaled terms, and ``linprog``, this module's
one call into HiGHS for an ``LpModel``, passes the rows as they are
with ``MatrixFormat.kRowwise``: no sparse sum, stacking or conversion
to columns per solve.  HiGHS stores the model column-wise, and holds
bit for bit the model that stacking separate sparse matrices
column-wise gave before; the tests keep that construction as their
oracle.

HiGHS options are one table, ``_FAMILY_OPTIONS``, keyed by LP family:
an ``LpModel``'s name, and "ldm-subproblem" for the rounding module's
per-switch subproblem, which it builds column-wise with
``_highs_model`` and reads only the vertex of.  Every family runs dual
simplex with output off.  Presolve is on, as scipy's
``linprog(method="highs")`` set it, except in three families, where it
was measured to cost more than it saves (HiGHS time per LP, N = 8, on
a shared 2-vCPU Xeon; perfbench seed 2):

- "fixed-throughput", stage 1 with link counts fixed: the mesh routing
  LP of the replay baseline (108 rows), 2.20 -> 1.57 ms, with the same
  109 simplex iterations and nothing removed by presolve; recompute's
  first LP (336 rows), 4.23 -> 3.32 ms, although presolve reduced 2 of
  5 and its iterations rose from 120 to 150;
- "boundedness", ``traffic.check_bounded`` (57 rows): 0.37 -> 0.19 ms,
  the same 3.8 iterations, nothing removed;
- "ldm-subproblem": see the rounding module.

What these families return is mostly a value no optimal vertex
changes: mu, an MLU, a slack, an integral subproblem vertex.  Two of
their results are vertices: the mesh baseline's weights, which
``couder evaluate --baseline mesh`` scores, and the boundedness
witness.  Both were identical with presolve on and off on the 288
replay matrices of perfbench seeds 0-5, but not everywhere: on a
4-pod storage sequence the mesh weights, and so that baseline's AHC,
moved by up to 0.24 hops at the same MLU.  The stages with free link
counts hand their vertex on to rounding, and keep presolve on.

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


class _Rows(NamedTuple):
    """One relation group of rows, row-wise: the CSR pattern of its fixed
    and scaled terms together, with both parts' values on it."""

    matrix: sp.csr_array  # the pattern; its data is fixed + scale * scaled
    fixed: np.ndarray
    scaled: Optional[sp.csr_array]  # the scaled values on the same pattern
    rhs: np.ndarray


class LpModel:
    """Incrementally built LP: bounded columns, linear rows, objective.

    Rows live in one store of blocks, one block per ``add_rows`` call.
    Assembly stacks the blocks per relation in insertion order.

    A row may also carry scaled terms, whose coefficients are multiplied by
    ``scale`` at solve time.  LPs that differ only in that one block of
    coefficients are then one model, built once and re-solved after each
    change of ``scale``; its row pattern is assembled once, and each
    re-solve starts from the optimal basis of the one before.

    ``name`` is the model's LP family; it selects the HiGHS options in
    ``_FAMILY_OPTIONS``.
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

    def _rows(self) -> tuple:
        """The ``_Rows`` of the inequality rows, as <=, and of the equality
        rows, either None when it has none, at the current ``scale``.  The
        patterns are assembled once; a solve only re-forms the values of a
        group with scaled terms."""
        if self._assembled is None:
            self._assembled = tuple(
                _assemble([blk for blk in self._blocks
                           if (blk.relation == EQ) == equality
                           and len(blk.rhs)], self.num_variables)
                for equality in (False, True))
        for rows in self._assembled:
            if rows is not None and rows.scaled is not None:
                # linprog refuses non-finite values; forming them is quiet.
                with np.errstate(invalid="ignore", over="ignore"):
                    rows.matrix.data = (rows.fixed
                                        + self.scale * rows.scaled.data)
        return self._assembled


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


def _assemble(group: list, num_cols: int) -> Optional[_Rows]:
    """The blocks of ``group`` stacked in order into one ``_Rows``, each
    moved down past the rows before it and a >= block negated, or None
    when ``group`` is empty.

    The pattern holds every (row, column) with a nonzero fixed or scaled
    value.  Triplets on one (row, column) are summed in the order given,
    each part on its own, and zero values are dropped.  ``scipy.sparse``
    sums such duplicates in the same order within a row of up to 16
    entries, so up to there the values equal those of a CSR matrix built
    per part.
    """
    if not group:
        return None
    offsets = np.cumsum([0] + [len(blk.rhs) for blk in group])
    signs = [-1.0 if blk.relation == GE else 1.0 for blk in group]
    keys, values = [], []
    for part in (0, 1):  # the fixed terms, then the scaled ones
        for blk, offset, sign in zip(group, offsets, signs):
            terms = blk.scaled if part else blk.terms
            if terms is None:
                continue
            rows, cols, coefs = terms
            keys.append((rows + offset) * num_cols + cols)
            vals = np.zeros((len(rows), 2))
            vals[:, part] = sign * coefs
            values.append(vals)
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    key, vals = key[order], np.concatenate(values)[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    entry = np.cumsum(first) - 1
    # bincount adds in input order: duplicates sum in the order given.
    fixed, scaled = (np.bincount(entry, vals[:, part], entry[-1] + 1)
                     if len(key) else np.zeros(0) for part in (0, 1))
    keep = (fixed != 0.0) | (scaled != 0.0)
    key, fixed, scaled = key[first][keep], fixed[keep], scaled[keep]
    shape = (int(offsets[-1]), num_cols)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(key // num_cols,
                                                        minlength=shape[0]))])
    indices = key % num_cols
    scaled = (sp.csr_array((scaled, indices, indptr), shape=shape)
              if scaled.any() else None)
    return _Rows(sp.csr_array((fixed, indices, indptr), shape=shape), fixed,
                 scaled, np.concatenate([s * blk.rhs
                                         for s, blk in zip(signs, group)]))


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
#: HiGHS's default feasibility tolerances (1e-7) would ignore the LDM
#: subproblem's tie reward of at most 1e-9 toward more links; these
#: resolve it.
_HIGHS_TIGHT = {"dual_feasibility_tolerance": 1e-10,
                "primal_feasibility_tolerance": 1e-10}
#: HiGHS options by LP family, the ``LpModel.name``; every other family
#: runs with ``_OPTIONS``.  Presolve off where it removes nothing from the
#: family's LPs yet costs time; see the module docstring.
_FAMILY_OPTIONS = {
    "fixed-throughput": _highs_options(presolve="off"),
    "boundedness": _highs_options(presolve="off"),
    "ldm-subproblem": _highs_options(solver="simplex", presolve="off",
                                     **_HIGHS_TIGHT),
}


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


def _highs_model(matrix_format, cost, col_lower, col_upper, row_lower,
                 row_upper, start, index, value) -> _highs.HighsLp:
    """HiGHS model of: minimize cost x subject to row_lower <= A x <=
    row_upper and col_lower <= x <= col_upper, A given by ``start``,
    ``index`` and ``value`` in ``matrix_format``, row-wise or column-wise.
    Each argument is a sequence the binding copies: a list copies several
    times faster than an array."""
    model = _highs.HighsLp()
    model.num_col_, model.num_row_ = len(cost), len(row_upper)
    model.col_cost_, model.col_lower_, model.col_upper_ = (cost, col_lower,
                                                           col_upper)
    model.row_lower_, model.row_upper_ = row_lower, row_upper
    matrix = model.a_matrix_
    matrix.format_ = matrix_format
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


def linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, basis=None,
            options=_OPTIONS) -> HighsResult:
    """Minimize c x subject to A_ub x <= b_ub, A_eq x = b_eq and
    bounds[0] <= x <= bounds[1] under the HiGHS ``options``, from
    ``basis`` when one is given.  ``A_ub`` and ``A_eq`` are CSR matrices,
    or None for no rows; their rows go to HiGHS row-wise as they are.

    ``LpModel``'s one call into HiGHS.  A non-finite entry of c, A or b,
    or a NaN bound, is an internal error, as scipy's ``linprog`` refused
    them.  Like that ``linprog`` it raises SolverLimitError on an optimal
    vertex that misses a bound or row by more than sqrt(1e-9) * 10.
    """
    lb, ub = (np.asarray(v, dtype=float) for v in bounds)
    blocks = [(A, b) for A, b in ((A_ub, b_ub), (A_eq, b_eq))
              if A is not None]
    offsets = np.cumsum([0] + [A.nnz for A, _ in blocks])
    start = np.concatenate([[0]] + [A.indptr[1:] + k
                                    for (A, _), k in zip(blocks, offsets)])
    index = np.concatenate([np.zeros(0, dtype=int)]
                           + [A.indices for A, _ in blocks])
    value = np.concatenate([np.zeros(0)] + [A.data for A, _ in blocks])
    b = np.concatenate([np.zeros(0)] + [b for _, b in blocks])
    c = np.asarray(c, dtype=float)
    if not (np.isfinite(c).all() and np.isfinite(value).all()
            and np.isfinite(b).all()) or np.isnan(lb).any() \
            or np.isnan(ub).any():
        raise InternalError("LP data is not finite")
    num_eq = 0 if A_eq is None else A_eq.shape[0]
    lower = b.copy()
    lower[:len(b) - num_eq] = -np.inf
    # The binding copies lists faster than arrays.
    model = _highs_model(_highs.MatrixFormat.kRowwise, c.tolist(),
                         lb.tolist(), ub.tolist(), lower.tolist(),
                         b.tolist(), start.tolist(), index.tolist(),
                         value.tolist())
    res = _run_highs(model, options, basis)
    if res.status == "optimal":
        x, tol = res.x, _RESIDUAL_TOL
        row = np.concatenate([np.zeros(0)] + [A @ x for A, _ in blocks])
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
    groups = model._rows()
    (A_ub, b_ub), (A_eq, b_eq) = ((None, None) if rows is None
                                  else (rows.matrix, rows.rhs)
                                  for rows in groups)
    c = np.zeros(model.num_variables)
    idxs, coefs = model._objective
    np.add.at(c, idxs, coefs)
    sign = -1.0 if model._sense == "max" else 1.0
    res = linprog(sign * c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(model._lb, model._ub), basis=model._basis,
                  options=_FAMILY_OPTIONS.get(model.name, _OPTIONS))
    model._basis = res.basis
    if res.status == "optimal":
        num_ub = 0 if A_ub is None else A_ub.shape[0]
        duals = (res.row_dual[:num_ub], res.row_dual[num_ub:])
        slope = 0.0
        for rows, y in zip(groups, duals):
            if rows is not None and rows.scaled is not None:
                slope -= float(y @ (rows.scaled @ res.x))
        return LpSolution("optimal", res.x, float(sign * res.fun),
                          sign * slope)
    if res.status == "infeasible":
        return LpSolution("infeasible", None, float("nan"))
    return LpSolution("unbounded", None, float("inf"))
