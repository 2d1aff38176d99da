"""Minimal linear-programming core used by the optimization modules.

The model builder keeps named variables with bounds, linear constraints,
and a linear objective.  Solving is delegated to HiGHS via scipy, which
provides the required determinism, anti-cycling, and 1e-6 tolerances;
the rest of the toolkit depends only on this interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import InvalidInputError, SolverLimitError

FEAS_TOL = 1e-6

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
    change of ``scale``; its constraint matrix is assembled once.
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
        self._assembled = None
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
        self._assembled = None

    def set_objective(self, sense: str, expr):
        if sense not in ("min", "max"):
            raise InvalidInputError("objective sense must be 'min' or 'max'")
        self._sense = sense
        self._objective = self._terms(expr)

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


def solve(model: LpModel) -> LpSolution:
    """Optimize the model; raises SolverLimitError on solver breakdown.

    A model without an objective is a feasibility check.  At an optimum the
    solution carries the objective's slope in ``model.scale``: by the
    envelope theorem, scaling the rows' scaled terms moves the objective
    by -sum_i y_i (A_scaled x)_i, with y the row duals of the minimization
    HiGHS solves.
    """
    if model.num_variables == 0:
        return LpSolution("optimal", {}, 0.0)
    (c, A_ub, b_ub, A_eq, b_eq), scaled = model._matrices()
    sign = -1.0 if model._sense == "max" else 1.0
    res = linprog(sign * c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=list(zip(model._lb, model._ub)), method="highs")
    if res.status == 0:
        values = {name: float(res.x[idx]) for name, idx in model._index.items()}
        slope = 0.0
        for A_scaled, duals in zip(scaled, (res.ineqlin, res.eqlin)):
            if A_scaled is not None:
                slope -= float(duals.marginals @ (A_scaled @ res.x))
        return LpSolution("optimal", values, float(sign * res.fun),
                          sign * slope)
    if res.status == 2:
        return LpSolution("infeasible", {}, float("nan"))
    if res.status == 3:
        return LpSolution("unbounded", {}, float("inf"))
    raise SolverLimitError(f"solver did not converge: {res.message}")
