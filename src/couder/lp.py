"""Minimal linear-programming core used by the optimization modules.

A model is built by column index only.  ``add_vars`` declares a run of
bounded columns and returns their indices; ``add_rows`` adds a block of
rows from (row, column, value) triplets; ``set_objective`` takes column
indices and coefficients.  A solve returns one record, ``LpSolution``,
with the vertex as an array ``x``: a caller reads a variable by the
column ``add_vars`` gave it.  ``solve``'s docstring gives the sign and
row order of its duals.  Every LP in the toolkit is solved by HiGHS
through the binding scipy ships (``scipy.optimize._highspy._core``,
loaded as the last paragraph says), called directly rather than through
``scipy.optimize.linprog``, whose Python wrapper cost several times the
solve on the small LPs here.  One helper, ``_run_highs``, makes every
call: it passes a model, the options of the LP's family and, optionally,
a starting basis, to the one HiGHS object of the process, ``_solver``.
Solves are therefore not reentrant: ``couder`` starts no threads, and a
caller that did would have to serialize its solves.  ``passModel``
resets that object's model and solution, so each solve ends as one on a
fresh object would.  HiGHS keeps its options from model to model, so
they are passed only when they, or the solver object, differ from the
pair last passed.

Every model reaches HiGHS one way: as the arguments of the binding's
array ``passModel``, numpy arrays the binding copies once.  An
``LpModel`` goes row-wise (``MatrixFormat.kRowwise``).  At its first
solve after ``add_vars``, ``add_rows`` or ``set_objective`` a model
assembles its cost and rows (``_Assembly``).  The rows reach HiGHS as
ranges in the order added: each row is one [lower, upper] pair, its
right-hand side the upper bound of a <= row, the lower bound of a >=
row and both bounds of an equality row.  They are one CSR pattern that
holds both the fixed and the ``scale``d value of each entry, duplicate
triplets summed and exact zeros dropped.  The matrix values and row
bounds of that assembly are
the very arrays HiGHS receives: ``set_rhs`` writes new row bounds into
them and a change of ``scale`` re-forms fixed + scale * scaled in place,
so no solve joins or converts an array, and none can send a stale one.
``_run_highs`` checks every LP's data on the arrays it passes, and
``solve`` an optimal vertex against the same matrix and bounds, once per
solve each.  HiGHS stores the model column-wise, and holds bit for bit
the model that stacking separate sparse matrices column-wise gives; the
tests keep that construction as their oracle.

HiGHS options are one table, ``_FAMILY_OPTIONS``, keyed by LP family:
an ``LpModel``'s name, and "ldm-subproblem" for the rounding module's
per-switch subproblem, which it hands ``_run_highs`` column-wise and
reads only the vertex of.  A family without an entry runs ``_OPTIONS``:
dual simplex with HiGHS's steepest-edge pricing, presolve on and output
off, as scipy's ``linprog(method="highs")`` set them, and the simplex
unscaled, as in every family (see below the list).  IPM cannot
start from a basis, so a solve from one runs ``_OPTIONS`` in an IPM
family too.  Each family runs the method measured fastest on it (HiGHS
time per LP on a shared 2-vCPU Xeon; perfbench days: M = 4, 4 ports per
pod per switch, K = 5; N = 8 is gravity days 1 and 2 and storage days 0
and 1, larger N one gravity and one storage day):

- "maxmin-throughput", stage 1 with free link counts, and
  "fixed-throughput" and "fixed-desensitize", re-routing's cold stages
  1 and 2: dual simplex with Dantzig pricing, presolve off.  Against
  HiGHS's own choice, steepest edge, which costs an extra solve per
  iteration to update its weights, Dantzig pricing took less time on
  every one of these LPs but re-routing's stage 1 on the N = 12 gravity
  day (it took 310 -> 360 iterations there): summed over the 12 plans
  of perfbench seeds 1-3 at N = 8, stage 1 46.8 -> 27.4 ms (3,078 ->
  2,554 iterations), re-routing's stage 1 25.6 -> 17.0 ms and its stage
  2 84.2 -> 51.8 ms (median of 20 alternating replays); at N = 12
  (gravity, storage) 19.5 -> 9.4 and 13.3 -> 4.3 ms, 5.0 -> 5.2 and 4.5
  -> 2.5 ms, 75.0 -> 36.3 and 36.2 -> 13.8 ms; at N = 16 103 -> 67 and
  30.3 -> 7.8 ms, 81.7 -> 39.9 and 4.8 -> 4.2 ms, 430 -> 274 and 18.1
  -> 15.1 ms; stage 1 at N = 24 0.69 -> 0.13 s and 0.33 -> 0.054 s.
  Devex was slower than steepest edge on 4 of the 6 N = 16 LPs.
  Presolve off, with steepest edge: stage 1 (352 rows at N = 8) took
  17.2 -> 15.5, 8.8 -> 7.0, 4.1 -> 3.8 and 5.2 -> 3.6 ms, 36.6 -> 31.1
  and 11.7 -> 10.8 ms at N = 12, 142 -> 125 and 47 -> 44 ms at N = 16.
  Re-routing's stage 2 (693-728 rows) took 15.8 -> 10.9, 15.5 -> 10.7,
  7.2 -> 5.6 and 7.5 -> 5.5 ms, 103 -> 86 and 48 -> 43 ms at N = 12,
  and 558 -> 524 but 61 -> 78 ms at N = 16.  Re-routing's stage 1 (336
  rows, perfbench seed 2) took 4.23 -> 3.32 ms, although presolve
  reduced 2 of 5 and its iterations rose from 120 to 150.
- "desensitize", stage 2 with free link counts: its first probe, the
  model's one cold solve, runs IPM with crossover, which ends on a
  vertex and its basis.  On the gravity and storage day dual simplex
  took 61 and 45 ms at N = 8, 0.80 and 0.47 s at N = 12 and 8.9 and
  4.0 s at N = 16; IPM 54 and 40 ms, 0.30 and 0.15 s, and 1.4 and
  0.62 s, with the same F.  Presolve stays on: it
  cost IPM nothing measurable (12 plan-mix probes, 481-502 ms on and
  508-528 ms off), and with it off stage 3 from crossover's basis ended
  "infeasible" on the 2-pod plans of 2^40, 2^49, 2^53 and 2^57-2^59
  ports.  The first re-solve, from that far-off vertex, runs
  ``_OPTIONS``: Devex pricing took 14-31 ms against steepest edge's
  15-25 ms at N = 8, but 181 and 273 ms against 165 and 252 ms at N = 12
  and 2.18 and 2.89 s against 1.42 and 2.06 s at N = 16.
- "desensitize-late", stage 2's later re-solves and bracket probes
  (``optimize._newton_beta`` renames its model after the first re-solve):
  dual simplex with Devex pricing.  Steepest edge computes exact weights
  before its first pivot, at about the cost of one solve per row, which
  these short re-solves do not pay back: 9.3 -> 4.4, 9.7 -> 2.1,
  7.7 -> 2.0, 8.7 -> 6.7, 14.4 -> 11.1 and 7.4 -> 2.6 ms at N = 8;
  99.6 -> 64.0, 95.2 -> 89.9 and 49.5 -> 15.1 ms at N = 12; at N = 16
  828 -> 898, 723 -> 606 and 743 -> 479 ms on the gravity day and
  710 -> 940 and 259 -> 54 ms on the storage day.
- "boundedness", ``traffic.check_bounded`` (57 rows): presolve off,
  0.37 -> 0.19 ms, the same 3.8 iterations, nothing removed.
- "ldm-subproblem": see the rounding module.
- "minimize-ahc-warm", stage 3 on the model of the stage before it (see
  the optimize module): primal simplex.  It starts from that stage's
  optimal basis, which stays primal feasible when only the objective
  changes, and not dual feasible, or cold when built alone.  On the four
  days of perfbench plan-mix seed 1 (best of 7) it took 539, 580, 704
  and 7 iterations and 29, 31, 31 and 4 ms, against 901-1,210 iterations
  and 43-52 ms for a cold dual simplex solve of the same stage posed in
  the routing fractions omega; dual simplex from the same basis took
  806-938 iterations and 40-85 ms.  Its primal feasibility tolerance is
  1e-8: its weights are mu times the routing fractions, so a fraction
  may pass its cap by the tolerance over mu.  At HiGHS's default of 1e-7
  one passed by up to 5.3e-7 where mu < 1 (200 random fabrics), at 1e-8
  by 5.3e-8, at no measured cost.

Every family runs the simplex unscaled: ``_highs_options`` sets
``simplex_scale_strategy`` to 0 once, where HiGHS's default, 2, first
equilibrates rows and columns by powers of two.  The stage LPs are
unitless already (see the optimize module: demand over sigma, below 2,
and capacity in links), which leaves scaling little to even out.  It
is a simplex option: stage 2's 12 IPM probes below took the same 262
IPM iterations either way, and 480 -> 494 ms by themselves.  HiGHS time
of the calls the perfbench rounds make, each call replayed on a fresh
solver from its recorded basis, scaled -> unscaled, median of 20
alternating replays on a shared 2-vCPU Xeon, with the options above and
implied load rows left out (the optimize module).  Plan-mix, summed over
seeds 1-3 (four N = 8 plans each):

- "maxmin-throughput" 44.9 -> 28.6 ms, "fixed-throughput" 40.0 -> 18.0
  ms and "fixed-desensitize" 111 -> 55.3 ms, with 25 %, 38 % and 19 %
  fewer iterations;
- "desensitize", the IPM probe and the first re-solve, 631 -> 626 ms;
- "desensitize-late" 82.7 -> 62.9 ms, 21 % fewer iterations;
- "minimize-ahc-warm" 294 -> 288 ms, though 0.8 % more iterations, and
  slower on seeds 2 and 3 (95.7 -> 99.0 and 86.8 -> 87.9 ms);
- "ldm-subproblem" 11.7 -> 11.7 ms, the same iterations;
- in all 1,215 -> 1,090 ms; whole plans, the 12 round by round in one
  process, took 0.90 of the scaled time (median of 10 rounds each).

Replay, the 144 held-out matrices of seeds 1-3: "boundedness" 21.7 ->
18.7 ms, and "optimal-routing", the min-MLU LP, 89.3 -> 88.7 ms with the
same iterations; every objective within 1.2e-13 relative.  That LP's
link rows hold c_l / c_max, down to ``evaluate._SMALL_CAPACITY``; its
tests check it against stage 1's LP on links of 1.5e-8 to 5e-8 of the
largest.  ``evaluate.ideal_toe_mlu`` solves no LP; stage 1's, its test
oracle, is "maxmin-throughput".  Stage 3 is the one family that lost on
some seeds, by under 4 %, so one setting serves all.  Round-saturated's
roundings were bit-identical on seeds 1-5.

``evaluate.optimal_routing_mlu``'s min-MLU LP needs no entry: each of its
solves starts from a basis, with which HiGHS skips presolve.  An IPM
solve's ``LpSolution.nit`` is its IPM iterations, not crossover's, or
the simplex iterations when simplex finished from crossover's basis.

Crossover keeps every stage output a vertex, but another method, or
presolve, can end on another optimal vertex (ROADMAP item 3).  mu, beta,
a slack and an integral subproblem vertex are the same at every one.  On
the 24 plan-mix days of seeds 1-3, 5, 501 and 502 the rounded topology
was the same as with dual simplex and presolve on throughout, and the
routing recomputed on it moved plan-mix throughput per plan by -1.3 % to
+2.1 %.  The boundedness witness was identical with presolve on and off
on the 288 replay matrices of perfbench seeds 0-5.  The mesh baseline's
weights, which ``couder evaluate --baseline mesh`` scores, come from
``optimize.recompute_routing(..., desensitized=False)``: stage 3 on the
MLU that stage 1 gives, so their AHC is the fewest hops at that MLU
whatever vertex stage 1 ends on.

A solve is cold unless it is given a basis; from one, HiGHS starts at
that vertex and skips presolve.  An ``LpModel`` keeps one start basis,
a ``HighsBasis`` or None, with the model's size when it was set, and
three rules govern it:

- a solve leaves its optimal basis there, or None when it ends
  otherwise;
- ``set_basis`` replaces it, None making the next solve cold;
- nothing else touches it: no edit reads or writes it.

Columns and rows added since the basis was set are the one thing a
solve pads it for, told by the size kept with it: a new column enters
nonbasic at a finite bound and a new row basic, after the rows before
it.  Only then does a solve read the basis's statuses across the
binding (0.41 ms for stage 2's at N = 8); the basis object, which a
solution may hold, is never changed.  A change of ``scale``,
``set_objective``, ``set_bounds`` and ``set_rhs`` keep every status, so
a caller whose solves must each start from one point, whatever the
solves before them ended on, hands that basis to ``set_basis`` before
each: ``start_basis`` builds one from basic columns and basic
``add_rows`` blocks, mapped to HiGHS's rows.  ``set_rhs`` replaces one
block's right-hand side in place on the assembled rows, so a model
re-solved for many right-hand sides is built and assembled once.
``traffic.check_bounded`` hands ``set_basis`` None, and ``evaluate``'s
min-MLU LP its direct-routing basis, which is dual feasible for every
right-hand side.  Over the 48 held-out matrices
of perfbench's replay seed 1 on its mesh (best of 5 runs, same machine),
the kept assembly and that start basis together took the LP from 97.9
to 27.0 dual simplex iterations and from 1.35 to 0.84 ms per solve; each
MLU stayed within 3.6e-16 relative of the cold solve's.

Each ``couder`` command runs in a fresh interpreter, so import time is
paid once per planning step.  ``import scipy.optimize._highspy._core``
would first run ``scipy/optimize/__init__.py``, which imports
``scipy.sparse``, ``scipy.linalg`` and the rest of scipy.optimize: about
0.5 s, two thirds of a fresh ``import couder``.  ``_load_highs`` instead
loads the extension file found under scipy's package directory, in about
6 ms, without running any package init above it, and registers it under
its own name, where a later ``import scipy.optimize`` finds it.  The row
matrices are ``_Csr``, this module's own CSR container, so nothing here
needs ``scipy.sparse``.  Median wall time of a fresh interpreter over 9
runs on a shared 2-vCPU Xeon: ``import couder, couder.cli`` 0.68 ->
0.21 s, ``couder --help`` 0.73 -> 0.18 s, where ``import numpy`` alone
takes 0.15 s.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InternalError, InvalidInputError, SolverLimitError

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS extension module, run without the package inits above
    it: the one in ``sys.modules`` if there is one, else the file found
    under scipy's package directory, registered under its own name before
    it runs.  A later ``import scipy.optimize`` then finds this object; a
    pybind11 module cannot be loaded twice.  Raises ImportError, naming the
    scipy version, when there is no such file."""
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        _HIGHS_MODULE, [os.path.join(path, "optimize", "_highspy")
                        for path in scipy.submodule_search_locations or ()])
    if spec is None:
        from importlib import metadata
        try:
            version = "scipy " + metadata.version("scipy")
        except metadata.PackageNotFoundError:
            version = "no scipy installed"
        raise ImportError(f"HiGHS binding {_HIGHS_MODULE} not found"
                          f" ({version}); couder needs scipy>=1.15")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    return module


_highs = _load_highs()
#: The HiGHS object every solve runs on; see the module docstring.
_solver = _highs._Highs()
_BASIC = _highs.HighsBasisStatus.kBasic

#: The residual scipy's ``linprog`` allowed an optimal vertex.
_RESIDUAL_TOL = math.sqrt(1e-9) * 10

LE, EQ, GE = "<=", "==", ">="
#: The rows of ``_Assembly.bounds``, 0 the lower bound and 1 the upper,
#: that a row's right-hand side sets, by relation.
_BOUND_ROWS = {LE: [1], EQ: [0, 1], GE: [0]}


class _Block(NamedTuple):
    """Rows added in one call: (row, column, value) triplets, the rows
    numbered from 0 within the block, and one right-hand side per row."""

    relation: str
    terms: tuple  # (rows, cols, coefs) arrays
    scaled: Optional[tuple]  # the same for the scaled terms, or None
    rhs: np.ndarray


class _Csr:
    """A sparse matrix in CSR form: row r holds ``data[k]`` in column
    ``indices[k]`` for k in ``range(indptr[r], indptr[r + 1])``."""

    def __init__(self, data: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray, shape: tuple):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = shape

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @functools.cached_property
    def _row(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with the vector ``x``.  Each row sums its entries'
        products from 0.0 in row order, as scipy's ``csr_matvec`` does, so
        the result is the bits ``scipy.sparse`` gives."""
        return np.bincount(self._row, self.data * x[self.indices],
                           self.shape[0])


class _Assembly(NamedTuple):
    """A model as the array ``passModel`` takes it: the cost, and the
    rows row-wise in the order ``add_rows`` added them, each row one
    range of its two bounds.  ``matrix`` and ``bounds`` are the arrays
    HiGHS receives and the ones ``solve`` checks the vertex against;
    ``matrix.data`` is ``fixed`` + ``scale`` * ``scaled.data``, or
    ``fixed`` when the model has no scaled terms."""

    cost: np.ndarray
    matrix: _Csr  # int32 indptr and indices
    fixed: np.ndarray
    scaled: Optional[_Csr]  # the scaled values on the same pattern
    bounds: np.ndarray  # the row lower bounds, then the upper ones


class LpModel:
    """Incrementally built LP: bounded columns, linear rows, objective.

    Rows live in one store of blocks, one block per ``add_rows`` call.
    Assembly stacks the blocks in the order they were added.

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
        self._lb = self._ub = np.zeros(0)
        self._blocks = []
        self._sense = "min"
        self._objective = (np.zeros(0, dtype=int), np.zeros(0))  # cols, coefs
        self._assembled = None
        self._formed = None  # the scale the scaled values are formed at
        self._basis = None  # the next solve's start, a HighsBasis or None
        self._basis_size = (0, 0)  # the (columns, rows) it covers

    @property
    def num_variables(self) -> int:
        return len(self._lb)

    def add_vars(self, count: int, lb=0.0, ub=None) -> np.ndarray:
        """Declare ``count`` columns, bounds broadcast from ``lb`` and
        ``ub`` (None is unbounded); returns their column indices."""
        start = len(self._lb)
        lbs, ubs = _bounds(count, lb, ub)
        self._lb = np.concatenate([self._lb, lbs])
        self._ub = np.concatenate([self._ub, ubs])
        self._assembled = None
        return np.arange(start, start + count)

    def set_bounds(self, cols, lb=0.0, ub=None):
        """Give the columns ``cols`` the bounds ``lb`` and ``ub``, broadcast
        as ``add_vars`` takes them."""
        cols = _indices(cols)
        self._check_cols(cols)
        lbs, ubs = _bounds(len(cols), lb, ub)
        self._lb, self._ub = self._lb.copy(), self._ub.copy()
        self._lb[cols], self._ub[cols] = lbs, ubs

    def set_basis(self, basis):
        """Start the next solve from ``basis``, a ``HighsBasis`` of this
        model as it stands (an ``LpSolution.basis`` or ``start_basis``),
        or cold when None."""
        self._basis = basis
        self._basis_size = (self.num_variables,
                            sum(len(blk.rhs) for blk in self._blocks))

    def _check_cols(self, cols: np.ndarray):
        if len(cols) and (cols.min() < 0 or cols.max() >= self.num_variables):
            raise InvalidInputError("column index out of range")

    def add_rows(self, rows, cols, coefs, relation: str, rhs,
                 scaled=None) -> int:
        """Add ``len(rhs)`` rows as one block; returns the block's index,
        which ``set_rhs`` takes.

        Row r reads ``sum(coefs[t] * x[cols[t]] for t with rows[t] == r)
        relation rhs[r]``.  The triplets ``scaled`` = (rows, cols, coefs),
        when given, add terms whose coefficients are multiplied by
        ``scale``.
        """
        if relation not in _BOUND_ROWS:
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
        self._assembled = None
        return len(self._blocks) - 1

    def set_rhs(self, block: int, rhs):
        """Replace the right-hand side of the block ``add_rows`` numbered
        ``block`` by ``rhs``, of the same length.  An assembled model takes
        the new values in place as the row bounds it hands HiGHS: the upper
        bounds of a <= block, the lower ones of a >= block and both of an
        equality block."""
        if not 0 <= block < len(self._blocks):
            raise InvalidInputError(f"no row block {block}")
        blk = self._blocks[block]
        rhs = np.array(rhs, dtype=float, ndmin=1)
        if rhs.shape != blk.rhs.shape:
            raise InvalidInputError(f"{rhs.size} right-hand sides for a"
                                    f" block of {len(blk.rhs)} rows")
        self._blocks[block] = blk._replace(rhs=rhs)
        if self._assembled is not None:
            first = sum(len(other.rhs) for other in self._blocks[:block])
            self._assembled.bounds[_BOUND_ROWS[blk.relation],
                                   first:first + len(rhs)] = rhs

    def start_basis(self, cols, blocks) -> _highs.HighsBasis:
        """The basis of this model as it stands in which the columns
        ``cols`` and every row of the blocks ``blocks`` (as ``add_rows``
        numbered them) are basic, every other column is at its lower
        bound, which must be finite, and every other row at its right-hand
        side; for ``set_basis``.  The caller vouches that it is
        nonsingular."""
        cols = _indices(cols)
        self._check_cols(cols)
        basic_col = np.zeros(self.num_variables, dtype=bool)
        basic_col[cols] = True
        status, blocks = _highs.HighsBasisStatus, set(blocks)
        # A nonbasic row is at the bound its right-hand side sets.
        at_rhs = {LE: status.kUpper, EQ: status.kUpper, GE: status.kLower}
        row_status = []
        for block, blk in enumerate(self._blocks):
            at = _BASIC if block in blocks else at_rhs[blk.relation]
            row_status += [at] * len(blk.rhs)
        if basic_col.sum() + row_status.count(_BASIC) != len(row_status):
            raise InvalidInputError("a basis has one basic column or row per"
                                    " row")
        if not np.isfinite(self._lb[~basic_col]).all():
            raise InvalidInputError("a nonbasic column needs a finite lower"
                                    " bound")
        return _highs_basis([_BASIC if basic else status.kLower
                             for basic in basic_col.tolist()], row_status)

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
        self._assembled = None

    def _assembly(self) -> _Assembly:
        """The model's ``_Assembly`` at the current ``scale``.  It is
        assembled once after ``add_vars``, ``add_rows`` or
        ``set_objective``; a model with scaled terms re-forms its matrix
        values in place when ``scale`` changed."""
        if self._assembled is None:
            self._assembled = _assemble(self)
            self._formed = None
        asm = self._assembled
        if self.scale != self._formed and asm.scaled is not None:
            self._formed = self.scale  # a NaN scale is formed every time
            # _run_highs refuses non-finite values; forming them is quiet.
            with np.errstate(invalid="ignore", over="ignore"):
                asm.matrix.data[:] = asm.fixed + self.scale * asm.scaled.data
        return asm


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


def _bounds(count: int, lb, ub) -> tuple:
    """(lower, upper) bounds of ``count`` columns, broadcast from ``lb`` and
    ``ub``, None being unbounded."""
    lbs, ubs = (np.broadcast_to(np.asarray(default if bound is None
                                           else bound, dtype=float), count)
                for bound, default in ((lb, -np.inf), (ub, np.inf)))
    if (lbs > ubs).any():
        raise InvalidInputError("variable has lb > ub")
    return lbs, ubs


def _nonbasic(lbs: np.ndarray, ubs: np.ndarray) -> list:
    """The status of a nonbasic column with each pair of bounds: at the
    lower bound when it is finite, else at the upper one, else at zero."""
    status = _highs.HighsBasisStatus
    return [status.kLower if lb > -np.inf else status.kUpper
            if ub < np.inf else status.kZero
            for lb, ub in zip(lbs.tolist(), ubs.tolist())]


def _highs_basis(col_status: list, row_status: list) -> _highs.HighsBasis:
    """A valid ``HighsBasis`` of these statuses."""
    basis = _highs.HighsBasis()
    basis.col_status, basis.row_status = col_status, row_status
    basis.valid, basis.alien = True, False
    return basis


def _assemble(model: LpModel) -> _Assembly:
    """The ``_Assembly`` of ``model``, its scaled values not yet formed:
    the blocks stacked in the order added, each moved down past the rows
    before it, and each row's right-hand side the bound or bounds its
    relation sets.

    The pattern holds every (row, column) with a nonzero fixed or scaled
    value.  Triplets on one (row, column) are summed in the order given,
    each part on its own, and zero values are dropped.  ``scipy.sparse``
    sums such duplicates in the same order within a row of up to 16
    entries, so up to there the values equal those of a CSR matrix built
    per part.
    """
    num_cols, blocks = model.num_variables, model._blocks
    offsets = np.cumsum([0] + [len(blk.rhs) for blk in blocks])
    keys, values = [np.zeros(0, dtype=int)], [np.zeros((0, 2))]
    for part in (0, 1):  # the fixed terms, then the scaled ones
        for blk, offset in zip(blocks, offsets):
            terms = blk.scaled if part else blk.terms
            if terms is None:
                continue
            rows, cols, coefs = terms
            keys.append((rows + offset) * num_cols + cols)
            vals = np.zeros((len(rows), 2))
            vals[:, part] = coefs
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
    num_rows = int(offsets[-1])
    start = np.concatenate([[0], np.cumsum(np.bincount(
        key // num_cols, minlength=num_rows))]).astype(np.int32)
    index = (key % num_cols).astype(np.int32)
    shape = (num_rows, num_cols)
    bounds = np.repeat([[-np.inf], [np.inf]], num_rows, axis=1)
    for blk, offset in zip(blocks, offsets):
        bounds[_BOUND_ROWS[blk.relation], offset:offset + len(blk.rhs)] \
            = blk.rhs
    cost = np.zeros(num_cols)
    np.add.at(cost, *model._objective)
    return _Assembly((-1.0 if model._sense == "max" else 1.0) * cost,
                     _Csr(fixed.copy(), index, start, shape), fixed,
                     _Csr(scaled, index, start, shape) if scaled.any()
                     else None, bounds)


_STATUS = _highs.HighsModelStatus


def _highs_options(**extra) -> _highs.HighsOptions:
    """HiGHS options: dual simplex, presolve on and no output, as scipy's
    ``linprog`` set them, and the simplex unscaled (see the module
    docstring), plus ``extra`` by option name."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = 1  # dual
    options.simplex_scale_strategy = 0
    options.output_flag = False
    options.log_to_console = False
    for name, value in extra.items():
        setattr(options, name, value)
    return options


_OPTIONS = _highs_options()
#: Presolve off, for the families whose LPs it removes nothing from.
_PRESOLVE_OFF = _highs_options(presolve="off")
#: Presolve off and Dantzig pricing, for the cold dual simplex stage LPs.
_COLD_DUAL = _highs_options(presolve="off",
                            simplex_dual_edge_weight_strategy=0)
#: HiGHS's default feasibility tolerances (1e-7) would ignore the LDM
#: subproblem's tie reward of at most 1e-9 toward more links; these
#: resolve it.
_HIGHS_TIGHT = {"dual_feasibility_tolerance": 1e-10,
                "primal_feasibility_tolerance": 1e-10}
#: HiGHS options by LP family, the ``LpModel.name``; every other family
#: runs with ``_OPTIONS``, and so does a solve from a basis of a family
#: that runs IPM.  See the module docstring for the measurements.
_FAMILY_OPTIONS = {
    "maxmin-throughput": _COLD_DUAL,
    "fixed-throughput": _COLD_DUAL,
    "desensitize": _highs_options(solver="ipm", run_crossover="on"),
    "desensitize-late": _highs_options(
        simplex_dual_edge_weight_strategy=1),  # Devex
    "fixed-desensitize": _COLD_DUAL,
    "boundedness": _PRESOLVE_OFF,
    "ldm-subproblem": _highs_options(solver="simplex", presolve="off",
                                     **_HIGHS_TIGHT),
    "minimize-ahc-warm": _highs_options(simplex_strategy=4,  # primal
                                        primal_feasibility_tolerance=1e-8),
}


@dataclass
class LpSolution:
    """One LP solve, as ``_run_highs`` builds it for the minimization
    HiGHS solves.  All but ``status`` and ``nit`` are set at an optimum
    only; the objective is NaN when infeasible and +inf when unbounded."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None  # the vertex by column
    objective_value: float = math.nan
    #: d(objective)/d(``model.scale``) at an optimum; 0 without scaled terms.
    slope: float = 0.0
    row_dual: Optional[np.ndarray] = None
    #: Simplex iterations; after IPM and crossover, the IPM iterations
    #: unless simplex finished from crossover's basis.
    nit: int = 0
    basis: Optional[_highs.HighsBasis] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


#: The array ``passModel``'s matrix format and objective sense arguments.
_COLWISE = int(_highs.MatrixFormat.kColwise)
_ROWWISE = int(_highs.MatrixFormat.kRowwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
#: The (solver, options) pair ``_run_highs`` last passed options for.
_passed = (None, None)


def _run_highs(model: tuple, options: _highs.HighsOptions, basis=None,
               vertex_only=False) -> LpSolution:
    """Solve ``model`` on ``_solver`` from ``basis`` when one is given.
    ``model`` is the arguments of the binding's array ``passModel`` as a
    tuple: (num_col, num_row, num_nz, format, sense, offset, cost,
    col_lower, col_upper, row_lower, row_upper, start, index, value,
    integrality), format and sense as ints and the arrays float64, but
    start, index and integrality int32.  ``start`` has one entry per row
    and one more in ``_ROWWISE`` format, per column and one more in
    ``_COLWISE``.  The binding reads those arrays through bare pointers,
    so an array whose length does not match the sizes given is
    InternalError here.  With ``vertex_only`` the result holds the status
    and, at an optimum, the vertex: no row duals, basis, objective or
    iteration count, for a caller that reads none.

    ``passModel`` clears whatever ``_solver`` held, so a solve without a
    basis is cold.  A non-finite cost or matrix value, a NaN bound, or a
    row without a finite bound (what an infinite right-hand side becomes)
    is InternalError, as scipy's ``linprog`` refused such data.  HiGHS
    reads a bound of magnitude ``infinite_bound`` (1e20) or more as
    infinite, so a finite row or column bound that large is
    InvalidInputError here; so is a model HiGHS refuses, which only a
    matrix entry of magnitude ``large_matrix_value`` (1e15) or more can
    cause.  A basis HiGHS refuses is InternalError, not a cold solve.
    Model statuses map as scipy's ``linprog`` mapped them: anything but
    optimal, infeasible or unbounded, "unbounded or infeasible" included,
    raises SolverLimitError.
    """
    global _passed
    num_col, num_row, num_nz, matrix_format = model[:4]
    num_start = num_row if matrix_format == _ROWWISE else num_col
    if tuple(map(len, model[6:])) != (num_col, num_col, num_col, num_row,
                                      num_row, num_start + 1, num_nz,
                                      num_nz, num_col):
        raise InternalError("HiGHS model arrays do not match its sizes")
    # The cost and matrix values, then the column and row bounds.
    magnitude = np.abs(np.concatenate((model[6], model[13]) + model[7:11]))
    finite, data = magnitude < np.inf, num_col + num_nz
    row_bounded = finite[data + 2 * num_col:].reshape(2, num_row).any(0)
    if not (finite[:data].all() and row_bounded.all()) \
            or np.isnan(magnitude[data:]).any():
        raise InternalError("LP data is not finite")
    if magnitude[data:].max(initial=0.0, where=finite[data:]) \
            >= options.infinite_bound:
        raise InvalidInputError(
            "input too large for the LP solver: every right-hand side must"
            f" be below {options.infinite_bound:g} in magnitude")
    if _passed[0] is not _solver or _passed[1] is not options:
        _solver.passOptions(options)
        _passed = (_solver, options)
    if _solver.passModel(*model) == _highs.HighsStatus.kError:
        raise InvalidInputError(
            "input too large for the LP solver: every constraint coefficient"
            f" must be below {options.large_matrix_value:g} in magnitude")
    if basis is not None \
            and _solver.setBasis(basis) == _highs.HighsStatus.kError:
        raise InternalError("HiGHS refused the basis")
    ran = _solver.run() != _highs.HighsStatus.kError
    status = _solver.getModelStatus()
    if vertex_only and status == _STATUS.kOptimal and ran:
        return LpSolution("optimal",
                          np.array(_solver.getSolution().col_value))
    info = _solver.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if status == _STATUS.kOptimal and ran:
        sol = _solver.getSolution()
        return LpSolution("optimal", np.array(sol.col_value),
                          info.objective_function_value,
                          row_dual=np.array(sol.row_dual), nit=nit,
                          basis=_solver.getBasis())
    if status in (_STATUS.kInfeasible, _STATUS.kModelError):
        return LpSolution("infeasible", nit=nit)
    if status == _STATUS.kUnbounded:
        return LpSolution("unbounded", objective_value=math.inf, nit=nit)
    raise SolverLimitError("solver did not converge: "
                           + _solver.modelStatusToString(status))


def linprog(c, A_ub=None, A_eq=None, *, highs_lp, options=_OPTIONS,
            basis=None) -> LpSolution:
    """``_run_highs(highs_lp, options, basis)``: the one call into HiGHS
    for an ``LpModel``, kept as the seam ``perfbench``'s tracer wraps.
    ``c`` is the cost, and ``A_ub`` every row of ``highs_lp``, whatever
    its relation, as one ``_Csr``; ``A_eq`` is left None.
    Nothing here reads them: they exist for the tracer, which adds up the
    rows and entries of both, until it reads spans instead (ROADMAP item
    1(b))."""
    return _run_highs(highs_lp, options, basis)


def solve(model: LpModel) -> LpSolution:
    """Optimize the model; raises SolverLimitError on solver breakdown.

    Returns ``linprog``'s record in the model's sense: a "max" model's
    objective, slope and duals change sign.  A model without an objective
    is a feasibility check.  At an optimum ``row_dual`` holds
    y_i = d(objective)/d(rhs_i) for each row i, in the order ``add_rows``
    added the rows, each row in its own relation.  ``slope``, by the
    envelope theorem, is -sum_i y_i (A_scaled x)_i, the objective's slope
    in ``model.scale``.  The optimal basis, or None when the solve ends
    otherwise, becomes the model's start basis, padded at the next solve
    for what was added since (see the module docstring).  A model without
    columns is InvalidInputError.

    Like scipy's ``linprog`` it raises SolverLimitError on an optimal
    vertex that misses a column bound or the row bounds HiGHS was given by
    more than sqrt(1e-9) * 10, or whose objective is not finite.
    """
    if model.num_variables == 0:
        raise InvalidInputError("an LP needs at least one column")
    asm = model._assembly()
    A, n = asm.matrix, model.num_variables
    basis, (cols, rows) = model._basis, model._basis_size
    if basis is not None and (cols, rows) != (n, A.shape[0]):
        # Columns added since enter nonbasic at a finite bound, rows basic.
        basis = _highs_basis(
            basis.col_status + _nonbasic(model._lb[cols:], model._ub[cols:]),
            basis.row_status + [_BASIC] * (A.shape[0] - rows))
    options = _FAMILY_OPTIONS.get(model.name, _OPTIONS)
    if basis is not None and options.solver == "ipm":
        options = _OPTIONS  # IPM would drop the basis; dual simplex keeps it
    res = linprog(asm.cost, A_ub=A, options=options, basis=basis,
                  highs_lp=(n, A.shape[0], A.nnz, _ROWWISE, _MINIMIZE, 0.0,
                            asm.cost, model._lb, model._ub, *asm.bounds,
                            A.indptr, A.indices, A.data,
                            np.zeros(n, dtype=np.int32)))
    model.set_basis(res.basis)
    if res.optimal:
        x, tol = res.x, _RESIDUAL_TOL
        row = A @ x
        if not (np.all(x >= model._lb - tol) and np.all(x <= model._ub + tol)
                and np.all(row >= asm.bounds[0] - tol)
                and np.all(row <= asm.bounds[1] + tol)
                and np.isfinite(res.objective_value)):
            raise SolverLimitError("solver returned a vertex outside the"
                                   " feasible set")
        if asm.scaled is not None:
            res.slope = -float(res.row_dual @ (asm.scaled @ x))
        if model._sense == "max":
            res.slope = -res.slope
            res.objective_value = -res.objective_value
            res.row_dual = -res.row_dual
    return res
