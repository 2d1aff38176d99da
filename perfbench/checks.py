"""Output checks, computed apart from the program.

Every function here recomputes what it checks with the benchmark's own
numpy code, or with scipy ``linprog`` called directly, never through
``couder``.  Only the program's output containers are read: the arrays of
an ``IntegerTopology`` and the ``{Path: weight}`` map of a
``RoutingWeights``, whose paths expose ``src``, ``dst`` and ``via``.

Each ``check_*`` function returns a list of error strings; an empty list
means the output passed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

#: Relative tolerance for values that two LP solves must agree on.
LP_RTOL = 1e-6
#: Absolute slack allowed on a solved row (HiGHS feasibility is 1e-7).
ROW_ATOL = 1e-6
#: Convex combinations of the criticals checked per plan.
COMBINATIONS = 20


# -- paths and link loads ----------------------------------------------------

def candidate_paths(n: int) -> np.ndarray:
    """All 1- and 2-hop paths as rows (src, dst, via), via = -1 for direct."""
    rows = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rows.append((i, j, -1))
            rows.extend((i, j, k) for k in range(n) if k not in (i, j))
    return np.array(rows, dtype=int)


def path_links(paths: np.ndarray, n: int) -> sp.csr_matrix:
    """Link-path incidence, shape (n*n, len(paths)); link (a, b) is a*n+b."""
    src, dst, via = paths.T
    direct = via < 0
    cols = np.arange(len(paths))
    first = np.where(direct, src * n + dst, src * n + via)
    second = (via * n + dst)[~direct]
    rows = np.concatenate([first, second])
    cols = np.concatenate([cols, cols[~direct]])
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                         shape=(n * n, len(paths)))


def usable(paths: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Mask of paths whose every link has at least one circuit."""
    src, dst, via = paths.T
    direct = via < 0
    k = np.where(direct, dst, via)
    ok = X[src, k] > 0
    ok &= np.where(direct, True, X[k, dst] > 0)
    return ok


def has_path(X: np.ndarray) -> np.ndarray:
    """Mask of ordered pairs with a 1- or 2-hop path on X."""
    linked = X > 0
    return linked | (linked.astype(int) @ linked.astype(int) > 0)


def weight_table(weights: dict) -> tuple:
    """A routing's ``{Path: w}`` map as arrays (paths, w)."""
    paths = np.array([(p.src, p.dst, -1 if p.via is None else p.via)
                      for p in weights], dtype=int).reshape(-1, 3)
    return paths, np.array(list(weights.values()), dtype=float)


def link_loads(paths: np.ndarray, w: np.ndarray, demands: np.ndarray,
               n: int) -> np.ndarray:
    """Load on every link for each matrix of ``demands`` (B, n, n)."""
    carried = demands[:, paths[:, 0], paths[:, 1]] * w[None, :]
    return (path_links(paths, n) @ carried.T).T.reshape(-1, n, n)


def mlu(load: np.ndarray, capacity: np.ndarray) -> float:
    """Maximum link utilization; infinite when load meets a dead link."""
    dead = (capacity <= 0) & (load > 1e-12)
    if dead.any():
        return float("inf")
    live = capacity > 0
    return float((load[live] / capacity[live]).max(initial=0.0))


def hop_count(paths: np.ndarray, w: np.ndarray, demands: np.ndarray) -> float:
    """Demand-weighted average hop count of a routing over ``demands``."""
    hops = np.where(paths[:, 2] < 0, 1.0, 2.0)
    carried = demands[:, paths[:, 0], paths[:, 1]] * w[None, :]
    return float((carried * hops).sum() / carried.sum())


# -- reference throughput ----------------------------------------------------

def reference_mu(X: np.ndarray, demands: np.ndarray,
                 bandwidth: float = 1.0) -> float:
    """Max-min throughput over a fixed topology, solved apart from couder.

    Maximize mu such that one weight set routes mu * T for every T in
    ``demands`` over 1- and 2-hop paths of X: per demanded pair the path
    flows f_p sum to mu, and per matrix and link the carried load stays
    within bandwidth * X.  Returns 0 when a demanded pair has no path.
    """
    n = X.shape[0]
    peak = demands.max(axis=0)
    paths = candidate_paths(n)
    keep = usable(paths, X) & (peak[paths[:, 0], paths[:, 1]] > 0)
    paths = paths[keep]
    demanded = np.argwhere(peak > 0)
    pair_id = -np.ones((n, n), dtype=int)
    pair_id[demanded[:, 0], demanded[:, 1]] = np.arange(len(demanded))
    pid = pair_id[paths[:, 0], paths[:, 1]]
    if len(np.unique(pid)) < len(demanded):
        return 0.0
    P = len(paths)
    # Variables: f_0 .. f_{P-1}, mu.
    a_eq = sp.hstack([sp.csr_matrix((np.ones(P), (pid, np.arange(P))),
                                    shape=(len(demanded), P)),
                      sp.csr_matrix(-np.ones((len(demanded), 1)))])
    inc = path_links(paths, n)
    blocks = []
    for t in demands:
        blocks.append(inc @ sp.diags(t[paths[:, 0], paths[:, 1]]))
    a_ub = sp.vstack(blocks).tocsr()
    b_ub = np.tile(bandwidth * X.reshape(-1).astype(float), len(demands))
    rows = np.diff(a_ub.indptr) > 0
    a_ub = sp.hstack([a_ub[rows], sp.csr_matrix((int(rows.sum()), 1))])
    c = np.zeros(P + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub[rows], A_eq=a_eq,
                  b_eq=np.zeros(len(demanded)), bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP ended with status {res.status}")
    return float(-res.fun)


# -- topology checks ---------------------------------------------------------

def check_ports(x: np.ndarray, egress: np.ndarray,
                ingress: np.ndarray) -> list:
    """Per-switch port budgets: x[m] row sums <= egress[m], columns <= ingress[m]."""
    errors = []
    out_used, in_used = x.sum(axis=2), x.sum(axis=1)
    for m, i in np.argwhere(out_used > egress):
        errors.append(f"switch {m} pod {i}: {out_used[m, i]} egress links"
                      f" over {egress[m, i]} ports")
    for m, j in np.argwhere(in_used > ingress):
        errors.append(f"switch {m} pod {j}: {in_used[m, j]} ingress links"
                      f" over {ingress[m, j]} ports")
    if (x < 0).any():
        errors.append("negative circuit count")
    if any(np.diagonal(xm).any() for xm in x):
        errors.append("circuit from a pod to itself")
    return errors


def check_connected(X: np.ndarray, peak: np.ndarray) -> list:
    """Every demanded pair has a 1- or 2-hop path on X."""
    n = X.shape[0]
    stranded = (peak > 0) & ~has_path(X) & ~np.eye(n, dtype=bool)
    return [f"demanded pair ({i}, {j}) has no 1- or 2-hop path"
            for i, j in np.argwhere(stranded)]


def check_rounding(x: np.ndarray, d_star: np.ndarray, egress: np.ndarray,
                   ingress: np.ndarray) -> list:
    """Port budgets, X <= ceil(d*), and no pairable spare ports left.

    The last is the completion pass's guarantee: no switch has a spare
    egress port on pod i and a spare ingress port on pod j != i while
    X_ij < ceil(d*_ij).
    """
    errors = check_ports(x, egress, ingress)
    X = x.sum(axis=0)
    ceil = np.ceil(d_star - 1e-9)
    for i, j in np.argwhere(X > ceil):
        errors.append(f"pair ({i}, {j}): {X[i, j]} links above"
                      f" ceil(d*) = {ceil[i, j]:.0f}")
    n = X.shape[0]
    below = (X < ceil) & ~np.eye(n, dtype=bool)
    for m in range(x.shape[0]):
        spare_out = egress[m] - x[m].sum(axis=1) > 0
        spare_in = ingress[m] - x[m].sum(axis=0) > 0
        for i, j in np.argwhere(spare_out[:, None] & spare_in[None, :] & below):
            errors.append(f"switch {m} could still link pair ({i}, {j})")
    return errors


# -- routing checks ----------------------------------------------------------

def check_weights(paths: np.ndarray, w: np.ndarray, X: np.ndarray) -> list:
    """Weights >= 0, summing to 1 per pair, only on links with X > 0.

    Every ordered pair must carry weights.  A pair with no 1- or 2-hop path
    on X cannot avoid a dead link and is left to ``check_connected``.
    """
    n = X.shape[0]
    errors = []
    if (w < 0).any():
        errors.append("negative path weight")
    sums = np.zeros((n, n))
    np.add.at(sums, (paths[:, 0], paths[:, 1]), w)
    off = ~np.eye(n, dtype=bool)
    for i, j in np.argwhere(off & (np.abs(sums - 1.0) > ROW_ATOL)):
        errors.append(f"pair ({i}, {j}) weights sum to {sums[i, j]:.9f}")
    dead = (w > 0) & ~usable(paths, X) & has_path(X)[paths[:, 0], paths[:, 1]]
    for s, d, v in paths[dead]:
        errors.append(f"path {s}->{'' if v < 0 else f'{v}->'}{d} carries"
                      " weight over a link without circuits")
    return errors


def check_guarantee(paths: np.ndarray, w: np.ndarray, X: np.ndarray,
                    crit: np.ndarray, mu: float, rng: np.random.Generator,
                    bandwidth: float = 1.0) -> list:
    """mu times the load of every critical matrix, and of random convex
    combinations of them (lambda >= 0, sum lambda <= 1), fits in b * X."""
    lam = rng.dirichlet(np.ones(len(crit)), COMBINATIONS) \
        * rng.uniform(0.0, 1.0, (COMBINATIONS, 1))
    demands = np.concatenate([crit, np.tensordot(lam, crit, axes=1)])
    loads = mu * link_loads(paths, w, demands, X.shape[0])
    cap = bandwidth * X
    over = loads - cap[None] > ROW_ATOL * np.maximum(cap[None], 1.0)
    return [f"matrix {k}: link ({a}, {b}) load {loads[k, a, b]:.9g} over"
            f" capacity {cap[a, b]:.9g}" for k, a, b in np.argwhere(over)]


def check_sensitivity(paths: np.ndarray, w: np.ndarray, X: np.ndarray,
                      beta: float, bandwidth: float = 1.0) -> list:
    """Every path weight is at most beta * b * X on each link it crosses.

    A pair with no 1- or 2-hop path on X has no weight to cap; the program
    parks it on the dead direct link, and ``check_connected`` rejects it if
    the pair is demanded.
    """
    keep = has_path(X)[paths[:, 0], paths[:, 1]]
    paths, w = paths[keep], w[keep]
    src, dst, via = paths.T
    two = via >= 0
    a = np.concatenate([src, via[two]])
    b = np.concatenate([np.where(two, via, dst), dst[two]])
    ws = np.concatenate([w, w[two]])
    cap = beta * bandwidth * X[a, b]
    over = ws - cap > ROW_ATOL * np.maximum(cap, 1.0)
    return [f"weight {ws[p]:.9g} over the beta cap {cap[p]:.9g} on link"
            f" ({a[p]}, {b[p]})" for p in np.flatnonzero(over)]


def check_mu(mu: float, reference: float) -> list:
    """The program's mu equals the reference LP's within LP_RTOL."""
    if abs(mu - reference) > LP_RTOL * max(abs(reference), 1e-12):
        return [f"mu {mu:.12g} differs from the reference {reference:.12g}"]
    return []


# -- replay checks -----------------------------------------------------------

def check_witness(t: np.ndarray, crit: np.ndarray, lambdas: np.ndarray,
                  tol: float = ROW_ATOL) -> list:
    """A boundedness witness: lambda >= 0, sum lambda <= 1, T <= sum lambda T_k."""
    errors = []
    if (lambdas < -tol).any():
        errors.append("negative witness coefficient")
    if lambdas.sum() > 1.0 + tol:
        errors.append(f"witness coefficients sum to {lambdas.sum():.9g}")
    short = t - np.tensordot(lambdas, crit, axes=1)
    if short.max() > tol:
        errors.append(f"matrix exceeds the witness by {short.max():.9g}")
    return errors


def check_order(ideal: float, mesh: float, vlb: float) -> list:
    """ideal topology+routing <= optimal routing on the mesh <= VLB on it."""
    errors = []
    if ideal > mesh * (1 + LP_RTOL):
        errors.append(f"ideal MLU {ideal:.9g} above mesh optimum {mesh:.9g}")
    if mesh > vlb * (1 + LP_RTOL):
        errors.append(f"mesh optimum {mesh:.9g} above VLB {vlb:.9g}")
    return errors


def fat_tree_mlu(t: np.ndarray, uplinks: np.ndarray, bandwidth: float,
                 oversub: float) -> float:
    """Closed form of the oversubscribed fat tree: the busiest pod's
    max(sent, received) over its uplinks * b / oversub."""
    busiest = np.maximum(t.sum(axis=1), t.sum(axis=0))
    return float((busiest / (uplinks * bandwidth / oversub)).max())


def check_close(name: str, value: float, reference: float,
                rtol: float = 1e-9) -> list:
    if value == reference or abs(value - reference) <= rtol * abs(reference):
        return []
    return [f"{name} {value!r} differs from the benchmark's {reference!r}"]
