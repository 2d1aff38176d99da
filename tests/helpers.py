"""Shared instance generators and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from couder import lp
from couder.model import (FractionalTopology, PhysicalTopology, TrafficMatrix)
from couder.optimize import BETA_CAP, _StageBuilder, _dname, _pairs, _wname
from couder.traffic import CriticalSet


def make_fabric(n: int, m: int, ports_per_switch, bandwidth: float = 1.0
                ) -> PhysicalTopology:
    """Symmetric fabric: every pod exposes the same port count to each switch."""
    q = np.broadcast_to(np.asarray(ports_per_switch, dtype=int), (n,))
    h = np.tile(q, (m, 1))
    return PhysicalTopology(n, m, h, h.copy(), bandwidth)


def random_fabric(rng: np.random.Generator, n: int, m: int,
                  qmin: int = 2, qmax: int = 8,
                  bandwidth: float = 1.0) -> PhysicalTopology:
    q = rng.integers(qmin, qmax + 1, size=n)
    return make_fabric(n, m, q, bandwidth)


def random_tm(rng: np.random.Generator, n: int, scale: float = 10.0
              ) -> TrafficMatrix:
    t = rng.uniform(0.0, scale, size=(n, n))
    np.fill_diagonal(t, 0.0)
    return TrafficMatrix(t)


def random_criticals(rng: np.random.Generator, n: int, k: int,
                     scale: float = 10.0) -> CriticalSet:
    return CriticalSet(tuple(random_tm(rng, n, scale) for _ in range(k)))


def hetero_fabric(rng: np.random.Generator, n: int, m: int,
                  qmin: int = 2, qmax: int = 8,
                  bandwidth: float = 1.0) -> PhysicalTopology:
    """Heterogeneous striping: random per-switch egress counts, ingress a
    random composition of each switch's total (at least one per pod)."""
    h_eg = rng.integers(qmin, qmax + 1, size=(m, n))
    h_ig = np.zeros_like(h_eg)
    for sw in range(m):
        total = int(h_eg[sw].sum())
        h_ig[sw] = rng.multinomial(total - n, np.full(n, 1.0 / n)) + 1
    return PhysicalTopology(n, m, h_eg, h_ig, bandwidth)


def random_fractional(rng: np.random.Generator, phys: PhysicalTopology,
                      fill: float = 0.95) -> FractionalTopology:
    """Random d scaled toward the fabric's degree bounds.

    Throughput-optimal fractional topologies use nearly all of every pod's
    degree budget, so realistic rounding inputs are degree-saturated.
    """
    n = phys.num_pods
    d = rng.uniform(0.2, 3.0, size=(n, n))
    np.fill_diagonal(d, 0.0)
    r_eg = phys.egress_radix.astype(float)
    r_ig = phys.ingress_radix.astype(float)
    for _ in range(60):
        rows = d.sum(axis=1)
        d *= np.where(rows > 0, fill * r_eg / np.maximum(rows, 1e-12),
                      1.0)[:, None]
        cols = d.sum(axis=0)
        over = cols > fill * r_ig
        d[:, over] *= (fill * r_ig[over] / cols[over])[None, :]
    np.fill_diagonal(d, 0.0)
    return FractionalTopology(np.clip(d, 0.0, None))


def random_mesh_topology(rng: np.random.Generator, n: int, uplinks: int
                         ) -> np.ndarray:
    """Sum of ``uplinks`` random self-loop-free matchings: X with all row
    and column sums equal to ``uplinks``."""
    X = np.zeros((n, n), dtype=int)
    for _ in range(uplinks):
        perm = rng.permutation(n)
        # Repair fixed points by rotating them amongst themselves.
        fixed = np.nonzero(perm == np.arange(n))[0]
        if len(fixed) == 1:
            other = (fixed[0] + 1) % n
            perm[fixed[0]], perm[other] = perm[other], perm[fixed[0]]
        elif len(fixed) > 1:
            perm[fixed] = np.roll(perm[fixed], 1)
        X[np.arange(n), perm] += 1
    return X


def brute_force_unit_flow(cost: np.ndarray, budgets: np.ndarray,
                          limits: np.ndarray):
    """Least cost . f over f in {0, 1}^m with budgets @ f <= limits.

    Returns None when no such f exists.
    """
    flows = np.array(list(itertools.product((0, 1), repeat=len(cost))))
    fits = (flows @ budgets.T <= limits + 1e-9).all(axis=1)
    if not fits.any():
        return None
    return float((flows[fits] @ cost).min())


def random_window_instance(rng: np.random.Generator, n: int):
    """Random h, p_net, port budgets and an x̂ that fits the budgets."""
    egress = rng.integers(1, 4, size=n)
    ingress = rng.integers(1, 4, size=n)
    h = rng.integers(0, 4, size=(n, n))
    p_net = rng.normal(0.0, 2.0, size=(n, n))
    x_hat = np.zeros((n, n), dtype=int)
    eg_left, ig_left = egress.copy(), ingress.copy()
    for _ in range(3 * n):
        i, j = rng.integers(n, size=2)
        if i != j and eg_left[i] and ig_left[j]:
            x_hat[i, j] += 1
            eg_left[i] -= 1
            ig_left[j] -= 1
    return h, p_net, x_hat, ingress, egress


def window_utility(x: np.ndarray, h: np.ndarray, p_net: np.ndarray) -> float:
    """Per-switch LDM utility: sum of -(x - h)^2 + p_net * x off the diagonal."""
    off = ~np.eye(len(h), dtype=bool)
    return float((-(x - h) ** 2 + p_net * x)[off].sum())


def brute_force_window_max(h, p_net, x_hat, ingress, egress) -> float:
    """Best utility over every assignment in the window that fits the ports."""
    n = len(h)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    ranges = [np.arange(max(x_hat[i, j] - 1, 0), x_hat[i, j] + 2)
              for i, j in zip(rows, cols)]
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1)
    cells = grid.reshape(-1, len(rows))
    eg_use = np.stack([cells[:, rows == i].sum(axis=1) for i in range(n)], 1)
    ig_use = np.stack([cells[:, cols == j].sum(axis=1) for j in range(n)], 1)
    fits = (eg_use <= egress).all(axis=1) & (ig_use <= ingress).all(axis=1)
    cells = cells[fits]
    h_off, p_off = h[rows, cols], p_net[rows, cols]
    return float((-(cells - h_off) ** 2 + p_off * cells).sum(axis=1).max())


def convex_combination(rng: np.random.Generator, crit: CriticalSet
                       ) -> TrafficMatrix:
    """Random demand inside the critical set: lambda >= 0, sum lambda <= 1."""
    k = len(crit)
    lam = rng.dirichlet(np.ones(k)) * rng.uniform(0.0, 1.0)
    t = np.tensordot(lam, crit.stacked(), axes=1)
    np.fill_diagonal(t, 0.0)
    return TrafficMatrix(t)


def feasible_at_beta(builder, mu_star: float, beta: float) -> bool:
    """Whether stage 2's rows admit weights at this beta: one feasibility
    LP built from scratch, the caps written with beta as a constant."""
    model = builder.new_model("oracle", 1.0)
    builder.add_split_constraints(model, 1.0)
    builder.add_load_constraints(model, mu_star)
    for a, b in _pairs(builder.n):
        for p in builder.crossing[(a, b)]:
            if p not in builder.pair_paths.get((p.src, p.dst), ()):
                continue
            if builder.fixed is None:
                model.add_constraint({_wname(p): 1.0,
                                      _dname(a, b): -beta * builder.b},
                                     lp.LE, 0.0)
            else:
                model.add_constraint({_wname(p): 1.0}, lp.LE,
                                     beta * builder.b * builder.fixed[a, b])
    return lp.solve(model).optimal


def bisect_beta(phys: PhysicalTopology, crit: CriticalSet, mu_star: float,
                fixed=None, tol: float = 1e-3):
    """Smallest feasible beta by bisection from the bracket [0, 1], whose
    upper end doubles until feasible; stops at relative width ``tol``.
    None when no beta up to ``BETA_CAP`` is feasible."""
    builder = _StageBuilder(phys, crit, fixed=fixed)
    lo, hi = 0.0, 1.0
    while not feasible_at_beta(builder, mu_star, hi):
        lo, hi = hi, 2 * hi
        if hi > BETA_CAP:
            return None
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2
        if feasible_at_beta(builder, mu_star, mid):
            hi = mid
        else:
            lo = mid
    return hi
