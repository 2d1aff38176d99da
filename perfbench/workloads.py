"""The benchmark's three closed-loop workloads.

``setup(seed)`` builds a workload's inputs and returns a ``Round``: the
operations one round runs, in order.  The loop in ``run.py`` repeats
whole rounds, times each operation, and then checks it.  Operations call
the program through module attributes (``optimize.run_pipeline``, not a
name bound at import), so the traced run's wrappers see every call.

Sizes are fixed here and not by the caller; ``run.py`` has no size flag.
The tests build the same workloads at smaller sizes through the keyword
arguments of each ``setup``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from couder import evaluate, optimize, round as rounding, traffic
from couder.model import (FractionalTopology, PhysicalTopology, TmSequence,
                          TrafficMatrix)

import checks
import inputs

#: Critical matrices per plan (ROADMAP grid).
K = 5
#: LDM iteration cap, the CLI default.
TAU = 50
#: Fat-tree oversubscription of the replay baseline.
OVERSUB = 2.0
#: Seconds of ``--seconds`` per round: a run makes round(--seconds / this)
#: whole rounds, whatever its operations take, so every run of a workload
#: repeats each operation equally often.  Each is about the round's time
#: on the machine in README.md, so that the timed work of a run takes
#: about ``--seconds``.
ROUND_SECONDS = {"plan-mix": 12.5, "round-saturated": 25.0, "replay": 2.0}


@dataclass
class Op:
    """One operation: ``run`` is timed; ``check`` and ``quality`` are not.

    ``check(out)`` returns error strings; ``quality(out)`` returns values
    of end-to-end quality metrics for this operation.
    """

    run: Callable[[], object]
    check: Callable[[object], list]
    quality: Callable[[object], dict]


@dataclass
class Round:
    ops: list
    #: Quality values fixed by set-up (one list entry per plan built there).
    fixed: dict = field(default_factory=dict)


@dataclass
class Plan:
    crit: traffic.CriticalSet
    frac: optimize.FractionalSolution
    report: rounding.RoundingReport
    routed: optimize.FractionalSolution


def _fabric(eg: np.ndarray, ig: np.ndarray) -> PhysicalTopology:
    return PhysicalTopology(eg.shape[1], eg.shape[0], eg, ig, 1.0)


def _sequence(mats: np.ndarray) -> TmSequence:
    return TmSequence(tuple(TrafficMatrix(t, timestamp=float(s))
                            for s, t in enumerate(mats)))


def make_plan(phys: PhysicalTopology, seq: TmSequence) -> Plan:
    """One daily planning job: criticals, three stages, LDM, re-routing."""
    crit = traffic.extract_critical(seq, K)
    frac = optimize.run_pipeline(phys, crit)
    report = rounding.ldm_round(phys, frac.d, TAU)
    routed = optimize.recompute_routing(phys, report.topo, crit)
    return Plan(crit, frac, report, routed)


def check_plan(phys: PhysicalTopology, plan: Plan,
               rng: np.random.Generator) -> list:
    """Every property the plan-mix satellite lists, recomputed apart."""
    b = phys.link_bandwidth
    x = plan.report.topo.x
    X = x.sum(axis=0)
    crit = plan.crit.stacked()
    paths, w = checks.weight_table(plan.routed.omega.weights)
    errors = checks.check_ports(x, phys.egress_ports, phys.ingress_ports)
    errors += checks.check_connected(X, crit.max(axis=0))
    errors += checks.check_weights(paths, w, X)
    errors += checks.check_mu(plan.routed.mu, checks.reference_mu(X, crit, b))
    errors += checks.check_guarantee(paths, w, X, crit, plan.routed.mu, rng, b)
    errors += checks.check_sensitivity(paths, w, X, plan.routed.beta, b)
    return errors


def plan_quality(phys: PhysicalTopology, plan: Plan,
                 history: np.ndarray) -> dict:
    """mu kept through rounding, AHC over the criticals, throughput over
    the planned day against the 2:1 fat tree, and the rounding's L1 gap."""
    b = phys.link_bandwidth
    X = plan.report.topo.X
    paths, w = checks.weight_table(plan.routed.omega.weights)
    loads = checks.link_loads(paths, w, history, X.shape[0])
    return {
        "mu_retained": plan.routed.mu / plan.frac.mu,
        "ahc": checks.hop_count(paths, w, plan.crit.stacked()),
        "throughput": float(np.mean([
            fat_tree_mlu(phys, t) / checks.mlu(ld, b * X)
            for t, ld in zip(history, loads)])),
        "l1_gap": float(np.abs(X - plan.frac.d.d).sum()),
    }


def fat_tree_mlu(phys: PhysicalTopology, t: np.ndarray) -> float:
    """MLU of the same traffic on the 2:1 fat tree with the fabric's
    uplinks, by the benchmark's closed form."""
    return checks.fat_tree_mlu(t, phys.egress_radix, phys.link_bandwidth,
                               OVERSUB)


# -- plan-mix ----------------------------------------------------------------

#: Sparse compute<->storage days, the same for every seed: day j is
#: ``inputs.storage_days`` drawn from ``default_rng([0, 5, j])``.  Stage 2
#: has raised on such days (see the desensitize line in CHANGES.md), and a
#: seeded storage day would let the share of failed operations hinge on
#: the seed.
STORAGE_STREAM = (0, 5)


def _plan_op(phys: PhysicalTopology, mats: np.ndarray, seed: int,
             idx: int) -> Op:
    seq = _sequence(mats)
    return Op(
        run=lambda: make_plan(phys, seq),
        check=lambda plan: check_plan(
            phys, plan, np.random.default_rng([seed, 2, idx])),
        quality=lambda plan: plan_quality(phys, plan, mats))


def setup_plan_mix(seed: int, n: int = 8, m: int = 4, ports: int = 4,
                   days: int = 2) -> Round:
    """``days`` seeded skewed-gravity days, then ``days`` fixed sparse
    compute<->storage days; one operation plans one day."""
    rng = np.random.default_rng([seed, 1])
    eg, ig = inputs.striping(n, m, ports)
    phys = _fabric(eg, ig)
    capacity = float(eg.sum())
    ops = [_plan_op(phys, inputs.gravity_days(rng, n, capacity), seed, idx)
           for idx in range(days)]
    for day in range(days):
        day_rng = np.random.default_rng([*STORAGE_STREAM, day])
        ops.append(_plan_op(phys, inputs.storage_days(day_rng, n, capacity),
                            seed, days + day))
    return Round(ops)


# -- round-saturated ---------------------------------------------------------

def rounding_quality(phys: PhysicalTopology, X: np.ndarray,
                     d: np.ndarray) -> dict:
    """Quality of an integer topology against its fractional target.

    With no traffic attached, d* itself is the demand X should carry.
    mu_retained is the max-min throughput of d* over X divided by that over
    d*; throughput is the former against the 2:1 fat tree's on d*; ahc is
    the least average hop count that carries d* over X at full rate
    (direct links carry at most X_ij of it).
    """
    mu_int = checks.reference_mu(X.astype(float), d[None])
    return {
        "mu_retained": mu_int / checks.reference_mu(d, d[None]),
        "ahc": 1.0 + float(np.maximum(d - X, 0.0).sum() / d.sum()),
        "throughput": mu_int * fat_tree_mlu(phys, d),
        "l1_gap": float(np.abs(X - d).sum()),
    }


def setup_round_saturated(seed: int, n: int = 8, m: int = 4,
                          ports: int = 4, targets: int = 16) -> Round:
    """``targets`` degree-saturated random d* (fill 0.95) on a uniformly
    striped fabric; one operation is one LDM run.

    The circulation work of a rounding differs from target to target, so
    a run rounds many targets once rather than a few several times: with
    3 targets per run the seed alone spread the rate by 0.12.

    Heterogeneous striping is left out: at this size LDM meets every
    bracket early on about 2 of 5 such targets, so the work per round
    would hinge on the seed (see README.md).
    """
    rng = np.random.default_rng([seed, 3])
    eg, ig = inputs.striping(n, m, ports)
    phys = _fabric(eg, ig)
    ops = []
    for _ in range(targets):
        d = inputs.saturated_target(rng, eg, ig)
        d_star = FractionalTopology(d)
        ops.append(Op(
            run=lambda d_star=d_star: rounding.ldm_round(phys, d_star, TAU),
            check=lambda rep, d=d: checks.check_rounding(rep.topo.x, d, eg, ig),
            quality=lambda rep, d=d: rounding_quality(phys, rep.topo.X, d)))
    return Round(ops)


# -- replay ------------------------------------------------------------------

@dataclass
class Scores:
    plan: evaluate.EvalRecord
    bounded: traffic.BoundednessResult
    mesh_mlu: float
    vlb_mlu: float
    fat_tree_mlu: float
    ideal_mlu: float


def score(phys: PhysicalTopology, plan: Plan, mesh, vlb,
          tm: TrafficMatrix) -> Scores:
    """Score one held-out matrix: the installed plan and every baseline."""
    b = phys.link_bandwidth
    return Scores(
        evaluate.evaluate_static(plan.report.topo, plan.routed.omega, tm, b),
        traffic.check_bounded(tm, plan.crit),
        evaluate.optimal_routing_mlu(mesh, tm, b),
        evaluate.evaluate_static(mesh, vlb, tm, b).mlu,
        evaluate.fat_tree_eval(tm, phys.egress_radix, b, OVERSUB).mlu,
        evaluate.ideal_toe_mlu(phys, tm))


def check_scores(phys: PhysicalTopology, plan: Plan, mesh_X: np.ndarray,
                 vlb_table: tuple, t: np.ndarray, s: Scores) -> list:
    b = phys.link_bandwidth
    n = t.shape[0]
    X = plan.report.topo.X
    paths, w = checks.weight_table(plan.routed.omega.weights)
    load = checks.link_loads(paths, w, t[None], n)[0]
    errors = checks.check_close("plan MLU", s.plan.mlu, checks.mlu(load, b * X))
    vlb_load = checks.link_loads(*vlb_table, t[None], n)[0]
    errors += checks.check_close("VLB MLU", s.vlb_mlu,
                                 checks.mlu(vlb_load, b * mesh_X))
    if s.bounded.bounded:
        crit = plan.crit.stacked()
        errors += checks.check_witness(t, crit, s.bounded.lambdas)
        # T <= sum(lambda T_k) + slack, so the guarantee holds up to the
        # load the slack adds: at most 2n paths per link, each slack-sized.
        limit = (1.0 + checks.LP_RTOL) / plan.routed.mu \
            + 2 * n * max(s.bounded.slack, 0.0) / (b * X[X > 0].min())
        if s.plan.mlu > limit:
            errors.append(f"bounded matrix has MLU {s.plan.mlu:.9g} above"
                          f" 1/mu = {1 / plan.routed.mu:.9g}")
    errors += checks.check_order(s.ideal_mlu, s.mesh_mlu, s.vlb_mlu)
    errors += checks.check_close("fat-tree MLU", s.fat_tree_mlu,
                                 fat_tree_mlu(phys, t))
    if not 1.0 <= s.plan.ahc <= 2.0:
        errors.append(f"AHC {s.plan.ahc} outside [1, 2]")
    return errors


def setup_replay(seed: int, n: int = 8, m: int = 4, ports: int = 4) -> Round:
    """Plan one skewed-gravity day, then replay the next day against the
    plan, one matrix per operation."""
    rng = np.random.default_rng([seed, 4])
    eg, ig = inputs.striping(n, m, ports)
    phys = _fabric(eg, ig)
    mesh = evaluate.uniform_mesh(phys)
    vlb = evaluate.vlb_weights(mesh)
    vlb_table = checks.weight_table(vlb.weights)
    mats = inputs.gravity_days(rng, n, float(eg.sum()), days=2)
    plan = make_plan(phys, _sequence(mats[:inputs.DAY]))
    fixed = {"mu_retained": [plan.routed.mu / plan.frac.mu],
             "l1_gap": [float(np.abs(plan.report.topo.X - plan.frac.d.d).sum())]}
    ops = []
    for t in mats[inputs.DAY:]:
        tm = TrafficMatrix(t)
        ops.append(Op(
            run=lambda tm=tm: score(phys, plan, mesh, vlb, tm),
            check=lambda s, t=t: check_scores(
                phys, plan, mesh.X, vlb_table, t, s),
            quality=lambda s: {"ahc": s.plan.ahc,
                               "throughput": s.fat_tree_mlu / s.plan.mlu}))
    return Round(ops, fixed)


WORKLOADS = {
    "plan-mix": setup_plan_mix,
    "round-saturated": setup_round_saturated,
    "replay": setup_replay,
}
