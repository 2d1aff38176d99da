"""Each output check rejects a deliberately broken output; a smoke run of
every workload at small size passes with 0 failed.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SMALL = {
    "plan-mix": {"n": 6, "m": 2, "ports": 2, "days": 2},
    "round-saturated": {"n": 6, "m": 2, "ports": 2, "targets": 2},
    "replay": {"n": 6, "m": 2, "ports": 2},
}


@pytest.fixture(scope="module")
def plan_case():
    rnd = workloads.setup_plan_mix(0, **SMALL["plan-mix"])
    op = rnd.ops[0]
    return op, op.run()


@pytest.fixture(scope="module")
def replay_case():
    rnd = workloads.setup_replay(0, **SMALL["replay"])
    for op in rnd.ops:
        out = op.run()
        if out.bounded.bounded:
            return op, out
    pytest.fail("no held-out matrix was bounded")


def _plan_arrays(plan):
    x = plan.report.topo.x
    paths, w = checks.weight_table(plan.routed.omega.weights)
    return x, x.sum(axis=0), plan.crit.stacked(), paths, w


# -- plan-mix ----------------------------------------------------------------

def test_plan_passes(plan_case):
    op, plan = plan_case
    assert op.check(plan) == []


def test_port_budget_rejects_extra_link(plan_case):
    _, plan = plan_case
    x = plan.report.topo.x.copy()
    x[0, 0, 1] += 1 + x[0].sum(axis=1)[0]
    eg, ig = np.full((2, 6), 2), np.full((2, 6), 2)
    assert checks.check_ports(plan.report.topo.x, eg, ig) == []
    assert checks.check_ports(x, eg, ig)


def test_connectivity_rejects_stranded_pair():
    X = np.zeros((4, 4), dtype=int)
    X[1, 2] = X[2, 3] = X[3, 1] = 1
    peak = np.zeros((4, 4))
    peak[1, 3] = 1.0  # 1 -> 2 -> 3 exists
    assert checks.check_connected(X, peak) == []
    peak[0, 1] = 1.0  # pod 0 has no egress link at all
    assert checks.check_connected(X, peak) == \
        ["demanded pair (0, 1) has no 1- or 2-hop path"]


def test_weights_reject_bad_sums_and_dead_links(plan_case):
    _, plan = plan_case
    _, X, _, paths, w = _plan_arrays(plan)
    assert checks.check_weights(paths, w, X) == []
    assert checks.check_weights(paths, w * 1.01, X)
    bad = w.copy()
    bad[0] = -bad[0] - 0.1
    assert checks.check_weights(paths, bad, X)
    dead = X.copy()
    s, d, v = paths[np.argmax(w)]
    dead[s, d if v < 0 else v] = 0
    assert any("without circuits" in e
               for e in checks.check_weights(paths, w, dead))


def test_sensitivity_skips_only_pairs_without_a_path():
    X = np.zeros((3, 3), dtype=int)
    X[0, 1] = X[1, 0] = 1
    paths = np.array([(0, 1, -1), (1, 0, -1), (2, 0, -1)])
    w = np.ones(3)
    # Pod 2 has no link at all: its weight has no path to cap.
    assert checks.check_sensitivity(paths, w, X, 1.0) == []
    assert checks.check_sensitivity(paths, w, X, 0.5)
    X[2, 1] = 1  # now 2 -> 1 -> 0 exists, and the direct 2 -> 0 is dead
    assert checks.check_sensitivity(paths, w, X, 1.0) == \
        ["weight 1 over the beta cap 0 on link (2, 0)"]


def test_mu_rejects_one_percent_above_reference(plan_case):
    _, plan = plan_case
    _, X, crit, _, _ = _plan_arrays(plan)
    ref = checks.reference_mu(X, crit)
    assert checks.check_mu(plan.routed.mu, ref) == []
    assert checks.check_mu(plan.routed.mu * 1.01, ref)


def test_reference_mu_matches_hand_solution():
    # Two pods, one link each way, demand 2 one way: mu = 1/2.
    X = np.array([[0, 1], [1, 0]])
    t = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert checks.reference_mu(X, t[None]) == pytest.approx(0.5, rel=1e-9)
    assert checks.reference_mu(np.zeros((2, 2)), t[None]) == 0.0


def test_guarantee_rejects_inflated_mu(plan_case):
    _, plan = plan_case
    _, X, crit, paths, w = _plan_arrays(plan)
    mu = plan.routed.mu
    rng = np.random.default_rng(0)
    assert checks.check_guarantee(paths, w, X, crit, mu, rng) == []
    assert checks.check_guarantee(paths, w, X, crit, mu * 1.01, rng)


def test_sensitivity_rejects_tighter_beta(plan_case):
    _, plan = plan_case
    _, X, _, paths, w = _plan_arrays(plan)
    beta = plan.routed.beta
    assert checks.check_sensitivity(paths, w, X, beta) == []
    assert checks.check_sensitivity(paths, w, X, beta * 0.9)


# -- round-saturated ---------------------------------------------------------

def test_rounding_checks():
    eg = ig = np.array([[2, 2, 2]])
    d = np.array([[0.0, 1.5, 0.4], [0.9, 0.0, 0.9], [0.6, 1.2, 0.0]])
    x = np.array([[[0, 2, 0], [1, 0, 1], [1, 0, 0]]])
    assert checks.check_rounding(x, d, eg, ig) == []
    over = x.copy()
    over[0, 0, 2] = 1  # pod 0 egress 3 > 2 and X_02 = 1 <= ceil 1
    assert any("egress" in e for e in checks.check_rounding(over, d, eg, ig))
    above = x.copy()
    above[0, 1, 0], above[0, 1, 2] = 2, 0  # X_10 = 2 > ceil(0.9)
    assert any("above" in e for e in checks.check_rounding(above, d, eg, ig))
    idle = x.copy()
    idle[0, 2, 0] = 0  # pod 2 egress and pod 0 ingress spare, X_20 < 1
    assert checks.check_rounding(idle, d, eg, ig) == \
        ["switch 0 could still link pair (2, 0)"]


# -- replay ------------------------------------------------------------------

def test_replay_passes(replay_case):
    op, s = replay_case
    assert op.check(s) == []


def test_replay_rejects_wrong_plan_mlu(replay_case):
    op, s = replay_case
    wrong = dataclasses.replace(s.plan, mlu=s.plan.mlu * 0.99)
    assert any("plan MLU" in e
               for e in op.check(dataclasses.replace(s, plan=wrong)))


def test_witness_rejects_lambda_sum_above_one(replay_case):
    op, s = replay_case
    lam = s.bounded.lambdas.copy()
    lam[np.argmax(lam)] += 1.0 - lam.sum() + 0.05
    bad = dataclasses.replace(s.bounded, lambdas=lam)
    assert any("sum to" in e
               for e in op.check(dataclasses.replace(s, bounded=bad)))
    crit = np.ones((2, 3, 3))
    t = np.full((3, 3), 0.5)
    assert checks.check_witness(t, crit, np.array([0.25, 0.25])) == []
    assert checks.check_witness(t, crit, np.array([0.2, 0.2]))
    assert checks.check_witness(t, crit, np.array([-0.5, 1.0]))


def test_guarantee_on_bounded_matrix(replay_case):
    op, s = replay_case
    high = dataclasses.replace(s.plan, mlu=s.plan.mlu * 10)
    errors = op.check(dataclasses.replace(s, plan=high))
    assert any("above 1/mu" in e for e in errors)


def test_baseline_order_rejects_reversal(replay_case):
    op, s = replay_case
    swapped = dataclasses.replace(s, mesh_mlu=s.vlb_mlu * 1.1)
    assert any("above VLB" in e for e in op.check(swapped))
    assert checks.check_order(1.0, 2.0, 3.0) == []
    assert checks.check_order(2.0, 1.0, 3.0)
    assert checks.check_order(1.0, 3.0, 2.0)


def test_fat_tree_closed_form(replay_case):
    op, s = replay_case
    assert any("fat-tree" in e for e in op.check(
        dataclasses.replace(s, fat_tree_mlu=s.fat_tree_mlu * 1.001)))
    t = np.array([[0.0, 3.0], [1.0, 0.0]])
    assert checks.fat_tree_mlu(t, np.array([4, 4]), 1.0, 2.0) == 1.5


def test_ahc_range(replay_case):
    op, s = replay_case
    bad = dataclasses.replace(s.plan, ahc=2.5)
    assert any("AHC" in e for e in op.check(dataclasses.replace(s, plan=bad)))


# -- smoke -------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(SMALL))
def test_smoke_round(workload):
    out = run.run(workload, 0, 0.0, False, setup_repeats=1,
                  setup_kwargs=SMALL[workload])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END)


def _fake_workload(monkeypatch, ops):
    monkeypatch.setitem(workloads.WORKLOADS, "fake",
                        lambda seed: workloads.Round(ops))
    monkeypatch.setitem(workloads.ROUND_SECONDS, "fake", 1.0)
    return run.run("fake", 0, 2.0, False, setup_repeats=1)


def _raise(text):
    raise RuntimeError(text)


def _good_op():
    return workloads.Op(lambda: 1, lambda out: [],
                        lambda out: dict.fromkeys(run.QUALITY, 1.0))


def test_failed_check_makes_run_incorrect(monkeypatch):
    good = _good_op()
    bad = workloads.Op(lambda: 1, lambda out: ["broken output"],
                       lambda out: {})
    out = _fake_workload(monkeypatch, [good, bad])
    assert out["attempted"] == 4 and out["failed"] == 2
    assert out["correct"] is False


def test_raising_op_makes_run_incorrect(monkeypatch):
    good = _good_op()
    raising = workloads.Op(lambda: _raise("fault"), lambda out: [],
                           lambda out: {})
    out = _fake_workload(monkeypatch, [good, raising])
    assert out["attempted"] == 4 and out["failed"] == 2
    assert out["correct"] is False
    assert _fake_workload(monkeypatch, [good])["correct"] is True


def test_round_count_does_not_depend_on_speed():
    for name, nominal in workloads.ROUND_SECONDS.items():
        assert run.rounds_for(name, 25) == max(1, round(25 / nominal))
        assert run.rounds_for(name, 0.0) == 1


def test_traced_round_reports_every_layer():
    out = run.run("plan-mix", 0, 0.0, True, setup_repeats=1,
                  setup_kwargs=SMALL["plan-mix"])
    assert set(out["metrics"]) == set(PER_LAYER)
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["lp.solves"] > 0 and metrics["round.ldm_iterations"] > 0
    assert metrics["lp.solve_s"] >= metrics["lp.highs_s"] > 0
