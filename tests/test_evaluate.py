import importlib.util
import math
from pathlib import Path as FilePath

import numpy as np
import pytest

from couder import lp, optimize
from couder.errors import InvalidInputError
from couder.evaluate import (EvalRecord, ReconfigPolicy, direct_only_weights,
                             evaluate_static, fat_tree_eval, ideal_toe_mlu,
                             num_stages, optimal_routing_mlu, sensitivity_map,
                             simulate_reconfig, uniform_mesh, vlb_weights)
from couder.model import (IntegerTopology, Path, PhysicalTopology,
                          RoutingWeights, TmSequence, TrafficMatrix)
from couder.optimize import recompute_routing, run_pipeline
from couder.traffic import CriticalSet, check_bounded, extract_critical
from helpers import (lp_ideal_toe_mlu, make_fabric, random_criticals,
                     random_tm, sparse_tm, zero_radix_fabric)


def mesh_topology(n, links_per_pair):
    X = np.full((n, n), links_per_pair)
    np.fill_diagonal(X, 0)
    return IntegerTopology(X[None])


class TestEvaluateStatic:
    def test_uniform_mesh_direct_only(self):
        topo = mesh_topology(4, 4)
        t = np.full((4, 4), 2.0)
        np.fill_diagonal(t, 0.0)
        rec = evaluate_static(topo, direct_only_weights(topo),
                              TrafficMatrix(t), 1.0)
        assert rec.mlu == pytest.approx(0.5)
        assert rec.ahc == pytest.approx(1.0)
        assert rec.feasible

    def test_zero_matrix_conventions(self):
        topo = mesh_topology(3, 2)
        rec = evaluate_static(topo, direct_only_weights(topo),
                              TrafficMatrix(np.zeros((3, 3))), 1.0)
        assert rec.mlu == 0.0
        assert rec.ahc == 1.0

    def test_demand_on_dead_link_flagged(self):
        X = np.zeros((3, 3), dtype=int)
        X[0, 2] = 1
        topo = IntegerTopology(X[None])
        t = np.zeros((3, 3))
        t[0, 1] = 1.0
        rec = evaluate_static(topo, direct_only_weights(topo),
                              TrafficMatrix(t), 1.0)
        assert not rec.feasible
        assert math.isinf(rec.mlu)

    def test_mlu_reciprocal_of_recomputed_throughput(self):
        phys = make_fabric(3, 1, 2)
        t = np.zeros((3, 3))
        t[0, 1] = 4.0
        crit = CriticalSet((TrafficMatrix(t),))
        sol = run_pipeline(phys, crit)
        x = np.rint(sol.d.d).astype(int)
        routed = recompute_routing(phys, IntegerTopology(x[None]), crit)
        rec = evaluate_static(routed.d, routed.omega, crit.matrices[0], 1.0)
        assert rec.mlu == pytest.approx(1.0 / routed.mu, abs=1e-5)

    def test_two_hop_load_split(self):
        X = np.zeros((3, 3), dtype=int)
        X[0, 2] = X[2, 1] = 2
        topo = IntegerTopology(X[None])
        omega = RoutingWeights({Path(0, 1, 2): 1.0})
        t = np.zeros((3, 3))
        t[0, 1] = 1.0
        rec = evaluate_static(topo, omega, TrafficMatrix(t), 1.0)
        assert rec.per_link_util[0, 2] == pytest.approx(0.5)
        assert rec.per_link_util[2, 1] == pytest.approx(0.5)
        assert rec.ahc == pytest.approx(2.0)
        assert rec.direct_fraction == 0.0


class TestOptimalRouting:
    def test_single_pair_splits_below_direct_only(self):
        # Direct capacity covers the demand at utilization 1/2, but the
        # optimum shares load with the 2-hop path and halves that again.
        topo = mesh_topology(3, 4)
        t = np.zeros((3, 3))
        t[0, 1] = 2.0
        mlu = optimal_routing_mlu(topo, TrafficMatrix(t), 1.0)
        assert mlu <= 2.0 / 4.0 + 1e-9
        assert mlu == pytest.approx(0.25, abs=1e-9)

    def test_grid_oracle_two_paths(self):
        # One demanded pair, direct (2 links) + one 2-hop path (1 link
        # bottleneck): scan the split weight at 1e-3.
        X = np.zeros((3, 3), dtype=int)
        X[0, 1], X[0, 2], X[2, 1] = 2, 1, 3
        topo = IntegerTopology(X[None])
        t = np.zeros((3, 3))
        t[0, 1] = 3.0
        best = min(max(w * 3.0 / 2.0, (1 - w) * 3.0 / 1.0, (1 - w) * 3.0 / 3.0)
                   for w in np.arange(0.0, 1.0001, 1e-3))
        lp_val = optimal_routing_mlu(topo, TrafficMatrix(t), 1.0)
        assert lp_val == pytest.approx(best, abs=2e-3)

    def test_dominates_any_fixed_weights(self):
        rng = np.random.default_rng(0)
        topo = mesh_topology(4, 3)
        t = random_tm(rng, 4, 5.0)
        opt = optimal_routing_mlu(topo, t, 1.0)
        for _ in range(5):
            weights = {}
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    paths = [Path(i, j)] + [Path(i, j, k) for k in range(4)
                                            if k not in (i, j)]
                    raw = rng.uniform(0.1, 1.0, len(paths))
                    for p, w in zip(paths, raw / raw.sum()):
                        weights[p] = w
            rec = evaluate_static(topo, RoutingWeights(weights), t, 1.0)
            assert opt <= rec.mlu + 1e-9

    def test_all_zero_matrix_has_zero_mlu_and_weights(self):
        t = TrafficMatrix(np.zeros((3, 3)))
        mlu, omega = optimal_routing_mlu(mesh_topology(3, 2), t, 1.0,
                                         return_weights=True)
        assert mlu == 0.0
        assert omega is not None

    def test_unroutable_returns_infinity(self):
        X = np.zeros((3, 3), dtype=int)
        topo = IntegerTopology(X[None])
        t = np.zeros((3, 3))
        t[0, 1] = 1.0
        assert math.isinf(optimal_routing_mlu(topo, TrafficMatrix(t), 1.0))


def bench_inputs():
    """``perfbench/inputs.py``, loaded by path."""
    path = FilePath(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


class TestPresolveOffFamilies:
    """Stage 1 with fixed link counts and the boundedness LP run with
    presolve off; each must give what a presolve-on solve gives."""

    PRESOLVE_OFF = ("fixed-throughput", "boundedness")

    def both_ways(self, monkeypatch, run):
        """``run()`` under the family options, then with presolve on."""
        off = run()
        monkeypatch.setattr(lp, "_FAMILY_OPTIONS", {
            name: options for name, options in lp._FAMILY_OPTIONS.items()
            if name not in self.PRESOLVE_OFF})
        on = run()
        monkeypatch.undo()
        return off, on

    @staticmethod
    def assert_agree(got: float, want: float):
        if math.isinf(want) or want == 0.0:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-9)

    @staticmethod
    def assert_witness(t: TrafficMatrix, crit: CriticalSet, res):
        # T <= sum(lambda_k T_k) + slack, sum(lambda) <= 1, up to float
        # noise on the scale of the matrix.
        tol = 1e-9 * max(1.0, t.demand.max())
        covered = np.tensordot(res.lambdas, crit.stacked(), axes=1)
        assert (t.demand <= covered + res.slack + tol).all()
        assert res.lambdas.sum() <= 1.0 + 1e-9
        assert (res.lambdas >= -1e-9).all()

    def test_random_cases_match_presolve_on(self, monkeypatch):
        rng = np.random.default_rng(2024)
        kinds = {"inf": 0, "zero": 0, "finite": 0, "bounded": 0}
        for case in range(120):
            n = int(rng.integers(2, 11))
            # Link counts 0-3 with zero-capacity links at random density.
            X = rng.integers(0, 4, (n, n)) * (rng.random((n, n))
                                              < rng.uniform(0.5, 1.0))
            np.fill_diagonal(X, 0)
            b = float(rng.uniform(0.5, 4.0))
            t = (TrafficMatrix(np.zeros((n, n))) if case % 10 == 0
                 else sparse_tm(rng, n, float(rng.uniform(0.05, 1.0))))
            crit = CriticalSet(tuple(
                TrafficMatrix(c * (rng.random((n, n)) < 0.7))
                for c in random_criticals(rng, n, int(rng.integers(1, 6)))
                .stacked()))
            mode = "exact" if case % 2 else "dominated"
            (mlu, res), (mlu_on, res_on) = self.both_ways(
                monkeypatch, lambda: (optimal_routing_mlu(X, t, b),
                                      check_bounded(t, crit, mode)))
            self.assert_agree(mlu, mlu_on)
            self.assert_agree(res.slack, res_on.slack)
            self.assert_witness(t, crit, res)
            kinds["inf" if math.isinf(mlu_on) else "zero" if mlu_on == 0
                  else "finite"] += 1
            kinds["bounded"] += res_on.slack == 0.0
        # Infinite, zero and finite MLUs, and bounded matrices, all occur.
        assert min(kinds.values()) >= 10, kinds

    @pytest.mark.parametrize("seed", [0, 1])
    def test_replay_days_match_presolve_on(self, monkeypatch, seed):
        # The benchmark's replay: criticals of one gravity day, the next
        # day's matrices scored on the uniform mesh.
        inputs = bench_inputs()
        eg, ig = inputs.striping(8, 4, 4)
        phys = PhysicalTopology(8, 4, eg, ig, 1.0)
        mesh = uniform_mesh(phys)
        mats = inputs.gravity_days(np.random.default_rng([seed, 4]), 8,
                                   float(eg.sum()), days=2)
        crit = extract_critical(TmSequence(tuple(
            TrafficMatrix(t, timestamp=float(k))
            for k, t in enumerate(mats[:inputs.DAY])), 1.0), 5)
        for demand in mats[inputs.DAY::4]:
            t = TrafficMatrix(demand)
            (mlu, res), (mlu_on, res_on) = self.both_ways(
                monkeypatch, lambda: (optimal_routing_mlu(mesh, t),
                                      check_bounded(t, crit)))
            self.assert_agree(mlu, mlu_on)
            self.assert_agree(res.slack, res_on.slack)
            self.assert_witness(t, crit, res)


class TestIdealToe:
    def test_n2_closed_form(self):
        phys = make_fabric(2, 1, 4)
        t = np.zeros((2, 2))
        t[0, 1] = 8.0
        assert ideal_toe_mlu(phys, TrafficMatrix(t)) == pytest.approx(2.0,
                                                                      abs=1e-6)

    def test_homogeneous_in_demand_scale(self):
        rng = np.random.default_rng(1)
        phys = make_fabric(4, 2, 3)
        t = random_tm(rng, 4, 5.0)
        base = ideal_toe_mlu(phys, t)
        scaled = ideal_toe_mlu(phys, TrafficMatrix(t.demand * 1.7))
        assert scaled == pytest.approx(1.7 * base, rel=1e-6)

    def test_lower_bounds_everything(self):
        rng = np.random.default_rng(2)
        phys = make_fabric(4, 2, 3)
        t = random_tm(rng, 4, 5.0)
        ideal = ideal_toe_mlu(phys, t)
        mesh = uniform_mesh(phys)
        assert ideal <= optimal_routing_mlu(mesh, t, 1.0) + 1e-9
        rec = evaluate_static(mesh, vlb_weights(mesh), t, 1.0)
        assert ideal <= rec.mlu + 1e-9

    def test_matches_lp_oracle_on_random_fabrics(self):
        rng = np.random.default_rng(12)
        infinite = finite = 0
        for case in range(120):
            n, m = int(rng.integers(2, 11)), int(rng.integers(1, 5))
            phys = zero_radix_fabric(rng, n, m, dead=0.15 * (case % 2))
            b = float(rng.uniform(0.5, 4.0))
            t = sparse_tm(rng, n, float(rng.uniform(0.05, 1.0)))
            want = lp_ideal_toe_mlu(phys, t, b)
            assert ideal_toe_mlu(phys, t, b) == pytest.approx(want, rel=1e-9)
            infinite += math.isinf(want)
            finite += 0 < want < math.inf
        # Both branches of the bound are exercised, not only one.
        assert infinite >= 20 and finite >= 40

    @pytest.mark.parametrize("family", ["gravity_days", "storage_days"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_lp_oracle_on_benchmark_days(self, family, seed):
        inputs = bench_inputs()
        eg, ig = inputs.striping(8, 4, 4)
        phys = PhysicalTopology(8, 4, eg, ig, 1.0)
        days = getattr(inputs, family)(np.random.default_rng([seed, 1]), 8,
                                       float(eg.sum()))
        for demand in days[::8]:
            t = TrafficMatrix(demand)
            assert ideal_toe_mlu(phys, t) == pytest.approx(
                lp_ideal_toe_mlu(phys, t), rel=1e-9)

    def test_all_zero_matrix_is_zero(self):
        phys = zero_radix_fabric(np.random.default_rng(3), 5, 2)
        assert ideal_toe_mlu(phys, TrafficMatrix(np.zeros((5, 5)))) == 0.0

    def test_zero_radix_sender_is_infinite(self):
        eg = np.array([[0, 2, 2]])
        phys = PhysicalTopology(3, 1, eg, np.array([[2, 1, 1]]), 1.0)
        t = np.zeros((3, 3))
        t[1, 0] = 1.0
        assert ideal_toe_mlu(phys, TrafficMatrix(t)) == 0.5
        t[0, 1] = 1.0
        assert math.isinf(ideal_toe_mlu(phys, TrafficMatrix(t)))

    @pytest.mark.parametrize("bandwidth", [math.nan, 0.0, -1.0, math.inf])
    def test_rejects_bad_bandwidth(self, bandwidth):
        phys = make_fabric(3, 1, 2)
        with pytest.raises(InvalidInputError, match="bandwidth"):
            ideal_toe_mlu(phys, random_tm(np.random.default_rng(0), 3),
                          bandwidth)

    def test_rejects_pod_count_mismatch(self):
        with pytest.raises(InvalidInputError, match="fabric"):
            ideal_toe_mlu(make_fabric(3, 1, 2),
                          random_tm(np.random.default_rng(0), 4))

    def test_rejects_overflowing_row_sum(self):
        t = np.zeros((3, 3))
        t[0, 1] = t[0, 2] = 1e308
        with pytest.raises(InvalidInputError, match="overflows"):
            ideal_toe_mlu(make_fabric(3, 1, 2), TrafficMatrix(t))

    def test_rejects_overflowing_quotient(self):
        t = np.zeros((3, 3))
        t[0, 1] = 1e10
        with pytest.raises(InvalidInputError, match="overflows"):
            ideal_toe_mlu(make_fabric(3, 1, 2), TrafficMatrix(t), 1e-310)


class TestUniformMesh:
    def test_exact_division(self):
        phys = make_fabric(4, 2, 6)  # r_eg = 12 -> 4 per peer
        mesh = uniform_mesh(phys)
        expected = np.full((4, 4), 4)
        np.fill_diagonal(expected, 0)
        np.testing.assert_array_equal(mesh.X, expected)

    def test_remainder_round_robin(self):
        phys = make_fabric(4, 1, 13)
        mesh = uniform_mesh(phys)
        assert sorted(mesh.X[2][mesh.X[2] > 0].tolist()) == [4, 4, 5]
        assert mesh.X.sum(axis=1).tolist() == [13, 13, 13, 13]
        # each pod's extra link lands on its successor, so ingress loads
        # stay balanced and the result still validates
        assert mesh.X[1, 2] == 5
        assert mesh.X.sum(axis=0).tolist() == [13, 13, 13, 13]

    def test_always_validates(self):
        from couder.model import validate
        rng = np.random.default_rng(3)
        for _ in range(10):
            phys = make_fabric(int(rng.integers(3, 7)),
                               int(rng.integers(1, 4)),
                               rng.integers(2, 9, size=int(1)).item())
            assert validate(phys, uniform_mesh(phys)) == []


class TestWeightBaselines:
    def test_vlb_uniform_mesh_split(self):
        mesh = mesh_topology(5, 3)
        omega = vlb_weights(mesh)
        for p, w in omega.weights.items():
            assert w == pytest.approx(1.0 / 4.0)

    def test_vlb_zero_direct_goes_indirect(self):
        X = np.zeros((3, 3), dtype=int)
        X[0, 2] = X[2, 1] = 1
        omega = vlb_weights(IntegerTopology(X[None]))
        assert omega.weight(Path(0, 1)) == 0.0
        assert omega.weight(Path(0, 1, 2)) == pytest.approx(1.0)

    def test_vlb_sums_to_one(self):
        rng = np.random.default_rng(4)
        X = np.maximum(rng.integers(0, 4, (4, 4)), 0)
        np.fill_diagonal(X, 0)
        omega = vlb_weights(IntegerTopology(X[None]))
        sums = {}
        for p, w in omega.weights.items():
            sums[(p.src, p.dst)] = sums.get((p.src, p.dst), 0.0) + w
        assert all(abs(s - 1.0) < 1e-9 for s in sums.values())

    def test_direct_only_properties(self):
        mesh = mesh_topology(4, 2)
        omega = direct_only_weights(mesh)
        rng = np.random.default_rng(5)
        t = random_tm(rng, 4, 3.0)
        rec = evaluate_static(mesh, omega, t, 1.0)
        assert rec.ahc == 1.0
        assert rec.mlu >= optimal_routing_mlu(mesh, t, 1.0) - 1e-9


class TestFatTree:
    def test_oversubscription_formula(self):
        t = np.zeros((2, 2))
        t[0, 1] = 10.0
        rec = fat_tree_eval(TrafficMatrix(t), 16, 1.0, 2.0)
        assert rec.mlu == pytest.approx(10.0 / 8.0)

    def test_hop_count_always_two(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            rec = fat_tree_eval(random_tm(rng, 4, 20.0), 16, 1.0, 2.0)
            assert rec.ahc == 2.0

    def test_nonblocking_at_capacity(self):
        t = np.zeros((2, 2))
        t[0, 1] = 16.0
        rec = fat_tree_eval(TrafficMatrix(t), 16, 1.0, 1.0)
        assert rec.mlu == pytest.approx(1.0)


class TestSensitivityMap:
    def test_single_path(self):
        X = np.zeros((2, 2), dtype=int)
        X[0, 1] = 4
        omega = RoutingWeights({Path(0, 1): 1.0})
        sen = sensitivity_map(IntegerTopology(X[None]), omega, 1.0)
        assert sen[0, 1] == pytest.approx(0.25)

    def test_unused_link_zero(self):
        X = np.full((3, 3), 2)
        np.fill_diagonal(X, 0)
        omega = RoutingWeights({Path(0, 1): 1.0})
        sen = sensitivity_map(IntegerTopology(X[None]), omega, 1.0)
        assert sen[1, 2] == 0.0

    def test_desensitized_not_worse(self):
        rng = np.random.default_rng(7)
        phys = make_fabric(4, 2, 4)
        crit = random_criticals(rng, 4, 2, scale=5.0)
        plain = run_pipeline(phys, crit, desensitized=False)
        tuned = run_pipeline(phys, crit, desensitized=True)
        sen_plain = sensitivity_map(plain.d, plain.omega, 1.0)
        sen_tuned = sensitivity_map(tuned.d, tuned.omega, 1.0)
        m1 = sen_plain[np.isfinite(sen_plain)].max()
        m2 = sen_tuned[np.isfinite(sen_tuned)].max()
        assert m2 <= m1 + 1e-9


class TestStaging:
    def test_exact_example(self):
        assert num_stages(0.6, 0.8) == 3

    def test_zero_change(self):
        assert num_stages(0.0, 0.8) == 0

    def test_float_quotients_do_not_overcount(self):
        assert num_stages(0.4, 0.8) == 2
        assert num_stages(1.0, 0.5) == 2

    def test_bad_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            num_stages(0.5, 1.0)


def small_sequence(n=4, count=30, seed=0, window=1.0):
    rng = np.random.default_rng(seed)
    base = random_tm(rng, n, 5.0).demand
    mats = []
    for i in range(count):
        jitter = rng.uniform(0.8, 1.2, base.shape)
        t = base * jitter
        np.fill_diagonal(t, 0.0)
        mats.append(TrafficMatrix(t, timestamp=float(i)))
    return TmSequence(tuple(mats), aggregation_window=window)


class TestSimulateReconfig:
    def test_identical_topology_means_no_stages(self):
        phys = make_fabric(4, 2, 4)
        seq = small_sequence()
        policy = ReconfigPolicy(frequency=10.0, stage_latency=0.5,
                                alpha_pred=0.8, lookback=5.0, k=2)
        points, epochs = simulate_reconfig(phys, seq, policy, seed=1)
        assert len(epochs) >= 2
        # constant-ish traffic: later epochs reuse the same topology
        for ep in epochs[1:]:
            if ep.changed_fraction == 0.0:
                assert ep.stages == 0

    def test_zero_latency_matches_instantaneous(self):
        phys = make_fabric(4, 2, 4)
        seq = small_sequence(seed=3)
        kw = dict(alpha_pred=0.8, lookback=5.0, k=2)
        fast = ReconfigPolicy(frequency=8.0, stage_latency=0.0, **kw)
        slow = ReconfigPolicy(frequency=8.0, stage_latency=0.0, **kw)
        a, _ = simulate_reconfig(phys, seq, fast, seed=2)
        b, _ = simulate_reconfig(phys, seq, slow, seed=2)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.record.mlu == pb.record.mlu
            assert pa.stage is None and pb.stage is None

    def test_stage3_solves_at_stage2_output(self, monkeypatch):
        # Stage 3 has been called infeasible exactly at stage 2's (F,
        # gamma / F) on one of these plans; it gets mu = F (1 - MU_SLACK).
        calls = []
        real = optimize.desensitize

        def recording(phys, crit, mu_star, _fixed=None):
            if _fixed is None:
                calls.append((phys, crit, mu_star))
            return real(phys, crit, mu_star, _fixed)

        monkeypatch.setattr(optimize, "desensitize", recording)
        phys = make_fabric(4, 2, 4)
        policy = ReconfigPolicy(frequency=8.0, stage_latency=0.0,
                                alpha_pred=0.8, lookback=5.0, k=2)
        simulate_reconfig(phys, small_sequence(seed=3), policy, seed=2)
        monkeypatch.undo()
        assert calls
        for phys, crit, mu_star in calls:
            s2 = optimize.desensitize(phys, crit, mu_star)
            optimize.minimize_ahc(phys, crit, s2.mu, s2.beta)

    def test_infinite_frequency_degenerates_to_static(self):
        phys = make_fabric(4, 2, 4)
        seq = small_sequence(seed=4)
        policy = ReconfigPolicy(frequency=1e9, stage_latency=0.5,
                                alpha_pred=0.8, lookback=5.0, k=2)
        points, epochs = simulate_reconfig(phys, seq, policy, seed=5)
        assert len(epochs) == 1
        # reproduce by hand: pipeline on the lookback history, rounded,
        # evaluated statically on every later matrix
        from couder import optimize, round as rounding, traffic
        hist = TmSequence(tuple(seq[i] for i in range(5)), 1.0)
        crit = traffic.extract_critical(hist, 2, 5)
        frac = optimize.run_pipeline(phys, crit)
        topo = rounding.ldm_round(phys, frac.d, 50).topo
        routed = optimize.recompute_routing(phys, topo, crit)
        expect = [evaluate_static(topo.X.astype(float), routed.omega, seq[i],
                                  1.0).mlu
                  for i in range(len(seq)) if seq[i].timestamp >= 5.0]
        got = [p.record.mlu for p in points]
        assert got == expect

    def test_stage_metadata_and_capacity_dip(self):
        # Force a topology change by alternating two very different demand
        # regimes across epochs.
        rng = np.random.default_rng(8)
        n = 4
        mats = []
        for i in range(40):
            t = np.zeros((n, n))
            if i < 20:
                t[0, 1] = 8.0
                t[2, 3] = 8.0
            else:
                t[0, 3] = 8.0
                t[2, 1] = 8.0
            t += rng.uniform(0.0, 0.3, (n, n))
            np.fill_diagonal(t, 0.0)
            mats.append(TrafficMatrix(t, timestamp=float(i)))
        seq = TmSequence(tuple(mats), 1.0)
        phys = make_fabric(n, 2, 3)
        policy = ReconfigPolicy(frequency=15.0, stage_latency=2.0,
                                alpha_pred=0.7, lookback=10.0, k=1)
        points, epochs = simulate_reconfig(phys, seq, policy, seed=9)
        changing = [ep for ep in epochs if ep.stages > 0]
        assert changing, "expected at least one staged reconfiguration"
        staged_points = [p for p in points if p.stage is not None]
        assert staged_points
        for ep in changing:
            assert ep.stages == num_stages(min(ep.changed_fraction, 1.0),
                                           policy.alpha_pred)

    def test_rejects_coarse_frequency(self):
        phys = make_fabric(4, 1, 3)
        seq = small_sequence(window=5.0)
        policy = ReconfigPolicy(frequency=2.0, lookback=5.0, k=1)
        with pytest.raises(InvalidInputError):
            simulate_reconfig(phys, seq, policy)

    def test_rejects_lookback_past_the_sequence(self):
        seq = small_sequence(count=12)  # timestamps 0..11
        policy = ReconfigPolicy(frequency=4.0, lookback=11.5, k=1)
        with pytest.raises(InvalidInputError,
                           match=r"lookback of 11\.5 s .* spans 11 s"):
            simulate_reconfig(make_fabric(4, 1, 3), seq, policy)

    def test_lookback_up_to_the_last_matrix_is_scored(self):
        seq = small_sequence(count=12)
        policy = ReconfigPolicy(frequency=4.0, lookback=11.0, k=1)
        points, epochs = simulate_reconfig(make_fabric(4, 1, 3), seq, policy)
        assert [ep.time for ep in epochs] == [11.0]
        assert [p.time for p in points] == [11.0]


class TestLemma2AtEvaluationLevel:
    def test_convex_combinations_within_bound(self):
        rng = np.random.default_rng(10)
        phys = make_fabric(4, 2, 4)
        crit = random_criticals(rng, 4, 3, scale=6.0)
        sol = run_pipeline(phys, crit)
        bound = 1.0 / sol.mu + 1e-5
        from helpers import convex_combination
        for _ in range(40):
            t = convex_combination(rng, crit)
            assert evaluate_static(sol.d, sol.omega, t, 1.0).mlu <= bound
