import importlib.util
import itertools
import json
import math
import warnings
from pathlib import Path as FilePath

import numpy as np
import pytest

from couder import cli, evaluate, lp, optimize, round as rounding
from couder.errors import InvalidInputError
from couder.evaluate import (EvalRecord, ReconfigPolicy, _restrict_weights,
                             _stage_shares, direct_only_weights,
                             evaluate_static, fat_tree_eval, ideal_toe_mlu,
                             num_stages, optimal_routing_mlu, sensitivity_map,
                             simulate_reconfig, uniform_mesh, vlb_weights)
from couder.model import (IntegerTopology, Path, PhysicalTopology,
                          RoutingWeights, TmSequence, TrafficMatrix, _tables)
from couder.optimize import recompute_routing, run_pipeline
from couder.traffic import (CriticalSet, check_bounded, extract_critical,
                            gen_storage_tms)
from helpers import (enumerate_paths, has_short_path, loop_restrict_weights,
                     loop_sensitivity_map, loop_vlb_weights,
                     lp_ideal_toe_mlu, make_fabric, random_criticals,
                     random_fabric, random_tm, sparse_tm, stage1_routing_mlu,
                     write_physical_topology, zero_radix_fabric)


def mesh_topology(n, links_per_pair):
    X = np.full((n, n), links_per_pair)
    np.fill_diagonal(X, 0)
    return IntegerTopology(X[None])


def assert_agree(got: float, want: float):
    """Within 1e-9 relative, and exactly where ``want`` is 0 or infinite."""
    if math.isinf(want) or want == 0.0:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-9)


def checked_mlu(x, t: TrafficMatrix, bandwidth: float = 1.0) -> float:
    """``optimal_routing_mlu``, asserted to agree with stage 1's oracle."""
    mlu = optimal_routing_mlu(x, t, bandwidth)
    assert_agree(mlu, stage1_routing_mlu(x, t, bandwidth))
    return mlu


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

    @pytest.mark.parametrize("s", [1.0, 1e-11, 1e-13, 1e-200])
    def test_dead_link_flagged_in_any_unit(self, s):
        # Demand s on a pair without links is infeasible however small s
        # is, in units where the pair with links is exactly full.
        X = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
        X[0, 2] = 0
        topo = IntegerTopology(X[None])
        t = np.zeros((3, 3))
        t[0, 1] = t[0, 2] = s
        rec = evaluate_static(topo, direct_only_weights(topo),
                              TrafficMatrix(t), s)
        assert math.isinf(rec.mlu)
        t[0, 2] = 0.0
        assert evaluate_static(topo, direct_only_weights(topo),
                               TrafficMatrix(t), s).mlu == 1.0

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
        # The 2-hop path puts the whole demand on both of its links, so
        # either one, made the narrower, sets the MLU.
        omega = RoutingWeights.of({Path(0, 1, 2): 1.0}, 3)
        t = np.zeros((3, 3))
        t[0, 1] = 1.0
        for first, second, mlu in [(2, 5, 0.5), (5, 4, 0.25)]:
            X = np.zeros((3, 3), dtype=int)
            X[0, 2], X[2, 1] = first, second
            rec = evaluate_static(IntegerTopology(X[None]), omega,
                                  TrafficMatrix(t), 1.0)
            assert rec.mlu == pytest.approx(mlu)
            assert rec.ahc == pytest.approx(2.0)
            assert rec.direct_fraction == 0.0


def random_capacity(rng, n):
    """Fractional link capacities with about a third of the links zero."""
    cap = rng.uniform(0.1, 3.0, (n, n)) * (rng.random((n, n)) > 0.35)
    np.fill_diagonal(cap, 0.0)
    return cap


def random_routing(rng, n) -> dict:
    """Per pair, random weights on a random nonempty subset of its paths,
    summing to one."""
    weights = {}
    for paths in enumerate_paths(n).values():
        keep = rng.random(len(paths)) < 0.6
        keep[rng.integers(len(paths))] = True
        raw = rng.uniform(0.05, 1.0, len(paths)) * keep
        weights.update((p, float(w)) for p, w in zip(paths, raw / raw.sum())
                       if w > 0)
    return weights


class TestRoutingArithmetic:
    """The baselines, sensitivity map and restriction on the path vector
    against reference loops over ``{Path: w}`` maps."""

    CASES = [(n, seed) for n in range(3, 10) for seed in range(4)]

    @pytest.mark.parametrize("n, seed", CASES)
    def test_weights_and_maps_bit_identical(self, n, seed):
        rng = np.random.default_rng([n, seed])
        cap, other = random_capacity(rng, n), random_capacity(rng, n)
        bandwidth = float(rng.uniform(0.5, 4.0))
        vlb = vlb_weights(cap)
        assert dict(vlb.weights) == loop_vlb_weights(cap)
        for weights in (loop_vlb_weights(cap), random_routing(rng, n)):
            omega = RoutingWeights.of(weights, n)
            sen = sensitivity_map(cap, omega, bandwidth)
            want = loop_sensitivity_map(cap * bandwidth, weights)
            assert sen.tobytes() == want.tobytes()
            kept = _restrict_weights(omega, other)
            assert dict(kept.weights) == loop_restrict_weights(weights, other)

    def test_pod_count_mismatch_rejected(self):
        omega = direct_only_weights(mesh_topology(3, 1))
        t = random_tm(np.random.default_rng(0), 4)
        with pytest.raises(InvalidInputError, match="3 pods"):
            evaluate_static(np.ones((4, 4)), omega, t)


class TestOptimalRouting:
    def test_single_pair_splits_below_direct_only(self):
        # Direct capacity covers the demand at utilization 1/2, but the
        # optimum shares load with the 2-hop path and halves that again.
        topo = mesh_topology(3, 4)
        t = np.zeros((3, 3))
        t[0, 1] = 2.0
        mlu = checked_mlu(topo, TrafficMatrix(t), 1.0)
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
        lp_val = checked_mlu(topo, TrafficMatrix(t), 1.0)
        assert lp_val == pytest.approx(best, abs=2e-3)

    def test_dominates_any_fixed_weights(self):
        rng = np.random.default_rng(0)
        topo = mesh_topology(4, 3)
        t = random_tm(rng, 4, 5.0)
        opt = checked_mlu(topo, t, 1.0)
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
            rec = evaluate_static(topo, RoutingWeights.of(weights, 4), t,
                                  1.0)
            assert opt <= rec.mlu + 1e-9

    def test_all_zero_matrix_has_zero_mlu_and_weights(self, tmp_path):
        t = TrafficMatrix(np.zeros((3, 3)))
        assert checked_mlu(mesh_topology(3, 2), t, 1.0) == 0.0
        # The mesh baseline routes an all-zero matrix direct.
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), make_fabric(3, 2, 2))
        cli.write_tm_sequence(str(seqfile), TmSequence((t,)))
        out = tmp_path / "mesh.jsonl"
        assert cli.main(["evaluate", str(physfile), str(seqfile),
                         "--baseline", "mesh", "--out", str(out)]) == 0
        line = json.loads(out.read_text())
        assert (line["mlu"], line["ahc"]) == (0.0, 1.0)

    def test_unroutable_returns_infinity(self):
        X = np.zeros((3, 3), dtype=int)
        topo = IntegerTopology(X[None])
        t = np.zeros((3, 3))
        t[0, 1] = 1.0
        assert math.isinf(checked_mlu(topo, TrafficMatrix(t), 1.0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_stage1_on_replay_days(self, seed):
        # The benchmark's replay: a gravity day scored on the uniform mesh.
        inputs = bench_inputs()
        eg, ig = inputs.striping(8, 4, 4)
        mesh = uniform_mesh(PhysicalTopology(8, 4, eg, ig, 1.0))
        mats = inputs.gravity_days(np.random.default_rng([seed, 4]), 8,
                                   float(eg.sum()), days=2)
        for demand in mats[inputs.DAY:]:
            checked_mlu(mesh, TrafficMatrix(demand))

    def test_mlu_per_unit_demand_holds_at_every_scale(self):
        # Pod 0 sends v over 2 links to pod 1 and 2 links to pod 2, at
        # best half on each, so MLU / v is 1/4 whatever v and b v are.
        base = np.zeros((3, 3))
        base[0, 1], base[1, 2] = 1.0, 0.5
        mesh = mesh_topology(3, 2)
        for v in 10.0 ** np.arange(-300, 301, 10):
            t = TrafficMatrix(v * base)
            assert optimal_routing_mlu(mesh, t) / v \
                == pytest.approx(0.25, rel=1e-9)
            assert optimal_routing_mlu(mesh, t, v) \
                == pytest.approx(0.25, rel=1e-9)

    def test_scales_as_demand_over_bandwidth(self):
        rng = np.random.default_rng(8)
        X = rng.integers(1, 4, (5, 5))
        np.fill_diagonal(X, 0)
        t, b = random_tm(rng, 5), 2.5
        mlu = checked_mlu(X, t, b)
        for s in 10.0 ** np.arange(-12, 15):
            scaled = TrafficMatrix(s * t.demand)
            assert optimal_routing_mlu(X, scaled, b) \
                == pytest.approx(s * mlu, rel=1e-9)
            assert optimal_routing_mlu(X, scaled, s * b) \
                == pytest.approx(mlu, rel=1e-9)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bandwidth_not_positive_and_finite(self, bandwidth):
        # Every public function that takes a bandwidth refuses it alike.
        t, topo = random_tm(np.random.default_rng(0), 3), mesh_topology(3, 2)
        omega = vlb_weights(topo)
        for call in (lambda: optimal_routing_mlu(topo, t, bandwidth),
                     lambda: evaluate_static(topo, omega, t, bandwidth),
                     lambda: sensitivity_map(topo, omega, bandwidth),
                     lambda: fat_tree_eval(t, 4, bandwidth)):
            with pytest.raises(InvalidInputError, match="link bandwidth"):
                call()

    def test_rejects_shape_mismatch(self):
        t = random_tm(np.random.default_rng(0), 4)
        with pytest.raises(InvalidInputError, match="shapes"):
            optimal_routing_mlu(mesh_topology(3, 2), t)
        with pytest.raises(InvalidInputError, match="shapes"):
            optimal_routing_mlu(np.ones((4, 3)), t)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_capacity(self, value):
        X = np.ones((3, 3)) - np.eye(3)
        X[0, 1] = value
        with pytest.raises(InvalidInputError, match="finite"):
            optimal_routing_mlu(X, random_tm(np.random.default_rng(0), 3))

    def test_capacity_at_most_1e9_of_the_largest_is_absent(self):
        # Pair (0, 1) has one path, its direct link.  At 1e-10 of the
        # largest capacity that link counts as absent, so the pair cannot
        # be routed; at 1e-8 it carries the pair alone.
        X = np.zeros((3, 3))
        X[1, 0] = 1e10
        t = np.zeros((3, 3))
        t[0, 1] = 1.0
        X[0, 1] = 1.0
        assert math.isinf(optimal_routing_mlu(X, TrafficMatrix(t)))
        X[0, 1] = 100.0
        assert checked_mlu(X, TrafficMatrix(t)) == pytest.approx(0.01,
                                                                 rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_links_near_the_cutoff_match_stage1(self, seed):
        # Up to three links at 1.5e-8 to 5e-8 of the largest capacity:
        # rows of the min-MLU LP with coefficients that small, solved
        # unscaled like every LP, still give stage 1's MLU.  The first
        # pair's direct link is one of them, so its demand mostly detours.
        rng = np.random.default_rng([11, seed])
        n = 5
        X = rng.uniform(1.0, 10.0, (n, n))
        np.fill_diagonal(X, 0.0)
        off = np.argwhere(~np.eye(n, dtype=bool))
        src, dst = np.vstack([[0, 1], off[rng.choice(len(off), 2,
                                                     replace=False)]]).T
        X[src, dst] = X.max() * rng.uniform(1.5e-8, 5e-8, 3)
        detour = np.zeros((n, n))
        detour[0, 1] = 1.0
        for t in (random_tm(rng, n), sparse_tm(rng, n, 0.4),
                  TrafficMatrix(detour)):
            assert 0 < checked_mlu(X, t) < math.inf

    def test_results_do_not_hinge_on_call_order(self):
        # The cached models keep no right-hand side or basis of an earlier
        # call: forward, shuffled, and interleaved with a second topology
        # and a second critical set, every result is the same bits.
        rng = np.random.default_rng(6)
        n = 6
        other = rng.integers(0, 3, (n, n))
        np.fill_diagonal(other, 0)
        crit, other_crit = (random_criticals(rng, n, k) for k in (3, 2))
        tms = [random_tm(rng, n) for _ in range(8)] + [
            TrafficMatrix(np.zeros((n, n))),
            TrafficMatrix(0.5 * crit.matrices[0].demand)]

        def score(k):
            res = check_bounded(tms[k], crit)
            return (optimal_routing_mlu(mesh_topology(n, 2), tms[k]).hex(),
                    res.lambdas.tobytes(), res.slack.hex())

        def interleaved(k):
            optimal_routing_mlu(other, tms[-1 - k])
            check_bounded(tms[-1 - k], other_crit)
            return score(k)

        forward = [score(k) for k in range(len(tms))]
        order = rng.permutation(len(tms))
        shuffled = dict(zip(order, map(score, order)))
        assert [shuffled[k] for k in range(len(tms))] == forward
        assert [interleaved(k) for k in range(len(tms))] == forward

    @staticmethod
    def thinned_meshes(seed: int, count: int) -> list:
        """(capacity, matrix) pairs: the uniform mesh of a random fabric with
        about a third of its links removed, and a random matrix on the
        pairs some 1- or 2-hop path still joins.  Many pairs lose their
        direct link, so their first usable path is a 2-hop one."""
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(count):
            n = int(rng.integers(3, 8))
            X = uniform_mesh(random_fabric(rng, n, 2, qmin=1, qmax=4)).X
            X = X * (rng.random((n, n)) < 0.65)
            up = (X > 0).astype(int)
            joined = (up + up @ up) > 0
            cases.append((X.astype(float),
                          TrafficMatrix(random_tm(rng, n).demand * joined)))
        return cases

    def test_start_basis_routes_each_pair_on_its_first_path(self,
                                                            monkeypatch):
        # Every min-MLU solve starts from one basis: each routed pair's
        # first usable path basic, the other flows and U at 0.  Its MLU is
        # a cold solve's within 1e-12 relative; without a start basis
        # set_basis(None) makes every solve cold.
        cases = self.thinned_meshes(8, 40)
        starts, run = [], lp._run_highs

        def record(model, options, basis=None, **kwargs):
            starts.append(basis)  # each solve here is a min-MLU LP
            return run(model, options, basis, **kwargs)

        monkeypatch.setattr(lp, "_run_highs", record)
        warm = [optimal_routing_mlu(X, t) for X, t in cases]
        monkeypatch.undo()
        basic = lp._highs.HighsBasisStatus.kBasic
        two_hop_first = 0
        for (X, t), basis in zip(cases, starts):
            paths = _tables(t.num_pods).paths
            usable = [p for p in paths
                      if all(X[a, b] > 0 for a, b in p.links())]
            first = [p for k, p in enumerate(usable)
                     if k == 0 or (usable[k - 1].src, usable[k - 1].dst)
                     != (p.src, p.dst)]
            assert [status == basic for status in basis.col_status] \
                == [p in first for p in usable] + [False]
            two_hop_first += sum(p.via is not None for p in first)
        assert len(starts) == len(cases) and two_hop_first >= 20
        evaluate._routing_lp.cache_clear()
        starts.clear()
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_run_highs", record)
            patch.setattr(lp.LpModel, "start_basis", lambda *args: None)
            cold = [optimal_routing_mlu(X, t) for X, t in cases]
        evaluate._routing_lp.cache_clear()
        assert starts == [None] * len(cases)
        for got, want in zip(warm, cold):
            assert got == pytest.approx(want, rel=1e-12)

    def test_start_basis_results_do_not_hinge_on_call_order(self):
        # Forward, shuffled, and interleaved with a second topology: the
        # same bits.
        cases = self.thinned_meshes(9, 12)
        other = self.thinned_meshes(10, 12)
        forward = [optimal_routing_mlu(X, t).hex() for X, t in cases]
        order = np.random.default_rng(11).permutation(len(cases))
        shuffled = {k: optimal_routing_mlu(*cases[k]).hex() for k in order}
        assert [shuffled[k] for k in range(len(cases))] == forward
        interleaved = []
        for (X, t), (Y, u) in zip(cases, other):
            if Y.shape == X.shape:
                optimal_routing_mlu(Y, t)
            optimal_routing_mlu(Y, u)
            interleaved.append(optimal_routing_mlu(X, t).hex())
        assert interleaved == forward

    def test_cli_mesh_routes_as_recompute_routing(self, tmp_path):
        # couder evaluate --baseline mesh scores each matrix on the weights
        # recompute_routing gives the mesh for that matrix alone.
        phys = make_fabric(4, 2, 3)
        mesh = uniform_mesh(phys)
        seq = gen_storage_tms(4, 12, 1, (1.0, 100.0))
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), phys)
        cli.write_tm_sequence(str(seqfile), seq)
        out = tmp_path / "mesh.jsonl"
        assert cli.main(["evaluate", str(physfile), str(seqfile),
                         "--baseline", "mesh", "--out", str(out)]) == 0
        ahcs = [json.loads(line)["ahc"]
                for line in out.read_text().splitlines()]
        routed = [recompute_routing(phys, mesh, CriticalSet((t,)),
                                    desensitized=False) for t in seq]
        assert ahcs == [evaluate_static(mesh, r.omega, t).ahc
                        for r, t in zip(routed, seq)]

    def test_mesh_ahc_does_not_hinge_on_presolve(self, monkeypatch):
        # The weights are the fewest hops among the MLU-optimal ones, so
        # their AHC belongs to the mesh and the matrix, not to the vertex
        # HiGHS ends on.  On this sequence, the one CI synthesizes, the
        # AHC of stage 1's own weights moved by up to 0.24 with presolve.
        phys = make_fabric(4, 2, 3)
        mesh = uniform_mesh(phys)
        seq = gen_storage_tms(4, 12, 1, (1.0, 100.0))

        def scores():
            out = []
            for t in seq:
                omega = recompute_routing(phys, mesh, CriticalSet((t,)),
                                          desensitized=False).omega
                out.append((optimal_routing_mlu(mesh, t),
                            evaluate_static(mesh, omega, t).ahc))
            return np.array(out)

        default = scores()
        # Presolve flipped in stage 1, which the weights come from; stage 3
        # re-solves its model from its basis, where HiGHS skips presolve.
        monkeypatch.setattr(lp, "_FAMILY_OPTIONS", {
            name: options for name, options in lp._FAMILY_OPTIONS.items()
            if name != "fixed-throughput"})
        np.testing.assert_allclose(scores(), default, rtol=1e-9, atol=1e-9)


def bench_inputs():
    """``perfbench/inputs.py``, loaded by path."""
    path = FilePath(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


class TestPresolveOffFamilies:
    """The boundedness LP runs with presolve off, and the min-MLU LP from a
    start basis, with which HiGHS skips presolve; each must give what a
    presolve-on solve gives."""

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
            (mlu, res), (mlu_on, res_on) = self.both_ways(
                monkeypatch, lambda: (optimal_routing_mlu(X, t, b),
                                      check_bounded(t, crit)))
            assert_agree(mlu, mlu_on)
            assert_agree(mlu, stage1_routing_mlu(X, t, b))
            assert_agree(res.slack, res_on.slack)
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
            assert_agree(mlu, mlu_on)
            assert_agree(res.slack, res_on.slack)
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
            ports = zero_radix_fabric(rng, n, m, dead=0.15 * (case % 2))
            phys = PhysicalTopology(n, m, ports.egress_ports,
                                    ports.ingress_ports,
                                    float(rng.uniform(0.5, 4.0)))
            t = sparse_tm(rng, n, float(rng.uniform(0.05, 1.0)))
            want = lp_ideal_toe_mlu(phys, t)
            assert ideal_toe_mlu(phys, t) == pytest.approx(want, rel=1e-9)
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
            ideal_toe_mlu(make_fabric(3, 1, 2, bandwidth=1e-310),
                          TrafficMatrix(t))


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

    def test_places_2_pow_50_links_at_once(self):
        # 2 pods, 1 switch, 2^50 ports each way: one pair takes them all,
        # which a link-by-link loop would take 2^50 passes to place.
        mesh = uniform_mesh(make_fabric(2, 1, 2 ** 50))
        assert mesh.x.tolist() == [[[0, 2 ** 50], [2 ** 50, 0]]]


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
        assert omega.weights.get(Path(0, 1), 0.0) == 0.0
        assert omega.weights.get(Path(0, 1, 2), 0.0) == pytest.approx(1.0)

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

    def test_uplinks_per_pod_must_match_the_matrix(self):
        t = random_tm(np.random.default_rng(7), 4, 20.0)
        rec = fat_tree_eval(t, np.full(4, 16), 1.0, 2.0)
        assert rec.mlu == fat_tree_eval(t, 16, 1.0, 2.0).mlu
        with pytest.raises(InvalidInputError, match="6 pod uplink counts"):
            fat_tree_eval(t, np.full(6, 16), 1.0, 2.0)

    def test_pod_without_uplinks(self):
        # A pod with no uplinks scores 0 without demand and inf with it; a
        # negative count is refused.
        t = np.zeros((3, 3))
        t[0, 1] = 8.0
        up = np.array([16, 16, 0])
        assert fat_tree_eval(TrafficMatrix(t), up, 1.0, 2.0).mlu == 1.0
        t[1, 2] = 1.0
        assert fat_tree_eval(TrafficMatrix(t), up, 1.0, 2.0).mlu == math.inf
        with pytest.raises(InvalidInputError, match="must not be negative"):
            fat_tree_eval(TrafficMatrix(t), [16, 16, -1], 1.0, 2.0)

    def test_capacity_underflow(self):
        # 4 * 1e-320 / 1e10 is 0: a pod with demand is infinitely loaded,
        # an idle pod adds nothing, and numpy warns of nothing.
        t = np.zeros((3, 3))
        t[0, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fat_tree_eval(TrafficMatrix(t), 4, 1e-320, 1e10).mlu \
                == math.inf
            assert fat_tree_eval(TrafficMatrix(0 * t), 4, 1e-320, 1e10).mlu \
                == 0.0


class TestSensitivityMap:
    def test_single_path(self):
        X = np.zeros((2, 2), dtype=int)
        X[0, 1] = 4
        omega = RoutingWeights.of({Path(0, 1): 1.0}, 2)
        sen = sensitivity_map(IntegerTopology(X[None]), omega, 1.0)
        assert sen[0, 1] == pytest.approx(0.25)

    def test_unused_link_zero(self):
        X = np.full((3, 3), 2)
        np.fill_diagonal(X, 0)
        omega = RoutingWeights.of({Path(0, 1): 1.0}, 3)
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

    @pytest.mark.parametrize("p", [math.nan, -0.5, 1.5])
    def test_fraction_outside_0_1_rejected(self, p):
        with pytest.raises(InvalidInputError, match="fraction"):
            num_stages(p, 0.8)

    def test_stage_shares_of_2_pow_51_circuits(self):
        # Two cells of 2**50 circuits each, split into 5 stages without
        # listing them: the first 2**51 mod 5 stages take one more.
        drop = np.zeros((2, 2, 2), dtype=np.int64)
        drop[0, 0, 1] = drop[1, 1, 0] = 2 ** 50
        size, extra = divmod(2 ** 51, 5)
        shares = _stage_shares(drop, 5)
        assert [int(s.sum()) for s in shares] \
            == [size + (s < extra) for s in range(5)]
        np.testing.assert_array_equal(sum(shares), drop)
        assert [int(s[0, 0, 1]) for s in shares] \
            == [size + 1, size + 1, 2 ** 50 - 2 * size - 2, 0, 0]

    def test_restrict_weights_drops_paths_on_removed_links(self):
        full = np.full((3, 3), 2.0) - 2.0 * np.eye(3)
        cap = full.copy()
        cap[0, 1] = cap[2, 1] = 0.0
        kept = _restrict_weights(vlb_weights(full), cap).weights
        # (0, 1) and (2, 1) have no path left and go direct; (0, 2) and
        # (2, 0) lose their 2-hop path; the other pairs keep their split.
        want = {Path(0, 1): 1.0, Path(2, 1): 1.0, Path(0, 2): 1.0,
                Path(2, 0): 1.0}
        for i, j, k in [(1, 0, 2), (1, 2, 0)]:
            want[Path(i, j)] = want[Path(i, j, k)] = 0.5
        assert dict(kept) == want


def two_regime_sequence():
    """40 matrices on 4 pods, at t = 0 .. 39, whose heavy pairs change at
    t = 20, so a plan made before then and one made after differ."""
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
    return TmSequence(tuple(mats), 1.0)


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
        # Epochs fall half-way between integer timestamps, and at most
        # ceil(1 / 0.2) = 5 stages of 0.05 s end within 0.25 s: every
        # switch is over before the next matrix, which sees what a switch
        # with no latency installs.
        phys = make_fabric(4, 2, 3)
        seq = two_regime_sequence()
        kw = dict(frequency=10.0, alpha_pred=0.8, lookback=5.5, k=2)
        fast = ReconfigPolicy(stage_latency=0.0, **kw)
        slow = ReconfigPolicy(stage_latency=0.05, **kw)
        a, epochs = simulate_reconfig(phys, seq, fast, seed=9)
        b, slow_epochs = simulate_reconfig(phys, seq, slow, seed=9)
        assert any(ep.stages > 0 for ep in slow_epochs)
        assert slow_epochs == epochs
        assert [(p.time, p.record.mlu, p.record.ahc, p.epoch, p.stage)
                for p in b] == [(p.time, p.record.mlu, p.record.ahc,
                                 p.epoch, p.stage) for p in a]
        assert all(p.stage is None for p in a)

    def test_stage3_solves_at_stage2_output(self, monkeypatch):
        # Stage 3 has been called infeasible exactly at stage 2's (F,
        # gamma / F) on one of these plans; it gets mu = F (1 - MU_SLACK).
        calls = []
        real = optimize.desensitize

        def recording(phys, crit, mu_star, _fixed=None, _warm=None):
            if _fixed is None:
                calls.append((phys, crit, mu_star))
            return real(phys, crit, mu_star, _fixed, _warm)

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
        seq = two_regime_sequence()
        phys = make_fabric(4, 2, 3)
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

    def test_first_plan_keeps_a_path_for_every_pair(self, monkeypatch):
        # A guard on LDM's early stop.  At the first epoch of this instance
        # the completion of the first dual iterate already meets every
        # bracket but leaves pairs (0, 3) and (2, 1) without a 1- or 2-hop
        # path.  LDM runs on to iteration 9, whose completion links every
        # pair.  This passes with or without the early stop, and fails
        # under a stop on the brackets alone.
        reports = []
        ldm_round = rounding.ldm_round

        def recording(*args):
            reports.append(ldm_round(*args))
            return reports[-1]

        monkeypatch.setattr(rounding, "ldm_round", recording)
        policy = ReconfigPolicy(frequency=10.0, stage_latency=0.0,
                                alpha_pred=0.8, lookback=5.5, k=2)
        simulate_reconfig(make_fabric(4, 2, 3), two_regime_sequence(),
                          policy, seed=9)
        X = reports[0].topo.X
        for i, j in itertools.permutations(range(4), 2):
            assert has_short_path(X, i, j), (i, j)

    @pytest.mark.parametrize("latency, alpha, longest", [
        (3.0, 0.8, "15"), (1.01, 0.7, "4.04")])
    def test_switch_over_longer_than_the_period_rejected(self, latency,
                                                         alpha, longest):
        # At alpha 0.8 a switch-over takes up to 5 stages, at 0.7 up to 4.
        # Past the next epoch, that epoch's plan would be applied out of
        # time order.
        with pytest.raises(InvalidInputError,
                           match=f"switch-over can take {longest} s"):
            ReconfigPolicy(frequency=4.0, lookback=4.0, k=2,
                           stage_latency=latency, alpha_pred=alpha)

    def test_switch_over_of_one_period_keeps_time_order(self):
        # 5 stages of 0.8 s end exactly at the next epoch.  Each matrix is
        # scored on the latest epoch at or before it, in the stage the
        # clock gives until that epoch's install.
        policy = ReconfigPolicy(frequency=4.0, lookback=4.5, k=2,
                                stage_latency=0.8, alpha_pred=0.8)
        points, epochs = simulate_reconfig(
            make_fabric(4, 2, 3), two_regime_sequence(), policy, seed=1)
        assert any(ep.stages for ep in epochs)
        for p in points:
            idx = max(i for i, ep in enumerate(epochs) if ep.time <= p.time)
            ep = epochs[idx]
            assert p.epoch == idx
            since = p.time - ep.time
            if since >= ep.stages * policy.stage_latency:
                assert p.stage is None
            else:
                assert p.stage == int(since // policy.stage_latency)

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
