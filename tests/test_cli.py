import json
import math
import warnings

import numpy as np
import pytest

from couder import cli, lp, optimize, round as rounding
from couder.errors import SolverLimitError
from couder.evaluate import evaluate_static, uniform_mesh
from couder.model import (FractionalTopology, IntegerTopology, Path,
                          PhysicalTopology, RoutingWeights, TmSequence,
                          TrafficMatrix)
from couder.optimize import FractionalSolution
from couder.traffic import CriticalSet
from helpers import (idle_pod_instance, make_fabric, random_criticals,
                     random_tm, write_physical_topology)


def write_seq(path, demands, times=None):
    mats = []
    for idx, d in enumerate(demands):
        ts = float(idx) if times is None else times[idx]
        mats.append(TrafficMatrix(d, timestamp=ts))
    cli.write_tm_sequence(str(path), TmSequence(tuple(mats)))


def constant_seq(n=4, count=6, value=3.0):
    t = np.full((n, n), value)
    np.fill_diagonal(t, 0.0)
    return [t] * count


class TestRoundTrips:
    def test_tm_sequence(self, tmp_path):
        rng = np.random.default_rng(0)
        demands = [random_tm(rng, 4, 5.0).demand for _ in range(5)]
        p = tmp_path / "seq.jsonl"
        write_seq(p, demands)
        seq = cli.read_tm_sequence(str(p))
        assert len(seq) == 5
        np.testing.assert_allclose(seq.stacked(), np.stack(demands))

    def test_window_is_the_least_timestamp_step(self, tmp_path):
        p = tmp_path / "seq.jsonl"
        write_seq(p, constant_seq(2, 3), times=[0.0, 1.0, 3.0])
        assert cli.read_tm_sequence(str(p)).aggregation_window == 1.0

    def test_physical_topology(self, tmp_path):
        phys = make_fabric(3, 2, [2, 4, 3], bandwidth=25.0)
        p = tmp_path / "phys.json"
        write_physical_topology(str(p), phys)
        back = cli.read_physical_topology(str(p))
        assert back.num_pods == 3 and back.num_ocs == 2
        assert back.link_bandwidth == 25.0
        np.testing.assert_array_equal(back.egress_ports, phys.egress_ports)

    def test_solution(self, tmp_path):
        d = np.zeros((3, 3))
        d[0, 1] = 2.5
        # Every pair is routed: pair (0, 1) splits, the others go direct.
        weights = {Path(i, j): 1.0 for i in range(3) for j in range(3)
                   if i != j}
        weights.update({Path(0, 1): 0.75, Path(0, 1, 2): 0.25})
        omega = RoutingWeights.of(weights, 3)
        sol = FractionalSolution(FractionalTopology(d), omega, 1.5, 0.3)
        p = tmp_path / "sol.json"
        cli.write_solution(str(p), sol)
        back = cli.read_solution(str(p))
        assert back.mu == 1.5 and back.beta == 0.3
        np.testing.assert_allclose(back.d.d, d)
        assert back.omega.weights.get(Path(0, 1, 2), 0.0) == 0.25

    def test_plan_files_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(8)
        phys = make_fabric(5, 2, 3)
        crit = random_criticals(rng, 5, 3)
        sol = optimize.run_pipeline(phys, crit)
        topo = rounding.ldm_round(phys, sol.d, 20).topo
        routed = optimize.recompute_routing(phys, topo, crit)
        solfile, topofile = tmp_path / "sol.json", tmp_path / "topo.json"
        cli.write_solution(str(solfile), sol)
        cli.write_integer_topology(str(topofile), topo, routed)
        back = cli.read_solution(str(solfile))
        assert back.d.d.tobytes() == sol.d.d.tobytes()
        assert (back.mu, back.beta) == (sol.mu, sol.beta)
        assert back.omega.omega.tobytes() == sol.omega.omega.tobytes()
        back_topo, omega = cli.read_integer_topology(str(topofile))
        assert back_topo.x.tobytes() == topo.x.tobytes()
        assert omega.omega.tobytes() == routed.omega.omega.tobytes()

    def test_integer_topology(self, tmp_path):
        x = np.zeros((2, 3, 3), dtype=int)
        x[0, 0, 1] = 2
        x[1, 2, 0] = 1
        p = tmp_path / "topo.json"
        cli.write_integer_topology(str(p), IntegerTopology(x))
        back, omega = cli.read_integer_topology(str(p))
        np.testing.assert_array_equal(back.x, x)
        assert omega is None

    def test_critical_set(self, tmp_path):
        rng = np.random.default_rng(1)
        crit = CriticalSet((random_tm(rng, 3), random_tm(rng, 3)))
        p = tmp_path / "crit.json"
        cli.write_critical_set(str(p), crit)
        assert set(json.loads(p.read_text())) == {"version", "matrices"}
        back = cli.read_critical_set(str(p))
        np.testing.assert_array_equal(back.stacked(), crit.stacked())

    def test_critical_set_with_clustering_keys_reads_the_matrices(
            self, tmp_path):
        # The earlier format also held k, seed and the cluster of each
        # matrix; nothing reads them, so they are ignored, whatever they
        # hold.
        rng = np.random.default_rng(2)
        crit = CriticalSet((random_tm(rng, 3), random_tm(rng, 3)))
        p = tmp_path / "crit.json"
        p.write_text(json.dumps({
            "version": 1, "k": 7, "seed": 2.7, "assignment": [9, -1, 2.5],
            "matrices": [t.demand.tolist() for t in crit]}))
        back = cli.read_critical_set(str(p))
        np.testing.assert_array_equal(back.stacked(), crit.stacked())


class TestCommands:
    def test_idle_pod_fabric_end_to_end(self, tmp_path):
        # Pod 3 has no ports and no traffic.  The desensitized plan, its
        # rounding and re-routing, baselines none and fattree, and a
        # simulation all exit 0, and the plan gives pod 3 no link.
        phys, crit = idle_pod_instance()
        f = {name: str(tmp_path / name) for name in
             ("phys.json", "crit.json", "seq.jsonl", "sol.json", "topo.json",
              "none.jsonl", "fattree.jsonl", "sim.jsonl")}
        write_physical_topology(f["phys.json"], phys)
        cli.write_critical_set(f["crit.json"], crit)
        t = crit.matrices[0].demand
        write_seq(f["seq.jsonl"], [t * (1 + 0.1 * k) for k in range(8)])
        for argv in (["optimize", f["phys.json"], f["crit.json"],
                      "--out", f["sol.json"]],
                     ["round", f["phys.json"], f["sol.json"], f["crit.json"],
                      "--out", f["topo.json"]],
                     *(["evaluate", f["phys.json"], f["seq.jsonl"],
                        "--topology", f["topo.json"], "--baseline",
                        baseline, "--out", f[baseline + ".jsonl"]]
                       for baseline in ("none", "fattree")),
                     ["--lookback", "4", "simulate", f["phys.json"],
                      f["seq.jsonl"], "--frequency", "4", "--out",
                      f["sim.jsonl"]]):
            assert cli.main(argv) == 0, argv
        d = cli.read_solution(f["sol.json"]).d.d
        assert not d[3].any() and not d[:, 3].any()

    def test_extract_writes_only_version_and_matrices(self, tmp_path):
        seqfile, out = tmp_path / "seq.jsonl", tmp_path / "crit.json"
        write_seq(seqfile, constant_seq())
        assert cli.main(["--k", "2", "extract", str(seqfile), "--out",
                         str(out)]) == 0
        obj = json.loads(out.read_text())
        assert set(obj) == {"version", "matrices"}
        assert len(obj["matrices"]) == 2

    def test_extract_constant_sequence_k1(self, tmp_path):
        seqfile = tmp_path / "seq.jsonl"
        write_seq(seqfile, constant_seq())
        out = tmp_path / "crit.json"
        rc = cli.main(["--k", "1", "extract", str(seqfile), "--out", str(out)])
        assert rc == 0
        crit = cli.read_critical_set(str(out))
        assert len(crit) == 1
        np.testing.assert_allclose(crit.matrices[0].demand, constant_seq()[0])

    def test_full_pipeline_deterministic(self, tmp_path):
        physfile = tmp_path / "phys.json"
        write_physical_topology(str(physfile), make_fabric(4, 2, 4))
        seqfile = tmp_path / "seq.jsonl"
        rng = np.random.default_rng(2)
        write_seq(seqfile, [random_tm(rng, 4, 5.0).demand for _ in range(8)])

        def run(tag):
            crit = tmp_path / f"crit{tag}.json"
            sol = tmp_path / f"sol{tag}.json"
            topo = tmp_path / f"topo{tag}.json"
            assert cli.main(["--k", "2", "--seed", "7", "extract",
                             str(seqfile), "--out", str(crit)]) == 0
            assert cli.main(["optimize", str(physfile), str(crit),
                             "--out", str(sol)]) == 0
            assert cli.main(["round", str(physfile), str(sol), "--out",
                             str(topo)]) == 0
            return (crit.read_bytes(), sol.read_bytes(), topo.read_bytes())

        assert run("a") == run("b")

    def test_round_reroutes_a_plain_plan_plain(self, tmp_path):
        # Re-routing on the rounded topology is desensitized exactly when
        # the fractional plan was.
        phys = make_fabric(4, 1, 3)
        f = {name: str(tmp_path / name)
             for name in ("phys.json", "crit.json", "sol.json", "topo.json")}
        write_physical_topology(f["phys.json"], phys)
        cli.write_critical_set(f["crit.json"], random_criticals(
            np.random.default_rng(4), 4, 2))
        assert cli.main(["optimize", f["phys.json"], f["crit.json"], "--out",
                         f["sol.json"], "--no-desensitize"]) == 0
        assert cli.main(["round", f["phys.json"], f["sol.json"],
                         f["crit.json"], "--out", f["topo.json"]]) == 0
        with open(f["topo.json"], encoding="utf-8") as fh:
            assert json.load(fh)["beta"] is None

    def test_round_integral_case(self, tmp_path, capsys):
        physfile = tmp_path / "phys.json"
        write_physical_topology(str(physfile), make_fabric(2, 1, 4))
        d = np.array([[0.0, 4.0], [4.0, 0.0]])
        sol = FractionalSolution(
            FractionalTopology(d),
            RoutingWeights.of({Path(0, 1): 1.0, Path(1, 0): 1.0}, 2), 0.5)
        solfile = tmp_path / "sol.json"
        cli.write_solution(str(solfile), sol)
        topofile = tmp_path / "topo.json"
        rc = cli.main(["round", str(physfile), str(solfile), "--out",
                       str(topofile)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violation_ratio"] == 0.0
        topo, _ = cli.read_integer_topology(str(topofile))
        np.testing.assert_array_equal(topo.X, d.astype(int))

    def test_evaluate_fattree_ahc_two(self, tmp_path):
        physfile = tmp_path / "phys.json"
        write_physical_topology(str(physfile), make_fabric(4, 1, 6))
        seqfile = tmp_path / "seq.jsonl"
        rng = np.random.default_rng(3)
        write_seq(seqfile, [random_tm(rng, 4, 4.0).demand for _ in range(5)])
        out = tmp_path / "metrics.jsonl"
        rc = cli.main(["evaluate", str(physfile), str(seqfile),
                       "--baseline", "fattree", "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 5
        assert all(line["ahc"] == 2.0 for line in lines)
        # The CCDF: the sorted MLUs, each with the share of MLUs above it.
        ccdf = np.loadtxt(tmp_path / "metrics.jsonl.mlu_ccdf.txt")
        np.testing.assert_allclose(ccdf[:, 0], sorted(line["mlu"]
                                                      for line in lines),
                                   rtol=1e-9)
        np.testing.assert_allclose(ccdf[:, 1], [0.8, 0.6, 0.4, 0.2, 0.0],
                                   atol=1e-12)
        assert (tmp_path / "metrics.jsonl.ahc_pct.txt").exists()

    def test_evaluate_static_solution(self, tmp_path):
        phys = make_fabric(3, 1, 4)
        physfile = tmp_path / "phys.json"
        write_physical_topology(str(physfile), phys)
        x = np.full((3, 3), 2)
        np.fill_diagonal(x, 0)
        weights = {}
        for i in range(3):
            for j in range(3):
                if i != j:
                    weights[Path(i, j)] = 1.0
        topofile = tmp_path / "topo.json"
        cli.write_integer_topology(
            str(topofile), IntegerTopology(x[None]),
            FractionalSolution(FractionalTopology(x),
                               RoutingWeights.of(weights, 3), 1.0))
        seqfile = tmp_path / "seq.jsonl"
        write_seq(seqfile, constant_seq(3, 4, 1.0))
        out = tmp_path / "metrics.jsonl"
        rc = cli.main(["evaluate", str(physfile), str(seqfile),
                       "--topology", str(topofile), "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(line["mlu"] == pytest.approx(0.5) for line in lines)

    def test_evaluate_uses_weights_recomputed_on_rounded_topology(
            self, tmp_path):
        # Stage-3 weights of this plan cross links that rounding removes:
        # scored on the rounded X they load a dead link.  round with the
        # critical set writes weights recomputed on X, which evaluate uses.
        # By construction: on one switch with 2 ports per pod, X holds at
        # most 8 links over the 12 pairs of 4 pods.  The uniform critical
        # reaches mu* = 8 / 12 only with every pair sent direct; a pair
        # sent over 2 hops alone would hold mu to 8 / 13, far below the
        # mu* (1 - MU_SLACK) of stage 3.  So stage 3 puts weight on all 12
        # direct links, of which at least 4 are dead on X.
        phys = make_fabric(4, 1, 2)
        crit = CriticalSet((TrafficMatrix(np.ones((4, 4)) - np.eye(4)),))
        physfile, critfile = tmp_path / "phys.json", tmp_path / "crit.json"
        solfile, topofile = tmp_path / "sol.json", tmp_path / "topo.json"
        write_physical_topology(str(physfile), phys)
        cli.write_critical_set(str(critfile), crit)
        assert cli.main(["optimize", str(physfile), str(critfile),
                         "--out", str(solfile)]) == 0
        assert cli.main(["round", str(physfile), str(solfile), str(critfile),
                         "--out", str(topofile)]) == 0
        topo, omega = cli.read_integer_topology(str(topofile))
        stage3 = cli.read_solution(str(solfile)).omega
        assert not all(evaluate_static(topo, stage3, t).feasible
                       for t in crit)
        routed = json.loads(topofile.read_text())
        assert routed["mu"] > 0 and routed["beta"] is not None
        assert omega.weights
        assert not np.array_equal(omega.omega, stage3.omega)
        seqfile, out = tmp_path / "seq.jsonl", tmp_path / "metrics.jsonl"
        write_seq(seqfile, [t.demand for t in crit])
        assert cli.main(["evaluate", str(physfile), str(seqfile),
                         "--topology", str(topofile), "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(line["feasible"] for line in lines)
        assert all(line["mlu"] <= 1.0 / routed["mu"] + 1e-6
                   for line in lines)

    def test_evaluate_mesh_marks_zero_matrix_feasible(self, tmp_path):
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), make_fabric(3, 1, 4))
        write_seq(seqfile, [np.zeros((3, 3))] + constant_seq(3, 1, 1.0))
        out = tmp_path / "metrics.jsonl"
        assert cli.main(["evaluate", str(physfile), str(seqfile),
                         "--baseline", "mesh", "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(line["feasible"] for line in lines)
        assert lines[0]["mlu"] == 0.0 and lines[1]["mlu"] > 0.0

    @pytest.mark.parametrize("baseline", ["vlb", "fattree"])
    def test_evaluate_overflowed_mlu_is_infeasible(self, tmp_path, baseline):
        # At this bandwidth every utilization overflows to infinity: the
        # line's MLU is null, so it is not feasible either, and numpy
        # warns of nothing.
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile),
                                make_fabric(3, 1, 4, bandwidth=1e-307))
        write_seq(seqfile, constant_seq(3, 2, 100.0))
        out = tmp_path / "metrics.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["evaluate", str(physfile), str(seqfile),
                             "--baseline", baseline, "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [(line["mlu"], line["feasible"]) for line in lines] \
            == [(None, False)] * 2

    def test_evaluate_ideal_zero_radix_sender_is_null(self, tmp_path):
        # Pod 0 has no egress port, so any matrix in which it sends has no
        # routing at all: an infinite MLU, written as null.
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), PhysicalTopology(
            3, 1, np.array([[0, 2, 2]]), np.array([[2, 1, 1]]), 1.0))
        sends, silent = np.zeros((3, 3)), np.zeros((3, 3))
        sends[0, 1] = silent[1, 0] = 1.0
        write_seq(seqfile, [sends, silent])
        out = tmp_path / "ideal.jsonl"
        assert cli.main(["evaluate", str(physfile), str(seqfile),
                         "--baseline", "ideal", "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["mlu"] is None and not lines[0]["feasible"]
        assert lines[1]["mlu"] == 0.5 and lines[1]["feasible"]

    def test_evaluate_none_needs_recomputed_routing(self, tmp_path, capsys):
        physfile, topofile = tmp_path / "phys.json", tmp_path / "topo.json"
        write_physical_topology(str(physfile), make_fabric(3, 1, 4))
        x = np.full((3, 3), 2) - 2 * np.eye(3, dtype=int)
        cli.write_integer_topology(str(topofile), IntegerTopology(x[None]))
        seqfile = tmp_path / "seq.jsonl"
        write_seq(seqfile, constant_seq(3, 2, 1.0))
        rc = cli.main(["evaluate", str(physfile), str(seqfile),
                       "--topology", str(topofile),
                       "--out", str(tmp_path / "m.jsonl")])
        assert rc == 1
        assert "no routing weights" in capsys.readouterr().err

    def test_synth_storage(self, tmp_path):
        out = tmp_path / "seq.jsonl"
        rc = cli.main(["--seed", "5", "synth", "--mode", "storage", "--pods",
                       "6", "--count", "4", "--out", str(out)])
        assert rc == 0
        seq = cli.read_tm_sequence(str(out))
        assert len(seq) == 4
        assert (seq[0].demand[3:, 3:] == 0).all()

    def test_synth_burst(self, tmp_path):
        seqfile = tmp_path / "in.jsonl"
        rng = np.random.default_rng(6)
        write_seq(seqfile, [random_tm(rng, 3, 4.0).demand for _ in range(4)])
        out = tmp_path / "burst.jsonl"
        rc = cli.main(["synth", "--mode", "burst", "--tm-file", str(seqfile),
                       "--burst-factor", "2.0", "--max-burst-pairs", "1",
                       "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 6  # N=3 -> 6 single-pair burst sets
        assert all("burst_set" in l for l in lines)

    @pytest.mark.parametrize("factor", ["inf", "1e308", "nan"])
    def test_synth_burst_non_finite_exits_1(self, tmp_path, capsys, factor):
        # inf and 1e308 overflowed in numpy, a traceback under -W error;
        # nan ended with a message about the demand, not the factor.  Every
        # sigma here is above 2, so 1e308 sigma passes the float range.
        seqfile, out = tmp_path / "in.jsonl", tmp_path / "burst.jsonl"
        t = np.ones((3, 3)) - np.eye(3)
        write_seq(seqfile, [t, 6 * t])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["synth", "--mode", "burst", "--tm-file",
                           str(seqfile), "--burst-factor", factor,
                           "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"burst factor {float(factor):g} " in err

    def test_synth_storage_infinite_demand_exits_1(self, tmp_path, capsys):
        out = tmp_path / "seq.jsonl"
        rc = cli.main(["synth", "--mode", "storage", "--pods", "4",
                       "--count", "2", "--demand-max", "inf",
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "demand range [1, inf]" in err

    def test_simulate_smoke(self, tmp_path):
        physfile = tmp_path / "phys.json"
        write_physical_topology(str(physfile), make_fabric(4, 1, 4))
        seqfile = tmp_path / "seq.jsonl"
        rng = np.random.default_rng(7)
        base = random_tm(rng, 4, 4.0).demand
        demands = []
        for _ in range(20):
            jitter = base * rng.uniform(0.9, 1.1, base.shape)
            np.fill_diagonal(jitter, 0.0)
            demands.append(jitter)
        write_seq(seqfile, demands)
        out = tmp_path / "sim.jsonl"
        rc = cli.main(["--k", "1", "--lookback", "5", "simulate",
                       str(physfile), str(seqfile), "--frequency", "8",
                       "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert any(l.get("event") == "reconfig" for l in lines)
        assert any("mlu" in l and l.get("event") is None for l in lines)


class TestExitCodes:
    def test_unknown_flag_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--definitely-not-a-flag", "synth"])
        assert exc.value.code == 64

    def test_validation_error_exits_1(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        out = tmp_path / "crit.json"
        rc = cli.main(["extract", str(missing), "--out", str(out)])
        assert rc == 1

    @pytest.mark.parametrize("where", ["input"])
    def test_directory_as_input_file_exits_1(self, tmp_path, capsys, where):
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = ["--k", "1", "extract", str(folder)]
        assert cli.main(argv + ["--out", str(tmp_path / "crit.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("couder: ") and err.count("\n") == 1
        assert str(folder) in err

    @pytest.mark.parametrize("command", ["extract", "synth"])
    @pytest.mark.parametrize("where", ["flag"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, command, where):
        # numpy's generators refuse a negative seed with a ValueError.
        seqfile = tmp_path / "seq.jsonl"
        write_seq(seqfile, constant_seq())
        run = {"extract": ["--k", "3", "extract", str(seqfile)],
               "synth": ["synth", "--mode", "storage", "--pods", "4",
                         "--count", "3"]}
        argv = ["--seed", "-1"] + run[command] + ["--out",
                                                  str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err \
            == "couder: seed must be non-negative, not -1\n"

    def test_negative_ldm_iterations_exits_1(self, tmp_path, capsys):
        physfile, solfile = tmp_path / "phys.json", tmp_path / "sol.json"
        write_physical_topology(str(physfile), make_fabric(2, 1, 4))
        cli.write_solution(str(solfile), FractionalSolution(
            FractionalTopology(np.array([[0.0, 4.0], [4.0, 0.0]])),
            RoutingWeights.of({Path(0, 1): 1.0, Path(1, 0): 1.0}, 2), 0.5))
        topofile = tmp_path / "topo.json"
        assert cli.main(["--ldm-iterations", "-1", "round", str(physfile),
                         str(solfile), "--out", str(topofile)]) == 1
        assert not topofile.exists()
        assert capsys.readouterr().err \
            == "couder: iteration count must not be negative\n"

    def test_bad_file_contents_exit_1(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        out = tmp_path / "crit.json"
        assert cli.main(["extract", str(bad), "--out", str(out)]) == 1

    def test_infeasible_exits_2(self, tmp_path):
        # All-zero criticals make throughput unbounded: reported as
        # infeasibility class (exit 2).
        physfile = tmp_path / "phys.json"
        write_physical_topology(str(physfile), make_fabric(3, 1, 2))
        critfile = tmp_path / "crit.json"
        from couder.traffic import CriticalSet
        cli.write_critical_set(
            str(critfile), CriticalSet((TrafficMatrix(np.zeros((3, 3))),)))
        out = tmp_path / "sol.json"
        rc = cli.main(["optimize", str(physfile), str(critfile), "--out",
                       str(out)])
        assert rc == 2

    def test_solver_limit_exits_3(self, tmp_path, monkeypatch, capsys):
        def breakdown(model):
            raise SolverLimitError("iteration limit reached")

        monkeypatch.setattr(lp, "solve", breakdown)
        physfile, critfile = tmp_path / "phys.json", tmp_path / "crit.json"
        write_physical_topology(str(physfile), make_fabric(3, 1, 2))
        rng = np.random.default_rng(8)
        cli.write_critical_set(str(critfile), random_criticals(rng, 3, 1))
        rc = cli.main(["optimize", str(physfile), str(critfile), "--out",
                       str(tmp_path / "sol.json")])
        assert rc == cli.EXIT_SOLVER_LIMIT == 3
        err = capsys.readouterr().err
        assert "iteration limit reached" in err
        assert "Traceback" not in err

    def test_internal_error_exits_4(self, tmp_path, capsys, monkeypatch):
        # With BETA_CAP below 1/2, the radix lower bound on the unitless
        # beta of a radix-2 fabric lies above it, so stage 2 finds no
        # sensitivity bound below the cap.
        monkeypatch.setattr(optimize, "BETA_CAP", 0.1)
        physfile, critfile = tmp_path / "phys.json", tmp_path / "crit.json"
        write_physical_topology(str(physfile), make_fabric(3, 1, 2))
        t = np.ones((3, 3)) - np.eye(3)
        cli.write_critical_set(str(critfile), CriticalSet((TrafficMatrix(t),)))
        rc = cli.main(["optimize", str(physfile), str(critfile), "--out",
                       str(tmp_path / "sol.json")])
        assert rc == cli.EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no feasible sensitivity bound" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--frequency", "--stage-latency",
                                      "--lookback"])
    def test_non_finite_policy_value_exits_1(self, tmp_path, capsys, flag,
                                             value):
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), make_fabric(4, 1, 4))
        write_seq(seqfile, constant_seq(count=12))
        out = tmp_path / "sim.jsonl"
        opts = {"--lookback": "5", "--frequency": "4", "--stage-latency": "0"}
        opts[flag] = value
        rc = cli.main(["--k", "1", "--lookback", opts["--lookback"],
                       "simulate", str(physfile), str(seqfile),
                       "--frequency", opts["--frequency"],
                       "--stage-latency", opts["--stage-latency"],
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION == 1
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1

    def test_switch_over_longer_than_the_period_exits_1(self, tmp_path,
                                                        capsys):
        # At alpha 0.8 a switch-over takes up to 5 stages: 15 s at 3 s a
        # stage, past the next epoch 4 s later, whose plan would then be
        # applied out of time order.
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), make_fabric(4, 2, 3))
        write_seq(seqfile, constant_seq(count=16))
        out = tmp_path / "sim.jsonl"
        rc = cli.main(["--k", "2", "--lookback", "4", "simulate",
                       str(physfile), str(seqfile), "--frequency", "4",
                       "--stage-latency", "3", "--alpha-pred", "0.8",
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "switch-over can take 15 s" in err

    def test_lookback_past_the_sequence_exits_1(self, tmp_path, capsys):
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), make_fabric(4, 1, 4))
        write_seq(seqfile, constant_seq(count=12))
        out = tmp_path / "sim.jsonl"
        rc = cli.main(["--k", "1", "simulate", str(physfile), str(seqfile),
                       "--frequency", "4", "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "lookback of 3600 s" in err and "spans 11 s" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_oversubscription_exits_1(self, tmp_path, capsys,
                                                 value):
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), make_fabric(4, 1, 6))
        write_seq(seqfile, constant_seq(count=3))
        out = tmp_path / "metrics.jsonl"
        rc = cli.main(["evaluate", str(physfile), str(seqfile), "--baseline",
                       "fattree", "--oversub", value, "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION == 1
        assert not out.exists()
        assert "oversubscription" in capsys.readouterr().err

    def test_fattree_pod_count_mismatch_exits_1(self, tmp_path, capsys):
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), make_fabric(4, 1, 6))
        write_seq(seqfile, constant_seq(n=6, count=3))
        out = tmp_path / "metrics.jsonl"
        rc = cli.main(["evaluate", str(physfile), str(seqfile), "--baseline",
                       "fattree", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("couder: 4 pod uplink counts for a matrix of"
                              " 6 pods")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spelling", ["NaN", "Infinity"])
    def test_non_finite_bandwidth_exits_1(self, tmp_path, capsys, spelling):
        physfile, critfile = tmp_path / "phys.json", tmp_path / "crit.json"
        write_physical_topology(str(physfile), make_fabric(3, 1, 2))
        obj = json.loads(physfile.read_text())
        obj["bandwidth_gbps"] = float(spelling)
        physfile.write_text(json.dumps(obj))
        assert spelling in physfile.read_text()
        rng = np.random.default_rng(8)
        cli.write_critical_set(str(critfile), random_criticals(rng, 3, 1))
        rc = cli.main(["optimize", str(physfile), str(critfile), "--out",
                       str(tmp_path / "sol.json")])
        assert rc == cli.EXIT_VALIDATION == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "link bandwidth" in err

    @pytest.mark.parametrize("value", ["2", True])
    def test_bandwidth_not_a_number_exits_1(self, tmp_path, capsys, value):
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), make_fabric(3, 1, 2))
        obj = json.loads(physfile.read_text())
        obj["bandwidth_gbps"] = value
        physfile.write_text(json.dumps(obj))
        write_seq(seqfile, constant_seq(3, 2))
        out = tmp_path / "metrics.jsonl"
        rc = cli.main(["evaluate", str(physfile), str(seqfile), "--baseline",
                       "mesh", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"link bandwidth must be a positive finite number, not" \
               f" {json.dumps(value)}" in err

    @pytest.mark.parametrize("baseline", ["direct", "none"])
    def test_evaluate_topology_off_the_fabric_exits_1(self, tmp_path, capsys,
                                                      baseline):
        # direct: 5 more circuits on switch 0 for pair (0, 1), past pod 0's
        # 3 egress ports there; none: a third switch on a 2-switch fabric.
        phys = make_fabric(4, 2, 3)
        topo = uniform_mesh(phys)
        crit = CriticalSet((TrafficMatrix(constant_seq(4, 1)[0]),))
        routed = optimize.recompute_routing(phys, topo, crit)
        x = topo.x.copy()
        if baseline == "direct":
            x[0, 0, 1] += 5
        else:
            x = np.concatenate([x, np.zeros_like(x[:1])])
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        topofile, out = tmp_path / "topo.json", tmp_path / "metrics.jsonl"
        write_physical_topology(str(physfile), phys)
        cli.write_integer_topology(str(topofile), IntegerTopology(x), routed)
        write_seq(seqfile, constant_seq(4, 2))
        rc = cli.main(["evaluate", str(physfile), str(seqfile), "--topology",
                       str(topofile), "--baseline", baseline, "--out",
                       str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"couder: {topofile}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["bandwidth", "demand"])
    def test_2_pow_50_ports_plan_at_the_hose_bound(self, tmp_path, where):
        # No stage LP with free link counts carries mu_hat * T_hat as a
        # coefficient, so 2**50 ports per pod plan in any unit of demand
        # and bandwidth: here a bandwidth of 1e290, or a demand of 1e308.
        # Each pod's one pair gets all its ports: mu = 2**50 b / t, less
        # the throughput slack stage 2 hands stage 3.
        physfile, critfile = tmp_path / "phys.json", tmp_path / "crit.json"
        b, t = (1e290, 1.0) if where == "bandwidth" else (1.0, 1e308)
        write_physical_topology(str(physfile),
                                make_fabric(2, 1, 2 ** 50, bandwidth=b))
        cli.write_critical_set(str(critfile), CriticalSet((TrafficMatrix(
            t * (np.ones((2, 2)) - np.eye(2))),)))
        out = tmp_path / "sol.json"
        assert cli.main(["optimize", str(physfile), str(critfile), "--out",
                         str(out)]) == 0
        assert cli.read_solution(str(out)).mu == pytest.approx(
            2 ** 50 * b / t, rel=2 * optimize.MU_SLACK)

    @staticmethod
    def two_pow_50_plan(tmp_path) -> dict:
        """The 2-pod, 1-switch fabric with 2**50 ports, its uniform
        critical repeated as a 12-matrix sequence, the plan and its
        rounding without the critical file: the files by name."""
        files = {name: tmp_path / name for name in
                 ("phys.json", "crit.json", "seq.jsonl", "sol.json",
                  "topo.json")}
        write_physical_topology(str(files["phys.json"]),
                                make_fabric(2, 1, 2 ** 50))
        t = np.ones((2, 2)) - np.eye(2)
        cli.write_critical_set(str(files["crit.json"]),
                               CriticalSet((TrafficMatrix(t),)))
        write_seq(files["seq.jsonl"], [t] * 12)
        files = {name: str(path) for name, path in files.items()}
        assert cli.main(["optimize", files["phys.json"], files["crit.json"],
                         "--out", files["sol.json"]]) == 0
        assert cli.main(["round", files["phys.json"], files["sol.json"],
                         "--out", files["topo.json"]]) == 0
        return files

    def test_2_pow_50_ports_plan_rounds(self, tmp_path, capsys):
        # The plan gives each pair all 2**50 ports of its pod, and round
        # places them on the switch at once, after one dual iteration of
        # the 50 allowed.  Re-routing on that topology needs a coefficient
        # of 2**50, past the LP solver's limit.
        files = self.two_pow_50_plan(tmp_path)
        q = 2 ** 50
        topo, _ = cli.read_integer_topology(files["topo.json"])
        assert topo.x.tolist() == [[[0, q], [q, 0]]]
        assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {
            "goodness": 2, "violation_ratio": 0.0, "iterations_run": 1}
        routed = tmp_path / "routed.json"
        assert cli.main(["round", files["phys.json"], files["sol.json"],
                         files["crit.json"], "--out", str(routed)]) == 1
        assert not routed.exists()
        assert "coefficient must be below 1e+15" in capsys.readouterr().err

    @pytest.mark.parametrize("baseline", ["direct", "vlb", "fattree",
                                          "ideal"])
    def test_2_pow_50_ports_topology_evaluates(self, tmp_path, baseline):
        # Every baseline with fixed weights or a closed form scores the
        # rounded 2**50-port plan: all its links carry one demand unit.
        files = self.two_pow_50_plan(tmp_path)
        out = tmp_path / "metrics.jsonl"
        assert cli.main(["evaluate", files["phys.json"], files["seq.jsonl"],
                         "--topology", files["topo.json"], "--baseline",
                         baseline, "--out", str(out)]) == 0
        mlus = [json.loads(l)["mlu"] for l in out.read_text().splitlines()]
        assert len(mlus) == 12
        assert all(mlu is not None and 0 < mlu < 1e-14 for mlu in mlus)

    def test_2_pow_50_ports_topology_without_weights_exits_1(
            self, tmp_path, capsys):
        # Rounded without the critical file, the topology holds no routing
        # weights for baseline none to score.
        files = self.two_pow_50_plan(tmp_path)
        out = tmp_path / "metrics.jsonl"
        assert cli.main(["evaluate", files["phys.json"], files["seq.jsonl"],
                         "--topology", files["topo.json"], "--baseline",
                         "none", "--out", str(out)]) == 1
        assert not out.exists()
        assert "no routing weights" in capsys.readouterr().err

    def test_2_pow_50_ports_staged_simulate_exits_1(self, tmp_path, capsys):
        # The first epoch plans and rounds as above, then re-routes on
        # 2**50 links per pair, past the LP solver's coefficient limit.
        files = self.two_pow_50_plan(tmp_path)
        out = tmp_path / "sim.jsonl"
        assert cli.main(["--lookback", "2", "--k", "1", "simulate",
                         files["phys.json"], files["seq.jsonl"],
                         "--frequency", "4", "--stage-latency", "0.5",
                         "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "coefficient must be below 1e+15" in err

    def test_2_pow_50_ports_mesh_baseline(self, tmp_path, capsys):
        # The mesh baseline re-routes each matrix alone on the uniform
        # mesh, no topology file needed.  The all-ones sequence scores; on
        # the one matrix below HiGHS's vertex misses the absolute residual
        # check of lp.solve (CHANGES.md FOUND 48 and 81), which ends in
        # exit 3, one line and no traceback.  A fix of that check must
        # change this test.
        files = self.two_pow_50_plan(tmp_path)
        out = tmp_path / "mesh.jsonl"
        argv = ["evaluate", files["phys.json"], files["seq.jsonl"],
                "--baseline", "mesh", "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(out.read_text().splitlines()) == 12
        capsys.readouterr()
        one = tmp_path / "one.jsonl"
        write_seq(one, [np.array([[0.0, 59.2941018104284],
                                  [26.009744773722325, 0.0]])])
        argv[2], argv[-1] = str(one), str(tmp_path / "one_mesh.jsonl")
        assert cli.main(argv) == cli.EXIT_SOLVER_LIMIT == 3
        assert not (tmp_path / "one_mesh.jsonl").exists()
        err = capsys.readouterr().err
        assert err == ("couder: solver limit: solver returned a vertex"
                       " outside the feasible set\n")

    def test_round_routes_pair_without_direct_link(self, tmp_path):
        # On the ring 0 -> 1 -> 2 -> 0 pair (0, 2) has no direct link but a
        # usable 2-hop path; the recompute caps that path on its own links,
        # so a sensitivity bound exists.
        phys = make_fabric(3, 1, 2)
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 2] = d[2, 0] = 2.0
        t = np.zeros((3, 3))
        t[0, 1] = 1.0
        # The plan routes every pair along the ring.
        ring = {Path(0, 1): 1.0, Path(1, 2): 1.0, Path(2, 0): 1.0,
                Path(0, 2, 1): 1.0, Path(1, 0, 2): 1.0, Path(2, 1, 0): 1.0}
        sol = FractionalSolution(
            FractionalTopology(d), RoutingWeights.of(ring, 3), 4.0, beta=0.5)
        physfile, critfile = tmp_path / "phys.json", tmp_path / "crit.json"
        solfile, topofile = tmp_path / "sol.json", tmp_path / "topo.json"
        write_physical_topology(str(physfile), phys)
        cli.write_critical_set(str(critfile), CriticalSet((TrafficMatrix(t),)))
        cli.write_solution(str(solfile), sol)
        assert cli.main(["round", str(physfile), str(solfile), str(critfile),
                         "--out", str(topofile)]) == 0
        assert json.loads(topofile.read_text())["beta"] is not None

    @pytest.mark.parametrize("key, value", [("step3_mode", "per-link"),
                                            ("jobs", 2),
                                            ("beta_tolerance", 1e-3),
                                            ("config", "cfg.json")])
    def test_removed_knob_rejected(self, tmp_path, capsys, key, value):
        seqfile = tmp_path / "seq.jsonl"
        write_seq(seqfile, constant_seq())
        argv = ["extract", str(seqfile), "--out", str(tmp_path / "c.json")]
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            cli.main([f"{flag}={value}"] + argv)
        assert exc.value.code == cli.EXIT_USAGE == 64
        assert flag in capsys.readouterr().err


class TestMalformedFiles:
    """A versioned file with a missing field, a foreign version or a
    malformed routing weight exits 1."""

    MISSING = {"phys": {"version": 1, "num_pods": 3},
               "crit": {"version": 1, "k": 1},
               "sol": {"version": 1},
               "topo": {"version": 1}}

    @staticmethod
    def command(tmp_path, bad):
        files = {name: tmp_path / f"{name}.json" for name in
                 ("phys", "crit", "sol", "topo")}
        d = np.full((3, 3), 2.0) - 2.0 * np.eye(3)
        write_physical_topology(str(files["phys"]), make_fabric(3, 1, 4))
        from couder.traffic import CriticalSet
        cli.write_critical_set(str(files["crit"]),
                               CriticalSet((TrafficMatrix(d),)))
        pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
        plan = FractionalSolution(
            FractionalTopology(d),
            RoutingWeights.of({Path(i, j): 1.0 for i, j in pairs}, 3), 0.5)
        cli.write_solution(str(files["sol"]), plan)
        cli.write_integer_topology(str(files["topo"]),
                                   IntegerTopology(d[None].astype(int)), plan)
        seqfile = tmp_path / "seq.jsonl"
        write_seq(seqfile, [d])
        phys, out = str(files["phys"]), str(tmp_path / "out.json")
        argv = {"phys": ["optimize", phys, str(files["crit"]), "--out", out],
                "crit": ["optimize", phys, str(files["crit"]), "--out", out],
                "sol": ["round", phys, str(files["sol"]), "--out", out],
                "topo": ["evaluate", phys, str(seqfile), "--topology",
                         str(files["topo"]), "--out", out]}[bad]
        return files[bad], argv

    @pytest.mark.parametrize("bad", ["phys", "crit", "sol", "topo"])
    def test_missing_field_exits_1(self, tmp_path, capsys, bad):
        path, argv = self.command(tmp_path, bad)
        path.write_text(json.dumps(self.MISSING[bad]))
        assert cli.main(argv) == 1
        assert "missing field" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["phys", "crit", "sol", "topo"])
    def test_non_utf8_file_exits_1(self, tmp_path, capsys, bad):
        path, argv = self.command(tmp_path, bad)
        path.write_bytes(path.read_bytes().replace(b'"version"',
                                                   b'"\xffversion"'))
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"couder: {path}: not UTF-8")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["phys", "crit", "sol", "topo"])
    def test_foreign_version_exits_1(self, tmp_path, capsys, bad):
        path, argv = self.command(tmp_path, bad)
        assert cli.main(argv) == 0
        capsys.readouterr()
        obj = json.loads(path.read_text())
        obj["version"] = cli.VERSION + 1
        path.write_text(json.dumps(obj))
        assert cli.main(argv) == 1
        assert "version" in capsys.readouterr().err

    # Each entry goes into the omega list of 3 pods; True replaces the
    # entry of the same path instead of adding one.
    BAD_OMEGA = {
        "pod-out-of-range": ({"src": 9, "dst": 1, "via": None, "w": 1.0},
                             False),
        "pod-not-integer": ({"src": 1.5, "dst": 1, "via": None, "w": 1.0},
                            False),
        "pod-negative": ({"src": -1, "dst": 1, "via": None, "w": 1.0}, False),
        "w-nan": ({"src": 0, "dst": 2, "via": 1, "w": math.nan}, False),
        "path-repeated": ({"src": 0, "dst": 2, "via": None, "w": 0.0}, False),
        "w-negative": ({"src": 0, "dst": 2, "via": None, "w": -1.0}, True),
        "w-above-one": ({"src": 0, "dst": 2, "via": None, "w": 1.5}, True),
    }

    @pytest.mark.parametrize("case", BAD_OMEGA)
    @pytest.mark.parametrize("bad", ["sol", "topo"])
    def test_malformed_routing_weight_exits_1(self, tmp_path, capsys, bad,
                                              case):
        path, argv = self.command(tmp_path, bad)
        entry, replace = self.BAD_OMEGA[case]
        obj = json.loads(path.read_text())
        key = ("src", "dst", "via")
        obj["omega"] = [e for e in obj["omega"] if not replace
                        or [e[k] for k in key] != [entry[k] for k in key]]
        obj["omega"].append(entry)
        path.write_text(json.dumps(obj))
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"couder: {path}: malformed field (omega entry")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["sol", "topo"])
    @pytest.mark.parametrize("case", ["pair-dropped", "pair-short"])
    def test_pair_not_summing_to_one_exits_1(self, tmp_path, capsys, bad,
                                             case):
        path, argv = self.command(tmp_path, bad)
        obj = json.loads(path.read_text())
        pair = [e for e in obj["omega"] if (e["src"], e["dst"]) == (2, 0)]
        if case == "pair-dropped":
            obj["omega"] = [e for e in obj["omega"] if e not in pair]
        else:
            pair[0]["w"] = 0.5
        path.write_text(json.dumps(obj))
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"couder: {path}: malformed field (omega of"
                              " pair (2, 0) sums to")
        assert err.count("\n") == 1

    # Each case sets counts a file must hold as integers, by key path, to
    # values an integer cast would truncate or convert.
    FRACTIONAL_COUNTS = {
        "ports": ("phys", {("h_eg", 0, 0): 3.7, ("h_ig", 0, 0): 3.7}),
        "num-pods-float": ("phys", {("num_pods",): 3.0}),
        "num-ocs-string": ("phys", {("num_ocs",): "1"}),
        "links": ("topo", {("x", 0, 0, 1): 1.5}),
    }

    @pytest.mark.parametrize("case", FRACTIONAL_COUNTS)
    def test_fractional_count_exits_1(self, tmp_path, capsys, case):
        bad, edits = self.FRACTIONAL_COUNTS[case]
        path, argv = self.command(tmp_path, bad)
        obj = json.loads(path.read_text())
        for (*keys, last), value in edits.items():
            node = obj
            for key in keys:
                node = node[key]
            node[last] = value
        path.write_text(json.dumps(obj))
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"couder: {path}: malformed field (")
        assert "integer" in err and err.count("\n") == 1

    # A solution file's mu must be a positive finite JSON number, and its
    # beta null or such a number; round picks the desensitized re-route by
    # whether beta is null.
    BAD_PLAN_NUMBER = {
        "mu-true": ("mu", True), "mu-string-nan": ("mu", "nan"),
        "mu-nan": ("mu", math.nan), "mu-infinite": ("mu", math.inf),
        "mu-zero": ("mu", 0.0), "mu-negative": ("mu", -1),
        "mu-null": ("mu", None), "mu-huge-int": ("mu", 10 ** 400),
        "beta-string": ("beta", "x"), "beta-true": ("beta", True),
        "beta-nan": ("beta", math.nan), "beta-zero": ("beta", 0),
        "beta-list": ("beta", [0.5]), "beta-huge-int": ("beta", 10 ** 400),
    }

    @pytest.mark.parametrize("case", BAD_PLAN_NUMBER)
    def test_malformed_mu_or_beta_exits_1(self, tmp_path, capsys, case):
        path, argv = self.command(tmp_path, "sol")
        key, value = self.BAD_PLAN_NUMBER[case]
        obj = json.loads(path.read_text())
        obj[key] = value
        path.write_text(json.dumps(obj))
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"couder: {path}: malformed field ({key} must"
                              " be a positive finite number")
        assert err.count("\n") == 1

    def test_integer_past_the_digit_limit_exits_1(self, tmp_path, capsys):
        # Past 4,300 digits Python refuses to parse the integer at all.
        path, argv = self.command(tmp_path, "sol")
        obj = json.loads(path.read_text())
        path.write_text(json.dumps({**obj, "mu": "MU"}).replace(
            '"MU"', "1" + "0" * 5000))
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"couder: {path}: not UTF-8 JSON (Exceeds"
                              " the limit")
        assert err.count("\n") == 1

    def test_integer_mu_and_beta_accepted(self, tmp_path):
        path, argv = self.command(tmp_path, "sol")
        obj = json.loads(path.read_text())
        obj.update(mu=2, beta=3)
        path.write_text(json.dumps(obj))
        sol = cli.read_solution(str(path))
        assert (sol.mu, sol.beta) == (2.0, 3.0)
        assert type(sol.mu) is type(sol.beta) is float
        assert cli.main(argv) == 0


class TestMalformedSequence:
    """A malformed sequence file exits 1 with one ``couder: path:line:``
    line on stderr, never a traceback or an empty result."""

    TM = "[[0, 1], [2, 0]]"

    @pytest.mark.parametrize("lines, lineno", [
        (["5"], 1),
        (['{"tm": [[0, 1], [2]]}'], 1),
        (['{"tm": "x"}'], 1),
        ([f'{{"t": "abc", "tm": {TM}}}', f'{{"t": "abd", "tm": {TM}}}'], 1),
        ([f'{{"t": [1], "tm": {TM}}}', f'{{"t": [2], "tm": {TM}}}'], 1),
        ([f'{{"t": 0, "tm": {TM}}}', f'{{"tm": {TM}}}'], 2),
        ([f'{{"tm": {TM}}}', f'{{"t": 1, "tm": {TM}}}'], 2),
        ([f'{{"t": 0, "tm": {TM}}}', f'{{"t": NaN, "tm": {TM}}}'], 2),
        ([f'{{"t": 0, "tm": {TM}}}', "", f'{{"t": 0, "tm": {TM}}}'], 3),
        ([f'{{"tm": {TM}}}', '{"tm": "\udcff"}'], 2),
    ], ids=["not-object", "ragged-tm", "non-numeric-tm", "string-t",
            "list-t", "t-then-none", "none-then-t", "nan-t",
            "t-not-increasing", "not-utf8"])
    def test_extract_exits_1_naming_the_line(self, tmp_path, capsys, lines,
                                             lineno):
        seqfile = tmp_path / "seq.jsonl"
        # A lone surrogate escape writes the byte 0xff, which is not UTF-8.
        seqfile.write_bytes(("\n".join(lines) + "\n").encode(
            "utf-8", "surrogateescape"))
        out = tmp_path / "crit.json"
        rc = cli.main(["--k", "1", "extract", str(seqfile), "--out",
                       str(out)])
        assert rc == cli.EXIT_VALIDATION == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"couder: {seqfile}:{lineno}: ")

    def test_simulate_with_some_timestamps_exits_1(self, tmp_path, capsys):
        physfile, seqfile = tmp_path / "phys.json", tmp_path / "seq.jsonl"
        write_physical_topology(str(physfile), make_fabric(4, 1, 4))
        write_seq(seqfile, constant_seq(count=12))
        # Drop the timestamp from every line after the second.
        lines = [json.loads(l) for l in seqfile.read_text().splitlines()]
        for line in lines[2:]:
            del line["t"]
        seqfile.write_text("".join(json.dumps(l) + "\n" for l in lines))
        out = tmp_path / "sim.jsonl"
        rc = cli.main(["--k", "1", "--lookback", "4", "simulate",
                       str(physfile), str(seqfile), "--frequency", "4",
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"couder: {seqfile}:3: ")
