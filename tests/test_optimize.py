import itertools

import numpy as np
import pytest

from couder import lp, optimize
from couder.errors import (InfeasibleRoutingError, InternalError,
                           InvalidInputError, UnboundedThroughputError)
from couder.model import (IntegerTopology, Path, PhysicalTopology,
                          RoutingWeights, TrafficMatrix, _tables,
                          demand_scale)
from couder.optimize import (BETA_TOL, MU_SLACK, _StageBuilder,
                             _throughput_model, desensitize, minimize_ahc, recompute_routing,
                             run_pipeline, solve_maxmin_throughput)
from couder.round import ldm_round
from couder.evaluate import evaluate_static, ideal_toe_mlu, sensitivity_map
from couder.traffic import CriticalSet, extract_critical, gen_storage_tms
from helpers import (assert_same_model, convex_combination, frozen,
                     hetero_fabric, idle_pod_instance, make_fabric,
                     random_criticals, random_fabric, random_fractional,
                     random_tm, record_highs, record_highs_models,
                     sparse_tm, zero_radix_fabric)

GRID = np.arange(0.0, 2.0001, 0.05)


def n2_instance():
    phys = make_fabric(2, 1, 4)
    t = np.array([[0.0, 8.0], [8.0, 0.0]])
    return phys, CriticalSet((TrafficMatrix(t),))


def n3_instance():
    phys = make_fabric(3, 1, 2)
    t = np.zeros((3, 3))
    t[0, 1] = 4.0
    return phys, CriticalSet((TrafficMatrix(t),))


def oracle_step3_direct_weight(beta: float):
    """0.05-grid brute force for the single-demand N=3 instance.

    The six link counts reduce exactly to three grid dimensions: with the
    trades u = d_bc and v = d_ca fixed, every remaining count is monotone
    beneficial and capped by one row and one column budget, so it sits at
    its unique maximum: d_ac = min(2-d_ab, 2-u), d_cb = min(2-d_ab, 2-v),
    d_ba = min(2-u, 2-v).  Coverage of a pair needs weight 1 within the
    sensitivity caps; the demanded pair also obeys its load constraints.
    """
    g = GRID
    DAB, U, V = np.meshgrid(g, g, g, indexing="ij")
    DAC = np.minimum(2 - DAB, 2 - U)
    DCB = np.minimum(2 - DAB, 2 - V)
    DBA = np.minimum(2 - U, 2 - V)
    cov = beta * (DBA + np.minimum(U, V)) >= 1 - 1e-9
    cov &= beta * (U + np.minimum(DBA, DAC)) >= 1 - 1e-9
    cov &= beta * (V + np.minimum(DCB, DBA)) >= 1 - 1e-9
    cov &= beta * (DAC + np.minimum(DAB, U)) >= 1 - 1e-9
    cov &= beta * (DCB + np.minimum(V, DAB)) >= 1 - 1e-9
    wmax = np.minimum(1.0, np.minimum(beta * DAB, DAB / 2.0))
    via_cap = min(beta, 0.5) * np.minimum(DAC, DCB)
    ok = cov & (1.0 - wmax <= via_cap + 1e-9)
    if not ok.any():
        return None
    return float(np.where(ok, wmax, -1.0).max())


class TestMaxminThroughput:
    def test_n2_closed_form(self):
        phys, crit = n2_instance()
        sol = solve_maxmin_throughput(phys, crit)
        assert sol.mu == pytest.approx(0.5, abs=1e-6)
        assert sol.d.d[0, 1] == pytest.approx(4.0, abs=1e-6)
        assert sol.d.d[1, 0] == pytest.approx(4.0, abs=1e-6)

    def test_n3_ingress_bound_vs_grid(self):
        phys, crit = n3_instance()
        sol = solve_maxmin_throughput(phys, crit)
        # Grid oracle: only d_ab and m = min(d_ac, d_cb) matter, coupled by
        # the row-a and column-b budgets; mu = (d_ab + m) / demand.
        best = max((dab + m) / 4.0
                   for dab in GRID for m in GRID if dab + m <= 2 + 1e-9)
        assert sol.mu == pytest.approx(best, abs=1e-6)
        assert sol.mu == pytest.approx(0.5, abs=1e-6)

    def test_duplicate_criticals_match_single(self):
        rng = np.random.default_rng(0)
        phys = make_fabric(4, 2, 3)
        crit1 = random_criticals(rng, 4, 1, scale=6.0)
        crit3 = CriticalSet(crit1.matrices * 3)
        a = solve_maxmin_throughput(phys, crit1)
        b = solve_maxmin_throughput(phys, crit3)
        assert a.mu == pytest.approx(b.mu, rel=1e-9)

    def test_all_zero_criticals_unbounded(self):
        phys = make_fabric(3, 1, 2)
        crit = CriticalSet((TrafficMatrix(np.zeros((3, 3))),))
        with pytest.raises(UnboundedThroughputError):
            solve_maxmin_throughput(phys, crit)
        # Stages 2 and 3 called alone refuse it too.
        with pytest.raises(UnboundedThroughputError):
            desensitize(phys, crit, 1.0)
        with pytest.raises(UnboundedThroughputError):
            minimize_ahc(phys, crit, 1.0, None)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        phys = make_fabric(5, 2, 4)
        crit = random_criticals(rng, 5, 3)
        sol = solve_maxmin_throughput(phys, crit)
        sums = {}
        for p, w in sol.omega.weights.items():
            sums[(p.src, p.dst)] = sums.get((p.src, p.dst), 0.0) + w
        assert len(sums) == 20
        assert all(abs(s - 1.0) <= 1e-9 for s in sums.values())

    def test_solution_lifts_d_to_the_critical_loads(self):
        # A vertex routing every pair direct at mu, with its link counts at
        # 0: the plan's d is raised to each link's largest critical load at
        # mu, in links.
        rng = np.random.default_rng(2)
        phys, crit = make_fabric(4, 1, 6), random_criticals(rng, 4, 3)
        builder = _StageBuilder(phys, crit)
        t, mu = builder.tables, 0.75
        x = np.zeros(builder.stage_col + 1)
        x[builder.col[np.arange(len(t.pairs)) * (builder.n - 1)]] = mu
        d = builder.solution(x, mu).d.d
        want = mu * builder.demand.max(axis=0)
        np.testing.assert_allclose(d[t.pair_src, t.pair_dst],
                                   want[t.pair_src, t.pair_dst], rtol=1e-15)

    @pytest.mark.parametrize("fabric", [random_fabric, hetero_fabric])
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_never_beats_the_hose_bound(self, fabric, sparse, k):
        # One weight set serves every critical, so no critical gets more
        # than its own optimum: mu* <= 1 / max_k ideal_toe_mlu(T_k).
        rng = np.random.default_rng([k, sparse, fabric is hetero_fabric])
        for _ in range(3):
            n = int(rng.integers(3, 7))
            phys = fabric(rng, n, 2, 1, 4, bandwidth=float(
                rng.choice([0.7, 1.0, 3.0])))
            crit = (CriticalSet(tuple(sparse_tm(rng, n, 0.3)
                                      for _ in range(k))) if sparse
                    else random_criticals(rng, n, k))
            hose = max(ideal_toe_mlu(phys, t) for t in crit)
            mu = solve_maxmin_throughput(phys, crit).mu
            assert mu <= (1.0 + 1e-9) / hose


class TestDesensitize:
    def test_n2_closed_form_beta(self):
        phys, crit = n2_instance()
        sol = desensitize(phys, crit, 0.5)
        assert 0.25 - 1e-9 <= sol.beta <= 0.25 * (1 + 2e-3)

    def test_n2_binary_search_matches_fine_grid(self):
        # 1e-3-resolution scan over beta: the smallest feasible value.
        phys, crit = n2_instance()
        sol = desensitize(phys, crit, 0.5)
        feasible = [b for b in np.arange(0.2, 0.32, 1e-3)
                    if b * 4.0 >= 1.0 - 1e-12]  # single path: w=1 <= b*d*bw
        assert sol.beta == pytest.approx(min(feasible), abs=2e-3)

    def test_n3_beta_matches_grid_scan(self):
        phys, crit = n3_instance()
        sol = desensitize(phys, crit, 0.5)
        scan = [b for b in np.arange(0.4, 0.6, 1e-3)
                if oracle_step3_direct_weight(b) is not None]
        assert sol.beta == pytest.approx(min(scan), rel=2e-3)

    def test_relabeling_invariance(self):
        # Uniform demand on a symmetric fabric: beta identical under any
        # pod relabeling.
        phys = make_fabric(4, 1, 3)
        t = np.full((4, 4), 2.0)
        np.fill_diagonal(t, 0.0)
        crit = CriticalSet((TrafficMatrix(t),))
        mu = solve_maxmin_throughput(phys, crit).mu
        base = desensitize(phys, crit, mu).beta
        perm = [3, 1, 0, 2]
        crit_p = CriticalSet((TrafficMatrix(t[np.ix_(perm, perm)]),))
        assert desensitize(phys, crit_p, mu).beta == pytest.approx(base,
                                                                   rel=1e-6)

    def test_scaled_demand_same_beta(self):
        rng = np.random.default_rng(2)
        phys = make_fabric(4, 2, 3)
        crit = random_criticals(rng, 4, 2, scale=4.0)
        mu = solve_maxmin_throughput(phys, crit).mu
        halved = CriticalSet(tuple(TrafficMatrix(t.demand / 2) for t in crit))
        a = desensitize(phys, crit, mu)
        b = desensitize(phys, halved, 2 * mu)
        assert a.beta == pytest.approx(b.beta, rel=1e-9)

    def test_beta_not_worse_than_stage1_sensitivity(self):
        rng = np.random.default_rng(3)
        phys = make_fabric(4, 2, 4)
        crit = random_criticals(rng, 4, 3)
        s1 = solve_maxmin_throughput(phys, crit)
        sen1 = sensitivity_map(s1.d, s1.omega, phys.link_bandwidth)
        s2 = desensitize(phys, crit, s1.mu)
        assert s2.beta <= sen1[np.isfinite(sen1)].max() * (1 + 2e-3) + 1e-12

    def test_idle_pod_plans(self):
        # No path through a pod without ports is usable, so every pair
        # touching it is deferred, the radix bound runs over the pods of
        # routed pairs, and the plan leaves the idle pod's links at 0.
        phys, crit = idle_pod_instance()
        plain = run_pipeline(phys, crit, desensitized=False)
        sol = run_pipeline(phys, crit)
        assert plain.mu == 1.5
        assert sol.mu == pytest.approx(1.5 * (1.0 - MU_SLACK), rel=1e-12)
        assert sol.beta == pytest.approx(2.0 / 3.0, rel=1e-12)
        for d in (plain.d.d, sol.d.d):
            assert not d[3].any() and not d[:, 3].any()

    def test_zero_radix_fabrics_plan_desensitized(self):
        # Pods without egress or ingress ports, criticals only from pods
        # with egress to pods with ingress: the desensitized plan keeps the
        # plain mu, its sensitivity bound on every link with circuits and
        # the port budgets, and puts no circuit where a radix is 0.
        rng = np.random.default_rng(5)
        planned = 0
        for _ in range(60):
            n, m = int(rng.integers(3, 8)), int(rng.integers(1, 4))
            phys = zero_radix_fabric(rng, n, m, dead=0.2)
            r_eg, r_ig = phys.egress_radix, phys.ingress_radix
            room = np.minimum.outer(r_eg, r_ig)
            crit = CriticalSet(tuple(TrafficMatrix(t.demand * (room > 0))
                                     for t in random_criticals(rng, n, 2)))
            if not any(t.demand.any() for t in crit):
                continue
            plain = run_pipeline(phys, crit, desensitized=False)
            sol = run_pipeline(phys, crit)
            assert sol.mu == pytest.approx(plain.mu, rel=1e-6)
            d = sol.d.d
            sen = sensitivity_map(sol.d, sol.omega, phys.link_bandwidth)
            assert (sen[d > 0] <= sol.beta * (1 + 1e-9)).all()
            assert (d[room == 0] == 0).all()
            # The lift past the LP's vertex is within HiGHS's tolerance.
            assert (d.sum(axis=1) <= r_eg + 1e-7).all()
            assert (d.sum(axis=0) <= r_ig + 1e-7).all()
            planned += 1
        assert planned >= 50


def record_solves(monkeypatch, copy=False) -> list:
    """The models ``lp.solve`` is given from now on, in order; with
    ``copy``, each as it stood at that solve."""
    models = []
    real = lp.solve

    def recording(model):
        models.append(frozen(model) if copy else model)
        return real(model)

    monkeypatch.setattr(lp, "solve", recording)
    return models


def within_tol(a: float, b: float) -> bool:
    """Two stage-2 results that each end within BETA_TOL of the same
    smallest feasible beta differ by at most BETA_TOL of the larger."""
    return abs(a - b) <= BETA_TOL * max(a, b)


def stage2_reaches(phys, crit, mu: float, beta: float, fixed=None) -> bool:
    """Whether stage 2's own model, built afresh, keeps throughput mu
    under the bound beta (both in the plan's units): with free link counts
    its largest throughput at the cap gamma = mu beta is at least
    mu (1 - MU_SLACK); with fixed ones some weights meet mu with gamma
    pinned there."""
    builder = _StageBuilder(phys, crit, fixed)
    mu_hat, beta_hat = builder.unitless(mu, beta)
    model = _throughput_model(builder, "desensitize" if fixed is None
                              else "fixed-desensitize", caps=True)
    gamma = mu_hat * beta_hat
    if fixed is None:
        model.scale = gamma
        sol = lp.solve(model)
        return sol.x[builder.stage_col] >= mu_hat * (1 - MU_SLACK)
    model.set_bounds([builder.stage_col], mu_hat, mu_hat)
    model.set_bounds([builder.stage_col + 1], gamma, gamma)
    return lp.solve(model).optimal


def rounded_instance(seed: int, fabric):
    rng = np.random.default_rng(500 + seed)
    phys = fabric(rng, 4, 2, qmin=2, qmax=6)
    crit = random_criticals(rng, 4, 2)
    topo = ldm_round(phys, random_fractional(rng, phys), 0).topo
    return phys, crit, topo


class TestStage2Bracket:
    @pytest.mark.parametrize("fabric", [random_fabric, hetero_fabric])
    def test_fixed_topology_one_lp_matches_bisection(self, monkeypatch,
                                                     fabric):
        # The bisection is stage 2's own model, probed at beta and just
        # below it.
        for seed in range(6):
            phys, crit, topo = rounded_instance(seed, fabric)
            X = topo.X.astype(float)
            mu = solve_maxmin_throughput(phys, crit, _fixed=X).mu
            models = record_solves(monkeypatch)
            beta = desensitize(phys, crit, mu, _fixed=X).beta
            assert [m.name for m in models] == ["fixed-desensitize"]
            monkeypatch.undo()
            # The one LP's beta is the least feasible: stage 2's model
            # keeps mu at it, and not just below it.
            assert stage2_reaches(phys, crit, mu, beta, X)
            assert not stage2_reaches(phys, crit, mu, beta * (1 - 1e-6), X)

    @pytest.mark.parametrize("fabric", [random_fabric, hetero_fabric])
    def test_recompute_stage3_feasible_at_exact_fixed_beta(self, fabric):
        # Stage 3 of recompute_routing runs with mu and beta both at their
        # LP optima, so it has no slack in either; it must still solve.
        for seed in range(6):
            phys, crit, topo = rounded_instance(seed, fabric)
            X = topo.X.astype(float)
            b = phys.link_bandwidth
            mu = solve_maxmin_throughput(phys, crit, _fixed=X).mu
            beta = desensitize(phys, crit, mu, _fixed=X).beta
            routed = recompute_routing(phys, topo, crit)
            assert routed.mu == pytest.approx(mu, rel=1e-9)
            assert routed.beta == pytest.approx(beta, rel=1e-9)
            assert sensitivity_map(topo, routed.omega, b).max() \
                <= beta * (1 + 1e-6)
            for t in crit:
                rec = evaluate_static(topo, routed.omega, t, b)
                assert rec.mlu <= 1.0 / mu + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_joint_beta_above_radix_bound_and_matches_unit_bracket(self,
                                                                   seed):
        rng = np.random.default_rng(600 + seed)
        fabric = random_fabric if seed % 2 else hetero_fabric
        phys = fabric(rng, 4, 2, qmin=2, qmax=5)
        crit = random_criticals(rng, 4, 2)
        mu = solve_maxmin_throughput(phys, crit).mu
        radix = min(phys.egress_radix.min(), phys.ingress_radix.min())
        bound = 1.0 / (phys.link_bandwidth * radix)
        beta = desensitize(phys, crit, mu).beta
        assert beta >= bound
        # The unit bracket is stage 2's own model: it reaches mu at beta,
        # and not just below it or below the radix bound.
        assert not stage2_reaches(phys, crit, mu, bound * (1 - 1e-3))
        assert stage2_reaches(phys, crit, mu, beta)
        assert not stage2_reaches(phys, crit, mu, beta * (1 - BETA_TOL))

    def test_n2_lower_bracket_is_optimal_after_one_lp(self, monkeypatch):
        # Also with uneven radices: egress 4 and 3, ingress 5 and 2.  The
        # bound is the least radix, 2, over either side, and stage 2 meets
        # it with d_01 at its most, 2.
        uneven = PhysicalTopology(2, 1, [[4, 3]], [[5, 2]])
        for phys, crit in (n2_instance(), (uneven, n2_instance()[1])):
            mu = solve_maxmin_throughput(phys, crit).mu
            models = record_solves(monkeypatch)
            sol = desensitize(phys, crit, mu)
            monkeypatch.undo()
            assert sol.beta == 1.0 / min(phys.egress_radix.min(),
                                         phys.ingress_radix.min())
            assert [m.name for m in models] == ["desensitize"]

    def test_joint_newton_reuses_one_model(self, monkeypatch):
        rng = np.random.default_rng(7)
        phys = make_fabric(4, 2, 3)
        crit = random_criticals(rng, 4, 2)
        mu = solve_maxmin_throughput(phys, crit).mu
        models = record_solves(monkeypatch)
        desensitize(phys, crit, mu)
        assert len(models) > 1
        assert all(m is models[0] for m in models)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_bound_above_cap_raises(self, monkeypatch, fixed):
        # Joint: the radix bound 1/2 on the unitless beta lies above a cap
        # of 0.1.  Fixed: on 1e-7 links per pair, a weight split over two
        # paths needs beta * b >= 1 / 2e-7, above BETA_CAP.
        phys = make_fabric(3, 1, 2)
        X = 1e-7 * (np.ones((3, 3)) - np.eye(3))
        t = np.ones((3, 3)) - np.eye(3)
        crit = CriticalSet((TrafficMatrix(t),))
        if not fixed:
            monkeypatch.setattr(optimize, "BETA_CAP", 0.1)
        with pytest.raises(InternalError):
            desensitize(phys, crit, 1e-12, _fixed=X if fixed else None)

    def test_fixed_topology_infeasible_mu_raises(self):
        phys = make_fabric(3, 1, 2)
        X = np.ones((3, 3)) - np.eye(3)
        t = np.ones((3, 3)) - np.eye(3)
        crit = CriticalSet((TrafficMatrix(t),))
        mu = solve_maxmin_throughput(phys, crit, _fixed=X).mu
        with pytest.raises(InternalError):
            desensitize(phys, crit, 2 * mu, _fixed=X)


#: The LP families of the joint stage 2's solves, by ``model.name``.
STAGE2_FAMILIES = ("desensitize", "desensitize-late")


def record_stage2(monkeypatch) -> list:
    """(gamma, F, slope) of each solve of the joint stage-2 model."""
    steps = []
    real = lp.solve

    def recording(model):
        sol = real(model)
        if model.name in STAGE2_FAMILIES:
            # mu is the joint model's last column.
            steps.append((model.scale, sol.x[-1], sol.slope))
        return sol

    monkeypatch.setattr(lp, "solve", recording)
    return steps


def joint_instances():
    """The fabrics and criticals of the stage-2 bracket tests."""
    for fabric in (random_fabric, hetero_fabric):
        for seed in range(6):
            phys, crit, _ = rounded_instance(seed, fabric)
            yield phys, crit
    for seed in range(4):
        rng = np.random.default_rng(600 + seed)
        fabric = random_fabric if seed % 2 else hetero_fabric
        phys = fabric(rng, 4, 2, qmin=2, qmax=5)
        yield phys, random_criticals(rng, 4, 2)


class TestStage2Newton:
    def test_overshoot_onto_plateau_keeps_beta_within_tol(self, monkeypatch):
        # A Newton step lands on the plateau F = mu* here; accepting it
        # leaves beta 0.18 % above the smallest feasible one.
        rng = np.random.default_rng(926)
        phys = hetero_fabric(rng, 7, 2, qmin=2, qmax=6)
        crit = random_criticals(rng, 7, 3)
        mu = solve_maxmin_throughput(phys, crit).mu
        steps = record_stage2(monkeypatch)
        beta = desensitize(phys, crit, mu).beta
        monkeypatch.undo()
        assert any(F >= mu * (1 - MU_SLACK) and slope * gamma <= MU_SLACK * F
                   for gamma, F, slope in steps[:-1])
        assert stage2_reaches(phys, crit, mu, beta)
        assert not stage2_reaches(phys, crit, mu, beta * (1 - BETA_TOL))

    def test_probe_below_newton_overshoot_closes_bracket(self, monkeypatch):
        # F is convex just below the root here, so Newton steps overshoot
        # onto the plateau by a little; without the probe just below each
        # overshoot, stage 2 took 18 LPs, and the bisection 13.
        rng = np.random.default_rng(1030)
        phys = hetero_fabric(rng, 5, 2, qmin=2, qmax=6)
        crit = random_criticals(rng, 5, 3)
        mu = solve_maxmin_throughput(phys, crit).mu
        steps = record_stage2(monkeypatch)
        beta = desensitize(phys, crit, mu).beta
        monkeypatch.undo()
        assert len(steps) <= 13
        assert stage2_reaches(phys, crit, mu, beta)
        assert not stage2_reaches(phys, crit, mu, beta * (1 - BETA_TOL))

    def test_stage3_solves_at_stage2_output(self):
        for phys, crit in joint_instances():
            mu = solve_maxmin_throughput(phys, crit).mu
            s2 = desensitize(phys, crit, mu)
            assert mu * (1 - 3 * MU_SLACK) <= s2.mu < mu
            s3 = minimize_ahc(phys, crit, s2.mu, s2.beta)
            assert sensitivity_map(s3.d, s3.omega, phys.link_bandwidth).max() \
                <= s2.beta * (1 + 1e-6)

    @pytest.mark.parametrize("ports", [3, 5, 6, 7])
    def test_beta_never_below_radix_bound(self, ports):
        # N = 2 attains the radix bound 1 / ports; gamma / F must not round
        # below it for any demand.
        phys = make_fabric(2, 1, ports)
        for t in np.linspace(1.3, 9.7, 25):
            demand = np.array([[0.0, t], [t, 0.0]])
            crit = CriticalSet((TrafficMatrix(demand),))
            mu = solve_maxmin_throughput(phys, crit).mu
            assert desensitize(phys, crit, mu).beta >= 1.0 / ports


def record_methods(monkeypatch) -> list:
    """(model name, whether a basis was given, options) of each
    ``lp.solve`` from now on, the options those ``lp._run_highs`` got."""
    calls, solve, run = [], lp.solve, lp._run_highs

    def recording_solve(model):
        calls.append([model.name])
        return solve(model)

    def recording_run(model, options, basis=None, **kwargs):
        calls[-1] += [basis is not None, options]
        return run(model, options, basis, **kwargs)

    monkeypatch.setattr(lp, "solve", recording_solve)
    monkeypatch.setattr(lp, "_run_highs", recording_run)
    return calls


class RecordingTable(dict):
    """``lp._FAMILY_OPTIONS``, noting each family looked up in it."""

    def __init__(self, table):
        super().__init__(table)
        self.asked = set()

    def __getitem__(self, key):
        self.asked.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.asked.add(key)
        return super().get(key, default)


def stage2_instances():
    """The joint stage-2 instances, the unit instances and random fabrics
    of 3-8 pods."""
    yield from joint_instances()
    yield from unit_instances()
    for seed in range(8):
        yield rerouting_instance(seed)[:2]


class TestStageMethods:
    """Each stage LP runs the HiGHS method of its family."""

    def test_joint_stage2_probe_is_ipm_then_steepest_edge_then_devex(
            self, monkeypatch):
        # The cold first probe runs IPM with crossover; the first re-solve
        # dual simplex from its basis with HiGHS's steepest edge; every
        # later one dual simplex with Devex pricing.
        late = 0
        for phys, crit in joint_instances():
            mu = solve_maxmin_throughput(phys, crit).mu
            calls = record_methods(monkeypatch)
            desensitize(phys, crit, mu)
            monkeypatch.undo()
            names, warm, options = zip(*calls)
            count = len(calls)
            assert names == ("desensitize",) * min(count, 2) \
                + ("desensitize-late",) * (count - 2)
            assert warm == (False,) + (True,) * (count - 1)
            assert (options[0].solver, options[0].run_crossover) \
                == ("ipm", "on")
            for k, used in enumerate(options[1:]):
                assert used.solver != "ipm" and used.simplex_strategy == 1
                # -1: HiGHS chooses, steepest edge; 1: Devex.
                assert used.simplex_dual_edge_weight_strategy \
                    == (-1 if k == 0 else 1)
            late += count > 2
        assert late

    def test_cold_simplex_stages_run_dantzig_pricing(self, monkeypatch):
        # Stage 1 and re-routing's stages 1 and 2 solve cold with dual
        # simplex, Dantzig pricing and presolve off.
        cold = {}
        for phys, crit in itertools.islice(joint_instances(), 3):
            calls = record_methods(monkeypatch)
            plan = run_pipeline(phys, crit)
            monkeypatch.undo()
            topo = ldm_round(phys, plan.d, 50).topo
            rerouted = record_methods(monkeypatch)
            recompute_routing(phys, topo, crit)
            monkeypatch.undo()
            cold.update((name, options) for name, warm, options
                        in calls + rerouted
                        if not warm and name != "desensitize")
        assert sorted(cold) == ["fixed-desensitize", "fixed-throughput",
                                "maxmin-throughput"]
        for used in cold.values():
            assert used.solver != "ipm" and used.simplex_strategy == 1
            assert used.presolve == "off"
            assert used.simplex_dual_edge_weight_strategy == 0

    def test_ipm_probe_keeps_dual_simplex_results(self, monkeypatch):
        # Against dual simplex for every stage-2 solve: the first probe's F
        # within 1e-9 and beta within BETA_TOL, since a Newton path may
        # meet another slope at a kink of F.
        def stage2(phys, crit, mu):
            steps = record_stage2(monkeypatch)
            beta = desensitize(phys, crit, mu).beta
            monkeypatch.undo()
            return steps[0][1], beta

        dual = {name: options for name, options in lp._FAMILY_OPTIONS.items()
                if name not in STAGE2_FAMILIES}
        for phys, crit in stage2_instances():
            mu = solve_maxmin_throughput(phys, crit).mu
            F, beta = stage2(phys, crit, mu)
            with monkeypatch.context() as patch:
                patch.setattr(lp, "_FAMILY_OPTIONS", dual)
                want_F, want_beta = stage2(phys, crit, mu)
            assert F == pytest.approx(want_F, rel=1e-9)
            assert within_tol(beta, want_beta)

    def test_every_family_is_some_models(self, monkeypatch):
        # A plan, its rounding and re-routing, a boundedness check and a
        # min-MLU LP look up every family in the table.
        from couder.evaluate import optimal_routing_mlu
        from couder.traffic import check_bounded
        table = RecordingTable(lp._FAMILY_OPTIONS)
        monkeypatch.setattr(lp, "_FAMILY_OPTIONS", table)
        phys, crit = next(joint_instances())
        calls = record_stage2(monkeypatch)
        plan = run_pipeline(phys, crit)
        assert len(calls) > 2
        topo = ldm_round(phys, plan.d, 50).topo
        recompute_routing(phys, topo, crit)
        recompute_routing(phys, topo, crit, desensitized=False)
        check_bounded(crit.matrices[0], crit)
        optimal_routing_mlu(topo, crit.matrices[0])
        assert set(table) <= table.asked


def warm_instance(seed: int) -> tuple:
    """A random fabric and criticals for the warm stage-3 checks: N = 3-8,
    M = 1-4, K = 1-5, dense or 30 % sparse criticals."""
    rng = np.random.default_rng([7, seed])
    n, m, k = (int(rng.integers(lo, hi)) for lo, hi in ((3, 9), (1, 5),
                                                        (1, 6)))
    phys = (random_fabric if seed % 2 else hetero_fabric)(rng, n, m, 1, 4)
    if seed % 4 < 2:
        return phys, random_criticals(rng, n, k)
    return phys, CriticalSet(tuple(sparse_tm(rng, n, 0.3) for _ in range(k)))


def warm_and_cold_stage3(monkeypatch, phys, crit, desensitized, topo=None):
    """(the plan of ``run_pipeline``, or of ``recompute_routing`` on
    ``topo``, and a standalone ``minimize_ahc``, solved cold, at the mu
    and beta the plan's stage 3 was given)."""
    fixed = None if topo is None else topo.X.astype(float)
    calls = record_args(monkeypatch, "minimize_ahc")
    if topo is None:
        plan = run_pipeline(phys, crit, desensitized)
    else:
        plan = recompute_routing(phys, topo, crit, desensitized)
    monkeypatch.undo()
    mu, beta = calls[0][2:4]
    assert plan.mu == pytest.approx(mu, rel=1e-12)
    assert plan.beta == pytest.approx(beta, rel=1e-12)
    return plan, minimize_ahc(phys, crit, mu, beta, _fixed=fixed)


def assert_stage3_invariants(plan, cold, x, crit, b: float, sen_tol: float):
    """``plan``'s z is the cold stage 3's, each critical at ``plan.mu``
    fits the capacities ``x``, and, desensitized, no link's sensitivity
    passes beta by more than ``sen_tol`` of it."""
    assert direct_traffic(plan, crit) == pytest.approx(
        direct_traffic(cold, crit), rel=1e-6)
    for t in crit:
        assert evaluate_static(x, plan.omega, t, b).mlu \
            <= (1 + 1e-6) / plan.mu
    if plan.beta is not None:
        assert sensitivity_map(x, plan.omega, b).max() \
            <= plan.beta * (1 + sen_tol)


def direct_traffic(sol, crit) -> float:
    """Stage 3's z in a plan: the least traffic, as a share of demand
    over sigma, that any critical with traffic puts on direct paths."""
    t = _tables(crit.num_pods)
    direct = sol.omega.omega[np.arange(len(t.pairs)) * (crit.num_pods - 1)]
    demand = crit.stacked()[:, t.pair_src, t.pair_dst]
    demand = demand[demand.any(axis=1)]
    return float((demand @ direct).min() / demand_scale(crit.stacked()))


class TestStage3Warm:
    """Stage 3 re-solved on the model of the stage before it."""

    @pytest.mark.parametrize("first", range(0, 200, 25))
    def test_keeps_the_cold_optimum(self, monkeypatch, first):
        # The pipeline's stage 3, re-solved warm, reaches the z of a cold
        # standalone stage 3 at the same mu and beta; the plan keeps its
        # port budgets, its sensitivity bound and its throughput.  Three
        # fabrics a case: more kill no seeded mutant that other tests miss.
        for seed in range(first, first + 3):
            phys, crit = warm_instance(seed)
            for desensitized in (True, False):
                plan, cold = warm_and_cold_stage3(monkeypatch, phys, crit,
                                                  desensitized)
                assert (plan.d.d.sum(axis=1)
                        <= phys.egress_radix + 1e-6).all()
                assert (plan.d.d.sum(axis=0)
                        <= phys.ingress_radix + 1e-6).all()
                assert_stage3_invariants(plan, cold, plan.d, crit,
                                         phys.link_bandwidth, 1e-9)

    def test_fallback_bracket_hands_on_the_accepted_basis(self,
                                                          monkeypatch):
        # Stage 2 ends in its fallback bracket here and accepts a probe
        # before its last; stage 3 starts from that probe's basis with z
        # nonbasic at 0 and the K direct rows basic, which HiGHS holds
        # after every other row.
        phys, crit, _ = rounded_instance(3, random_fabric)
        accepted, real = [], optimize._newton_beta

        def newton_beta(*args):
            accepted.append(real(*args))
            return accepted[-1]

        monkeypatch.setattr(optimize, "_newton_beta", newton_beta)
        calls = record_highs(monkeypatch)
        run_pipeline(phys, crit)
        monkeypatch.undo()
        best, last = accepted[0][2].basis, calls[-2][1].basis
        status = lp._highs.HighsBasisStatus
        rows = best.row_status
        want = (best.col_status + [status.kLower],
                rows + [status.kBasic] * len(crit))
        handed = calls[-1][0]
        assert (handed.col_status, handed.row_status) == want
        assert (last.col_status, last.row_status) != (best.col_status, rows)

    @pytest.mark.parametrize("desensitized", [True, False])
    def test_plans_port_counts_up_to_2_pow_50(self, monkeypatch,
                                              desensitized):
        # Unbounded, z made HiGHS end the re-solve "unbounded" on these
        # port counts; bounded, stage 3 is one solve that ends optimal.
        crit = CriticalSet((TrafficMatrix(np.ones((2, 2)) - np.eye(2)),))
        for exponent in range(30, 51):
            phys = make_fabric(2, 1, 2 ** exponent)
            models, calls = (record_solves(monkeypatch, copy=True),
                             record_highs(monkeypatch))
            plan = run_pipeline(phys, crit, desensitized)
            monkeypatch.undo()
            assert [res.status for model, (_, res) in zip(models, calls)
                    if model.name.startswith("minimize-ahc")] == ["optimal"]
            assert (plan.d.d.sum(axis=1)
                    <= phys.egress_radix * (1 + 1e-9)).all()
            assert (plan.d.d.sum(axis=0)
                    <= phys.ingress_radix * (1 + 1e-9)).all()


class TestMinimizeAhc:
    def test_n2_all_direct(self):
        phys, crit = n2_instance()
        sol = minimize_ahc(phys, crit, 0.5, 0.25)
        assert sol.omega.weights.get(Path(0, 1), 0.0) == pytest.approx(1.0, abs=1e-9)
        rec = evaluate_static(sol.d, sol.omega, crit.matrices[0], 1.0)
        assert rec.ahc == pytest.approx(1.0, abs=1e-9)

    def test_single_pair_ample_ports(self):
        phys = make_fabric(4, 1, 8)
        t = np.zeros((4, 4))
        t[0, 3] = 2.0
        crit = CriticalSet((TrafficMatrix(t),))
        # Without a sensitivity cap the direct path alone is optimal.
        sol = run_pipeline(phys, crit, desensitized=False)
        assert sol.omega.weights.get(Path(0, 3), 0.0) == pytest.approx(1.0, abs=1e-6)
        rec = evaluate_static(sol.d, sol.omega, crit.matrices[0], 1.0)
        assert rec.ahc == pytest.approx(1.0, abs=1e-6)
        # At the fully minimized sensitivity bound the direct weight is
        # deliberately capped: spreading is the point of desensitizing.
        capped = run_pipeline(phys, crit, desensitized=True)
        assert capped.omega.weights.get(Path(0, 3), 0.0) < 1.0 - 1e-6

    def test_n3_objective_matches_grid_oracle(self):
        phys, crit = n3_instance()
        mu = solve_maxmin_throughput(phys, crit).mu
        beta = desensitize(phys, crit, mu).beta
        sol = minimize_ahc(phys, crit, mu, beta)
        lp_objective = sol.omega.weights.get(Path(0, 1), 0.0) * 4.0
        oracle = 4.0 * oracle_step3_direct_weight(beta)
        assert lp_objective == pytest.approx(oracle, abs=5e-2)

    def test_throughput_never_degraded(self):
        rng = np.random.default_rng(4)
        phys = make_fabric(4, 2, 4)
        crit = random_criticals(rng, 4, 3)
        sol = run_pipeline(phys, crit)
        # mu is a hard constraint in stages 2-3: every critical scaled by mu
        # still routes within the final link counts.
        for t in crit:
            scaled = TrafficMatrix(t.demand * sol.mu)
            rec = evaluate_static(sol.d, sol.omega, scaled, 1.0)
            assert rec.mlu <= 1.0 + 1e-9

    def test_sensitivity_cap_respected(self):
        rng = np.random.default_rng(5)
        phys = make_fabric(4, 2, 4)
        crit = random_criticals(rng, 4, 2)
        sol = run_pipeline(phys, crit)
        sen = sensitivity_map(sol.d, sol.omega, phys.link_bandwidth)
        assert sen[np.isfinite(sen)].max() <= sol.beta + 1e-6


    @pytest.mark.parametrize("desensitized", [True, False])
    def test_critical_without_traffic_changes_no_plan(self, desensitized):
        # Such a critical adds no load row and no direct-traffic row: a row
        # z <= 0 would leave stage 3 nothing to maximize.
        rng = np.random.default_rng(0)
        phys = make_fabric(5, 2, 3)
        busy = random_criticals(rng, 5, 2).matrices
        idle = CriticalSet((busy[0], TrafficMatrix(np.zeros((5, 5))),
                            busy[1]))
        crit = CriticalSet(busy)
        plan = run_pipeline(phys, crit, desensitized)
        topo = ldm_round(phys, plan.d, 50).topo
        for got, want in (
                (run_pipeline(phys, idle, desensitized), plan),
                (recompute_routing(phys, topo, idle, desensitized),
                 recompute_routing(phys, topo, crit, desensitized))):
            np.testing.assert_array_equal(got.d.d, want.d.d)
            np.testing.assert_array_equal(got.omega.omega, want.omega.omega)
            assert (got.mu, got.beta) == (want.mu, want.beta)


class TestLemma2Property:
    def test_bounded_demand_keeps_guarantee(self):
        rng = np.random.default_rng(6)
        phys = make_fabric(5, 2, 4)
        crit = random_criticals(rng, 5, 3, scale=8.0)
        sol = run_pipeline(phys, crit)
        bound = 1.0 / sol.mu + 1e-5
        for _ in range(50):
            t = convex_combination(rng, crit)
            rec = evaluate_static(sol.d, sol.omega, t, phys.link_bandwidth)
            assert rec.mlu <= bound

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        phys = make_fabric(4, 2, [3, 4, 2, 5])
        crit = random_criticals(rng, 4, 3, scale=5.0)
        sol = run_pipeline(phys, crit)
        perm = np.array([2, 0, 3, 1])
        inv = np.argsort(perm)
        phys_p = PhysicalTopology(4, 2, phys.egress_ports[:, inv],
                                  phys.ingress_ports[:, inv], 1.0)
        crit_p = CriticalSet(tuple(
            TrafficMatrix(t.demand[np.ix_(inv, inv)]) for t in crit))
        sol_p = run_pipeline(phys_p, crit_p)
        assert sol_p.mu == pytest.approx(sol.mu, rel=1e-9)
        assert sol_p.beta == pytest.approx(sol.beta, rel=1e-9)
        np.testing.assert_allclose(sol_p.d.d[np.ix_(perm, perm)], sol.d.d,
                                   atol=1e-7)


class TestRecomputeRouting:
    def test_integral_fractional_topology_keeps_mu_and_beta(self):
        phys, crit = n2_instance()
        sol = run_pipeline(phys, crit)
        x = np.rint(sol.d.d).astype(int)[None, :, :]
        routed = recompute_routing(phys, IntegerTopology(x), crit)
        assert routed.mu == pytest.approx(sol.mu, rel=1e-6)
        assert routed.beta == pytest.approx(sol.beta, rel=1e-6)

    def test_uniform_mesh_uniform_demand_closed_form(self):
        n, links_per_pair, t_rate = 4, 3, 2.0
        x = np.full((n, n), links_per_pair)
        np.fill_diagonal(x, 0)
        phys = make_fabric(n, 1, links_per_pair * (n - 1))
        t = np.full((n, n), t_rate)
        np.fill_diagonal(t, 0.0)
        crit = CriticalSet((TrafficMatrix(t),))
        routed = recompute_routing(phys, IntegerTopology(x[None]), crit)
        assert routed.mu == pytest.approx(links_per_pair / t_rate, rel=1e-6)

    def test_disconnected_pair_raises(self):
        phys = make_fabric(3, 1, 2)
        x = np.zeros((1, 3, 3), dtype=int)
        x[0, 1, 2] = 1  # pod 0 fully cut off
        t = np.zeros((3, 3))
        t[0, 1] = 1.0
        crit = CriticalSet((TrafficMatrix(t),))
        with pytest.raises(InfeasibleRoutingError):
            recompute_routing(phys, IntegerTopology(x), crit)

    @pytest.mark.parametrize("bandwidth", [0.7, 3.0, 1e11, 2.5e-3])
    def test_stages_hand_on_stage1_mu_bit_for_bit(self, bandwidth):
        # Stages 2 and 3 run at the very mu stage 1 found: fixed-link
        # desensitize hands it on unconverted, so re-routing gives the
        # bits of the three fixed stages chained by hand, stage 3 on
        # stage 2's model as _stages hands it on.
        rng = np.random.default_rng(31)
        for fabric in (random_fabric, hetero_fabric) * 3:
            n = int(rng.integers(3, 6))
            phys = fabric(rng, n, 2, 1, 4, bandwidth=bandwidth)
            crit = random_criticals(rng, n, int(rng.integers(1, 4)))
            topo = ldm_round(phys, run_pipeline(phys, crit).d, 20).topo
            fixed = topo.X.astype(float)
            mu = solve_maxmin_throughput(phys, crit, _fixed=fixed).mu
            stage2 = desensitize(phys, crit, mu, _fixed=fixed)
            assert stage2.mu == mu
            want = minimize_ahc(phys, crit, stage2.mu, stage2.beta,
                                _fixed=fixed, _warm=stage2._model)
            got = recompute_routing(phys, topo, crit)
            assert (got.mu, got.beta) == (want.mu, want.beta)
            assert np.array_equal(got.omega.omega, want.omega.omega)
            assert np.array_equal(got.d.d, want.d.d)

    @pytest.mark.parametrize("desensitized", [True, False])
    def test_stage3_resolves_the_model_before_it(self, monkeypatch,
                                                 desensitized):
        # Stage 1 solves its model and stage 2 builds and solves its own,
        # each cold; stage 3 re-solves the last of them from the basis its
        # solve ended on, z nonbasic at 0 and the K direct rows basic,
        # which HiGHS holds after every other row.  No other model is
        # solved.
        status = lp._highs.HighsBasisStatus
        for seed in range(4):
            phys, crit, topo = rounded_instance(seed, random_fabric)
            seen, real = [], lp.solve

            def recording(model):
                seen.append((model, model.name))
                return real(model)

            monkeypatch.setattr(lp, "solve", recording)
            calls = record_highs(monkeypatch)
            recompute_routing(phys, topo, crit, desensitized)
            monkeypatch.undo()
            assert [name for _, name in seen] == (
                ["fixed-throughput"] + ["fixed-desensitize"] * desensitized
                + ["minimize-ahc-warm"])
            assert seen[-1][0] is seen[-2][0]
            assert len({id(model) for model, _ in seen}) == 1 + desensitized
            assert [basis is None for basis, _ in calls[:-1]] == [True] * (
                1 + desensitized)
            before, handed = calls[-2][1].basis, calls[-1][0]
            weights = _StageBuilder(phys, crit,
                                    topo.X.astype(float)).num_weights
            assert handed.row_status == (before.row_status
                                         + [status.kBasic] * len(crit))
            assert handed.col_status[:weights] == before.col_status[:weights]
            assert len(handed.col_status) == len(before.col_status) + 1
            assert handed.col_status[-1] == status.kLower
            assert calls[-1][1].optimal

    def test_rerouting_keeps_the_cold_optimum_in_omega(self, monkeypatch):
        # On rounded random fabrics, N = 3-8, re-routing's stage 3 reaches
        # the z of a cold standalone stage 3 at the same mu and beta, and
        # the routing keeps its throughput on every critical and its
        # sensitivity bound on every link.
        for seed in range(16):
            phys, crit, topo = rerouting_instance(seed)
            for desensitized in (True, False):
                routed, cold = warm_and_cold_stage3(
                    monkeypatch, phys, crit, desensitized, topo)
                assert_stage3_invariants(routed, cold, topo, crit,
                                         phys.link_bandwidth, 1e-6)

    @pytest.mark.parametrize("case", ["5 pods", "6 pods", "seed 26",
                                      "seed 85"])
    def test_rounded_plans_link_every_demanded_pair(self, case):
        # One switch with 2 ports per pod and one uniform critical gives
        # d* = 0.5 (5 pods) or 0.4 (6 pods) on every pair, whose brackets
        # [0, 1] the empty assignment already meets.  rerouting_instance
        # 26 and 85 are random 8-pod fabrics on two switches; some of
        # their roundings leave a demanded pair without a 1- or 2-hop path
        # unless the repair links it.  Every rounding here re-routes.
        if case.endswith("pods"):
            n = int(case.split()[0])
            phys = make_fabric(n, 1, 2)
            crit = CriticalSet((TrafficMatrix(np.ones((n, n)) - np.eye(n)),))
        else:
            phys, crit, _ = rerouting_instance(int(case.split()[1]))
        d_star = run_pipeline(phys, crit).d
        demanded = sum(t.demand for t in crit.matrices) > 0
        for tau in (0, 1, 2, 3, 20, 50):
            topo = ldm_round(phys, d_star, tau).topo
            linked = (topo.X > 0).astype(int)
            assert (linked + linked @ linked > 0)[demanded].all(), tau
            assert recompute_routing(phys, topo, crit).mu > 0

    def test_infeasible_when_budget_violated(self):
        phys = make_fabric(2, 1, 1)
        x = np.full((1, 2, 2), 5)
        np.fill_diagonal(x[0], 0)
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            recompute_routing(phys, IntegerTopology(x),
                              CriticalSet((TrafficMatrix(t),)))


def rerouting_instance(seed: int) -> tuple:
    """A random fabric, criticals and the LDM rounding of their plan:
    N = 3-8, M = 2-4, 2-4 ports per pod per switch, K = 1-5, dense or
    30 % sparse criticals."""
    rng = np.random.default_rng([8, seed])
    n, m, k = (int(rng.integers(lo, hi)) for lo, hi in ((3, 9), (2, 5),
                                                        (1, 6)))
    phys = (random_fabric if seed % 2 else hetero_fabric)(rng, n, m, 2, 4)
    crit = (random_criticals(rng, n, k) if seed % 4 < 2 else
            CriticalSet(tuple(sparse_tm(rng, n, 0.3) for _ in range(k))))
    return phys, crit, ldm_round(phys, run_pipeline(phys, crit).d, 20).topo


def sparse_instance(seed: int, n: int, fixed: bool):
    """A fabric, criticals with zero entries and, when ``fixed``, a link
    count matrix with zero links; pairs left without a path by it carry
    no demand, so they fall back to their direct path."""
    rng = np.random.default_rng(900 + seed)
    fabric = hetero_fabric if seed % 2 else random_fabric
    phys = fabric(rng, n, 2, qmin=2, qmax=5)
    demand = np.stack([t.demand for t in random_criticals(rng, n, 3)])
    demand *= rng.random(demand.shape) < 0.6
    X = None
    if fixed:
        X = rng.integers(0, 3, size=(n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(X, 0)
        X = X.astype(float)
        linked = X > 0
        routed = linked | ((linked.astype(int) @ linked.astype(int)) > 0)
        demand *= routed
    demand[:, 0, 1] = 1.0  # never all zero
    if fixed:
        X[0, 1] = max(X[0, 1], 1.0)
    return phys, CriticalSet(tuple(TrafficMatrix(t) for t in demand)), X


def record_args(monkeypatch, name: str) -> list:
    """The positional arguments of each call of ``optimize.<name>`` from
    now on, which ``optimize._stages`` makes by that module attribute."""
    calls, real = [], getattr(optimize, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, name, recording)
    return calls


class TestStageModels:
    """The stage models: what HiGHS holds of them, and one model per
    stage however it is reached."""

    @pytest.mark.parametrize("desensitized", [True, False])
    def test_standalone_stage3_is_the_pipelines_model(self, monkeypatch,
                                                      desensitized):
        # minimize_ahc called on its own builds the model _stages hands
        # on, stage 1's plus the caps with beta, and solves it once, cold;
        # with free link counts and with fixed ones.
        for n, fixed in itertools.product((2, 5, 8), (False, True)):
            phys, crit, X = sparse_instance(0, n, fixed)
            calls = record_args(monkeypatch, "minimize_ahc")
            pipeline = record_solves(monkeypatch, copy=True)
            optimize._stages(phys, crit, desensitized, X)
            monkeypatch.undo()
            mu, beta = calls[0][2:4]
            models = record_solves(monkeypatch, copy=True)
            highs = record_highs(monkeypatch)
            minimize_ahc(phys, crit, mu, beta, _fixed=X)
            monkeypatch.undo()
            assert len(models) == 1 and highs[0][0] is None
            assert pipeline[-1].name == "minimize-ahc-warm"
            assert_same_model(models[0], pipeline[-1])

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_highs_holds_the_reference_model(self, monkeypatch, n, fixed):
        # Every LP of the three stages, each stage-2 Newton re-solve on one
        # model included: HiGHS holds, bit for bit, the model built
        # column-wise from one sparse matrix per relation and part.
        for seed in range(2):
            phys, crit, X = sparse_instance(seed, n, fixed)
            pairs = record_highs_models(monkeypatch)
            optimize._stages(phys, crit, True, X)
            monkeypatch.undo()
            assert len(pairs) >= 3
            for sent, ref in pairs:
                assert sent == ref

    def test_stage2_resolves_hold_the_reference_model(self, monkeypatch):
        # One stage-2 model re-solved at several caps gamma.
        phys, crit, _ = sparse_instance(0, 6, False)
        builder = _StageBuilder(phys, crit)
        model = _throughput_model(builder, "desensitize")
        builder.add_sensitivity_constraints(model)
        pairs = record_highs_models(monkeypatch)
        for gamma in (0.05, 0.2, 0.1, 1.0):
            model.scale = gamma
            assert lp.solve(model).optimal
        monkeypatch.undo()
        assert len(pairs) == 4
        held = [sent for sent, _ in pairs]
        assert held == [ref for _, ref in pairs]
        assert len({h[-1] for h in held}) == 4

    def test_instances_have_fallback_pairs_and_empty_load_rows(self):
        # sparse_instance leaves some pair without a usable path, so it
        # falls back to its direct path, and some (link, critical) without
        # a load row.
        fallback = empty_row = False
        for n in range(2, 9):
            for seed, fixed in ((0, False), (1, False), (0, True), (1, True)):
                builder = _StageBuilder(*sparse_instance(seed, n, fixed))
                fallback |= len(builder.routed) < len(builder.tables.pairs)
                model = builder.new_model("")
                builder.add_load_constraints(model)
                empty_row |= len(model._blocks[-1].rhs) \
                    < len(builder.tables.pairs) * len(builder.demand)
        assert fallback and empty_row

    def test_tables_are_read_only_and_cached(self):
        t = _tables(5)
        assert _tables(5) is t
        for name, value in t._asdict().items():
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError):
                    value[0] = 0
            else:
                assert isinstance(value, tuple), name

    def test_builders_on_different_topologies_share_nothing(self):
        # A builder used after another topology's builder gives the model
        # a fresh builder gives.
        phys, crit, X1 = sparse_instance(0, 6, True)
        _, _, X2 = sparse_instance(1, 6, True)
        crit2 = CriticalSet(tuple(TrafficMatrix(t * (X2 > 0))
                                  for t in crit.stacked()))
        assert not np.array_equal(X1 > 0, X2 > 0)
        first = _StageBuilder(phys, crit, X1)
        second = _StageBuilder(phys, crit2, X2)
        for builder, c, X in ((first, crit, X1), (second, crit2, X2),
                              (first, crit, X1)):
            assert_same_model(
                _throughput_model(builder, "fixed-desensitize", caps=True),
                _throughput_model(_StageBuilder(phys, c, X),
                                  "fixed-desensitize", caps=True))


def planted_instance(seed: int) -> tuple:
    """(fabric, criticals W, A, B, P, link counts X) on a random, hetero
    or zero-radix fabric of 4-7 pods, with dense or 30 % sparse A and B
    on the pairs whose link can hold one.  W = A / 2 is below A
    everywhere.  P is B with one pair doubled and another halved, so on
    each link P is above B, below it, tied with it or neither, by which of
    the two pairs' paths cross it.  X links every such pair, for the
    fixed-link stages."""
    rng = np.random.default_rng([44, seed])
    n = int(rng.integers(4, 8))
    fabric = (random_fabric, hetero_fabric, zero_radix_fabric)[seed % 3]
    phys = fabric(rng, n, 2)
    room = np.minimum.outer(phys.egress_radix, phys.ingress_radix) > 0
    np.fill_diagonal(room, False)
    A, B = ((sparse_tm(rng, n, 0.3) if seed // 3 % 2 else random_tm(rng, n))
            .demand * room for _ in range(2))
    pairs = np.argwhere(room)
    up, down = map(tuple, pairs[rng.choice(len(pairs), 2, replace=False)])
    B[up], B[down] = max(B[up], 1.0), max(B[down], 1.0)
    P = B.copy()
    P[up] *= 2.0
    P[down] *= 0.5
    crit = CriticalSet(tuple(TrafficMatrix(t) for t in (A / 2, A, B, P)))
    X = rng.integers(1, 4, size=(n, n)) * room
    return phys, crit, X.astype(float)


def lp_loads(builder: _StageBuilder, crit: CriticalSet,
             x: np.ndarray) -> np.ndarray:
    """(critical, link) loads, over the builder's sigma, of every critical
    of ``crit`` at the scaled weights of a stage LP's vertex ``x``."""
    w = np.zeros(len(builder.tables.paths))
    w[builder.col >= 0] = x[:builder.num_weights]
    return RoutingWeights(builder.n, w).loads(crit.stacked() / builder.sigma)


class TestImpliedLoadRows:
    """A load row another critical implies on its link is left out."""

    @pytest.mark.parametrize("seed", range(6))
    def test_lp_link_counts_cover_every_critical(self, monkeypatch, seed):
        # Every stage LP's own link counts (or the fixed ones) carry the
        # load of every critical at its weights, those without a row
        # included, so the plan's lift moves nothing past tolerance.
        phys, crit, X = planted_instance(seed)
        for fixed in (None, X):
            builder = _StageBuilder(phys, crit, fixed)
            calls = record_highs(monkeypatch)
            optimize._stages(phys, crit, True, fixed)
            monkeypatch.undo()
            for _, sol in calls:
                cap = (sol.x[builder._dcol()] if fixed is None
                       else builder.capacity)
                assert (lp_loads(builder, crit, sol.x) <= cap + 1e-9).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_order_of_the_criticals_moves_no_mu_or_beta(self, seed):
        phys, crit, X = planted_instance(seed)
        back = CriticalSet(crit.matrices[::-1])
        for fixed in (None, X):
            got = optimize._stages(phys, back, True, fixed)
            want = optimize._stages(phys, crit, True, fixed)
            assert got.mu == pytest.approx(want.mu, rel=1e-9)
            assert got.beta == pytest.approx(want.beta, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_wholly_dominated_critical_adds_no_load_row(self, seed):
        # W = A / 2 comes first; the stage-1 model is the one without it,
        # bit for bit, with free link counts and with fixed ones.
        phys, crit, X = planted_instance(seed)
        rest = CriticalSet(crit.matrices[1:])
        for fixed in (None, X):
            assert_same_model(
                _throughput_model(_StageBuilder(phys, crit, fixed), ""),
                _throughput_model(_StageBuilder(phys, rest, fixed), ""))

    @pytest.mark.parametrize("desensitized", [True, False])
    def test_repeated_critical_builds_the_model_without_it(
            self, monkeypatch, desensitized):
        # The first copy of a repeated critical stays: stage 3 carries
        # its load rows and its direct-traffic row once.
        phys, crit, X = planted_instance(1)
        a, b = crit.matrices[1:3]
        for fixed in (None, X):
            plan = optimize._stages(phys, CriticalSet((a, b)), desensitized,
                                    fixed)
            models = []
            for repeated in ((a, b), (a, b, a), (a, a, b)):
                solved = record_solves(monkeypatch, copy=True)
                minimize_ahc(phys, CriticalSet(repeated), plan.mu,
                             plan.beta, _fixed=fixed)
                monkeypatch.undo()
                models += solved
            assert_same_model(models[1], models[0])
            assert_same_model(models[2], models[0])


def unit_instances():
    """(fabric, criticals): random criticals, and criticals of a storage
    day, each on a random fabric."""
    rng = np.random.default_rng(31)
    yield random_fabric(rng, 5, 2, qmin=2, qmax=5), random_criticals(rng, 5, 3)
    yield (random_fabric(rng, 6, 2, qmin=2, qmax=5),
           extract_critical(gen_storage_tms(6, 16, 4), 3))


def in_units(phys, crit, s, bandwidth=True):
    """The instance with every demand times s, and the link bandwidth too
    when ``bandwidth``."""
    b = phys.link_bandwidth * (s if bandwidth else 1.0)
    return (PhysicalTopology(phys.num_pods, phys.num_ocs, phys.egress_ports,
                             phys.ingress_ports, b),
            CriticalSet(tuple(TrafficMatrix(t.demand * s) for t in crit)))


def unitless_plan(phys, crit) -> list:
    """mu, beta * b, d and omega of the plan, X of its LDM rounding, and
    mu, beta * b and omega of the routing recomputed on X."""
    b = phys.link_bandwidth
    sol = run_pipeline(phys, crit)
    topo = ldm_round(phys, sol.d, 50).topo
    routed = recompute_routing(phys, topo, crit)
    return [sol.mu, sol.beta * b, sol.d.d, sol.omega.omega, topo.x,
            routed.mu, routed.beta * b, routed.omega.omega]


class TestUnits:
    """A plan does not depend on the unit shared by demand and bandwidth."""

    @pytest.mark.parametrize("k", [-40, -23, -1, 1, 17, 40])
    def test_power_of_two_unit_changes_no_bit(self, k):
        for phys, crit in unit_instances():
            want = unitless_plan(phys, crit)
            got = unitless_plan(*in_units(phys, crit, 2.0 ** k))
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-8, 1e10, 1e11, 1e12])
    def test_any_unit_gives_the_same_plan(self, s):
        for phys, crit in unit_instances():
            want = run_pipeline(phys, crit)
            b = phys.link_bandwidth
            both = run_pipeline(*in_units(phys, crit, s))
            assert both.mu == pytest.approx(want.mu, rel=1e-9)
            # Stage 2 finds beta within BETA_TOL: the storage day ends in
            # its fallback bracket, where the Newton path depends on which
            # of several slopes at a kink of F the solver reports.
            assert both.beta * b * s == pytest.approx(want.beta * b,
                                                      rel=BETA_TOL)
            # Demand alone in a unit s times finer: mu is s times smaller.
            alone = run_pipeline(*in_units(phys, crit, s, bandwidth=False))
            assert alone.mu * s == pytest.approx(want.mu, rel=1e-9)

    @pytest.mark.parametrize("what", ["mu", "beta"])
    def test_plan_past_the_float_range_is_invalid(self, what):
        # Demand 1e-310 at b = 1 has mu near 1e310; at b = 1e-310 too, mu
        # is near 1 but beta near 1e310.
        phys = make_fabric(3, 1, 2, bandwidth=1.0 if what == "mu" else 1e-310)
        t = 1e-310 * (np.ones((3, 3)) - np.eye(3))
        with pytest.raises(InvalidInputError, match=what):
            run_pipeline(phys, CriticalSet((TrafficMatrix(t),)))
